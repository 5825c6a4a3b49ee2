"""Combinatorial floorplan engines: counting precheck, greedy packing,
forward-checking DFS.

The Section V-H feasibility oracle must answer *fast* in both
directions, because PA's shrink loop and PA-R's improvement filter call
it constantly:

1. :func:`counting_precheck` — a region demanding ``d`` units of type
   ``τ`` needs at least ``ceil(d / per-cell-capacity)`` cells of
   ``τ``-typed columns, whatever its shape; summing over regions gives
   an O(regions·types) proven-infeasibility test that catches the
   common "too many DSP/BRAM-using regions" case instantly.
2. :func:`greedy_pack` — first-fit over several deterministic orderings
   (and a few seeded shuffles); succeeds for the typical
   moderately-utilized region sets in microseconds.
3. :func:`solve_backtracking` — exact DFS with forward checking under a
   node budget.  Each region's surviving candidates are one integer
   bitmask.  Placing a candidate filters every other region with one
   AND-NOT against a *conflict row* (the bitmask of that region's
   candidates overlapping the placement, memoised per call on the
   candidate list and the placement's cell mask), and the same pass
   picks the most-constrained region to place next.

Budget exhaustion reports infeasible-but-unproven; the PA loop treats
that like a rejection (shrink and retry), matching the paper's use of
the floorplanner as a bounded oracle.  The budget counts placement
attempts only, so every verdict is a function of the input alone.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field

from ..model import ResourceVector
from .device import FabricDevice
from .placements import Placement, placement_mask

__all__ = [
    "BacktrackResult",
    "counting_precheck",
    "greedy_pack",
    "solve_backtracking",
]


_ABOVE_ANY_COUNT = 1 << 62  # starts the fewest-survivors minimum


@dataclass
class BacktrackResult:
    feasible: bool
    placements: list[Placement] | None
    proven: bool
    nodes: int
    elapsed: float
    stats: dict = field(default_factory=dict)


def counting_precheck(
    device: FabricDevice,
    demands: list[ResourceVector],
) -> bool:
    """Necessary condition: per-type cell counting.

    Returns ``False`` when the region set *provably* cannot be placed.
    """
    cells_available: dict[str, int] = {}
    first = device.reserved_columns
    for col in range(first, device.width):
        kind = device.columns[col]
        cells_available[kind] = cells_available.get(kind, 0) + device.rows
    for kind, spec in device.specs.items():
        cells_available.setdefault(kind, 0)

    needed: dict[str, int] = {k: 0 for k in cells_available}
    for demand in demands:
        for kind, amount in demand.items():
            spec = device.specs.get(kind)
            if spec is None:
                return False  # unknown resource type: unplaceable
            needed[kind] += -(-amount // spec.resources)  # ceil division
    return all(needed[k] <= cells_available[k] for k in needed)


def _mask_lists(
    device: FabricDevice, candidates_per_region: list[list[Placement]]
) -> list[list[int]]:
    """Cell bitmasks per candidate, computed once per *unique* list.

    Memoized candidate enumerations mean regions with identical demands
    share the same list object; sharing the mask list too turns the
    per-call mask cost from O(regions) into O(unique demands).
    """
    by_list: dict[int, list[int]] = {}
    out: list[list[int]] = []
    for cands in candidates_per_region:
        masks = by_list.get(id(cands))
        if masks is None:
            masks = [placement_mask(p, device) for p in cands]
            by_list[id(cands)] = masks
        out.append(masks)
    return out


def greedy_pack(
    device: FabricDevice,
    candidates_per_region: list[list[Placement]],
    orderings: int = 6,
    seed: int = 0,
) -> list[Placement] | None:
    """First-fit packing over several region orderings.

    Candidate lists are assumed smallest-area-first (the
    :func:`~repro.floorplan.placements.candidate_placements` order), so
    first-fit naturally prefers compact placements.  Returns placements
    in input order, or ``None`` when every ordering fails.
    """
    n = len(candidates_per_region)
    if n == 0:
        return []
    masks = _mask_lists(device, candidates_per_region)

    def attempt(order: list[int]) -> list[Placement] | None:
        occupied = 0
        chosen: list[Placement | None] = [None] * n
        for region in order:
            for idx, mask in enumerate(masks[region]):
                if not occupied & mask:
                    occupied |= mask
                    chosen[region] = candidates_per_region[region][idx]
                    break
            else:
                return None
        return chosen  # type: ignore[return-value]

    # Deterministic orders: most-constrained first, biggest first,
    # input order — then seeded shuffles.
    base_orders = [
        sorted(range(n), key=lambda i: len(candidates_per_region[i])),
        sorted(
            range(n),
            key=lambda i: -(
                candidates_per_region[i][0].width
                * candidates_per_region[i][0].height
                if candidates_per_region[i]
                else 0
            ),
        ),
        list(range(n)),
    ]
    rng = random.Random(seed)
    while len(base_orders) < orderings:
        order = list(range(n))
        rng.shuffle(order)
        base_orders.append(order)
    for order in base_orders[:orderings]:
        result = attempt(order)
        if result is not None:
            return result
    return None


def solve_backtracking(
    device: FabricDevice,
    candidates_per_region: list[list[Placement]],
    node_limit: int = 50_000,
) -> BacktrackResult:
    """Exact DFS with forward checking under a node budget.

    ``candidates_per_region[i]`` are the feasible placements of region
    ``i``.  Returns placements in the input region order.  The verdict
    depends on the input only: the budget counts placement attempts,
    never seconds (``elapsed`` is reported, not read).
    """
    start = _time.perf_counter()
    n = len(candidates_per_region)
    if n == 0:
        return BacktrackResult(True, [], True, 0, 0.0)
    if any(not c for c in candidates_per_region):
        return BacktrackResult(
            False, None, True, 0, _time.perf_counter() - start,
            stats={"reason": "region-without-placements"},
        )

    # Fast paths: counting bound, then greedy first-fit.
    greedy = greedy_pack(device, candidates_per_region)
    if greedy is not None:
        return BacktrackResult(
            True, greedy, True, 0, _time.perf_counter() - start,
            stats={"via": "greedy"},
        )

    masks = _mask_lists(device, candidates_per_region)
    # Conflict rows, memoised per unique candidate list:
    # ``rows[r][mask]`` has bit ``i`` set iff r's candidate ``i``
    # overlaps the cells of ``mask``.
    by_list: dict[int, dict[int, int]] = {}
    rows = [by_list.setdefault(id(m), {}) for m in masks]
    chosen: list[int] = [-1] * n
    nodes = 0
    exhausted = False

    def dfs(region: int, unplaced: list[int], live: list[int]) -> bool:
        """Place ``region`` (the most constrained of ``unplaced``),
        then the rest.

        ``live[r]`` is a bitmask over r's candidate indices that fit
        beside every placement made so far.  Placing candidate ``idx``
        filters each other region with one AND-NOT against its conflict
        row, and the same pass picks the region with the fewest
        survivors (lowest index on ties) to place next.
        """
        nonlocal nodes, exhausted
        remaining = [r for r in unplaced if r != region]
        region_masks = masks[region]
        pending = live[region]
        while pending:
            low = pending & -pending
            pending ^= low
            idx = low.bit_length() - 1
            nodes += 1
            if nodes > node_limit:
                exhausted = True
                return False
            mask = region_masks[idx]
            next_live = live[:]
            best_count = _ABOVE_ANY_COUNT
            best = -1
            for other in remaining:
                table = rows[other]
                row = table.get(mask)
                if row is None:
                    row = 0
                    for i, other_mask in enumerate(masks[other]):
                        if other_mask & mask:
                            row |= 1 << i
                    table[mask] = row
                survivors = live[other] & ~row
                if not survivors:
                    break
                next_live[other] = survivors
                count = survivors.bit_count()
                if count < best_count:
                    best_count = count
                    best = other
            else:  # every other region kept a survivor
                chosen[region] = idx
                if best < 0 or dfs(best, remaining, next_live):
                    return True
                if exhausted:
                    return False
        chosen[region] = -1
        return False

    initial_live = [(1 << len(masks[r])) - 1 for r in range(n)]
    root = min(range(n), key=lambda r: len(masks[r]))  # first on ties
    found = dfs(root, list(range(n)), initial_live)
    elapsed = _time.perf_counter() - start
    if found:
        placements = [candidates_per_region[i][chosen[i]] for i in range(n)]
        return BacktrackResult(
            True, placements, True, nodes, elapsed, stats={"via": "dfs"}
        )
    return BacktrackResult(
        False,
        None,
        proven=not exhausted,
        nodes=nodes,
        elapsed=elapsed,
        stats={"reason": "budget" if exhausted else "exhaustive"},
    )
