"""Feasible-placement detection (the core idea of reference [3]).

For a region with resource demand ``res_{s,r}`` the floorplanner first
enumerates every *minimal* rectangle of fabric cells satisfying the
demand: for each anchor column and each height (in clock regions) the
minimal width is found with a sliding-window sweep, and a placement is
emitted for every vertical offset.  Non-minimal rectangles are
dominated — any solution using a wider rectangle also admits the
minimal one — so dropping them shrinks the search space without losing
completeness for the *feasibility* question the scheduler asks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from ..model import ResourceVector
from .device import FabricDevice

__all__ = ["Placement", "candidate_placements", "placement_mask"]


@dataclass(frozen=True)
class Placement:
    """A rectangle of fabric cells: columns ``[col, col+width)`` by
    clock-region rows ``[row, row+height)``."""

    col: int
    row: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("placement must span at least one cell")
        if self.col < 0 or self.row < 0:
            raise ValueError("placement anchor must be non-negative")

    def cells(self):
        """All (col, row) cells covered by the rectangle."""
        for c in range(self.col, self.col + self.width):
            for r in range(self.row, self.row + self.height):
                yield (c, r)

    def overlaps(self, other: "Placement") -> bool:
        return (
            self.col < other.col + other.width
            and other.col < self.col + self.width
            and self.row < other.row + other.height
            and other.row < self.row + self.height
        )

    def resources(self, device: FabricDevice) -> ResourceVector:
        return device.rect_resources(self.col, self.width, self.height)

    def bits(self, device: FabricDevice) -> float:
        return device.rect_bits(self.col, self.width, self.height)


def placement_mask(placement: Placement, device: FabricDevice) -> int:
    """Occupancy bitmask over fabric cells (cell id = row * width + col).

    Memoized on the device: the same placement is re-masked by every
    greedy/backtracking call, and mask identity only depends on the
    immutable device geometry.
    """
    cache = device._mask_cache
    mask = cache.get(placement)
    if mask is not None:
        return mask
    mask = 0
    width = device.width
    row_mask = ((1 << placement.width) - 1) << placement.col
    for r in range(placement.row, placement.row + placement.height):
        mask |= row_mask << (r * width)
    cache[placement] = mask
    return mask


def _prune_contained(candidates: list[Placement]) -> list[Placement]:
    """Drop rectangles that geometrically contain another candidate.

    If candidate ``q``'s cells are a subset of ``p``'s, any solution
    placing ``p`` stays valid after swapping ``p`` for ``q`` (both
    satisfy the demand, and ``q`` occupies fewer cells), so ``p`` is
    dominated and can be removed without losing feasibility
    completeness.  Candidates arrive smallest-area first, so containers
    always appear after their contained rectangle.
    """
    kept: list[Placement] = []
    for p in candidates:
        p_right = p.col + p.width
        p_top = p.row + p.height
        contains_kept = any(
            q.col >= p.col
            and q.row >= p.row
            and q.col + q.width <= p_right
            and q.row + q.height <= p_top
            for q in kept
        )
        if not contains_kept:
            kept.append(p)
    return kept


def _prune_contained_vector(candidates: list[Placement]) -> list[Placement]:
    """Vectorized :func:`_prune_contained` — one pairwise containment
    matrix instead of the quadratic Python scan.

    The scalar sweep only tests against already-*kept* rectangles;
    testing against every earlier candidate is equivalent: containment
    is transitive, so if ``p`` contains a dropped earlier ``q``, ``q``
    contains some kept earlier ``q'`` (induction on position) and ``p``
    contains ``q'`` too — ``p`` is dropped either way.
    """
    n = len(candidates)
    if n == 0:
        return []
    rect = _np.array(
        [(p.col, p.row, p.col + p.width, p.row + p.height) for p in candidates],
        dtype=_np.int64,
    )
    col, row, right, top = rect.T
    # contains[c, e]: candidate e's rectangle lies inside candidate c's.
    contains = (
        (col[None, :] >= col[:, None])
        & (row[None, :] >= row[:, None])
        & (right[None, :] <= right[:, None])
        & (top[None, :] <= top[:, None])
    )
    earlier = _np.tri(n, k=-1, dtype=bool)  # [c, e] true iff e < c
    drop = (contains & earlier).any(axis=1)
    return [p for p, d in zip(candidates, drop.tolist()) if not d]


def _minimal_windows_scalar(
    device: FabricDevice, needed: dict[str, int], height: int
) -> list[tuple[int, int]]:
    """Minimal-width windows ``(left, width)`` for one height — the
    reference sliding-window sweep."""
    have: dict[str, int] = {r: 0 for r in needed}

    def satisfied() -> bool:
        return all(have[r] >= needed[r] for r in needed)

    width = device.width
    windows: list[tuple[int, int]] = []
    left = device.reserved_columns
    right = device.reserved_columns
    while left < width:
        while right < width and not satisfied():
            spec = device.specs[device.columns[right]]
            if spec.kind in have:
                have[spec.kind] += spec.resources * height
            right += 1
        if not satisfied():
            break  # no window starting at `left` (or beyond) works
        windows.append((left, right - left))
        # Slide: drop the leftmost column.
        spec = device.specs[device.columns[left]]
        if spec.kind in have:
            have[spec.kind] -= spec.resources * height
        left += 1
    return windows


def _minimal_windows_vector(
    device: FabricDevice, needed: dict[str, int], height: int
) -> list[tuple[int, int]]:
    """Vectorized :func:`_minimal_windows_scalar`.

    The window ``[left, right)`` satisfies kind ``r`` iff the per-kind
    column prefix sum grows by ``ceil(needed_r / height)`` cells across
    it, so the minimal right edge per kind is one ``searchsorted`` over
    all lefts at once, and the overall minimal right is their maximum.
    Minimal right edges are non-decreasing in ``left`` (prefix sums are
    monotone), which reproduces the scalar sweep's early ``break``: the
    first unsatisfiable left ends the enumeration.
    """
    geometry = device.packed_geometry()
    width = device.width
    first = device.reserved_columns
    lefts = _np.arange(first, width, dtype=_np.int64)
    right = lefts.copy()  # a window never ends before it starts
    for kind, req in needed.items():
        prefix = geometry.get(kind)
        if prefix is None:
            return []  # no columns of this kind anywhere
        cells = -(-req // height)  # ceil: per-cell supply scales with height
        edges = _np.searchsorted(prefix, prefix[lefts] + cells, side="left")
        _np.maximum(right, edges, out=right)
    windows: list[tuple[int, int]] = []
    for left, edge in zip(lefts.tolist(), right.tolist()):
        if edge > width:
            break
        windows.append((left, edge - left))
    return windows


def candidate_placements(
    device: FabricDevice,
    demand: ResourceVector,
    max_candidates: int | None = None,
) -> list[Placement]:
    """Minimal-width feasible rectangles for ``demand``.

    Candidates are ordered smallest-area first (then leftmost/lowest),
    which makes both the backtracking solver and the MILP warm start
    prefer compact, fragmentation-friendly placements — the
    anti-fragmentation spirit of the PARLGRAN line of work.

    Results are memoized on the device, keyed on ``(demand,
    max_candidates)``: PA's shrink loop and PA-R's restarts re-enumerate
    the same demands constantly, and the enumeration is a pure function
    of the immutable device geometry.  Callers must treat the returned
    list as read-only.
    """
    cache = device._candidate_cache
    cache_key = (demand, max_candidates)
    cached = cache.get(cache_key)
    if cached is not None:
        device.candidate_cache_hits += 1
        return cached
    device.candidate_cache_misses += 1
    needed = {r: demand[r] for r in demand}
    if not needed:
        raise ValueError("placement demand must be non-empty")
    candidates: list[Placement] = []
    for height in range(1, device.rows + 1):
        # Minimal window per anchor column: per-column supply scales
        # linearly with height, so each height is an independent sweep.
        for left, w in _minimal_windows_vector(device, needed, height):
            for row in range(0, device.rows - height + 1):
                candidates.append(
                    Placement(col=left, row=row, width=w, height=height)
                )

    candidates.sort(
        key=lambda p: (p.width * p.height, p.width, p.col, p.row)
    )
    if len(candidates) >= 24:
        candidates = _prune_contained_vector(candidates)
    else:
        candidates = _prune_contained(candidates)
    if max_candidates is not None:
        candidates = candidates[:max_candidates]
    cache[cache_key] = candidates
    return candidates
