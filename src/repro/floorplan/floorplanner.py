"""Floorplanner facade — the Section V-H / Algorithm 1 oracle.

Wraps feasible-placement enumeration plus a solving engine behind the
single ``check(regions)`` call the schedulers use.  Results are cached
on the multiset of region demands: PA-R calls the floorplanner for
every improving schedule, and independent restarts frequently produce
the same region set, so caching "amortizes the computational cost of
the floorplanner over different scheduling iterations" exactly as
Section VI intends.

One cache answers a query before any engine runs: a dict keyed on the
sorted demand multiset.  A hit re-binds the cached placements to the
query's region ids (:func:`_rebind`).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..model import Architecture, Region, ResourceVector
from .backtrack import counting_precheck, solve_backtracking
from .device import FabricDevice, zynq_7z020
from .milp import solve_milp
from .placements import Placement, candidate_placements

__all__ = [
    "FloorplanResult",
    "Floorplanner",
    "device_for_architecture",
]


@dataclass
class FloorplanResult:
    """Outcome of one feasibility query.

    ``elapsed`` is the wall-clock of the whole ``check`` call that
    produced this result — precheck short-circuits and cache hits
    included.  The raw engine time of the underlying solve (if any) is
    in ``stats["engine_elapsed"]``.
    """

    feasible: bool
    placements: dict[str, Placement] | None
    proven: bool
    engine: str
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # convenience: `if planner.check(...)`
        return self.feasible


def _architecture_signature(arch: Architecture) -> tuple:
    """Value identity of everything the synthetic fabric depends on."""
    return (
        arch.name,
        tuple(sorted(arch.max_res.items())),
        tuple(sorted(arch.bit_per_resource.items())),
    )


_SYNTHETIC_DEVICE_CACHE: dict[tuple, FabricDevice] = {}
_SYNTHETIC_DEVICE_CACHE_LIMIT = 64


def device_for_architecture(arch: Architecture) -> FabricDevice:
    """A fabric model matching an architecture.

    Architectures derived from a device (``FabricDevice.architecture``)
    or named after the ZedBoard map to the Zynq model; anything else
    gets a synthetic single-row fabric with one column type per
    resource, sized to cover ``maxRes`` exactly.  Synthetic devices are
    cached on the architecture's value identity, so repeated
    ``Floorplanner.for_architecture`` calls in sweeps share one fabric
    object — and with it the device-level candidate/mask memos.
    """
    name = arch.name.lower()
    if "7z020" in name or "zedboard" in name or "zynq" in name:
        return zynq_7z020()
    key = _architecture_signature(arch)
    device = _SYNTHETIC_DEVICE_CACHE.get(key)
    if device is None:
        if len(_SYNTHETIC_DEVICE_CACHE) >= _SYNTHETIC_DEVICE_CACHE_LIMIT:
            _SYNTHETIC_DEVICE_CACHE.clear()
        device = _synthetic_device(arch)
        _SYNTHETIC_DEVICE_CACHE[key] = device
    return device


def _synthetic_device(arch: Architecture) -> FabricDevice:
    from .device import ColumnSpec

    rows = 2
    specs: dict[str, ColumnSpec] = {}
    columns: list[str] = []
    for rtype in arch.resource_types:
        total = arch.max_res[rtype]
        # Aim for ~16 columns per type; per-cell density covers the
        # total within rows * columns cells.
        per_cell = max(1, -(-total // (rows * 16)))
        n_cols = -(-total // (per_cell * rows))
        frames = max(1, round(per_cell * arch.bit_per_resource[rtype] / (101 * 32)))
        specs[rtype] = ColumnSpec(kind=rtype, resources=per_cell, frames=frames)
        columns.extend([rtype] * n_cols)
    # Interleave types for realism: round-robin merge.
    by_type = {t: [c for c in columns if c == t] for t in specs}
    merged: list[str] = []
    while any(by_type.values()):
        for t in list(by_type):
            if by_type[t]:
                merged.append(by_type[t].pop())
    return FabricDevice(
        name=f"synthetic-{arch.name}", rows=rows, columns=tuple(merged), specs=specs
    )


class Floorplanner:
    """Feasibility oracle over a :class:`FabricDevice`.

    Parameters
    ----------
    engine:
        ``"backtrack"`` (default — fast, bounded DFS), ``"milp"``
        (reference [3] selection model on HiGHS) or ``"both"``
        (backtrack first, MILP as the tie-breaker when the DFS budget
        runs out unproven).
    node_limit:
        Work budget per engine run: DFS placement attempts, or HiGHS
        branch-and-bound nodes.  No verdict reads the clock, so a query
        gets the same answer on any machine under any load.
    max_candidates:
        Cap on feasible placements enumerated per region.
    cache:
        Exact-key result cache on the demand multiset.

    ``stats["dfs_nodes"]`` sums the DFS nodes of every engine run, and
    ``stats["budget_exhausted"]`` counts the verdicts a budget decided
    (infeasible, unproven).
    """

    def __init__(
        self,
        device: FabricDevice,
        engine: str = "backtrack",
        node_limit: int = 50_000,
        max_candidates: int | None = 400,
        cache: bool = True,
    ) -> None:
        if engine not in ("backtrack", "milp", "both"):
            raise ValueError(f"unknown engine {engine!r}")
        self.device = device
        self.engine = engine
        self.node_limit = node_limit
        self.max_candidates = max_candidates
        self._cache: dict | None = {} if cache else None
        self.stats = {
            "queries": 0,
            "cache_hits": 0,
            # Always 0; benchmarks/e2e/tracing.py still reads it.
            "dominance_hits": 0,
            "candidate_memo_hits": 0,
            "engine_time": 0.0,
            "query_time": 0.0,
            "feasible": 0,
            "infeasible": 0,
            "dfs_nodes": 0,
            "budget_exhausted": 0,
        }

    @classmethod
    def for_architecture(cls, arch: Architecture, **kwargs) -> "Floorplanner":
        return cls(device_for_architecture(arch), **kwargs)

    # -- main entry point ---------------------------------------------------

    def check(self, regions: Sequence[Region | ResourceVector]) -> FloorplanResult:
        """Does the region set admit a non-overlapping placement?"""
        t_query = _time.perf_counter()
        self.stats["queries"] += 1
        ids, demands = _normalize(regions)

        key = _cache_key(demands)
        if self._cache is not None and key in self._cache:
            self.stats["cache_hits"] += 1
            cached: FloorplanResult = self._cache[key]
            return self._finish(_rebind(cached, ids, demands, self.device), t_query)
        return self._finish(self._solve_and_record(ids, demands, key), t_query)

    def _solve_and_record(
        self, ids: list[str], demands: list[ResourceVector], key: tuple
    ) -> FloorplanResult:
        """Run the engines on a cache miss and cache the verdict."""
        memo_before = self.device.candidate_cache_hits
        result = self._solve(ids, demands)
        self.stats["candidate_memo_hits"] += (
            self.device.candidate_cache_hits - memo_before
        )
        self.stats["engine_time"] += result.stats.get("engine_elapsed", 0.0)
        if self._cache is not None:
            self._cache[key] = result
        self.stats["feasible" if result.feasible else "infeasible"] += 1
        if result.stats.get("reason") == "budget":
            self.stats["budget_exhausted"] += 1
        return result

    def _finish(self, result: FloorplanResult, t_query: float) -> FloorplanResult:
        result.elapsed = _time.perf_counter() - t_query
        self.stats["query_time"] += result.elapsed
        return result

    # -- warm start (parallel PA-R) -----------------------------------------

    def export_entries(self) -> list[tuple[tuple, FloorplanResult]]:
        """Picklable snapshot of the exact-key cache."""
        if self._cache is None:
            return []
        return list(self._cache.items())

    def absorb(
        self, entries: Iterable[tuple[Sequence[ResourceVector], FloorplanResult]]
    ) -> int:
        """Warm the cache with results computed elsewhere.

        ``entries`` are ``(demands, result)`` pairs — the region
        signatures (feasible and infeasible verdicts alike) shipped
        back by parallel PA-R workers, or an :meth:`export_entries`
        snapshot from another planner (whose demands arrive as the
        cache key's ``(name, value)`` pair tuples).  Returns how many
        entries were new.
        """
        if self._cache is None:
            return 0
        absorbed = 0
        for demands, result in entries:
            demand_list = [
                ResourceVector(d if hasattr(d, "items") else dict(d))
                for d in demands
            ]
            key = _cache_key(demand_list)
            if key in self._cache:
                continue
            self._cache[key] = result
            absorbed += 1
        return absorbed

    # -- engines ------------------------------------------------------------

    def _solve(self, ids: list[str], demands: list[ResourceVector]) -> FloorplanResult:
        # Quick capacity pre-check: cheaper than enumerating placements.
        total = _total(demands)
        if not total.fits_in(self.device.total_resources()):
            return FloorplanResult(
                feasible=False,
                placements=None,
                proven=True,
                engine="capacity",
                stats={"reason": "capacity"},
            )
        # Per-type cell counting: proves the common "more special-column
        # regions than special cells" infeasibility without any search.
        if not counting_precheck(self.device, demands):
            return FloorplanResult(
                feasible=False,
                placements=None,
                proven=True,
                engine="counting",
                stats={"reason": "cell-counting"},
            )

        candidates = [
            candidate_placements(self.device, demand, self.max_candidates)
            for demand in demands
        ]

        if self.engine in ("backtrack", "both"):
            bt = solve_backtracking(self.device, candidates, self.node_limit)
            self.stats["dfs_nodes"] += bt.nodes
            if bt.feasible or bt.proven or self.engine == "backtrack":
                return FloorplanResult(
                    feasible=bt.feasible,
                    placements=_zip_placements(ids, bt.placements),
                    proven=bt.proven,
                    engine="backtrack",
                    elapsed=bt.elapsed,
                    stats={
                        "nodes": bt.nodes,
                        "engine_elapsed": bt.elapsed,
                        **bt.stats,
                    },
                )
        mr = solve_milp(self.device, candidates, self.node_limit)
        return FloorplanResult(
            feasible=mr.feasible,
            placements=_zip_placements(ids, mr.placements),
            proven=mr.proven,
            engine="milp",
            elapsed=mr.elapsed,
            stats={"engine_elapsed": mr.elapsed, **mr.stats},
        )


def _total(demands: Sequence[ResourceVector]) -> ResourceVector:
    total = ResourceVector.zero()
    for demand in demands:
        total = total + demand
    return total


def _cache_key(demands: Sequence[ResourceVector]) -> tuple:
    return tuple(sorted(tuple(sorted(d.items())) for d in demands))


def _normalize(
    regions: Sequence[Region | ResourceVector],
) -> tuple[list[str], list[ResourceVector]]:
    ids: list[str] = []
    demands: list[ResourceVector] = []
    for index, region in enumerate(regions):
        if isinstance(region, Region):
            ids.append(region.id)
            demands.append(region.resources)
        else:
            ids.append(f"R{index}")
            demands.append(region)
    return ids, demands


def _zip_placements(
    ids: list[str], placements: list[Placement] | None
) -> dict[str, Placement] | None:
    if placements is None:
        return None
    return dict(zip(ids, placements))


def _rebind(
    cached: FloorplanResult,
    ids: list[str],
    demands: list[ResourceVector],
    device: FabricDevice,
) -> FloorplanResult:
    """Re-map a cached (multiset-keyed) result onto this query's ids.

    The cache key is demand-multiset based, so the concrete region ids
    of the cached result may differ.  Placements are matched to
    demands greedily by footprint.
    """
    if cached.placements is None:
        return FloorplanResult(
            feasible=cached.feasible,
            placements=None,
            proven=cached.proven,
            engine=cached.engine + "+cache",
            elapsed=0.0,
            stats=dict(cached.stats),
        )
    available = list(cached.placements.values())
    mapping: dict[str, Placement] = {}
    for region_id, demand in sorted(
        zip(ids, demands), key=lambda x: -x[1].total()
    ):
        for i, placement in enumerate(available):
            if demand.fits_in(placement.resources(device)):
                mapping[region_id] = placement
                available.pop(i)
                break
    if len(mapping) != len(ids):
        # Extremely defensive: multiset key should make this impossible.
        return FloorplanResult(
            feasible=cached.feasible,
            placements=None,
            proven=cached.proven,
            engine=cached.engine + "+cache",
            stats=dict(cached.stats),
        )
    return FloorplanResult(
        feasible=cached.feasible,
        placements=mapping,
        proven=cached.proven,
        engine=cached.engine + "+cache",
        elapsed=0.0,
        stats=dict(cached.stats),
    )
