"""Floorplanner facade — the Section V-H / Algorithm 1 oracle.

Wraps feasible-placement enumeration plus a solving engine behind the
single ``check(regions)`` call the schedulers use.  Results are cached
on the multiset of region demands: PA-R calls the floorplanner for
every improving schedule, and independent restarts frequently produce
the same region set, so caching "amortizes the computational cost of
the floorplanner over different scheduling iterations" exactly as
Section VI intends.

Two cache layers answer a query before any engine runs:

1. the *exact-key* cache (PR 2) — a dict keyed on the sorted demand
   multiset, and
2. the *monotone dominance* index — placement feasibility is monotone
   in the region demands, so a cached **feasible** multiset answers any
   query whose demands inject component-wise into it (each query demand
   fits in a distinct cached demand: reuse the matched placements), and
   a cached **proven-infeasible** multiset answers any query that
   dominates it (each cached demand injects into a distinct query
   demand: a placement of the query would induce one for the cached
   set).  The index stores sorted demand signatures with per-entry
   aggregate totals as a cheap lattice pre-filter; the injective
   matching itself is an augmenting-path bipartite matching over the
   component-wise ``fits_in`` order.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..model import Architecture, Region, ResourceVector
from .backtrack import counting_precheck, solve_backtracking
from .device import FabricDevice, FabricDevice as _Device, zynq_7z020
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


@dataclass(frozen=True)
class _DominanceEntry:
    """One cached verdict in the monotone index.

    ``demands`` keeps the query-order multiset (``placements`` is
    aligned with it so a dominance hit can hand real rectangles back).
    The matching itself runs on ``vecs`` — plain integer tuples over
    this entry's ``axes`` (its sorted resource types), pre-sorted
    largest-first with ``order`` mapping back to ``demands`` indices —
    because tuple comparisons are an order of magnitude cheaper than
    dict-based :meth:`ResourceVector.fits_in` and the probe is on the
    hot path of every PA-R floorplan query.
    """

    demands: tuple[ResourceVector, ...]
    result: "FloorplanResult"
    placements: tuple[Placement, ...] | None
    axes: tuple[str, ...]
    vecs: tuple[tuple[int, ...], ...]  # sorted by (sum, tuple) descending
    order: tuple[int, ...]  # vecs[k] == tuple-of demands[order[k]]
    totals: tuple[int, ...]  # component-wise sum over axes


def _axes_of(demands: Sequence[ResourceVector]) -> tuple[str, ...]:
    types: set[str] = set()
    for demand in demands:
        types.update(demand)
    return tuple(sorted(types))


def _sorted_tuples(
    demands: Sequence[ResourceVector], axes: tuple[str, ...]
) -> tuple[list[tuple[int, ...]], list[int], tuple[int, ...]]:
    """``(vecs, order, totals)`` over ``axes``, largest-first.

    A demand with a resource type outside ``axes`` would silently lose
    that component in the projection; callers must check support first
    (see :meth:`Floorplanner._query_view`).
    """
    raw = [tuple(d[a] for a in axes) for d in demands]
    order = sorted(range(len(raw)), key=lambda i: (-sum(raw[i]), raw[i]))
    vecs = [raw[i] for i in order]
    totals = tuple(sum(col) for col in zip(*raw)) if raw else (0,) * len(axes)
    return vecs, order, totals


def _tfits(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(small, big))


def _match_tuples(
    smalls: Sequence[tuple[int, ...]], bigs: Sequence[tuple[int, ...]]
) -> list[int] | None:
    """Injective matching ``smalls[k] -> bigs[m[k]]`` under ``_tfits``;
    ``None`` when impossible.  Both sides sorted largest-first.

    Fast path: a single two-pointer sweep (each small takes the first
    still-free big that fits).  On the uniformly-shrunk multisets PA-R
    produces this almost always succeeds in O(n) comparisons; when it
    does not, fall back to full augmenting-path bipartite matching
    (region sets are a few dozen at most, so the worst case is still
    trivial next to one engine solve).
    """
    if len(smalls) > len(bigs):
        return None
    match = [-1] * len(smalls)
    j = 0
    for k, small in enumerate(smalls):
        while j < len(bigs) and not _tfits(small, bigs[j]):
            j += 1
        if j == len(bigs):
            break
        match[k] = j
        j += 1
    else:
        return match

    owner = [-1] * len(bigs)  # big index -> small index

    def assign(k: int, banned: set[int]) -> bool:
        small = smalls[k]
        for j, big in enumerate(bigs):
            if j in banned or not _tfits(small, big):
                continue
            banned.add(j)
            if owner[j] == -1 or assign(owner[j], banned):
                owner[j] = k
                return True
        return False

    for k in range(len(smalls)):
        if not assign(k, set()):
            return None
    match = [-1] * len(smalls)
    for j, k in enumerate(owner):
        if k >= 0:
            match[k] = j
    return match


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
    dominance:
        Monotone dominance index in front of the engines (requires
        ``cache``); ``False`` reproduces the PR-2 exact-key-only
        behaviour, which the cache benchmarks compare against.

    ``stats["dfs_nodes"]`` sums the DFS nodes of every engine run, and
    ``stats["budget_exhausted"]`` counts the verdicts a budget decided
    (infeasible, unproven).
    """

    #: Per-direction cap on the dominance index; oldest entries are
    #: evicted first.  Probing is a linear scan, so the cap also bounds
    #: the per-query overhead.
    DOMINANCE_LIMIT = 512

    def __init__(
        self,
        device: FabricDevice,
        engine: str = "backtrack",
        node_limit: int = 50_000,
        max_candidates: int | None = 400,
        cache: bool = True,
        dominance: bool = True,
    ) -> None:
        if engine not in ("backtrack", "milp", "both"):
            raise ValueError(f"unknown engine {engine!r}")
        self.device = device
        self.engine = engine
        self.node_limit = node_limit
        self.max_candidates = max_candidates
        self._cache: dict | None = {} if cache else None
        self.dominance = dominance and cache
        self._dom_feasible: list[_DominanceEntry] = []
        self._dom_infeasible: list[_DominanceEntry] = []
        self.stats = {
            "queries": 0,
            "cache_hits": 0,
            "dominance_hits": 0,
            "dominance_feasible_hits": 0,
            "dominance_infeasible_hits": 0,
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

        if self.dominance:
            hit = self._dominance_probe(ids, demands)
            if hit is not None:
                return self._finish(hit, t_query)

        return self._finish(self._solve_and_record(ids, demands, key), t_query)

    def _solve_and_record(
        self, ids: list[str], demands: list[ResourceVector], key: tuple
    ) -> FloorplanResult:
        """Run the engines on a cache/index miss and index the verdict."""
        memo_before = self.device.candidate_cache_hits
        result = self._solve(ids, demands)
        self.stats["candidate_memo_hits"] += (
            self.device.candidate_cache_hits - memo_before
        )
        self.stats["engine_time"] += result.stats.get("engine_elapsed", 0.0)
        if self._cache is not None:
            self._cache[key] = result
            if self.dominance:
                self._dominance_insert(ids, demands, result)
        self.stats["feasible" if result.feasible else "infeasible"] += 1
        if result.stats.get("reason") == "budget":
            self.stats["budget_exhausted"] += 1
        return result

    def _finish(self, result: FloorplanResult, t_query: float) -> FloorplanResult:
        result.elapsed = _time.perf_counter() - t_query
        self.stats["query_time"] += result.elapsed
        return result

    # -- dominance index ----------------------------------------------------

    @staticmethod
    def _query_view(
        demands: list[ResourceVector],
        axes: tuple[str, ...],
        cache: dict,
    ):
        """The query's sorted tuples over an entry's axes (memoized per
        probe — consecutive index entries usually share one axis set).

        ``None`` when some query demand has a resource type outside
        ``axes``: the projection would drop that component, so the view
        is unusable for containment tests in either direction (as the
        "smalls" the lost component may exceed the big's zero; as the
        "bigs" the entry's smalls are zero there anyway, but a fit
        verdict from a lossy projection of the *query total* prefilter
        would be wrong — bail out and let the engine decide).
        """
        view = cache.get(axes, False)
        if view is not False:
            return view
        if any(any(t not in axes for t in d) for d in demands):
            view = None
        else:
            view = _sorted_tuples(demands, axes)
        cache[axes] = view
        return view

    def _probe_feasible_entry(
        self,
        entry: _DominanceEntry,
        ids: list[str],
        demands: list[ResourceVector],
        n: int,
        views: dict,
    ) -> FloorplanResult | None:
        """Exact feasible-superset test of one entry."""
        if n > len(entry.demands):
            return None
        view = self._query_view(demands, entry.axes, views)
        if view is None:
            return None
        vecs, order, totals = view
        if not _tfits(totals, entry.totals):
            return None
        match = _match_tuples(vecs, entry.vecs)
        if match is None:
            return None
        self.stats["dominance_hits"] += 1
        self.stats["dominance_feasible_hits"] += 1
        placements = None
        if entry.placements is not None:
            # vecs[k] is demands[order[k]] matched onto
            # entry.demands[entry.order[match[k]]].
            placements = {}
            for k, j in enumerate(match):
                placements[ids[order[k]]] = entry.placements[entry.order[j]]
        return FloorplanResult(
            feasible=True,
            placements=placements,
            proven=True,
            engine=entry.result.engine + "+dom",
            stats=dict(entry.result.stats),
        )

    def _probe_infeasible_entry(
        self,
        entry: _DominanceEntry,
        demands: list[ResourceVector],
        n: int,
        views: dict,
    ) -> FloorplanResult | None:
        """Exact infeasible-subset test of one entry."""
        if len(entry.demands) > n:
            return None
        view = self._query_view(demands, entry.axes, views)
        if view is None:
            return None
        vecs, _order, totals = view
        if not _tfits(entry.totals, totals):
            return None
        if _match_tuples(entry.vecs, vecs) is None:
            return None
        self.stats["dominance_hits"] += 1
        self.stats["dominance_infeasible_hits"] += 1
        return FloorplanResult(
            feasible=False,
            placements=None,
            proven=True,
            engine=entry.result.engine + "+dom",
            stats=dict(entry.result.stats),
        )

    def _dominance_probe(
        self, ids: list[str], demands: list[ResourceVector]
    ) -> FloorplanResult | None:
        """Scan both stores newest-first; the first dominating entry answers."""
        n = len(demands)
        views: dict = {}
        # Feasible superset: every query demand fits a distinct cached one.
        for entry in reversed(self._dom_feasible):
            hit = self._probe_feasible_entry(entry, ids, demands, n, views)
            if hit is not None:
                return hit
        # Infeasible subset: every cached demand fits a distinct query one.
        for entry in reversed(self._dom_infeasible):
            hit = self._probe_infeasible_entry(entry, demands, n, views)
            if hit is not None:
                return hit
        return None

    def _dominance_insert(
        self, ids: list[str], demands: list[ResourceVector], result: FloorplanResult
    ) -> None:
        """Index a fresh verdict when it carries monotone evidence.

        Feasible results always do (the found placements witness every
        dominated query); infeasible ones only when *proven* — a budget
        exhaustion says nothing about supersets.
        """
        if result.feasible:
            placements = None
            if result.placements is not None:
                placements = tuple(result.placements[i] for i in ids)
            store = self._dom_feasible
        elif result.proven:
            placements = None
            store = self._dom_infeasible
        else:
            return
        axes = _axes_of(demands)
        vecs, order, totals = _sorted_tuples(demands, axes)
        store.append(
            _DominanceEntry(
                demands=tuple(demands),
                result=result,
                placements=placements,
                axes=axes,
                vecs=tuple(vecs),
                order=tuple(order),
                totals=totals,
            )
        )
        if len(store) > self.DOMINANCE_LIMIT:
            del store[0]

    # -- warm start (parallel PA-R) -----------------------------------------

    def export_entries(self) -> list[tuple[tuple, FloorplanResult]]:
        """Picklable snapshot of the exact-key cache."""
        if self._cache is None:
            return []
        return list(self._cache.items())

    def absorb(
        self, entries: Iterable[tuple[Sequence[ResourceVector], FloorplanResult]]
    ) -> int:
        """Warm both cache layers with results computed elsewhere.

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
            if self.dominance:
                ids = (
                    list(result.placements)
                    if result.placements is not None
                    else [f"R{i}" for i in range(len(demand_list))]
                )
                self._dominance_insert(ids, demand_list, result)
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
