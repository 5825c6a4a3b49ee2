"""The sweep engine: dedup → store-first → warm chains → Pareto front.

Three stacked perf layers make an N-point sweep cost far less than N
independent solves:

1. **Pre-dispatch dedup** — grid cells whose requests canonicalize to
   the same ``cache_key`` collapse to one solve before anything is
   queued (cells differing only in ignored axes — seeds for unseeded
   backends, energy caps — are free).  With a
   :class:`~repro.engine.ResultStore`, surviving keys resolve
   store-first, so a re-sweep after a grid refinement pays only for
   the delta.
2. **Cross-point warm starts** — cells sharing a fabric (same
   floorplanner architecture signature) form a *chain* solved serially
   in one worker around one shared :class:`Floorplanner`, so a
   feasibility verdict at budget B answers dominated queries from
   every other cell on that fabric.
3. **Deterministic parallel drain** — chains fan out over the PR-2
   pool; the reduction walks grid indices in order, so the report's
   :meth:`SweepReport.canonical_payload` is bit-identical for any
   ``jobs`` (asserted by ``benchmarks/bench_explore.py``).

Warm starts are execution context: shared planners never enter a
cache key, and the *decisions* of every outcome are identical to an
independent solve.  Planner cache stats may differ — see DESIGN.md
§ 15 for the purity caveat.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from ..analysis.parallel import ParallelItemFailure, parallel_map
from ..engine import ResultStore, ScheduleOutcome, ScheduleRequest, get_backend
from ..model.power import EnergyBreakdown, energy_breakdown
from .grid import GridPoint, GridSpec, expand_grid
from .pareto import pareto_front

__all__ = ["SweepRecord", "SweepReport", "run_sweep", "OBJECTIVES"]

OBJECTIVES = ("makespan", "area", "energy")

_PLANNER_STAT_KEYS = (
    "queries",
    "cache_hits",
    "candidate_memo_hits",
)


@dataclass
class SweepRecord:
    """One grid cell's resolved outcome plus its objective vector."""

    index: int
    label: str
    algorithm: str
    fabric_scale: float
    rec_freq: float | None
    region_budget: int | None
    energy_cap_uj: float | None
    seed: int | None
    fleet: str | None
    content_hash: str | None
    source: str  # "executed" | "store" | "dedup" | "infeasible" | "failed"
    feasible: bool
    within_cap: bool
    makespan: float | None = None
    area: float | None = None
    energy_uj: float | None = None
    backend: str | None = None
    elapsed: float = 0.0
    on_front: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "algorithm": self.algorithm,
            "fabric_scale": self.fabric_scale,
            "rec_freq": self.rec_freq,
            "region_budget": self.region_budget,
            "energy_cap_uj": self.energy_cap_uj,
            "seed": self.seed,
            "fleet": self.fleet,
            "content_hash": self.content_hash,
            "source": self.source,
            "feasible": self.feasible,
            "within_cap": self.within_cap,
            "makespan": self.makespan,
            "area": self.area,
            "energy_uj": self.energy_uj,
            "backend": self.backend,
            "elapsed": self.elapsed,
            "on_front": self.on_front,
            "error": self.error,
        }


_CSV_COLUMNS = (
    "index",
    "label",
    "algorithm",
    "fabric_scale",
    "rec_freq",
    "region_budget",
    "energy_cap_uj",
    "seed",
    "fleet",
    "content_hash",
    "source",
    "feasible",
    "within_cap",
    "makespan",
    "area",
    "energy_uj",
    "backend",
    "on_front",
    "error",
)


@dataclass
class SweepReport:
    """Everything a sweep produced, serializable and renderable."""

    spec: dict
    objectives: list
    records: list = field(default_factory=list)
    front: list = field(default_factory=list)  # grid indices, ascending
    total_points: int = 0
    unique_requests: int = 0
    dedup_collapsed: int = 0
    store_hits: int = 0
    executed: int = 0
    infeasible: int = 0
    chains: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    store_stats: dict | None = None
    planner_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "objectives": list(self.objectives),
            "records": [r.to_dict() for r in self.records],
            "front": list(self.front),
            "total_points": self.total_points,
            "unique_requests": self.unique_requests,
            "dedup_collapsed": self.dedup_collapsed,
            "store_hits": self.store_hits,
            "executed": self.executed,
            "infeasible": self.infeasible,
            "chains": self.chains,
            "jobs": self.jobs,
            "elapsed": self.elapsed,
            "store_stats": self.store_stats,
            "planner_stats": self.planner_stats,
        }

    def canonical_payload(self) -> dict:
        """The deterministic core — wall-clock and cache-locality
        fields stripped, so serial and ``--jobs N`` runs compare
        bit-identical (the bench gate)."""
        payload = self.to_dict()
        for volatile in ("elapsed", "jobs", "planner_stats", "store_stats"):
            payload.pop(volatile, None)
        for record in payload["records"]:
            record.pop("elapsed", None)
        return payload

    @property
    def hit_rate(self) -> float:
        return self.store_hits / self.unique_requests if self.unique_requests else 0.0

    def render(self) -> str:
        lines = [
            f"explore: {self.total_points} points -> "
            f"{self.unique_requests} unique requests "
            f"({self.dedup_collapsed} collapsed, {self.infeasible} infeasible) "
            f"— {self.store_hits} store hits, {self.executed} executed "
            f"in {self.elapsed:.2f}s",
            f"front ({','.join(self.objectives)}): "
            f"{len(self.front)} points: {self.front}",
        ]
        for record in self.records:
            if record.on_front:
                objs = ", ".join(
                    f"{name}={getattr(record, _OBJECTIVE_FIELDS[name]):g}"
                    for name in self.objectives
                )
                lines.append(f"  #{record.index} {record.label}: {objs}")
        if self.planner_stats.get("queries"):
            lines.append(
                "floorplanner: "
                f"{self.planner_stats['queries']} queries, "
                f"{self.planner_stats.get('cache_hits', 0)} cache hits"
            )
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            for record in self.records:
                row = record.to_dict()
                writer.writerow(
                    [
                        "" if row[col] is None else row[col]
                        for col in _CSV_COLUMNS
                    ]
                )

    def write_html(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(render_html(self))


_OBJECTIVE_FIELDS = {
    "makespan": "makespan",
    "area": "area",
    "energy": "energy_uj",
}


def _solve_chain(payload: tuple) -> tuple:
    """Pool worker: solve one fabric chain serially with shared warmth.

    ``payload`` is ``(items, planner_entries, warm_starts)`` where each
    item is ``(key, request, wants_planner)`` in chain order.  Returns
    ``(results, planner_entries, planner_stats)`` with one ``(key, outcome_dict | None, elapsed, error)`` per item.
    Module-level so the analysis pool can pickle it; deterministic
    because the chain is solved serially in a fixed order.

    With ``warm_starts`` off every cell is a genuinely independent
    solve: a fresh floorplanner per cell and no absorbed entries — the
    baseline the bench compares warm chains against.
    """
    items, planner_entries, warm_starts = payload
    planner = None
    results = []
    stats_totals: dict = {}
    for key, request, wants_planner in items:
        t0 = _time.perf_counter()
        try:
            backend = get_backend(request.algorithm)
            kwargs = {}
            if wants_planner:
                if planner is None or not warm_starts:
                    from ..floorplan import Floorplanner

                    if planner is not None:
                        for stat, value in planner.stats.items():
                            stats_totals[stat] = (
                                stats_totals.get(stat, 0) + value
                            )
                    planner = Floorplanner.for_architecture(
                        request.instance.architecture
                    )
                    if planner_entries and warm_starts:
                        planner.absorb(planner_entries)
                kwargs["floorplanner"] = planner
            outcome = backend.run(request, **kwargs)
            results.append(
                (key, outcome.to_dict(), _time.perf_counter() - t0, None)
            )
        except Exception as exc:  # noqa: BLE001 — reported per-cell
            results.append((key, None, _time.perf_counter() - t0, str(exc)))
    exported = (
        planner.export_entries() if planner is not None and warm_starts else []
    )
    if planner is not None:
        for stat, value in planner.stats.items():
            stats_totals[stat] = stats_totals.get(stat, 0) + value
    return (results, exported, stats_totals)


def _failure_message(failure: ParallelItemFailure) -> str:
    return f"{failure.phase}: {failure.error} (after {failure.attempts} attempts)"


def _fabric_signature(request: ScheduleRequest) -> tuple | None:
    """The floorplanner-sharing key, or None for solo cells (fleets,
    backends that never consult a planner)."""
    if request.algorithm.startswith("fleet-"):
        return None
    # is-k / list / exhaustive never consult the planner; they ride in
    # their fabric's chain, whose planner is built lazily only when a
    # pa/pa-r cell asks.
    from ..floorplan.floorplanner import _architecture_signature

    return _architecture_signature(request.instance.architecture)


def _point_area(point: GridPoint) -> float:
    request = point.request
    if request.algorithm.startswith("fleet-"):
        return float(
            sum(
                sum(device["architecture"]["max_res"].values())
                for device in request.options["fleet"]["devices"]
            )
        )
    return float(sum(request.instance.architecture.max_res.values()))


def _point_energy_uj(point: GridPoint, outcome: ScheduleOutcome) -> float:
    request = point.request
    if request.algorithm.startswith("fleet-"):
        fleet_payload = (outcome.metadata or {}).get("fleet")
        if fleet_payload and "energy" in fleet_payload:
            energy = fleet_payload["energy"]
            if not isinstance(energy, EnergyBreakdown):
                energy = EnergyBreakdown.from_dict(energy)
            return energy.total_j * 1e6
        return 0.0
    arch = request.instance.architecture
    if arch.power is None:
        return 0.0
    return energy_breakdown(outcome.schedule, arch, arch.power).total_j * 1e6


def run_sweep(
    instance,
    spec: GridSpec,
    store: ResultStore | None = None,
    jobs: int = 1,
    objectives=("makespan", "area", "energy"),
    warm_starts: bool = True,
    planner_cache: dict | None = None,
    progress=None,
    timeout: float | None = None,
) -> SweepReport:
    """Expand ``spec`` over ``instance``, drain it, extract the front.

    ``planner_cache`` (fabric signature -> exported planner entries)
    carries floorplan warmth across successive sweeps in one process;
    pass the same dict again to re-seed the chains.  ``objectives`` is
    an ordered subset of ``("makespan", "area", "energy")``.
    """
    objectives = list(objectives)
    for name in objectives:
        if name not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {name!r}; valid: {list(OBJECTIVES)}"
            )
    if not objectives:
        raise ValueError("need at least one objective")

    t0 = _time.perf_counter()
    points = expand_grid(instance, spec)
    stats_before = dict(store.stats) if store is not None else None

    # Layer 1a: pre-dispatch dedup — one representative per cache key.
    representative: dict[str, int] = {}
    for point in points:
        if point.request is None:
            continue
        key = point.request.cache_key()
        representative.setdefault(key, point.index)
    by_index = {point.index: point for point in points}

    # Layer 1b: store-first resolution of the unique keys.
    outcomes: dict[str, ScheduleOutcome] = {}
    sources: dict[str, str] = {}
    errors: dict[str, str] = {}
    elapsed_by_key: dict[str, float] = {}
    misses: list[str] = []
    for key, rep_index in representative.items():
        request = by_index[rep_index].request
        hit = store.get(request) if store is not None else None
        if hit is not None:
            outcomes[key] = hit
            sources[key] = "store"
        else:
            misses.append(key)

    # Layer 2: group misses into warm chains by fabric signature.  The
    # misses come in grid-index order, so every chain solves in it.
    chains: dict[object, list[tuple[str, GridPoint]]] = {}
    solo_count = 0
    for key in misses:
        point = by_index[representative[key]]
        signature = _fabric_signature(point.request)
        if signature is None:
            chains[("solo", solo_count)] = [(key, point)]
            solo_count += 1
        else:
            chains.setdefault(("fabric", signature), []).append((key, point))
    chain_keys = sorted(chains, key=repr)
    payloads = []
    for chain_key in chain_keys:
        items = []
        for key, point in chains[chain_key]:
            request = point.request
            wants_planner = request.algorithm in (
                "pa",
                "pa-r",
            ) and request.options.get("floorplan", True)
            items.append((key, request, wants_planner))
        entries = (
            planner_cache.get(chain_key[1], [])
            if planner_cache is not None and chain_key[0] == "fabric"
            else []
        )
        payloads.append((items, entries, warm_starts))

    # Layer 3: parallel drain, deterministic reduction.  parallel_map
    # hands ``progress`` the raw worker result, so wrap it into a
    # per-chain summary line instead of dumping chain payloads.
    chain_progress = None
    if progress is not None:
        done_chains = [0]

        def chain_progress(result):
            done_chains[0] += 1
            if isinstance(result, ParallelItemFailure):
                status = f"FAILED: {_failure_message(result)}"
            else:
                solved = sum(1 for _k, _o, _e, err in result[0] if err is None)
                status = f"{solved}/{len(result[0])} point(s) solved"
            progress(
                f"chain {done_chains[0]}/{len(payloads)}: {status}"
            )

    chain_results = parallel_map(
        _solve_chain,
        payloads,
        jobs=jobs,
        progress=chain_progress,
        timeout=timeout,
    )
    planner_stats_total: dict = {}
    for chain_key, payload, result in zip(chain_keys, payloads, chain_results):
        if isinstance(result, ParallelItemFailure):
            for key, _request, _wp in payload[0]:
                errors[key] = _failure_message(result)
                sources[key] = "failed"
            continue
        results, exported, chain_planner_stats = result
        for key, outcome_dict, elapsed, error in results:
            elapsed_by_key[key] = elapsed
            if error is not None:
                errors[key] = error
                sources[key] = "failed"
                continue
            outcome = ScheduleOutcome.from_dict(outcome_dict)
            outcomes[key] = outcome
            sources[key] = "executed"
            if store is not None:
                store.put(by_index[representative[key]].request, outcome)
        if planner_cache is not None and chain_key[0] == "fabric" and exported:
            planner_cache[chain_key[1]] = exported
        for stat in _PLANNER_STAT_KEYS:
            if stat in chain_planner_stats:
                planner_stats_total[stat] = planner_stats_total.get(
                    stat, 0
                ) + chain_planner_stats[stat]

    # Build records in grid-index order (the deterministic reduction).
    report = SweepReport(
        spec=spec.to_dict(),
        objectives=objectives,
        total_points=len(points),
        unique_requests=len(representative),
        dedup_collapsed=sum(1 for p in points if p.request is not None)
        - len(representative),
        infeasible=sum(1 for p in points if p.request is None),
        chains=len(chain_keys),
        jobs=jobs,
    )
    for point in points:
        if point.request is None:
            report.records.append(
                SweepRecord(
                    index=point.index,
                    label=point.label(),
                    algorithm=point.algorithm,
                    fabric_scale=point.fabric_scale,
                    rec_freq=point.rec_freq,
                    region_budget=point.region_budget,
                    energy_cap_uj=point.energy_cap_uj,
                    seed=point.seed,
                    fleet=point.fleet,
                    content_hash=None,
                    source="infeasible",
                    feasible=False,
                    within_cap=False,
                    error=point.error,
                )
            )
            continue
        key = point.request.cache_key()
        rep_index = representative[key]
        source = sources.get(key, "failed")
        if point.index != rep_index:
            source = "dedup"
        outcome = outcomes.get(key)
        record = SweepRecord(
            index=point.index,
            label=point.label(),
            algorithm=point.algorithm,
            fabric_scale=point.fabric_scale,
            rec_freq=point.rec_freq,
            region_budget=point.region_budget,
            energy_cap_uj=point.energy_cap_uj,
            seed=point.seed,
            fleet=point.fleet,
            content_hash=key,
            source=source,
            feasible=outcome.feasible if outcome is not None else False,
            within_cap=True,
            elapsed=elapsed_by_key.get(key, 0.0)
            if point.index == rep_index
            else 0.0,
            error=errors.get(key),
        )
        if outcome is not None:
            record.backend = outcome.backend
            record.makespan = outcome.makespan
            record.area = _point_area(point)
            record.energy_uj = round(_point_energy_uj(point, outcome), 6)
            if point.energy_cap_uj is not None:
                record.within_cap = record.energy_uj <= point.energy_cap_uj
        report.records.append(record)

    report.store_hits = sum(1 for s in sources.values() if s == "store")
    report.executed = sum(1 for s in sources.values() if s == "executed")
    report.planner_stats = planner_stats_total
    if store is not None and stats_before is not None:
        after = store.stats
        report.store_stats = {
            name: after.get(name, 0) - stats_before.get(name, 0)
            for name in ("hits", "misses", "writes", "evictions")
        }

    # Pareto front over feasible, cap-respecting records.
    candidates = [
        record
        for record in report.records
        if record.feasible and record.within_cap and record.makespan is not None
    ]
    vectors = [
        [getattr(record, _OBJECTIVE_FIELDS[name]) for name in objectives]
        for record in candidates
    ]
    for position in pareto_front(vectors):
        candidates[position].on_front = True
    report.front = [record.index for record in report.records if record.on_front]
    report.elapsed = _time.perf_counter() - t0
    return report


def render_html(report: SweepReport) -> str:
    """A dependency-free single-file HTML report: an SVG scatter of
    the first two objectives with the front highlighted, plus the
    full record table."""
    xs_name = report.objectives[0]
    ys_name = (
        report.objectives[1] if len(report.objectives) > 1 else report.objectives[0]
    )
    xf, yf = _OBJECTIVE_FIELDS[xs_name], _OBJECTIVE_FIELDS[ys_name]
    plotted = [
        r
        for r in report.records
        if r.feasible and r.within_cap and getattr(r, xf) is not None
    ]
    width, height, pad = 640, 420, 50

    def _scale(values, span):
        lo, hi = min(values), max(values)
        if hi == lo:
            hi = lo + 1.0
        return lambda v: pad + (v - lo) / (hi - lo) * (span - 2 * pad)

    svg_points = []
    if plotted:
        sx = _scale([getattr(r, xf) for r in plotted], width)
        sy = _scale([getattr(r, yf) for r in plotted], height)
        front = sorted(
            (r for r in plotted if r.on_front), key=lambda r: getattr(r, xf)
        )
        if len(front) > 1:
            path = " ".join(
                f"{sx(getattr(r, xf)):.1f},{height - sy(getattr(r, yf)):.1f}"
                for r in front
            )
            svg_points.append(
                f'<polyline points="{path}" fill="none" '
                f'stroke="#c33" stroke-width="1.5" stroke-dasharray="4 3"/>'
            )
        for r in plotted:
            cx = sx(getattr(r, xf))
            cy = height - sy(getattr(r, yf))
            color = "#c33" if r.on_front else "#36c"
            radius = 5 if r.on_front else 3
            svg_points.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{radius}" '
                f'fill="{color}"><title>#{r.index} {_escape(r.label)}: '
                f"{xs_name}={getattr(r, xf):g}, {ys_name}={getattr(r, yf):g}"
                f"</title></circle>"
            )
    rows = []
    for r in report.records:
        cells = "".join(
            f"<td>{_escape('' if v is None else v)}</td>"
            for v in (
                r.index,
                r.label,
                r.source,
                r.feasible,
                r.within_cap,
                r.makespan,
                r.area,
                r.energy_uj,
                "front" if r.on_front else "",
                r.error or "",
            )
        )
        style = ' style="background:#fee"' if r.on_front else ""
        rows.append(f"<tr{style}>{cells}</tr>")
    summary = _escape(report.render()).replace("\n", "<br>")
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>repro explore report</title>
<style>body{{font-family:sans-serif;margin:2em}}table{{border-collapse:collapse}}
td,th{{border:1px solid #ccc;padding:2px 8px;font-size:12px}}</style></head>
<body><h1>Design-space exploration</h1>
<p>{summary}</p>
<svg width="{width}" height="{height}" style="border:1px solid #ccc">
<text x="{width / 2}" y="{height - 8}" text-anchor="middle" font-size="12">{xs_name}</text>
<text x="14" y="{height / 2}" text-anchor="middle" font-size="12"
 transform="rotate(-90 14 {height / 2})">{ys_name}</text>
{''.join(svg_points)}
</svg>
<h2>Records</h2>
<table><tr><th>#</th><th>label</th><th>source</th><th>feasible</th>
<th>within cap</th><th>makespan</th><th>area</th><th>energy µJ</th>
<th>front</th><th>error</th></tr>
{''.join(rows)}</table>
</body></html>
"""


def _escape(value) -> str:
    return (
        str(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )
