"""Experiment harness regenerating the paper's Table I and Figures 2-6.

Scaling: the paper's full evaluation (10 groups x 10 graphs, IS-5 run
to completion) takes hours; the harness therefore supports three
profiles selected by the ``REPRO_SUITE`` environment variable or the
``profile`` argument:

* ``tiny``  — smoke profile used by CI and pytest-benchmark,
* ``small`` — the committed default: groups 10..60, 3 graphs each,
* ``full``  — the paper's 10x10 sweep (long).

Each ``run_*`` function returns plain dataclasses with a ``render()``
producing the text table, so the CLI, the benchmarks and EXPERIMENTS.md
all share one code path.
"""

from __future__ import annotations

import json
import os
import time as _time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..benchgen import paper_suite
from ..engine import ScheduleRequest, get_backend
from ..floorplan import Floorplanner
from ..model import Instance
from ..validate import check_schedule
from .metrics import Improvement, group_improvement
from .parallel import parallel_map
from .tables import render_table

__all__ = [
    "ExperimentConfig",
    "QualityResults",
    "ConvergenceResults",
    "run_quality",
    "run_convergence",
]

_PROFILES = {
    "tiny": dict(group_sizes=(10, 20, 30), per_group=2, is5_node_limit=2_000),
    "small": dict(
        group_sizes=(10, 20, 30, 40, 50, 60), per_group=4, is5_node_limit=8_000
    ),
    "full": dict(
        group_sizes=tuple(range(10, 101, 10)), per_group=10, is5_node_limit=20_000
    ),
}


@dataclass
class ExperimentConfig:
    """Knobs for one harness run.

    ``jobs`` fans the per-instance evaluations out over a process pool
    (1 = serial); results are ordered by ``(group, name)`` either way,
    so the record stream is independent of worker scheduling.
    ``pa_r_iteration_cap`` replaces PA-R's wall-clock budget with a
    fixed restart count, which makes a run's records deterministic
    (modulo the measured wall-clock fields) — the knob behind the
    serial-vs-parallel identity test.  Capped PA-R runs always go
    through :func:`~repro.core.randomized.pa_r_schedule_parallel`
    (with ``pa_r_jobs`` workers, default 1 = in-process), whose
    per-restart derived seeds make the winning schedule independent
    of the worker count.
    """

    profile: str = ""
    seed: int = 2016
    group_sizes: tuple[int, ...] = ()
    per_group: int = 0
    is1_node_limit: int = 50_000
    is5_node_limit: int = 0
    pa_r_min_budget: float = 0.25  # seconds; floor for tiny IS-5 runtimes
    pa_r_max_budget: float = 60.0
    pa_r_iteration_cap: int | None = None
    validate: bool = True
    use_floorplanner: bool = True
    jobs: int = 1
    pa_r_jobs: int = 1
    # IS-k first-level window fan-out workers (k >= 2 only; the
    # reduction is deterministic, so records are identical for any
    # value — this knob trades processes for IS-5 wall-clock).
    isk_jobs: int = 1

    def __post_init__(self) -> None:
        profile = self.profile or os.environ.get("REPRO_SUITE", "small")
        if profile not in _PROFILES:
            raise ValueError(
                f"unknown profile {profile!r}; choose from {sorted(_PROFILES)}"
            )
        self.profile = profile
        defaults = _PROFILES[profile]
        if not self.group_sizes:
            self.group_sizes = defaults["group_sizes"]
        if not self.per_group:
            self.per_group = defaults["per_group"]
        if not self.is5_node_limit:
            self.is5_node_limit = defaults["is5_node_limit"]

    def suite(self) -> dict[int, list[Instance]]:
        return paper_suite(
            seed=self.seed,
            group_sizes=self.group_sizes,
            per_group=self.per_group,
        )


@dataclass
class InstanceRecord:
    """All per-instance measurements the figures need."""

    group: int
    name: str
    pa_makespan: float
    pa_scheduling_time: float
    pa_floorplanning_time: float
    pa_feasible: bool
    is1_makespan: float
    is1_time: float
    is5_makespan: float
    is5_time: float
    pa_r_makespan: float
    pa_r_budget: float
    pa_r_iterations: int
    # Floorplanner cache observability (PR "fast path"); defaults keep
    # pre-existing quality.json files loadable via from_json.
    floorplan_queries: int = 0
    floorplan_exact_hits: int = 0
    floorplan_dominance_hits: int = 0
    floorplan_candidate_memo_hits: int = 0
    floorplan_engine_time: float = 0.0
    floorplan_query_time: float = 0.0
    floorplan_dfs_nodes: int = 0
    floorplan_budget_exhausted: int = 0
    # IS-k search observability; defaults again keep older
    # quality.json files loadable.
    is1_nodes: int = 0
    is5_nodes: int = 0
    is5_bound_pruned: int = 0
    is5_incumbent_seeds: int = 0
    is5_fallback_completions: int = 0
    is5_max_undo_depth: int = 0
    is5_fanout_windows: int = 0
    is5_jobs: int = 1
    # Energy accounting (ROADMAP item 3): the PA schedule costed under
    # the reference ZedBoard power model.  Defaults keep pre-energy
    # quality.json files loadable via from_json.
    pa_energy_static_j: float = 0.0
    pa_energy_dynamic_j: float = 0.0
    pa_energy_reconf_j: float = 0.0
    pa_energy_total_j: float = 0.0
    devices_used: int = 1


@dataclass
class QualityResults:
    """Everything behind Table I and Figures 2-5."""

    config_profile: str
    records: list[InstanceRecord] = field(default_factory=list)

    # -- aggregation ------------------------------------------------------

    def groups(self) -> list[int]:
        return sorted({r.group for r in self.records})

    def _group(self, size: int) -> list[InstanceRecord]:
        return [r for r in self.records if r.group == size]

    def group_means(self, attr: str) -> list[tuple[int, float]]:
        out = []
        for size in self.groups():
            rows = self._group(size)
            if not rows:  # defensively skip filtered-out groups
                continue
            out.append((size, sum(getattr(r, attr) for r in rows) / len(rows)))
        return out

    def improvement(
        self, baseline_attr: str, candidate_attr: str
    ) -> list[tuple[int, Improvement]]:
        out = []
        for size in self.groups():
            rows = self._group(size)
            if not rows:
                continue
            out.append(
                (
                    size,
                    group_improvement(
                        [getattr(r, baseline_attr) for r in rows],
                        [getattr(r, candidate_attr) for r in rows],
                    ),
                )
            )
        return out

    # -- renders (one per paper exhibit) -------------------------------------

    def render_table1(self) -> str:
        # The last column is the paper's shared PA-R / IS-5 budget (PA-R
        # is granted IS-5's measured runtime), not IS-5's runtime again —
        # a header/cell mismatch in an earlier revision.
        rows = []
        for size in self.groups():
            group = self._group(size)
            n = len(group)
            if not n:
                continue
            rows.append(
                (
                    size,
                    sum(r.pa_scheduling_time for r in group) / n,
                    sum(r.pa_floorplanning_time for r in group) / n,
                    sum(r.pa_scheduling_time + r.pa_floorplanning_time for r in group)
                    / n,
                    sum(r.is1_time for r in group) / n,
                    sum(r.is5_time for r in group) / n,
                    sum(r.pa_r_budget for r in group) / n,
                )
            )
        return render_table(
            ["# Tasks", "PA sched [s]", "PA floorp [s]", "PA total [s]",
             "IS-1 [s]", "IS-5 [s]", "PA-R/IS-5 budget [s]"],
            rows,
            title="Table I — algorithm execution times (averaged per group)",
        )

    def render_fig2(self) -> str:
        rows = []
        for size in self.groups():
            group = self._group(size)
            n = len(group)
            rows.append(
                (
                    size,
                    sum(r.pa_makespan for r in group) / n,
                    sum(r.pa_r_makespan for r in group) / n,
                    sum(r.is1_makespan for r in group) / n,
                    sum(r.is5_makespan for r in group) / n,
                )
            )
        return render_table(
            ["# Tasks", "PA", "PA-R", "IS-1", "IS-5"],
            rows,
            title="Figure 2 — average schedule execution time (us) per group",
        )

    def _render_improvement(
        self, title: str, baseline_attr: str, candidate_attr: str
    ) -> str:
        rows = []
        total_mean = []
        for size, imp in self.improvement(baseline_attr, candidate_attr):
            rows.append((size, imp.mean, imp.std, imp.minimum, imp.maximum))
            total_mean.append(imp.mean)
        table = render_table(
            ["# Tasks", "mean impr [%]", "std [%]", "min [%]", "max [%]"],
            rows,
            title=title,
        )
        if not total_mean:
            return f"{table}\noverall average improvement: n/a (no records)"
        overall = sum(total_mean) / len(total_mean)
        return f"{table}\noverall average improvement: {overall:+.1f}%"

    def render_fig3(self) -> str:
        return self._render_improvement(
            "Figure 3 — improvement of PA vs IS-1 (paper: +14.8% avg)",
            "is1_makespan",
            "pa_makespan",
        )

    def render_fig4(self) -> str:
        return self._render_improvement(
            "Figure 4 — improvement of PA vs IS-5",
            "is5_makespan",
            "pa_makespan",
        )

    def render_fig5(self) -> str:
        return self._render_improvement(
            "Figure 5 — improvement of PA-R vs IS-5 (paper: +22.3% for >20 tasks)",
            "is5_makespan",
            "pa_r_makespan",
        )

    def render_cache_stats(self) -> str:
        """Floorplanner fast-path effectiveness, aggregated per group.

        ``hit %`` counts every query answered without an engine run
        (exact-key plus dominance-lattice hits); ``engine [s]`` is the
        summed time actually spent in backtracking / MILP, versus the
        total wall-clock of all feasibility queries in ``query [s]``.
        ``dfs nodes`` is the summed DFS work, and ``budget stops``
        counts the verdicts its node budget decided (infeasible,
        unproven): PA shrinks on those as on a proof.
        """
        rows = []
        for size in self.groups():
            group = self._group(size)
            if not group:
                continue
            queries = sum(r.floorplan_queries for r in group)
            exact = sum(r.floorplan_exact_hits for r in group)
            dom = sum(r.floorplan_dominance_hits for r in group)
            memo = sum(r.floorplan_candidate_memo_hits for r in group)
            engine = sum(r.floorplan_engine_time for r in group)
            query = sum(r.floorplan_query_time for r in group)
            nodes = sum(r.floorplan_dfs_nodes for r in group)
            stops = sum(r.floorplan_budget_exhausted for r in group)
            hit_pct = 100.0 * (exact + dom) / queries if queries else 0.0
            rows.append(
                (size, queries, exact, dom, f"{hit_pct:.1f}", memo,
                 f"{engine:.3f}", f"{query:.3f}", nodes, stops)
            )
        return render_table(
            ["# Tasks", "queries", "exact hits", "dom hits", "hit %",
             "cand memo", "engine [s]", "query [s]", "dfs nodes",
             "budget stops"],
            rows,
            title="Floorplanner cache statistics (summed per group)",
        )

    def render_search_stats(self) -> str:
        """IS-k search effectiveness, aggregated per group.

        ``bound`` counts branches cut by the incumbent makespan bound;
        ``seeds`` and ``fallbacks`` count greedy incumbent completions
        and budget-exhaustion recoveries; ``max trail`` is the undo-log
        high-water mark (the in-place DFS's only state overhead).
        """
        rows = []
        for size in self.groups():
            group = self._group(size)
            if not group:
                continue
            nodes1 = sum(r.is1_nodes for r in group)
            nodes5 = sum(r.is5_nodes for r in group)
            bound = sum(r.is5_bound_pruned for r in group)
            seeds = sum(r.is5_incumbent_seeds for r in group)
            fallbacks = sum(r.is5_fallback_completions for r in group)
            max_trail = max((r.is5_max_undo_depth for r in group), default=0)
            fanout = sum(r.is5_fanout_windows for r in group)
            rows.append(
                (size, nodes1, nodes5, bound, seeds, fallbacks, max_trail,
                 fanout)
            )
        return render_table(
            ["# Tasks", "IS-1 nodes", "IS-5 nodes", "bound", "seeds",
             "fallbacks", "max trail", "fanout wnd"],
            rows,
            title="IS-k search statistics (summed per group)",
        )

    def render_energy(self) -> str:
        """PA schedule energy under the reference ZedBoard power model,
        averaged per group (static / dynamic / reconfiguration split)."""
        rows = []
        for size in self.groups():
            group = self._group(size)
            n = len(group)
            if not n:
                continue
            rows.append(
                (
                    size,
                    sum(r.pa_energy_static_j for r in group) / n,
                    sum(r.pa_energy_dynamic_j for r in group) / n,
                    sum(r.pa_energy_reconf_j for r in group) / n,
                    sum(r.pa_energy_total_j for r in group) / n,
                )
            )
        return render_table(
            ["# Tasks", "static [uJ]", "dynamic [uJ]", "reconf [uJ]",
             "total [uJ]"],
            rows,
            title="Energy — PA schedule, ZedBoard power model (averaged per group)",
        )

    def render_all(self) -> str:
        return "\n\n".join(
            [
                self.render_table1(),
                self.render_fig2(),
                self.render_fig3(),
                self.render_fig4(),
                self.render_fig5(),
                self.render_energy(),
                self.render_cache_stats(),
                self.render_search_stats(),
            ]
        )

    # -- persistence --------------------------------------------------------------

    def to_json(self, path: str | Path) -> None:
        payload = {
            "profile": self.config_profile,
            "records": [asdict(r) for r in self.records],
        }
        Path(path).write_text(json.dumps(payload, indent=2))

    @classmethod
    def from_json(cls, path: str | Path) -> "QualityResults":
        payload = json.loads(Path(path).read_text())
        # Columns that were retired since the file was written drop out.
        known = {f.name for f in fields(InstanceRecord)}
        return cls(
            config_profile=payload["profile"],
            records=[
                InstanceRecord(**{k: v for k, v in r.items() if k in known})
                for r in payload["records"]
            ],
        )


@dataclass(frozen=True)
class _QualityItem:
    """One picklable unit of harness work: evaluate one instance."""

    group: int
    instance: Instance
    config: ExperimentConfig


def _evaluate_quality_item(item: _QualityItem) -> InstanceRecord:
    """Run PA / IS-1 / IS-5 / PA-R on one instance (pool worker).

    All four runs dispatch through the engine registry
    (``repro.engine``); the shared floorplanner is passed as execution
    context so PA and PA-R reuse one dominance cache, exactly as the
    legacy direct-call harness did.
    """
    config, instance, size = item.config, item.instance, item.group
    floorplanner = (
        Floorplanner.for_architecture(instance.architecture)
        if config.use_floorplanner
        else None
    )
    fp_option = {"floorplan": config.use_floorplanner}
    pa = get_backend("pa").run(
        ScheduleRequest(instance, "pa", options=dict(fp_option)),
        floorplanner=floorplanner,
    )
    r1 = get_backend("is-1").run(
        ScheduleRequest(
            instance, "is-1", options={"node_limit": config.is1_node_limit}
        )
    )
    is5_options: dict = {"node_limit": config.is5_node_limit}
    if config.isk_jobs > 1:
        # Fan-out never changes the schedule, so it only enters the
        # request (and thus the cache key) when actually engaged.
        is5_options["jobs"] = config.isk_jobs
    r5 = get_backend("is-5").run(
        ScheduleRequest(instance, "is-5", options=is5_options)
    )
    if config.pa_r_iteration_cap is not None:
        # Capped runs go through the parallel entry point even with
        # pa_r_jobs=1 (the engine routes any 'iterations' request that
        # way): its derived per-restart seeds make the result identical
        # for every worker count, which is the property the
        # serial-vs-parallel identity test checks.
        budget = 0.0
        par_request = ScheduleRequest(
            instance,
            "pa-r",
            options={
                **fp_option,
                "iterations": config.pa_r_iteration_cap,
                "jobs": config.pa_r_jobs,
            },
            seed=config.seed,
        )
    else:
        budget = min(
            max(r5.total_time, config.pa_r_min_budget), config.pa_r_max_budget
        )
        par_request = ScheduleRequest(
            instance,
            "pa-r",
            options={**fp_option, "jobs": config.pa_r_jobs},
            seed=config.seed,
            budget=budget,
        )
    par = get_backend("pa-r").run(par_request, floorplanner=floorplanner)
    if config.validate:
        check_schedule(instance, pa.schedule).raise_if_invalid()
        check_schedule(
            instance, r1.schedule, allow_module_reuse=True
        ).raise_if_invalid()
        check_schedule(
            instance, r5.schedule, allow_module_reuse=True
        ).raise_if_invalid()
        check_schedule(instance, par.schedule).raise_if_invalid()
    fp_stats = floorplanner.stats if floorplanner is not None else {}
    s1 = r1.metadata.get("stats", {})
    s5 = r5.metadata.get("stats", {})
    from ..model.power import energy_breakdown, zedboard_power

    pa_energy = energy_breakdown(
        pa.schedule, instance.architecture, zedboard_power()
    )
    return InstanceRecord(
        group=size,
        name=instance.name,
        pa_makespan=pa.makespan,
        pa_scheduling_time=pa.scheduling_time,
        pa_floorplanning_time=pa.floorplanning_time,
        pa_feasible=pa.feasible,
        is1_makespan=r1.makespan,
        is1_time=r1.total_time,
        is5_makespan=r5.makespan,
        is5_time=r5.total_time,
        pa_r_makespan=par.makespan,
        pa_r_budget=budget,
        pa_r_iterations=par.iterations,
        floorplan_queries=fp_stats.get("queries", 0),
        floorplan_exact_hits=fp_stats.get("cache_hits", 0),
        floorplan_dominance_hits=fp_stats.get("dominance_hits", 0),
        floorplan_candidate_memo_hits=fp_stats.get("candidate_memo_hits", 0),
        floorplan_engine_time=fp_stats.get("engine_time", 0.0),
        floorplan_query_time=fp_stats.get("query_time", 0.0),
        floorplan_dfs_nodes=fp_stats.get("dfs_nodes", 0),
        floorplan_budget_exhausted=fp_stats.get("budget_exhausted", 0),
        is1_nodes=s1.get("nodes_expanded", 0),
        is5_nodes=s5.get("nodes_expanded", 0),
        is5_bound_pruned=s5.get("bound_pruned", 0),
        is5_incumbent_seeds=s5.get("incumbent_seeds", 0),
        is5_fallback_completions=s5.get("fallback_completions", 0),
        is5_max_undo_depth=s5.get("max_undo_depth", 0),
        is5_fanout_windows=s5.get("fanout_windows", 0),
        is5_jobs=s5.get("jobs", 1),
        pa_energy_static_j=pa_energy.static_j,
        pa_energy_dynamic_j=pa_energy.dynamic_j,
        pa_energy_reconf_j=pa_energy.reconfiguration_j,
        pa_energy_total_j=pa_energy.total_j,
    )


def run_quality(
    config: ExperimentConfig | None = None,
    progress=None,
    jobs: int | None = None,
) -> QualityResults:
    """Run PA, PA-R, IS-1 and IS-5 over the suite (Table I, Figs 2-5).

    PA-R's time budget equals IS-5's measured runtime on the same
    instance (clamped to ``[pa_r_min_budget, pa_r_max_budget]``), the
    paper's fairness rule — unless ``config.pa_r_iteration_cap`` pins a
    deterministic restart count instead.

    ``jobs`` (default: ``config.jobs``) fans instances out over a
    process pool; records come back ordered by ``(group, name)`` in
    both the serial and the parallel path, so downstream aggregation
    and exports never depend on worker completion order.
    """
    config = config or ExperimentConfig()
    if jobs is None:
        jobs = config.jobs
    items = [
        _QualityItem(group=size, instance=instance, config=config)
        for size, instances in sorted(config.suite().items())
        for instance in instances
    ]
    items.sort(key=lambda item: (item.group, item.instance.name))

    reporter = None
    if progress:

        def reporter(record: InstanceRecord) -> None:
            progress(
                f"[{record.group:3d}] {record.name}: "
                f"PA {record.pa_makespan:.0f} | "
                f"IS-1 {record.is1_makespan:.0f} | "
                f"IS-5 {record.is5_makespan:.0f} | "
                f"PA-R {record.pa_r_makespan:.0f} "
                f"({record.pa_r_iterations} iters)"
            )

    records = parallel_map(
        _evaluate_quality_item, items, jobs=jobs, progress=reporter
    )
    return QualityResults(config_profile=config.profile, records=records)


@dataclass
class ConvergenceResults:
    """Figure 6 — PA-R best-so-far makespan over running time."""

    series: dict[int, list[tuple[float, float]]] = field(default_factory=dict)

    def render(self) -> str:
        blocks = []
        for size in sorted(self.series):
            rows = [(f"{t:.2f}", m) for t, m in self.series[size]]
            blocks.append(
                render_table(
                    ["time [s]", "best makespan"],
                    rows,
                    title=f"Figure 6 — PA-R convergence, {size} tasks",
                )
            )
        return "\n\n".join(blocks)

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({str(k): v for k, v in self.series.items()}, indent=2)
        )


@dataclass(frozen=True)
class _ConvergenceItem:
    """Pool work item for one Figure 6 series."""

    size: int
    budget: float
    seed: int
    use_floorplanner: bool
    pa_r_jobs: int = 1


def _evaluate_convergence_item(
    item: _ConvergenceItem,
) -> tuple[int, list[tuple[float, float]], float, int]:
    from ..benchgen import paper_instance

    instance = paper_instance(item.size, seed=item.seed * 1000 + item.size * 10)
    floorplanner = (
        Floorplanner.for_architecture(instance.architecture)
        if item.use_floorplanner
        else None
    )
    par = get_backend("pa-r").run(
        ScheduleRequest(
            instance,
            "pa-r",
            options={
                "floorplan": item.use_floorplanner,
                "jobs": item.pa_r_jobs,
            },
            seed=item.seed,
            budget=item.budget,
        ),
        floorplanner=floorplanner,
    )
    history = [(t, m) for t, m in par.metadata["history"]]
    return (item.size, history, par.makespan, par.iterations)


def run_convergence(
    sizes: tuple[int, ...] = (20, 40, 60, 80, 100),
    budget: float = 10.0,
    seed: int = 2016,
    use_floorplanner: bool = True,
    progress=None,
    jobs: int = 1,
    pa_r_jobs: int = 1,
) -> ConvergenceResults:
    """Run PA-R with an extended budget on one graph per size (Fig. 6).

    The paper uses 1200 s; the committed default keeps the run short —
    pass ``budget=1200`` to replicate the original protocol.  ``jobs``
    runs the per-size series concurrently (each series is an
    independent PA-R run); note that concurrent series contend for
    CPU, so per-series wall-clock budgets remain honest only while
    ``jobs`` stays at or below the machine's core count.
    ``pa_r_jobs`` instead parallelizes the restarts *within* each
    series via :func:`~repro.core.randomized.pa_r_schedule_parallel`;
    combining both multiplies the process count.
    """
    items = [
        _ConvergenceItem(
            size=size,
            budget=budget,
            seed=seed,
            use_floorplanner=use_floorplanner,
            pa_r_jobs=pa_r_jobs,
        )
        for size in sorted(sizes)
    ]

    reporter = None
    if progress:

        def reporter(result) -> None:
            size, _history, makespan, iterations = result
            progress(
                f"[{size:3d}] best {makespan:.0f} after {iterations} iterations"
            )

    outcomes = parallel_map(
        _evaluate_convergence_item, items, jobs=jobs, progress=reporter
    )
    results = ConvergenceResults()
    for size, history, _makespan, _iterations in outcomes:
        results.series[size] = history
    return results
