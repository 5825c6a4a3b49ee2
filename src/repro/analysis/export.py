"""CSV / JSON export of experiment results.

The harness is plot-free (offline sandbox), so every figure's data can
be exported to CSV for external plotting.  Column layouts are stable
and documented per function.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .runner import ConvergenceResults, QualityResults

__all__ = [
    "quality_records_csv",
    "improvement_csv",
    "convergence_csv",
    "export_all",
]


def quality_records_csv(results: QualityResults, path: str | Path | None = None) -> str:
    """One row per instance: every makespan and runtime measured.

    Columns: group, name, pa_makespan, pa_r_makespan, is1_makespan,
    is5_makespan, pa_scheduling_time, pa_floorplanning_time, is1_time,
    is5_time, pa_r_budget, pa_r_iterations, pa_feasible, plus the
    floorplanner cache counters (queries / exact / dominance /
    candidate-memo hits and engine vs query wall-clock) and the IS-k
    search counters (nodes, bound prunes, incumbent seeds,
    fallback completions, undo-trail high-water mark, fan-out), and the
    PA energy breakdown under the reference ZedBoard power model
    (static / dynamic / reconfiguration / total, microjoules).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "group", "name", "pa_makespan", "pa_r_makespan",
            "is1_makespan", "is5_makespan", "pa_scheduling_time",
            "pa_floorplanning_time", "is1_time", "is5_time",
            "pa_r_budget", "pa_r_iterations", "pa_feasible",
            "floorplan_queries", "floorplan_exact_hits",
            "floorplan_dominance_hits", "floorplan_candidate_memo_hits",
            "floorplan_engine_time", "floorplan_query_time",
            "is1_nodes", "is5_nodes", "is5_bound_pruned",
            "is5_incumbent_seeds", "is5_fallback_completions",
            "is5_max_undo_depth", "is5_fanout_windows", "is5_jobs",
            "pa_energy_static_j", "pa_energy_dynamic_j",
            "pa_energy_reconf_j", "pa_energy_total_j", "devices_used",
        ]
    )
    for r in sorted(results.records, key=lambda r: (r.group, r.name)):
        writer.writerow(
            [
                r.group, r.name, r.pa_makespan, r.pa_r_makespan,
                r.is1_makespan, r.is5_makespan, r.pa_scheduling_time,
                r.pa_floorplanning_time, r.is1_time, r.is5_time,
                r.pa_r_budget, r.pa_r_iterations, int(r.pa_feasible),
                r.floorplan_queries, r.floorplan_exact_hits,
                r.floorplan_dominance_hits, r.floorplan_candidate_memo_hits,
                r.floorplan_engine_time, r.floorplan_query_time,
                r.is1_nodes, r.is5_nodes, r.is5_bound_pruned,
                r.is5_incumbent_seeds, r.is5_fallback_completions,
                r.is5_max_undo_depth, r.is5_fanout_windows, r.is5_jobs,
                r.pa_energy_static_j, r.pa_energy_dynamic_j,
                r.pa_energy_reconf_j, r.pa_energy_total_j, r.devices_used,
            ]
        )
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def improvement_csv(
    results: QualityResults,
    baseline_attr: str,
    candidate_attr: str,
    path: str | Path | None = None,
) -> str:
    """Per-group improvement stats (the bars of Figures 3-5).

    Columns: group, mean_improvement_pct, std_pct, min_pct, max_pct, n.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["group", "mean_improvement_pct", "std_pct", "min_pct", "max_pct", "n"])
    for group, imp in results.improvement(baseline_attr, candidate_attr):
        writer.writerow(
            [group, imp.mean, imp.std, imp.minimum, imp.maximum, imp.count]
        )
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def convergence_csv(
    results: ConvergenceResults, path: str | Path | None = None
) -> str:
    """Figure 6 series. Columns: tasks, time_s, best_makespan."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["tasks", "time_s", "best_makespan"])
    for size in sorted(results.series):
        for time_s, makespan in results.series[size]:
            writer.writerow([size, time_s, makespan])
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def export_all(
    results: QualityResults,
    directory: str | Path,
    convergence: ConvergenceResults | None = None,
) -> list[Path]:
    """Write every figure's CSV into ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    path = directory / "quality_records.csv"
    quality_records_csv(results, path)
    written.append(path)

    for name, base, cand in (
        ("fig3_pa_vs_is1.csv", "is1_makespan", "pa_makespan"),
        ("fig4_pa_vs_is5.csv", "is5_makespan", "pa_makespan"),
        ("fig5_par_vs_is5.csv", "is5_makespan", "pa_r_makespan"),
    ):
        path = directory / name
        improvement_csv(results, base, cand, path)
        written.append(path)

    if convergence is not None:
        path = directory / "fig6_convergence.csv"
        convergence_csv(convergence, path)
        written.append(path)
    return written
