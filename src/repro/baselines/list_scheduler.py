"""List-based greedy scheduler (the [4]-style secondary baseline).

A single-pass earliest-finish-time list scheduler: tasks are ordered by
*upward rank* (critical-path-to-sink length with per-task average
implementation times — the HEFT priority), and each task greedily takes
the (implementation, placement) option with the earliest finish time on
the constructive state of :mod:`repro.baselines.partial`.

It shares IS-1's myopia but not its lookahead bound, making it the
cheapest baseline in the suite; the ablation benchmarks use it to
separate "greedy EFT" from "greedy with completion bound" (IS-1).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from ..model import Instance, Schedule
from .isk import _Option
from .partial import PartialSchedule

__all__ = ["ListResult", "list_schedule", "upward_ranks"]


@dataclass
class ListResult:
    """Outcome of a list-scheduler run.

    Carries the same ``makespan`` / ``total_time`` / ``feasible``
    surface as :class:`~repro.core.scheduler.PAResult` and
    :class:`~repro.baselines.isk.ISKResult`.
    """

    schedule: Schedule
    elapsed: float
    stats: dict = field(default_factory=dict)
    feasible: bool = True

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def total_time(self) -> float:
        return self.elapsed


def upward_ranks(instance: Instance) -> dict[str, float]:
    """HEFT upward rank with mean implementation times."""
    graph = instance.taskgraph
    mean_exe = {
        t.id: sum(i.time for i in t.implementations) / len(t.implementations)
        for t in graph
    }
    rank: dict[str, float] = {}
    for task_id in reversed(graph.topological_order()):
        best_succ = max(
            (
                rank[s] + graph.comm_cost(task_id, s)
                for s in graph.successors(task_id)
            ),
            default=0.0,
        )
        rank[task_id] = mean_exe[task_id] + best_succ
    return rank


def list_schedule(
    instance: Instance,
    communication_overhead: bool = False,
    enable_module_reuse: bool = True,
) -> ListResult:
    """Greedy EFT over the upward-rank order."""
    t0 = _time.perf_counter()
    graph = instance.taskgraph
    ranks = upward_ranks(instance)
    # Priority order must stay a valid topological order: sort by
    # (-rank) within the constraint, which the classic HEFT order
    # guarantees because rank(pred) > rank(succ) along every arc
    # (strictly, as execution times are positive).
    order = sorted(graph.task_ids, key=lambda t: (-ranks[t], t))

    state = PartialSchedule(
        instance,
        communication_overhead=communication_overhead,
        enable_module_reuse=enable_module_reuse,
    )
    for task_id in order:
        task = graph.task(task_id)
        ready = state.ready_time(task_id)
        best: tuple[float, float, str, _Option] | None = None
        for impl in task.sw_implementations:
            for proc in range(state.arch.processors):
                option = _Option(impl=impl, target=f"proc:{proc}")
                start, _ = state.earliest_start(ready, impl.name, proc)
                finish = start + impl.time
                key = (finish, 0.0, impl.name, option)
                if best is None or key[:3] < best[:3]:
                    best = key
        for impl in task.hw_implementations:
            for region in state.regions.values():
                if not impl.resources.fits_in(region.resources):
                    continue
                option = _Option(impl=impl, target=f"region:{region.id}")
                start, _ = state.earliest_start(ready, impl.name, region.id)
                finish = start + impl.time
                key = (finish, float(region.resources.total()), impl.name, option)
                if best is None or key[:3] < best[:3]:
                    best = key
            if state.can_create_region(impl.resources):
                option = _Option(impl=impl, target="new")
                start, _ = state.earliest_start(ready, impl.name, None)
                finish = start + impl.time
                key = (finish, float(impl.resources.total()), impl.name, option)
                if best is None or key[:3] < best[:3]:
                    best = key
        if best is None:
            raise RuntimeError(f"task {task_id!r} has no feasible option")
        option = best[3]
        if option.target.startswith("proc:"):
            state.place_sw(task_id, option.impl, int(option.target[5:]))
        elif option.target == "new":
            region = state.create_region(option.impl.resources)
            state.place_hw(task_id, option.impl, region.id)
        else:
            state.place_hw(task_id, option.impl, option.target[7:])

    schedule = state.to_schedule(scheduler="LIST")
    return ListResult(schedule=schedule, elapsed=_time.perf_counter() - t0)

