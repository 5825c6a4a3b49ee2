"""The PA scheduler: the eight-step pipeline plus the feasibility loop.

``do_schedule`` is the paper's ``doSchedule`` — steps A..G producing a
complete :class:`~repro.model.schedule.Schedule` without the floorplan
check.  ``pa_schedule`` wraps it with the Section V-H loop: when the
floorplanner finds no feasible placement for the produced region set,
the fabric availability is virtually shrunk by a constant factor and
the scheduler re-runs.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from ..model import (
    Architecture,
    Instance,
    ProcessorPlacement,
    Reconfiguration,
    Region,
    RegionPlacement,
    Schedule,
    ScheduledTask,
)
from .. import perf
from .balancing import balance_software_tasks
from .mapping import map_software_tasks
from .options import PAOptions
from .reconf import schedule_reconfigurations
from .regions import define_regions
from .selection import select_implementations
from .state import PAState

__all__ = ["FloorplanChecker", "PAResult", "do_schedule", "pa_schedule"]


@runtime_checkable
class FloorplanChecker(Protocol):
    """What the scheduler needs from a floorplanner (Section V-H).

    ``repro.floorplan.Floorplanner`` satisfies this; tests plug in
    stubs.  ``check`` returns an object with a truthy/falsy
    ``feasible`` attribute.
    """

    def check(self, regions: Sequence[Region]):  # pragma: no cover - protocol
        ...


@dataclass
class PAResult:
    """Outcome of a PA / PA-R run, including Table I timing splits."""

    schedule: Schedule
    feasible: bool
    scheduling_time: float
    floorplanning_time: float
    shrink_iterations: int = 0
    floorplan: object | None = None
    history: list[tuple[float, float]] = field(default_factory=list)
    iterations: int = 1

    @property
    def total_time(self) -> float:
        return self.scheduling_time + self.floorplanning_time

    @property
    def makespan(self) -> float:
        return self.schedule.makespan


def do_schedule(
    instance: Instance,
    options: PAOptions | None = None,
    architecture: Architecture | None = None,
    rng: random.Random | None = None,
    trace=None,
) -> Schedule:
    """Steps A..G — produce a schedule without the floorplan check.

    Pass a :class:`repro.core.trace.SchedulerTrace` as ``trace`` to
    record every decision the pipeline takes (selection winners, region
    create/reuse/demote, promotions, core bindings, reconfiguration
    slots).
    """
    options = options or PAOptions()
    state = PAState(instance, options, architecture=architecture)
    state.trace = trace

    with perf.phase("selection"):
        select_implementations(state)  # V-A (V-B windows are implicit)
    with perf.phase("regions"):
        region_stats = define_regions(state, rng=rng)  # V-C
    with perf.phase("balancing"):
        balance_stats = balance_software_tasks(state)  # V-D
    with perf.phase("mapping"):
        mapping_stats = map_software_tasks(state)  # V-E + V-F
    with perf.phase("reconfigurations"):
        plan = schedule_reconfigurations(state)  # V-G

    state.drop_empty_regions()
    tasks: dict[str, ScheduledTask] = {}
    for task_id in state.graph.nodes:
        impl = state.impl[task_id]
        start = plan.starts[task_id]
        if impl.is_hw:
            placement = RegionPlacement(region_id=state.region_of[task_id])
        else:
            placement = ProcessorPlacement(index=state.processor_of[task_id])
        tasks[task_id] = ScheduledTask(
            task_id=task_id,
            implementation=impl,
            placement=placement,
            start=start,
            end=start + impl.time,
        )

    reconfigurations = [
        Reconfiguration(
            region_id=rc.region_id,
            ingoing_task=rc.ingoing_task,
            outgoing_task=rc.outgoing_task,
            start=plan.starts[rc.id],
            end=plan.starts[rc.id] + rc.exe,
            controller=plan.controller_of.get(rc.id, 0),
        )
        for rc in plan.reconf_tasks
    ]
    reconfigurations.sort(key=lambda r: (r.start, r.region_id))

    return Schedule(
        tasks=tasks,
        regions=state.region_objects(),
        reconfigurations=reconfigurations,
        scheduler="PA",
        metadata={
            "ordering": options.ordering.value,
            "regions": region_stats,
            "balancing": balance_stats,
            "mapping": mapping_stats,
            "module_reuse": options.enable_module_reuse,
        },
    )


def pa_schedule(
    instance: Instance,
    options: PAOptions | None = None,
    floorplanner: FloorplanChecker | None = None,
    rng: random.Random | None = None,
    trace=None,
) -> PAResult:
    """The deterministic PA algorithm with the Section V-H loop.

    A ``trace`` keeps the step decisions of the final iteration (the
    ones that built the returned schedule) plus one ``floorplan`` event
    per check of the loop.
    """
    options = options or PAOptions()
    arch = instance.architecture
    scheduling_time = 0.0
    floorplanning_time = 0.0

    schedule: Schedule | None = None
    floorplan = None
    feasible = floorplanner is None
    iteration = 0
    for iteration in range(options.max_shrink_iterations):
        t0 = _time.perf_counter()
        steps_from = len(trace.events) if trace is not None else 0
        schedule = do_schedule(
            instance, options, architecture=arch, rng=rng, trace=trace
        )
        scheduling_time += _time.perf_counter() - t0

        if floorplanner is None:
            break
        t0 = _time.perf_counter()
        with perf.phase("floorplan"):
            result = floorplanner.check(list(schedule.regions.values()))
        floorplanning_time += _time.perf_counter() - t0
        if trace is not None:
            trace.record(
                "floorplan",
                "check",
                iteration=iteration,
                regions=len(schedule.regions),
                feasible=result.feasible,
                proven=result.proven,
                engine=result.engine,
            )
        if result.feasible:
            feasible = True
            floorplan = result
            break
        if trace is not None and iteration + 1 < options.max_shrink_iterations:
            # The rejected region set is not the one returned: keep only
            # its floorplan verdict.
            del trace.events[steps_from:-1]
        # Virtually reduce the available FPGA resources and retry.
        arch = arch.shrunk(options.shrink_factor)

    assert schedule is not None
    schedule.metadata["shrink_iterations"] = iteration
    return PAResult(
        schedule=schedule,
        feasible=feasible,
        scheduling_time=scheduling_time,
        floorplanning_time=floorplanning_time,
        shrink_iterations=iteration,
        floorplan=floorplan,
    )
