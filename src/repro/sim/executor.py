"""Discrete-event execution of a schedule.

The schedulers produce *static plans*; a real system dispatches them at
runtime, where task durations differ from the profile numbers.  The
executor replays a schedule as a **dispatch plan** — the orders it
encodes (task sequence per region, per core, and the reconfiguration
order on the controller) are kept, but every start time is re-derived
from actual completion events:

* a task starts when its predecessors have finished (plus communication
  cost when that extension is active), its resource is free, and — for
  hardware tasks — its bitstream has been loaded;
* a reconfiguration starts when its region is idle (ingoing task done)
  and the controller reaches it in the planned controller order.

With a unit jitter model the simulation must reproduce the planned
times *exactly* — the property test that cross-validates the
scheduler's timing engine against an independent executor.  With
non-unit jitter it answers the robustness question: how much does the
plan's makespan degrade when tasks overrun?

On top of the replay sits a fault-injection runtime (``faults=`` and
``recovery=``): transient task faults and failed bitstream loads are
retried with exponential backoff, a dead region's tasks are
re-dispatched to their software implementations, and when fallback
cannot cover the loss the online repair scheduler
(:func:`repro.sim.recovery.repair_schedule`) re-plans the residual task
graph on the surviving fabric and the executor resumes from the
repaired plan.  Every runtime decision is recorded as a structured
:class:`~repro.sim.events.ExecutionEvent` in the result's trace.
With ``faults=None`` the fault machinery is inert and the executed
times are identical to the plain replay.

The replay is one policy over the dispatch kernel
(:mod:`repro.sim.dispatch`): among all runnable activities the one with
the earliest derived start fires first (deterministic tie-break), which
is what makes fault times well-defined.  When nothing is runnable but
work remains, the kernel raises a :class:`DeadlockError` diagnosing
each stuck resource instead of looping or returning a partial result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from ..model import (
    Instance,
    ProcessorPlacement,
    Reconfiguration,
    Region,
    RegionPlacement,
    Schedule,
)
from .dispatch import EPS, Candidate, DeadlockError, Dispatcher, SimulatedActivity
from .events import ExecutionEvent, ExecutionTrace
from .faults import FaultPlan
from .recovery import RecoveryError, RecoveryPolicy, RepairResult, repair_schedule

__all__ = [
    "SimulatedActivity",
    "SimulationResult",
    "DeadlockError",
    "simulate",
    "jitter_model",
]


@dataclass
class SimulationResult:
    """Outcome of one simulated execution."""

    activities: list[SimulatedActivity]
    task_start: dict[str, float]
    task_end: dict[str, float]
    makespan: float
    planned_makespan: float
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    completed: bool = True
    failed_tasks: list[str] = field(default_factory=list)
    repairs: list[RepairResult] = field(default_factory=list)

    @property
    def slippage(self) -> float:
        """Relative makespan growth over the plan (0 = on time)."""
        if self.planned_makespan <= 0:
            return 0.0
        return (self.makespan - self.planned_makespan) / self.planned_makespan

    def timeline(self) -> list[SimulatedActivity]:
        return sorted(self.activities, key=lambda a: (a.start, a.name))


def jitter_model(
    factor: float = 0.2, seed: int = 0
) -> Callable[[str, float], float]:
    """Multiplicative uniform jitter: duration x U[1-factor, 1+factor].

    Deterministic per (seed, task) so repeated simulations agree.
    """
    if not (0.0 <= factor < 1.0):
        raise ValueError("jitter factor must be in [0, 1)")

    def model(name: str, duration: float) -> float:
        rng = random.Random(f"{seed}:{name}")
        return duration * rng.uniform(1.0 - factor, 1.0 + factor)

    return model


def simulate(
    instance: Instance,
    schedule: Schedule,
    jitter: Callable[[str, float], float] | Mapping[str, float] | None = None,
    communication_overhead: bool = False,
    faults: FaultPlan | None = None,
    recovery: RecoveryPolicy | None = None,
    on_event: Callable[[ExecutionEvent], None] | None = None,
) -> SimulationResult:
    """Execute ``schedule`` as a dispatch plan (see module docstring).

    ``faults`` injects runtime failures; ``recovery`` configures the
    retry/fallback/repair ladder (defaults to :class:`RecoveryPolicy`);
    ``on_event`` observes every :class:`ExecutionEvent` as it fires.
    Raises ``ValueError`` when ``schedule`` does not cover exactly the
    instance's tasks, or a fault targets a region the schedule lacks.
    """
    planned, wanted = set(schedule.tasks), set(instance.taskgraph.task_ids)
    if planned != wanted:
        parts = []
        if wanted - planned:
            parts.append(f"missing {sorted(wanted - planned)[:5]}")
        if planned - wanted:
            parts.append(f"not in the instance {sorted(planned - wanted)[:5]}")
        raise ValueError(
            "schedule was not made for this instance: tasks "
            + "; ".join(parts)
        )
    if faults:
        known = set(schedule.regions)
        for _, rid in faults.region_deaths():
            if rid not in known:
                raise ValueError(
                    f"region-death targets unknown region {rid!r} "
                    f"(schedule has {sorted(known)})"
                )
    engine = _Engine(
        instance=instance,
        schedule=schedule,
        jitter=jitter,
        communication_overhead=communication_overhead,
        faults=faults,
        policy=recovery or RecoveryPolicy(),
        on_event=on_event,
    )
    return engine.run()


class _Engine(Dispatcher):
    """Replay policy over the dispatch kernel: the queues are the
    plan's per-region, per-core and per-controller orders.

    All mutable runtime state (queues, resource-free times, the
    fallback pool, fault bookkeeping) lives here so the repair
    scheduler can splice a new plan into a running execution.
    """

    def __init__(
        self,
        instance: Instance,
        schedule: Schedule,
        jitter,
        communication_overhead: bool,
        faults: FaultPlan | None,
        policy: RecoveryPolicy,
        on_event,
    ) -> None:
        super().__init__(instance.taskgraph, faults, policy, on_event)
        self.instance = instance
        self.schedule = schedule
        self.jitter = jitter
        self.comm = communication_overhead

        arch = instance.architecture
        self.reconf_end: dict[str, float] = {}  # keyed by outgoing task
        self.region_free: dict[str, float] = {rid: 0.0 for rid in schedule.regions}
        self.proc_free: dict[int, float] = {
            p: 0.0 for p in range(arch.processors)
        }
        self.controller_free: dict[int, float] = {
            c: 0.0 for c in range(arch.reconfigurators)
        }
        self.regions_catalog: dict[str, Region] = dict(schedule.regions)
        self.not_before: dict[str, float] = {}  # earliest fallback dispatch
        self.fallback_impl: dict[str, object] = {}
        self.dead_regions: dict[str, Region] = {}
        # Region deaths are the replay's only external events.
        if self.faults:
            self.external = [(t, 0, rid) for t, rid in self.faults.region_deaths()]
        self.repairs: list[RepairResult] = []
        self._reconf_region: dict[str, str] = {}  # activity name -> region
        self._install_plan(schedule)

    # -- plan installation (initial plan and repaired plans) ----------------

    def _install_plan(self, schedule: Schedule) -> None:
        self.region_tasks = {
            rid: [t.task_id for t in schedule.region_sequence(rid)]
            for rid in schedule.regions
        }
        proc_ids = sorted(
            {
                t.placement.index
                for t in schedule.tasks.values()
                if isinstance(t.placement, ProcessorPlacement)
            }
        )
        self.proc_tasks = {
            p: [t.task_id for t in schedule.processor_sequence(p)]
            for p in proc_ids
        }
        controller_order = sorted(
            schedule.reconfigurations, key=lambda r: (r.start, r.region_id)
        )
        self.controller_queues: dict[int, list[Reconfiguration]] = {}
        for rc in controller_order:
            self.controller_queues.setdefault(rc.controller, []).append(rc)
        self.reconf_for: dict[str, Reconfiguration] = {
            rc.outgoing_task: rc for rc in controller_order
        }
        self.planned_duration = {
            tid: t.duration for tid, t in schedule.tasks.items()
        }

    # -- small helpers -------------------------------------------------------

    def _attempt_duration(self, name: str, duration: float, chain: int) -> float:
        """The planned duration under the jitter model; each retry is
        jittered under its own key."""
        if self.jitter is None:
            return duration
        key = name if chain == 1 else f"{name}#a{chain}"
        if callable(self.jitter):
            return max(EPS, self.jitter(key, duration))
        return max(EPS, duration * self.jitter.get(key, 1.0))

    def _data_ready(self, task_id: str) -> tuple[float, bool] | None:
        """Earliest data-ready time, or None while a predecessor is
        still outstanding.  The flag is True when an ancestor failed
        (the task can only be skipped)."""
        ready = 0.0
        doomed = False
        for pred in self.graph.predecessors(task_id):
            if pred in self.task_end:
                finish = self.task_end[pred]
                if self.comm:
                    finish += self.graph.comm_cost(pred, task_id)
            elif pred in self.resolved:
                finish = self.resolved[pred]
                doomed = True
            else:
                return None
            ready = max(ready, finish)
        return ready, doomed

    def _ingoing_end(self, rc: Reconfiguration) -> float | None:
        if rc.ingoing_task in self.task_end:
            return self.task_end[rc.ingoing_task]
        if rc.ingoing_task in self.resolved:
            return self.resolved[rc.ingoing_task]
        return None

    def _unqueue_hw(self, task_id: str) -> None:
        """Withdraw a task from its region queue and its bitstream load."""
        for queue in self.region_tasks.values():
            if task_id in queue:
                queue.remove(task_id)
        self._drop_reconf(task_id)

    def _drop_reconf(self, task_id: str) -> None:
        """Remove the pending bitstream load for a task that will never
        run in hardware (fallback / skip / failure / dead region)."""
        rc = self.reconf_for.pop(task_id, None)
        if rc is None:
            return
        queue = self.controller_queues.get(rc.controller, [])
        if rc in queue:
            queue.remove(rc)

    # -- the kernel's policy interface ---------------------------------------

    def _candidates(self) -> list[Candidate]:
        cands: list[Candidate] = []
        for controller in sorted(self.controller_queues):
            queue = self.controller_queues[controller]
            if not queue:
                continue
            rc = queue[0]
            ingoing_end = self._ingoing_end(rc)
            if ingoing_end is None:
                continue
            start = max(ingoing_end, self.controller_free[rc.controller])
            name = f"reconf:{rc.outgoing_task}"
            cands.append((start, 0, name, (self._fire_reconf, controller)))
        heads = [
            (1, "region", rid, self.region_tasks[rid][0])
            for rid in sorted(self.region_tasks)
            if self.region_tasks[rid]
        ]
        heads += [
            (2, "proc", p, self.proc_tasks[p][0])
            for p in sorted(self.proc_tasks)
            if self.proc_tasks[p]
        ]
        heads += [(3, "pool", None, task_id) for task_id in sorted(self.pool)]
        for cls, where, key, task_id in heads:
            ready = self._data_ready(task_id)
            if ready is None:
                continue
            ready_at, doomed = ready
            if doomed:
                cands.append((ready_at, cls, task_id, (self._fire_skip, where, key)))
            elif where == "region":
                if task_id in self.reconf_for and task_id not in self.reconf_end:
                    continue  # bitstream not loaded yet
                start = max(
                    ready_at, self.region_free[key], self.reconf_end.get(task_id, 0.0)
                )
                cands.append((start, cls, task_id, (self._fire_task, where, key)))
            elif where == "proc":
                start = max(ready_at, self.proc_free[key])
                cands.append((start, cls, task_id, (self._fire_task, where, key)))
            else:
                proc = min(self.proc_free, key=lambda p: (self.proc_free[p], p))
                # A fallback cannot start before the fault that caused it.
                start = max(
                    ready_at, self.not_before.get(task_id, 0.0), self.proc_free[proc]
                )
                cands.append((start, cls, task_id, (self._fire_task, where, proc)))
        return cands

    def _task_queues(self) -> list[tuple[str, list[str]]]:
        return [(rid, self.region_tasks[rid]) for rid in sorted(self.region_tasks)] + [
            (f"P{p}", self.proc_tasks[p]) for p in sorted(self.proc_tasks)
        ]

    def _work_remains(self) -> bool:
        return super()._work_remains() or any(self.controller_queues.values())

    def _next_external(self) -> tuple[float, int, str] | None:
        # A death after the last activity changes nothing: stop instead.
        event = super()._next_external()
        return event if event is not None and self._work_remains() else None

    def _process_external(self, event: tuple[float, int, str]) -> None:
        self._process_death(event[0], event[2])

    def _planned_time(self, task_id: str) -> float:
        planned = self.schedule.tasks.get(task_id)
        return planned.start if planned is not None else float("inf")

    def _result(self) -> SimulationResult:
        makespan = max((a.end for a in self.activities), default=0.0)
        failed = sorted(self.failed | self.skipped)
        completed = set(self.task_end) >= set(self.schedule.tasks)
        return SimulationResult(
            activities=self.activities,
            task_start=self.task_start,
            task_end=self.task_end,
            makespan=makespan,
            planned_makespan=self.schedule.makespan,
            trace=self.trace,
            completed=completed,
            failed_tasks=failed,
            repairs=self.repairs,
        )

    # -- firing --------------------------------------------------------------

    def _dequeue(self, task_id: str, where: str, key) -> None:
        if where == "region":
            self.region_tasks[key].pop(0)
        elif where == "proc":
            self.proc_tasks[key].pop(0)
        else:
            self.pool.remove(task_id)

    def _fire_skip(self, time: float, task_id: str, where: str, key) -> None:
        self._dequeue(task_id, where, key)
        self._drop_reconf(task_id)
        self.resolved[task_id] = time
        self.skipped.add(task_id)
        self._emit(time, "skip", task_id, detail="ancestor failed")

    def _fire_reconf(self, start: float, name: str, controller: int) -> None:
        rc = self.controller_queues[controller].pop(0)
        self._reconf_region[name] = rc.region_id
        act = self._attempts(
            "reconfiguration", rc.outgoing_task, f"ICAP{controller}", start,
            rc.duration,
        )
        self.controller_free[controller] = act.end
        if act.ok:
            self.reconf_end[rc.outgoing_task] = act.end
            return
        self._recover_hw_task(
            rc.outgoing_task, act.end, cause="bitstream load retries exhausted"
        )

    def _fire_task(self, start: float, task_id: str, where: str, key) -> None:
        # Dequeue before running the attempt chain: recovery paths
        # (exhausted retries) may themselves edit the queues.
        self._dequeue(task_id, where, key)
        resource = key if where == "region" else f"P{key}"
        if where == "pool":
            duration = self.fallback_impl[task_id].time
        else:
            duration = self.planned_duration[task_id]

        # If the region dies mid-attempt, the death processing (which is
        # guaranteed to run before any later activity fires) truncates
        # the committed activities and triggers recovery for this task.
        act = self._attempts("task", task_id, resource, start, duration)
        if where == "region":
            self.region_free[key] = act.end
        else:
            self.proc_free[key] = act.end
        if act.ok:
            self.task_start[task_id] = act.start
            self.task_end[task_id] = act.end
        elif where == "region":
            self._recover_hw_task(task_id, act.end, cause="retries exhausted")
        else:
            self._give_up(task_id, act.end, "retries exhausted", resource)

    def _recover_hw_task(self, task_id: str, time: float, cause: str) -> None:
        """Move a HW task to the SW fallback pool, or give up on it.

        The task is removed from its region queue (it may not be the
        head when a bitstream load fails ahead of time)."""
        self._unqueue_hw(task_id)
        if self.policy.sw_fallback and self.graph.task(task_id).has_sw:
            self._to_fallback(task_id, time, cause)
        else:
            self._give_up(task_id, time, f"{cause}; no SW fallback")

    def _to_fallback(self, task_id: str, time: float, cause: str) -> None:
        self.fallback_impl[task_id] = self.graph.task(task_id).fastest_sw()
        self.pool.append(task_id)
        self.not_before[task_id] = time
        self._emit(time, "fallback", task_id, detail=cause)

    def _give_up(
        self, task_id: str, time: float, cause: str, resource: str = ""
    ) -> None:
        self.resolved[task_id] = time
        self.failed.add(task_id)
        self._emit(time, "failed", task_id, resource, detail=cause)

    # -- permanent region death ---------------------------------------------

    def _process_death(self, death_time: float, region_id: str) -> None:
        region = self.regions_catalog[region_id]
        self.dead_regions[region_id] = region
        self._emit(death_time, "region-death", region_id, resource=region_id)

        victims: set[str] = set()
        # 1. abort whatever the region (or the ICAP, loading into it)
        #    was doing past the death instant.
        victims |= self._truncate_region_activities(region_id, death_time)
        # 2. everything still queued on the region can never run there.
        victims |= set(self.region_tasks.pop(region_id, []))
        self.region_free.pop(region_id, None)
        # 3. pending bitstream loads into the region are void.
        for rc in list(self.reconf_for.values()):
            if rc.region_id == region_id:
                self._drop_reconf(rc.outgoing_task)

        for task_id in sorted(victims):
            self._emit(
                death_time, "fault", task_id, region_id,
                detail=f"region {region_id} died",
            )

        if not victims:
            return
        cause = f"region {region_id} died"
        fallback_ok = self.policy.sw_fallback and all(
            self.graph.task(t).has_sw for t in victims
        )
        if not fallback_ok and (
            self.policy.repair and len(self.repairs) < self.policy.max_repairs
        ):
            if self._repair(death_time, region_id):
                return
        for task_id in sorted(victims):
            if self.policy.sw_fallback and self.graph.task(task_id).has_sw:
                self._to_fallback(task_id, death_time, cause)
            else:
                self._give_up(task_id, death_time, f"{cause}; no recovery path")

    def _truncate_region_activities(
        self, region_id: str, death_time: float
    ) -> set[str]:
        """Cut short activities overlapping the death instant.

        Returns tasks whose completed or in-flight work is lost: a task
        executing (or retrying) on the region, and a task whose
        bitstream load finished after the region died."""
        victims: set[str] = set()
        scrubbed: set[str] = set()  # activity names with events past T
        updated: list[SimulatedActivity] = []
        for activity in self.activities:
            on_region = (
                activity.resource == region_id
                if activity.kind == "task"
                else self._reconf_region.get(activity.name) == region_id
            )
            if not on_region or activity.end <= death_time:
                updated.append(activity)
                continue
            scrubbed.add(activity.name)
            task_id = (
                activity.name
                if activity.kind == "task"
                else activity.name.removeprefix("reconf:")
            )
            if activity.kind == "task":
                if activity.ok:
                    self.task_start.pop(task_id, None)
                    self.task_end.pop(task_id, None)
                victims.add(task_id)
            else:
                self.reconf_end.pop(task_id, None)
                if task_id not in self.task_end:
                    victims.add(task_id)
            if activity.start < death_time:
                updated.append(
                    replace(activity, end=death_time, ok=False)
                )
            # activities starting at/after the death vanish entirely
        self.activities = updated
        # The per-victim "fault" events are emitted by the caller,
        # after this scrub.
        self._scrub_trace(scrubbed, death_time)
        # tasks whose work was aborted are no longer queued anywhere
        for task_id in victims:
            self._unqueue_hw(task_id)
        return victims

    # -- online repair scheduling --------------------------------------------

    def _repair(self, death_time: float, region_id: str) -> bool:
        """Re-plan the residual graph on the surviving fabric.

        Returns True when the executor resumes from the repaired plan;
        False leaves recovery to the caller's fallback/abandon path."""
        completed = frozenset(self.task_end)
        try:
            repair = repair_schedule(
                self.instance,
                completed,
                self.dead_regions.values(),
                suffix=f"*{len(self.repairs) + 1}",
            )
        except RecoveryError as exc:
            self._emit(
                death_time, "repair-failed", region_id, detail=str(exc)
            )
            return False
        resume = death_time + self.policy.repair_latency
        residual = set(repair.schedule.tasks)

        self._install_plan(repair.schedule)
        self.regions_catalog.update(repair.schedule.regions)
        self.pool = []
        self.fallback_impl = {}
        self.reconf_end = {}
        self.failed -= residual
        self.skipped -= residual
        for task_id in residual:
            self.resolved.pop(task_id, None)
        for rid in repair.schedule.regions:
            self.region_free[rid] = resume
        for proc in self.proc_free:
            self.proc_free[proc] = max(self.proc_free[proc], resume)
        for controller in self.controller_free:
            self.controller_free[controller] = max(
                self.controller_free[controller], resume
            )
        self.repairs.append(repair)
        self._emit(
            death_time,
            "repair",
            region_id,
            detail=(
                f"re-scheduled {len(residual)} task(s) on surviving fabric; "
                f"resume at {resume:g}"
            ),
        )
        return True

    # -- deadlock diagnostics -------------------------------------------------

    def _stuck_loads(self) -> tuple[dict[str, str], list[str]]:
        blocked: dict[str, str] = {}
        pending: list[str] = []
        for controller in sorted(self.controller_queues):
            queue = self.controller_queues[controller]
            if queue:
                blocked[f"ICAP{controller}"] = (
                    f"reconfiguration for {queue[0].outgoing_task!r} waits on "
                    f"ingoing task {queue[0].ingoing_task!r} (unfinished)"
                )
            pending.extend(
                f"ICAP{controller} reconf:{rc.outgoing_task} "
                f"(after {rc.ingoing_task!r})"
                for rc in queue
            )
        return blocked, pending

    def _block_reason(self, task_id: str) -> str:
        rc = self.reconf_for.get(task_id)
        if (
            rc is None
            or task_id in self.reconf_end
            or self._missing_preds(task_id)
        ):
            return super()._block_reason(task_id)
        return (
            f"task {task_id!r} waits for its bitstream "
            f"(load queued on ICAP{rc.controller})"
        )
