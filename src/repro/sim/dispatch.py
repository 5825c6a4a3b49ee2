"""The discrete-event dispatch kernel shared by ``repro.sim`` and ``repro.online``.

Both runtimes execute a plan the same way: every resource keeps an
ordered queue of activities, the head of each queue gets a *derived
start* (predecessors finished, resource free, bitstream loaded), and
among all runnable heads the earliest fires first, ties broken by
``(class, name)``.  External events — region deaths, and for the online
runtime arrivals, departures and deadlines — are interleaved at their
instants: one fires first when its time is ``<= best start + EPS``.
When nothing can run but work remains, the kernel raises a
:class:`DeadlockError` that names each stuck queue head and its earliest
missing predecessor.

:class:`Dispatcher` owns that loop, the attempt chain of one dispatch
(fault check, retry with backoff, stop at ``max_retries``), the event
emission and the deadlock diagnosis.  A *policy* subclass supplies the
queue heads and what firing each one does (:meth:`Dispatcher._candidates`),
its external events and its result type:
:class:`repro.sim.executor._Engine` replays a static plan,
:class:`repro.online.runtime.OnlineRuntime` dispatches arrival-driven
plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NoReturn

from ..model import TaskGraph
from .events import ExecutionEvent, ExecutionTrace
from .faults import FaultPlan
from .recovery import RecoveryPolicy

__all__ = ["EPS", "DeadlockError", "Dispatcher", "SimulatedActivity"]

EPS = 1e-9

# A runnable queue head: ``(start, class, name, (action, *args))``.  The
# first three fields order firing; firing calls
# ``action(start, name, *args)``.
Candidate = tuple[float, int, str, tuple]


class DeadlockError(RuntimeError):
    """The dispatch plan cannot make progress.

    ``blocked`` maps each stuck resource to a human-readable reason;
    ``stuck_tasks`` lists the unfinished task ids; ``pending_events``
    is a snapshot of the pending queues (bitstream loads, resource
    queues, the fallback pool; every external event has been processed
    by the time the kernel gives up) and ``blocking_dependency`` maps
    each stuck task to its earliest unsatisfied dependency — so a
    deadlock is debuggable from the message alone.
    """

    def __init__(
        self,
        blocked: Mapping[str, str],
        stuck_tasks: list[str],
        pending_events: list[str] | None = None,
        blocking_dependency: Mapping[str, str] | None = None,
    ):
        self.blocked = dict(blocked)
        self.stuck_tasks = list(stuck_tasks)
        self.pending_events = list(pending_events or [])
        self.blocking_dependency = dict(blocking_dependency or {})
        lines = [f"  {res}: {why}" for res, why in sorted(self.blocked.items())]
        if self.blocking_dependency:
            lines.append("earliest unsatisfied dependency per stuck task:")
            lines.extend(
                f"  {task} <- {dep}"
                for task, dep in sorted(self.blocking_dependency.items())
            )
        if self.pending_events:
            lines.append(
                f"pending event queue ({len(self.pending_events)} entries):"
            )
            lines.extend(f"  {entry}" for entry in self.pending_events[:20])
            if len(self.pending_events) > 20:
                lines.append(
                    f"  ... and {len(self.pending_events) - 20} more"
                )
        super().__init__(
            "dispatch deadlock — no runnable activity but "
            f"{len(self.stuck_tasks)} task(s) unfinished "
            f"({', '.join(repr(t) for t in self.stuck_tasks[:5])}"
            f"{', ...' if len(self.stuck_tasks) > 5 else ''}):\n"
            + "\n".join(lines)
        )


@dataclass(frozen=True)
class SimulatedActivity:
    """One executed activity: a task or a reconfiguration.

    ``ok`` is False for failed attempts (the resource was occupied but
    the work was lost to an injected fault)."""

    kind: str  # "task" | "reconfiguration" | "checkpoint"
    name: str  # task id, or "reconf:<outgoing task>"
    resource: str  # "RRx", "Px" or "ICAPx"
    start: float
    end: float
    ok: bool = True
    attempt: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Dispatcher:
    """Time-ordered dispatch of per-resource queues (see module docstring).

    One instance executes one run.  ``external`` holds the run's
    external events as ``(time, class, key)``, sorted; ``cursor`` is
    the index of the next one to process.
    """

    def __init__(
        self,
        graph: TaskGraph,
        faults: FaultPlan | None,
        policy: RecoveryPolicy,
        on_event,
    ) -> None:
        self.graph = graph
        self.faults = faults if faults else None  # empty plan == no faults
        self.policy = policy
        self.on_event = on_event
        self.trace = ExecutionTrace()
        self.activities: list[SimulatedActivity] = []
        self.task_start: dict[str, float] = {}
        self.task_end: dict[str, float] = {}
        self.resolved: dict[str, float] = {}  # when an unfinished task gave up
        self.failed: set[str] = set()  # unrecovered faults
        self.skipped: set[str] = set()  # abandoned (failed ancestor)
        self.pool: list[str] = []  # SW-fallback tasks, dispatched when ready
        self.external: list[tuple[float, int, str]] = []
        self.cursor = 0

    # -- policy interface ----------------------------------------------------

    def _candidates(self) -> list[Candidate]:
        """Every runnable queue head with its derived start."""
        raise NotImplementedError

    def _process_external(self, event: tuple[float, int, str]) -> None:
        raise NotImplementedError

    def _task_queues(self) -> list[tuple[str, list[str]]]:
        """``(resource, queued task ids)`` of every live task queue."""
        raise NotImplementedError

    def _planned_time(self, task_id: str) -> float:
        """Where the plan puts ``task_id``; orders missing predecessors."""
        raise NotImplementedError

    def _result(self):
        raise NotImplementedError

    def _next_external(self) -> tuple[float, int, str] | None:
        if self.cursor < len(self.external):
            return self.external[self.cursor]
        return None

    def _work_remains(self) -> bool:
        return bool(self.pool) or any(q for _, q in self._task_queues())

    def _attempt_duration(self, name: str, duration: float, chain: int) -> float:
        """Duration of the ``chain``-th attempt of one dispatch."""
        return duration

    # -- the loop ------------------------------------------------------------

    def run(self):
        while True:
            cands = self._candidates()
            best = min(cands, key=lambda c: c[:3]) if cands else None
            event = self._next_external()
            if event is not None and (best is None or event[0] <= best[0] + EPS):
                self.cursor += 1
                self._process_external(event)
                continue
            if best is None:
                if self._work_remains():
                    self._raise_deadlock()
                return self._result()
            start, _, name, (action, *args) = best
            action(start, name, *args)

    def _emit(
        self,
        time: float,
        kind: str,
        subject: str,
        resource: str = "",
        detail: str = "",
        attempt: int = 0,
    ) -> None:
        event = ExecutionEvent(
            time=time,
            kind=kind,
            subject=subject,
            resource=resource,
            detail=detail,
            attempt=attempt,
        )
        self.trace.add(event)
        if self.on_event is not None:
            self.on_event(event)

    def _attempts(
        self,
        kind: str,
        task_id: str,
        resource: str,
        start: float,
        duration: float,
        first: int = 1,
    ) -> SimulatedActivity:
        """Run one dispatch's attempt chain and return its last attempt.

        Attempts are numbered from ``first``.  Each one is recorded as
        an activity; a faulted attempt is retried after the policy's
        backoff until ``max_retries`` retries are spent.  The caller
        frees the resource at the returned ``end`` and, when ``ok`` is
        False, runs its recovery."""
        reconf = kind == "reconfiguration"
        name = f"reconf:{task_id}" if reconf else task_id
        cursor = start
        chain = 1
        while True:
            attempt = first + chain - 1
            end = cursor + self._attempt_duration(name, duration, chain)
            fails = self.faults is not None and (
                self.faults.reconf_fails(task_id, attempt)
                if reconf
                else self.faults.task_fails(task_id, attempt)
            )
            act = SimulatedActivity(
                kind, name, resource, cursor, end, ok=not fails, attempt=attempt
            )
            self.activities.append(act)
            if not fails:
                self._emit(cursor, "start", name, resource, attempt=attempt)
                self._emit(end, "end", name, resource)
                return act
            self._emit(
                end, "fault", name, resource,
                detail="bitstream load failed" if reconf else "transient fault",
                attempt=attempt,
            )
            if chain > self.policy.max_retries:
                return act
            delay = self.policy.retry_delay(chain)
            self._emit(
                end, "retry", name, resource,
                detail=f"backoff {delay:g}", attempt=attempt + 1,
            )
            cursor = end + delay
            chain += 1

    def _scrub_trace(
        self,
        subjects: set[str],
        time: float,
        kinds: tuple[str, ...] = ("start", "end", "fault", "retry"),
    ) -> None:
        """Drop the events of ``subjects`` at or after ``time``: work
        aborted at ``time`` never produced them."""
        self.trace.events[:] = [
            e
            for e in self.trace.events
            if not (e.subject in subjects and e.time > time - EPS and e.kind in kinds)
        ]

    # -- deadlock diagnosis --------------------------------------------------

    def _missing_preds(self, task_id: str) -> list[str]:
        return [
            p
            for p in self.graph.predecessors(task_id)
            if p not in self.task_end and p not in self.resolved
        ]

    def _block_reason(self, task_id: str) -> str:
        missing = self._missing_preds(task_id)
        if missing:
            return (
                f"task {task_id!r} waits on unfinished predecessor(s) "
                f"{missing[:4]}"
            )
        return f"task {task_id!r} is runnable but was never dispatched"

    def _stuck_loads(self) -> tuple[dict[str, str], list[str]]:
        """Blocked reconfiguration queues: reasons and pending entries."""
        return {}, []

    def _raise_deadlock(self) -> NoReturn:
        blocked, pending = self._stuck_loads()
        stuck = set(self.pool)
        for resource, queue in self._task_queues():
            if queue:
                blocked[resource] = self._block_reason(queue[0])
                stuck.update(queue)
                pending.append(f"{resource} queue: {queue[:6]}")
        for task_id in self.pool:
            blocked[f"pool:{task_id}"] = self._block_reason(task_id)
        if self.pool:
            pending.append(f"fallback pool: {sorted(self.pool)[:6]}")
        deps = {}
        for task_id in sorted(stuck):
            missing = self._missing_preds(task_id)
            if missing:
                deps[task_id] = min(
                    missing, key=lambda p: (self._planned_time(p), p)
                )
        raise DeadlockError(
            blocked, sorted(stuck), pending_events=pending, blocking_dependency=deps
        )
