"""Online multi-tenant scheduling runtime with preemptive partial
reconfiguration.

:class:`OnlineRuntime` executes an :class:`~repro.online.workload.ArrivalTrace`
— jobs arriving, departing and carrying deadlines — on one shared
partially-reconfigurable fabric.  It is two cooperating layers:

**Planner** (incremental re-planning).  On every arrival, completion
fault or death the planner places *only the affected tasks* instead of
re-solving the whole workload: it builds a throwaway projection
:class:`~repro.baselines.partial.PartialSchedule` seeded from the
current runtime state.  Each task's candidates (existing regions, a
new region, the cores) are ranked by a read-only preview —
:meth:`~repro.baselines.partial.PartialSchedule.earliest_start`, the
one start rule that ``place_hw``/``place_sw`` also commit — and only
the winner is applied.  A pass tries a *pack* strategy (reuse loaded
modules, queue on existing regions) and — when the projected
completion misses the deadline — rewinds the projection's undo trail
and tries a *spread* strategy (prefer fresh regions for parallelism),
keeping the better one.  A live
:class:`~repro.core.timing.IncrementalStarts` view over a growing
:class:`~repro.core.timing.PrecedenceGraph` tracks predicted
starts across runtime events (``add_node`` per admitted task,
serialization arcs per queue commitment, ``raise_lower_bound`` per
actual dispatch/completion), so deadline predictions stay current
without a full timing pass.  A **full** re-plan — every unstarted task
re-placed and the timing view rebuilt — runs only as guarded
escalation: when an admitted job is still predicted late after
preemption, or when enough stale arcs accumulated (re-assignments make
old serialization arcs pessimistic-only).  The incremental path is the
common case; ``benchmarks/bench_online.py`` asserts its share.

**Executor** (time-ordered dispatch).  :class:`OnlineRuntime` is a
policy over the dispatch kernel :class:`repro.sim.dispatch.Dispatcher`,
the same loop that replays static plans in :mod:`repro.sim`: among all
runnable queue heads the earliest derived start fires first
(deterministic tie-break), with external events (arrivals, departures,
deadlines, region deaths) interleaved at their instants.  The policy
supplies the queue heads and what a dispatch does; the kernel owns the
loop, the attempt chain and the deadlock diagnosis.  Reconfigurations
are derived at dispatch — when a region's queue head needs a module
other than the one loaded — so module reuse needs no bookkeeping.
Transient task and bitstream-load faults run the PR-1 recovery ladder,
promoted to the common case: bounded retry with backoff, then SW
fallback, then *online repair* (an incremental re-placement of the
victim on the surviving fabric); a feasible workload is never aborted.

**Preemption.**  A high-priority arrival predicted to miss its
deadline may preempt a running lower-priority HW task: the region's
state is checkpointed (readback cost from
:class:`~repro.online.checkpoint.CheckpointModel`), the victim's
completed work is banked as ``progress``, and its resume — restore
cost plus the remaining work — is re-placed reuse-aware (a region
still configured with its module is preferred, making the restore
reconfiguration-free).  Checkpointed progress survives even a later
region death; only in-flight work is ever re-executed.

Determinism: with the same trace, fault plan and seed the run is
bit-identical — no wall clock or RNG feeds any simulated quantity
(re-plan wall latencies are measured but kept outside the event log
and the deterministic metrics).  Projections are slightly optimistic
about a fresh region's first bitstream load (the executor charges it,
the projection does not) — deadline decisions lean on trace slack, and
the optimism never affects executed times.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

from ..baselines.partial import PartialSchedule, RegionState
from ..core.timing import CycleError, IncrementalStarts, PrecedenceGraph
from ..model import (
    Implementation,
    Instance,
    ResourceVector,
    Task,
    TaskGraph,
)
from ..sim.dispatch import EPS, Candidate, Dispatcher, SimulatedActivity
from ..sim.events import ExecutionTrace
from ..sim.faults import FaultPlan
from ..sim.recovery import RecoveryPolicy
from .checkpoint import CheckpointModel
from .workload import ArrivalTrace, Job

__all__ = [
    "OnlineRuntime",
    "OnlineResult",
    "JobOutcome",
    "TaskOutcome",
    "RegionLog",
    "run_online",
]


# --------------------------------------------------------------------------
# result records
# --------------------------------------------------------------------------


@dataclass
class JobOutcome:
    """Per-job summary of one online run."""

    job_id: str
    tenant: str
    arrival: float
    deadline: float | None
    priority: int
    completed_at: float | None = None
    missed: bool = False
    departed: bool = False
    preemptions: int = 0
    predicted_completion: float = 0.0
    uids: list[str] = field(default_factory=list)

    @property
    def hit(self) -> bool:
        """Deadline met (jobs without deadlines count as hits)."""
        if self.completed_at is None:
            return False
        if self.deadline is None:
            return True
        return self.completed_at <= self.deadline + EPS


@dataclass
class TaskOutcome:
    """Per-task summary: what finally ran where, and what it cost."""

    uid: str
    job_id: str
    impl_name: str
    impl_time: float
    impl_kind: str  # "hw" | "sw"
    resource: str
    attempts: int
    preemptions: int
    restore_charged: list[float]  # restore cost actually paid per resume
    completed_at: float | None
    fallback: bool
    cancelled: bool
    skipped: bool
    failed: bool


@dataclass
class RegionLog:
    """Lifetime of one dynamically allocated region."""

    region_id: str
    resources: ResourceVector
    alloc_time: float
    freed_time: float | None  # None = alive at run end
    cause: str = ""  # "" | "reclaimed" | "died"


@dataclass
class OnlineResult:
    """Outcome of one online run — everything the validator and the
    metrics layer need, picklable for parallel sweeps."""

    trace_name: str
    activities: list[SimulatedActivity]
    trace: ExecutionTrace
    jobs: dict[str, JobOutcome]
    tasks: dict[str, TaskOutcome]
    regions: list[RegionLog]
    makespan: float
    replans: list[tuple[str, float]]  # (mode, wall seconds) — wall is
    # measurement-only and excluded from the deterministic event log

    @property
    def replan_incremental(self) -> int:
        return sum(1 for mode, _ in self.replans if mode == "incremental")

    @property
    def replan_full(self) -> int:
        return sum(1 for mode, _ in self.replans if mode == "full")

    @property
    def incremental_ratio(self) -> float:
        total = len(self.replans)
        return self.replan_incremental / total if total else 1.0

    def event_log(self) -> list[str]:
        """Canonical, deterministic rendering of the event trace —
        the bit-identity artifact the determinism gate compares."""
        return [
            f"{e.time:.6f}|{e.kind}|{e.subject}|{e.resource}|"
            f"{e.detail}|a={e.attempt}"
            for e in self.trace.chronological()
        ]


# --------------------------------------------------------------------------
# internal bookkeeping
# --------------------------------------------------------------------------


@dataclass
class _TaskRec:
    uid: str
    job_id: str
    impl: Implementation | None = None
    not_before: float = 0.0
    attempts: int = 0  # global attempt counter (fault determinism)
    reconf_attempts: int = 0
    progress: float = 0.0  # checkpointed completed work
    restore_due: float = 0.0  # restore cost to charge at next dispatch
    run_restore: float = 0.0  # restore charged in the current dispatch
    restore_charged: list[float] = field(default_factory=list)
    preemptions: int = 0
    fallback: bool = False
    resume_pending: bool = False
    dispatch_resource: str = ""


@dataclass
class _JobRec:
    job: Job
    uids: list[str]
    remaining: set[str]
    sinks: list[str]
    completed_at: float | None = None
    missed: bool = False
    departed: bool = False
    preemptions: int = 0
    predicted_completion: float = 0.0


@dataclass
class _RegionRec:
    id: str
    resources: ResourceVector
    alloc_time: float
    configured: str | None = None
    queue: list[str] = field(default_factory=list)
    free_at: float = 0.0
    last_used: float = 0.0
    freed_at: float | None = None
    freed_cause: str = ""
    running: tuple[str, float, float] | None = None  # (uid, start, end)

    @property
    def alive(self) -> bool:
        return self.freed_at is None


@dataclass(frozen=True)
class _Placement:
    uid: str
    impl: Implementation
    kind: str  # "hw" | "sw"
    resource: str | int  # region id or processor index
    start: float
    end: float
    created: ResourceVector | None  # new-region demand, if one was made
    reconf_gap: float  # projected reconfiguration inserted before it


class _NeedSpace(Exception):
    """A HW-only task found no fitting region and no fabric capacity."""

    def __init__(self, demand: ResourceVector):
        self.demand = demand
        super().__init__("insufficient fabric capacity")


class _Unplaceable(Exception):
    """No implementation of the task can run anywhere."""


# --------------------------------------------------------------------------
# the runtime
# --------------------------------------------------------------------------


class OnlineRuntime(Dispatcher):
    """One online execution of an arrival trace (see module docstring)."""

    def __init__(
        self,
        trace: ArrivalTrace,
        faults: FaultPlan | None = None,
        policy: RecoveryPolicy | None = None,
        checkpoint: CheckpointModel | None = None,
        preemption: bool = True,
        full_replan_threshold: int = 12,
        on_event=None,
    ) -> None:
        super().__init__(
            TaskGraph(name=f"online:{trace.name}"),
            faults,
            policy or RecoveryPolicy(),
            on_event,
        )
        self.src = trace
        self.arch = trace.architecture
        self.ckpt = checkpoint or CheckpointModel()
        self.preemption = preemption
        self.full_replan_threshold = max(1, full_replan_threshold)

        self.instance = Instance(
            architecture=self.arch,
            taskgraph=self.graph,
            name=f"online:{trace.name}",
        )

        self.jobs: dict[str, _JobRec] = {}
        self.tasks: dict[str, _TaskRec] = {}
        self.regions: dict[str, _RegionRec] = {}
        self.region_counter = 0
        self.proc_queue: list[list[str]] = [
            [] for _ in range(self.arch.processors)
        ]
        self.proc_free: list[float] = [0.0] * self.arch.processors
        self.ctrl_free: list[float] = [0.0] * self.arch.reconfigurators

        self.plan_end: dict[str, float] = {}
        self.cancelled: set[str] = set()  # also in ``resolved``

        self.replans: list[tuple[str, float]] = []
        self.stale_arcs = 0

        # live timing view: grows a node per admitted task
        self.exe: dict[str, float] = {}
        self.pgraph = PrecedenceGraph([])
        self.inc: IncrementalStarts = self.pgraph.begin_incremental(self.exe)

        # external event stream, fully known upfront (deterministic)
        self._job_index = {job.job_id: job for job in trace.jobs}
        self.external = self._external_events()

    # -- external events -----------------------------------------------------

    def _external_events(self) -> list[tuple[float, int, str]]:
        out: list[tuple[float, int, str]] = []
        for job in self.src.jobs:
            out.append((job.arrival, 0, job.job_id))
            if job.departure is not None:
                out.append((job.departure, 2, job.job_id))
            if job.deadline is not None:
                out.append((job.deadline, 3, job.job_id))
        if self.faults is not None:
            for t, rid in self.faults.region_deaths():
                out.append((t, 1, rid))
        return sorted(out)

    # -- fabric accounting ---------------------------------------------------

    def _used(self) -> ResourceVector:
        used = ResourceVector.zero()
        for region in self.regions.values():
            if region.alive:
                used = used + region.resources
        return used

    def _available(self) -> ResourceVector:
        used = self._used()
        return ResourceVector(
            {
                r: max(0, self.arch.max_res[r] - used[r])
                for r in self.arch.max_res
            }
        )

    def _alive_regions(self) -> list[_RegionRec]:
        return [
            self.regions[rid]
            for rid in sorted(self.regions)
            if self.regions[rid].alive
        ]

    def _reclaim(self, demand: ResourceVector, now: float) -> bool:
        """LRU-reclaim idle regions until ``demand`` fits the fabric."""
        quantized = self.arch.quantize_region(demand)
        if quantized.fits_in(self._available()):
            return True
        idle = [
            r
            for r in self._alive_regions()
            if not r.queue
            and r.free_at <= now + EPS
            and (r.running is None or r.running[2] <= now + EPS)
        ]
        idle.sort(key=lambda r: (r.last_used, r.id))
        for region in idle:
            region.freed_at = now
            region.freed_cause = "reclaimed"
            self._emit(
                now,
                "region-reclaim",
                region.id,
                resource=region.id,
                detail="idle fabric reclaimed",
            )
            if quantized.fits_in(self._available()):
                return True
        return quantized.fits_in(self._available())

    # -- timing-view helpers -------------------------------------------------

    def _projected_end(self, uid: str) -> float:
        if uid in self.task_end:
            return self.task_end[uid]
        base = self.plan_end.get(uid, 0.0)
        if uid in self.inc.est and uid in self.exe:
            base = max(base, self.inc.est[uid] + self.exe[uid])
        return base

    def _predicted_completion(self, job_id: str) -> float:
        jr = self.jobs[job_id]
        return max(
            (self._projected_end(uid) for uid in jr.sinks), default=0.0
        )

    def _raise_bound(self, uid: str, bound: float) -> None:
        if uid in self.inc.est:
            self.inc.raise_lower_bound(uid, bound)

    def _rebuild_view(self) -> None:
        """Escalation path: fresh timing view from the current queues.

        Drops every stale arc (superseded serialization orders, stale
        execution times after fallbacks) by rebuilding the graph over
        the unfinished tasks with their *current* durations and queue
        orders."""
        self.pgraph.end_incremental()
        pending = [
            uid
            for uid in self.tasks
            if uid not in self.task_end and uid not in self.resolved
        ]
        self.exe = {}
        bounds: dict[str, float] = {}
        for uid in pending:
            rec = self.tasks[uid]
            impl_time = rec.impl.time if rec.impl is not None else 0.0
            self.exe[uid] = (
                rec.restore_due + max(0.0, impl_time - rec.progress)
            )
            lb = rec.not_before
            for pred in self.graph.predecessors(uid):
                if pred in self.task_end:
                    lb = max(lb, self.task_end[pred])
            bounds[uid] = lb
        self.pgraph = PrecedenceGraph(pending)
        keep = set(pending)
        for src, dst in self.graph.edges():
            if src in keep and dst in keep:
                self.pgraph.add_edge(src, dst, self.graph.comm_cost(src, dst))
        for _, queue in self._task_queues():
            for prev, nxt in zip(queue, queue[1:]):
                try:
                    self.pgraph.add_edge(prev, nxt, 0.0)
                except CycleError:
                    pass
        self.inc = self.pgraph.begin_incremental(self.exe, bounds)
        self.stale_arcs = 0

    # -- the planner ---------------------------------------------------------

    def _projection(self, exclude: set[str]) -> PartialSchedule:
        """A throwaway :class:`PartialSchedule` mirroring current state.

        Region free times / loaded modules, processor frees and the
        controller horizon come from the executor's committed state
        plus the timing view's projected ends of already-queued tasks;
        ``exclude`` names the tasks about to be (re-)placed, whose old
        commitments must not leak into the projection."""
        ps = PartialSchedule(self.instance)
        ps._region_counter = self.region_counter
        ps.proc_free[:] = self.proc_free
        for p, queue in enumerate(self.proc_queue):
            tail = [uid for uid in queue if uid not in exclude]
            if tail:
                ps.proc_free[p] = max(
                    ps.proc_free[p], self._projected_end(tail[-1])
                )
        for c, busy_until in enumerate(self.ctrl_free):
            if busy_until > 0.0:
                ps.controllers[c] = [(0.0, busy_until)]
        used = ResourceVector.zero()
        for region in self._alive_regions():
            tail = [uid for uid in region.queue if uid not in exclude]
            free = region.free_at
            loaded = region.configured
            if tail:
                free = max(free, self._projected_end(tail[-1]))
                last = self.tasks[tail[-1]].impl
                if last is not None:
                    loaded = last.name
            ps.regions[region.id] = RegionState(
                id=region.id,
                resources=region.resources,
                free_time=free,
                loaded=loaded,
            )
            used = used + region.resources
        ps.used = used
        for uid in self.task_end:
            ps.end[uid] = self.task_end[uid]
        for uid, when in self.resolved.items():
            # failed/cancelled predecessors never block a projection —
            # their dependents are doomed/cancelled before planning.
            ps.end.setdefault(uid, when)
        for uid in self._unstarted():
            if uid not in exclude:
                ps.end[uid] = self._projected_end(uid)
        return ps

    def _place_one(
        self, ps: PartialSchedule, uid: str, now: float, bias: str
    ) -> _Placement:
        """Rank every candidate with a read-only preview, then apply
        only the winner.

        The candidates are each region's fastest fitting module, a new
        region for the fastest module the fabric can still hold, and
        every core for the fastest SW implementation.  A candidate's
        end comes from :meth:`PartialSchedule.earliest_start` with the
        task's online duration and its not-before shift — the float
        operations the winner's ``place_hw``/``place_sw`` and
        :meth:`_apply_not_before` then perform, in the same order.  The
        key is ``(end, cls, new, target, impl name)``; ``bias`` orders
        ties: ``pack`` prefers existing regions (module reuse),
        ``spread`` prefers fresh regions (parallelism)."""
        task = self.graph.task(uid)
        rec = self.tasks[uid]
        # (cls, new, target name, impl, earliest_start target)
        candidates: list[tuple[int, int, str, Implementation, str | int | None]] = []
        hw_blocked: ResourceVector | None = None
        hw_impls = sorted(
            task.hw_implementations, key=lambda i: (i.time, i.name)
        )
        if rec.progress > 0.0 and rec.impl is not None:
            # Checkpointed state is tied to the implementation it was
            # saved from — a resume may only re-place the same module.
            hw_impls = [i for i in hw_impls if i.name == rec.impl.name]
        if not rec.fallback and hw_impls:
            pack = bias == "pack"
            for rid in sorted(ps.regions):
                resources = ps.regions[rid].resources
                for impl in hw_impls:
                    if impl.resources.fits_in(resources):
                        candidates.append((0 if pack else 1, 0, rid, impl, rid))
                        break  # fastest fitting impl per region
            available = ps.available_resources()
            for impl in hw_impls:
                if self.arch.quantize_region(impl.resources).fits_in(available):
                    candidates.append(
                        (1 if pack else 0, 1, ps.next_region_id, impl, None)
                    )
                    break
                hw_blocked = impl.resources
        if task.has_sw:
            impl = task.fastest_sw()
            for p in range(self.arch.processors):
                candidates.append((2, 2, f"P{p}", impl, p))
        if not candidates:
            if hw_blocked is not None:
                raise _NeedSpace(hw_blocked)
            raise _Unplaceable(uid)
        ready = ps.ready_time(uid)
        best: tuple[tuple, Implementation, str | int | None] | None = None
        for cls, new, name, impl, target in candidates:
            start, _ = ps.earliest_start(ready, impl.name, target)
            end = start + self._online_duration(rec, impl)
            if start + EPS < rec.not_before:
                end += rec.not_before - start
            key = (end, cls, new, name, impl.name)
            if best is None or key < best[0]:
                best = (key, impl, target)
        _, impl, target = best
        stretched = self._online_impl(rec, impl)
        if impl.is_sw:
            end = ps.place_sw(uid, stretched, target)
            end = self._apply_not_before(ps, uid, rec, end, "sw", target)
            return _Placement(
                uid, impl, "sw", target, ps.start[uid], end, None, 0.0
            )
        demand: ResourceVector | None = None
        if target is None:
            region = ps.create_region(impl.resources)
            target = region.id
            demand = region.resources
        before = len(ps.reconfigurations)
        end = ps.place_hw(uid, stretched, target)
        end = self._apply_not_before(ps, uid, rec, end, "hw", target)
        gap = 0.0
        if len(ps.reconfigurations) > before:
            rc = ps.reconfigurations[-1]
            gap = rc.end - rc.start
        return _Placement(uid, impl, "hw", target, ps.start[uid], end, demand, gap)

    def _online_duration(self, rec: _TaskRec, impl: Implementation) -> float:
        """Restore cost plus the work left after checkpointed progress
        (``impl.time`` itself when that is within ``EPS`` of it)."""
        duration = rec.restore_due + max(0.0, impl.time - rec.progress)
        return impl.time if abs(duration - impl.time) <= EPS else duration

    def _online_impl(self, rec: _TaskRec, impl: Implementation) -> Implementation:
        duration = self._online_duration(rec, impl)
        if duration == impl.time:
            return impl
        if impl.is_hw:
            return Implementation.hw(impl.name, duration, impl.resources)
        return Implementation.sw(impl.name, duration)

    def _apply_not_before(self, ps, uid, rec, end, kind, target) -> float:
        """Shift a projected placement that starts before the task may
        dispatch (ready predecessors but an arrival/fault bound).  The
        resource's projected free time moves with it so later tasks
        queued behind it stay consistent.  :meth:`_place_one` previews
        this shift with the same two float operations."""
        if ps.start[uid] + EPS < rec.not_before:
            shift = rec.not_before - ps.start[uid]
            ps.start[uid] += shift
            ps.end[uid] += shift
            end += shift
            if kind == "hw":
                ps.regions[target].free_time = end
            else:
                ps.proc_free[target] = end
        return end

    def _plan(
        self,
        uids: list[str],
        now: float,
        deadline: float | None,
    ) -> tuple[list[_Placement], float]:
        """One planning pass: place ``uids`` (in the given order) on a
        projection, exploring pack-vs-spread on the undo trail.

        Returns the placements and the projected completion of the
        placed set.  Raises :class:`_NeedSpace` only after reclamation
        failed too; individual HW-only tasks that cannot be placed are
        reported by exclusion (caller handles them)."""
        for round_ in range(2):
            ps = self._projection(exclude=set(uids))
            ps.trail_mark()
            try:
                placements = [
                    self._place_one(ps, uid, now, "pack") for uid in uids
                ]
            except _NeedSpace as exc:
                if round_ == 0 and self._reclaim(exc.demand, now):
                    continue
                raise
            completion = max((pl.end for pl in placements), default=now)
            if deadline is None or completion <= deadline + EPS:
                return placements, completion
            # predicted late: rewind the whole pass on the trail and
            # retry with the parallelism-biased strategy.
            ps.undo_to(0)
            try:
                spread = [
                    self._place_one(ps, uid, now, "spread") for uid in uids
                ]
            except _NeedSpace:
                return placements, completion
            spread_completion = max((pl.end for pl in spread), default=now)
            if spread_completion + EPS < completion:
                return spread, spread_completion
            return placements, completion
        raise AssertionError("unreachable")  # pragma: no cover

    def _is_descendant(self, ancestor: str, node: str) -> bool:
        stack = [ancestor]
        seen = {ancestor}
        while stack:
            cur = stack.pop()
            for succ in self.graph.successors(cur):
                if succ == node:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    def _commit(self, placements: list[_Placement], now: float) -> None:
        """Apply a plan: create regions, queue tasks, grow the view."""
        for pl in placements:
            rec = self.tasks[pl.uid]
            rec.impl = pl.impl
            rec.not_before = max(rec.not_before, now)
            if pl.kind == "hw":
                rid = str(pl.resource)
                if rid not in self.regions:
                    region = _RegionRec(
                        id=rid,
                        resources=pl.created
                        if pl.created is not None
                        else self.arch.quantize_region(pl.impl.resources),
                        alloc_time=now,
                        free_at=now,
                        last_used=now,
                    )
                    self.regions[rid] = region
                    self.region_counter += 1
                    self._emit(
                        now,
                        "region-alloc",
                        rid,
                        resource=rid,
                        detail=f"for {pl.uid}",
                    )
                queue = self.regions[rid].queue
            else:
                queue = self.proc_queue[int(pl.resource)]
            # Insert before any workload descendant already queued here —
            # a re-placed task appended after its own successor would
            # deadlock the dispatch order.
            index = len(queue)
            for i, other in enumerate(queue):
                if self._is_descendant(pl.uid, other):
                    index = i
                    break
            queue.insert(index, pl.uid)
            prev = queue[index - 1] if index > 0 else None

            if pl.uid not in self.pgraph:
                self.exe[pl.uid] = pl.end - pl.start
                self.pgraph.add_node(pl.uid)
            else:
                self.stale_arcs += 1  # duration/order may have changed
            for pred in self.graph.predecessors(pl.uid):
                if pred in self.pgraph:
                    try:
                        self.pgraph.add_edge(
                            pred, pl.uid, self.graph.comm_cost(pred, pl.uid)
                        )
                    except CycleError:  # pragma: no cover - defensive
                        self.stale_arcs += 1
            if prev is not None and prev in self.pgraph:
                try:
                    self.pgraph.add_edge(prev, pl.uid, pl.reconf_gap)
                except CycleError:
                    self.stale_arcs += 1
            self._raise_bound(pl.uid, pl.start)
            self.plan_end[pl.uid] = pl.end

    def _record_replan(
        self, mode: str, now: float, subject: str, wall: float, detail: str
    ) -> None:
        self.replans.append((mode, wall))
        self._emit(now, "replan", subject, detail=f"{mode}; {detail}")

    # -- admission, departure, deadline, death -------------------------------

    def _process_arrival(self, job_id: str) -> None:
        job = self._job_index[job_id]
        now = job.arrival
        self._emit(
            now,
            "arrival",
            job.job_id,
            detail=f"tenant={job.tenant} priority={job.priority} "
            f"tasks={len(job.taskgraph.task_ids)}",
        )
        uids: list[str] = []
        order = job.taskgraph.topological_order()
        for tid in order:
            task = job.taskgraph.task(tid)
            uid = f"{job.job_id}:{tid}"
            self.graph.add_task(Task.of(uid, task.implementations))
            self.tasks[uid] = _TaskRec(
                uid=uid, job_id=job.job_id, not_before=now
            )
            uids.append(uid)
        for src, dst in job.taskgraph.edges():
            self.graph.add_dependency(
                f"{job.job_id}:{src}",
                f"{job.job_id}:{dst}",
                comm=job.taskgraph.comm_cost(src, dst),
            )
        jr = _JobRec(
            job=job,
            uids=uids,
            remaining=set(uids),
            sinks=[f"{job.job_id}:{tid}" for tid in job.taskgraph.sinks()],
        )
        self.jobs[job.job_id] = jr

        t0 = _time.perf_counter()
        mode = "incremental"
        extra: list[str] = []
        if self.stale_arcs > self.full_replan_threshold:
            mode = "full"  # guarded escalation: too many stale arcs
        try:
            if mode == "incremental":
                placements, completion = self._plan(uids, now, job.deadline)
                late = (
                    job.deadline is not None
                    and completion > job.deadline + EPS
                )
                if late and self.preemption and job.priority > 0:
                    victim = self._pick_victim(job, now)
                    if victim is not None:
                        self._preempt(victim[0], victim[1], now, job.job_id)
                        extra = [victim[1]]
                        placements, _ = self._plan(
                            uids + extra, now, job.deadline
                        )
                        new = set(uids)
                        completion = max(
                            (pl.end for pl in placements if pl.uid in new),
                            default=now,
                        )
                        late = completion > job.deadline + EPS
                if late and self._has_unstarted_others(uids + extra):
                    mode = "full"  # guarded escalation: still late
            if mode == "full":
                placements, completion = self._full_replan_placements(
                    uids + extra, now, job.deadline
                )
        except (_NeedSpace, _Unplaceable):
            placements, completion = self._salvage_plan(uids + extra, now)
        self._commit(placements, now)
        if mode == "full":
            self._rebuild_view()
        jr.predicted_completion = completion
        wall = _time.perf_counter() - t0
        self._record_replan(
            mode,
            now,
            job.job_id,
            wall,
            f"predicted completion {completion:.6f}",
        )
        predicted_late = (
            job.deadline is not None and completion > job.deadline + EPS
        )
        self._emit(
            now,
            "admit",
            job.job_id,
            detail=(
                f"predicted {'late' if predicted_late else 'on-time'}"
                f" ({completion:.6f})"
            ),
        )

    def _salvage_plan(
        self, uids: list[str], now: float
    ) -> tuple[list[_Placement], float]:
        """Degraded admission: place what can be placed, task by task;
        HW-only tasks with no fabric fail (dooming their descendants) —
        but a workload with SW implementations is never aborted."""
        placements = self._place_each(uids, now, "no placement on surviving fabric")
        # already committed piecewise; return empty so the caller's
        # commit is a no-op, with the completion over what was placed
        completion = max((pl.end for pl in placements), default=now)
        return [], completion

    def _place_each(self, uids: list[str], now: float, cause: str) -> list[_Placement]:
        """Plan and commit ``uids`` one at a time; a task that fits
        nowhere fails with ``cause``."""
        placements: list[_Placement] = []
        for uid in uids:
            if uid in self.resolved:
                continue  # doomed by an earlier failure in this batch
            try:
                pls, _ = self._plan([uid], now, None)
            except (_NeedSpace, _Unplaceable):
                self._fail_task(uid, now, cause)
                continue
            self._commit(pls, now)
            placements.extend(pls)
        return placements

    def _unstarted(self) -> list[str]:
        """Every queued or pooled task, in queue order."""
        return [uid for _, queue in self._task_queues() for uid in queue] + self.pool

    def _has_unstarted_others(self, exclude: list[str]) -> bool:
        skip = set(exclude)
        return any(uid not in skip for uid in self._unstarted())

    def _full_replan_placements(
        self, new_uids: list[str], now: float, deadline: float | None
    ) -> tuple[list[_Placement], float]:
        """Guarded escalation: pull every unstarted task off its queue
        and re-place the whole pending set in EDF order."""
        ordered = list(dict.fromkeys(new_uids + self._unstarted()))
        for _, queue in self._task_queues():
            queue.clear()
        self.pool.clear()

        # a task's position in its job's topological order
        topo: dict[str, int] = {}
        for job_id in {self.tasks[uid].job_id for uid in ordered}:
            for index, uid in enumerate(self.jobs[job_id].uids):
                topo[uid] = index

        def edf_key(uid: str) -> tuple:
            job = self.jobs[self.tasks[uid].job_id].job
            d = job.deadline
            return (
                d if d is not None else float("inf"),
                job.arrival,
                job.job_id,
                topo[uid],
            )

        ordered.sort(key=edf_key)
        placements, _ = self._plan(ordered, now, None)
        new = set(new_uids)
        completion = max(
            (pl.end for pl in placements if pl.uid in new), default=now
        )
        return placements, completion

    def _process_departure(self, job_id: str, now: float) -> None:
        jr = self.jobs.get(job_id)
        if jr is None or jr.departed:
            return
        jr.departed = True
        self._emit(now, "departure", job_id, detail=f"tenant={jr.job.tenant}")
        for uid in jr.uids:
            if uid in self.task_end or uid in self.resolved:
                continue  # finished or running-to-completion work stays
            self._dequeue(uid)
            self.resolved[uid] = now
            self.cancelled.add(uid)
            jr.remaining.discard(uid)
            self._emit(now, "cancel", uid, detail="tenant departed")

    def _process_deadline(self, job_id: str, now: float) -> None:
        jr = self.jobs.get(job_id)
        if jr is None or jr.departed:
            return
        if jr.completed_at is not None and jr.completed_at <= now + EPS:
            return
        jr.missed = True
        self._emit(
            now,
            "deadline-miss",
            job_id,
            detail=(
                f"completed_at={jr.completed_at:.6f}"
                if jr.completed_at is not None
                else "unfinished"
            ),
        )

    def _process_region_death(self, rid: str, now: float) -> None:
        region = self.regions.get(rid)
        if region is None or not region.alive:
            self._emit(
                now,
                "region-death",
                rid,
                resource=rid,
                detail="no live region with this id; fault fizzles",
            )
            return
        region.freed_at = now
        region.freed_cause = "died"
        self._emit(now, "region-death", rid, resource=rid)
        victims: list[str] = []
        running = region.running
        if running is not None and running[2] > now + EPS:
            uid = running[0]
            self._truncate_running(region, uid, now, lose_work=True)
            victims.append(uid)
        region.running = None
        victims.extend(region.queue)
        region.queue.clear()
        for uid in victims:
            self._emit(
                now, "fault", uid, rid, detail=f"region {rid} died"
            )
        self._recover(sorted(victims), now, f"region {rid} died", "no recovery")

    # -- recovery ladder -----------------------------------------------------

    def _to_fallback(self, uid: str, now: float, cause: str) -> None:
        rec = self.tasks[uid]
        rec.fallback = True
        rec.impl = self.graph.task(uid).fastest_sw()
        rec.progress = 0.0  # a SW re-run cannot restore a HW checkpoint
        rec.restore_due = 0.0
        rec.resume_pending = False
        rec.not_before = max(rec.not_before, now)
        self.pool.append(uid)
        self._emit(now, "fallback", uid, detail=cause)
        self._raise_bound(uid, now)
        self.stale_arcs += 1

    def _replace_hw_batch(self, uids: list[str], now: float, cause: str) -> None:
        """Online repair: incrementally re-place HW-only victims."""
        t0 = _time.perf_counter()
        placed = self._place_each(uids, now, f"{cause}; no re-placement")
        if placed:
            self._record_replan(
                "incremental",
                now,
                ",".join(pl.uid for pl in placed),
                _time.perf_counter() - t0,
                cause,
            )

    def _fail_task(self, uid: str, now: float, cause: str) -> None:
        self._dequeue(uid)
        self.resolved[uid] = now
        self.failed.add(uid)
        self._emit(now, "failed", uid, detail=cause)
        self._doom_descendants(uid, now)

    def _doom_descendants(self, uid: str, now: float) -> None:
        stack = list(self.graph.successors(uid))
        while stack:
            cur = stack.pop()
            if cur in self.resolved or cur in self.task_end:
                continue
            self._dequeue(cur)
            self.resolved[cur] = now
            self.skipped.add(cur)
            # deliberately kept in the job's ``remaining`` set: a job
            # with failed/skipped tasks must never report completion
            self._emit(now, "skip", cur, detail="ancestor failed")
            stack.extend(self.graph.successors(cur))

    def _dequeue(self, uid: str) -> None:
        for queue in [q for _, q in self._task_queues()] + [self.pool]:
            if uid in queue:
                queue.remove(uid)

    # -- preemption ----------------------------------------------------------

    def _pick_victim(
        self, job: Job, now: float
    ) -> tuple[str, str] | None:
        """Deterministically choose ``(region_id, uid)`` to preempt: a
        running HW task of a strictly lower-priority job, in a region
        some arriving HW implementation could use."""
        fits_someone = [
            impl.resources
            for tid in job.taskgraph.task_ids
            for impl in job.taskgraph.task(tid).hw_implementations
        ]
        candidates: list[tuple[int, str, str]] = []
        for region in self._alive_regions():
            running = region.running
            if running is None or running[2] <= now + EPS:
                continue
            uid, start, _ = running
            rec = self.tasks[uid]
            if now - start < rec.run_restore - EPS:
                continue  # cannot checkpoint while a restore is in flight
            victim_jr = self.jobs[rec.job_id]
            if victim_jr.job.priority >= job.priority:
                continue
            if not any(
                demand.fits_in(region.resources) for demand in fits_someone
            ):
                continue
            candidates.append((victim_jr.job.priority, region.id, uid))
        if not candidates:
            return None
        _, rid, uid = min(candidates)
        return rid, uid

    def _preempt(
        self, rid: str, uid: str, now: float, for_job: str
    ) -> None:
        region = self.regions[rid]
        rec = self.tasks[uid]
        start = self._truncate_running(region, uid, now, lose_work=False)
        executed = max(0.0, now - start)
        useful = max(0.0, executed - rec.run_restore)
        rec.progress = min(
            rec.progress + useful,
            (rec.impl.time if rec.impl is not None else useful) - EPS,
        )
        save = self.ckpt.save_cost(self.arch, region.resources)
        restore = self.ckpt.restore_cost(self.arch, region.resources)
        rec.restore_due = restore
        rec.not_before = now + save
        rec.resume_pending = True
        rec.preemptions += 1
        jr = self.jobs[rec.job_id]
        jr.preemptions += 1
        jr.remaining.add(uid)
        self._emit(
            now, "preempt", uid, rid, detail=f"for {for_job}"
        )
        self._emit(
            now,
            "checkpoint",
            uid,
            rid,
            detail=f"save={save:.6f} progress={rec.progress:.6f}",
        )
        self.activities.append(
            SimulatedActivity(
                kind="checkpoint",
                name=f"ckpt:{uid}",
                resource=rid,
                start=now,
                end=now + save,
            )
        )
        region.free_at = now + save
        region.running = None
        region.last_used = now + save
        self._raise_bound(uid, now + save)
        self.stale_arcs += 1

    def _truncate_running(
        self, region: _RegionRec, uid: str, now: float, lose_work: bool
    ) -> float:
        """Cut the region's in-flight activity short at ``now``.

        Preemption keeps the executed slice as useful (checkpointed)
        work (``ok=True``); a region death marks it lost (``ok=False``).
        Returns the truncated activity's start."""
        start = now
        for i in range(len(self.activities) - 1, -1, -1):
            act = self.activities[i]
            if act.resource != region.id or act.end <= now + EPS:
                continue
            start = act.start
            if act.start >= now - EPS:
                del self.activities[i]
            else:
                self.activities[i] = replace(
                    act, end=now, ok=not lose_work and act.ok
                )
            if act.kind == "task" and act.name == uid:
                break
        self.task_end.pop(uid, None)
        jid = self.tasks[uid].job_id
        jr = self.jobs[jid]
        jr.remaining.add(uid)  # its completion was just revoked
        if jr.completed_at is not None:
            jr.completed_at = None  # the last task is running again
        self._scrub_trace({uid, f"reconf:{uid}"}, now)
        self._scrub_trace({jid}, now, kinds=("job-complete",))
        return start

    # -- dispatch ------------------------------------------------------------

    def _data_ready(self, uid: str) -> float | None:
        ready = self.tasks[uid].not_before
        for pred in self.graph.predecessors(uid):
            if pred not in self.task_end:
                return None
            finish = self.task_end[pred] + self.graph.comm_cost(pred, uid)
            ready = max(ready, finish)
        return ready

    def _candidates(self) -> list[Candidate]:
        cands: list[Candidate] = []
        for region in self._alive_regions():
            if not region.queue:
                continue
            uid = region.queue[0]
            rec = self.tasks[uid]
            assert rec.impl is not None
            if region.configured != rec.impl.name:
                ctrl = min(
                    range(self.arch.reconfigurators),
                    key=lambda c: (self.ctrl_free[c], c),
                )
                start = max(region.free_at, self.ctrl_free[ctrl])
                cands.append(
                    (start, 0, f"reconf:{uid}", (self._fire_reconf, region.id, ctrl))
                )
                continue
            ready = self._data_ready(uid)
            if ready is None:
                continue
            start = max(ready, region.free_at)
            cands.append((start, 1, uid, (self._fire_task, "region", region.id)))
        for p, queue in enumerate(self.proc_queue):
            if not queue:
                continue
            uid = queue[0]
            ready = self._data_ready(uid)
            if ready is None:
                continue
            start = max(ready, self.proc_free[p])
            cands.append((start, 2, uid, (self._fire_task, "proc", p)))
        for uid in sorted(self.pool):
            ready = self._data_ready(uid)
            if ready is None:
                continue
            p = min(
                range(self.arch.processors),
                key=lambda i: (self.proc_free[i], i),
            )
            start = max(ready, self.proc_free[p])
            cands.append((start, 3, uid, (self._fire_task, "pool", p)))
        return cands

    def _task_queues(self) -> list[tuple[str, list[str]]]:
        return [(r.id, r.queue) for r in self._alive_regions()] + [
            (f"P{p}", queue) for p, queue in enumerate(self.proc_queue)
        ]

    def _planned_time(self, uid: str) -> float:
        return self.plan_end.get(uid, float("inf"))

    def _fire_reconf(self, start: float, name: str, rid: str, ctrl: int) -> None:
        region = self.regions[rid]
        uid = region.queue[0]
        rec = self.tasks[uid]
        assert rec.impl is not None
        act = self._attempts(
            "reconfiguration", uid, f"ICAP{ctrl}", start,
            self.arch.reconf_time(region.resources),
            first=rec.reconf_attempts + 1,
        )
        rec.reconf_attempts = act.attempt
        self.ctrl_free[ctrl] = act.end
        if act.ok:
            region.configured = rec.impl.name
            region.free_at = max(region.free_at, act.end)
            region.last_used = act.end
            return
        region.queue.pop(0)
        self._recover([uid], act.end, "bitstream load retries exhausted")

    def _fire_task(self, start: float, uid: str, where: str, key) -> None:
        # For the pool, ``key`` is the chosen processor.
        region = self.regions[key] if where == "region" else None
        if where == "pool":
            self.pool.remove(uid)
        else:
            queue = region.queue if region is not None else self.proc_queue[key]
            assert queue[0] == uid
            queue.pop(0)
        resource = key if region is not None else f"P{key}"
        rec = self.tasks[uid]
        assert rec.impl is not None
        duration = rec.restore_due + max(0.0, rec.impl.time - rec.progress)
        rec.run_restore = rec.restore_due
        if rec.restore_due > 0.0:
            rec.restore_charged.append(rec.restore_due)
        rec.restore_due = 0.0
        rec.dispatch_resource = resource
        if rec.resume_pending:
            self._emit(
                start,
                "resume",
                uid,
                resource,
                detail=(
                    f"restore={rec.run_restore:.6f} "
                    f"progress={rec.progress:.6f}"
                ),
            )
            rec.resume_pending = False

        # The attempt number runs on across dispatches (fault determinism).
        act = self._attempts(
            "task", uid, resource, start, duration, first=rec.attempts + 1
        )
        rec.attempts = act.attempt
        if region is not None:
            region.free_at = act.end
            region.last_used = act.end
            region.running = (uid, act.start, act.end) if act.ok else None
        else:
            self.proc_free[key] = act.end
        if act.ok:
            self.task_start[uid] = act.start
            self.task_end[uid] = act.end
            self._on_complete(uid, act.end)
        else:
            self._recover([uid], act.end, "retries exhausted")

    def _process_external(self, event: tuple[float, int, str]) -> None:
        t, cls, key = event
        if cls == 0:
            self._process_arrival(key)
        elif cls == 1:
            self._process_region_death(key, t)
        elif cls == 2:
            self._process_departure(key, t)
        else:
            self._process_deadline(key, t)

    # -- task execution ------------------------------------------------------

    def _recover(
        self, uids: list[str], now: float, cause: str, no_path: str = "no recovery path"
    ) -> None:
        """The recovery ladder: SW fallback, then online re-placement
        (one batch for all of ``uids``), then failure."""
        replaced: list[str] = []
        for uid in uids:
            task = self.graph.task(uid)
            rec = self.tasks[uid]
            rec.not_before = max(rec.not_before, now)
            if self.policy.sw_fallback and task.has_sw:
                self._to_fallback(uid, now, cause)
            elif self.policy.repair and task.has_hw:
                replaced.append(uid)
            else:
                self._fail_task(uid, now, f"{cause}; {no_path}")
        if replaced:
            self._replace_hw_batch(replaced, now, cause)

    def _on_complete(self, uid: str, end: float) -> None:
        rec = self.tasks[uid]
        jr = self.jobs[rec.job_id]
        jr.remaining.discard(uid)
        for succ in self.graph.successors(uid):
            self._raise_bound(succ, end)
        if not jr.remaining and not jr.departed:
            jr.completed_at = end
            self._emit(end, "job-complete", rec.job_id)

    def _result(self) -> OnlineResult:
        makespan = max((a.end for a in self.activities), default=0.0)
        jobs = {
            jid: JobOutcome(
                job_id=jid,
                tenant=jr.job.tenant,
                arrival=jr.job.arrival,
                deadline=jr.job.deadline,
                priority=jr.job.priority,
                completed_at=jr.completed_at,
                missed=jr.missed,
                departed=jr.departed,
                preemptions=jr.preemptions,
                predicted_completion=jr.predicted_completion,
                uids=list(jr.uids),
            )
            for jid, jr in sorted(self.jobs.items())
        }
        tasks = {}
        for uid in sorted(self.tasks):
            rec = self.tasks[uid]
            impl = rec.impl
            tasks[uid] = TaskOutcome(
                uid=uid,
                job_id=rec.job_id,
                impl_name=impl.name if impl is not None else "",
                impl_time=impl.time if impl is not None else 0.0,
                impl_kind=(
                    "hw" if impl is not None and impl.is_hw else "sw"
                ),
                resource=rec.dispatch_resource,
                attempts=rec.attempts,
                preemptions=rec.preemptions,
                restore_charged=list(rec.restore_charged),
                completed_at=self.task_end.get(uid),
                fallback=rec.fallback,
                cancelled=uid in self.cancelled,
                skipped=uid in self.skipped,
                failed=uid in self.failed,
            )
        regions = [
            RegionLog(
                region_id=r.id,
                resources=r.resources,
                alloc_time=r.alloc_time,
                freed_time=r.freed_at,
                cause=r.freed_cause,
            )
            for r in sorted(self.regions.values(), key=lambda r: r.id)
        ]
        return OnlineResult(
            trace_name=self.src.name,
            activities=self.activities,
            trace=self.trace,
            jobs=jobs,
            tasks=tasks,
            regions=regions,
            makespan=makespan,
            replans=list(self.replans),
        )


def run_online(
    trace: ArrivalTrace,
    faults: FaultPlan | None = None,
    policy: RecoveryPolicy | None = None,
    checkpoint: CheckpointModel | None = None,
    preemption: bool = True,
    full_replan_threshold: int = 12,
    on_event=None,
) -> OnlineResult:
    """Run an arrival trace through the online runtime (see
    :class:`OnlineRuntime`)."""
    return OnlineRuntime(
        trace,
        faults=faults,
        policy=policy,
        checkpoint=checkpoint,
        preemption=preemption,
        full_replan_threshold=full_replan_threshold,
        on_event=on_event,
    ).run()
