"""Constructive partial-schedule state for the baseline schedulers.

IS-k (reference [6]) and the list-based scheduler build schedules task
by task.  :class:`PartialSchedule` keeps the committed state — regions
with their currently loaded module, processor queues, the
reconfiguration-controller timeline — and offers *placement* operations
whose timing semantics match the validator's invariants by
construction:

* a task starts after its predecessors (plus optional communication);
* a region runs one task at a time; loading a different module first
  requires a reconfiguration of the region's Eq. 2 duration, scheduled
  in the earliest controller gap after the region goes idle
  (reconfiguration *prefetching*: the controller may load the bitstream
  while the task's predecessors are still running);
* loading the same module twice in a row needs no reconfiguration
  (*module reuse* — IS-k exploits this; the paper's PA does not).

The start rule lives in one read-only method,
:meth:`PartialSchedule.earliest_start`: ``place_sw``/``place_hw``
commit what it returns, and every scheduler that ranks options without
applying them (IS-k, the list scheduler, the online planner) calls it.

States are cheaply copyable so branch-and-bound can fork them, and —
since the IS-k search-engine overhaul — support an **apply/undo
trail**: :meth:`PartialSchedule.trail_mark` starts recording every
mutation (region state, processor free-times/sequences, controller
intervals, ``impl``/``placement``/``start``/``end`` entries, the
``used`` vector, the running end-sum and makespan) on an undo log, and
:meth:`PartialSchedule.undo_to` rewinds to a mark, so depth-first
search explores options by do→recurse→undo instead of forking a full
copy per option.  Undo restores the *recorded* float values (never
re-derives them arithmetically), so a rewound state is bit-identical
to the state at the mark (``tests/property/test_property_trail.py``).

The window objective ``(makespan, Σ end)`` is maintained incrementally
(``end_sum`` / the O(1) ``makespan`` property): both only ever grow by
``max``/left-to-right addition as tasks are committed, so the running
values equal a fresh O(n) recomputation bit-for-bit.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from ..model import (
    Architecture,
    Implementation,
    Instance,
    ProcessorPlacement,
    Reconfiguration,
    Region,
    RegionPlacement,
    ResourceVector,
    Schedule,
    ScheduledTask,
)

__all__ = ["RegionState", "PartialSchedule"]


@dataclass
class RegionState:
    """One reconfigurable region during constructive scheduling."""

    id: str
    resources: ResourceVector
    free_time: float = 0.0  # when the last hosted task finishes
    loaded: str | None = None  # implementation name currently configured
    sequence: list[str] = field(default_factory=list)

    def copy(self) -> "RegionState":
        return RegionState(
            id=self.id,
            resources=self.resources,
            free_time=self.free_time,
            loaded=self.loaded,
            sequence=list(self.sequence),
        )


class PartialSchedule:
    """Mutable constructive schedule over an :class:`Instance`."""

    def __init__(
        self,
        instance: Instance,
        communication_overhead: bool = False,
        enable_module_reuse: bool = True,
    ) -> None:
        self.instance = instance
        self.arch: Architecture = instance.architecture
        self.comm = communication_overhead
        self.module_reuse = enable_module_reuse

        self.regions: dict[str, RegionState] = {}
        self._region_counter = 0
        self.proc_free: list[float] = [0.0] * self.arch.processors
        self.proc_sequence: list[list[str]] = [[] for _ in range(self.arch.processors)]
        # Busy intervals per reconfiguration controller, sorted by start
        # (the paper's architecture has one; the multi-reconfigurator
        # extension of reference [8] is supported via the architecture).
        self.controllers: list[list[tuple[float, float]]] = [
            [] for _ in range(self.arch.reconfigurators)
        ]
        self.reconfigurations: list[Reconfiguration] = []

        self.impl: dict[str, Implementation] = {}
        self.placement: dict[str, ProcessorPlacement | RegionPlacement] = {}
        self.start: dict[str, float] = {}
        self.end: dict[str, float] = {}
        self.used = ResourceVector.zero()
        # Incremental objective: running sum of task end times and the
        # running makespan (task ends + controller busy ends).  Both are
        # monotone under the placement ops, and undo restores recorded
        # values, so they always equal a fresh recomputation.
        self.end_sum: float = 0.0
        self._makespan: float = 0.0
        # Undo log: None while not recording (the list scheduler and
        # plain constructive runs pay only a None-check per op).
        self._trail: list[tuple] | None = None

    # -- copying ------------------------------------------------------------

    def copy(self) -> "PartialSchedule":
        dup = PartialSchedule.__new__(PartialSchedule)
        dup.instance = self.instance
        dup.arch = self.arch
        dup.comm = self.comm
        dup.module_reuse = self.module_reuse
        dup.regions = {rid: r.copy() for rid, r in self.regions.items()}
        dup._region_counter = self._region_counter
        dup.proc_free = list(self.proc_free)
        dup.proc_sequence = [list(s) for s in self.proc_sequence]
        dup.controllers = [list(c) for c in self.controllers]
        dup.reconfigurations = list(self.reconfigurations)
        dup.impl = dict(self.impl)
        dup.placement = dict(self.placement)
        dup.start = dict(self.start)
        dup.end = dict(self.end)
        dup.used = self.used
        dup.end_sum = self.end_sum
        dup._makespan = self._makespan
        dup._trail = None  # a fork starts its own recording epoch
        return dup

    # -- undo trail ----------------------------------------------------------

    def trail_mark(self) -> int:
        """Start (or continue) recording mutations; returns a mark that
        :meth:`undo_to` rewinds to."""
        if self._trail is None:
            self._trail = []
        return len(self._trail)

    def trail_depth(self) -> int:
        """Current length of the undo log (0 while not recording)."""
        return 0 if self._trail is None else len(self._trail)

    def trail_clear(self) -> None:
        """Drop the undo log and stop recording (commits the state)."""
        self._trail = None

    def undo_to(self, mark: int) -> None:
        """Rewind every mutation recorded after ``mark`` (LIFO)."""
        trail = self._trail
        if trail is None:
            raise ValueError("undo_to without an active trail")
        while len(trail) > mark:
            entry = trail.pop()
            tag = entry[0]
            if tag == "sw":
                (_, task_id, processor, old_free,
                 old_end_sum, old_makespan) = entry
                self.proc_free[processor] = old_free
                self.proc_sequence[processor].pop()
                del self.impl[task_id]
                del self.placement[task_id]
                del self.start[task_id]
                del self.end[task_id]
                self.end_sum = old_end_sum
                self._makespan = old_makespan
            elif tag == "hw":
                (_, task_id, region_id, old_free, old_loaded,
                 reconf, old_end_sum, old_makespan) = entry
                region = self.regions[region_id]
                region.sequence.pop()
                region.free_time = old_free
                region.loaded = old_loaded
                if reconf is not None:
                    controller, rc_start, rc_end = reconf
                    self.reconfigurations.pop()
                    self.controllers[controller].remove((rc_start, rc_end))
                del self.impl[task_id]
                del self.placement[task_id]
                del self.start[task_id]
                del self.end[task_id]
                self.end_sum = old_end_sum
                self._makespan = old_makespan
            else:  # "region"
                _, region_id, old_used, old_counter = entry
                del self.regions[region_id]
                self.used = old_used
                self._region_counter = old_counter

    # -- queries --------------------------------------------------------------

    def ready_time(self, task_id: str) -> float:
        """Earliest data-ready instant given committed predecessors."""
        graph = self.instance.taskgraph
        ready = 0.0
        for pred in graph.predecessors(task_id):
            if pred not in self.end:
                raise ValueError(
                    f"predecessor {pred!r} of {task_id!r} not scheduled yet"
                )
            finish = self.end[pred]
            if self.comm:
                finish += graph.comm_cost(pred, task_id)
            ready = max(ready, finish)
        return ready

    def available_resources(self) -> ResourceVector:
        remaining = {
            r: self.arch.max_res[r] - self.used[r] for r in self.arch.max_res
        }
        return ResourceVector({r: max(0, v) for r, v in remaining.items()})

    def can_create_region(self, demand: ResourceVector) -> bool:
        quantized = self.arch.quantize_region(demand)
        return quantized.fits_in(self.available_resources())

    @property
    def next_region_id(self) -> str:
        """The id :meth:`create_region` gives the next region."""
        return f"RR{self._region_counter}"

    def earliest_start(
        self, ready: float, impl_name: str, target: str | int | None
    ) -> tuple[float, tuple[int, float, float] | None]:
        """When a task ready at ``ready`` would start on ``target``,
        computed read-only — the one start rule of this module.

        ``target`` is a region id, a processor index, or ``None`` for a
        region not created yet (idle since 0, nothing loaded).  Returns
        ``(start, reconf)``; ``reconf`` is the ``(controller, start,
        end)`` of the reconfiguration that must come first, or ``None``.
        A region needs one whenever a *different* module is loaded.
        Offline, "something loaded" and "sequence non-empty" coincide;
        online projections seed regions whose queue has drained but
        whose fabric still holds the last module, so the loaded module
        — not the sequence — is the authoritative signal.

        :meth:`place_sw` and :meth:`place_hw` commit exactly what this
        returns, so a preview equals apply-then-read bit for bit.
        """
        if target is None:
            return max(ready, 0.0), None
        if isinstance(target, int):
            return max(ready, self.proc_free[target]), None
        region = self.regions[target]
        if region.loaded is not None and not (
            self.module_reuse and region.loaded == impl_name
        ):
            duration = self.arch.reconf_time(region.resources)
            controller, rc_start = self._controller_slot(region.free_time, duration)
            rc_end = rc_start + duration
            return max(ready, rc_end), (controller, rc_start, rc_end)
        return max(ready, region.free_time), None

    @property
    def makespan(self) -> float:
        """Max over task ends and controller busy ends — maintained
        incrementally (O(1)); equals the explicit max by monotonicity."""
        return self._makespan

    # -- controller timeline ------------------------------------------------------

    def _controller_slot(self, earliest: float, duration: float) -> tuple[int, float]:
        """Earliest gap of ``duration`` over all controllers at/after
        ``earliest``; returns ``(controller, start)``."""
        best: tuple[float, int] | None = None
        for index, controller in enumerate(self.controllers):
            start = earliest
            for busy_start, busy_end in controller:
                if busy_end <= start:
                    continue
                if busy_start >= start + duration:
                    break  # fits before this busy interval
                start = busy_end
            if best is None or (start, index) < best:
                best = (start, index)
        assert best is not None
        return best[1], best[0]

    def _reserve_controller(self, controller: int, start: float, end: float) -> None:
        insort(self.controllers[controller], (start, end))
        if end > self._makespan:
            self._makespan = end

    # -- placement operations ----------------------------------------------------------

    def create_region(self, demand: ResourceVector) -> RegionState:
        quantized = self.arch.quantize_region(demand)
        if not quantized.fits_in(self.available_resources()):
            raise ValueError("insufficient fabric resources for new region")
        region = RegionState(id=self.next_region_id, resources=quantized)
        if self._trail is not None:
            self._trail.append(
                ("region", region.id, self.used, self._region_counter)
            )
        self._region_counter += 1
        self.regions[region.id] = region
        self.used = self.used + quantized
        return region

    def place_sw(self, task_id: str, impl: Implementation, processor: int) -> float:
        """Commit a SW task on a core; returns its finish time."""
        if not impl.is_sw:
            raise ValueError("place_sw needs a SW implementation")
        start, _ = self.earliest_start(
            self.ready_time(task_id), impl.name, processor
        )
        end = start + impl.time
        if self._trail is not None:
            self._trail.append(
                ("sw", task_id, processor, self.proc_free[processor],
                 self.end_sum, self._makespan)
            )
        self.proc_free[processor] = end
        self.proc_sequence[processor].append(task_id)
        self.impl[task_id] = impl
        self.placement[task_id] = ProcessorPlacement(index=processor)
        self.start[task_id] = start
        self.end[task_id] = end
        self.end_sum += end
        if end > self._makespan:
            self._makespan = end
        return end

    def place_hw(self, task_id: str, impl: Implementation, region_id: str) -> float:
        """Commit a HW task in a region; returns its finish time.

        Inserts the reconfiguration (if a different module is loaded)
        into the earliest controller gap after the region goes idle.
        """
        if not impl.is_hw:
            raise ValueError("place_hw needs a HW implementation")
        region = self.regions[region_id]
        if not impl.resources.fits_in(region.resources):
            raise ValueError(
                f"implementation {impl.name!r} does not fit region {region_id!r}"
            )
        start, reconf = self.earliest_start(
            self.ready_time(task_id), impl.name, region_id
        )
        old_free = region.free_time
        old_loaded = region.loaded
        old_end_sum = self.end_sum
        old_makespan = self._makespan
        if reconf is not None:
            controller, rc_start, rc_end = reconf
            self._reserve_controller(controller, rc_start, rc_end)
            self.reconfigurations.append(
                Reconfiguration(
                    region_id=region_id,
                    ingoing_task=(
                        region.sequence[-1]
                        if region.sequence
                        else f"<live:{region.loaded}>"
                    ),
                    outgoing_task=task_id,
                    start=rc_start,
                    end=rc_end,
                    controller=controller,
                )
            )
        end = start + impl.time
        if self._trail is not None:
            self._trail.append(
                ("hw", task_id, region_id, old_free, old_loaded,
                 reconf, old_end_sum, old_makespan)
            )
        region.free_time = end
        region.loaded = impl.name
        region.sequence.append(task_id)
        self.impl[task_id] = impl
        self.placement[task_id] = RegionPlacement(region_id=region_id)
        self.start[task_id] = start
        self.end[task_id] = end
        self.end_sum += end
        if end > self._makespan:
            self._makespan = end
        return end

    # -- lower bound / export --------------------------------------------------------------

    def completion_lower_bound(
        self, min_exe: dict[str, float], topo_order: list[str]
    ) -> float:
        """Optimistic full-completion bound: CPM over unscheduled tasks
        with fastest implementations and unlimited resources."""
        graph = self.instance.taskgraph
        bound = self.makespan
        est: dict[str, float] = {}
        for task_id in topo_order:
            if task_id in self.end:
                est[task_id] = self.end[task_id] - min_exe.get(task_id, 0.0)
                continue
            start = 0.0
            for pred in graph.predecessors(task_id):
                if pred in self.end:
                    finish = self.end[pred]
                else:
                    finish = est[pred] + min_exe[pred]
                if self.comm:
                    finish += graph.comm_cost(pred, task_id)
                start = max(start, finish)
            est[task_id] = start
            bound = max(bound, start + min_exe[task_id])
        return bound

    def to_schedule(self, scheduler: str, metadata: dict | None = None) -> Schedule:
        missing = [t for t in self.instance.taskgraph.task_ids if t not in self.end]
        if missing:
            raise ValueError(f"unscheduled tasks remain: {missing[:5]}")
        tasks = {
            task_id: ScheduledTask(
                task_id=task_id,
                implementation=self.impl[task_id],
                placement=self.placement[task_id],
                start=self.start[task_id],
                end=self.end[task_id],
            )
            for task_id in self.end
        }
        regions = {
            rid: Region(id=rid, resources=state.resources)
            for rid, state in self.regions.items()
            if state.sequence
        }
        return Schedule(
            tasks=tasks,
            regions=regions,
            reconfigurations=sorted(
                self.reconfigurations, key=lambda r: (r.start, r.region_id)
            ),
            scheduler=scheduler,
            metadata=dict(metadata or {}),
        )
