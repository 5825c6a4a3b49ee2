"""Mutable working state shared by the eight PA steps.

The state tracks, for every task, the currently selected implementation
and (for HW tasks) the reconfigurable region hosting it, plus the
serialization arcs inserted to order tasks inside a region or on a
processor core.  Time windows are always derived from the *augmented*
precedence graph via :class:`repro.core.timing.PrecedenceGraph`, so
"recompute the time windows" (which the paper does after every
implementation switch and delay propagation) is one forward+backward
pass.
"""

from __future__ import annotations

from typing import Iterable

from ..model import (
    Architecture,
    Implementation,
    Instance,
    Region,
    ResourceVector,
)
from .options import PAOptions
from .timing import EPS, PrecedenceGraph, TimingResult

__all__ = ["PAState"]


class PAState:
    """Working state for one `doSchedule` run (Sections V-A .. V-G)."""

    def __init__(
        self,
        instance: Instance,
        options: PAOptions | None = None,
        architecture: Architecture | None = None,
    ) -> None:
        self.instance = instance
        self.options = options or PAOptions()
        # The feasibility loop (Section V-H) passes a virtually shrunk
        # architecture; Eq. 1/2 bit estimates intentionally stay those of
        # the *real* fabric, only `max_res` shrinks.
        self.arch = architecture or instance.architecture
        self.taskgraph = instance.taskgraph

        # Sorted ids and arcs: every decision that breaks ties by graph
        # order is then a function of the instance's content, not of the
        # order its tasks were inserted (a generator object and its JSON
        # round trip share one cache key, so they must share a schedule).
        self.graph = PrecedenceGraph(sorted(self.taskgraph.task_ids))
        for src, dst in sorted(self.taskgraph.edges()):
            comm = (
                self.taskgraph.comm_cost(src, dst)
                if self.options.communication_overhead
                else 0.0
            )
            self.graph.add_edge(src, dst, comm)

        self.impl: dict[str, Implementation] = {}
        self.exe: dict[str, float] = {}

        self.regions: dict[str, ResourceVector] = {}
        self.region_of: dict[str, str] = {}
        self.region_chain: dict[str, list[str]] = {}
        self._region_counter = 0

        self.processor_of: dict[str, int] = {}
        self.proc_chain: dict[int, list[str]] = {
            p: [] for p in range(self.arch.processors)
        }

        self.weights = self.arch.resource_weights()
        self._timing: TimingResult | None = None
        # Optional decision trace (see repro.core.trace); populated by
        # do_schedule when the caller asks for one.
        self.trace = None

    def record(self, phase: str, event: str, task: str | None = None, **data) -> None:
        """Record a decision on the attached trace (no-op when off)."""
        if self.trace is not None:
            self.trace.record(phase, event, task, **data)

    # -- implementations -----------------------------------------------------

    def set_implementation(self, task_id: str, impl: Implementation) -> None:
        """Assign/replace the implementation of a task and invalidate windows."""
        if impl not in self.taskgraph.task(task_id).implementations:
            raise ValueError(
                f"{impl.name!r} is not an implementation of task {task_id!r}"
            )
        self.impl[task_id] = impl
        self.exe[task_id] = impl.time
        self._timing = None

    def switch_to_fastest_sw(self, task_id: str) -> Implementation:
        """Section V-C step 3: demote a HW task to its fastest SW impl."""
        impl = self.taskgraph.task(task_id).fastest_sw()
        self.set_implementation(task_id, impl)
        return impl

    def is_hw(self, task_id: str) -> bool:
        return self.impl[task_id].is_hw

    def hw_task_ids(self) -> list[str]:
        return [t for t in self.graph.nodes if self.impl[t].is_hw]

    def sw_task_ids(self) -> list[str]:
        return [t for t in self.graph.nodes if self.impl[t].is_sw]

    # -- timing ------------------------------------------------------------------

    @property
    def timing(self) -> TimingResult:
        """Current CPM windows over the augmented graph (cached)."""
        if self._timing is None:
            missing = [t for t in self.graph.nodes if t not in self.exe]
            if missing:
                raise RuntimeError(
                    f"tasks without an implementation: {missing[:5]}"
                )
            self._timing = self.graph.compute_windows(self.exe)
        return self._timing

    def invalidate_timing(self) -> None:
        self._timing = None

    def window(self, task_id: str) -> tuple[float, float]:
        return self.timing.window(task_id)

    def occupancy_window(self, task_id: str) -> tuple[float, float]:
        """The interval used in the region-reuse overlap tests.

        ``"cpm"`` mode: the full window ``[T_MIN, T_MAX]`` (the paper's
        literal wording — conservative, provably delay-free reuse).
        ``"slot"`` mode: the planned slot ``[T_MIN, T_MIN + T_EXE)``,
        i.e. the interval the task will occupy after Section V-E fixes
        ``T_START = T_MIN``; the serialization arcs keep the schedule
        consistent if delays later shift it.
        """
        est, lft = self.timing.window(task_id)
        if self.options.window_mode == "cpm":
            return est, lft
        return est, est + self.exe[task_id]

    # -- regions ---------------------------------------------------------------------

    def used_resources(self) -> ResourceVector:
        total = ResourceVector.zero()
        for res in self.regions.values():
            total = total + res
        return total

    def available_resources(self) -> ResourceVector:
        """Fabric capacity not yet claimed by a region."""
        used = self.used_resources()
        remaining = {r: self.arch.max_res[r] - used[r] for r in self.arch.max_res}
        return ResourceVector({r: max(0, v) for r, v in remaining.items()})

    def can_host_new_region(self, demand: ResourceVector) -> bool:
        quantized = self.instance.architecture.quantize_region(demand)
        return quantized.fits_in(self.available_resources())

    def new_region(self, demand: ResourceVector) -> str:
        """Add a region sized to ``demand`` (Section V-C), rounded up to
        the fabric's placement granularity (whole column/clock-region
        cells) so capacity bookkeeping matches what is placeable."""
        quantized = self.instance.architecture.quantize_region(demand)
        if not quantized.fits_in(self.available_resources()):
            raise ValueError("not enough fabric resources for a new region")
        region_id = f"RR{self._region_counter}"
        self._region_counter += 1
        self.regions[region_id] = quantized
        self.region_chain[region_id] = []
        return region_id

    def region_bitstream(self, region_id: str) -> float:
        """Eq. 1 for region ``s`` (against the *real* architecture)."""
        return self.instance.architecture.bitstream_bits(self.regions[region_id])

    def region_reconf_time(self, region_id: str) -> float:
        """Eq. 2 for region ``s``."""
        return self.instance.architecture.reconf_time(self.regions[region_id])

    def region_insert_position(
        self,
        region_id: str,
        task_id: str,
        require_reconf_gap: bool,
    ) -> int | None:
        """Where ``task_id`` fits in the region's chronological chain.

        Returns the insertion index when every hosted task's window is
        disjoint from ``w_t`` — and, when ``require_reconf_gap`` is set
        (critical tasks, Section V-C), the reconfiguration needed to
        host ``t`` also fits before ``T_MIN_t``.  Returns ``None`` when
        the region cannot host the task.
        """
        est_t, lft_t = self.occupancy_window(task_id)
        chain = self.region_chain[region_id]
        pos = 0
        for idx, member in enumerate(chain):
            est_m, lft_m = self.occupancy_window(member)
            if lft_m <= est_t + EPS:  # member entirely before t
                pos = idx + 1
                continue
            if est_m >= lft_t - EPS:  # member entirely after t
                break
            return None  # window overlap
        if require_reconf_gap:
            reconf = self.region_reconf_time(region_id)
            if pos > 0:
                # The reconfiguration loading t's bitstream must fit
                # between the previous hosted task and T_MIN_t.
                prev = chain[pos - 1]
                gap = reconf
                if self.options.enable_module_reuse and (
                    self.impl[prev].name == self.impl[task_id].name
                ):
                    gap = 0.0  # module reuse: no bitstream reload needed
                prev_end = self.occupancy_window(prev)[1]
                if prev_end > est_t - gap + EPS:
                    return None
            if pos < len(chain):
                # Inserting t *before* an existing task creates a new
                # reconfiguration for that task; its window must fit
                # too, or the delay lands on a critical successor.
                nxt = chain[pos]
                gap = reconf
                if self.options.enable_module_reuse and (
                    self.impl[nxt].name == self.impl[task_id].name
                ):
                    gap = 0.0
                next_start = self.occupancy_window(nxt)[0]
                if lft_t > next_start - gap + EPS:
                    return None
        return pos

    def assign_region(self, task_id: str, region_id: str, position: int) -> None:
        """Host ``task_id`` in ``region_id`` at chain index ``position``.

        Inserts the serialization arcs that "guarantee the ordering of
        tasks inside each reconfigurable region" (Section V-C).
        """
        chain = self.region_chain[region_id]
        if position > 0:
            self.graph.add_edge(chain[position - 1], task_id)
        if position < len(chain):
            self.graph.add_edge(task_id, chain[position])
        chain.insert(position, task_id)
        self.region_of[task_id] = region_id
        self._timing = None

    def unassign_region(self, task_id: str) -> None:
        """Remove a task from its region chain (used by rollbacks in tests)."""
        region_id = self.region_of.pop(task_id)
        self.region_chain[region_id].remove(task_id)
        self._timing = None

    # -- processors ----------------------------------------------------------------------

    def assign_processor(self, task_id: str, processor: int) -> None:
        """Append a SW task to a core's chain (Section V-F).

        Chronological processing means appending after the task with
        the maximum end time on that core, which is exactly the arc
        realising ``λ_p``.
        """
        if not (0 <= processor < self.arch.processors):
            raise ValueError(f"no such processor: {processor}")
        chain = self.proc_chain[processor]
        if chain:
            self.graph.add_edge(chain[-1], task_id)
        chain.append(task_id)
        self.processor_of[task_id] = processor
        self._timing = None

    # -- export helpers ------------------------------------------------------------------------

    def region_objects(self) -> dict[str, Region]:
        return {
            rid: Region(id=rid, resources=res) for rid, res in self.regions.items()
        }

    def nonempty_regions(self) -> dict[str, ResourceVector]:
        """Regions that actually host at least one task.

        Demotions to SW can leave a region empty; empty regions are
        dropped from the final solution (they would only waste fabric).
        """
        return {
            rid: res
            for rid, res in self.regions.items()
            if self.region_chain[rid]
        }

    def drop_empty_regions(self) -> None:
        for rid in [r for r, c in self.region_chain.items() if not c]:
            del self.regions[rid]
            del self.region_chain[rid]

    def ordered(self, task_ids: Iterable[str], key: str = "est") -> list[str]:
        """Sort ids by current window attribute with a stable id tie-break."""
        timing = self.timing
        if key == "est":
            return sorted(task_ids, key=lambda t: (timing.est[t], t))
        if key == "lft":
            return sorted(task_ids, key=lambda t: (timing.lft[t], t))
        raise ValueError(f"unknown sort key {key!r}")
