"""Configuration knobs for the PA / PA-R schedulers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["TaskOrdering", "PAOptions"]


class TaskOrdering(enum.Enum):
    """Processing order of non-critical HW tasks during region definition.

    Section V-C argues the order "greatly impacts the quality of the
    final schedule"; Section VI relaxes it.  ``EFFICIENCY`` is the
    deterministic PA order (higher Eq. 5 index first), ``RANDOM`` is the
    PA-R order, and the remaining values exist for the ablation
    benchmarks.
    """

    EFFICIENCY = "efficiency"
    RANDOM = "random"
    COST = "cost"  # lower Eq. 3 cost first
    REVERSE_EFFICIENCY = "reverse-efficiency"
    GRAPH = "graph"  # plain topological / insertion order


@dataclass
class PAOptions:
    """Options shared by PA (deterministic) and PA-R (randomized).

    Attributes
    ----------
    ordering:
        Non-critical HW task ordering in the regions-definition step.
    seed:
        RNG seed for :attr:`TaskOrdering.RANDOM`.
    window_mode:
        Interpretation of "time windows do not overlap" in the region
        reuse tests (Sections V-C/V-D).  ``"slot"`` (default) uses the
        *planned slot* ``[T_MIN, T_MIN + T_EXE)`` — the interval the
        task will actually occupy once Section V-E fixes
        ``T_START = T_MIN`` — while ``"cpm"`` uses the full CPM window
        ``[T_MIN, T_MAX]``.  The paper's wording suggests the latter,
        but it is so conservative that under fabric contention almost
        every task demotes to software; the slot reading reproduces the
        paper's reported behaviour (see DESIGN.md and the ordering
        ablation bench).
    enable_sw_balancing:
        Toggle the Section V-D post-processing (ablation knob).
    enable_module_reuse:
        Future-work extension (Section VIII): skip the reconfiguration
        between subsequent tasks of a region that share the same
        implementation.
    communication_overhead:
        Future-work extension: honour per-edge communication costs in
        the timing engine instead of assuming they are folded into the
        execution times.
    legacy_unit_gap:
        Reproduce the paper's literal ``T_START = T_END_tl + 1`` on a
        busy reconfigurator instead of the half-open-interval
        ``T_START = T_END_tl``.
    shrink_factor / max_shrink_iterations:
        Section V-H feasibility loop: when the floorplanner rejects the
        region set, the fabric is virtually shrunk by ``shrink_factor``
        and the scheduler re-run, at most ``max_shrink_iterations``
        times.
    critical_tolerance:
        Slack below which a task counts as critical.
    jobs:
        Default worker-process count for
        :func:`~repro.core.randomized.pa_r_schedule_parallel` restart
        batches (1 = serial in-process, -1 = all cores).  Ignored by
        the deterministic PA pipeline and by the serial
        :func:`~repro.core.randomized.pa_r_schedule`.
    incremental_timing:
        Use dirty-frontier incremental earliest-start propagation in
        the reconfiguration-scheduling phase (Section V-G) instead of a
        full CPM forward pass per reconfiguration.  Bit-identical
        results; ``False`` is the escape hatch for debugging and for
        the equivalence benchmarks.
    verify_incremental_timing:
        Cross-check every incremental earliest-start snapshot against a
        full recomputation (slow; used by tests).
    selection_policy:
        Step V-A policy: ``"cost"`` is the paper's Eq. 3 metric;
        ``"fastest"`` always picks the fastest HW candidate (an
        IS-1-like greed); ``"smallest"`` the least scarcity-weighted
        area; ``"adaptive"`` (a documented extension beyond the paper)
        picks the fastest champions when their quantized total demand
        fits the fabric — no contention means nothing to trade — and
        falls back to Eq. 3 otherwise.  Each champion still competes
        with the fastest SW implementation on execution time.
    """

    ordering: TaskOrdering = TaskOrdering.EFFICIENCY
    seed: int | None = None
    window_mode: str = "slot"
    selection_policy: str = "cost"
    enable_sw_balancing: bool = True
    enable_module_reuse: bool = False
    communication_overhead: bool = False
    legacy_unit_gap: bool = False
    shrink_factor: float = 0.9
    max_shrink_iterations: int = 12
    critical_tolerance: float = 1e-6
    incremental_timing: bool = True
    verify_incremental_timing: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.ordering, str):
            self.ordering = TaskOrdering(self.ordering)
        if self.window_mode not in ("slot", "cpm"):
            raise ValueError("window_mode must be 'slot' or 'cpm'")
        if self.selection_policy not in ("cost", "fastest", "smallest", "adaptive"):
            raise ValueError(
                "selection_policy must be 'cost', 'fastest', 'smallest' "
                "or 'adaptive'"
            )
        if not (0.0 < self.shrink_factor < 1.0):
            raise ValueError("shrink_factor must be in (0, 1)")
        if self.max_shrink_iterations < 1:
            raise ValueError("max_shrink_iterations must be >= 1")

    @property
    def reconf_gap(self) -> float:
        """Serialization gap on the reconfiguration controller."""
        return 1.0 if self.legacy_unit_gap else 0.0
