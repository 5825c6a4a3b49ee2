"""Cost and efficiency metrics — Equations 3, 4 and 5.

These two scalar metrics drive every heuristic decision in the paper:

* the **implementation cost** (Eq. 3) picks the initial implementation
  per task — it charges both the relative fabric footprint and the
  relative execution time, with scarce resource types weighted more
  (Eq. 4);
* the **efficiency index** (Eq. 5) orders hardware tasks during region
  definition — implementations with a high ``time / weighted-area``
  ratio produce small regions and therefore more fabric parallelism.
"""

from __future__ import annotations

from typing import Mapping

from ..model import Architecture, Implementation, TaskGraph

__all__ = [
    "max_serial_time",
    "implementation_cost",
    "efficiency_index",
    "select_initial_implementation",
]


def max_serial_time(taskgraph: TaskGraph) -> float:
    """Eq. 4: ``maxT = sum_t min_{i in I_t} time_i``.

    The length of the hypothetical schedule that runs every task
    serially with its fastest implementation; normalises the time term
    of Eq. 3.  Summed in sorted-id order, so the float result does not
    depend on task insertion order.
    """
    return sum(task.fastest().time for task in sorted(taskgraph, key=lambda t: t.id))


def implementation_cost(
    impl: Implementation,
    arch: Architecture,
    max_t: float,
    weights: Mapping[str, float] | None = None,
) -> float:
    """Eq. 3 — cost of a hardware implementation.

    ``cost_i = (sum_r weightRes_r * res_{i,r}) / (sum_r weightRes_r * maxRes_r)
               + time_i / maxT``
    """
    if not impl.is_hw:
        raise ValueError("implementation cost is defined for HW implementations")
    if max_t <= 0:
        raise ValueError("max_t must be > 0")
    w = dict(weights) if weights is not None else arch.resource_weights()
    denom = arch.max_res.weighted_sum(w)
    if denom <= 0:
        # A degenerate single-resource-type fabric has weight zero
        # everywhere (Eq. 4 yields 1 - 1 = 0).  Fall back to the
        # unweighted footprint so the metric stays informative.
        w = {r: 1.0 for r in arch.max_res}
        denom = arch.max_res.weighted_sum(w)
    area_term = impl.resources.weighted_sum(w) / denom
    time_term = impl.time / max_t
    return area_term + time_term


def efficiency_index(
    impl: Implementation,
    arch: Architecture,
    weights: Mapping[str, float] | None = None,
) -> float:
    """Eq. 5 — ``eff_i = time_i / sum_r res_{i,r} * weightRes_r``.

    Higher is "more resource-efficient": lots of compute time packed
    into little (scarcity-weighted) area.
    """
    if not impl.is_hw:
        raise ValueError("efficiency index is defined for HW implementations")
    w = dict(weights) if weights is not None else arch.resource_weights()
    denom = impl.resources.weighted_sum(w)
    if denom <= 0:
        w = {r: 1.0 for r in arch.max_res}
        denom = impl.resources.weighted_sum(w)
    return impl.time / denom


def select_initial_implementation(
    task,
    arch: Architecture,
    max_t: float,
    weights: Mapping[str, float] | None = None,
) -> Implementation:
    """Section V-A: the per-task initial implementation choice.

    Pick the HW implementation ``i_H`` with the lowest Eq. 3 cost and
    the SW implementation ``i_S`` with the lowest execution time, then
    return whichever of the two is faster.  Tasks without HW candidates
    directly get their fastest SW implementation (and vice versa).
    """
    hw = task.hw_implementations
    sw = task.sw_implementations
    best_hw = None
    if hw:
        w = dict(weights) if weights is not None else arch.resource_weights()
        best_hw = min(
            hw,
            key=lambda i: (implementation_cost(i, arch, max_t, w), i.time, i.name),
        )
    best_sw = min(sw, key=lambda i: (i.time, i.name)) if sw else None
    if best_hw is None and best_sw is None:
        raise ValueError(f"task {task.id!r} has no implementations")
    if best_hw is None:
        return best_sw
    if best_sw is None:
        return best_hw
    # Lowest execution time between the two champions; HW wins ties
    # (it frees a core and the scheduler can still demote it later).
    return best_hw if best_hw.time <= best_sw.time else best_sw
