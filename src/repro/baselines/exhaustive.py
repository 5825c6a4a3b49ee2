"""Exhaustive constructive scheduler — the exact reference for tiny
instances.

Runs the IS-k machinery with a single window covering the whole graph,
no branch cap and (by default) no node budget: an exact branch-and-
bound over the *entire* constructive decision space (implementation x
placement per task, processed in the deterministic topological order,
with greedy left-justified timing).  Within that space it is optimal,
which yields the invariant the test suite leans on:

* ``exhaustive <= IS-k`` for every k (IS-k explores a subset of the
  same tree, since both fix the identical processing order).

Neither PA nor LIST is bounded by it: LIST processes tasks in HEFT
rank order (a different linear extension of the DAG), and PA's
window-based region insertion can interleave tasks in orders the
constructive tree cannot express.  Measuring how often they beat the
constructive optimum is itself informative (see the optimality-gap
bench).

Complexity is exponential; keep instances at <= ~8 tasks, or pass a
``node_limit`` to degrade to anytime-best.
"""

from __future__ import annotations

from ..model import Instance
from .isk import ISKOptions, ISKResult, ISKScheduler

__all__ = ["exhaustive_schedule"]


def exhaustive_schedule(
    instance: Instance,
    node_limit: int | None = None,
    enable_module_reuse: bool = True,
    communication_overhead: bool = False,
    jobs: int = 1,
) -> ISKResult:
    """Exact search over the constructive decision space (see above)."""
    n = len(instance.taskgraph)
    options = ISKOptions(
        k=max(1, n),
        branch_cap=10**9,
        node_limit=node_limit if node_limit is not None else 10**9,
        enable_module_reuse=enable_module_reuse,
        communication_overhead=communication_overhead,
        jobs=jobs,
    )
    result = ISKScheduler(options).schedule(instance)
    result.schedule.scheduler = "EXHAUSTIVE"
    return result
