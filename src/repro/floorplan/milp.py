"""MILP floorplan formulation — the reference [3] selection model.

The paper solves floorplanning with a Gurobi MILP over *feasible
placements*: one binary variable per (region, placement) pair,
exactly-one selection per region, and at-most-one coverage per fabric
cell.  This module builds the same model and hands it to
``scipy.optimize.milp`` (HiGHS) — the documented Gurobi substitution.

No objective is set (the scheduler only asks for existence, Section
V-H), so ``c = 0`` and HiGHS stops at the first integer-feasible point.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .device import FabricDevice
from .placements import Placement

__all__ = ["MilpResult", "solve_milp"]


@dataclass
class MilpResult:
    feasible: bool
    placements: list[Placement] | None
    proven: bool
    elapsed: float
    stats: dict = field(default_factory=dict)


def solve_milp(
    device: FabricDevice,
    candidates_per_region: list[list[Placement]],
    node_limit: int = 50_000,
) -> MilpResult:
    """Solve the placement-selection MILP; placements in input order.

    ``node_limit`` caps HiGHS's branch-and-bound nodes, so the verdict
    depends on the input only, never on the machine's speed.
    """
    start = _time.perf_counter()
    n_regions = len(candidates_per_region)
    if n_regions == 0:
        return MilpResult(True, [], True, 0.0)
    if any(not c for c in candidates_per_region):
        return MilpResult(
            False, None, True, _time.perf_counter() - start,
            stats={"reason": "region-without-placements"},
        )

    # Flatten variables x_{region, placement}.
    var_region: list[int] = []
    var_placement: list[Placement] = []
    for region, cands in enumerate(candidates_per_region):
        for placement in cands:
            var_region.append(region)
            var_placement.append(placement)
    n_vars = len(var_placement)

    rows: list[int] = []
    cols: list[int] = []

    # Exactly-one selection per region (constraints 0 .. n_regions-1).
    for var, region in enumerate(var_region):
        rows.append(region)
        cols.append(var)
    n_select = n_regions

    # At-most-one coverage per fabric cell.
    cell_constraint: dict[tuple[int, int], int] = {}
    next_row = n_select
    for var, placement in enumerate(var_placement):
        for cell in placement.cells():
            row = cell_constraint.get(cell)
            if row is None:
                row = next_row
                next_row += 1
                cell_constraint[cell] = row
            rows.append(row)
            cols.append(var)

    data = np.ones(len(rows))
    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(next_row, n_vars)
    )
    lower = np.zeros(next_row)
    upper = np.ones(next_row)
    lower[:n_select] = 1.0  # exactly one: 1 <= sum <= 1
    constraint = LinearConstraint(matrix, lower, upper)

    result = milp(
        c=np.zeros(n_vars),
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
        constraints=[constraint],
        options={"presolve": True, "node_limit": node_limit},
    )
    elapsed = _time.perf_counter() - start

    if result.status == 0 and result.x is not None:
        chosen: list[Placement | None] = [None] * n_regions
        for var, value in enumerate(result.x):
            if value > 0.5:
                chosen[var_region[var]] = var_placement[var]
        assert all(p is not None for p in chosen), "MILP returned partial selection"
        return MilpResult(True, list(chosen), True, elapsed, stats={"milp": result.message})
    # status 2 = infeasible (proven); 1 = node limit; 4 = other failure.
    stats = {"milp": result.message, "status": int(result.status)}
    if result.status == 1:
        stats["reason"] = "budget"
    return MilpResult(False, None, result.status == 2, elapsed, stats=stats)
