"""Property-based tests for the floorplanning substrate."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.floorplan import (
    Floorplanner,
    candidate_placements,
    counting_precheck,
    small_device,
    solve_backtracking,
    solve_milp,
)
from repro.model import ResourceVector

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def devices(draw):
    return small_device(
        rows=draw(st.integers(min_value=1, max_value=3)),
        clb=draw(st.integers(min_value=2, max_value=8)),
        bram=draw(st.integers(min_value=0, max_value=2)),
        dsp=draw(st.integers(min_value=0, max_value=2)),
    )


@st.composite
def demand_sets(draw, device):
    total = device.total_resources()
    n = draw(st.integers(min_value=1, max_value=6))
    demands = []
    for _ in range(n):
        demand = {"CLB": draw(st.integers(min_value=1, max_value=max(1, total["CLB"] // 3)))}
        if total["DSP"] and draw(st.booleans()):
            demand["DSP"] = draw(st.integers(min_value=1, max_value=total["DSP"]))
        if total["BRAM"] and draw(st.booleans()):
            demand["BRAM"] = draw(st.integers(min_value=1, max_value=total["BRAM"]))
        demands.append(ResourceVector(demand))
    return demands


@SETTINGS
@given(st.data())
def test_candidates_always_satisfy_demand(data):
    device = data.draw(devices())
    demands = data.draw(demand_sets(device))
    for demand in demands:
        for placement in candidate_placements(device, demand, 100):
            assert demand.fits_in(placement.resources(device))
            assert placement.col + placement.width <= device.width
            assert placement.row + placement.height <= device.rows


@SETTINGS
@given(st.data())
def test_backtrack_solutions_are_sound(data):
    device = data.draw(devices())
    demands = data.draw(demand_sets(device))
    candidates = [candidate_placements(device, d, 100) for d in demands]
    result = solve_backtracking(device, candidates, node_limit=5000)
    if result.feasible:
        placements = result.placements
        assert len(placements) == len(demands)
        for i, a in enumerate(placements):
            assert demands[i].fits_in(a.resources(device))
            for b in placements[i + 1 :]:
                assert not a.overlaps(b)
        # A feasible set must pass the necessary counting condition.
        assert counting_precheck(device, demands)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_backtrack_and_milp_agree_when_proven(data):
    device = data.draw(devices())
    demands = data.draw(demand_sets(device))
    candidates = [candidate_placements(device, d, 60) for d in demands]
    bt = solve_backtracking(device, candidates, node_limit=20000)
    mr = solve_milp(device, candidates)
    if bt.proven and mr.proven:
        assert bt.feasible == mr.feasible


@SETTINGS
@given(st.data())
def test_floorplanner_facade_consistent_with_cache(data):
    device = data.draw(devices())
    demands = data.draw(demand_sets(device))
    planner = Floorplanner(device)
    first = planner.check(demands)
    second = planner.check(demands)  # cache hit
    assert first.feasible == second.feasible
    if second.placements is not None:
        placements = list(second.placements.values())
        for i, a in enumerate(placements):
            for b in placements[i + 1 :]:
                assert not a.overlaps(b)


@st.composite
def shrunk(draw, demands):
    """A component-wise-smaller, non-empty variant of each demand.

    Every component keeps the demand's support (empty demands are
    rejected by ``candidate_placements``) but may drop to 1.
    """
    out = []
    for demand in demands:
        out.append(
            ResourceVector(
                {
                    rtype: draw(st.integers(min_value=1, max_value=count))
                    for rtype, count in demand.items()
                }
            )
        )
    return out


@SETTINGS
@given(st.data())
def test_feasibility_monotone_under_shrinking(data):
    """Feasible stays feasible when every demand shrinks component-wise.

    Checked against the raw engine (no caches anywhere): a placement
    of the larger set is a placement of the smaller one.
    """
    device = data.draw(devices())
    demands = data.draw(demand_sets(device))
    cold = Floorplanner(device, cache=False, max_candidates=None)
    base = cold.check(demands)
    if not (base.feasible and base.proven):
        return
    smaller = data.draw(shrunk(demands))
    again = cold.check(smaller)
    assert again.feasible, (
        f"shrinking a feasible set must stay feasible: {demands} -> {smaller}"
    )


@SETTINGS
@given(st.data())
def test_warm_answer_matches_cold_solve(data):
    """A warm planner's answer agrees with an uncached solve.

    The warm planner is seeded with the base set, then asked about the
    base set in another order (an exact-key hit, so ``_rebind`` maps the
    cached placements onto the new region ids), a shrunk variant and
    the variant with one region dropped; a cold planner with
    ``cache=False`` and no budget limits is the ground truth.  Generous
    ``max_candidates`` keeps every cold verdict proven, so agreement is
    exact, not probabilistic.
    """
    device = data.draw(devices())
    demands = data.draw(demand_sets(device))
    warm = Floorplanner(device, max_candidates=None)
    cold = Floorplanner(device, cache=False, max_candidates=None)
    warm.check(demands)

    queries = [data.draw(st.permutations(demands)), data.draw(shrunk(demands))]
    if len(demands) > 1:
        queries.append(demands[:-1])
    for query in queries:
        fast = warm.check(query)
        truth = cold.check(query)
        assert fast.feasible == truth.feasible, (
            f"cache disagrees with cold solve on {query}: "
            f"{fast.feasible} ({fast.engine}) vs {truth.feasible}"
        )
        if fast.placements is not None:
            placements = list(fast.placements.values())
            assert len(placements) == len(query)
            for i, a in enumerate(placements):
                for b in placements[i + 1 :]:
                    assert not a.overlaps(b)
            # ids are positional R0..Rn for raw ResourceVector queries.
            for region_id, placement in fast.placements.items():
                index = int(region_id[1:])
                assert query[index].fits_in(placement.resources(device))


@SETTINGS
@given(st.data())
def test_superset_infeasibility_monotone(data):
    """If a demand set is proven infeasible, adding a region keeps it so."""
    device = data.draw(devices())
    demands = data.draw(demand_sets(device))
    candidates = [candidate_placements(device, d, 60) for d in demands]
    base = solve_backtracking(device, candidates, node_limit=5000)
    if not base.feasible and base.proven:
        extra = demands + [ResourceVector({"CLB": 1})]
        extra_cands = candidates + [
            candidate_placements(device, extra[-1], 60)
        ]
        again = solve_backtracking(device, extra_cands, node_limit=5000)
        assert not (again.feasible and again.proven and not base.feasible) or not again.feasible
