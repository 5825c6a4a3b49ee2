"""Unit tests for the floorplan engines (counting / greedy / DFS / MILP)."""

import pytest

from repro.floorplan import backtrack
from repro.floorplan import (
    Floorplanner,
    candidate_placements,
    counting_precheck,
    greedy_pack,
    small_device,
    solve_backtracking,
    solve_milp,
    zynq_7z020,
)
from repro.model import Region, ResourceVector

from .test_floorplan_golden import case


@pytest.fixture
def device():
    return small_device(rows=2, clb=6, bram=1, dsp=1)  # 8 cols x 2 rows


def cands(device, demands, cap=200):
    return [candidate_placements(device, d, cap) for d in demands]


class TestCountingPrecheck:
    def test_fitting_set_passes(self, device):
        demands = [ResourceVector({"CLB": 200}), ResourceVector({"DSP": 10})]
        assert counting_precheck(device, demands)

    def test_too_many_special_regions_rejected(self, device):
        # 2 BRAM cells exist (1 column x 2 rows); 3 BRAM regions cannot fit.
        demands = [ResourceVector({"BRAM": 1}) for _ in range(3)]
        assert not counting_precheck(device, demands)

    def test_unknown_type_rejected(self, device):
        assert not counting_precheck(device, [ResourceVector({"URAM": 1})])

    def test_quantized_counting(self, device):
        # A 25-DSP demand needs 2 DSP cells; 2 cells exist in total,
        # so two such regions are impossible.
        assert counting_precheck(device, [ResourceVector({"DSP": 25})])
        assert not counting_precheck(
            device, [ResourceVector({"DSP": 25}), ResourceVector({"DSP": 25})]
        )


class TestGreedy:
    def test_empty_set(self, device):
        assert greedy_pack(device, []) == []

    def test_simple_pack(self, device):
        demands = [ResourceVector({"CLB": 200}) for _ in range(3)]
        placements = greedy_pack(device, cands(device, demands))
        assert placements is not None
        for i, a in enumerate(placements):
            for b in placements[i + 1 :]:
                assert not a.overlaps(b)

    def test_unpackable_returns_none(self, device):
        demands = [ResourceVector({"CLB": 700}) for _ in range(2)]
        assert greedy_pack(device, cands(device, demands)) is None


class TestBacktracking:
    def test_feasible_pack(self, device):
        demands = [
            ResourceVector({"CLB": 200, "DSP": 5}),
            ResourceVector({"CLB": 300}),
            ResourceVector({"BRAM": 10}),
        ]
        result = solve_backtracking(device, cands(device, demands))
        assert result.feasible and result.proven
        for i, a in enumerate(result.placements):
            for b in result.placements[i + 1 :]:
                assert not a.overlaps(b)
        # Input order preserved.
        assert demands[0].fits_in(result.placements[0].resources(device))

    def test_proven_infeasible(self, device):
        # Two regions each needing more than half the fabric.
        demands = [ResourceVector({"CLB": 700}), ResourceVector({"CLB": 700})]
        result = solve_backtracking(device, cands(device, demands))
        assert not result.feasible and result.proven

    def test_region_without_placement(self, device):
        demands = [ResourceVector({"CLB": 100_000})]
        result = solve_backtracking(device, cands(device, demands))
        assert not result.feasible and result.proven
        assert result.stats["reason"] == "region-without-placements"

    def test_empty_input(self, device):
        result = solve_backtracking(device, [])
        assert result.feasible and result.placements == []

    def test_budget_degrades_gracefully(self):
        device = zynq_7z020()
        demands = [ResourceVector({"CLB": 400}) for _ in range(20)]
        result = solve_backtracking(device, cands(device, demands), node_limit=1)
        # Greedy fast-path may still solve it; if not, it must be
        # reported as unproven.
        assert result.feasible or not result.proven

    def test_verdict_ignores_the_clock(self, monkeypatch):
        """A clock running 100x fast leaves a DFS-proven verdict as pinned."""
        device, demands = case("12-3-a")
        candidates = cands(device, demands, 400)
        real = backtrack._time.perf_counter
        origin = real()
        monkeypatch.setattr(
            backtrack._time, "perf_counter", lambda: origin + 100 * (real() - origin)
        )
        result = solve_backtracking(device, candidates)
        assert (result.feasible, result.proven, result.nodes) == (False, True, 7842)
        assert result.stats["reason"] == "exhaustive"


class TestMilp:
    def test_feasible_selection(self, device):
        demands = [
            ResourceVector({"CLB": 200}),
            ResourceVector({"CLB": 300, "DSP": 10}),
        ]
        result = solve_milp(device, cands(device, demands))
        assert result.feasible and result.proven
        for i, a in enumerate(result.placements):
            for b in result.placements[i + 1 :]:
                assert not a.overlaps(b)

    def test_infeasible_proven(self, device):
        demands = [ResourceVector({"CLB": 700}), ResourceVector({"CLB": 700})]
        result = solve_milp(device, cands(device, demands))
        assert not result.feasible and result.proven

    def test_empty(self, device):
        assert solve_milp(device, []).feasible


class TestFloorplanner:
    def test_region_objects_accepted(self, device):
        planner = Floorplanner(device)
        regions = [Region(id="A", resources=ResourceVector({"CLB": 200}))]
        result = planner.check(regions)
        assert result.feasible
        assert "A" in result.placements

    def test_capacity_shortcut(self, device):
        planner = Floorplanner(device)
        result = planner.check([ResourceVector({"CLB": 10_000})])
        assert not result.feasible and result.engine == "capacity"

    def test_counting_shortcut(self, device):
        planner = Floorplanner(device)
        result = planner.check([ResourceVector({"BRAM": 1}) for _ in range(3)])
        assert not result.feasible and result.engine == "counting"

    def test_cache_hit(self, device):
        planner = Floorplanner(device)
        demands = [ResourceVector({"CLB": 200}), ResourceVector({"CLB": 300})]
        first = planner.check(demands)
        second = planner.check(list(reversed(demands)))  # same multiset
        assert planner.stats["cache_hits"] == 1
        assert second.feasible == first.feasible
        assert second.engine.endswith("+cache")
        # Rebinding maps each demand onto a sufficient placement.
        for rid, demand in zip(["R0", "R1"], reversed(demands)):
            assert demand.fits_in(second.placements[rid].resources(device))

    def test_cache_disabled(self, device):
        planner = Floorplanner(device, cache=False)
        demands = [ResourceVector({"CLB": 200})]
        planner.check(demands)
        planner.check(demands)
        assert planner.stats["cache_hits"] == 0

    def test_engine_milp(self, device):
        planner = Floorplanner(device, engine="milp")
        result = planner.check([ResourceVector({"CLB": 200})])
        assert result.feasible and result.engine == "milp"

    def test_budget_stop_is_counted(self):
        device, demands = case("24-12-b")
        planner = Floorplanner(device)
        result = planner.check(demands)
        assert not result.feasible and not result.proven
        assert result.stats["reason"] == "budget"
        assert planner.stats["dfs_nodes"] == 50_001
        assert planner.stats["budget_exhausted"] == 1
        # A cache hit does no engine work and decides nothing new.
        planner.check(demands)
        assert planner.stats["cache_hits"] == 1
        assert planner.stats["dfs_nodes"] == 50_001
        assert planner.stats["budget_exhausted"] == 1

    def test_proven_verdict_is_not_a_budget_stop(self):
        device, demands = case("16-28-a")
        planner = Floorplanner(device)
        assert planner.check(demands).feasible
        assert planner.stats["dfs_nodes"] == 3387
        assert planner.stats["budget_exhausted"] == 0

    def test_unknown_engine(self, device):
        with pytest.raises(ValueError):
            Floorplanner(device, engine="quantum")

    def test_for_architecture_zynq(self):
        from repro.benchgen import zedboard_architecture

        planner = Floorplanner.for_architecture(zedboard_architecture())
        assert planner.device.name == "zynq7z020-model"

    def test_for_architecture_synthetic(self, dual_arch):
        planner = Floorplanner.for_architecture(dual_arch)
        total = planner.device.total_resources()
        assert dual_arch.max_res.fits_in(total)

    def test_bool_protocol(self, device):
        planner = Floorplanner(device)
        assert bool(planner.check([ResourceVector({"CLB": 100})]))
        assert not bool(planner.check([ResourceVector({"CLB": 10_000})]))
