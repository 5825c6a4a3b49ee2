"""Ablation — floorplanner engines (Section V-H cost).

Compares the greedy/DFS backtracking engine against the reference-[3]
MILP selection model (HiGHS) on region sets produced by actual PA runs,
plus the effect of the result cache that Algorithm 1 relies on.
"""

import pytest

from repro.benchgen import paper_instance
from repro.core import do_schedule
from repro.floorplan import Floorplanner, zynq_7z020


@pytest.fixture(scope="module")
def region_sets():
    sets = []
    for seed in (1, 2, 3):
        schedule = do_schedule(paper_instance(40, seed=seed))
        sets.append(list(schedule.regions.values()))
    return sets


def test_backtrack_engine(benchmark, region_sets):
    planner = Floorplanner(zynq_7z020(), engine="backtrack", cache=False)

    def run():
        return [planner.check(s).feasible for s in region_sets]

    verdicts = benchmark(run)
    benchmark.extra_info["feasible"] = sum(verdicts)
    benchmark.extra_info["sets"] = len(verdicts)


def test_milp_engine(benchmark, region_sets):
    planner = Floorplanner(zynq_7z020(), engine="milp", cache=False)

    def run():
        return [planner.check(s).feasible for s in region_sets]

    verdicts = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["feasible"] = sum(verdicts)


def test_engines_agree(region_sets):
    bt = Floorplanner(zynq_7z020(), engine="backtrack", cache=False)
    milp = Floorplanner(zynq_7z020(), engine="milp", cache=False)
    for regions in region_sets:
        a = bt.check(regions)
        b = milp.check(regions)
        if a.proven and b.proven:
            assert a.feasible == b.feasible


def test_cache_speedup(benchmark, region_sets):
    planner = Floorplanner(zynq_7z020(), engine="backtrack", cache=True)
    for s in region_sets:
        planner.check(s)  # warm the cache

    def run():
        return [planner.check(s).feasible for s in region_sets]

    benchmark(run)
    benchmark.extra_info["cache_hits"] = planner.stats["cache_hits"]
