"""Unit tests for the PA pipeline and feasibility loop (Section V)."""

import pytest

from repro.core import PAOptions, PAResult, do_schedule, pa_schedule
from repro.model import RegionPlacement
from repro.validate import check_schedule


class StubFloorplanner:
    """Programmable oracle for testing the Section V-H loop."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)
        self.calls = 0

    def check(self, regions):
        verdict = self.verdicts[min(self.calls, len(self.verdicts) - 1)]
        self.calls += 1

        class R:
            feasible = verdict

        return R()


class TestDoSchedule:
    def test_chain_schedule_valid(self, chain_instance):
        schedule = do_schedule(chain_instance)
        check_schedule(chain_instance, schedule).raise_if_invalid()
        assert schedule.scheduler == "PA"
        assert schedule.makespan == pytest.approx(30.0)

    def test_diamond_schedule_valid(self, diamond_instance):
        schedule = do_schedule(diamond_instance)
        check_schedule(diamond_instance, schedule).raise_if_invalid()

    def test_medium_schedule_valid(self, medium_instance):
        schedule = do_schedule(medium_instance)
        check_schedule(medium_instance, schedule).raise_if_invalid()

    def test_deterministic(self, medium_instance):
        a = do_schedule(medium_instance)
        b = do_schedule(medium_instance)
        assert a.makespan == b.makespan
        assert {t.task_id: t.start for t in a.tasks.values()} == {
            t.task_id: t.start for t in b.tasks.values()
        }

    def test_metadata_populated(self, chain_instance):
        schedule = do_schedule(chain_instance)
        assert schedule.metadata["ordering"] == "efficiency"
        assert "regions" in schedule.metadata

    def test_empty_regions_dropped(self, medium_instance):
        schedule = do_schedule(medium_instance)
        hosted = {
            t.placement.region_id
            for t in schedule.tasks.values()
            if isinstance(t.placement, RegionPlacement)
        }
        assert set(schedule.regions) == hosted

    def test_makespan_at_least_cpm_bound(self, medium_instance):
        # The makespan can never beat the unlimited-resource CPM with
        # per-task fastest implementations.
        from repro.core.timing import PrecedenceGraph

        graph = medium_instance.taskgraph
        pg = PrecedenceGraph(graph.task_ids)
        for src, dst in graph.edges():
            pg.add_edge(src, dst)
        exe = {t.id: t.fastest().time for t in graph}
        bound = pg.compute_windows(exe).makespan
        assert do_schedule(medium_instance).makespan >= bound - 1e-6


class TestFeasibilityLoop:
    def test_no_floorplanner_is_feasible(self, chain_instance):
        result = pa_schedule(chain_instance)
        assert isinstance(result, PAResult)
        assert result.feasible
        assert result.floorplanning_time == 0.0
        assert result.shrink_iterations == 0

    def test_accepts_first_feasible(self, chain_instance):
        planner = StubFloorplanner([True])
        result = pa_schedule(chain_instance, floorplanner=planner)
        assert result.feasible and planner.calls == 1

    def test_shrinks_until_feasible(self, medium_instance):
        planner = StubFloorplanner([False, False, True])
        result = pa_schedule(medium_instance, floorplanner=planner)
        assert result.feasible
        assert result.shrink_iterations == 2
        assert planner.calls == 3
        check_schedule(medium_instance, result.schedule).raise_if_invalid()

    def test_shrinking_respects_capacity(self, medium_instance):
        planner = StubFloorplanner([False, False, True])
        result = pa_schedule(
            medium_instance,
            PAOptions(shrink_factor=0.5),
            floorplanner=planner,
        )
        total = result.schedule.total_region_resources()
        quarter = medium_instance.architecture.max_res.scaled(0.25)
        assert total.fits_in(quarter)

    def test_gives_up_after_max_iterations(self, chain_instance):
        planner = StubFloorplanner([False])
        options = PAOptions(max_shrink_iterations=3)
        result = pa_schedule(chain_instance, options, floorplanner=planner)
        assert not result.feasible
        assert planner.calls == 3
        # Still returns the last schedule (callers may inspect it).
        assert result.schedule is not None

    def test_times_accounted(self, medium_instance):
        planner = StubFloorplanner([True])
        result = pa_schedule(medium_instance, floorplanner=planner)
        assert result.scheduling_time > 0.0
        assert result.total_time >= result.scheduling_time


class TestInsertionOrderIndependence:
    """A generator object and its JSON round trip share one cache key,
    so PA and PA-R must give them the same schedule."""

    @staticmethod
    def _schedule_form(schedule) -> dict:
        data = schedule.to_dict()
        data.pop("metadata", None)
        return data

    @pytest.mark.parametrize(
        "algorithm,options",
        [("pa", {}), ("pa-r", {"iterations": 20})],
    )
    @pytest.mark.parametrize("tasks", [20, 30])
    def test_json_round_trip_gives_same_schedule(self, algorithm, options, tasks):
        from repro.benchgen import paper_instance
        from repro.engine import ScheduleRequest, get_backend
        from repro.model import Instance

        generated = paper_instance(tasks, seed=1)
        round_trip = Instance.from_dict(generated.to_dict())
        assert generated.taskgraph.task_ids != round_trip.taskgraph.task_ids
        backend = get_backend(algorithm)
        a = backend.run(ScheduleRequest(generated, algorithm, options=options, seed=0))
        b = backend.run(ScheduleRequest(round_trip, algorithm, options=options, seed=0))
        assert a.makespan == b.makespan
        assert self._schedule_form(a.schedule) == self._schedule_form(b.schedule)
