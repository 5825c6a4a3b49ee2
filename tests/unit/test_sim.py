"""Unit tests for the discrete-event schedule executor."""

import pytest

from repro.baselines import isk_schedule, list_schedule
from repro.benchgen import figure1_instance, paper_instance
from repro.core import PAOptions, do_schedule
from repro.sim import jitter_model, simulate


class TestExactReplay:
    """With unit jitter, the executor must reproduce planned times —
    the cross-validation of the scheduler's timing engine."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pa_plan_replays_exactly(self, seed):
        instance = paper_instance(25, seed=seed)
        schedule = do_schedule(instance)
        result = simulate(instance, schedule)
        assert result.makespan == pytest.approx(schedule.makespan)
        for task_id, planned in schedule.tasks.items():
            assert result.task_start[task_id] == pytest.approx(planned.start)
            assert result.task_end[task_id] == pytest.approx(planned.end)

    def test_isk_plan_replays_exactly(self):
        instance = paper_instance(25, seed=4)
        schedule = isk_schedule(instance, k=1).schedule
        result = simulate(instance, schedule)
        assert result.makespan == pytest.approx(schedule.makespan)
        for task_id, planned in schedule.tasks.items():
            assert result.task_start[task_id] == pytest.approx(planned.start)

    def test_list_plan_replays_exactly(self):
        instance = paper_instance(20, seed=5)
        schedule = list_schedule(instance).schedule
        result = simulate(instance, schedule)
        assert result.makespan == pytest.approx(schedule.makespan)

    def test_figure1_replay(self):
        instance = figure1_instance()
        schedule = do_schedule(instance)
        result = simulate(instance, schedule)
        assert result.makespan == pytest.approx(90.0)
        assert result.slippage == pytest.approx(0.0)

    def test_comm_extension_replay(self, dual_arch):
        from repro.model import Implementation, Instance, Task, TaskGraph

        graph = TaskGraph("c")
        graph.add_task(Task.of("a", [Implementation.sw("a_sw", 10.0)]))
        graph.add_task(Task.of("b", [Implementation.sw("b_sw", 10.0)]))
        graph.add_dependency("a", "b", comm=30.0)
        instance = Instance(architecture=dual_arch, taskgraph=graph)
        schedule = do_schedule(instance, PAOptions(communication_overhead=True))
        result = simulate(instance, schedule, communication_overhead=True)
        assert result.task_start["b"] == pytest.approx(40.0)


class TestPlanInstanceMismatch:
    """A schedule only replays on the instance it was made for."""

    @pytest.mark.parametrize("plan_tasks, run_tasks", [(8, 12), (12, 8)])
    def test_rejected(self, plan_tasks, run_tasks):
        schedule = do_schedule(paper_instance(plan_tasks, seed=1))
        with pytest.raises(ValueError, match="not made for this instance"):
            simulate(paper_instance(run_tasks, seed=2), schedule)


class TestJitter:
    def test_jitter_model_deterministic(self):
        model = jitter_model(factor=0.2, seed=1)
        assert model("t", 100.0) == model("t", 100.0)
        assert model("t", 100.0) != model("u", 100.0)

    def test_jitter_model_bounds(self):
        model = jitter_model(factor=0.2, seed=3)
        for name in ("a", "b", "c", "d"):
            value = model(name, 100.0)
            assert 80.0 <= value <= 120.0

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            jitter_model(factor=1.5)

    def test_overruns_propagate(self):
        instance = paper_instance(20, seed=6)
        schedule = do_schedule(instance)
        # Every task takes 50% longer: makespan grows by at least the
        # critical chain's inflation.
        result = simulate(instance, schedule, jitter={t: 1.5 for t in schedule.tasks})
        assert result.makespan > schedule.makespan
        assert result.slippage > 0.2

    def test_mapping_jitter(self):
        instance = paper_instance(15, seed=7)
        schedule = do_schedule(instance)
        some_task = next(iter(schedule.tasks))
        result = simulate(instance, schedule, jitter={some_task: 2.0})
        assert result.task_end[some_task] - result.task_start[some_task] == (
            pytest.approx(schedule.tasks[some_task].duration * 2.0)
        )

    def test_underruns_never_hurt(self):
        instance = paper_instance(20, seed=8)
        schedule = do_schedule(instance)
        result = simulate(instance, schedule, jitter={t: 0.8 for t in schedule.tasks})
        assert result.makespan <= schedule.makespan + 1e-6

    def test_dependencies_hold_under_jitter(self):
        instance = paper_instance(25, seed=9)
        schedule = do_schedule(instance)
        result = simulate(instance, schedule, jitter=jitter_model(0.3, seed=4))
        for src, dst in instance.taskgraph.edges():
            assert result.task_start[dst] >= result.task_end[src] - 1e-9

    def test_resource_exclusivity_under_jitter(self):
        instance = paper_instance(25, seed=10)
        schedule = do_schedule(instance)
        result = simulate(instance, schedule, jitter=jitter_model(0.3, seed=5))
        by_resource: dict[str, list] = {}
        for activity in result.activities:
            by_resource.setdefault(activity.resource, []).append(activity)
        for acts in by_resource.values():
            acts.sort(key=lambda a: a.start)
            for a, b in zip(acts, acts[1:]):
                assert b.start >= a.end - 1e-9


class TestResultShape:
    def test_timeline_sorted(self):
        instance = paper_instance(15, seed=11)
        schedule = do_schedule(instance)
        timeline = simulate(instance, schedule).timeline()
        starts = [a.start for a in timeline]
        assert starts == sorted(starts)

    def test_reconf_activities_present(self):
        instance = paper_instance(30, seed=12)
        schedule = do_schedule(instance)
        result = simulate(instance, schedule)
        reconfs = [a for a in result.activities if a.kind == "reconfiguration"]
        assert len(reconfs) == len(schedule.reconfigurations)
