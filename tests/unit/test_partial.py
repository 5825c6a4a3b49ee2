"""Unit tests for the constructive partial schedule (baselines substrate)."""

import pytest

from repro.baselines import PartialSchedule
from repro.model import Implementation, Instance, ResourceVector, Task, TaskGraph


def hw(name, time, clb):
    return Implementation.hw(name, time, {"CLB": clb})


def sw(name, time):
    return Implementation.sw(name, time)


@pytest.fixture
def instance(dual_arch):
    graph = TaskGraph("p")
    graph.add_task(Task.of("a", [hw("mA", 10.0, 100), sw("a_sw", 50.0)]))
    graph.add_task(Task.of("b", [hw("mB", 10.0, 100), sw("b_sw", 50.0)]))
    graph.add_task(Task.of("c", [hw("mA", 10.0, 100), sw("c_sw", 50.0)]))
    graph.add_dependency("a", "b")
    graph.add_dependency("b", "c")
    return Instance(architecture=dual_arch, taskgraph=graph)


class TestPlacementOps:
    def test_sw_serializes_on_core(self, instance):
        ps = PartialSchedule(instance)
        ps.place_sw("a", instance.taskgraph.task("a").fastest_sw(), 0)
        assert ps.end["a"] == 50.0
        assert ps.proc_free[0] == 50.0

    def test_sw_waits_for_predecessors(self, instance):
        ps = PartialSchedule(instance)
        ps.place_sw("a", instance.taskgraph.task("a").fastest_sw(), 0)
        ps.place_sw("b", instance.taskgraph.task("b").fastest_sw(), 1)
        assert ps.start["b"] == 50.0  # data-ready, not core-ready

    def test_unscheduled_predecessor_rejected(self, instance):
        ps = PartialSchedule(instance)
        with pytest.raises(ValueError):
            ps.ready_time("b")

    def test_hw_first_task_no_reconf(self, instance):
        ps = PartialSchedule(instance)
        region = ps.create_region(ResourceVector({"CLB": 100}))
        ps.place_hw("a", instance.taskgraph.task("a").implementation("mA"), region.id)
        assert ps.reconfigurations == []
        assert ps.end["a"] == 10.0

    def test_hw_reuse_inserts_reconf(self, instance):
        ps = PartialSchedule(instance)
        region = ps.create_region(ResourceVector({"CLB": 100}))
        ps.place_hw("a", instance.taskgraph.task("a").implementation("mA"), region.id)
        ps.place_hw("b", instance.taskgraph.task("b").implementation("mB"), region.id)
        assert len(ps.reconfigurations) == 1
        rc = ps.reconfigurations[0]
        # reconf = 100 CLB * 100 bits / 1000 bits-per-us = 10 us.
        assert rc.duration == pytest.approx(10.0)
        assert rc.start >= ps.end["a"] - 1e-9
        assert ps.start["b"] >= rc.end - 1e-9

    def test_module_reuse_skips_reconf(self, instance):
        ps = PartialSchedule(instance)
        region = ps.create_region(ResourceVector({"CLB": 100}))
        ps.place_hw("a", instance.taskgraph.task("a").implementation("mA"), region.id)
        ps.place_sw("b", instance.taskgraph.task("b").fastest_sw(), 0)
        ps.place_hw("c", instance.taskgraph.task("c").implementation("mA"), region.id)
        assert ps.reconfigurations == []  # same module loaded

    def test_module_reuse_disabled(self, instance):
        ps = PartialSchedule(instance, enable_module_reuse=False)
        region = ps.create_region(ResourceVector({"CLB": 100}))
        ps.place_hw("a", instance.taskgraph.task("a").implementation("mA"), region.id)
        ps.place_sw("b", instance.taskgraph.task("b").fastest_sw(), 0)
        ps.place_hw("c", instance.taskgraph.task("c").implementation("mA"), region.id)
        assert len(ps.reconfigurations) == 1

    def test_region_capacity_enforced(self, instance):
        ps = PartialSchedule(instance)
        region = ps.create_region(ResourceVector({"CLB": 100}))
        small = Implementation.hw("big", 1.0, {"CLB": 200})
        with pytest.raises(ValueError):
            ps.place_hw("a", small, region.id)

    def test_region_quantization(self, instance):
        ps = PartialSchedule(instance)
        # dual_arch has no quantum -> exact size.
        region = ps.create_region(ResourceVector({"CLB": 77}))
        assert region.resources["CLB"] == 77

    def test_fabric_capacity_enforced(self, instance):
        ps = PartialSchedule(instance)
        ps.create_region(ResourceVector({"CLB": 900}))
        assert not ps.can_create_region(ResourceVector({"CLB": 200}))
        with pytest.raises(ValueError):
            ps.create_region(ResourceVector({"CLB": 200}))


class TestControllerTimeline:
    def test_gap_insertion(self, instance):
        ps = PartialSchedule(instance)
        ps._reserve_controller(0, 0.0, 10.0)
        ps._reserve_controller(0, 30.0, 40.0)
        # A 5 us job fits the [10, 30) gap.
        assert ps._controller_slot(5.0, 5.0) == (0, 10.0)
        # A 25 us job does not; it goes after the last interval.
        assert ps._controller_slot(5.0, 25.0) == (0, 40.0)

    def test_earliest_bound_respected(self, instance):
        ps = PartialSchedule(instance)
        assert ps._controller_slot(12.0, 5.0) == (0, 12.0)

    def test_second_controller_absorbs_contention(self, instance):
        from repro.model import Architecture, Instance

        arch = instance.architecture
        multi = Architecture(
            name=arch.name, processors=arch.processors,
            max_res=arch.max_res, bit_per_resource=arch.bit_per_resource,
            rec_freq=arch.rec_freq, reconfigurators=2,
        )
        ps = PartialSchedule(Instance(architecture=multi, taskgraph=instance.taskgraph))
        ps._reserve_controller(0, 0.0, 100.0)
        # Controller 1 is idle: the slot search must pick it.
        assert ps._controller_slot(0.0, 10.0) == (1, 0.0)


class TestExportAndCopy:
    def test_copy_is_deep_enough(self, instance):
        ps = PartialSchedule(instance)
        region = ps.create_region(ResourceVector({"CLB": 100}))
        ps.place_hw("a", instance.taskgraph.task("a").implementation("mA"), region.id)
        fork = ps.copy()
        fork.place_sw("b", instance.taskgraph.task("b").fastest_sw(), 0)
        assert "b" not in ps.end
        assert fork.regions[region.id].sequence == ps.regions[region.id].sequence

    def test_to_schedule_requires_completion(self, instance):
        ps = PartialSchedule(instance)
        with pytest.raises(ValueError):
            ps.to_schedule("X")

    def test_to_schedule_roundtrip(self, instance):
        ps = PartialSchedule(instance)
        region = ps.create_region(ResourceVector({"CLB": 100}))
        graph = instance.taskgraph
        ps.place_hw("a", graph.task("a").implementation("mA"), region.id)
        ps.place_hw("b", graph.task("b").implementation("mB"), region.id)
        ps.place_sw("c", graph.task("c").fastest_sw(), 0)
        schedule = ps.to_schedule("X")
        assert schedule.scheduler == "X"
        assert schedule.makespan == ps.makespan
        from repro.validate import check_schedule

        check_schedule(instance, schedule, allow_module_reuse=True).raise_if_invalid()

    def test_completion_lower_bound(self, instance):
        ps = PartialSchedule(instance)
        topo = instance.taskgraph.topological_order()
        min_exe = {t.id: t.fastest().time for t in instance.taskgraph}
        # Nothing scheduled: bound = chain of fastest times = 30.
        assert ps.completion_lower_bound(min_exe, topo) == pytest.approx(30.0)
        ps.place_sw("a", instance.taskgraph.task("a").fastest_sw(), 0)
        # a committed to end at 50: bound = 50 + 10 + 10.
        assert ps.completion_lower_bound(min_exe, topo) == pytest.approx(70.0)


def fingerprint(ps: PartialSchedule) -> tuple:
    """Every observable the placement ops mutate, as comparable values."""
    return (
        dict(ps.impl),
        dict(ps.placement),
        dict(ps.start),
        dict(ps.end),
        list(ps.proc_free),
        [list(s) for s in ps.proc_sequence],
        [list(c) for c in ps.controllers],
        list(ps.reconfigurations),
        {
            rid: (r.resources, r.free_time, r.loaded, list(r.sequence))
            for rid, r in ps.regions.items()
        },
        ps.used,
        ps._region_counter,
        ps.end_sum,
        ps.makespan,
    )


class TestUndoTrail:
    def test_undo_sw_placement(self, instance):
        ps = PartialSchedule(instance)
        before = fingerprint(ps)
        mark = ps.trail_mark()
        ps.place_sw("a", instance.taskgraph.task("a").fastest_sw(), 0)
        assert ps.trail_depth() == 1
        ps.undo_to(mark)
        assert fingerprint(ps) == before

    def test_undo_hw_with_reconf_and_region(self, instance):
        graph = instance.taskgraph
        ps = PartialSchedule(instance)
        region = ps.create_region(ResourceVector({"CLB": 100}))
        ps.place_hw("a", graph.task("a").implementation("mA"), region.id)
        before = fingerprint(ps)
        mark = ps.trail_mark()
        # Reconf into the existing region + a brand-new region for c.
        ps.place_hw("b", graph.task("b").implementation("mB"), region.id)
        fresh = ps.create_region(ResourceVector({"CLB": 100}))
        ps.place_hw("c", graph.task("c").implementation("mA"), fresh.id)
        assert len(ps.reconfigurations) >= 1
        ps.undo_to(mark)
        assert fingerprint(ps) == before

    def test_nested_marks_rewind_independently(self, instance):
        graph = instance.taskgraph
        ps = PartialSchedule(instance)
        m0 = ps.trail_mark()
        ps.place_sw("a", graph.task("a").fastest_sw(), 0)
        after_a = fingerprint(ps)
        m1 = ps.trail_mark()
        ps.place_sw("b", graph.task("b").fastest_sw(), 1)
        ps.place_sw("c", graph.task("c").fastest_sw(), 0)
        ps.undo_to(m1)
        assert fingerprint(ps) == after_a
        ps.undo_to(m0)
        assert "a" not in ps.end and ps.end_sum == 0.0

    def test_undo_restores_recorded_floats_exactly(self, instance):
        # Bit-identity requirement: undo restores the *recorded* values,
        # so repeated apply/undo cycles can never drift.
        graph = instance.taskgraph
        ps = PartialSchedule(instance)
        ps.place_sw("a", graph.task("a").fastest_sw(), 0)
        end_sum, makespan = ps.end_sum, ps.makespan
        mark = ps.trail_mark()
        for _ in range(50):
            ps.place_sw("b", graph.task("b").fastest_sw(), 0)
            ps.undo_to(mark)
        assert ps.end_sum == end_sum and ps.makespan == makespan

    def test_copy_does_not_inherit_trail(self, instance):
        ps = PartialSchedule(instance)
        ps.trail_mark()
        ps.place_sw("a", instance.taskgraph.task("a").fastest_sw(), 0)
        fork = ps.copy()
        assert fork.trail_depth() == 0
        fork.place_sw("b", instance.taskgraph.task("b").fastest_sw(), 0)
        assert ps.trail_depth() == 1  # fork's ops never touch our log

    def test_trail_clear_commits(self, instance):
        ps = PartialSchedule(instance)
        mark = ps.trail_mark()
        ps.place_sw("a", instance.taskgraph.task("a").fastest_sw(), 0)
        ps.trail_clear()
        assert ps.trail_depth() == 0
        with pytest.raises(ValueError):
            ps.undo_to(mark)
        assert ps.end["a"] == 50.0  # the placement survived the clear

    def test_incremental_objective_matches_recompute(self, instance):
        graph = instance.taskgraph
        ps = PartialSchedule(instance)
        region = ps.create_region(ResourceVector({"CLB": 100}))
        ps.place_hw("a", graph.task("a").implementation("mA"), region.id)
        ps.place_hw("b", graph.task("b").implementation("mB"), region.id)
        ps.place_sw("c", graph.task("c").fastest_sw(), 0)
        assert ps.end_sum == sum(ps.end.values())
        explicit = max(ps.end.values())
        for intervals in ps.controllers:
            for _, end in intervals:
                explicit = max(explicit, end)
        assert ps.makespan == explicit
