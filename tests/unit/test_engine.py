"""Unit tests for the unified scheduler engine (repro.engine).

Two layers of guarantees:

* registry dispatch — every algorithm name resolves to its backend
  (including the parameterized ``is-<k>`` family), unknown names and
  bad options raise :class:`EngineError`;
* legacy equivalence — an engine run is **bit-identical** to calling
  the legacy entry point directly, for all five backends.
"""

import pytest

from repro.baselines import (
    ISKOptions,
    ISKScheduler,
    exhaustive_schedule,
    list_schedule,
)
from repro.benchgen import paper_instance
from repro.core import PAOptions, pa_r_schedule_parallel, pa_schedule
from repro.engine import (
    EngineError,
    ExhaustiveBackend,
    ISKBackend,
    ListBackend,
    PABackend,
    PARBackend,
    ScheduleOutcome,
    ScheduleRequest,
    get_backend,
    list_backends,
    pa_options_dict,
    register_backend,
)
from repro.floorplan import Floorplanner


@pytest.fixture(scope="module")
def instance():
    return paper_instance(tasks=10, seed=11)


@pytest.fixture(scope="module")
def tiny_instance():
    return paper_instance(tasks=6, seed=5)


class TestRegistry:
    def test_all_five_backends_registered(self):
        assert set(list_backends()) >= {"pa", "pa-r", "is-<k>", "list", "exhaustive"}

    @pytest.mark.parametrize(
        "algorithm,cls",
        [
            ("pa", PABackend),
            ("pa-r", PARBackend),
            ("is-1", ISKBackend),
            ("is-5", ISKBackend),
            ("is-17", ISKBackend),
            ("list", ListBackend),
            ("exhaustive", ExhaustiveBackend),
        ],
    )
    def test_dispatch(self, algorithm, cls):
        assert isinstance(get_backend(algorithm), cls)

    def test_isk_parameterization(self):
        assert get_backend("is-3").k == 3
        assert get_backend("is-12").k == 12

    @pytest.mark.parametrize("bogus", ["magic", "is-0", "is-", "IS-1", "pa_r", ""])
    def test_unknown_algorithm(self, bogus):
        with pytest.raises(EngineError, match="unknown algorithm"):
            get_backend(bogus)

    def test_duplicate_name_rejected(self):
        with pytest.raises(EngineError, match="already registered"):

            @register_backend
            class Dup(PABackend):
                name = "pa"

    def test_unknown_option_rejected(self, instance):
        for algorithm, opts in [
            ("pa", {"bogus_knob": 1}),
            ("pa", {"timing": "scalar"}),
            ("is-1", {"floorplan": True}),
            ("list", {"node_limit": 5}),
            ("exhaustive", {"branch_cap": 5}),
        ]:
            with pytest.raises(EngineError, match="unknown option"):
                get_backend(algorithm).run(
                    ScheduleRequest(instance, algorithm, options=opts)
                )

    def test_pa_r_requires_budget_or_iterations(self, instance):
        with pytest.raises(EngineError, match="budget"):
            get_backend("pa-r").run(ScheduleRequest(instance, "pa-r"))


class TestLegacyEquivalence:
    """Engine outcomes are bit-identical to direct legacy calls."""

    def test_pa(self, instance):
        legacy = pa_schedule(
            instance,
            PAOptions(),
            floorplanner=Floorplanner.for_architecture(instance.architecture),
        )
        outcome = get_backend("pa").run(ScheduleRequest(instance, "pa"))
        assert outcome.schedule.to_dict() == legacy.schedule.to_dict()
        assert outcome.feasible == legacy.feasible
        assert outcome.makespan == legacy.schedule.makespan

    def test_pa_no_floorplan(self, instance):
        legacy = pa_schedule(instance, PAOptions(), floorplanner=None)
        outcome = get_backend("pa").run(
            ScheduleRequest(instance, "pa", options={"floorplan": False})
        )
        assert outcome.schedule.to_dict() == legacy.schedule.to_dict()
        assert outcome.floorplan is None

    def test_pa_r_iteration_capped(self, instance):
        legacy = pa_r_schedule_parallel(
            instance,
            iterations=6,
            seed=3,
            floorplanner=Floorplanner.for_architecture(instance.architecture),
            jobs=1,
        )
        outcome = get_backend("pa-r").run(
            ScheduleRequest(
                instance, "pa-r", options={"iterations": 6, "jobs": 1}, seed=3
            )
        )
        assert outcome.schedule.to_dict() == legacy.schedule.to_dict()
        assert outcome.iterations == legacy.iterations
        # History timestamps are wall-clock (not comparable between two
        # runs); the best-so-far makespan trajectory is deterministic.
        assert [m for _, m in outcome.metadata["history"]] == [
            m for _, m in legacy.history
        ]

    @pytest.mark.parametrize("k", [1, 5])
    def test_isk(self, instance, k):
        legacy = ISKScheduler(ISKOptions(k=k, node_limit=4000)).schedule(instance)
        outcome = get_backend(f"is-{k}").run(
            ScheduleRequest(instance, f"is-{k}", options={"node_limit": 4000})
        )
        assert outcome.schedule.to_dict() == legacy.schedule.to_dict()
        assert outcome.metadata["nodes"] == legacy.nodes
        assert outcome.total_time > 0.0

    def test_list(self, instance):
        legacy = list_schedule(instance)
        outcome = get_backend("list").run(ScheduleRequest(instance, "list"))
        assert outcome.schedule.to_dict() == legacy.schedule.to_dict()
        assert outcome.backend == "list"

    def test_exhaustive(self, tiny_instance):
        legacy = exhaustive_schedule(tiny_instance, node_limit=500_000)
        outcome = get_backend("exhaustive").run(
            ScheduleRequest(tiny_instance, "exhaustive")
        )
        assert outcome.schedule.to_dict() == legacy.schedule.to_dict()
        assert outcome.metadata["nodes"] == legacy.nodes


class TestExhaustiveGuard:
    def test_over_limit_raises(self):
        big = paper_instance(tasks=14, seed=1)
        with pytest.raises(EngineError, match="task limit"):
            get_backend("exhaustive").run(ScheduleRequest(big, "exhaustive"))

    def test_limit_is_overridable(self):
        # 7 tasks against a limit of 5: must refuse, then accept at 7.
        inst = paper_instance(tasks=7, seed=1)
        with pytest.raises(EngineError, match="task limit"):
            get_backend("exhaustive").run(
                ScheduleRequest(inst, "exhaustive", options={"task_limit": 5})
            )
        outcome = get_backend("exhaustive").run(
            ScheduleRequest(inst, "exhaustive", options={"task_limit": 7})
        )
        assert outcome.feasible


class TestRequestHashing:
    def test_cache_key_stable_across_construction(self, instance):
        a = ScheduleRequest(instance, "pa", options={"floorplan": True})
        b = ScheduleRequest(
            paper_instance(tasks=10, seed=11),
            "pa",
            options={"floorplan": True},
        )
        assert a.cache_key() == b.cache_key()

    def test_cache_key_varies(self, instance):
        base = ScheduleRequest(instance, "pa")
        assert base.cache_key() != ScheduleRequest(instance, "list").cache_key()
        assert (
            base.cache_key()
            != ScheduleRequest(instance, "pa", seed=1).cache_key()
        )
        assert (
            base.cache_key()
            != ScheduleRequest(
                instance, "pa", options={"floorplan": False}
            ).cache_key()
        )

    def test_non_json_options_rejected(self, instance):
        request = ScheduleRequest(instance, "pa", options={"bad": object()})
        with pytest.raises(TypeError):
            request.cache_key()

    def test_default_pa_options_hash_like_empty(self, instance):
        assert pa_options_dict(PAOptions()) == {}
        assert pa_options_dict(None) == {}
        explicit = ScheduleRequest(
            instance, "pa", options=pa_options_dict(PAOptions())
        )
        assert explicit.cache_key() == ScheduleRequest(instance, "pa").cache_key()


class TestProvenanceVersion:
    """The search-engine overhaul bumped the is-<k>/exhaustive backend
    provenance, so PR-4 store entries carrying version-1 metadata are
    addressed under a different key and never replayed as current."""

    def test_version_marker_in_isk_payload(self, instance):
        payload = ScheduleRequest(instance, "is-5").key_payload()
        assert payload["engine_version"] == 2
        assert ScheduleRequest(instance, "exhaustive").key_payload()[
            "engine_version"
        ] == 2

    def test_version_1_backends_emit_no_marker(self, instance):
        # pa/pa-r/list keys must be byte-identical to the PR-4 shape,
        # or every existing store entry would go cold.
        for algorithm in ("pa", "pa-r", "list"):
            payload = ScheduleRequest(instance, algorithm).key_payload()
            assert "engine_version" not in payload

    def test_unknown_algorithm_still_hashable(self, instance):
        # key_payload must not explode just because no backend matches.
        payload = ScheduleRequest(instance, "no-such-algo").key_payload()
        assert "engine_version" not in payload

    def test_isk_key_differs_from_version_1_shape(self, instance):
        request = ScheduleRequest(instance, "is-5")
        payload = request.key_payload()
        legacy = {k: v for k, v in payload.items() if k != "engine_version"}
        from repro.engine.backend import content_hash

        assert content_hash(legacy) != request.cache_key()


class TestOutcomeRoundTrip:
    def test_to_from_dict_identity(self, instance):
        outcome = get_backend("pa").run(ScheduleRequest(instance, "pa"))
        clone = ScheduleOutcome.from_dict(outcome.to_dict())
        assert clone.to_dict() == outcome.to_dict()
        assert clone.schedule.makespan == outcome.schedule.makespan
        assert clone.total_time == outcome.total_time
