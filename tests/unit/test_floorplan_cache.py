"""Unit tests for the floorplanner's exact-key cache and its counters."""

from repro.benchgen import paper_instance
from repro.floorplan import Floorplanner, small_device
from repro.model import ResourceVector


def _demands(*specs):
    return [ResourceVector(spec) for spec in specs]


class TestExactKeyCache:
    def test_exact_key_hit(self):
        device = small_device(rows=2, clb=8, bram=2, dsp=2)
        planner = Floorplanner(device)
        first = planner.check(_demands({"CLB": 4}))
        again = planner.check(_demands({"CLB": 4}))
        assert planner.stats["cache_hits"] == 1
        assert again.feasible == first.feasible
        assert again.engine == first.engine + "+cache"


class TestStatsAndElapsed:
    def test_elapsed_set_on_every_path(self):
        device = small_device(rows=2, clb=8, bram=2, dsp=2)
        planner = Floorplanner(device)
        solved = planner.check(_demands({"CLB": 4}))
        assert solved.elapsed > 0.0
        cached = planner.check(_demands({"CLB": 4}))
        assert cached.elapsed > 0.0
        capacity = planner.check(_demands({"CLB": 10_000}))
        assert capacity.engine == "capacity" and capacity.elapsed > 0.0

    def test_query_time_accumulates(self):
        device = small_device(rows=2, clb=8, bram=2, dsp=2)
        planner = Floorplanner(device)
        planner.check(_demands({"CLB": 4}))
        planner.check(_demands({"CLB": 4}))
        assert planner.stats["queries"] == 2
        assert planner.stats["query_time"] > 0.0
        assert planner.stats["engine_time"] >= 0.0

    def test_candidate_memo_counted(self):
        device = small_device(rows=2, clb=8, bram=2, dsp=2)
        planner = Floorplanner(device)
        planner.check(_demands({"CLB": 4}, {"CLB": 4}))
        # Second region's identical demand reuses the memoized list.
        assert planner.stats["candidate_memo_hits"] >= 1


class TestWarmStart:
    def test_export_absorb_roundtrip(self):
        device = small_device(rows=2, clb=8, bram=2, dsp=2)
        source = Floorplanner(device)
        source.check(_demands({"CLB": 4}, {"BRAM": 1}))
        # Exported keys are sorted tuples of (rtype, count) item tuples.
        entries = [
            ([ResourceVector(dict(items)) for items in key], result)
            for key, result in source.export_entries()
        ]
        sink = Floorplanner(device)
        assert sink.absorb(entries) == 1
        assert sink.absorb(entries) == 0  # idempotent
        hit = sink.check(_demands({"CLB": 4}, {"BRAM": 1}))
        assert hit.feasible
        assert sink.stats["cache_hits"] == 1


class TestDeviceCache:
    def test_synthetic_device_shared_by_value_identity(self):
        arch1 = paper_instance(10, seed=1).architecture
        planner_a = Floorplanner.for_architecture(arch1)
        planner_b = Floorplanner.for_architecture(arch1)
        assert planner_a.device is planner_b.device

    def test_pickled_device_drops_memos(self):
        import pickle

        device = small_device(rows=2, clb=8, bram=2, dsp=2)
        planner = Floorplanner(device)
        planner.check(_demands({"CLB": 4}, {"CLB": 4}))
        assert device._candidate_cache
        clone = pickle.loads(pickle.dumps(device))
        assert clone._candidate_cache == {}
        assert clone.candidate_cache_hits == 0
