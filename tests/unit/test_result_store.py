"""Unit tests for the content-addressed result store.

The headline contract: a repeated request returns the stored outcome
**bit-identically** — same ``to_dict()`` payload, same bytes on disk —
without invoking any backend.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.benchgen import paper_instance
from repro.engine import (
    ResultStore,
    ScheduleOutcome,
    ScheduleRequest,
    get_backend,
)


@pytest.fixture
def instance():
    return paper_instance(tasks=8, seed=21)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def test_miss_then_hit(store, instance):
    request = ScheduleRequest(instance, "list")
    assert store.get(request) is None
    assert store.misses == 1
    outcome = get_backend("list").run(request)
    store.put(request, outcome)
    assert store.contains(request)
    assert len(store) == 1
    cached = store.get(request)
    assert cached is not None
    assert store.stats == {
        "hits": 1,
        "misses": 1,
        "writes": 1,
        "evictions": 0,
    }


def test_warm_hit_is_bit_identical_without_backend_invocation(
    store, instance, monkeypatch
):
    request = ScheduleRequest(instance, "pa", options={"floorplan": False})
    outcome = get_backend("pa").run(request)
    store.put(request, outcome)

    # Poison every backend: any run() during the warm path would blow up.
    from repro.engine import backend as backend_mod

    def _boom(self, request, floorplanner=None):
        raise AssertionError("backend invoked on a warm store hit")

    for cls in backend_mod._REGISTRY:
        monkeypatch.setattr(cls, "run", _boom)

    cached = store.get(request)
    assert cached is not None
    assert cached.to_dict() == outcome.to_dict()
    assert cached.schedule.to_dict() == outcome.schedule.to_dict()
    # And byte-for-byte stable across a second read.
    raw = store.outcome_path(request).read_bytes()
    assert store.get(request).to_dict() == ScheduleOutcome.from_dict(
        json.loads(raw)
    ).to_dict()


def test_separate_store_objects_share_entries(tmp_path, instance):
    request = ScheduleRequest(instance, "list")
    outcome = get_backend("list").run(request)
    ResultStore(tmp_path / "cache").put(request, outcome)
    other = ResultStore(tmp_path / "cache")
    cached = other.get(request)
    assert cached is not None and cached.to_dict() == outcome.to_dict()


def test_corrupt_entry_reads_as_miss(store, instance):
    request = ScheduleRequest(instance, "list")
    store.put(request, get_backend("list").run(request))
    store.outcome_path(request).write_text("{not json")
    assert store.get(request) is None
    assert store.misses == 1


def test_distinct_requests_get_distinct_entries(store, instance):
    r1 = ScheduleRequest(instance, "list")
    r2 = ScheduleRequest(instance, "is-1")
    store.put(r1, get_backend("list").run(r1))
    store.put(r2, get_backend("is-1").run(r2))
    assert len(store) == 2
    assert store.get(r1).backend == "list"
    assert store.get(r2).backend == "is-1"


def test_provenance_sidecar(store, instance):
    request = ScheduleRequest(instance, "list", seed=None)
    store.put(request, get_backend("list").run(request))
    sidecar = json.loads((store.entry_dir(request) / "request.json").read_text())
    assert sidecar["algorithm"] == "list"
    assert sidecar["instance_hash"] == instance.content_hash()


INDENTED_STORE = Path(__file__).resolve().parents[1] / "fixtures" / "store_indented"


def test_indented_entry_still_hits(tmp_path, monkeypatch):
    """An entry written with ``indent=2`` before stores switched to
    compact JSON is still found under the same key and read back
    unchanged."""
    shutil.copytree(INDENTED_STORE, tmp_path / "cache")
    store = ResultStore(tmp_path / "cache")
    request = ScheduleRequest(
        paper_instance(6, seed=3), "pa", options={"floorplan": False}
    )
    (stored_path,) = (tmp_path / "cache").glob("*/*/outcome.json")
    assert stored_path.parent.name == request.cache_key()
    monkeypatch.setattr(
        get_backend("pa").__class__, "run", lambda *a, **k: pytest.fail("ran")
    )
    cached = store.get(request)
    assert store.stats["hits"] == 1
    assert cached.to_dict() == json.loads(stored_path.read_text())


def test_entries_are_compact_json(store, instance):
    request = ScheduleRequest(instance, "list")
    store.put(request, get_backend("list").run(request))
    for name in ("outcome.json", "request.json"):
        text = (store.entry_dir(request) / name).read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_clear(store, instance):
    request = ScheduleRequest(instance, "list")
    store.put(request, get_backend("list").run(request))
    assert store.clear() == 1
    assert len(store) == 0
    assert store.get(request) is None


class TestShardedLayout:
    def test_entries_live_under_two_char_shards(self, store, instance):
        request = ScheduleRequest(instance, "list")
        store.put(request, get_backend("list").run(request))
        key = request.cache_key()
        entry = store.entry_dir(request)
        assert entry == store.root / key[:2] / key
        assert entry.is_dir()


class TestStaleTmpSweep:
    """ISSUE 7 satellite 3: a process killed mid-write orphans
    ``outcome.json*.tmp`` files; they must read as a miss and be
    garbage-collected rather than accumulate forever."""

    def _orphan_tmp(self, store, request, age=0.0):
        entry = store.entry_dir(request)
        entry.mkdir(parents=True, exist_ok=True)
        tmp = entry / "outcome.jsonabc123.tmp"
        tmp.write_text('{"torn": ')  # half a write, as a kill would leave
        if age:
            import os as _os
            import time as _time

            past = _time.time() - age
            _os.utime(tmp, (past, past))
        return tmp

    def test_torn_write_reads_as_miss(self, store, instance):
        request = ScheduleRequest(instance, "list")
        self._orphan_tmp(store, request)
        assert store.get(request) is None
        assert store.misses == 1

    def test_init_sweeps_stale_tmp_only(self, tmp_path, instance):
        store = ResultStore(tmp_path / "cache")
        request = ScheduleRequest(instance, "list")
        store.put(request, get_backend("list").run(request))
        stale = self._orphan_tmp(store, request, age=2 * 3600.0)
        fresh_tmp = self._orphan_tmp(store, ScheduleRequest(instance, "is-1"))
        reopened = ResultStore(tmp_path / "cache")
        assert not stale.exists(), "hour-old orphan must be swept on init"
        assert fresh_tmp.exists(), "a possibly-live write must survive"
        # The real entry is untouched.
        assert reopened.get(request) is not None

    def test_clear_sweeps_all_tmp(self, store, instance):
        request = ScheduleRequest(instance, "list")
        store.put(request, get_backend("list").run(request))
        tmp = self._orphan_tmp(store, ScheduleRequest(instance, "is-1"))
        store.clear()
        assert not tmp.exists()
        assert store.sweep_stale_tmp(max_age=0.0) == 0

    def test_sweep_returns_reclaimed_count(self, store, instance):
        self._orphan_tmp(store, ScheduleRequest(instance, "list"))
        self._orphan_tmp(store, ScheduleRequest(instance, "is-1"))
        assert store.sweep_stale_tmp(max_age=0.0) == 2


class TestLRUEviction:
    def _fill(self, store, count=4, tasks=6):
        requests = [
            ScheduleRequest(paper_instance(tasks=tasks, seed=seed), "list")
            for seed in range(count)
        ]
        outcomes = []
        for request in requests:
            outcome = get_backend("list").run(request)
            store.put(request, outcome)
            outcomes.append(outcome)
        return requests, outcomes

    def _entry_budget(self, tmp_path, factor):
        probe = ResultStore(tmp_path / "probe")
        request = ScheduleRequest(paper_instance(tasks=6, seed=0), "list")
        probe.put(request, get_backend("list").run(request))
        return int(probe.total_bytes() * factor)

    def test_no_budget_never_evicts(self, store, instance):
        self._fill(store, count=4)
        assert store.evictions == 0
        assert len(store) == 4

    def test_put_over_budget_evicts_down_to_budget(self, tmp_path):
        budget = self._entry_budget(tmp_path, 2.5)
        store = ResultStore(tmp_path / "cache", max_bytes=budget)
        self._fill(store, count=4)
        assert store.evictions >= 1
        assert store.total_bytes() <= budget
        assert 1 <= len(store) < 4

    def test_hit_refreshes_lru_order(self, tmp_path):
        import os as _os
        import time as _time

        budget = self._entry_budget(tmp_path, 2.5)
        store = ResultStore(tmp_path / "cache", max_bytes=budget)
        requests = [
            ScheduleRequest(paper_instance(tasks=6, seed=seed), "list")
            for seed in range(2)
        ]
        for request in requests:
            store.put(request, get_backend("list").run(request))
        # Backdate both, then *hit* entry 0 — the hit must refresh its
        # access time so entry 1 becomes the LRU victim.
        past = _time.time() - 1000.0
        for request in requests:
            _os.utime(store.outcome_path(request), (past, past))
        assert store.get(requests[0]) is not None

        victim_trigger = ScheduleRequest(
            paper_instance(tasks=6, seed=99), "list"
        )
        store.put(victim_trigger, get_backend("list").run(victim_trigger))
        assert store.evictions >= 1
        assert store.contains(requests[0]), "recently-hit entry evicted"
        assert not store.contains(requests[1]), "LRU entry must go first"
        assert store.contains(victim_trigger), "just-written entry evicted"

    def test_survivors_stay_bit_identical(self, tmp_path):
        budget = self._entry_budget(tmp_path, 2.5)
        store = ResultStore(tmp_path / "cache", max_bytes=budget)
        requests, outcomes = self._fill(store, count=4)
        for request, outcome in zip(requests, outcomes):
            cached = store.get(request)
            if cached is not None:  # survivor: PR-4 contract intact
                assert cached.to_dict() == outcome.to_dict()

    def test_evicted_entry_recomputes_and_restores(self, tmp_path):
        budget = self._entry_budget(tmp_path, 1.5)
        store = ResultStore(tmp_path / "cache", max_bytes=budget)
        requests, outcomes = self._fill(store, count=2)
        evicted = [r for r in requests if not store.contains(r)]
        assert evicted, "budget for ~1 entry must evict one of two"
        request = evicted[0]
        assert store.get(request) is None
        replacement = get_backend("list").run(request)
        store.put(request, replacement)
        cached = store.get(request)
        assert cached is not None
        assert (
            cached.schedule.to_dict() == replacement.schedule.to_dict()
        )
