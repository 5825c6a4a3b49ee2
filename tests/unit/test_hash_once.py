"""Each request is hashed once on the request path.

``ScheduleRequest`` is frozen and keeps its cache key after the first
``cache_key()``, so the sweep, the batch runner, the store and the
service all reuse one digest per request object.  These tests count the
canonical hashes the engine computes.
"""

import pytest

from repro.benchgen import paper_instance
from repro.engine import (
    ResultStore,
    ScheduleRequest,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    get_backend,
    run_batch,
)
from repro.engine import backend as backend_mod
from repro.explore import GridSpec, run_sweep


@pytest.fixture
def instance():
    return paper_instance(tasks=8, seed=3)


@pytest.fixture
def hashes(monkeypatch):
    """The number of ``content_hash`` calls made for cache keys."""
    calls = []
    real = backend_mod.content_hash

    def counting(payload):
        calls.append(1)
        return real(payload)

    monkeypatch.setattr(backend_mod, "content_hash", counting)
    return calls


def test_sweep_hashes_each_point_once(tmp_path, instance, hashes):
    spec = GridSpec(algorithms=["pa", "is-1"], fabric_scales=[1.0, 0.8], seeds=[0, 1])
    report = run_sweep(instance, spec, store=ResultStore(tmp_path / "s"))
    points = sum(1 for record in report.records if record.source != "infeasible")
    assert report.executed > 0 and report.dedup_collapsed > 0
    assert len(hashes) == points


def test_batch_hashes_each_request_once(tmp_path, instance, hashes):
    requests = [
        ScheduleRequest(instance, "list"),
        ScheduleRequest(instance, "pa", options={"floorplan": False}),
    ]
    report = run_batch(requests, store=ResultStore(tmp_path / "s"))
    assert [record.source for record in report.records] == ["computed"] * 2
    assert len(hashes) == len(requests)


def test_warm_service_request_hashes_once(tmp_path, instance, hashes):
    store = ResultStore(tmp_path / "s")
    stored = ScheduleRequest(instance, "list")
    store.put(stored, get_backend("list").run(stored))
    config = ServiceConfig(port=0, executor="thread", workers=1, log_interval=0.0)
    with ServiceThread(config, store=store) as handle:
        client = ServiceClient(handle.url)
        client.wait_ready()
        hashes.clear()
        reply = client.schedule(ScheduleRequest(instance, "list"))
    assert reply["source"] == "store"
    assert len(hashes) == 1
