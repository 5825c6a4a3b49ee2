"""Unit tests for the scheduling service (DESIGN.md §12).

The daemon runs on its own event loop in a thread (``ServiceThread``)
with an in-process *thread* executor so backends can be monkeypatched
— which is what lets these tests count backend invocations exactly.
The process-executor path is exercised by ``benchmarks/bench_service.py``
and the CI serve-smoke job.
"""

import json
import threading
import time

import pytest

from repro.benchgen import paper_instance
from repro.engine import (
    ResultStore,
    ScheduleRequest,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    run_batch_remote,
)
from repro.engine.backend import request_to_payload
from repro.engine.backends import ListBackend


@pytest.fixture
def instance():
    return paper_instance(tasks=8, seed=3)


def _config(**overrides) -> ServiceConfig:
    defaults = dict(port=0, executor="thread", workers=2, log_interval=0.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _slow_list_backend(monkeypatch, delay, invocations):
    """Patch the list backend to sleep and record each invocation."""
    real = ListBackend.run

    def slow(self, request, floorplanner=None):
        invocations.append(time.monotonic())
        time.sleep(delay)
        return real(self, request, floorplanner)

    monkeypatch.setattr(ListBackend, "run", slow)


class TestRequestPath:
    def test_cold_then_warm_bit_identical(self, tmp_path, instance):
        store = ResultStore(tmp_path / "cache")
        with ServiceThread(_config(), store=store) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            request = ScheduleRequest(instance, "list")

            cold = client.schedule(request)
            assert cold["source"] == "computed"
            assert cold["key"] == request.cache_key()

            warm = client.schedule(request)
            assert warm["source"] == "store"
            assert warm["outcome"] == cold["outcome"]
            # The PR-4 contract through the HTTP layer: the response is
            # exactly what ResultStore.get returns.
            assert warm["outcome"] == store.get(request).to_dict()

    def test_no_store_always_computes(self, instance):
        with ServiceThread(_config()) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            request = ScheduleRequest(instance, "list")
            first = client.schedule(request)
            second = client.schedule(request)
            assert first["source"] == second["source"] == "computed"
            metrics = client.metrics()
            assert metrics["computed"] == 2
            assert metrics["store"] is None

    def test_distinct_requests_do_not_coalesce(self, tmp_path, instance):
        store = ResultStore(tmp_path / "cache")
        with ServiceThread(_config(), store=store) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            client.schedule(ScheduleRequest(instance, "list"))
            client.schedule(ScheduleRequest(instance, "is-1"))
            metrics = client.metrics()
            assert metrics["computed"] == 2
            assert metrics["coalesced"] == 0


class TestCoalescing:
    def test_identical_inflight_requests_share_one_invocation(
        self, tmp_path, instance, monkeypatch
    ):
        invocations: list[float] = []
        _slow_list_backend(monkeypatch, 0.6, invocations)
        store = ResultStore(tmp_path / "cache")
        with ServiceThread(_config(workers=1), store=store) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            request = ScheduleRequest(instance, "list")
            n = 6
            results: list = [None] * n
            barrier = threading.Barrier(n)

            def fire(slot: int) -> None:
                barrier.wait()
                results[slot] = client.schedule(request)

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len(invocations) == 1, "duplicates must share one run"
            sources = sorted(r["source"] for r in results)
            assert sources.count("computed") == 1
            assert sources.count("coalesced") == n - 1
            # Every waiter got the same outcome payload.
            assert len({str(sorted(r["outcome"].items())) for r in results}) == 1
            metrics = client.metrics()
            assert metrics["computed"] == 1
            assert metrics["coalesced"] == n - 1
            assert metrics["coalesce_rate"] == pytest.approx((n - 1) / n)


class TestAdmissionControl:
    def test_backpressure_rejects_with_retry_after(
        self, tmp_path, instance, monkeypatch
    ):
        invocations: list[float] = []
        _slow_list_backend(monkeypatch, 1.0, invocations)
        store = ResultStore(tmp_path / "cache")
        config = _config(workers=1, queue_limit=1, retry_after=0.25)
        with ServiceThread(config, store=store) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            occupier = ScheduleRequest(instance, "list")
            blocked = ScheduleRequest(paper_instance(tasks=6, seed=7), "list")

            filler = threading.Thread(
                target=client.schedule, args=(occupier,)
            )
            filler.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if client.metrics()["queue_depth"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("occupier never became in-flight")

            status, body, headers = client.request_raw(
                "POST", "/schedule", request_to_payload(blocked)
            )
            assert status == 429
            assert headers.get("Retry-After") == "0.25"
            assert "queue full" in body["error"]
            with pytest.raises(ServiceError) as err:
                client.schedule(blocked, retry_backpressure=False)
            assert err.value.status == 429
            filler.join()
            metrics = client.metrics()
            assert metrics["rejected"] == 2
            assert metrics["queue_peak"] == 1

    def test_retry_after_backoff_eventually_admits(
        self, tmp_path, instance, monkeypatch
    ):
        invocations: list[float] = []
        _slow_list_backend(monkeypatch, 0.4, invocations)
        store = ResultStore(tmp_path / "cache")
        config = _config(workers=1, queue_limit=1, retry_after=0.1)
        with ServiceThread(config, store=store) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            filler = threading.Thread(
                target=client.schedule,
                args=(ScheduleRequest(instance, "list"),),
            )
            filler.start()
            time.sleep(0.05)
            # Retries through the 429s until the occupier drains.
            body = client.schedule(
                ScheduleRequest(paper_instance(tasks=6, seed=7), "list")
            )
            assert body["source"] == "computed"
            filler.join()


class TestTimeouts:
    def test_request_deadline_returns_504(
        self, tmp_path, instance, monkeypatch
    ):
        invocations: list[float] = []
        _slow_list_backend(monkeypatch, 1.5, invocations)
        config = _config(workers=1, request_timeout=0.2)
        with ServiceThread(config, store=None) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            with pytest.raises(ServiceError) as err:
                client.schedule(ScheduleRequest(instance, "list"))
            assert err.value.status == 504
            metrics = client.metrics()
            assert metrics["timeouts"] == 1
            # The key is no longer in flight: a later retry re-executes.
            assert metrics["queue_depth"] == 0


class TestBadRequests:
    def test_unknown_algorithm_is_400(self, instance):
        with ServiceThread(_config()) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            with pytest.raises(ServiceError) as err:
                client.schedule(ScheduleRequest(instance, "magic"))
            assert err.value.status == 400
            assert "unknown algorithm" in str(err.value)

    def test_malformed_bodies_are_400(self, instance):
        with ServiceThread(_config()) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            for payload in (
                {"algorithm": "pa"},  # no instance
                {"instance": "a/path.json"},  # path, not inline
                {"instance": instance.to_dict(), "nope": 1},  # unknown field
                {  # unknown option
                    "instance": instance.to_dict(),
                    "algorithm": "pa",
                    "options": {"timing": "scalar"},
                },
            ):
                status, body, _ = client.request_raw(
                    "POST", "/schedule", payload
                )
                assert status == 400, payload
                assert body["error"]

    def test_malformed_search_options_are_400_before_dispatch(self, instance):
        cases = (
            ("is-1", {"node_limit": "many"}),
            ("is-2", {"branch_cap": 2.5}),
            ("is-3", {"node_limit": True}),
            ("is-3", {"jobs": -2}),
            ("is-3", {"enable_module_reuse": "yes"}),
            ("is-5", {"engine": "copy"}),
            ("is-5", {"memo": False}),
            ("is-5", {"incumbent_seed": False}),
            ("exhaustive", {"node_limit": 0}),
            ("exhaustive", {"task_limit": "12"}),
        )
        with ServiceThread(_config()) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            for algorithm, options in cases:
                payload = request_to_payload(
                    ScheduleRequest(instance, algorithm, options=options)
                )
                status, body, _ = client.request_raw("POST", "/schedule", payload)
                assert status == 400, (algorithm, options, body)
                assert body["error"]
            metrics = client.metrics()
            assert metrics["failures"] == len(cases)
            assert metrics["queue_peak"] == 0  # nothing was admitted
            assert metrics["computed"] == 0

    def test_unknown_route_is_404(self):
        with ServiceThread(_config()) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            status, body, _ = client.request_raw("GET", "/nope")
            assert status == 404


class TestMetricsAndEviction:
    def test_latency_percentiles_and_health(self, tmp_path, instance):
        store = ResultStore(tmp_path / "cache")
        with ServiceThread(_config(), store=store) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            assert client.healthy()
            request = ScheduleRequest(instance, "list")
            client.schedule(request)
            client.schedule(request)
            metrics = client.metrics()
            assert metrics["requests"] == 2
            assert metrics["hit_rate"] == pytest.approx(0.5)
            assert metrics["latency_ms"]["window"] == 2
            assert metrics["latency_ms"]["p99"] >= metrics["latency_ms"]["p50"] >= 0
            assert metrics["store"]["writes"] == 1
            assert handle.service.render_metrics_line().startswith("serve:")

    def test_store_eviction_surfaces_in_metrics(self, tmp_path):
        # A budget that holds roughly one entry forces LRU eviction as
        # distinct requests stream through.
        probe = ResultStore(tmp_path / "probe")
        probe_request = ScheduleRequest(paper_instance(tasks=6, seed=0), "list")
        from repro.engine import get_backend

        probe.put(probe_request, get_backend("list").run(probe_request))
        budget = int(probe.total_bytes() * 1.5)
        store = ResultStore(tmp_path / "cache", max_bytes=budget)
        with ServiceThread(_config(), store=store) as handle:
            client = ServiceClient(handle.url)
            client.wait_ready()
            for seed in range(3):
                client.schedule(
                    ScheduleRequest(paper_instance(tasks=6, seed=seed), "list")
                )
            metrics = client.metrics()
            assert metrics["store"]["evictions"] >= 1
            assert store.total_bytes() <= budget


class TestRemoteBatch:
    def test_manifest_drains_through_the_service(self, tmp_path, instance):
        store = ResultStore(tmp_path / "cache")
        requests = [
            ScheduleRequest(instance, "pa", options={"floorplan": False}),
            ScheduleRequest(instance, "is-2"),
            ScheduleRequest(instance, "list"),
        ]
        with ServiceThread(_config(), store=store) as handle:
            cold = run_batch_remote(requests, handle.url, jobs=3)
            assert cold.total == 3 and cold.failed == 0
            assert cold.executed + cold.coalesced == 3
            assert [r.index for r in cold.records] == [0, 1, 2]

            warm = run_batch_remote(requests, handle.url, jobs=3)
            assert warm.store_hits == 3 and warm.hit_rate == 1.0
            for a, b in zip(cold.records, warm.records):
                assert (a.key, a.makespan, a.feasible) == (
                    b.key,
                    b.makespan,
                    b.feasible,
                )

    def test_unreachable_server_yields_failed_records(self, instance):
        report = run_batch_remote(
            [ScheduleRequest(instance, "list")],
            "http://127.0.0.1:9",  # discard port: nothing listens
            jobs=1,
            timeout=2.0,
        )
        assert report.failed == 1
        assert report.records[0].source == "failed"
        assert report.records[0].error


class TestRemoteProfiles:
    def test_client_timing_out_param(self, tmp_path, instance):
        store = ResultStore(tmp_path / "cache")
        with ServiceThread(_config(), store=store) as handle:
            client = ServiceClient(handle.url)
            timing: dict = {}
            body = client.schedule(
                ScheduleRequest(instance, "list"), timing=timing
            )
            assert body["outcome"]["feasible"] is not None
            assert timing["attempts"] == 1
            assert timing["http_s"] > 0
            assert timing["backpressure_wait_s"] == 0.0
            assert timing["total_s"] >= timing["http_s"]

    def test_timing_populated_on_failure(self, instance):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        timing: dict = {}
        with pytest.raises(OSError):
            client.schedule(ScheduleRequest(instance, "list"), timing=timing)
        assert timing["attempts"] == 1
        assert timing["total_s"] > 0

    def test_remote_batch_profile_dir(self, tmp_path, instance):
        store = ResultStore(tmp_path / "cache")
        profile_dir = tmp_path / "profiles"
        requests = [
            ScheduleRequest(instance, "list"),
            ScheduleRequest(instance, "is-1"),
        ]
        with ServiceThread(_config(), store=store) as handle:
            report = run_batch_remote(
                requests, handle.url, jobs=2, profile_dir=profile_dir
            )
            assert report.failed == 0
        for index in (0, 1):
            payload = json.loads(
                (profile_dir / f"item-{index}.json").read_text()
            )
            assert payload["remote"] is True
            phases = payload["phases"]
            assert phases["http_roundtrip"]["calls"] == 1
            assert phases["http_roundtrip"]["wall_s"] > 0
            assert "backpressure_wait" in phases
            assert payload["server"]["source"] in ("computed", "coalesced", "store")
            assert payload["total_wall_s"] >= phases["http_roundtrip"]["wall_s"]

    def test_remote_profiles_cover_store_hits(self, tmp_path, instance):
        # Unlike local profiling (store hits run no backend code), the
        # client still pays the HTTP round-trip for a warm hit — so the
        # remote profile exists and attributes it.
        store = ResultStore(tmp_path / "cache")
        requests = [ScheduleRequest(instance, "list")]
        with ServiceThread(_config(), store=store) as handle:
            run_batch_remote(requests, handle.url)
            profile_dir = tmp_path / "profiles"
            warm = run_batch_remote(
                requests, handle.url, profile_dir=profile_dir
            )
            assert warm.store_hits == 1
        payload = json.loads((profile_dir / "item-0.json").read_text())
        assert payload["server"]["source"] == "store"
