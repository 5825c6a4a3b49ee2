"""The seven end-to-end workloads of ``bench_e2e.py``.

Every workload runs a fixed, committed corpus of inputs through the
program's public entry points in a closed loop.  The seed decides the
order of the ops in each pass and, for ``serve-warm``, which stored keys
the clients request; it never changes which inputs exist.  So every run
does the same work, and every output is checked against its golden
digest whatever the seed.  (Runs over instances generated from the seed
differed by 15% in throughput from seed to seed, which would drown the
change a later optimisation makes.)

A *pass* is one run through the corpus; the harness runs a fixed number
of passes, so each op has several samples.  Inputs are handed over in
their JSON form, as a user submits them.  Outputs are digested as
canonical JSON of the schedule with its ``metadata`` removed (wall-clock
figures live there), so a digest changes only when a decision the
program made changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Entry points are called through their module attribute, so the traced
# run sees the same wrappers a caller inside the program would.
import repro.explore.sweep as sweep  # noqa: E402
import repro.fleet.scheduler as fleet  # noqa: E402
import repro.online.runtime as online  # noqa: E402
from repro.benchgen import fleet_scenario, paper_instance  # noqa: E402
from repro.engine import ResultStore, ScheduleRequest, get_backend, run_batch  # noqa: E402
from repro.engine.backend import request_from_payload  # noqa: E402
from repro.engine.service import ServiceClient  # noqa: E402
from repro.explore import GridSpec, expand_grid  # noqa: E402
from repro.model import Instance, Schedule  # noqa: E402
from repro.online import ArrivalTrace, generate_trace  # noqa: E402
from repro.sim import FaultPlan, TransientTaskFaults  # noqa: E402
from repro.validate import check_fleet_schedule, check_online_trace, check_schedule  # noqa: E402

DIGEST_LEN = 16
CORPUS_SEED = 2016  # instance seeds are CORPUS_SEED * 100 + j


def json_form(instance: Instance) -> Instance:
    """``instance`` as a user submits it: rebuilt from its JSON, which
    orders tasks canonically.  PA-R's schedules depend on the order tasks
    were inserted, so a generator's object and its JSON round trip, which
    share one cache key, can get different schedules; every workload uses
    the JSON form, as ``repro serve`` and ``repro schedule FILE`` do."""
    return Instance.from_dict(instance.to_dict())


def canonical_instance(tasks: int, seed: int) -> Instance:
    return json_form(paper_instance(tasks, seed=seed))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_LEN]


def _without_metadata(schedule_dict: dict) -> dict:
    out = dict(schedule_dict)
    out.pop("metadata", None)
    return out


def schedule_output(schedule_dict: dict, feasible: bool) -> dict:
    return {"schedule": _without_metadata(schedule_dict), "feasible": feasible}


@dataclass
class OpResult:
    """One op of the measured phase."""

    gid: int  # index of the op's golden digest
    latency_s: float
    digest: str | None = None
    cpu_s: float = 0.0  # this process's CPU time during the op
    error: str | None = None
    artifact: object = None  # validator input (None when a duplicate)
    extra: dict = field(default_factory=dict)  # per-layer figures
    slot: int | None = None  # same work in every pass (default: gid)

    def __post_init__(self) -> None:
        if self.slot is None:
            self.slot = self.gid


class Workload:
    """One closed-loop client in this process over a list of ops."""

    name = ""
    why = ""
    clients = 1
    pass_seconds = 1.0  # nominal time of one pass on the reference machine

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = None

    def _cut(self, ops: list) -> list:
        """Smoke scale: about a tenth of the op list."""
        return ops[: max(2, len(ops) // 10)] if self.smoke else ops

    def order(self, index: int, count: int) -> list[int]:
        """The seed's op order for pass ``index``."""
        order = list(range(count))
        random.Random(f"{self.name}:{self.seed}:{index}").shuffle(order)
        return order

    # -- set-up: build and start/warmup repeat; prepare runs once -----------

    def build(self) -> None:
        """Materialise the corpus: ``self.ops`` and a warm-up input."""
        raise NotImplementedError

    def prepare(self) -> None:
        """One-time set-up that does not repeat."""

    def start(self) -> None:
        pass

    def warmup(self) -> None:
        self.execute(self.warm, "warmup")

    def stop(self) -> None:
        pass

    # -- the ops ------------------------------------------------------------

    def execute(self, op, tag: str):
        """Run one op through the program; ``tag`` names scratch state."""
        raise NotImplementedError

    def result(self, gid: int, op, output, latency: float) -> OpResult:
        raise NotImplementedError

    def run_pass(self, index: int, record) -> None:
        for gid in self.order(index, len(self.ops)):
            op = self.ops[gid]
            cpu0 = time.process_time()
            output, latency, error = self.call(
                gid, lambda: self.execute(op, f"{index}-{gid}")
            )
            cpu = time.process_time() - cpu0
            if error is not None:
                result = OpResult(gid, latency, error=error)
            else:
                result = self.result(gid, op, output, latency)
            result.cpu_s = cpu
            record(result)

    def golden_outputs(self) -> list[str]:
        """Per-op digests of the corpus, computed in-process."""
        return [
            self.result(gid, op, self.execute(op, f"golden-{gid}"), 0.0).digest
            for gid, op in enumerate(self.ops)
        ]

    def validate(self, artifact) -> int:
        instance, schedule, reuse = artifact
        return len(check_schedule(instance, schedule, allow_module_reuse=reuse).violations)

    # -- measurement hooks --------------------------------------------------

    def cpu_seconds(self) -> float:
        return time.process_time()

    def service_metrics(self) -> dict | None:
        return None

    def probe(self, results: list[OpResult], tracer) -> None:
        """Traced run only: replay layers that run in another process."""

    def call(self, gid: int, fn):
        """Run one op under the root span; returns (output, latency, error)."""
        tracer = self.tracer
        span = tracer.begin("op", gid) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            return fn(), time.perf_counter() - t0, None
        except Exception as exc:  # noqa: BLE001 — an op failure is data
            return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                tracer.end(span)


# -- table1-pa / table1-isk ------------------------------------------------------


class _Table1(Workload):
    sizes = tuple(range(10, 101, 10))
    # (algorithm, options, the Table I sizes it runs on)
    algorithms: tuple = ()

    def build(self) -> None:
        seed = CORPUS_SEED * 100
        instances = {size: canonical_instance(size, seed) for size in self.sizes}
        self.ops = self._cut(
            [
                (instances[size], algorithm, options, seed)
                for size in self.sizes
                for algorithm, options, sizes in self.algorithms
                if size in sizes
            ]
        )
        self.warm = [(canonical_instance(20, seed + 99), a, o, 0) for a, o, _s in self.algorithms]

    def warmup(self) -> None:
        for op in self.warm:
            self.execute(op, "warmup")

    def execute(self, op, tag: str):
        instance, algorithm, options, inst_seed = op
        return get_backend(algorithm).run(
            ScheduleRequest(instance, algorithm, options=dict(options), seed=inst_seed)
        )

    def result(self, gid: int, op, outcome, latency: float) -> OpResult:
        instance, algorithm = op[0], op[1]
        extra = {}
        if algorithm == "pa":
            extra = {"pa_ops": 1, "shrink_iterations": outcome.metadata["shrink_iterations"]}
        return OpResult(
            gid,
            latency,
            digest=digest(schedule_output(outcome.schedule.to_dict(), outcome.feasible)),
            artifact=(instance, outcome.schedule, algorithm.startswith("is-")),
            extra=extra,
        )


class Table1PA(_Table1):
    name = "table1-pa"
    why = (
        "Table I sizes 10..100 under pa and pa-r: PA steps, CPM timing and the "
        "floorplan check do the work; store, HTTP and IS-k are bypassed"
    )
    pass_seconds = 1.7
    algorithms = (
        ("pa", {}, _Table1.sizes),
        ("pa-r", {"iterations": 16, "jobs": 1}, _Table1.sizes),
    )


class Table1ISK(_Table1):
    name = "table1-isk"
    why = (
        "IS-1 and IS-5 window search on the Table I sizes; it never calls the "
        "floorplanner or CPM timing, so it is their no-change control"
    )
    pass_seconds = 2.3
    # IS-5 on every other size keeps a pass short enough for five samples.
    algorithms = (
        ("is-1", {"node_limit": 2000}, _Table1.sizes),
        ("is-5", {"node_limit": 2000}, _Table1.sizes[1::2]),
    )


# -- fleet-pa --------------------------------------------------------------------

# (tasks, scenario seed) on the default three-device fleet.  Every one
# is dominated by floorplan checks, and in every one each floorplan DFS
# ends at its node budget in under 0.25 s: the DFS also stops at a 1 s
# wall-clock limit, and a scenario that came near it would give
# different answers on a slower or busier machine.
FLEET_CORPUS = (
    (24, 9), (24, 12), (16, 22), (16, 24), (16, 28), (12, 3), (12, 19), (12, 38),
)


def _scenario(tasks: int, seed: int):
    app, fleet_spec = fleet_scenario(tasks=tasks, seed=seed)
    return json_form(app), fleet_spec


def _fleet_output(fs) -> dict:
    payload = fs.to_dict()
    payload.pop("metadata", None)
    payload["device_schedules"] = {
        device: _without_metadata(schedule)
        for device, schedule in payload["device_schedules"].items()
    }
    return payload


class FleetPA(Workload):
    name = "fleet-pa"
    why = (
        "PA across a heterogeneous three-device fleet: floorplan checks on "
        "the mixed fabrics take nearly all of the time"
    )
    pass_seconds = 2.3

    def build(self) -> None:
        self.ops = self._cut([_scenario(t, s) for t, s in FLEET_CORPUS])
        self.warm = _scenario(8, CORPUS_SEED)

    def execute(self, op, tag: str):
        instance, fleet_spec = op
        return fleet.fleet_schedule(instance, fleet_spec, "pa", objective="makespan", jobs=1)

    def result(self, gid: int, op, outcome, latency: float) -> OpResult:
        return OpResult(
            gid,
            latency,
            digest=digest(_fleet_output(outcome.schedule)),
            artifact=(op[0], outcome.schedule),
            extra={"fleet_ops": 1, "candidates": len(outcome.candidates)},
        )

    def validate(self, artifact) -> int:
        instance, fs = artifact
        return len(check_fleet_schedule(instance, fs).violations)


# -- explore-refine ---------------------------------------------------------------

COARSE_GRID = dict(
    algorithms=["pa", "is-1", "is-3"], fabric_scales=[0.6, 1.0], rec_freqs=[None, 200.0]
)
FINE_GRID = dict(
    algorithms=["pa", "is-1", "is-3"],
    fabric_scales=[0.6, 0.8, 1.0],
    rec_freqs=[None, 50.0, 200.0],
)


def _front(report) -> list:
    rows = []
    for record in report.records:
        if record.on_front:
            row = record.to_dict()
            row.pop("elapsed")
            rows.append(row)
    return rows


class ExploreRefine(Workload):
    name = "explore-refine"
    why = (
        "a coarse grid then its refinement on one fresh store: cold solves, "
        "store-first hits, dedup and per-fabric warm chains in one op"
    )
    pass_seconds = 1.8
    instances = 4

    def build(self) -> None:
        self.ops = self._cut(
            [canonical_instance(20, CORPUS_SEED * 100 + j) for j in range(self.instances)]
        )
        self.warm = canonical_instance(10, CORPUS_SEED * 100 + 99)

    def execute(self, instance, tag: str):
        store_dir = self.workdir / f"explore-{tag}"
        store = ResultStore(store_dir)
        coarse = sweep.run_sweep(instance, GridSpec(**COARSE_GRID), store=store)
        fine = sweep.run_sweep(instance, GridSpec(**FINE_GRID), store=store)
        return coarse, fine, store_dir

    def result(self, gid: int, instance, output, latency: float) -> OpResult:
        coarse, fine, store_dir = output
        return OpResult(
            gid,
            latency,
            digest=digest([_front(coarse), _front(fine)]),
            artifact=(instance, store_dir),
            extra={
                "sweep_points": coarse.total_points + fine.total_points,
                "sweep_unique": coarse.unique_requests + fine.unique_requests,
                "sweep_hits": coarse.store_hits + fine.store_hits,
            },
        )

    def validate(self, artifact) -> int:
        """Every stored outcome of both grids passes the validator."""
        instance, store_dir = artifact
        store = ResultStore(store_dir)
        violations = 0
        for grid in (COARSE_GRID, FINE_GRID):
            for point in expand_grid(instance, GridSpec(**grid)):
                if point.request is None:
                    continue
                outcome = store.get(point.request)
                if outcome is None:
                    violations += 1
                    continue
                violations += len(
                    check_schedule(
                        point.request.instance,
                        outcome.schedule,
                        allow_module_reuse=point.algorithm.startswith("is-"),
                    ).violations
                )
        return violations


# -- online-long ----------------------------------------------------------------


def _trace(trace_seed: int, jobs: int):
    return (
        ArrivalTrace.from_dict(generate_trace(seed=trace_seed, jobs=jobs).to_dict()),
        FaultPlan([TransientTaskFaults(rate=0.05, seed=trace_seed)]),
    )


class OnlineLong(Workload):
    name = "online-long"
    why = (
        "overloaded 50-job multi-tenant arrival traces with transient faults: "
        "replanning over a growing backlog; no store, HTTP or floorplanner"
    )
    pass_seconds = 2.8
    traces = 4

    def build(self) -> None:
        self.ops = self._cut([_trace(CORPUS_SEED * 100 + j, 50) for j in range(self.traces)])
        self.warm = _trace(CORPUS_SEED * 100 + 99, 8)

    def execute(self, op, tag: str):
        trace, faults = op
        return online.run_online(trace, faults=faults)

    def result(self, gid: int, op, outcome, latency: float) -> OpResult:
        events = outcome.event_log()
        return OpResult(
            gid,
            latency,
            digest=digest(events),
            artifact=(op[0], outcome),
            extra={
                "replan_s": sum(wall for _mode, wall in outcome.replans),
                "replans": len(outcome.replans),
                "replans_incremental": outcome.replan_incremental,
                "events": len(events),
            },
        )

    def validate(self, artifact) -> int:
        trace, outcome = artifact
        return len(check_online_trace(trace, outcome).violations)


# -- serve-cold / serve-warm -------------------------------------------------------


def _proc_table() -> dict[int, tuple[int, float]]:
    """``{pid: (ppid, cpu seconds)}`` for every live process."""
    ticks = os.sysconf("SC_CLK_TCK")
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        table[int(entry)] = (int(fields[1]), (int(fields[11]) + int(fields[12])) / ticks)
    return table


def _descendants(root: int, table: dict) -> list[int]:
    found = [root]
    for pid in found:
        found.extend(child for child, (ppid, _cpu) in table.items() if ppid == pid)
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


class _Serve(Workload):
    """``repro serve`` in a subprocess, driven by two closed-loop clients
    (two threads, one connection each)."""

    clients = 2
    proc = None  # the daemon, while one runs
    url = None
    sizes = tuple(range(10, 61, 10))
    per_size = 2
    algorithms = (("pa", {}), ("is-1", {}), ("pa-r", {"iterations": 8}))

    def build(self) -> None:
        self.instances = [
            canonical_instance(size, CORPUS_SEED * 100 + j)
            for j in range(self.per_size)
            for size in self.sizes
        ]
        self.instance_dicts = [instance.to_dict() for instance in self.instances]
        full = [
            (k, algorithm, options)
            for k in range(len(self.instances))
            for algorithm, options in self.algorithms
        ]
        # Op i of round r has golden index r * round_len + i at any scale.
        self.round_len = len(full)
        self.base = self._cut(full)
        self.warm = canonical_instance(15, CORPUS_SEED * 100 + 99)
        self.store_dir = self.workdir / "store"
        self._seen: set[int] = set()  # gids whose output is kept for validation
        self._lock = threading.Lock()

    def request(self, round_index: int, i: int) -> ScheduleRequest:
        k, algorithm, options = self.base[i]
        return ScheduleRequest(
            self.instances[k], algorithm, options=dict(options), seed=round_index
        )

    def payload(self, round_index: int, i: int) -> dict:
        """The wire form of :meth:`request`, sharing the instance dict."""
        k, algorithm, options = self.base[i]
        return {
            "instance": self.instance_dicts[k],
            "algorithm": algorithm,
            "options": dict(options),
            "seed": round_index,
            "budget": None,
        }

    # -- daemon lifecycle ---------------------------------------------------

    def start(self) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._stderr = open(self.workdir / "serve.log", "ab")
        self._workers: set[int] = set()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", "2",
                "--store", str(self.store_dir),
                "--log-interval", "0",
            ],
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"serving on (http://\S+)", line)
        self.url = match.group(1) if match else None
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")

    def _track_workers(self) -> dict:
        table = _proc_table()
        self._workers.update(_descendants(self.proc.pid, table)[1:])
        return table

    def stop(self) -> None:
        """Shut the daemon down and wait until it and its pool are gone."""
        if self.proc is None:
            return
        self._track_workers()
        if self.url is not None:
            ServiceClient(self.url).shutdown()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        deadline = time.monotonic() + 15.0
        for pid in self._workers:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, 9)
        self.proc = self.url = None

    def cpu_seconds(self) -> float:
        """CPU of the daemon and its pool workers."""
        table = self._track_workers()
        return sum(table[pid][1] for pid in _descendants(self.proc.pid, table))

    def service_metrics(self) -> dict:
        return ServiceClient(self.url).metrics()

    # -- ops ----------------------------------------------------------------

    def post(self, client, gid: int, slot: int, payload: dict, record) -> None:
        timing: dict = {}
        body, latency, error = self.call(
            gid, lambda: client.schedule(payload, retry_backpressure=False, timing=timing)
        )
        if error is not None:
            record(OpResult(gid, latency, error=error, slot=slot))
            return
        outcome = body["outcome"]
        extra = {"server_s": body["elapsed"], "http_s": timing["http_s"], "payload": payload}
        if body["source"] == "computed":
            extra["backend_s"] = outcome["scheduling_time"] + outcome["floorplanning_time"]
            extra["computed_server_s"] = body["elapsed"]
        with self._lock:
            first = gid not in self._seen
            self._seen.add(gid)
        record(
            OpResult(
                gid,
                latency,
                digest=digest(schedule_output(outcome["schedule"], outcome["feasible"])),
                artifact=(payload, outcome["schedule"]) if first else None,
                extra=extra,
                slot=slot,
            )
        )

    def validate(self, artifact) -> int:
        payload, schedule = artifact
        request = request_from_payload(payload)
        return len(
            check_schedule(
                request.instance,
                Schedule.from_dict(schedule),
                allow_module_reuse=request.algorithm.startswith("is-"),
            ).violations
        )

    def golden_outputs(self) -> list[str]:
        out = []
        for round_index in range(self.golden_rounds):
            for i in range(len(self.base)):
                outcome = get_backend(self.base[i][1]).run(self.request(round_index, i))
                out.append(digest(schedule_output(outcome.schedule.to_dict(), outcome.feasible)))
        return out

    def probe(self, results: list[OpResult], tracer) -> None:
        """Replay, in this process and on the daemon's store, the layers a
        served request crosses inside the daemon: parse, key, store read
        and serialisation."""
        store = ResultStore(self.store_dir)
        payloads = [r.extra["payload"] for r in results if "payload" in r.extra]
        step = max(1, len(payloads) // 200)
        for n, payload in enumerate(payloads[::step]):
            span = tracer.begin("op", n)
            try:
                request = request_from_payload(payload)
                key = request.cache_key()
                outcome = store.get(request)
                if outcome is not None:
                    json.dumps({"key": key, "source": "store", "outcome": outcome.to_dict()})
            finally:
                tracer.end(span)


def _run_clients(target, barrier: threading.Barrier | None = None) -> None:
    errors = []

    def guarded(side: int) -> None:
        try:
            target(side)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
            if barrier is not None:
                barrier.abort()

    threads = [threading.Thread(target=guarded, args=(side,)) for side in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class ServeCold(_Serve):
    name = "serve-cold"
    why = (
        "distinct requests to the daemon, one key in four posted by both "
        "clients at once: pool dispatch, pickling, store put and coalescing"
    )
    pass_seconds = 1.5
    golden_rounds = 24
    _warm_round = 0

    def warmup(self) -> None:
        # A key outside the op list, new on every set-up repetition.
        self._warm_round += 1
        ServiceClient(self.url).schedule(
            ScheduleRequest(self.warm, "pa", seed=10_000 + self._warm_round),
            retry_backpressure=False,
        )

    def run_pass(self, index: int, record) -> None:
        """Round ``index``: every op once, keyed apart from other rounds by
        its request seed.  The clients move in lock-step slots of two
        ops; every fourth slot posts one op from both clients at once."""
        order = self.order(index, len(self.base))
        slots = []
        for k in range(len(order) // 2):
            first = order[2 * k]
            slots.append((first, first if k % 4 == 3 else order[2 * k + 1]))
        barrier = threading.Barrier(2)

        def client_loop(side: int) -> None:
            client = ServiceClient(self.url, timeout=120.0)
            for slot in slots:
                i = slot[side]
                gid = index * self.round_len + i
                try:
                    barrier.wait(timeout=120.0)
                except threading.BrokenBarrierError:
                    record(OpResult(gid, 0.0, error="client barrier broken", slot=i))
                    return
                self.post(client, gid, i, self.payload(index, i), record)

        _run_clients(client_loop, barrier)


class ServeWarm(_Serve):
    name = "serve-warm"
    why = (
        "two clients re-requesting pre-stored keys: every answer is a store "
        "hit, so latency is HTTP, JSON, cache-key hashing and the store read"
    )
    pass_seconds = 0.8
    golden_rounds = 1
    per_client = 40

    def build(self) -> None:
        super().build()
        self.payloads = [self.payload(0, i) for i in range(len(self.base))]

    def prepare(self) -> None:
        requests = [self.request(0, i) for i in range(len(self.base))]
        requests.append(ScheduleRequest(self.warm, "pa"))
        report = run_batch(requests, store=ResultStore(self.store_dir), jobs=2)
        failed = [r for r in report.records if r.source == "failed"]
        if failed:
            raise RuntimeError(f"store pre-fill failed: {failed[0].error}")

    def warmup(self) -> None:
        ServiceClient(self.url).schedule(ScheduleRequest(self.warm, "pa"), retry_backpressure=False)

    def run_pass(self, index: int, record) -> None:
        count = 10 if self.smoke else self.per_client

        def client_loop(side: int) -> None:
            rng = random.Random(f"{self.name}:{self.seed}:{index}:{side}")
            client = ServiceClient(self.url, timeout=120.0)
            for _ in range(count):
                i = rng.randrange(len(self.base))
                self.post(client, i, i, self.payloads[i], record)

        _run_clients(client_loop)


WORKLOADS = {
    cls.name: cls
    for cls in (Table1PA, Table1ISK, FleetPA, ExploreRefine, ServeCold, ServeWarm, OnlineLong)
}
