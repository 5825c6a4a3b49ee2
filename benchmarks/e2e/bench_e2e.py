"""End-to-end benchmark: seven user-facing workloads, golden-checked.

One workload in this process::

    python3 benchmarks/e2e/bench_e2e.py --workload table1-pa --seed 2016 \
        --seconds 12 --trace 0

prints a short report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).

The whole suite, each workload in a fresh subprocess, repeated
round-robin and summarised into the ledger ``BENCH_e2e.json``::

    python3 benchmarks/e2e/bench_e2e.py --repeat 5 [--trace] [--out DIR]

Set-up (imports, input building, daemon start, one warm-up op) is timed
apart from the measured phase and reported as ``setup_s``.  The measured
phase runs a fixed number of whole passes over the workload's corpus,
sized to last about ``--seconds``.  Afterwards every output is checked
against ``golden.json``, across passes for determinism, and with the
independent validators; any failed op makes the exit code non-zero.
See README.md.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"
LEDGER = HERE / "BENCH_e2e.json"
WORK_ROOT = ROOT / ".bench_e2e"
DEFAULT_SEED = 2016
SETUP_REPS = 3
MIN_PASSES = 3

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
]

# Span self times, per op of the traced phase.
_SELF_TIMES = {
    "core.selection.self_s": "core.selection",
    "core.regions.self_s": "core.regions",
    "core.balancing.self_s": "core.balancing",
    "core.mapping.self_s": "core.mapping",
    "core.reconf.self_s": "core.reconf",
    "core.assemble.self_s": "core.assemble",
    "timing.cpm.self_s": "timing.cpm",
    "floorplan.check.self_s": "floorplan.check",
    "isk.schedule.self_s": "isk.schedule",
    "fleet.partition.self_s": "fleet.partition",
    "fleet.evaluate.self_s": "fleet.evaluate",
    "fleet.compose.self_s": "fleet.compose",
    "fleet.select.self_s": "fleet.select",
    "explore.expand.self_s": "explore.expand",
    "explore.sweep.self_s": "explore.sweep",
    "engine.backend.self_s": "engine.backend",
    "store.get.self_s": "store.get",
    "store.put.self_s": "store.put",
    "canonical.cache_key.self_s": "canonical.cache_key",
    "canonical.outcome_to_dict.self_s": "canonical.outcome_to_dict",
}
_CALLS = {
    "timing.cpm.calls": "timing.cpm",
    "floorplan.check.calls": "floorplan.check",
    "store.get.calls": "store.get",
}
# Layers a serve workload crosses inside the daemon: read from the probe.
_PROBED = {"store.get", "store.put", "canonical.cache_key", "canonical.outcome_to_dict"}

PER_LAYER = (
    [(name, "s/op") for name in _SELF_TIMES]
    + [(name, "1/op") for name in _CALLS]
    + [
        ("core.pa.shrink_iterations", "1/op"),
        ("floorplan.solver_s", "s/op"),
        ("floorplan.cache_hit_ratio", "ratio"),
        ("isk.nodes", "1/op"),
        ("isk.us_per_node", "us"),
        ("fleet.candidates", "1/op"),
        ("explore.unique_ratio", "ratio"),
        ("explore.store_hit_ratio", "ratio"),
        ("store.hit_ratio", "ratio"),
        ("service.server_s", "s/op"),
        ("service.transport_s", "s/op"),
        ("service.backend_s", "s/op"),
        ("service.dispatch_s", "s/op"),
        ("service.coalesced_ratio", "ratio"),
        ("service.hit_ratio", "ratio"),
        ("service.queue_peak", "count"),
        ("online.replan_s", "s/op"),
        ("online.dispatch_s", "s/op"),
        ("online.replans", "1/op"),
        ("online.incremental_ratio", "ratio"),
        ("online.events", "1/op"),
        ("online.us_per_event", "us"),
        ("validate.self_s", "s/op"),
        ("validate.violations", "count"),
        ("trace.unaccounted_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def _import_program():
    """Import the program from this checkout's ``src`` (and only there)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench_e2e: no program sources at {src}")
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"bench_e2e: imported repro from {repro.__file__}, not {src}")
    import workloads

    return workloads


# -- statistics -----------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- one workload ---------------------------------------------------------------


def planned_passes(wl, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    The count depends on ``--seconds`` alone, never on how fast this
    run happens to go, so every run and every commit takes the same
    number of samples of each op.
    """
    if wl.smoke:
        return 1
    return max(MIN_PASSES, round(seconds / wl.pass_seconds))


def _run_passes(wl, count: int, first: int = 0):
    """``count`` whole passes; one ``(results, wall_s, cpu_s)`` each."""
    done: list = []
    for index in range(first, first + count):
        results: list = []
        cpu0 = wl.cpu_seconds()
        t0 = time.perf_counter()
        wl.run_pass(index, results.append)
        wall = time.perf_counter() - t0
        done.append((results, wall, wl.cpu_seconds() - cpu0))
    return done


def _end_to_end(wl, passes, setup_s: float, peak_rss_kb: int) -> dict:
    """The user-facing metrics of the untraced passes.

    One client: the machine flips between speed states about 1.5x apart
    every few seconds, and one op lasts less than a state, so each op's
    latency and CPU time is its fastest run over the passes; percentiles
    are over ops, and throughput is ops per second of those latencies.
    Two clients (serve-*): every request counts; throughput is requests
    per second of wall time and CPU is the daemon's and its workers'.
    """
    if wl.clients == 1:
        latency: dict[int, float] = {}
        cpu: dict[int, float] = {}
        for results, _wall, _cpu in passes:
            for r in results:
                latency[r.slot] = min(latency.get(r.slot, r.latency_s), r.latency_s)
                cpu[r.slot] = min(cpu.get(r.slot, r.cpu_s), r.cpu_s)
        ms = sorted(1e3 * value for value in latency.values())
        throughput = len(ms) / (1e-3 * sum(ms))
        cpu_ms = 1e3 * sum(cpu.values()) / len(cpu)
    else:
        ms = sorted(1e3 * r.latency_s for results, _w, _c in passes for r in results)
        throughput = len(ms) / sum(wall for _r, wall, _c in passes)
        cpu_ms = 1e3 * sum(cpu_s for _r, _w, cpu_s in passes) / len(ms)
    return {
        "setup_s": setup_s,
        "throughput_ops_s": throughput,
        "latency_p50_ms": percentile(ms, 0.50),
        "latency_p90_ms": percentile(ms, 0.90),
        "cpu_ms_per_op": cpu_ms,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _check_outputs(wl, results, golden_ops: list[str] | None):
    """Golden digests, cross-pass determinism and the validators.

    The validators see the first output of each op; every other run of
    the op must then have the same digest."""
    first: dict[int, str] = {}
    bad: set[int] = set()
    seen: set[int] = set()
    violations = 0
    validated = 0
    validate_s = 0.0
    failed = 0
    for result in results:
        if result.error is not None:
            continue
        if result.artifact is not None and result.gid not in seen:
            seen.add(result.gid)
            t0 = time.perf_counter()
            found = wl.validate(result.artifact)
            validate_s += time.perf_counter() - t0
            validated += 1
            violations += found
            if found:
                bad.add(result.gid)
    for result in results:
        wrong = result.error is not None or result.gid in bad
        if not wrong:
            expected = first.setdefault(result.gid, result.digest)
            wrong = expected != result.digest
            if golden_ops is not None and result.gid < len(golden_ops):
                wrong = wrong or golden_ops[result.gid] != result.digest
        failed += wrong
    return failed, violations, validated, validate_s


def _sum_extras(results) -> dict:
    totals: dict = {}
    for result in results:
        for key, value in result.extra.items():
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + value
    return totals


def _layer_metrics(summary, counters, probe_summary, extras, ops, service, check, overhead):
    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    out = {}
    for metric, span in _SELF_TIMES.items():
        source = probe_summary if probe_summary is not None and span in _PROBED else summary
        per = probe_summary["op"]["calls"] if source is probe_summary else ops
        out[metric] = _ratio(source.get(span, {}).get("self_s", 0.0), per)
    for metric, span in _CALLS.items():
        source = probe_summary if probe_summary is not None and span in _PROBED else summary
        per = probe_summary["op"]["calls"] if source is probe_summary else ops
        out[metric] = _ratio(source.get(span, {}).get("calls", 0), per)

    nodes = counters.get("isk.nodes", 0.0)
    store_hits, store_misses = counters.get("store.hits", 0.0), counters.get("store.misses", 0.0)
    if service is not None:
        store = service["after"]["store"] or {}
        before = service["before"]["store"] or {}
        store_hits = store.get("hits", 0) - before.get("hits", 0)
        store_misses = store.get("misses", 0) - before.get("misses", 0)
    out.update(
        {
            "core.pa.shrink_iterations": _ratio(extras.get("shrink_iterations", 0), extras.get("pa_ops", 0)),
            "floorplan.solver_s": _ratio(counters.get("floorplan.engine_time", 0.0), ops),
            "floorplan.cache_hit_ratio": _ratio(
                counters.get("floorplan.cache_hits", 0.0), counters.get("floorplan.queries", 0.0)
            ),
            "isk.nodes": _ratio(nodes, ops),
            "isk.us_per_node": _ratio(1e6 * self_s("isk.schedule"), nodes),
            "fleet.candidates": _ratio(extras.get("candidates", 0), extras.get("fleet_ops", 0)),
            "explore.unique_ratio": _ratio(extras.get("sweep_unique", 0), extras.get("sweep_points", 0)),
            "explore.store_hit_ratio": _ratio(extras.get("sweep_hits", 0), extras.get("sweep_unique", 0)),
            "store.hit_ratio": _ratio(store_hits, store_hits + store_misses),
        }
    )

    server_s = extras.get("server_s", 0.0)
    backend_s = extras.get("backend_s", 0.0)
    requests = coalesced = hits = queue_peak = 0
    if service is not None:
        after, before = service["after"], service["before"]
        requests = after["requests"] - before["requests"]
        coalesced = after["coalesced"] - before["coalesced"]
        hits = after["store_hits"] - before["store_hits"]
        queue_peak = after["queue_peak"]
    out.update(
        {
            "service.server_s": _ratio(server_s, ops),
            "service.transport_s": _ratio(extras.get("http_s", 0.0) - server_s, ops),
            "service.backend_s": _ratio(backend_s, ops),
            "service.dispatch_s": _ratio(extras.get("computed_server_s", 0.0) - backend_s, ops),
            "service.coalesced_ratio": _ratio(coalesced, requests),
            "service.hit_ratio": _ratio(hits, requests),
            "service.queue_peak": queue_peak,
        }
    )

    replan_s = extras.get("replan_s", 0.0)
    online_s = summary.get("online.run", {}).get("total_s", 0.0)
    events = extras.get("events", 0)
    out.update(
        {
            "online.replan_s": _ratio(replan_s, ops),
            "online.dispatch_s": _ratio(online_s - replan_s, ops) if online_s else 0.0,
            "online.replans": _ratio(extras.get("replans", 0), ops),
            "online.incremental_ratio": _ratio(
                extras.get("replans_incremental", 0), extras.get("replans", 0)
            ),
            "online.events": _ratio(events, ops),
            "online.us_per_event": _ratio(1e6 * online_s, events),
        }
    )

    _failed, violations, validated, validate_s = check
    root = summary.get("op", {"self_s": 0.0, "total_s": 0.0})
    out.update(
        {
            "validate.self_s": _ratio(validate_s, validated),
            "validate.violations": violations,
            "trace.unaccounted_ratio": _ratio(root["self_s"], root["total_s"]),
            "trace.overhead_ratio": overhead,
        }
    )
    return out


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    golden_path: Path = GOLDEN,
    out_dir: Path | None = None,
) -> dict:
    """Set up, measure and check one workload in this process."""
    workloads = _import_program()
    import_s = time.perf_counter() - _T_START
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    wl = workloads.WORKLOADS[name](seed, smoke, workdir)
    try:
        once_s = 0.0
        rep_s = []
        reps = 1 if smoke else SETUP_REPS
        for rep in range(reps):
            t0 = time.perf_counter()
            wl.build()
            built = time.perf_counter() - t0
            if rep == 0:
                t0 = time.perf_counter()
                wl.prepare()
                once_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            wl.start()
            wl.warmup()
            rep_s.append(built + time.perf_counter() - t0)
            if rep < reps - 1:
                wl.stop()
        setup_s = import_s + once_s + statistics.median(rep_s)
        # Set-up objects stay alive for the whole run; keep the collector
        # from re-scanning them during the measured phase.
        gc.collect()
        gc.freeze()

        count = planned_passes(wl, seconds)
        if trace:  # half untraced, for the overhead figure; half traced
            count = max(1, count // 2)
        untraced = _run_passes(wl, count)
        results = [r for pass_results, _wall, _cpu in untraced for r in pass_results]

        tracer = probe = None
        if trace:
            from tracing import Tracer, install_program_spans

            service_before = wl.service_metrics()
            tracer = Tracer()
            install_program_spans(tracer)
            wl.tracer = tracer
            try:
                traced_passes = _run_passes(wl, count, first=count)
            finally:
                wl.tracer = None
                tracer.unwrap_all()
            traced = [r for pass_results, _wall, _cpu in traced_passes for r in pass_results]
            overhead = sum(p[1] for p in traced_passes) / sum(p[1] for p in untraced) - 1.0
            service_after = wl.service_metrics()
            if service_before is not None:
                probe = Tracer()
                install_program_spans(probe)
                try:
                    wl.probe(traced, probe)
                finally:
                    probe.unwrap_all()
            results = results + traced
        wl.stop()
        peak_rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )

        golden_ops = None
        if golden_path.is_file():
            entry = json.loads(golden_path.read_text())["workloads"].get(name)
            golden_ops = entry["per_op"] if entry else None
        check = _check_outputs(wl, results, golden_ops)
    finally:
        wl.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    failed, violations = check[0], check[1]
    report = {
        "workload": name,
        "seed": seed,
        "passes": len(untraced),
        "golden": golden_ops is not None,
        "correct": failed == 0 and violations == 0,
        "attempted": len(results),
        "failed": failed,
    }
    if trace:
        summary = tracer.summary()
        values = _layer_metrics(
            summary,
            tracer.counters,
            probe.summary() if probe is not None and probe.spans else None,
            _sum_extras(traced),
            len(traced),
            {"before": service_before, "after": service_after} if service_before else None,
            check,
            overhead,
        )
        report["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        report["span_calls"] = {span: row["calls"] for span, row in summary.items()}
        report["nesting_violations"] = tracer.nesting_violations()
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir / f"trace-{name}.json")
    else:
        values = _end_to_end(wl, untraced, setup_s, peak_rss_kb)
        report["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return report


def _print_report(report: dict) -> None:
    print(
        f"{report['workload']} seed={report['seed']}: {report['attempted']} ops "
        f"in {report['passes']} pass(es), {report['failed']} failed, "
        f"golden {'checked' if report['golden'] else 'absent'}"
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    result = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)


# -- golden digests -------------------------------------------------------------


def write_golden(names: list[str], golden_path: Path) -> None:
    """Recompute the golden digests of ``names`` in-process (no timing)."""
    import hashlib

    workloads = _import_program()
    data = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
    data["about"] = (
        "Per-op output digests (sha256 of canonical JSON, first "
        f"{workloads.DIGEST_LEN} hex chars) of each workload's corpus, by golden "
        "index; 'digest' is the sha256 of the joined per-op digests. The seed "
        "only orders the ops, so these hold for every seed."
    )
    table = data.setdefault("workloads", {})
    WORK_ROOT.mkdir(exist_ok=True)
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"golden-{name}-", dir=WORK_ROOT))
        try:
            wl = workloads.WORKLOADS[name](DEFAULT_SEED, False, workdir)
            wl.build()
            per_op = wl.golden_outputs()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        table[name] = {
            "ops": len(per_op),
            "digest": hashlib.sha256("".join(per_op).encode()).hexdigest(),
            "per_op": per_op,
        }
        print(f"golden {name}: {len(per_op)} ops", file=sys.stderr)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    golden_path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# -- the suite ------------------------------------------------------------------


def _spawn(name: str, args, trace: bool, out_dir: Path | None) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if trace else "0",
        "--golden", str(args.golden),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if out_dir is not None:
        cmd += ["--out", str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit_code"] = proc.returncode
    return result


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_suite(args, names: list[str]) -> int:
    import numpy

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(args.repeat):
        for name in names:  # round-robin, so drift spreads over workloads
            result = _spawn(name, args, trace=False, out_dir=None)
            runs[name].append(result)
            print(
                f"[{rep + 1}/{args.repeat}] {name}: correct={result['correct']} "
                f"ops={result['attempted']} failed={result['failed']}",
                file=sys.stderr,
            )
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = _spawn(name, args, trace=True, out_dir=args.out)

    ledger = {
        "about": (
            "End-to-end benchmark ledger written by benchmarks/e2e/bench_e2e.py "
            "--repeat N: per workload and metric, every run's value with median "
            "and quartiles. The serve-* and online-long entries replace the "
            "trajectories bench_service.py and bench_online.py never wrote."
        ),
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for name in names:
        entries = runs[name]
        ok = ok and all(r["correct"] and r["exit_code"] == 0 for r in entries)
        metrics = {}
        for metric, unit in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in entries if metric in r["metrics"]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            metrics[metric] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3, "values": values,
            }
        row = {
            "runs": len(entries),
            "correct": all(r["correct"] for r in entries),
            "attempted": [r["attempted"] for r in entries],
            "failed": [r["failed"] for r in entries],
            "metrics": metrics,
        }
        if name in traced:
            ok = ok and traced[name]["correct"]
            row["per_layer"] = traced[name]["metrics"]
        ledger["workloads"][name] = row

    path = (args.out / LEDGER.name) if args.out is not None else LEDGER
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    for name, row in ledger["workloads"].items():
        cells = " ".join(
            f"{metric}={m['median']:.4g}[{m['q1']:.4g},{m['q3']:.4g}]"
            for metric, m in row["metrics"].items()
        )
        print(f"{name} (n={row['runs']}, ops/run={row['attempted']}): {cells}")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if ok else 1


def _default_seconds() -> float:
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 12.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured-phase length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite mode: runs per workload, round-robin")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the ledger and trace span files")
    parser.add_argument("--smoke", action="store_true",
                        help="about a tenth of each op list, one pass, one set-up")
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="golden digest file to check outputs against")
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute the golden digests and exit")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _default_seconds()

    names = list(_import_program().WORKLOADS)
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.write_golden:
        write_golden([args.workload] if args.workload else names, args.golden)
        return 0
    if args.workload is None:
        return run_suite(args, names)
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, golden_path=args.golden, out_dir=args.out,
    )
    _print_report(report)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
