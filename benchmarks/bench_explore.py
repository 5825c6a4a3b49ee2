"""Design-space exploration benchmark: the three sweep-engine gates.

The sweep engine (``repro.explore``, DESIGN.md § 15) stacks three perf
layers on top of the engine; each gets a targeted workload and a hard
gate here:

1. **Store-first re-sweep** — an IS-k-heavy grid swept twice against
   one store: the warm pass answers every unique request from disk
   and must be >= 10x faster than the cold pass.
2. **Cross-point warm starts** — a floorplan-heavy pa grid (region
   budgets x reconfiguration frequencies, all hammering overlapping
   demand sets) swept with a shared per-fabric floorplanner vs. the
   same grid with warm starts disabled (= fresh planner per cell:
   genuinely independent solves).  The warm sweep must be
   measurably faster on CPU time, must show real warm-start work
   (planner cache hits), and must select *decision-identical*
   schedules.  The timing probe runs in a subprocess with
   ``PYTHONHASHSEED=0`` and GC parked: hash-seed-dependent dict
   iteration shifts per-query cost by more than the warm-start margin,
   so an unpinned comparison measures the hash seed, not the engine.
3. **Deterministic parallel drain** — serial and ``jobs=2`` sweeps of
   a mixed pa / IS-k grid must produce bit-identical canonical payloads
   (wall-clock fields stripped).

Runs standalone (JSON out) or under pytest::

    python benchmarks/bench_explore.py --quick --out bench.json
    pytest benchmarks/bench_explore.py -q
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchgen import paper_instance
from repro.engine import ResultStore
from repro.explore import GridSpec, run_sweep

MIN_WARM_RESWEEP_SPEEDUP = 10.0
MIN_WARM_START_SPEEDUP = 1.05
_PROBE_REPS = 4  # alternating best-of-N per mode inside the probe

_PROFILES = {
    "quick": dict(
        tasks=16,
        seed=3,
        resweep=dict(
            algorithms=["pa", "is-3", "is-4"],
            rec_freqs=[None, 1600.0],
            fabric_scales=[1.0, 0.9],
            seeds=[0],
        ),
        warmstart=dict(
            algorithms=["pa"],
            rec_freqs=[None, 3200.0, 2400.0, 1600.0, 1200.0, 800.0],
            region_budgets=[None, 2, 4, 8],
            fabric_scales=[1.0, 0.9],
        ),
        parallel=dict(
            algorithms=["pa", "is-1", "is-2", "is-3"],
            rec_freqs=[None, 1600.0],
            fabric_scales=[1.0, 0.9],
            seeds=[0],
        ),
    ),
    "full": dict(
        # Same instance as quick (its IS-4 search tree is the deep
        # one); the full profile widens every axis instead.
        tasks=16,
        seed=3,
        resweep=dict(
            algorithms=["pa", "is-3", "is-4"],
            rec_freqs=[None, 1600.0, 800.0],
            fabric_scales=[1.0, 0.9],
            seeds=[0],
        ),
        warmstart=dict(
            algorithms=["pa"],
            rec_freqs=[None, 3200.0, 2400.0, 1600.0, 1200.0, 800.0, 400.0],
            region_budgets=[None, 1, 2, 4, 6, 8],
            fabric_scales=[1.0, 0.9],
        ),
        parallel=dict(
            algorithms=["pa", "is-1", "is-2", "is-3"],
            rec_freqs=[None, 1600.0, 800.0],
            fabric_scales=[1.0, 0.9],
            seeds=[0],
        ),
    ),
}


def _decision_signature(report) -> list:
    """Per-record decisions: what the sweep *selected*, no provenance
    (elapsed, node counts, planner stats legitimately differ)."""
    return [
        (r.index, r.content_hash, r.feasible, r.makespan, r.on_front)
        for r in report.records
    ]


def _warmstart_probe(profile: str) -> dict:
    """The gate-2 measurement body — runs in the pinned subprocess."""
    params = _PROFILES[profile]
    instance = paper_instance(params["tasks"], seed=params["seed"])
    spec = GridSpec(**params["warmstart"])
    # One untimed pass fills the process-level device memos so both
    # modes start from identical engine state.
    run_sweep(instance, spec, warm_starts=False)
    best = {False: float("inf"), True: float("inf")}
    reports = {}
    gc.disable()
    try:
        for rep in range(2 * _PROBE_REPS):
            mode = rep % 2 == 1
            gc.collect()
            t0 = time.process_time()
            reports[mode] = run_sweep(instance, spec, warm_starts=mode)
            best[mode] = min(best[mode], time.process_time() - t0)
    finally:
        gc.enable()
    warm = reports[True]
    return {
        "points": warm.total_points,
        "unique": warm.unique_requests,
        "independent_cpu_s": best[False],
        "warm_starts_cpu_s": best[True],
        "decisions_identical": _decision_signature(warm)
        == _decision_signature(reports[False]),
        "planner_cache_hits": warm.planner_stats.get("cache_hits", 0),
    }


def _run_warmstart_probe(profile: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--warmstart-probe", profile],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def run_explore_benchmark(profile: str = "quick") -> dict:
    params = _PROFILES[profile]
    instance = paper_instance(params["tasks"], seed=params["seed"])
    root = Path(tempfile.mkdtemp(prefix="bench-explore-"))
    try:
        # Gate 1: cold sweep, then warm re-sweep over the same store.
        resweep_spec = GridSpec(**params["resweep"])
        store = ResultStore(root / "cache")
        t0 = time.perf_counter()
        cold = run_sweep(instance, resweep_spec, store=store)
        cold_s = time.perf_counter() - t0
        assert cold.executed == cold.unique_requests, "cold must compute all"

        t0 = time.perf_counter()
        warm = run_sweep(instance, resweep_spec, store=store)
        warm_s = time.perf_counter() - t0
        assert warm.executed == 0 and warm.hit_rate == 1.0, (
            f"warm re-sweep must be 100% store hits: "
            f"{warm.store_hits}/{warm.unique_requests}"
        )
        assert warm.front == cold.front, "warm front diverged"
        resweep_speedup = cold_s / warm_s if warm_s else float("inf")

        # Gate 2a: warm starts vs independent solves, pinned probe.
        probe = _run_warmstart_probe(profile)
        assert probe["decisions_identical"], (
            "warm-start sweep selected different schedules"
        )
        warm_work = probe["planner_cache_hits"]
        assert warm_work > 0, "warm starts did no measurable work"
        warmstart_speedup = (
            probe["independent_cpu_s"] / probe["warm_starts_cpu_s"]
            if probe["warm_starts_cpu_s"]
            else float("inf")
        )

        # Gate 3: serial == parallel, bit-identical canonical payload.
        parallel_spec = GridSpec(**params["parallel"])
        serial = run_sweep(
            instance, parallel_spec, store=ResultStore(root / "s1"), jobs=1
        )
        parallel = run_sweep(
            instance, parallel_spec, store=ResultStore(root / "s2"), jobs=2
        )
        assert parallel.chains > 1, "need >1 chain to exercise the pool"
        parallel_identical = (
            serial.canonical_payload() == parallel.canonical_payload()
        )
        assert parallel_identical, "serial vs jobs=2 payload mismatch"

        return {
            "profile": profile,
            "grids": {
                "resweep": {
                    "points": cold.total_points,
                    "unique": cold.unique_requests,
                },
                "warmstart": {
                    "points": probe["points"],
                    "unique": probe["unique"],
                },
                "parallel": {
                    "points": parallel.total_points,
                    "chains": parallel.chains,
                },
            },
            "timings_s": {
                "cold": cold_s,
                "warm_resweep": warm_s,
                "independent_cpu": probe["independent_cpu_s"],
                "warm_starts_cpu": probe["warm_starts_cpu_s"],
            },
            "speedup": {
                "warm_resweep_vs_cold": resweep_speedup,
                "warm_starts_vs_independent": warmstart_speedup,
            },
            "warm_start_work": {
                "planner_cache_hits": probe["planner_cache_hits"],
            },
            "front": cold.front,
            "gates": {
                "warm_resweep_10x": resweep_speedup
                >= MIN_WARM_RESWEEP_SPEEDUP,
                "warm_starts_faster": warmstart_speedup
                >= MIN_WARM_START_SPEEDUP,
                "warm_starts_did_work": warm_work > 0,
                "warm_start_decisions_identical": True,  # asserted above
                "serial_parallel_identical": parallel_identical,
            },
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- pytest entry point ------------------------------------------------------


def test_explore_gates():
    report = run_explore_benchmark("quick")
    print(
        f"\nexplore: re-sweep x"
        f"{report['speedup']['warm_resweep_vs_cold']:.1f}, "
        f"warm starts x"
        f"{report['speedup']['warm_starts_vs_independent']:.2f} "
        f"({report['warm_start_work']['planner_cache_hits']} planner hits)"
    )
    failed = [name for name, ok in report["gates"].items() if not ok]
    assert not failed, f"gates failed: {failed}: {report}"


# -- script mode ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI profile (smaller grids)")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--no-trajectory", action="store_true",
        help="skip refreshing BENCH_explore.json at the repo root",
    )
    parser.add_argument("--warmstart-probe", metavar="PROFILE", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.warmstart_probe:
        print(json.dumps(_warmstart_probe(args.warmstart_probe)))
        return 0

    from _suite import write_trajectory

    profile = "quick" if args.quick else "full"
    report = run_explore_benchmark(profile)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    if not args.no_trajectory:
        path = write_trajectory("explore", report)
        print(f"wrote {path}", file=sys.stderr)
    return 0 if all(report["gates"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
