"""Self-test of the end-to-end benchmark at smoke scale.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Every workload runs in this process with about a tenth of its op list,
once untraced and once traced, and a tampered golden file is run in a
subprocess to check the exit code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bench_e2e

HERE = Path(__file__).resolve().parent
NAMES = ["table1-pa", "table1-isk", "fleet-pa", "explore-refine", "serve-cold",
         "serve-warm", "online-long"]

# Span -> the workload that must reach it.
EXERCISED = {
    "core.selection": "table1-pa",
    "core.regions": "table1-pa",
    "core.balancing": "table1-pa",
    "core.mapping": "table1-pa",
    "core.reconf": "table1-pa",
    "core.assemble": "table1-pa",
    "timing.cpm": "table1-pa",
    "floorplan.check": "table1-pa",
    "engine.backend": "table1-pa",
    "isk.schedule": "table1-isk",
    "fleet.partition": "fleet-pa",
    "fleet.evaluate": "fleet-pa",
    "fleet.compose": "fleet-pa",
    "fleet.select": "fleet-pa",
    "explore.expand": "explore-refine",
    "explore.sweep": "explore-refine",
    "store.get": "explore-refine",
    "store.put": "explore-refine",
    "canonical.cache_key": "explore-refine",
    "canonical.outcome_to_dict": "explore-refine",
    "service.client": "serve-warm",
    "online.run": "online-long",
}
# Span -> the workload that must never reach it (its control).
CONTROLS = {
    "timing.cpm": "table1-isk",
    "floorplan.check": "table1-isk",
    "store.get": "online-long",
    "store.put": "online-long",
}


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in NAMES:
        for trace in (False, True):
            out[name, trace] = bench_e2e.run_workload(name, 2016, 1.0, trace, smoke=True)
    return out


def test_every_run_is_correct(reports):
    for (name, trace), report in reports.items():
        assert report["correct"], (name, trace, report["failed"])
        assert report["golden"], f"{name}: no golden digests"
        assert report["failed"] == 0 and report["attempted"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench_e2e.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_e2e.PER_LAYER


def test_every_metric_is_emitted_with_its_unit(reports):
    for (name, trace), report in reports.items():
        declared = bench_e2e.PER_LAYER if trace else bench_e2e.END_TO_END
        assert [(k, v["unit"]) for k, v in report["metrics"].items()] == declared, name
        for metric in report["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        if not trace:
            assert all(v["value"] > 0 for v in report["metrics"].values()), name


def test_wrappers_reach_their_layer_and_miss_their_control(reports):
    for span, name in EXERCISED.items():
        assert reports[name, True]["span_calls"].get(span, 0) > 0, (span, name)
    for span, name in CONTROLS.items():
        assert reports[name, True]["span_calls"].get(span, 0) == 0, (span, name)


def test_child_spans_stay_inside_their_parent(reports):
    for name in NAMES:
        assert reports[name, True]["nesting_violations"] == 0, name


def test_tampered_golden_fails_every_op(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    entry = golden["workloads"]["table1-pa"]
    entry["per_op"] = ["0" * len(d) for d in entry["per_op"]]
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--workload", "table1-pa",
         "--smoke", "--golden", str(tampered)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
