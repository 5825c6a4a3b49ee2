"""Compare two ledgers of ``bench_e2e.py --repeat N``: parent, then change.

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json

Labels every (end-to-end metric, workload) pair, using the metric's
direction and bound from ``BENCHMARK.json``:

* ``improved``: the change wins at least nine in ten run pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: the run-to-run spread (interquartile range over
  median, the larger of the two sides) is wider than the bound, and not
  every run of the change beats every run of the parent;
* ``unchanged``: everything else.

Exits 1 when any pair is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    gain = sign * (med_c - med_p) / med_p  # > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    improved = (
        gain > 0
        and wins >= 0.9 * len(pairs)
        and abs(med_c - med_p) > _iqr(parent)
    )
    spread = max(_iqr(parent) / med_p, _iqr(change) / med_c)
    if spread > bound:
        every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
        if not every_run_better:
            return "unresolved"
    if improved:
        return "improved"
    if gain < -bound:
        return "worse"
    return "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        p_row = parent["workloads"].get(name)
        c_row = change["workloads"].get(name)
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if p_row is None or c_row is None or key not in p_row["metrics"] or key not in c_row["metrics"]:
                rows.append((name, key, "missing", None, None))
                continue
            p_vals = p_row["metrics"][key]["values"]
            c_vals = c_row["metrics"][key]["values"]
            rows.append(
                (
                    name,
                    key,
                    verdict(p_vals, c_vals, metric["bound"], metric["better"]),
                    statistics.median(p_vals),
                    statistics.median(c_vals),
                )
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK,
                        help="BENCHMARK.json with the metric bounds")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    rows = compare(
        json.loads(args.parent.read_text()), json.loads(args.change.read_text()), spec
    )
    for name, key, label, med_p, med_c in rows:
        if med_p is None:
            print(f"{name:15s} {key:18s} {label}")
        else:
            print(f"{name:15s} {key:18s} {label:10s} {med_p:12.5g} -> {med_c:12.5g} "
                  f"({(med_c - med_p) / med_p:+.1%})")
    return 1 if any(row[2] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
