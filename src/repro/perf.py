"""Phase-level profiling for the scheduling pipeline.

This module shows where one run's time goes, phase by phase; whether a
speedup counts is decided on the end-to-end ledger
(``benchmarks/e2e``), not here.  Two layers:

* hand-placed **phase markers** — ``with phase("mapping"): ...`` at the
  coarse pipeline boundaries (the eight PA steps, the floorplan check,
  the timing passes) accumulate wall/CPU time and call counts per
  phase.  When profiling is off a marker costs one attribute load and a
  truthiness check, so the markers stay in production code paths.
* an optional **cProfile capture** for function-level hotspots, folded
  into the same JSON report (top functions by cumulative time).

Typical use (what ``repro schedule --profile`` does)::

    from repro import perf
    with perf.profile(cprofile=True) as prof:
        result = pa_schedule(instance, options, floorplanner=planner)
    print(json.dumps(prof.report(), indent=2))

The profiler is intentionally a process-global singleton: the markers
live deep inside the pipeline and threading a profiler object through
every call would couple all layers to it.  Nested ``phase`` blocks
attribute time to the innermost marker only (self-time accounting), so
phase percentages sum to ≤ 100% of the profiled wall clock.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import time
from contextlib import contextmanager

__all__ = ["PhaseProfiler", "PROFILER", "phase", "count", "profile"]


class PhaseProfiler:
    """Accumulates per-phase wall/CPU self-time and counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.phases: dict[str, dict[str, float]] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, wall0, cpu0, child_wall, child_cpu]
        self._t0_wall = 0.0
        self._t0_cpu = 0.0
        self._total_wall = 0.0
        self._total_cpu = 0.0
        self._cprofile: cProfile.Profile | None = None

    # -- markers ------------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Attribute the enclosed block's self-time to ``name``."""
        if not self.enabled:
            yield
            return
        frame = [name, time.perf_counter(), time.process_time(), 0.0, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            wall = time.perf_counter() - frame[1]
            cpu = time.process_time() - frame[2]
            cell = self.phases.setdefault(
                name, {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0}
            )
            # Self-time: subtract what nested markers already claimed.
            cell["wall_s"] += wall - frame[3]
            cell["cpu_s"] += cpu - frame[4]
            cell["calls"] += 1
            if self._stack:
                parent = self._stack[-1]
                parent[3] += wall
                parent[4] += cpu

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    # -- session ------------------------------------------------------------

    def start(self, cprofile: bool = False) -> None:
        self.reset()
        self.enabled = True
        self._t0_wall = time.perf_counter()
        self._t0_cpu = time.process_time()
        if cprofile:
            self._cprofile = cProfile.Profile()
            self._cprofile.enable()

    def stop(self) -> None:
        if self._cprofile is not None:
            self._cprofile.disable()
        self._total_wall = time.perf_counter() - self._t0_wall
        self._total_cpu = time.process_time() - self._t0_cpu
        self.enabled = False

    def report(self, top: int = 15) -> dict:
        """JSON-ready breakdown: totals, per-phase rows, counters,
        and (when cProfile ran) the top functions by cumulative time."""
        total = self._total_wall
        rows = {
            name: {
                "wall_s": cell["wall_s"],
                "cpu_s": cell["cpu_s"],
                "calls": cell["calls"],
                "wall_pct": 100.0 * cell["wall_s"] / total if total else 0.0,
            }
            for name, cell in sorted(
                self.phases.items(), key=lambda kv: -kv[1]["wall_s"]
            )
        }
        accounted = sum(cell["wall_s"] for cell in self.phases.values())
        out = {
            "total_wall_s": total,
            "total_cpu_s": self._total_cpu,
            "accounted_wall_s": accounted,
            "phases": rows,
            "counters": dict(sorted(self.counters.items())),
        }
        if self._cprofile is not None:
            out["hotspots"] = self._hotspots(top)
        return out

    def _hotspots(self, top: int) -> list[dict]:
        stream = io.StringIO()
        stats = pstats.Stats(self._cprofile, stream=stream)
        rows: list[dict] = []
        for func, (cc, nc, tt, ct, _callers) in sorted(
            stats.stats.items(), key=lambda kv: -kv[1][3]
        )[:top]:
            filename, lineno, name = func
            rows.append(
                {
                    "function": f"{filename}:{lineno}:{name}",
                    "calls": nc,
                    "tottime_s": tt,
                    "cumtime_s": ct,
                }
            )
        return rows

    def dump(self, path: str, top: int = 15) -> None:
        with open(path, "w") as fh:
            json.dump(self.report(top), fh, indent=2)
            fh.write("\n")


#: Process-global profiler the pipeline markers talk to.
PROFILER = PhaseProfiler()


def phase(name: str):
    """Module-level shorthand for ``PROFILER.phase(name)``."""
    return PROFILER.phase(name)


def count(name: str, n: int = 1) -> None:
    PROFILER.count(name, n)


@contextmanager
def profile(cprofile: bool = False):
    """Enable the global profiler for the enclosed block.

    Yields :data:`PROFILER`; call :meth:`PhaseProfiler.report` after the
    block for the JSON breakdown.
    """
    PROFILER.start(cprofile=cprofile)
    try:
        yield PROFILER
    finally:
        PROFILER.stop()
