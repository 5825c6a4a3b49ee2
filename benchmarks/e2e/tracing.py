"""Span tree recorded from outside the program, for the ``--trace`` run.

The benchmark attributes time to the repository's layers without
touching ``src/``: :func:`install_program_spans` replaces each layer's
public functions, at the attribute their callers look up, with a
wrapper that opens a span around the original call.  Spans are kept in
memory (name, start, end, parent, op id) and summarised into per-name
call counts, total and self time, where self time is a span's duration
minus the durations of its direct children.

Untraced runs never import this module's wrappers, so their end-to-end
numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index, op id].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: int = -1) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if parent >= 0:
            op = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, op])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the call and its return value is
        handed to ``after(tracer, state, args, result)`` once the call
        returns; both run outside the span.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer, state, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over closed spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _parent, _op), children in zip(
            self.spans, child_time
        ):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return out

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent span."""
        bad = 0
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                if start < p_start or end > p_end:
                    bad += 1
        return bad

    def write(self, path: Path) -> None:
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent, op])
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": list(names),
                    "spans": rows,
                    "counters": dict(self.counters),
                }
            )
        )


# -- the program's layer boundaries --------------------------------------------


def _floorplan_before(args):
    stats = args[0].stats
    return (stats["engine_time"], stats["cache_hits"], stats["dominance_hits"])


def _floorplan_after(tracer, state, args, _result):
    stats = args[0].stats
    tracer.count("floorplan.queries")
    tracer.count("floorplan.engine_time", stats["engine_time"] - state[0])
    tracer.count(
        "floorplan.cache_hits",
        stats["cache_hits"] - state[1] + stats["dominance_hits"] - state[2],
    )


def _isk_after(tracer, _state, _args, result):
    tracer.count("isk.nodes", result.nodes)


def _store_get_after(tracer, _state, _args, result):
    tracer.count("store.hits" if result is not None else "store.misses")


def _backend_classes(base) -> list:
    found = []
    for cls in base.__subclasses__():
        found.append(cls)
        found.extend(_backend_classes(cls))
    return found


def install_program_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Every workload gets the same wrappers, so a layer a workload never
    reaches reads zero calls there (the control for that layer).
    """
    import repro.core.randomized as randomized
    import repro.core.scheduler as scheduler
    import repro.explore.sweep as sweep
    import repro.fleet.scheduler as fleet
    import repro.online.runtime as online
    from repro.baselines.isk import ISKScheduler
    from repro.core.timing import IncrementalStarts, PrecedenceGraph
    from repro.engine.backend import ScheduleOutcome, ScheduleRequest, SchedulerBackend
    from repro.engine.service import ServiceClient
    from repro.engine.store import ResultStore
    from repro.floorplan.floorplanner import Floorplanner

    for attr, name in (
        ("select_implementations", "core.selection"),
        ("define_regions", "core.regions"),
        ("balance_software_tasks", "core.balancing"),
        ("map_software_tasks", "core.mapping"),
        ("schedule_reconfigurations", "core.reconf"),
        ("do_schedule", "core.assemble"),
    ):
        tracer.wrap(scheduler, attr, name)
    tracer.wrap(randomized, "do_schedule", "core.assemble")
    for attr in ("earliest_starts", "latest_ends", "compute_windows"):
        tracer.wrap(PrecedenceGraph, attr, "timing.cpm")
    tracer.wrap(IncrementalStarts, "propagate", "timing.cpm")
    tracer.wrap(
        Floorplanner, "check", "floorplan.check",
        before=_floorplan_before, after=_floorplan_after,
    )
    tracer.wrap(ISKScheduler, "schedule", "isk.schedule", after=_isk_after)
    tracer.wrap(fleet, "candidate_assignments", "fleet.partition")
    tracer.wrap(fleet, "evaluate_assignment", "fleet.evaluate")
    tracer.wrap(fleet, "compose_fleet_schedule", "fleet.compose")
    tracer.wrap(fleet, "fleet_schedule", "fleet.select")
    tracer.wrap(sweep, "expand_grid", "explore.expand")
    tracer.wrap(sweep, "run_sweep", "explore.sweep")
    for cls in _backend_classes(SchedulerBackend):
        if "run" in vars(cls):
            tracer.wrap(cls, "run", "engine.backend")
    tracer.wrap(ResultStore, "get", "store.get", after=_store_get_after)
    tracer.wrap(ResultStore, "put", "store.put")
    tracer.wrap(ScheduleRequest, "cache_key", "canonical.cache_key")
    tracer.wrap(ScheduleOutcome, "to_dict", "canonical.outcome_to_dict")
    tracer.wrap(ServiceClient, "schedule", "service.client")
    tracer.wrap(online, "run_online", "online.run")
