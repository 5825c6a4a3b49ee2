"""Longest-path timing over the augmented precedence graph.

The PA steps repeatedly need ASAP/ALAP time windows ("Section V-B: the
time windows are recomputed with respect to the current tasks
dependencies").  The *current dependencies* are the application arcs
plus the serialization arcs the scheduler inserts to order tasks inside
a reconfigurable region or on a processor core.

:class:`PrecedenceGraph` is a small adjacency-list DAG tailored to that
use: cheap edge insertion, deterministic topological order, forward
(earliest-start) and backward (latest-end) passes, and per-node start
lower bounds so already-committed decisions act as constraints.  Delay
propagation in Sections V-F/V-G is exactly a forward pass with updated
lower bounds, which keeps the heuristic's behaviour well-defined.

Two incremental mechanisms keep repeated edge insertion cheap:

* the cached topological order is repaired in place with the
  Pearce-Kelly affected-region algorithm (which doubles as the cycle
  check), instead of re-running Kahn's algorithm per arc, and
* :meth:`PrecedenceGraph.begin_incremental` attaches an
  :class:`IncrementalStarts` view whose earliest starts are updated by
  dirty-frontier forward propagation on every arc insertion — arcs are
  only ever added and weights only ever grow during a scheduling phase,
  so starts grow monotonically and the frontier update is exact.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Mapping

__all__ = [
    "PrecedenceGraph",
    "CycleError",
    "TimingResult",
    "IncrementalStarts",
]

EPS = 1e-9


class CycleError(ValueError):
    """An inserted arc closed a cycle — scheduling invariant broken."""


class TimingResult:
    """Windows produced by a forward+backward pass.

    ``est[t]`` is ``T_MIN_t`` (earliest start), ``lft[t]`` is
    ``T_MAX_t`` (latest end without delaying the schedule), and the
    makespan is the earliest possible overall completion under the
    current constraints.
    """

    __slots__ = ("est", "lft", "exe", "makespan")

    def __init__(
        self,
        est: dict[str, float],
        lft: dict[str, float],
        exe: Mapping[str, float],
        makespan: float,
    ) -> None:
        self.est = est
        self.lft = lft
        self.exe = exe
        self.makespan = makespan

    def window(self, node: str) -> tuple[float, float]:
        """``w_t = [T_MIN_t, T_MAX_t]``."""
        return (self.est[node], self.lft[node])

    def slack(self, node: str) -> float:
        return self.lft[node] - self.est[node] - self.exe[node]

    def is_critical(self, node: str, tol: float = 1e-6) -> bool:
        """Zero-slack nodes form the critical path(s)."""
        return self.slack(node) <= tol

    def critical_set(self, tol: float = 1e-6) -> set[str]:
        return {n for n in self.est if self.is_critical(n, tol)}

    def windows_overlap(self, a: str, b: str) -> bool:
        """Half-open interval overlap between ``w_a`` and ``w_b``."""
        return self.est[a] < self.lft[b] - EPS and self.est[b] < self.lft[a] - EPS


class PrecedenceGraph:
    """Mutable DAG over a fixed node set with weighted arcs.

    Arc weight is the communication cost charged between the end of the
    source and the start of the destination (zero unless the
    communication-overhead extension is active).
    """

    def __init__(self, nodes: Iterable[str]) -> None:
        self._nodes: list[str] = list(nodes)
        index = {n: i for i, n in enumerate(self._nodes)}
        if len(index) != len(self._nodes):
            raise ValueError("duplicate node ids")
        self._index = index
        self._succ: dict[str, dict[str, float]] = {n: {} for n in self._nodes}
        self._pred: dict[str, dict[str, float]] = {n: {} for n in self._nodes}
        self._order_cache: list[str] | None = None
        self._pos: dict[str, int] | None = None
        self._inc: "IncrementalStarts | None" = None

    # -- construction ------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._index

    def add_node(self, node: str) -> None:
        """Grow the node set with an isolated node.

        The online planner admits tasks as jobs arrive, so the "fixed
        node set" relaxes to append-only growth: a fresh node has no
        arcs, which makes appending it to the cached topological order
        (and registering it with an active incremental view) exact.
        """
        if node in self._index:
            raise ValueError(f"duplicate node id {node!r}")
        self._index[node] = len(self._nodes)
        self._nodes.append(node)
        self._succ[node] = {}
        self._pred[node] = {}
        if self._order_cache is not None:
            self._pos[node] = len(self._order_cache)
            self._order_cache.append(node)
        if self._inc is not None:
            self._inc.register(node)

    def add_edge(self, src: str, dst: str, weight: float = 0.0) -> None:
        """Insert ``src -> dst``; idempotent (keeps the max weight)."""
        if src not in self._index or dst not in self._index:
            raise KeyError(f"unknown node in edge {src!r} -> {dst!r}")
        if src == dst:
            raise CycleError(f"self-loop on {src!r}")
        existing = self._succ[src].get(dst)
        if existing is not None:
            if weight > existing:
                self._succ[src][dst] = weight
                self._pred[dst][src] = weight
                if self._inc is not None:
                    self._inc.propagate(dst)
            return
        self._succ[src][dst] = weight
        self._pred[dst][src] = weight
        try:
            self._restore_order(src, dst)
        except CycleError:
            del self._succ[src][dst]
            del self._pred[dst][src]
            raise CycleError(f"edge {src!r} -> {dst!r} creates a cycle") from None
        if self._inc is not None:
            self._inc.propagate(dst)

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self._succ.get(src, {})

    def successors(self, node: str) -> dict[str, float]:
        return self._succ[node]

    def predecessors(self, node: str) -> dict[str, float]:
        return self._pred[node]

    def edge_count(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def copy(self) -> "PrecedenceGraph":
        """Structural copy; the cached topological order carries over so
        the copy keeps inserting edges at incremental cost (the
        incremental-starts view, if any, does not transfer)."""
        dup = PrecedenceGraph(self._nodes)
        for src, outs in self._succ.items():
            for dst, w in outs.items():
                dup._succ[src][dst] = w
                dup._pred[dst][src] = w
        if self._order_cache is not None:
            dup._order_cache = list(self._order_cache)
            dup._pos = dict(self._pos)
        return dup

    # -- topological order ----------------------------------------------------

    def _topological_order(self) -> list[str] | None:
        """Kahn's algorithm with insertion-index tie-break (deterministic).

        Returns ``None`` when the graph currently has a cycle (used by
        :meth:`add_edge` for rollback detection).
        """
        if self._order_cache is not None:
            return self._order_cache
        indeg = {n: len(self._pred[n]) for n in self._nodes}
        ready = sorted(
            (n for n in self._nodes if indeg[n] == 0), key=self._index.__getitem__
        )
        queue = deque(ready)
        order: list[str] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            newly_ready = []
            for succ in self._succ[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    newly_ready.append(succ)
            for succ in sorted(newly_ready, key=self._index.__getitem__):
                queue.append(succ)
        if len(order) != len(self._nodes):
            return None
        self._order_cache = order
        self._pos = {n: i for i, n in enumerate(order)}
        return order

    def topological_order(self) -> list[str]:
        order = self._topological_order()
        if order is None:  # pragma: no cover - add_edge guards against this
            raise CycleError("graph has a cycle")
        return order

    def _restore_order(self, src: str, dst: str) -> None:
        """Repair the cached order after inserting ``src -> dst``.

        Pearce-Kelly: only the "affected region" between ``dst`` and
        ``src`` in the cached order can be out of place, so the nodes
        backward-reachable from ``src`` are slotted before the nodes
        forward-reachable from ``dst`` within the very same index set.
        Raises :class:`CycleError` — before touching the order — when
        the forward search from ``dst`` reaches ``src``.  Without a
        cached order this falls back to one full Kahn pass.
        """
        if self._order_cache is None:
            if self._topological_order() is None:
                raise CycleError("cycle")
            return
        pos = self._pos
        if pos[src] < pos[dst]:
            return  # cached order still valid
        lb, ub = pos[dst], pos[src]
        forward: list[str] = []
        seen = {dst}
        stack = [dst]
        while stack:
            node = stack.pop()
            forward.append(node)
            for succ in self._succ[node]:
                if succ == src:
                    raise CycleError("cycle")
                if succ not in seen and pos[succ] <= ub:
                    seen.add(succ)
                    stack.append(succ)
        backward: list[str] = []
        seen = {src}
        stack = [src]
        while stack:
            node = stack.pop()
            backward.append(node)
            for pred in self._pred[node]:
                if pred not in seen and pos[pred] >= lb:
                    seen.add(pred)
                    stack.append(pred)
        slots = sorted(pos[n] for n in backward + forward)
        nodes = sorted(backward, key=pos.__getitem__)
        nodes += sorted(forward, key=pos.__getitem__)
        order = self._order_cache
        for slot, node in zip(slots, nodes):
            order[slot] = node
            pos[node] = slot

    # -- incremental earliest starts -------------------------------------

    def begin_incremental(
        self,
        exe: Mapping[str, float],
        lower_bounds: Mapping[str, float] | None = None,
    ) -> "IncrementalStarts":
        """Attach a live earliest-start view updated on edge insertion.

        One full forward pass seeds the view; afterwards every
        :meth:`add_edge` propagates only from the dirty frontier.  The
        caller must not change ``exe`` entries of existing nodes while
        the view is active (weights and arcs may only be added — the
        invariant of the scheduling phases that use this).
        """
        if self._inc is not None:
            raise RuntimeError("incremental starts already active")
        self.topological_order()  # materialize the order cache
        self._inc = IncrementalStarts(self, exe, lower_bounds)
        return self._inc

    def end_incremental(self) -> None:
        """Detach the incremental view (further edits stop updating it)."""
        self._inc = None

    # -- timing passes ------------------------------------------------------------

    def earliest_starts(
        self,
        exe: Mapping[str, float],
        lower_bounds: Mapping[str, float] | None = None,
    ) -> dict[str, float]:
        """Forward longest-path pass (CPM earliest starts).

        ``lower_bounds`` carries committed start times: a node never
        starts before its bound, which is how delays propagate through
        the task graph (Sections V-F step 4 and V-G).
        """
        lb = lower_bounds or {}
        est: dict[str, float] = {}
        for node in self.topological_order():
            start = lb.get(node, 0.0)
            for pred, comm in self._pred[node].items():
                candidate = est[pred] + exe[pred] + comm
                if candidate > start:
                    start = candidate
            est[node] = start
        return est

    def latest_ends(
        self,
        exe: Mapping[str, float],
        makespan: float,
    ) -> dict[str, float]:
        """Backward pass: latest end not delaying ``makespan``."""
        lft: dict[str, float] = {}
        for node in reversed(self.topological_order()):
            end = makespan
            for succ, comm in self._succ[node].items():
                candidate = lft[succ] - exe[succ] - comm
                if candidate < end:
                    end = candidate
            lft[node] = end
        return lft

    def compute_windows(
        self,
        exe: Mapping[str, float],
        lower_bounds: Mapping[str, float] | None = None,
        makespan: float | None = None,
    ) -> TimingResult:
        """Full CPM: windows ``[T_MIN, T_MAX]`` per node.

        When ``makespan`` is not given it is the schedule length implied
        by the earliest starts, which is the classic CPM convention and
        what Section V-B uses.
        """
        est = self.earliest_starts(exe, lower_bounds)
        implied = max((est[n] + exe[n] for n in self._nodes), default=0.0)
        horizon = implied if makespan is None else max(makespan, implied)
        lft = self.latest_ends(exe, horizon)
        return TimingResult(est=est, lft=lft, exe=dict(exe), makespan=horizon)


class IncrementalStarts:
    """Earliest starts kept current across edge insertions.

    ``est`` always equals what :meth:`PrecedenceGraph.earliest_starts`
    would return on the graph's current arcs: a node's start is a pure
    ``max`` over its predecessors' finish times, so re-deriving exactly
    the nodes whose inputs grew (in topological-position order, via a
    heap) reproduces the full pass bit for bit.  Only valid while arcs
    are added and weights grow — the monotone regime of the scheduling
    phases (Sections V-C..V-G).
    """

    __slots__ = ("_graph", "exe", "lower_bounds", "est",
                 "fallthrough_limit", "fallthroughs")

    def __init__(
        self,
        graph: PrecedenceGraph,
        exe: Mapping[str, float],
        lower_bounds: Mapping[str, float] | None = None,
    ) -> None:
        self._graph = graph
        self.exe = exe
        self.lower_bounds = dict(lower_bounds or {})
        self.est = graph.earliest_starts(exe, self.lower_bounds)
        # When one dirty frontier touches more than this many nodes the
        # incremental repair costs more than a full pass — fall through
        # to :meth:`PrecedenceGraph.earliest_starts`.  Bit-identical
        # either way: the view's invariant *is* the full pass.
        self.fallthrough_limit = max(32, len(graph._nodes) // 2)
        self.fallthroughs = 0

    def _derive(self, node: str) -> float:
        start = self.lower_bounds.get(node, 0.0)
        est, exe = self.est, self.exe
        for pred, comm in self._graph._pred[node].items():
            candidate = est[pred] + exe[pred] + comm
            if candidate > start:
                start = candidate
        return start

    def register(self, node: str) -> None:
        """Seed the view for a node just added via ``add_node``.

        The node has no arcs yet, so its earliest start is exactly its
        lower bound; later ``add_edge``/``raise_lower_bound`` calls
        propagate from there.  ``exe`` must already map the node (the
        caller owns the mapping and sets the execution time before
        growing the graph).
        """
        self.est[node] = self.lower_bounds.get(node, 0.0)

    def raise_lower_bound(self, node: str, bound: float) -> None:
        """Monotonically raise a node's start lower bound and propagate.

        This is how committed runtime facts (an arrival instant, an
        actual dispatch time, a fault-delayed completion) enter the
        projection: bounds only ever grow, which keeps the view inside
        its monotone-update regime.
        """
        if bound <= self.lower_bounds.get(node, 0.0):
            return
        self.lower_bounds[node] = bound
        self.propagate(node)

    def propagate(self, root: str) -> None:
        """Push the effect of a new/heavier arc into ``root`` forward.

        When the dirty frontier grows past ``fallthrough_limit`` the
        stale-arc fraction makes per-node repair slower than one full
        pass — abandon the frontier and recompute ``est`` wholesale.
        """
        pos = self._graph._pos
        assert pos is not None
        heap = [(pos[root], root)]
        queued = {root}
        processed = 0
        while heap:
            processed += 1
            if processed > self.fallthrough_limit:
                self.fallthroughs += 1
                self.est = self._graph.earliest_starts(self.exe, self.lower_bounds)
                return
            _, node = heapq.heappop(heap)
            queued.discard(node)
            start = self._derive(node)
            if start > self.est[node]:
                self.est[node] = start
                for succ in self._graph._succ[node]:
                    if succ not in queued:
                        queued.add(succ)
                        heapq.heappush(heap, (pos[succ], succ))

    def snapshot(self) -> dict[str, float]:
        return dict(self.est)
