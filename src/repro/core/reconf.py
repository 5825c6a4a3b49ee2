"""Step 7 — reconfigurations scheduling (Section V-G).

A reconfiguration task is created between every pair of subsequent
tasks of a region (the region's first task is configured by the initial
full bitstream, Eq. 6).  All reconfigurations share the single
reconfiguration controller, so they must be serialized.

The implementation models reconfigurations as extra nodes of the
precedence graph:

* ``t_in -> rc`` realises ``T_MIN_rc = T_END_{t_in}`` (Eq. 10),
* ``rc -> t_out`` forces the outgoing task to wait for its bitstream,
* controller-serialization arcs between reconfigurations realise the
  paper's "shift ahead in time" rules, and delay propagation is simply
  the next earliest-start pass.

Critical reconfigurations (those whose outgoing task is critical) are
chained first in ``T_MIN`` order; non-critical ones are then inserted
at the first instant the controller is free, pushing later
reconfigurations ahead when they would overlap — exactly the two
procedures of Section V-G.
"""

from __future__ import annotations

from dataclasses import dataclass

from .state import PAState
from .timing import CycleError, PrecedenceGraph

__all__ = ["ReconfTask", "ReconfPlan", "schedule_reconfigurations"]


@dataclass(frozen=True)
class ReconfTask:
    """One pending reconfiguration of a region (Section V-G)."""

    id: str
    region_id: str
    ingoing_task: str
    outgoing_task: str
    exe: float
    critical: bool


@dataclass
class ReconfPlan:
    """Outcome of the phase: final timing over tasks + reconfigurations."""

    graph: PrecedenceGraph
    exe: dict[str, float]
    starts: dict[str, float]
    reconf_tasks: list[ReconfTask]
    controller_chains: list[list[str]]
    controller_of: dict[str, int]

    @property
    def controller_chain(self) -> list[str]:
        """Flat chain view (kept for the single-controller common case)."""
        return [rc for chain in self.controller_chains for rc in chain]

    def end(self, node: str) -> float:
        return self.starts[node] + self.exe[node]

    @property
    def makespan(self) -> float:
        return max(
            (self.starts[n] + self.exe[n] for n in self.starts), default=0.0
        )


def _build_reconf_tasks(state: PAState, critical: set[str]) -> list[ReconfTask]:
    """Reconfigurations between subsequent tasks of each region."""
    tasks: list[ReconfTask] = []
    counter = 0
    for region_id in sorted(state.region_chain):
        chain = state.region_chain[region_id]
        reconf_time = state.region_reconf_time(region_id)
        for ingoing, outgoing in zip(chain, chain[1:]):
            if state.options.enable_module_reuse and (
                state.impl[ingoing].name == state.impl[outgoing].name
            ):
                continue  # same bitstream already loaded: module reuse
            tasks.append(
                ReconfTask(
                    id=f"RC{counter}",
                    region_id=region_id,
                    ingoing_task=ingoing,
                    outgoing_task=outgoing,
                    exe=reconf_time,
                    critical=outgoing in critical,
                )
            )
            counter += 1
    return tasks


def schedule_reconfigurations(
    state: PAState,
    incremental: bool | None = None,
    verify: bool | None = None,
) -> ReconfPlan:
    """Run the phase and return the final augmented timing.

    With ``incremental`` (the :class:`PAOptions` default) the phase
    seeds one forward pass and lets every controller-serialization arc
    propagate only its dirty frontier, instead of recomputing a full
    CPM pass per reconfiguration — O(R·(V+E)) → one pass plus frontier
    updates.  ``verify`` cross-checks every snapshot against the full
    pass (tests / debugging).
    """
    options = state.options
    if incremental is None:
        incremental = options.incremental_timing
    if verify is None:
        verify = options.verify_incremental_timing
    timing = state.timing
    critical = timing.critical_set(options.critical_tolerance)
    reconf_tasks = _build_reconf_tasks(state, critical)

    graph = PrecedenceGraph(
        list(state.graph.nodes) + [rc.id for rc in reconf_tasks]
    )
    for src in state.graph.nodes:
        for dst, weight in state.graph.successors(src).items():
            graph.add_edge(src, dst, weight)

    exe: dict[str, float] = dict(state.exe)
    for rc in reconf_tasks:
        exe[rc.id] = rc.exe
        graph.add_edge(rc.ingoing_task, rc.id)  # Eq. 10: T_MIN_rc = T_END_in
        graph.add_edge(rc.id, rc.outgoing_task)  # bitstream before execution

    gap = state.options.reconf_gap
    n_controllers = state.arch.reconfigurators
    chains: list[list[str]] = [[] for _ in range(n_controllers)]
    controller_of: dict[str, int] = {}

    if incremental:
        live = graph.begin_incremental(exe)

        def starts() -> dict[str, float]:
            if verify:
                full = graph.earliest_starts(exe)
                drift = max(
                    (abs(live.est[n] - full[n]) for n in full), default=0.0
                )
                if drift > 1e-9:
                    raise AssertionError(
                        f"incremental starts drifted from full CPM by {drift}"
                    )
            return live.snapshot()

    else:

        def starts() -> dict[str, float]:
            return graph.earliest_starts(exe)

    # -- critical reconfigurations: chain in T_MIN order -----------------
    current = starts()
    criticals = sorted(
        (rc for rc in reconf_tasks if rc.critical),
        key=lambda rc: (current[rc.id], rc.id),
    )
    for rc in criticals:
        current = starts()
        # "the last scheduled reconfiguration task tl" — per controller;
        # the least-loaded controller hosts the new reconfiguration
        # (with one controller this is exactly the paper's rule:
        # T_START = max(T_MIN, T_END_tl (+gap))).
        def _append_start(chain: list[str]) -> float:
            if not chain:
                return current[rc.id]
            last = chain[-1]
            return max(current[rc.id], current[last] + exe[last] + gap)

        controller = min(
            range(n_controllers), key=lambda c: (_append_start(chains[c]), c)
        )
        chain = chains[controller]
        if chain:
            graph.add_edge(chain[-1], rc.id, gap)
        chain.append(rc.id)
        controller_of[rc.id] = controller
        state.record(
            "reconfiguration", "scheduled", rc.outgoing_task,
            region=rc.region_id, critical=True, duration=rc.exe,
            controller=controller,
        )

    # -- non-critical reconfigurations: first-free-instant insertion --------
    current = starts()
    noncriticals = sorted(
        (rc for rc in reconf_tasks if not rc.critical),
        key=lambda rc: (current[rc.id], rc.id),
    )
    for rc in noncriticals:
        current = starts()
        t_min = current[rc.id]
        # Per controller: position after every activity starting at or
        # before T_MIN (if T_MIN lies inside a running reconfiguration
        # the serialization arc moves us to its end; later activities
        # that would overlap are pushed ahead by the outgoing arc).
        # Pick the controller giving the earliest candidate start.
        best: tuple[float, int, int] | None = None  # (start, controller, pos)
        for controller, chain in enumerate(chains):
            position = 0
            for scheduled in chain:
                if current[scheduled] <= t_min:
                    position += 1
                else:
                    break
            if position > 0:
                prev = chain[position - 1]
                candidate = max(t_min, current[prev] + exe[prev] + gap)
            else:
                candidate = t_min
            key = (candidate, controller, position)
            if best is None or key[:2] < best[:2]:
                best = key
        assert best is not None
        _, controller, position = best
        _insert_into_chain(graph, chains[controller], rc.id, position, gap)
        controller_of[rc.id] = controller
        state.record(
            "reconfiguration", "scheduled", rc.outgoing_task,
            region=rc.region_id, critical=False, duration=rc.exe,
            slot=position, controller=controller,
        )

    final = starts()
    if incremental:
        graph.end_incremental()
    return ReconfPlan(
        graph=graph,
        exe=exe,
        starts=final,
        reconf_tasks=reconf_tasks,
        controller_chains=chains,
        controller_of=controller_of,
    )


def _insert_into_chain(
    graph: PrecedenceGraph,
    chain: list[str],
    node: str,
    position: int,
    gap: float,
) -> None:
    """Insert ``node`` into the controller chain at ``position``.

    Falls back to appending on the (theoretically impossible, defended
    anyway) case where the forward arc would close a cycle.
    """
    if position > 0:
        graph.add_edge(chain[position - 1], node, gap)
    if position < len(chain):
        try:
            graph.add_edge(node, chain[position], gap)
        except CycleError:
            # Defensive: append after the conflicting activity instead.
            graph.add_edge(chain[position], node, gap)
            chain.insert(position + 1, node)
            return
    chain.insert(position, node)
