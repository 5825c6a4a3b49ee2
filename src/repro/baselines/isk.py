"""IS-k — the iterative MILP scheduler of reference [6] (substitute).

The original IS-k optimally schedules the next ``k`` tasks at each
iteration with a Gurobi MILP (mapping + implementation + start times),
keeping earlier discrete decisions fixed.  This reproduction replaces
the MILP with an **exact branch-and-bound over the same discrete
decision space** — per task: software implementation x core, or
hardware implementation x (compatible existing region | new region) —
with timing evaluated constructively (:mod:`repro.baselines.partial`).
On the window subproblem this explores the identical solution set the
MILP would, so solution quality matches; wall-clock constants differ
(see DESIGN.md, substitutions).

The window objective is the *partial-schedule makespan* (ties broken by
the sum of task end times) — the myopic criterion that makes IS-1
exhibit exactly the Figure 1 pathology the paper builds on: with an
empty fabric, the locally-fastest, resource-hungry implementation wins,
the fabric fills with large regions, and later tasks pay for it.
IS-5's five-task lookahead partially corrects this, at an exponential
search cost — matching the paper's Table I runtimes qualitatively.

IS-k *does* exploit module reuse (Section VII-A notes it as an
IS-k-only feature) and reconfiguration prefetching, both inherited from
:class:`~repro.baselines.partial.PartialSchedule`.

Window search
-------------

Each window is one depth-first branch-and-bound over the apply/undo
trail of :class:`~repro.baselines.partial.PartialSchedule` (do →
recurse → undo).  Options are ranked by ``(partial makespan, Σ end,
task end, impl name)``; ``branch_cap`` caps the options tried per task
when k > 1 and ``node_limit`` bounds the tree.  The incumbent starts
at the greedy rank-first completion — the first leaf the DFS would
reach anyway — and is replaced only by a strictly better leaf, so the
first-found leaf wins ties (see DESIGN.md §10 for why the seed prunes
nothing the unseeded search would have kept).  For k ≥ 2, ``jobs > 1``
fans the first level out over worker processes with the same result.
The decisions are pinned by ``tests/unit/test_isk_golden.py``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from ..model import Implementation, Instance, Schedule
from .partial import PartialSchedule

__all__ = ["ISKOptions", "ISKResult", "ISKScheduler", "isk_schedule"]

_INF_SCORE = (float("inf"), float("inf"))


@dataclass
class ISKOptions:
    """IS-k tuning knobs.

    ``branch_cap`` bounds the placement options explored per task in
    windows with k > 1 (options are pre-ranked by the myopic objective,
    so the cap drops only unpromising branches); ``node_limit`` bounds
    the branch-and-bound tree per iteration — both model how the
    authors bound Gurobi to keep IS-k "acceptable" on large graphs.

    ``jobs`` enables parallel first-level fan-out for k ≥ 2 (``-1`` =
    all CPUs; serial reduction is deterministic, so any worker count
    yields the same schedule).
    """

    k: int = 1
    branch_cap: int = 8
    node_limit: int = 50_000
    enable_module_reuse: bool = True
    communication_overhead: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.branch_cap < 1 or self.node_limit < 1:
            raise ValueError("branch_cap/node_limit must be >= 1")
        if self.jobs < -1:
            raise ValueError("jobs must be >= -1")


@dataclass
class ISKResult:
    """Outcome of an IS-k (or exhaustive) run.

    Mirrors :class:`~repro.core.scheduler.PAResult`'s ``makespan`` /
    ``total_time`` / ``feasible`` surface so report code can treat all
    scheduler results uniformly.  ``stats`` carries search counters
    (nodes expanded, bound prunes, incumbent seeds, fallback
    completions, undo-trail high-water mark, fan-out windows).
    """

    schedule: Schedule
    elapsed: float
    iterations: int
    nodes: int
    stats: dict = field(default_factory=dict)
    feasible: bool = True

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def total_time(self) -> float:
        return self.elapsed


_PROC, _REGION, _NEW = 0, 1, 2


@dataclass(frozen=True)
class _Option:
    """One discrete decision for a task.

    ``kind``/``ref`` pre-resolve the target (processor index or region
    id) so the hot preview/apply paths never re-parse the string.
    """

    impl: Implementation
    target: str  # "proc:<i>", "region:<id>" or "new"
    kind: int = _NEW
    ref: int | str | None = None


def _init_stats(jobs: int) -> dict:
    return {
        "jobs": jobs,
        "nodes_expanded": 0,
        "bound_pruned": 0,
        "incumbent_seeds": 0,
        "fallback_completions": 0,
        "max_undo_depth": 0,
        "fanout_windows": 0,
    }


_WORKER_STAT_KEYS = ("bound_pruned", "fallback_completions")


def _fanout_worker(payload: tuple) -> tuple:
    """Explore one capped first-level branch with the full node budget.

    Module-level so the :mod:`repro.analysis.parallel` pool can pickle
    it; each worker's subtree is independent of its siblings (own
    budget), which is what makes the fan-out bit-identical
    for any worker count.
    """
    options, state, window, option, seed_score = payload
    # parallel_map workers must be pure functions of their item (the
    # serial fallback hands every payload the same state object).
    state = state.copy()
    scheduler = ISKScheduler(options)
    stats = _init_stats(jobs=1)
    scheduler._apply(state, window[0], option)
    best_score, best_tail, nodes, _deepest = scheduler._dfs_search(
        state, window, 1, seed_score, stats
    )
    return best_score, best_tail, nodes, stats


class ISKScheduler:
    """Iterative window scheduler (see module docstring)."""

    def __init__(self, options: ISKOptions | None = None) -> None:
        self.options = options or ISKOptions()

    # -- public API --------------------------------------------------------

    def schedule(self, instance: Instance) -> ISKResult:
        """Run the iterative window scheduler."""
        t0 = _time.perf_counter()
        opts = self.options
        topo = instance.taskgraph.topological_order()
        # Imported lazily: repro.analysis pulls in the engine package,
        # which imports this module back at package-init time.
        from ..analysis.parallel import resolve_jobs

        jobs = resolve_jobs(opts.jobs)
        stats = _init_stats(jobs)

        state = PartialSchedule(
            instance,
            communication_overhead=opts.communication_overhead,
            enable_module_reuse=opts.enable_module_reuse,
        )
        total_nodes = 0
        iterations = 0
        for chunk_start in range(0, len(topo), opts.k):
            window = topo[chunk_start : chunk_start + opts.k]
            state, nodes = self._solve_window(state, window, stats, jobs)
            total_nodes += nodes
            iterations += 1
        stats["nodes_expanded"] = total_nodes

        schedule = state.to_schedule(
            scheduler=f"IS-{opts.k}",
            metadata={"nodes": total_nodes, "iterations": iterations},
        )
        return ISKResult(
            schedule=schedule,
            elapsed=_time.perf_counter() - t0,
            iterations=iterations,
            nodes=total_nodes,
            stats=stats,
        )

    # -- shared decision space ---------------------------------------------

    def _task_options(self, state: PartialSchedule, task_id: str) -> list[_Option]:
        """The discrete decision space for one task in the window."""
        task = state.instance.taskgraph.task(task_id)
        options: list[_Option] = []
        for impl in task.sw_implementations:
            for proc in range(state.arch.processors):
                options.append(
                    _Option(impl=impl, target=f"proc:{proc}", kind=_PROC, ref=proc)
                )
        for impl in task.hw_implementations:
            for region in state.regions.values():
                if impl.resources.fits_in(region.resources):
                    options.append(
                        _Option(
                            impl=impl,
                            target=f"region:{region.id}",
                            kind=_REGION,
                            ref=region.id,
                        )
                    )
            if state.can_create_region(impl.resources):
                options.append(_Option(impl=impl, target="new"))
        return options

    @staticmethod
    def _apply(state: PartialSchedule, task_id: str, option: _Option) -> None:
        if option.kind == _PROC:
            state.place_sw(task_id, option.impl, option.ref)
        elif option.kind == _REGION:
            state.place_hw(task_id, option.impl, option.ref)
        else:  # "new"
            region = state.create_region(option.impl.resources)
            state.place_hw(task_id, option.impl, region.id)

    # -- window search -----------------------------------------------------

    def _preview_key(
        self, state: PartialSchedule, option: _Option, ready: float
    ) -> tuple[float, float, float, str]:
        """The ranking key ``(makespan, Σ end, task end, impl name)``
        this option *would* produce, computed read-only from
        :meth:`~repro.baselines.partial.PartialSchedule.earliest_start`
        — the rule ``place_sw``/``place_hw`` commit — with the same
        ``max``/addition order as the incremental objective, so the
        previewed key is bit-identical to applying the option and
        reading the objective.
        """
        impl = option.impl
        makespan = state.makespan
        start, reconf = state.earliest_start(ready, impl.name, option.ref)
        if reconf is not None and reconf[2] > makespan:
            makespan = reconf[2]
        end = start + impl.time
        if end > makespan:
            makespan = end
        return (makespan, state.end_sum + end, end, impl.name)

    def _ranked_options(
        self, state: PartialSchedule, task_id: str
    ) -> list[tuple[tuple[float, float, float, str], _Option]]:
        """Rank options by read-only preview — no state mutation, so
        only the branches the DFS actually explores pay for an
        apply/undo."""
        try:
            ready = state.ready_time(task_id)
        except ValueError:
            return []
        ranked = [
            (self._preview_key(state, option, ready), option)
            for option in self._task_options(state, task_id)
        ]
        ranked.sort(key=lambda item: item[0])
        return ranked

    def _greedy_completion(
        self, state: PartialSchedule, window: list[str]
    ) -> tuple[tuple[float, float], list[_Option]] | None:
        """Rank-first descent through the window — exactly the first
        path the DFS would walk.  Returns (score, options) and restores
        the state; ``None`` on a dead end (then no incumbent is seeded
        and the search starts from an infinite bound)."""
        mark = state.trail_mark()
        taken: list[_Option] = []
        for task_id in window:
            ranked = self._ranked_options(state, task_id)
            if not ranked:
                state.undo_to(mark)
                return None
            option = ranked[0][1]
            self._apply(state, task_id, option)
            taken.append(option)
        score = (state.makespan, state.end_sum)
        state.undo_to(mark)
        return score, taken

    def _dfs_search(
        self,
        state: PartialSchedule,
        window: list[str],
        start_depth: int,
        seed_score: tuple[float, float] | None,
        stats: dict,
    ) -> tuple[tuple[float, float], list[_Option] | None, int, tuple[int, list[_Option]]]:
        """Bounded DFS from ``start_depth`` (earlier window tasks are
        already applied).  Returns ``(best_score, best_tail, nodes,
        deepest)`` where ``best_tail`` is ``None`` when no leaf beat
        the seed (the caller then keeps the seed path) and ``deepest``
        is the deepest partial reached (for the budget fallback)."""
        opts = self.options
        n = len(window)
        best_score = seed_score if seed_score is not None else _INF_SCORE
        best_tail: list[_Option] | None = None
        nodes = 0
        path: list[_Option] = []
        deepest: tuple[int, list[_Option]] = (start_depth, [])

        def dfs(depth: int) -> None:
            nonlocal best_score, best_tail, nodes, deepest
            if depth == n:
                score = (state.makespan, state.end_sum)
                if score < best_score:
                    best_score = score
                    best_tail = list(path)
                return
            if nodes > opts.node_limit:
                return
            ranked = self._ranked_options(state, window[depth])
            cap = opts.branch_cap if n > 1 else len(ranked)
            for key, option in ranked[:cap]:
                nodes += 1
                # The partial makespan only grows as tasks are added, so
                # it is an admissible bound for pruning.
                if key[0] > best_score[0]:
                    stats["bound_pruned"] += 1
                    continue
                mark = state.trail_mark()
                self._apply(state, window[depth], option)
                depth_now = state.trail_depth()
                if depth_now > stats["max_undo_depth"]:
                    stats["max_undo_depth"] = depth_now
                path.append(option)
                if depth + 1 > deepest[0]:
                    deepest = (depth + 1, list(path))
                dfs(depth + 1)
                path.pop()
                state.undo_to(mark)

        dfs(start_depth)
        return best_score, best_tail, nodes, deepest

    def _backtrack_complete(
        self, state: PartialSchedule, window: list[str], depth: int
    ) -> list[_Option] | None:
        """First feasible completion from ``depth`` (rank-first with
        backtracking, no cap); ``None`` iff the subtree is infeasible."""
        if depth == len(window):
            return []
        for _key, option in self._ranked_options(state, window[depth]):
            mark = state.trail_mark()
            self._apply(state, window[depth], option)
            tail = self._backtrack_complete(state, window, depth + 1)
            state.undo_to(mark)
            if tail is not None:
                return [option, *tail]
        return None

    def _fallback_completion(
        self,
        state: PartialSchedule,
        window: list[str],
        deepest: tuple[int, list[_Option]],
        stats: dict,
    ) -> list[_Option]:
        """Node budget exhausted before any leaf and the greedy seed hit
        a dead end: complete from the deepest best partial the search
        reached, falling back to the window root only if that subtree is
        infeasible.  Raises only when the *whole* window has no feasible
        completion."""
        stats["fallback_completions"] += 1
        depth, prefix = deepest
        if depth > 0:
            mark = state.trail_mark()
            for i, option in enumerate(prefix):
                self._apply(state, window[i], option)
            tail = self._backtrack_complete(state, window, depth)
            state.undo_to(mark)
            if tail is not None:
                return [*prefix, *tail]
        tail = self._backtrack_complete(state, window, 0)
        if tail is None:
            raise RuntimeError(f"no feasible completion for window {window}")
        return tail

    def _solve_window(
        self,
        state: PartialSchedule,
        window: list[str],
        stats: dict,
        jobs: int,
    ) -> tuple[PartialSchedule, int]:
        """In-place window solve: seed the incumbent, search (serial or
        fanned out), then commit the winning path onto ``state``."""
        seed = self._greedy_completion(state, window)
        if seed is not None:
            stats["incumbent_seeds"] += 1
        seed_score = seed[0] if seed is not None else None

        if jobs > 1 and len(window) >= 2:
            best_path, nodes = self._fanout_search(state, window, seed, stats, jobs)
        else:
            _best, best_tail, nodes, deepest = self._dfs_search(
                state, window, 0, seed_score, stats
            )
            if best_tail is not None:
                best_path = best_tail
            elif seed is not None:
                best_path = seed[1]
            else:
                best_path = self._fallback_completion(state, window, deepest, stats)

        state.trail_clear()
        for i, option in enumerate(best_path):
            self._apply(state, window[i], option)
        return state, nodes

    def _fanout_search(
        self,
        state: PartialSchedule,
        window: list[str],
        seed: tuple[tuple[float, float], list[_Option]] | None,
        stats: dict,
        jobs: int,
    ) -> tuple[list[_Option], int]:
        """Parallel first-level fan-out: each capped depth-0 branch is
        explored by a worker with the full node budget (independent of
        its siblings), then reduced in branch order with strict ``<`` —
        the same first-found-wins rule as the serial DFS, so the result
        is identical for any worker count."""
        from ..analysis.parallel import parallel_map

        opts = self.options
        stats["fanout_windows"] += 1
        seed_score = seed[0] if seed is not None else None
        ranked0 = self._ranked_options(state, window[0])
        state.trail_clear()  # workers pickle a pristine, non-recording state

        nodes = 0
        bound0 = seed_score[0] if seed_score is not None else float("inf")
        payloads: list[tuple] = []
        branch_options: list[_Option] = []
        for key, option in ranked0[: opts.branch_cap]:
            nodes += 1
            if key[0] > bound0:
                stats["bound_pruned"] += 1
                continue
            payloads.append((opts, state, window, option, seed_score))
            branch_options.append(option)

        results = parallel_map(_fanout_worker, payloads, jobs=jobs)

        best_score = seed_score if seed_score is not None else _INF_SCORE
        best_path = list(seed[1]) if seed is not None else None
        for option, (w_score, w_tail, w_nodes, w_stats) in zip(
            branch_options, results
        ):
            nodes += w_nodes
            for stat_key in _WORKER_STAT_KEYS:
                stats[stat_key] += w_stats[stat_key]
            if w_stats["max_undo_depth"] > stats["max_undo_depth"]:
                stats["max_undo_depth"] = w_stats["max_undo_depth"]
            if w_tail is not None and w_score < best_score:
                best_score = w_score
                best_path = [option, *w_tail]
        if best_path is None:
            best_path = self._fallback_completion(state, window, (0, []), stats)
        return best_path, nodes


def isk_schedule(instance: Instance, k: int = 1, **kwargs) -> ISKResult:
    """Convenience wrapper: ``isk_schedule(instance, k=5)``."""
    return ISKScheduler(ISKOptions(k=k, **kwargs)).schedule(instance)
