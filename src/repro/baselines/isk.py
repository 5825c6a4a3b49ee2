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

Search engines
--------------

``ISKOptions.engine`` selects between two decision-identical engines:

* ``"trail"`` (default) — in-place DFS over the apply/undo trail of
  :class:`~repro.baselines.partial.PartialSchedule` (do → recurse →
  undo), with a window-state dominance memo, a greedy incumbent seed
  (the rank-first descent, i.e. exactly the old DFS's first path), and
  optional parallel first-level fan-out for k ≥ 2 (``jobs > 1``).
* ``"copy"`` — the seed fork-per-option implementation, kept verbatim
  as the reference baseline for the equivalence suite and
  ``benchmarks/bench_isk_search.py``.

Both engines rank options by the same key ``(partial makespan, Σ end,
task end, impl name)``, apply the same ``branch_cap``/``node_limit``
semantics, and update the incumbent with strict ``<`` (first found
wins ties), so under non-binding node budgets they produce
bit-identical schedules (see DESIGN.md § IS-k for the dominance /
incumbent-seeding arguments; with a *binding* budget the memo makes
the trail engine reach deeper before exhaustion, which can only
improve the window solution).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as _np

from ..model import Implementation, Instance, Schedule
from .partial import PartialSchedule

__all__ = ["ISKOptions", "ISKResult", "ISKScheduler", "isk_schedule"]

_ENGINES = ("trail", "copy")

#: Frontier size from which the trail engine ranks options with the
#: batched numpy preview instead of the per-option loop.  Below it the
#: numpy dispatch overhead outweighs the per-option Python arithmetic it
#: replaces (measured crossover on the Table-I mix: the fill loop still
#: costs ~1.5us/option either way, so only the max/add/sort
#: vectorization is on the table and it needs a wide frontier to pay
#: for dispatch).  Both limbs produce the identical ranked list (same
#: floats, same tie order), so this is a cost model, not a semantics
#: switch.
_VECTOR_PREVIEW_MIN = 48

_INF_SCORE = (float("inf"), float("inf"))


@dataclass
class ISKOptions:
    """IS-k tuning knobs.

    ``branch_cap`` bounds the placement options explored per task in
    windows with k > 1 (options are pre-ranked by the myopic objective,
    so the cap drops only unpromising branches); ``node_limit`` bounds
    the branch-and-bound tree per iteration — both model how the
    authors bound Gurobi to keep IS-k "acceptable" on large graphs.

    ``engine`` picks the search engine (``"trail"`` in-place DFS or the
    seed ``"copy"`` fork-per-option DFS); ``memo`` and
    ``incumbent_seed`` toggle the trail engine's dominance memo and
    greedy incumbent bound; ``jobs`` enables parallel first-level
    fan-out for k ≥ 2 (``-1`` = all CPUs; serial reduction is
    deterministic, so any worker count yields the same schedule).
    """

    k: int = 1
    branch_cap: int = 8
    node_limit: int = 50_000
    enable_module_reuse: bool = True
    communication_overhead: bool = False
    engine: str = "trail"
    memo: bool = True
    incumbent_seed: bool = True
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.branch_cap < 1 or self.node_limit < 1:
            raise ValueError("branch_cap/node_limit must be >= 1")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}")
        if self.jobs < -1:
            raise ValueError("jobs must be >= -1")


@dataclass
class ISKResult:
    """Outcome of an IS-k (or exhaustive) run.

    Mirrors :class:`~repro.core.scheduler.PAResult`'s ``makespan`` /
    ``total_time`` / ``feasible`` surface so report code can treat all
    scheduler results uniformly.  ``stats`` carries search-engine
    counters (nodes expanded, bound/memo prunes, incumbent seeds,
    fallback completions, undo-trail high-water mark, fan-out windows).
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


def _score(state: PartialSchedule) -> tuple[float, float]:
    """Myopic window objective: (partial makespan, sum of ends)."""
    return (state.makespan, sum(state.end.values()))


def _init_stats(opts: "ISKOptions", jobs: int) -> dict:
    return {
        "engine": opts.engine,
        "jobs": jobs,
        "nodes_expanded": 0,
        "bound_pruned": 0,
        "memo_hits": 0,
        "memo_entries": 0,
        "incumbent_seeds": 0,
        "fallback_completions": 0,
        "max_undo_depth": 0,
        "fanout_windows": 0,
        "hint_windows": 0,
        "hint_pruned": 0,
        "hint_reruns": 0,
    }


_WORKER_STAT_KEYS = (
    "bound_pruned",
    "memo_hits",
    "memo_entries",
    "fallback_completions",
)


def _fanout_worker(payload: tuple) -> tuple:
    """Explore one capped first-level branch with the full node budget.

    Module-level so the :mod:`repro.analysis.parallel` pool can pickle
    it; each worker's subtree is independent of its siblings (own
    budget, own memo), which is what makes the fan-out bit-identical
    for any worker count.
    """
    options, state, window, option, seed_score = payload
    # parallel_map workers must be pure functions of their item (the
    # serial fallback hands every payload the same state object).
    state = state.copy()
    scheduler = ISKScheduler(options)
    stats = _init_stats(options, jobs=1)
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

    def schedule(
        self, instance: Instance, incumbent_hint: float | None = None
    ) -> ISKResult:
        """Run the iterative window scheduler.

        ``incumbent_hint`` is an optional *external* upper bound on the
        makespan (e.g. a neighboring design point's result in a sweep).
        It is used purely as an extra prune threshold in the trail DFS
        and is **provably result-neutral**: every window solve either
        proves its hinted search identical to the unhinted one (all
        hint-pruned subtrees contain only leaves strictly worse in the
        first score component than a leaf that *was* found under the
        hint), or — when that proof is unavailable because no leaf beat
        the incumbent seed or the node budget bound — re-runs the window
        without the hint (``stats["hint_reruns"]``).  Schedules are
        therefore bit-identical with or without a hint, for *any* hint
        value; a good hint only removes provably-losing work.  The hint
        is ignored by the ``copy`` engine and by the parallel first-level
        fan-out (``jobs > 1``), both of which simply run unhinted.
        """
        t0 = _time.perf_counter()
        opts = self.options
        topo = instance.taskgraph.topological_order()
        # Imported lazily: repro.analysis pulls in the engine package,
        # which imports this module back at package-init time.
        from ..analysis.parallel import resolve_jobs

        jobs = resolve_jobs(opts.jobs)
        stats = _init_stats(opts, jobs)

        state = PartialSchedule(
            instance,
            communication_overhead=opts.communication_overhead,
            enable_module_reuse=opts.enable_module_reuse,
        )
        total_nodes = 0
        iterations = 0
        for chunk_start in range(0, len(topo), opts.k):
            window = topo[chunk_start : chunk_start + opts.k]
            if opts.engine == "copy":
                state, nodes = self._solve_window_copy(state, window)
            else:
                state, nodes = self._solve_window_trail(
                    state, window, stats, jobs, hint=incumbent_hint
                )
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

    # -- trail engine ------------------------------------------------------

    def _preview_key(
        self, state: PartialSchedule, option: _Option, ready: float
    ) -> tuple[float, float, float, str]:
        """The ranking key ``(makespan, Σ end, task end, impl name)``
        this option *would* produce, computed read-only.

        Mirrors the timing arithmetic of
        :meth:`~repro.baselines.partial.PartialSchedule.place_sw` /
        ``place_hw`` operation-for-operation (same ``max`` argument
        order, same addition order), so the previewed key is
        bit-identical to applying the option and reading the
        incremental objective — which in turn matches the copy
        engine's fork-and-score key.
        """
        impl = option.impl
        makespan = state.makespan
        if option.kind == _PROC:
            start = max(ready, state.proc_free[option.ref])
        elif option.kind == _REGION:
            region = state.regions[option.ref]
            if region.sequence and not (
                state.module_reuse and region.loaded == impl.name
            ):
                duration = state.arch.reconf_time(region.resources)
                _ctrl, rc_start = state._controller_slot(
                    region.free_time, duration
                )
                rc_end = rc_start + duration
                if rc_end > makespan:
                    makespan = rc_end
                start = max(ready, rc_end)
            else:
                start = max(ready, region.free_time)
        else:  # "new" — a fresh region is idle at t=0 and needs no reconf
            start = max(ready, 0.0)
        end = start + impl.time
        if end > makespan:
            makespan = end
        return (makespan, state.end_sum + end, end, impl.name)

    def _ranked_options(
        self, state: PartialSchedule, task_id: str
    ) -> list[tuple[tuple[float, float, float, str], _Option]]:
        """Rank options by read-only preview — no state mutation, so
        only the branches the DFS actually explores pay for an
        apply/undo.  Ordering is exactly the copy engine's
        (``end_sum`` accumulates task ends in placement order, which is
        the summation order of ``sum(end.values())``)."""
        try:
            ready = state.ready_time(task_id)
        except ValueError:
            return []
        options = self._task_options(state, task_id)
        if len(options) >= _VECTOR_PREVIEW_MIN:
            return self._ranked_options_vector(state, ready, options)
        ranked = [
            (self._preview_key(state, option, ready), option)
            for option in options
        ]
        ranked.sort(key=lambda item: item[0])
        return ranked

    def _ranked_options_vector(
        self, state: PartialSchedule, ready: float, options: list[_Option]
    ) -> list[tuple[tuple[float, float, float, str], _Option]]:
        """Batched :meth:`_preview_key` over the whole frontier.

        Bit-identical to the scalar loop: the array ops replay the same
        float operations with the same operand order (``max(ready, .)``,
        one addition for the end time, one for the end-sum), the
        reconfiguration end per region is the *same* Python-computed
        float shared by every option targeting that region (it never
        depends on the implementation), and ``np.lexsort`` is stable
        with the same key priority as sorting the Python key tuples.
        """
        n = len(options)
        makespan = state.makespan
        times = _np.fromiter((o.impl.time for o in options), _np.float64, n)
        base = [0.0] * n  # earliest target-free time, filled in Python
        pre = _np.full(n, makespan, dtype=_np.float64)
        rc_end_of: dict[str, float] = {}
        proc_free = state.proc_free
        regions = state.regions
        for j, option in enumerate(options):
            kind = option.kind
            if kind == _PROC:
                base[j] = proc_free[option.ref]
            elif kind == _REGION:
                region = regions[option.ref]
                if region.sequence and not (
                    state.module_reuse and region.loaded == option.impl.name
                ):
                    rc_end = rc_end_of.get(region.id)
                    if rc_end is None:
                        duration = state.arch.reconf_time(region.resources)
                        _ctrl, rc_start = state._controller_slot(
                            region.free_time, duration
                        )
                        rc_end = rc_start + duration
                        rc_end_of[region.id] = rc_end
                    base[j] = rc_end
                    if rc_end > makespan:
                        pre[j] = rc_end
                else:
                    base[j] = region.free_time
            # "new" — a fresh region is idle at t=0, base stays 0.0
        start = _np.maximum(ready, _np.array(base, dtype=_np.float64))
        end = start + times
        ms = _np.maximum(pre, end)
        end_sum = state.end_sum + end
        names = [o.impl.name for o in options]
        # Integer ranks stand in for the string tie-break: the map is
        # strictly monotone on distinct names, and both lexsort and
        # Python's sort are stable, so the order is identical.
        rank_of = {nm: i for i, nm in enumerate(sorted(set(names)))}
        ranks = _np.fromiter((rank_of[nm] for nm in names), _np.int64, n)
        order = _np.lexsort((ranks, end, end_sum, ms))
        ms_l = ms.tolist()
        es_l = end_sum.tolist()
        end_l = end.tolist()
        return [
            ((ms_l[i], es_l[i], end_l[i], names[i]), options[i])
            for i in order.tolist()
        ]

    def _relevant_prefixes(self, state: PartialSchedule, window: list[str]) -> list[list[str]]:
        """For each depth d: the window-prefix tasks whose end times can
        still influence the remaining window (successor in it) — the
        only prefix timing the dominance signature must pin down."""
        graph = state.instance.taskgraph
        relevant: list[list[str]] = []
        for d in range(len(window)):
            rest = set(window[d:])
            relevant.append(
                [t for t in window[:d]
                 if any(s in rest for s in graph.successors(t))]
            )
        return relevant

    @staticmethod
    def _signature(state: PartialSchedule, depth: int, relevant: list[str]) -> tuple:
        """Canonical window-state frontier at ``depth``.

        Two states with equal signatures offer identical completion
        sets with identical rank orderings (their end-sums differ by a
        constant, which shifts every completion's tie-break equally),
        so the one with the larger running end-sum is dominated.
        """
        return (
            depth,
            state.makespan,
            tuple(state.proc_free),
            tuple(
                (r.id, r.resources, r.free_time, r.loaded, bool(r.sequence))
                for r in state.regions.values()
            ),
            tuple(tuple(c) for c in state.controllers),
            tuple(state.end[t] for t in relevant),
        )

    def _greedy_completion(
        self, state: PartialSchedule, window: list[str], start_depth: int
    ) -> tuple[tuple[float, float], list[_Option]] | None:
        """Rank-first descent from ``start_depth`` — exactly the first
        path the DFS would walk.  Returns (score, options) and restores
        the state; ``None`` on a dead end (then no incumbent is seeded
        and the search starts from an infinite bound, as the copy
        engine does)."""
        mark = state.trail_mark()
        taken: list[_Option] = []
        for task_id in window[start_depth:]:
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
        hint: float | None = None,
    ) -> tuple[tuple[float, float], list[_Option] | None, int, tuple[int, list[_Option]]]:
        """Bounded DFS from ``start_depth`` (earlier window tasks are
        already applied).  Returns ``(best_score, best_tail, nodes,
        deepest)`` where ``best_tail`` is ``None`` when no leaf beat
        the seed (the caller then keeps the seed path) and ``deepest``
        is the deepest partial reached (for the budget fallback).

        ``hint`` adds one extra prune (``key[0] > hint``) checked only
        after the ordinary incumbent bound, so ``stats["hint_pruned"]``
        counts exactly the subtrees the hint removed *beyond* what the
        incumbent already pruned.  Soundness is argued in
        :meth:`schedule` / DESIGN.md: any surviving leaf has makespan
        <= hint while every hint-pruned subtree only contains leaves
        with makespan > hint, so a found ``best_tail`` is provably the
        unhinted winner (ties included — the pruned leaves are strictly
        worse in the first component and the visit order of surviving
        branches is unchanged)."""
        opts = self.options
        n = len(window)
        relevant = self._relevant_prefixes(state, window)
        best_score = seed_score if seed_score is not None else _INF_SCORE
        best_tail: list[_Option] | None = None
        nodes = 0
        memo: dict[tuple, float] = {}
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
            if opts.memo:
                sig = self._signature(state, depth, relevant[depth])
                prev = memo.get(sig)
                if prev is not None and prev <= state.end_sum:
                    stats["memo_hits"] += 1
                    return
                memo[sig] = state.end_sum
            ranked = self._ranked_options(state, window[depth])
            cap = opts.branch_cap if n > 1 else len(ranked)
            for key, option in ranked[:cap]:
                nodes += 1
                # The partial makespan only grows as tasks are added, so
                # it is an admissible bound for pruning.
                if key[0] > best_score[0]:
                    stats["bound_pruned"] += 1
                    continue
                if hint is not None and key[0] > hint:
                    stats["hint_pruned"] += 1
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
        stats["memo_entries"] += len(memo)
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
        """Node budget exhausted before any leaf (and no seed): complete
        from the deepest best partial the search reached, falling back
        to the window root only if that subtree is infeasible.  Raises
        only when the *whole* window has no feasible completion."""
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

    def _solve_window_trail(
        self,
        state: PartialSchedule,
        window: list[str],
        stats: dict,
        jobs: int,
        hint: float | None = None,
    ) -> tuple[PartialSchedule, int]:
        """In-place window solve: seed the incumbent, search (serial or
        fanned out), then commit the winning path onto ``state``.

        When a ``hint`` fires it is only trusted if the hinted search
        both found a leaf and stayed inside the node budget — exactly
        the two conditions under which the hinted tree is provably
        result-identical to the unhinted one.  Otherwise the window is
        re-searched without the hint (the independent solve, verbatim),
        so an arbitrarily wrong hint costs time but never a decision."""
        opts = self.options
        seed = (
            self._greedy_completion(state, window, 0)
            if opts.incumbent_seed
            else None
        )
        if seed is not None:
            stats["incumbent_seeds"] += 1
        seed_score = seed[0] if seed is not None else None

        if jobs > 1 and len(window) >= 2:
            # Fan-out workers each own a node budget; the identity proof
            # above does not compose across budgets, so the hint is
            # ignored here (documented in :meth:`schedule`).
            best_path, nodes = self._fanout_search(state, window, seed, stats, jobs)
        else:
            if hint is not None:
                stats["hint_windows"] += 1
            pruned_before = stats["hint_pruned"]
            _best, best_tail, nodes, deepest = self._dfs_search(
                state, window, 0, seed_score, stats, hint=hint
            )
            hint_fired = stats["hint_pruned"] > pruned_before
            if hint_fired and (best_tail is None or nodes > opts.node_limit):
                # Ambiguous: the hint cut subtrees and either no leaf
                # beat the seed (a cut subtree might have) or the node
                # budget bound (the unhinted run walks other nodes).
                # Re-run the window unhinted — this *is* the
                # independent solve, so identity is restored exactly.
                stats["hint_reruns"] += 1
                _best, best_tail, rerun_nodes, deepest = self._dfs_search(
                    state, window, 0, seed_score, stats
                )
                nodes += rerun_nodes
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

    # -- copy engine (the seed implementation, kept as the reference) ------

    def _ranked_forks(
        self, state: PartialSchedule, task_id: str
    ) -> list[tuple[tuple[float, float], PartialSchedule]]:
        """Fork the state per option, ranked by the myopic objective."""
        ranked: list[tuple[tuple[float, float, float, str], PartialSchedule]] = []
        for option in self._task_options(state, task_id):
            fork = state.copy()
            try:
                self._apply(fork, task_id, option)
            except ValueError:
                continue
            makespan, end_sum = _score(fork)
            ranked.append(
                ((makespan, end_sum, fork.end[task_id], option.impl.name), fork)
            )
        ranked.sort(key=lambda item: item[0])
        return [((key[0], key[1]), fork) for key, fork in ranked]

    def _solve_window_copy(
        self, state: PartialSchedule, window: list[str]
    ) -> tuple[PartialSchedule, int]:
        """Exact (budget-bounded) DFS over the window's decision space —
        the seed fork-per-option engine, byte-for-byte semantics."""
        opts = self.options
        best_state: PartialSchedule | None = None
        best_score: tuple[float, float] = (float("inf"), float("inf"))
        nodes = 0

        def dfs(current: PartialSchedule, depth: int) -> None:
            nonlocal best_state, best_score, nodes
            if depth == len(window):
                score = _score(current)
                if score < best_score:
                    best_score = score
                    best_state = current
                return
            if nodes > opts.node_limit:
                return
            ranked = self._ranked_forks(current, window[depth])
            cap = opts.branch_cap if len(window) > 1 else len(ranked)
            for (makespan, _end_sum), fork in ranked[:cap]:
                nodes += 1
                # The partial makespan only grows as tasks are added, so
                # it is an admissible bound for pruning.
                if makespan > best_score[0]:
                    continue
                dfs(fork, depth + 1)

        dfs(state, 0)
        if best_state is None:
            # Node budget exhausted before any leaf: greedy completion.
            best_state = state
            for task_id in window:
                ranked = self._ranked_forks(best_state, task_id)
                if not ranked:
                    raise RuntimeError(f"task {task_id!r} has no feasible option")
                best_state = ranked[0][1]
        return best_state, nodes


def isk_schedule(instance: Instance, k: int = 1, **kwargs) -> ISKResult:
    """Convenience wrapper: ``isk_schedule(instance, k=5)``."""
    return ISKScheduler(ISKOptions(k=k, **kwargs)).schedule(instance)
