"""Property: the apply/undo trail is a faithful inverse.

Any feasible sequence of placement operations recorded on the trail,
followed by ``undo_to`` the starting mark, restores *every* observable
the placement ops mutate — including the incremental objective floats,
which must come back as the recorded values (no arithmetic re-derive,
no drift).  This is the substrate invariant that makes the in-place
IS-k search decide exactly as forking a fresh copy per option would.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import PartialSchedule
from repro.baselines.isk import ISKOptions, ISKScheduler

from .strategies import instances

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def fingerprint(ps: PartialSchedule) -> tuple:
    """Every observable the placement ops mutate, as comparable values."""
    return (
        dict(ps.impl),
        dict(ps.placement),
        dict(ps.start),
        dict(ps.end),
        list(ps.proc_free),
        [list(s) for s in ps.proc_sequence],
        [list(c) for c in ps.controllers],
        list(ps.reconfigurations),
        {
            rid: (r.resources, r.free_time, r.loaded, list(r.sequence))
            for rid, r in ps.regions.items()
        },
        ps.used,
        ps._region_counter,
        ps.end_sum,
        ps.makespan,
    )


def _random_walk(ps: PartialSchedule, order, rng) -> int:
    """Apply one rng-chosen feasible option per task; returns the count
    of tasks actually placed (stops early if a task has no options)."""
    scheduler = ISKScheduler(ISKOptions())
    placed = 0
    for task_id in order:
        options = scheduler._task_options(ps, task_id)
        if not options:
            break
        scheduler._apply(ps, task_id, rng.choice(options))
        placed += 1
    return placed


@SETTINGS
@given(instances(), st.integers(0, 2**31 - 1), st.integers(0, 10))
def test_undo_restores_everything(instance, seed, prefix_len):
    rng = random.Random(seed)
    order = instance.taskgraph.topological_order()
    ps = PartialSchedule(instance, enable_module_reuse=True)

    # Commit a random prefix without recording, then record the rest.
    committed = _random_walk(ps, order[: min(prefix_len, len(order))], rng)
    before = fingerprint(ps)
    mark = ps.trail_mark()
    placed = _random_walk(ps, order[committed:], rng)
    assert ps.trail_depth() >= placed  # region creations add entries too

    ps.undo_to(mark)
    assert fingerprint(ps) == before


@SETTINGS
@given(instances(), st.integers(0, 2**31 - 1))
def test_repeated_cycles_never_drift(instance, seed):
    rng = random.Random(seed)
    order = instance.taskgraph.topological_order()
    ps = PartialSchedule(instance, enable_module_reuse=True)
    before = fingerprint(ps)
    mark = ps.trail_mark()
    for _ in range(5):
        _random_walk(ps, order, rng)
        ps.undo_to(mark)
        assert fingerprint(ps) == before


@SETTINGS
@given(instances(), st.integers(0, 2**31 - 1))
def test_trail_walk_equals_fresh_walk(instance, seed):
    """A walk replayed after an apply/undo detour lands on the same
    state as the identical walk on a fresh PartialSchedule."""
    order = instance.taskgraph.topological_order()

    detoured = PartialSchedule(instance, enable_module_reuse=True)
    mark = detoured.trail_mark()
    _random_walk(detoured, order, random.Random(seed + 1))  # the detour
    detoured.undo_to(mark)
    _random_walk(detoured, order, random.Random(seed))

    fresh = PartialSchedule(instance, enable_module_reuse=True)
    fresh.trail_mark()
    _random_walk(fresh, order, random.Random(seed))

    assert fingerprint(detoured) == fingerprint(fresh)


def _bits(*values: float) -> list[str]:
    return [value.hex() for value in values]


@SETTINGS
@given(instances(), st.integers(0, 2**31 - 1), st.booleans(), st.booleans())
def test_preview_equals_apply(instance, seed, module_reuse, drained):
    """``earliest_start`` is the start rule the placement ops commit:
    for every option of every task along a random walk, the previewed
    start, end and reconfiguration equal apply → read → ``undo_to``
    bit for bit.  ``drained`` empties the sequence of some regions but
    keeps their module loaded, as an online projection seeds them."""
    rng = random.Random(seed)
    ps = PartialSchedule(
        instance,
        communication_overhead=rng.random() < 0.5,
        enable_module_reuse=module_reuse,
    )
    scheduler = ISKScheduler(ISKOptions())
    ps.trail_mark()
    for task_id in instance.taskgraph.topological_order():
        if drained:
            for region in ps.regions.values():
                if rng.random() < 0.5:
                    region.sequence.clear()
        options = scheduler._task_options(ps, task_id)
        if not options:
            break
        ready = ps.ready_time(task_id)
        before = fingerprint(ps)
        for option in options:
            impl = option.impl
            start, reconf = ps.earliest_start(ready, impl.name, option.ref)
            if isinstance(option.ref, str):
                # the loaded module decides, not the (maybe drained) queue
                loaded = ps.regions[option.ref].loaded
                assert (reconf is not None) == (
                    loaded is not None
                    and not (module_reuse and loaded == impl.name)
                )
            new_id = ps.next_region_id
            reconfs = len(ps.reconfigurations)
            mark = ps.trail_mark()
            scheduler._apply(ps, task_id, option)
            assert _bits(ps.start[task_id], ps.end[task_id]) == _bits(
                start, start + impl.time
            )
            if option.ref is None:
                assert ps.placement[task_id].region_id == new_id
            if reconf is None:
                assert len(ps.reconfigurations) == reconfs
            else:
                rc = ps.reconfigurations[-1]
                assert rc.controller == reconf[0]
                assert _bits(rc.start, rc.end) == _bits(*reconf[1:])
            ps.undo_to(mark)
            assert fingerprint(ps) == before
        scheduler._apply(ps, task_id, rng.choice(options))
