"""Exactness properties of the fast hot paths.

The incremental earliest-start view must equal the full CPM pass, and
the vectorized minimal-window enumeration and containment pruning must
equal their scalar sweeps.  Any drift is a correctness bug, not a
tolerance issue, so comparisons are exact (``==``), never approximate.
"""

from hypothesis import given, settings, strategies as st

from repro.core.timing import PrecedenceGraph
from repro.floorplan.device import small_device
from repro.floorplan.placements import (
    _minimal_windows_scalar,
    _minimal_windows_vector,
    _prune_contained,
    _prune_contained_vector,
    Placement,
)


@st.composite
def incremental_scenarios(draw):
    """A base DAG plus a stream of later (acyclic) edge insertions."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = []
    for dst in range(1, n):
        for src in range(dst):
            if draw(st.booleans()):
                edges.append((src, dst))
    cut = draw(st.integers(min_value=0, max_value=len(edges)))
    exe = {
        f"n{i}": draw(st.floats(min_value=0.5, max_value=20.0, allow_nan=False))
        for i in range(n)
    }
    return n, edges[:cut], edges[cut:], exe


@given(incremental_scenarios(), st.sampled_from([1, 2, 1_000_000]))
@settings(max_examples=60)
def test_incremental_starts_track_full_pass(scenario, fallthrough_limit):
    """The live view equals the full pass after every insertion, for a
    tiny fall-through limit (every propagate falls through to the full
    pass) and a huge one (pure frontier repair)."""
    n, base_edges, later_edges, exe = scenario
    graph = PrecedenceGraph([f"n{i}" for i in range(n)])
    for src, dst in base_edges:
        graph.add_edge(f"n{src}", f"n{dst}")
    live = graph.begin_incremental(exe)
    live.fallthrough_limit = fallthrough_limit
    try:
        for src, dst in later_edges:
            graph.add_edge(f"n{src}", f"n{dst}")
            full = graph.earliest_starts(exe)
            assert live.snapshot() == full
    finally:
        graph.end_incremental()


# -- floorplan placement enumeration ------------------------------------


_DEVICES = [
    small_device(),
    small_device(rows=3, clb=10, bram=2, dsp=2),
    small_device(rows=1, clb=4, bram=0, dsp=1),
]


@st.composite
def window_queries(draw):
    device = draw(st.sampled_from(_DEVICES))
    height = draw(st.integers(min_value=1, max_value=device.rows))
    kinds = draw(
        st.lists(
            st.sampled_from(["CLB", "BRAM", "DSP", "WEIRD"]),
            unique=True,
            min_size=1,
            max_size=3,
        )
    )
    # ResourceVector drops zero entries, so real demands are >= 1.
    needed = {
        kind: draw(st.integers(min_value=1, max_value=400)) for kind in kinds
    }
    return device, needed, height


@given(window_queries())
def test_minimal_windows_vector_matches_scalar(query):
    device, needed, height = query
    assert _minimal_windows_vector(device, needed, height) == (
        _minimal_windows_scalar(device, needed, height)
    )


@st.composite
def placement_lists(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    rects = [
        Placement(
            col=draw(st.integers(min_value=0, max_value=6)),
            row=draw(st.integers(min_value=0, max_value=3)),
            width=draw(st.integers(min_value=1, max_value=5)),
            height=draw(st.integers(min_value=1, max_value=3)),
        )
        for _ in range(n)
    ]
    # Match the enumeration's invariant: smallest-area first, so
    # containers always appear after the rectangles they contain.
    rects.sort(key=lambda p: (p.width * p.height, p.width, p.col, p.row))
    return rects


@given(placement_lists())
def test_prune_contained_vector_matches_scalar(rects):
    assert _prune_contained_vector(rects) == _prune_contained(rects)
