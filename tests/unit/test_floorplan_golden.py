"""Golden pins for the decisions of the floorplan DFS.

The inputs are every region-demand set that got past the greedy pass to
the depth-first search when PA ran on ``fleet_scenario`` (12, 3),
(16, 28), (24, 9) and (24, 12) over the default three-device fleet,
with each instance in its JSON form.  They were captured once and are
kept here as data, so a change in PA or fleet cannot move them.
Together they cover every verdict kind: feasible by DFS, proven
infeasible by exhaustive search, and stopped at the node budget.

Each case pins the verdict, whether it is proven, the node count, the
reason and the chosen rectangles ``(col, row, width, height)`` in input
order.  A mismatch means the search visited other nodes or picked
another witness; the pins are not meant to be edited.
"""

from __future__ import annotations

import pytest

from repro.fleet.presets import preset_architecture
from repro.floorplan import (
    candidate_placements,
    device_for_architecture,
    solve_backtracking,
)
from repro.model import ResourceVector

KINDS = ("CLB", "BRAM", "DSP")


def _demands(*triples: tuple[int, int, int]) -> tuple[ResourceVector, ...]:
    return tuple(
        ResourceVector({k: v for k, v in zip(KINDS, triple) if v}) for triple in triples
    )


# (id, device preset, demands, feasible, proven, nodes, reason, rectangles)
CASES = (
    (
        "12-3-a", "artix-small",
        _demands(
            (400, 0, 20), (600, 20, 20), (400, 10, 20), (200, 0, 0), (200, 0, 0),
            (200, 0, 0), (200, 0, 0), (500, 0, 0), (300, 0, 20), (500, 0, 0),
            (800, 0, 0), (200, 0, 20),
        ),
        False, True, 7842, "exhaustive", None,
    ),
    (
        "12-3-b", "artix-small",
        _demands(
            (400, 0, 20), (600, 20, 20), (400, 10, 20), (200, 0, 0), (200, 0, 0),
            (200, 0, 0), (200, 0, 0), (500, 0, 0), (300, 0, 20), (500, 0, 0),
            (800, 0, 0),
        ),
        True, True, 11, None,
        (
            (35, 0, 5, 2), (0, 0, 19, 1), (2, 1, 13, 1), (1, 1, 1, 1), (16, 1, 1, 1),
            (31, 1, 1, 1), (34, 1, 1, 1), (19, 0, 7, 1), (17, 1, 13, 1), (28, 0, 7, 1),
            (40, 0, 2, 2),
        ),
    ),
    (
        "12-3-c", "artix-small",
        _demands(
            (400, 0, 20), (400, 10, 20), (200, 0, 0), (500, 0, 0), (200, 0, 20),
            (1000, 0, 0), (500, 0, 40), (700, 0, 0),
        ),
        False, True, 1321, "exhaustive", None,
    ),
    (
        "16-28-a", "artix-small",
        _demands(
            (300, 0, 0), (300, 0, 0), (300, 0, 0), (400, 10, 0), (500, 0, 0),
            (100, 0, 0), (300, 0, 0), (300, 0, 0), (400, 10, 0), (900, 0, 0),
            (900, 0, 0), (200, 0, 20),
        ),
        True, True, 3387, None,
        (
            (4, 0, 1, 2), (34, 0, 1, 2), (40, 0, 1, 2), (0, 0, 4, 2), (25, 0, 7, 1),
            (31, 1, 1, 1), (41, 0, 1, 2), (25, 1, 4, 1), (6, 0, 4, 2), (10, 0, 13, 1),
            (10, 1, 13, 1), (35, 0, 5, 2),
        ),
    ),
    (
        "16-28-b", "kintex-fast",
        _demands(
            (400, 10, 0), (500, 0, 0), (900, 0, 0), (700, 10, 0), (100, 0, 0),
            (300, 0, 0), (300, 0, 0), (400, 10, 0), (900, 0, 0), (900, 0, 0),
            (200, 0, 20), (900, 0, 0), (900, 0, 0), (900, 0, 0), (800, 0, 0),
            (700, 10, 0),
        ),
        False, False, 50001, "budget", None,
    ),
    (
        "16-28-c", "artix-small",
        _demands(
            (400, 10, 0), (900, 0, 0), (700, 10, 0), (100, 0, 0), (300, 0, 0),
            (300, 0, 0), (900, 0, 0), (900, 0, 0), (900, 0, 0),
        ),
        True, True, 325, None,
        (
            (0, 0, 4, 2), (38, 0, 4, 2), (18, 0, 5, 2), (4, 0, 1, 1), (7, 0, 4, 1),
            (13, 0, 4, 1), (25, 0, 12, 1), (25, 1, 12, 1), (4, 1, 13, 1),
        ),
    ),
    (
        "24-9-a", "artix-small",
        _demands(
            (200, 0, 0), (500, 0, 0), (400, 0, 20), (200, 0, 0), (200, 0, 0),
            (200, 0, 0), (200, 10, 0), (300, 0, 0), (300, 0, 0), (300, 0, 0),
            (300, 0, 0), (300, 10, 0), (200, 0, 0), (200, 0, 0), (400, 10, 0),
            (300, 10, 0), (300, 0, 0), (500, 0, 0),
        ),
        False, False, 50001, "budget", None,
    ),
    (
        "24-9-b", "kintex-fast",
        _demands(
            (500, 0, 0), (800, 0, 0), (400, 0, 20), (200, 0, 0), (200, 0, 0),
            (300, 0, 0), (300, 0, 0), (300, 0, 0), (300, 0, 0), (200, 0, 0),
            (200, 0, 0), (400, 10, 0), (300, 0, 0), (400, 10, 0), (600, 20, 0),
            (500, 0, 0), (700, 10, 0), (500, 10, 0), (700, 0, 0), (800, 0, 0),
            (400, 10, 20),
        ),
        True, True, 69, None,
        (
            (25, 0, 1, 2), (28, 0, 1, 2), (41, 0, 5, 1), (1, 0, 1, 1), (1, 1, 1, 1),
            (4, 0, 1, 1), (4, 1, 1, 1), (7, 0, 1, 1), (7, 1, 1, 1), (10, 0, 1, 1),
            (10, 1, 1, 1), (33, 0, 2, 2), (16, 0, 1, 1), (21, 1, 4, 1), (12, 0, 4, 2),
            (31, 0, 1, 2), (36, 0, 2, 2), (39, 0, 2, 2), (42, 1, 3, 1), (16, 1, 4, 1),
            (17, 0, 7, 1),
        ),
    ),
    (
        "24-9-c", "artix-small",
        _demands(
            (300, 0, 0), (800, 0, 0), (300, 0, 0), (200, 0, 0), (200, 0, 0),
            (300, 0, 0), (300, 0, 0), (500, 0, 0), (400, 0, 20), (700, 10, 0),
            (700, 0, 0), (400, 10, 20),
        ),
        False, False, 50001, "budget", None,
    ),
    (
        "24-12-a", "artix-small",
        _demands(
            (200, 0, 0), (500, 0, 0), (800, 0, 20), (500, 0, 0), (500, 0, 0),
            (200, 0, 0), (800, 0, 0), (200, 0, 20), (700, 0, 0), (600, 0, 0),
            (500, 0, 0),
        ),
        False, False, 50001, "budget", None,
    ),
    (
        "24-12-b", "artix-small",
        _demands(
            (200, 0, 0), (300, 0, 0), (300, 0, 0), (300, 0, 0), (200, 0, 20),
            (300, 0, 0), (200, 0, 0), (200, 0, 0), (300, 0, 0), (200, 0, 0),
            (300, 0, 0), (100, 0, 20), (300, 0, 0), (500, 0, 0), (500, 0, 0),
            (500, 0, 0),
        ),
        False, False, 50001, "budget", None,
    ),
    (
        "24-12-c", "artix-small",
        _demands(
            (200, 0, 0), (500, 0, 0), (300, 0, 0), (100, 0, 20), (500, 0, 0),
            (500, 0, 0), (500, 0, 0), (200, 0, 0), (800, 0, 0), (600, 0, 0),
            (500, 0, 0), (700, 20, 0),
        ),
        False, False, 50001, "budget", None,
    ),
)


def case(case_id: str) -> tuple:
    """``(device, demands)`` of one pinned case."""
    for row in CASES:
        if row[0] == case_id:
            return device_for_architecture(preset_architecture(row[1])), list(row[2])
    raise KeyError(case_id)


def test_cases_cover_every_verdict_kind():
    kinds = {(row[3], row[6]) for row in CASES}
    assert kinds == {(True, None), (False, "exhaustive"), (False, "budget")}


@pytest.mark.parametrize(
    "preset, demands, feasible, proven, nodes, reason, rectangles",
    [row[1:] for row in CASES],
    ids=[row[0] for row in CASES],
)
def test_dfs_decisions_pinned(preset, demands, feasible, proven, nodes, reason, rectangles):
    device = device_for_architecture(preset_architecture(preset))
    candidates = [candidate_placements(device, d, 400) for d in demands]
    result = solve_backtracking(device, candidates)
    chosen = (
        None
        if result.placements is None
        else tuple((p.col, p.row, p.width, p.height) for p in result.placements)
    )
    assert (result.feasible, result.proven, result.nodes) == (feasible, proven, nodes)
    assert result.stats.get("reason") == reason
    assert result.stats.get("via", "dfs") == "dfs"
    assert chosen == rectangles
