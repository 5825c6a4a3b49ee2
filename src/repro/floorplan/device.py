"""Column-based FPGA fabric model (7-series style).

Reference [3] floorplans rectangular reconfigurable regions on a fabric
organised as *clock-region rows* crossed by *typed columns* (CLB, BRAM,
DSP).  A region is a rectangle of whole (column x clock-region) cells —
partial-reconfiguration granularity on 7-series devices is the clock
region in the vertical direction and the column in the horizontal one.

Every cell of a column provides a fixed amount of its resource type and
costs a fixed number of configuration frames, which is exactly the
frame-based accounting the paper borrows from Vipin & Fahmy for Eq. 1.
The :meth:`FabricDevice.architecture` adapter derives the scheduler's
``maxRes_r`` / ``bit_r`` from the same model, keeping the whole stack
consistent: a schedule that saturates ``maxRes`` talks about the same
fabric the floorplanner places regions on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as _np

from ..model import Architecture, ResourceVector

__all__ = ["ColumnSpec", "FabricDevice", "zynq_7z020", "small_device"]

FRAME_BITS = 101 * 32  # one 7-series configuration frame


@dataclass(frozen=True)
class ColumnSpec:
    """Per-cell content of a column type.

    ``resources`` units of ``kind`` and ``frames`` configuration frames
    per (column x clock-region) cell.
    """

    kind: str
    resources: int
    frames: int

    def __post_init__(self) -> None:
        if self.resources <= 0 or self.frames <= 0:
            raise ValueError(f"column {self.kind!r}: resources/frames must be > 0")


# 7-series cell contents: a CLB column holds 50 CLBs = 100 slices and 36
# frames per clock region; BRAM columns hold 10 RAMB36 (28 frames); DSP
# columns hold 20 DSP48 (28 frames).
SPEC_CLB = ColumnSpec(kind="CLB", resources=100, frames=36)
SPEC_BRAM = ColumnSpec(kind="BRAM", resources=10, frames=28)
SPEC_DSP = ColumnSpec(kind="DSP", resources=20, frames=28)


class FabricDevice:
    """A fabric: ``rows`` clock regions by a left-to-right column layout."""

    def __init__(
        self,
        name: str,
        rows: int,
        columns: tuple[str, ...] | list[str],
        specs: dict[str, ColumnSpec] | None = None,
        reserved_columns: int = 0,
    ) -> None:
        if rows < 1:
            raise ValueError("device needs at least one clock-region row")
        if not columns:
            raise ValueError("device needs at least one column")
        self.name = name
        self.rows = rows
        self.columns = tuple(columns)
        self.specs = dict(
            specs
            or {"CLB": SPEC_CLB, "BRAM": SPEC_BRAM, "DSP": SPEC_DSP}
        )
        unknown = [c for c in self.columns if c not in self.specs]
        if unknown:
            raise ValueError(f"columns of unknown type: {sorted(set(unknown))}")
        if not (0 <= reserved_columns < len(self.columns)):
            raise ValueError("reserved_columns out of range")
        # Leftmost columns reserved for the static system (processor
        # interface, ICAP, ...); placements must not use them.
        self.reserved_columns = reserved_columns
        self._init_caches()

    def _init_caches(self) -> None:
        # Per-device memos shared by every Floorplanner over this fabric:
        # candidate enumerations keyed on (demand, max_candidates), cell
        # bitmasks keyed on the placement, and rectangle resource totals.
        # The device geometry is immutable, so entries never invalidate.
        self._candidate_cache: dict = {}
        self._mask_cache: dict = {}
        self._rect_cache: dict = {}
        self._packed_geometry: dict | None = None
        self.candidate_cache_hits = 0
        self.candidate_cache_misses = 0

    def __getstate__(self) -> dict:
        # Keep pickles lean: workers rebuild their memos locally instead
        # of shipping (potentially large) warm caches across processes.
        # The packed geometry arrays are derived data too — dropping
        # them keeps the PR-2 pool handshake at a few hundred bytes.
        state = dict(self.__dict__)
        state["_candidate_cache"] = {}
        state["_mask_cache"] = {}
        state["_rect_cache"] = {}
        state["_packed_geometry"] = None
        state["candidate_cache_hits"] = 0
        state["candidate_cache_misses"] = 0
        return state

    def packed_geometry(self) -> dict:
        """Per-kind column prefix sums as contiguous arrays (lazy).

        ``{kind: prefix}`` where ``prefix`` has ``width + 1`` entries
        and ``prefix[j]`` is the per-cell resource total of columns
        ``[0, j)`` of that kind — the form the vectorized
        candidate-window enumeration consumes (one ``searchsorted`` per
        resource kind instead of a Python sliding window).
        """
        geometry = self._packed_geometry
        if geometry is None:
            width = self.width
            geometry = {}
            for kind, spec in self.specs.items():
                counts = _np.zeros(width + 1, dtype=_np.int64)
                for j, column in enumerate(self.columns):
                    if column == kind:
                        counts[j + 1] = spec.resources
                geometry[kind] = _np.cumsum(counts)
            self._packed_geometry = geometry
        return geometry

    @property
    def width(self) -> int:
        return len(self.columns)

    def column_resources(self, col: int) -> ResourceVector:
        spec = self.specs[self.columns[col]]
        return ResourceVector({spec.kind: spec.resources})

    def column_frames(self, col: int) -> int:
        return self.specs[self.columns[col]].frames

    # -- rectangle accounting ------------------------------------------------

    def rect_resources(self, col: int, width: int, height: int) -> ResourceVector:
        """Resources of a ``width x height`` rectangle starting at ``col``.

        Columns are vertically uniform, so the row offset is irrelevant
        for resource counting.
        """
        key = (col, width, height)
        cached = self._rect_cache.get(key)
        if cached is not None:
            return cached
        totals: dict[str, int] = {}
        for c in range(col, col + width):
            spec = self.specs[self.columns[c]]
            totals[spec.kind] = totals.get(spec.kind, 0) + spec.resources * height
        vector = ResourceVector(totals)
        self._rect_cache[key] = vector
        return vector

    def rect_frames(self, col: int, width: int, height: int) -> int:
        return sum(
            self.column_frames(c) * height for c in range(col, col + width)
        )

    def rect_bits(self, col: int, width: int, height: int) -> float:
        return self.rect_frames(col, width, height) * FRAME_BITS

    def total_resources(self) -> ResourceVector:
        """Fabric totals over the non-reserved columns."""
        usable = self.width - self.reserved_columns
        return self.rect_resources(self.reserved_columns, usable, self.rows)

    # -- adapter to the scheduling model -------------------------------------------

    def bits_per_resource(self) -> dict[str, float]:
        """Average configuration bits per resource unit, per type (Eq. 1)."""
        return {
            kind: spec.frames * FRAME_BITS / spec.resources
            for kind, spec in self.specs.items()
        }

    def architecture(
        self, processors: int = 2, rec_freq: float = 3200.0
    ) -> Architecture:
        """An :class:`Architecture` whose numbers match this fabric exactly."""
        return Architecture(
            name=f"{self.name}-arch",
            processors=processors,
            max_res=self.total_resources(),
            bit_per_resource=self.bits_per_resource(),
            rec_freq=rec_freq,
            region_quantum={
                kind: spec.resources for kind, spec in self.specs.items()
            },
        )

    def __repr__(self) -> str:
        return (
            f"FabricDevice({self.name!r}, rows={self.rows}, "
            f"columns={self.width}, reserved={self.reserved_columns})"
        )


def _interleave(n_clb: int, n_bram: int, n_dsp: int) -> list[str]:
    """A realistic left-to-right layout.

    BRAM and DSP columns appear as *adjacent pairs* spread evenly
    through the CLB columns — mirroring 7-series devices, where memory
    and arithmetic columns sit next to each other so a compact
    rectangle can cover demands on all three resource types.
    """
    groups: list[list[str]] = []
    pairs = min(n_bram, n_dsp)
    groups.extend(["BRAM", "DSP"] for _ in range(pairs))
    groups.extend(["BRAM"] for _ in range(n_bram - pairs))
    groups.extend(["DSP"] for _ in range(n_dsp - pairs))

    layout: list[str] = []
    n_groups = len(groups)
    if n_groups == 0:
        return ["CLB"] * n_clb
    # Distribute CLB columns into n_groups + 1 nearly-equal runs.
    base, extra = divmod(n_clb, n_groups + 1)
    for index, group in enumerate(groups):
        run = base + (1 if index < extra else 0)
        layout.extend(["CLB"] * run)
        layout.extend(group)
    layout.extend(["CLB"] * base)
    assert len(layout) == n_clb + n_bram + n_dsp, "layout construction bug"
    return layout


@lru_cache(maxsize=None)
def zynq_7z020(reserved_columns: int = 0) -> FabricDevice:
    """A Zynq XC7Z020-class fabric (the paper's ZedBoard target).

    3 clock-region rows; 44 CLB + 5 BRAM + 4 DSP columns, giving 13200
    slices / 150 RAMB36 / 240 DSP48 — within a few percent of the real
    part's 13300 / 140 / 220 (documented approximation in DESIGN.md).
    """
    return FabricDevice(
        name="zynq7z020-model",
        rows=3,
        columns=tuple(_interleave(44, 5, 4)),
        reserved_columns=reserved_columns,
    )


def small_device(rows: int = 2, clb: int = 6, bram: int = 1, dsp: int = 1) -> FabricDevice:
    """A tiny fabric for unit tests and examples."""
    return FabricDevice(
        name=f"small-{rows}x{clb + bram + dsp}",
        rows=rows,
        columns=tuple(_interleave(clb, bram, dsp)),
    )
