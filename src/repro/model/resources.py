"""Resource vectors over the FPGA resource types.

The paper models the reconfigurable fabric as a set of resource types
``R`` (CLB, BRAM, DSP, ...) with per-type availability ``maxRes_r``.
Hardware implementations and reconfigurable regions are described by a
demand per resource type.  :class:`ResourceVector` is the shared
immutable representation of such demands, with the small algebra the
schedulers need (component-wise ``+``/``-``, containment, weighted
sums).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Union

__all__ = ["ResourceVector", "ResourceKindError"]

Number = Union[int, float]


class ResourceKindError(KeyError):
    """Raised when an operation mixes unknown resource types."""


class ResourceVector(Mapping[str, int]):
    """An immutable, non-negative integer vector indexed by resource type.

    Missing types are implicitly zero, so vectors over different type
    subsets compose freely::

        >>> a = ResourceVector({"CLB": 100, "DSP": 2})
        >>> b = ResourceVector({"CLB": 50, "BRAM": 1})
        >>> (a + b)["CLB"]
        150
        >>> b.fits_in(a)
        False
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[str, Number] | None = None) -> None:
        clean: dict[str, int] = {}
        if data:
            for key, value in data.items():
                if not isinstance(key, str):
                    raise TypeError(f"resource type must be str, got {key!r}")
                quantity = int(value)
                if quantity != value:
                    raise ValueError(
                        f"resource quantity for {key!r} must be integral, got {value!r}"
                    )
                if quantity < 0:
                    raise ValueError(
                        f"resource quantity for {key!r} must be >= 0, got {value!r}"
                    )
                if quantity:
                    clean[key] = quantity
        self._data = clean

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, key: str) -> int:
        return self._data.get(key, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        keys = set(self._data) | set(other._data)
        return ResourceVector({k: self[k] + other[k] for k in keys})

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise difference; raises if any component goes negative."""
        if not isinstance(other, ResourceVector):
            return NotImplemented
        keys = set(self._data) | set(other._data)
        out: dict[str, int] = {}
        for k in keys:
            diff = self[k] - other[k]
            if diff < 0:
                raise ValueError(
                    f"resource subtraction underflow on {k!r}: {self[k]} - {other[k]}"
                )
            out[k] = diff
        return ResourceVector(out)

    def scaled(self, factor: float) -> "ResourceVector":
        """Scale every component and floor to integers (used by the
        feasibility-loop virtual resource reduction, Section V-H)."""
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        return ResourceVector({k: int(v * factor) for k, v in self._data.items()})

    def maximum(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise maximum (region growth under merging policies)."""
        keys = set(self._data) | set(other._data)
        return ResourceVector({k: max(self[k], other[k]) for k in keys})

    def fits_in(self, capacity: "ResourceVector") -> bool:
        """True when every component is <= the capacity's component."""
        cap = capacity._data
        for k, v in self._data.items():
            if v > cap.get(k, 0):
                return False
        return True

    def dominates(self, other: "ResourceVector") -> bool:
        """True when every component is >= the other's component."""
        return other.fits_in(self)

    def weighted_sum(self, weights: Mapping[str, float]) -> float:
        """``sum_r weights[r] * self[r]`` over this vector's own types.

        Types missing from *weights* raise :class:`ResourceKindError` —
        silently treating them as zero would hide mis-specified
        architectures (every fabric type must have a weight).
        """
        total = 0.0
        for key, value in self._data.items():
            if key not in weights:
                raise ResourceKindError(key)
            total += weights[key] * value
        return total

    def total(self) -> int:
        """Sum of all components (used in tie-breaking heuristics)."""
        return sum(self._data.values())

    def is_zero(self) -> bool:
        return not self._data

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceVector):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._data.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._data.items()))
        return f"ResourceVector({inner})"

    def to_dict(self) -> dict[str, int]:
        """Plain-dict snapshot for JSON serialization."""
        return dict(self._data)

    @classmethod
    def zero(cls) -> "ResourceVector":
        return cls()
