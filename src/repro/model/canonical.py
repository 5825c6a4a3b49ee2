"""Canonical serialization and content hashing.

The engine's result store (``repro.engine.store``) addresses outcomes
by the content of the request that produced them, so two processes —
or two runs weeks apart — must serialize the same instance and options
to the *same bytes*.  JSON alone does not guarantee that: dict key
order, float formatting and container types all leak representation
details.  This module pins them down:

* keys are sorted at every nesting level,
* separators carry no whitespace,
* floats are rejected when non-finite, ``-0.0`` normalizes to ``0.0``,
  and integral floats are emitted as ints (``3.0`` and ``3`` describe
  the same execution time); non-integral floats rely on CPython's
  shortest-``repr`` float formatting, which is stable across processes
  and platforms,
* tuples flatten to lists, arbitrary mappings to plain dicts,
* anything else is a :class:`TypeError` — canonical content must be
  built from JSON-safe values, not live objects.

``content_hash`` is SHA-256 over the canonical UTF-8 bytes; the hex
digest is the address used by the store's on-disk layout.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping

__all__ = [
    "canonical_payload",
    "canonical_dumps",
    "content_hash",
    "instance_hash",
]


def canonical_payload(obj: Any) -> Any:
    """Normalize ``obj`` into the canonical JSON-safe shape (see module
    docstring).  Raises :class:`TypeError` on non-JSON-safe values and
    :class:`ValueError` on non-finite floats."""
    # Exact built-in types are recognized by identity first: they are
    # nearly every value a request holds, and ``isinstance`` against the
    # ``Mapping`` ABC was the costliest step of the walk.  Subclasses,
    # mapping proxies and numpy floats fall through to ``isinstance``
    # and are normalized as the built-in they stand for.
    kind = type(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is dict or kind is list or kind is tuple or kind is float:
        pass
    elif isinstance(obj, (bool, int, str)):
        return obj
    elif isinstance(obj, float):
        kind = float
    elif isinstance(obj, Mapping):
        kind = dict
    elif isinstance(obj, (list, tuple)):
        kind = list
    else:
        raise TypeError(
            f"{type(obj).__name__!r} is not canonically serializable; "
            "convert it with .to_dict() first"
        )
    if kind is dict:
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"canonical mapping keys must be str, got {key!r}")
            out[key] = canonical_payload(value)
        return out
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} has no canonical form")
        if obj == 0.0:
            return 0  # collapses -0.0 / 0.0 / 0
        if obj.is_integer():
            return int(obj)
        return obj
    return [canonical_payload(item) for item in obj]


def canonical_dumps(obj: Any) -> str:
    """The canonical JSON text of ``obj`` — byte-stable across processes."""
    return json.dumps(
        canonical_payload(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def content_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical serialization of ``obj``."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def instance_hash(instance) -> str:
    """Content hash of a :class:`~repro.model.instance.Instance`.

    Stable across processes and across serialization round-trips:
    ``Instance.to_dict`` orders tasks and edges canonically, so
    ``instance_hash(Instance.from_json(i.to_json())) == instance_hash(i)``.
    """
    return content_hash(instance.to_dict())
