"""Property tests for canonical instance serialization (repro.model.canonical).

The content-addressed result store is only sound if the canonical form
is a *function of the instance's content*: round-tripping through JSON
must preserve the hash, logically-equal instances built in different
orders must serialize to the same bytes, and the digest must be stable
across interpreter processes (no dict-ordering or hash-randomization
leakage — PYTHONHASHSEED changes neither the bytes nor the digest).
"""

import enum
import json
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Instance, canonical_dumps, content_hash

from .strategies import instances

SRC = Path(__file__).resolve().parents[2] / "src"


@given(instances())
@settings(max_examples=40, deadline=None)
def test_roundtrip_preserves_hash(instance):
    text = instance.canonical_json()
    clone = Instance.from_dict(json.loads(text))
    assert clone.content_hash() == instance.content_hash()
    assert clone.canonical_json() == text


@given(instances())
@settings(max_examples=40, deadline=None)
def test_canonical_json_is_parseable_and_sorted(instance):
    payload = json.loads(instance.canonical_json())
    assert list(payload) == sorted(payload)
    # Re-serializing the parsed payload canonically is a fixed point.
    assert canonical_dumps(payload) == instance.canonical_json()


@given(instances())
@settings(max_examples=25, deadline=None)
def test_to_json_is_deterministic(instance):
    text = instance.to_json()
    again = Instance.from_dict(json.loads(text)).to_json()
    assert again == text


def test_hash_is_stable_across_processes(tmp_path):
    """Same instance file → same digest in a fresh interpreter with a
    different PYTHONHASHSEED (the cross-machine store contract)."""
    from repro.benchgen import paper_instance

    instance = paper_instance(tasks=9, seed=42)
    path = tmp_path / "inst.json"
    instance.to_json(path)
    expected = instance.content_hash()

    script = (
        "import json,sys;"
        "from repro.model import Instance;"
        "inst=Instance.from_dict(json.loads(open(sys.argv[1]).read()));"
        "print(inst.content_hash())"
    )
    for hashseed in ("0", "12345"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hashseed}
        digest = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert digest == expected


def test_content_hash_insensitive_to_construction_order():
    """Two logically-equal graphs built in different insertion orders
    serialize to the same canonical bytes."""
    from repro.model import (
        Architecture,
        Implementation,
        ResourceVector,
        Task,
        TaskGraph,
    )

    arch = Architecture(
        name="a",
        processors=1,
        max_res=ResourceVector({"CLB": 100}),
        bit_per_resource={"CLB": 10.0},
        rec_freq=100.0,
    )

    def build(order):
        graph = TaskGraph("g")
        task_objs = {
            tid: Task.of(tid, [Implementation.sw(name=f"{tid}_sw", time=5.0)])
            for tid in ("t0", "t1", "t2")
        }
        for tid in order:
            graph.add_task(task_objs[tid])
        graph.add_dependency("t0", "t2")
        graph.add_dependency("t1", "t2")
        return Instance(architecture=arch, taskgraph=graph)

    forward = build(["t0", "t1", "t2"])
    backward = build(["t2", "t1", "t0"])
    assert forward.canonical_json() == backward.canonical_json()
    assert content_hash(forward.to_dict()) == content_hash(backward.to_dict())


# -- the encoder on values other than plain dicts, lists, ints and floats ----


class Level(enum.IntEnum):
    LOW = 0
    MID = 1
    HIGH = 7


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.sampled_from([0, 1, 7]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 3.0, -12.0, 0.5]),
        st.text(max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def disguised(draw, value):
    """``value`` rebuilt from equivalent non-plain types: ordered dicts,
    mapping proxies, tuples, IntEnum members, numpy floats, and floats
    in place of ints."""
    if isinstance(value, dict):
        items = [(key, draw(disguised(item))) for key, item in value.items()]
        wrap = draw(st.sampled_from(["dict", "ordered", "proxy"]))
        if wrap == "ordered":
            return OrderedDict(reversed(items))
        if wrap == "proxy":
            return MappingProxyType(dict(items))
        return dict(items)
    if isinstance(value, list):
        items = [draw(disguised(item)) for item in value]
        return tuple(items) if draw(st.booleans()) else items
    if type(value) is int:
        choice = draw(st.sampled_from(["int", "float", "enum"]))
        if choice == "float":
            return float(value)
        if choice == "enum" and value in set(Level):
            return Level(value)
        return value
    if type(value) is float and draw(st.booleans()):
        return np.float64(value)
    return value


@given(st.data(), json_values)
@settings(max_examples=200, deadline=None)
def test_equivalent_types_encode_to_the_same_bytes(data, value):
    assert canonical_dumps(data.draw(disguised(value))) == canonical_dumps(value)


def test_scalar_normal_forms():
    assert canonical_dumps([True, False, None]) == "[true,false,null]"
    assert canonical_dumps([-0.0, 0.0, np.float64(-0.0)]) == "[0,0,0]"
    assert canonical_dumps([3.0, np.float64(-12.0), Level.HIGH]) == "[3,-12,7]"
    assert canonical_dumps(np.float64(0.1)) == canonical_dumps(0.1) == "0.1"


@pytest.mark.parametrize(
    "value, error, message",
    [
        ({1: "x"}, TypeError, "canonical mapping keys must be str, got 1"),
        (OrderedDict([(("a",), 1)]), TypeError, "mapping keys must be str"),
        ({"a": MappingProxyType({2.5: 1})}, TypeError, "got 2.5"),
        ([float("nan")], ValueError, "non-finite float nan has no canonical form"),
        ({"a": (1, float("-inf"))}, ValueError, "non-finite float -inf"),
        (np.float64("inf"), ValueError, "non-finite float"),
        ({"a": {1, 2}}, TypeError, "'set' is not canonically serializable"),
        ([b"x"], TypeError, "'bytes' is not canonically serializable"),
        (np.int64(3), TypeError, "'int64' is not canonically serializable"),
    ],
)
def test_unencodable_values_raise(value, error, message):
    with pytest.raises(error, match=message):
        canonical_dumps(value)
