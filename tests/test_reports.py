import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdyn import reports
from graphdyn.reports import dumps


def oracle(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


# equal as keys, different as text: the memo must never share them
_CLASHING = [1, 1.0, True, 0, 0.0, -0.0, False, "1", "a", "b", None]

scalars = st.one_of(
    st.sampled_from(_CLASHING),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
# short lists from a few values, so that equal leaf lists recur in a tree
leaves = st.lists(st.sampled_from(_CLASHING), min_size=1, max_size=3)
trees = st.recursive(
    scalars | leaves | leaves.map(tuple),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=4)),
    max_leaves=40,
)


class TestDumps:
    @settings(max_examples=400, deadline=None)
    @given(trees)
    def test_equals_json_dumps(self, obj):
        assert dumps(obj) == oracle(obj)

    @settings(max_examples=100, deadline=None)
    @given(leaves, trees)
    def test_repeated_leaf_lists(self, leaf, tree):
        obj = [leaf, [leaf, (leaf, tree)], {"k": [leaf, leaf]}, leaf, tree]
        assert dumps(obj) == oracle(obj)

    @pytest.mark.parametrize("obj", [
        [[1, 2], [1.0, 2], [True, 2]],
        [[-0.0, 0.0], [0.0, 0.0]],
        [math.nan, math.inf, -math.inf, [math.nan, -math.inf]],
        ["é€\U0001F600", "\x00\x1f\x7f\n\t\"\\", "\ud800", [" "]],
        [[], {}, [[]], [{}], {"a": []}, {"b": {}}, ()],
        {"x": ["a", "b"], "y": [["a", "b"], {"z": ["a", "b"]}], "w": ("a", "b")},
        [np.float64(0.1), [np.float64(-0.0), np.float64("nan"), np.float64("inf")]],
        {1: "a", 2: [1, 2], 10: {3: ["x"], -4: {"b": None}}},
        {"n": {3: ["x"], 4: ["x"]}, "f": {0.5: 1, -0.0: 2}, "z": [{None: 1}]},
        [{True: 1, False: 2}],
        "top-level é",
        -0.0,
        None,
        [2 ** 70, -(2 ** 70)],
    ])
    def test_pinned(self, obj):
        assert dumps(obj) == oracle(obj)

    def test_nesting_past_the_depth_limit(self):
        obj = inner = ["a", "b"]
        for i in range(reports._MAX_DEPTH + 5):
            obj = [inner, {"k": obj, "i": i}]
        obj = [obj, inner]
        assert dumps(obj) == oracle(obj)

    @pytest.mark.parametrize("bad", [
        np.bool_(True),
        object(),
        [1, [object()]],
        {"a": [np.bool_(False)]},
        {1: "a", "b": 2},  # keys json cannot sort
        np.int64(3),
    ])
    def test_unserializable_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            oracle(bad)
        with pytest.raises(TypeError):
            dumps(bad)

    def test_circular_list_raises_value_error(self):
        loop = ["a"]
        loop.append([loop])
        with pytest.raises(ValueError, match="Circular reference"):
            dumps(loop)
        cyc = {"a": []}
        cyc["a"].append(cyc)
        with pytest.raises(ValueError, match="Circular reference"):
            dumps([cyc])
