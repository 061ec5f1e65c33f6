import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdyn import reports
from graphdyn.reports import bad_keys_report, defect_report, dumps


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


def loop_report(defects, keys, tol, floor):
    """Oracle for finite defects: the scalar loop the checkers used to run."""
    worst, arg, offenders = floor, None, []
    for key, d in zip(keys, defects):
        if d > tol:
            offenders.append((key, d))
        if d > worst:
            worst, arg = d, key
    return not offenders, max(worst, 0.0), arg, offenders[:10]


class TestDefectReport:
    @settings(max_examples=200, deadline=None)
    @given(defects=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 1e-12, 0.5, 2.0])
                            | st.floats(-3.0, 3.0), max_size=25),
           tol=st.sampled_from([0.0, 1e-10, 1.0]),
           floor=st.sampled_from([0.0, -np.inf]))
    def test_matches_scalar_loop(self, defects, tol, floor):
        keys = [f"k{i}" for i in range(len(defects))]
        rep = defect_report("d", defects, keys, tol, floor=floor, offenders=True)
        assert (rep.passed, rep.max_defect, rep.argmax, rep.offenders) == \
            loop_report(defects, keys, tol, floor)
        assert (rep.name, rep.tolerance, rep.count) == ("d", tol, len(defects))

    def test_ties_go_to_the_first_key(self):
        rep = defect_report("d", [1.0, 3.0, 2.0, 3.0], "abcd", 0.5)
        assert (rep.passed, rep.max_defect, rep.argmax) == (False, 3.0, "b")

    @pytest.mark.parametrize("defects", [[0.0, 0.0, 0.0], [-1.0, -0.5, -2.0],
                                         [0.0, -1.0, -0.0], []])
    def test_no_positive_defect_has_no_witness(self, defects):
        rep = defect_report("d", defects, "abc"[:len(defects)], 0.0)
        assert rep.passed and (rep.max_defect, rep.argmax) == (0.0, None)
        assert rep.count == len(defects)

    @pytest.mark.parametrize("floor", [0.0, -np.inf])
    def test_nan_defect_fails_as_witness(self, floor):
        defects = [0.5, 2.0, np.nan, 3.0, np.nan]
        rep = defect_report("d", defects, "abcde", 10.0, floor=floor, offenders=True)
        assert not rep.passed
        assert math.isnan(rep.max_defect) and rep.argmax == "c"
        assert [k for k, _ in rep.offenders] == ["c", "e"]
        assert all(math.isnan(d) for _, d in rep.offenders)

    def test_floor_of_minus_inf_keeps_the_witness(self):
        rep = defect_report("d", [-3.0, -0.25, -1.0, -0.25], "abcd", 1e-10,
                            floor=-np.inf)
        assert rep.passed and (rep.max_defect, rep.argmax) == (0.0, "b")
        rep = defect_report("d", [-np.inf, -np.inf], "ab", 0.0, floor=-np.inf)
        assert (rep.max_defect, rep.argmax) == (0.0, None)

    def test_offenders_are_capped_at_ten_in_key_order(self):
        defects = np.arange(30, dtype=float) % 7
        keys = list(range(30))
        rep = defect_report("d", defects, keys, 2.5, offenders=True)
        want = [(k, float(d)) for k, d in zip(keys, defects) if d > 2.5][:10]
        assert rep.offenders == want and len(rep.offenders) == 10
        assert defect_report("d", defects, keys, 2.5).offenders == []

    def test_count_and_details(self):
        rep = defect_report("d", [0.0, 1.0], "ab", 0.0, count=7,
                            details={"bound": 1.0})
        assert (rep.count, rep.details) == (7, {"bound": 1.0})
        assert defect_report("d", [0.0], "a", 0.0).details == {}


class TestBadKeysReport:
    def test_lists_bad_keys(self):
        bad = [(i, i + 1) for i in range(12)]
        rep = bad_keys_report("exact", bad, 40, details={"n": 1})
        assert not rep.passed
        assert (rep.max_defect, rep.tolerance, rep.argmax) == (12.0, 0.0, None)
        assert rep.offenders == bad[:10] and rep.count == 40
        assert rep.details == {"n": 1}

    def test_no_bad_keys_passes(self):
        rep = bad_keys_report("exact", [], 5)
        assert rep.passed and rep.max_defect == 0.0 and rep.offenders == []
