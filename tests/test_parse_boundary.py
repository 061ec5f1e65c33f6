"""The parse boundary: a malformed spec exits 2 with ``input error:``, and a
malformed flag value exits 2 through argparse.

Specs of every family kind and graph-plus-word specs are mutated one or two
keys or values at a time, and each command's flags are set to odd values one
at a time; every run goes through ``cli.main`` in-process.  A run may pass or
fail a check (0, 3, 4) or reject its input (2); any exception that escapes
``main`` is a bug the boundary let through or relabelled.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdyn import cli
from graphdyn.linops import SIGMA_X, SIGMA_Z
from graphdyn.linops import matrix_to_literal as _lit
from oracles import kraus_spec


def _edge_values(edges, value):
    return [{"edge": list(e), "matrix": _lit(value)} for e in edges]


_EDGES = [(0, 1), (1, 2), (0, 2)]
_ELL = {"kind": "proportional", "scale": 2.0}
# the identity, and amplitude damping with two Kraus operators
_CHANNELS = [kraus_spec([np.eye(2)]),
             kraus_spec([np.array([[1, 0], [0, 0.6]]), np.array([[0, 0.8], [0, 0]])])]

# small bases: every dim, grid and node count is at most 4, so a run is cheap
BASES = {
    "explicit": {
        "graph": {"order": [0, 1, 2]}, "dim": 2, "word": [[0, 1], [1, 2]],
        "family": {"kind": "explicit",
                   "values": _edge_values(_EDGES[:2], 0.5 * np.eye(2))
                   + _edge_values(_EDGES[2:], 0.25 * np.eye(2)), "ell": _ELL},
    },
    "exponential": {
        "graph": {"order": [1.0, 0.5, 0.0]}, "dim": 2, "word": [[1.0, 0.5]],
        "family": {"kind": "exponential", "rate": _lit(-0.2 * np.eye(2)),
                   "alpha": 1.0, "ell": _ELL},
    },
    "indivisible-example": {
        "graph": {"order": [1.0, 0.5, 0.0]}, "dim": 4, "word": [[1.0, 0.0]],
        "family": {"kind": "indivisible-example", "h1": _lit(SIGMA_X),
                   "h2": _lit(SIGMA_Z), "t_max": 1.0, "grid_points": 3, "alpha": 1.0},
    },
    "network": {
        "graph": {"nodes": ["u", "v", "w"], "edges": [["u", "v"], ["v", "w"]]},
        "dim": 2, "word": [["u", "w"]],
        "family": {"kind": "network",
                   "weights": _edge_values([("u", "v"), ("v", "w")], 0.3 * np.eye(2))},
    },
    "cptp": {
        "graph": {"order": [0, 1, 2]}, "dim": 2, "word": [[0, 2]],
        "family": {"kind": "cptp",
                   "channels": [{"edge": list(e), "channel": _CHANNELS[e == (1, 2)]}
                                for e in _EDGES]},
    },
    "words": {
        "graph": {"nodes": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
        "word": [["a", "b"], ["b", "c"]],
        "words": [[["a", "b"]], [["b", "c"], ["c", "a"]]],
    },
}

CHECK = ("check", "--samples", "3")
_SYSTEM_COMMANDS = [CHECK, ("extend",), ("extend", "--which", "cover1"),
                    ("extend", "--which", "cover2")] + [
    ("dilate", "--pipeline", p) for p in ("A", "B", "C", "A-cptp")]
COMMANDS = dict.fromkeys(BASES, _SYSTEM_COMMANDS)
COMMANDS["words"] = [("normalize",), ("normalize", "--trace"), ("group", "mul"),
                     ("group", "inv")]

_DELETE = object()
# no size in the pool exceeds 9, so no dim or grid_points allocates much
POOL = [_DELETE, None, True, False, 0, -1, 3, 4, 9, 1.5, float("nan"), "x", [], {},
        [1, 2, 3], [[1, 0]], [[[1, 0]]], {"kind": "proportional"}]


def _paths(node, prefix=()):
    """Every key path into nested dicts and lists, outermost first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def mutate(spec, path, value):
    spec = copy.deepcopy(spec)
    target = spec
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return spec


@st.composite
def mutated_runs(draw):
    """A base spec with one or two (path, value) mutations, the second one
    drawn from the paths of the once-mutated spec."""
    base = draw(st.sampled_from(sorted(BASES)))
    spec = BASES[base]
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(spec))))
        spec = mutate(spec, path, draw(st.sampled_from(POOL)))
    return spec, draw(st.sampled_from(COMMANDS[base])), None


def run_in_process(spec, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)  # NaN as json writes it
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--input", path])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=600, deadline=None)
@given(mutated_runs())
@example((mutate(BASES["exponential"], ("family", "ell"), "x"), CHECK, "ell"))
@example((mutate(BASES["indivisible-example"], ("graph", "order", 0), [1, 2, 3]),
          CHECK, "graph.order"))
@example((mutate(BASES["exponential"], ("graph", "order"), ["a", "b"]),
          CHECK, "graph.order"))
# a words list or graph.edges that is not an array exits 2 naming its field;
# read as an array, most of these exit 0, which the fuzzer accepts
@example((BASES["words"], ("group", "mul", "--words", "{}"), "--words"))
@example((BASES["words"], ("group", "mul", "--words", '""'), "--words"))
@example((BASES["words"], ("group", "mul", "--words", '"ab"'), "--words"))
@example((mutate(BASES["words"], ("words",), {}), ("group", "mul"), "words"))
@example((mutate(mutate(BASES["words"], ("graph", "edges"), {}),
                 ("word",), [["a", "a"], ["b", "b"]]), ("normalize",), "graph.edges"))
@example((mutate(mutate(BASES["network"], ("graph", "edges"), {}),
                 ("family", "weights"), {}), CHECK, "graph.edges"))
def test_mutated_specs_exit_cleanly(case):
    spec, command, field = case
    code, out, err = run_in_process(spec, command)
    assert code in (0, 2, 3, 4), (spec, command, code, err)
    if code == 2:
        assert out == "" and err.startswith("input error: "), (spec, command, err)
    if field is not None:
        assert code == 2 and field in err, (spec, command, err)


def test_every_base_passes():
    for base in BASES:
        command = ("normalize",) if base == "words" else CHECK
        assert run_in_process(BASES[base], command)[0] == 0, base


# each command: a run that passes, and the flags that take a value.  Spec
# paths are relative to the run's scratch directory
ARGV = {
    "normalize": (("normalize", "--input", "words.json"), ("--input", "--output", "--word")),
    "group mul": (("group", "mul", "--input", "words.json"),
                  ("--input", "--output", "--words")),
    "group inv": (("group", "inv", "--input", "words.json"),
                  ("--input", "--output", "--word")),
    "check": ((*CHECK, "--input", "system.json"),
              ("--input", "--output", "--tol", "--samples", "--seed")),
    "extend": (("extend", "--input", "system.json"),
               ("--input", "--output", "--word", "--which")),
    "dilate": (("dilate", "--pipeline", "A", "--input", "system.json"),
               ("--input", "--output", "--tol", "--seed", "--pipeline")),
    "demo": (("demo", "lindblad"), ("--output", "--seed")),
    "verify": (("verify", "--samples", "3"), ("--output", "--tol", "--samples", "--seed")),
}
# no valid value exceeds 3, so no run samples or loops more than the base run
VALUES = ["-1", "0", "3", "nan", "inf", "-inf", "x", "1e400"]
NUMERIC = ("--tol", "--samples", "--seed")


@st.composite
def flag_runs(draw):
    base, flags = ARGV[draw(st.sampled_from(sorted(ARGV)))]
    return base, draw(st.sampled_from(flags)), draw(st.sampled_from(VALUES))


def run_argv(argv):
    """Exit code and stderr of ``argv`` run in a scratch directory holding
    ``words.json`` and ``system.json``; argparse's exit counts as a code."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, base in (("words.json", "words"), ("system.json", "exponential")):
                with open(name, "w") as fh:
                    json.dump(BASES[base], fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


def test_every_argv_base_passes():
    for base, _ in ARGV.values():
        assert run_argv(base) == (0, ""), base


@settings(derandomize=True, max_examples=200, deadline=None)
@given(flag_runs())
def test_flag_values_exit_cleanly(case):
    base, flag, value = case
    code, err = run_argv([*base, flag, value])
    assert code in (0, 2, 3, 4) and "Traceback" not in err, (base, flag, value, code, err)
    if flag in NUMERIC:
        # --seed and --samples take non-negative integers, --tol finite numbers >= 0
        assert (code == 2) == (value not in ("0", "3")), (base, flag, value, err)


def nested(depth):
    return "[" * depth + "]" * depth


# far past the interpreter's recursion limit, which the JSON decoder counts
# one level per array; DEEP in argv is a spec file of 100,000 levels
@pytest.mark.parametrize("argv", [
    ("normalize", "--input", "DEEP"),
    ("check", "--input", "DEEP"),
    ("normalize", "--input", "words.json", "--word", nested(5000)),
    ("group", "inv", "--input", "words.json", "--word", nested(5000)),
    ("group", "mul", "--input", "words.json", "--words", nested(5000)),
], ids=["normalize-input", "check-input", "normalize-word", "group-inv-word",
        "group-mul-words"])
def test_deeply_nested_json_is_an_input_error(argv, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(nested(100_000))
    code, err = run_argv([str(deep) if a == "DEEP" else a for a in argv])
    assert code == 2, err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert "nested too deeply" in err
