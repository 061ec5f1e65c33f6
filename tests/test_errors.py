"""Two exception classes: ``InputError`` for malformed input, on which the
CLI exits 2, and ``PreconditionError`` for a hypothesis of a dilation theorem
that fails, on which it exits 3.  Anything else is a bug: it raises a
builtin, ``ValueError`` most often, and ends as a traceback.  A check that no
input reaches is such a bug, so it raises a plain ``ValueError``.
"""

import ast
import builtins
import json
import pathlib
import types

import numpy as np
import pytest

from graphdyn import cli, dilate, dynamics, extend, linops, rewrite
from graphdyn.dynamics import CompleteGraph, GeneratorFamily, LinearOrderGraph

SRC = pathlib.Path(cli.__file__).parent

BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}
# argparse reports the error of a ``type=`` callable as a usage error, exit 2
RAISABLE = BUILTIN_EXCEPTIONS | {"InputError", "PreconditionError",
                                 "argparse.ArgumentTypeError"}


def raised_names(source):
    """``(line, name)`` of the exception each ``raise`` statement names; a
    bare ``raise`` re-raises and names none."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, ast.unparse(exc)


def exception_classes(sources):
    """``module.name`` of every class, at any depth of ``sources`` (module ->
    source), that derives from an exception class, directly or through
    another such class."""
    classes = [(module, node) for module, source in sources.items()
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    names = {name.split(".")[-1] for name in RAISABLE}
    while True:
        new = {node.name for _, node in classes
               if any(ast.unparse(base).split(".")[-1] in names for base in node.bases)}
        if new <= names:
            return {f"{module}.{node.name}" for module, node in classes if node.name in new}
        names |= new


def test_errors_defines_the_only_two_exception_classes():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert exception_classes(sources) == {"errors.InputError", "errors.PreconditionError"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_is_an_input_error_a_precondition_or_a_builtin(path):
    assert [(line, name) for line, name in raised_names(path.read_text())
            if name not in RAISABLE] == []


def test_the_static_checks_find_other_classes():
    source = """
class SpecError(ValueError):
    pass

class Deeper(SpecError):
    pass

class Plain:
    def f(self):
        class Local(errors.InputError):
            pass
        if self:
            raise Deeper("x") from None
        try:
            raise KeyError(1)
        except KeyError:
            raise
        raise Local
"""
    assert exception_classes({"m": source}) == {"m.SpecError", "m.Deeper", "m.Local"}
    assert sorted((line, name) for line, name in raised_names(source)
                  if name not in RAISABLE) == [(13, "Deeper"), (18, "Local")]


def test_a_bug_ends_as_a_traceback_not_as_exit_2(tmp_path, monkeypatch, capsys):
    # a rate family whose evaluator returns values of the wrong shape: no spec
    # reaches that check, so its ValueError leaves cli.main as it is
    monkeypatch.setattr(dynamics, "_rate_generators", lambda graph, rate: GeneratorFamily(
        graph, len(rate), lambda edges: np.zeros((len(edges), 1, 1))))
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"graph": {"order": [1.0, 0.5, 0.0]}, "dim": 2, "family": {
        "kind": "exponential", "rate": linops.matrix_to_literal(-np.eye(2))}}))
    with pytest.raises(ValueError, match=r"evaluator returned shape \(1, 1\)") as exc:
        cli.main(["check", "--input", str(spec)])
    assert exc.type is ValueError
    assert capsys.readouterr() == ("", "")


def _order():
    return LinearOrderGraph([1.0, 0.5, 0.0])


def _generators(graph, dim=1):
    return GeneratorFamily(graph, dim, lambda edges: np.zeros((len(edges), dim, dim)))


# the checks that no command reaches from any input and that no other test
# raises, each by a call that passes a value no parser or caller in
# src/graphdyn builds; the other such tests assert the exact type themselves
UNREACHABLE = {
    "index": lambda: _order().index(2.0),
    "network_family": lambda: dynamics.network_family(dynamics.DagNetwork(
        ["a"], [], {}, 1)).stack([("a", "b")]),
    "shift_value_shape": lambda: dilate.ShiftDilation(types.SimpleNamespace(
        dim=2, stack=lambda gs: np.zeros((len(gs), 3, 3)))).values([rewrite.identity()]),
    "second_cover_family": lambda: extend.SecondCoverExtension(
        _generators(_order()).exponential()),
    "second_cover_order": lambda: extend.SecondCoverExtension(
        _generators(CompleteGraph(["a", "b"]))),
    "factorization_order": lambda: dilate.one_param_factorization(types.SimpleNamespace(
        system={"graph": CompleteGraph(["a"])}, dilation=None), "a"),
    "factorization_dilation": lambda: dilate.one_param_factorization(types.SimpleNamespace(
        system={"graph": _order()}, dilation=None), 0.0),
    "kraus_ndim": lambda: linops.kraus_superop([np.ones(2)]),
}


@pytest.mark.parametrize("call", UNREACHABLE.values(), ids=UNREACHABLE)
def test_a_check_no_input_reaches_raises_a_plain_value_error(call):
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError
