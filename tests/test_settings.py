"""Every setting does something: each CLI command takes only the flags it
reads, no library function has a parameter that its body never reads, and
the number of library parameters with a default is pinned."""

import argparse
import ast
import pathlib

import pytest

from graphdyn import cli

SRC = pathlib.Path(cli.__file__).parent

# each command's settable values: its options, and its positionals by name
OPTIONS = {
    ("normalize",): {"--input", "--output", "--word", "--trace"},
    ("group", "mul"): {"--input", "--output", "--words"},
    ("group", "inv"): {"--input", "--output", "--word"},
    ("check",): {"--input", "--output", "--tol", "--samples", "--seed"},
    ("extend",): {"--input", "--output", "--word", "--which"},
    ("dilate",): {"--input", "--output", "--tol", "--seed", "--pipeline"},
    ("demo",): {"name", "--output", "--seed"},
    ("verify",): {"--output", "--tol", "--samples", "--seed"},
}


def _commands(parser, prefix=()):
    """(command words, settable values) of every leaf parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subs:
        for name, child in subs[0].choices.items():
            yield from _commands(child, prefix + (name,))
        return
    yield prefix, [flag for a in parser._actions if not isinstance(a, argparse._HelpAction)
                   for flag in a.option_strings or [a.dest]]


def test_each_command_takes_the_flags_it_reads():
    commands = dict(_commands(cli.build_parser()))
    assert {k: set(v) for k, v in commands.items()} == OPTIONS
    assert sum(len(v) for v in commands.values()) == 31


@pytest.mark.parametrize("argv", [
    ("extend", "--tol", "1e-6"),
    ("dilate", "--pipeline", "A", "--samples", "5"),
    ("normalize", "--seed", "1"),
    ("group", "mul", "--tol", "0.1"),
])
def test_a_dropped_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def unread_parameters(source):
    """``function(parameter)`` for every parameter its function never reads."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        yield from (f"{name}({p.arg})" for p in params if p.arg not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert list(unread_parameters(path.read_text())) == []


def test_unread_parameters_are_found():
    source = """
def dilate_cptp(system, tol=1e-10):
    return [lambda x, s: x for _ in system]

class VedDilation:
    def verify_element(self, x, s, tol=1e-10):
        def defect(tol):
            return s
        return self.trace_norm(defect(x))
"""
    assert set(unread_parameters(source)) == {
        "dilate_cptp(tol)", "<lambda>(s)", "verify_element(tol)", "defect(tol)"}


def defaulted_parameters(source):
    """The number of parameters that have a default value in ``source``."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_defaulted_parameters_are_pinned():
    # a default is a setting: one added with no caller that sets it belongs
    # at its use site as a constant, and one that callers set moves this count
    assert sum(defaulted_parameters(p.read_text()) for p in SRC.glob("*.py")) == 61


def test_defaulted_parameters_are_counted():
    source = """
def f(a, b=1, *, c, d=2):
    return lambda x=0: (a, b, c, d, x)

class C:
    def g(self, e=None):
        return e
"""
    assert defaulted_parameters(source) == 4
