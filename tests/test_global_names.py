"""Every global name a function reads is bound by its module or is a builtin.

numpy and the numeric layers are imported inside the functions that use
them, so a missing local import would raise ``NameError`` only when a rarely
run path runs.  This static check finds it without running that path.
"""

import builtins
import pathlib
import symtable

import pytest

from graphdyn import cli

SRC = pathlib.Path(cli.__file__).parent


def unbound_globals(source, filename="<source>"):
    """``scope(name)`` for every global name read in a nested scope (a
    function, class or comprehension) that the module never binds."""
    top = symtable.symtable(source, filename, "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    bound |= set(dir(builtins))
    stack = list(top.get_children())
    while stack:
        table = stack.pop()
        stack.extend(table.get_children())
        yield from (f"{table.get_name()}({s.get_name()})" for s in table.get_symbols()
                    if s.is_referenced() and s.is_global() and s.get_name() not in bound)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_global_read_is_bound(path):
    assert list(unbound_globals(path.read_text(), str(path))) == []


def test_unbound_globals_are_found():
    source = """
import json

def _demo_network():
    from . import linops

    return [linops.eye(2) for _ in np.arange(3)], dynamics, json, len

def cmd_check(args):
    import numpy as np

    return [np.eye(k) for k in range(args.samples)], rng_from_seed(args.seed)

class Family:
    scale = math.pi
"""
    assert set(unbound_globals(source)) == {
        "_demo_network(np)", "_demo_network(dynamics)", "cmd_check(rng_from_seed)",
        "Family(math)"}
