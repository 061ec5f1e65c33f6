"""A traced benchmark round keeps every verdict and restores every binding.

The benchmark's traced run wraps the package's functions with
``bench/spans.py``, judges each command against ``bench/golden`` and then
compares ``spans.namespace_snapshot()`` with the one taken before the tracer
went in.  The snapshot covers the dicts bound in the package's module
namespaces, so a module-level cache that a command fills (one identity
channel per dimension, say) reads as a binding the tracer did not restore.

The round runs in a fresh interpreter: in this one, caches that earlier
tests filled would already hold their entries and hide the change.  The
bench modules are loaded from their files, as ``test_golden_bodies.py``
loads them, with bytecode writing off so that nothing under ``bench/``
changes.
"""

import json
import os
import subprocess
import sys

from graphdyn import cli

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(TESTS), "bench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

ROUND = r"""
import contextlib, importlib.util, io, json, os, sys, tempfile

bench, src = sys.argv[1:3]
sys.path.insert(0, src)


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", os.path.join(bench, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans, workloads, golden = load("spans"), load("workloads"), load("golden")
import graphdyn.cli

before = spans.namespace_snapshot()
judge = golden.Judge(golden.load("grid-sweep"), 0)
with tempfile.TemporaryDirectory() as work:
    _, commands = workloads.build("grid-sweep", 0, work)
    os.chdir(work)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for cmd in commands:
            tracer.begin_command()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = graphdyn.cli.main(list(cmd.argv))
            raw, report = golden.read_body(cmd.output)
            judge.judge(cmd.slot, golden.verdict(code, report), golden.digest(raw),
                        report, cmd.expect)
    finally:
        tracer.uninstall()
    os.chdir(bench)
print(json.dumps({"attempted": judge.attempted, "failed": judge.failed,
                  "mismatches": judge.mismatches,
                  "restored": spans.namespace_snapshot() == before}))
"""


def test_traced_grid_sweep_round_is_correct():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", ROUND, BENCH, SRC], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["attempted"] > 0
    assert (result["failed"], result["mismatches"]) == (0, [])
    assert result["restored"]
