"""Report bodies of the benchmark workloads against pinned hashes.

The benchmark only counts bodies that differ from ``bench/golden``; this test
fails on them.  It reads the benchmark's workload builder and golden data and
changes nothing under ``bench/``.  The channel-family hashes in
``bench/golden`` predate the Choi-matrix channels (10 of 13 slots differ), so
those bodies are pinned by ``channel_family_bodies.json`` here instead.  The
word-algebra hashes of the traced ``normalize`` slots predate the trace of
stack-pass steps; ``word_algebra_traced_bodies.json`` pins those 9 slots.
"""

import contextlib
import importlib.util
import io
import json
import os

import pytest

from graphdyn import cli

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(TESTS), "bench")

# Its max_defect has differed from the golden body in the last ulps since the
# channel representation moved to Choi matrices; its verdict still matches.
ULP_DRIFT = {"cptp3-d2-dilate-A-cptp"}


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")
golden = _bench_module("golden")


def _assert_bodies_match_golden(workload, seed, tmp_path, monkeypatch, bodies=None,
                                skip=ULP_DRIFT):
    recorded = golden.load(workload)
    bodies = bodies or recorded["bodies"][str(seed)]
    monkeypatch.chdir(tmp_path)
    _, commands = workloads.build(workload, seed, str(tmp_path))
    checked = []
    for cmd in commands:
        if cmd.slot in skip:
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(cmd.argv))
        raw, report = golden.read_body(cmd.output)
        assert golden.verdict(code, report) == recorded["verdicts"][cmd.slot], cmd.slot
        assert golden.digest(raw) == bodies[cmd.slot], cmd.slot
        checked.append(cmd.slot)
    return checked


def _pinned(name, seed):
    with open(os.path.join(TESTS, name)) as fh:
        return json.load(fh)[str(seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_word_algebra_bodies_match_golden(tmp_path, monkeypatch, seed):
    traced = _pinned("word_algebra_traced_bodies.json", seed)
    bodies = {**golden.load("word-algebra")["bodies"][str(seed)], **traced}
    checked = _assert_bodies_match_golden("word-algebra", seed, tmp_path, monkeypatch,
                                          bodies=bodies)
    assert len(checked) == 22 and set(traced) <= set(checked) and len(traced) == 9


@pytest.mark.parametrize("seed", [0, 1])
def test_grid_sweep_bodies_match_golden(tmp_path, monkeypatch, seed):
    checked = _assert_bodies_match_golden("grid-sweep", seed, tmp_path, monkeypatch)
    assert len(checked) == 22


@pytest.mark.parametrize("seed", [0, 1])
def test_channel_family_bodies_are_pinned(tmp_path, monkeypatch, seed):
    bodies = _pinned("channel_family_bodies.json", seed)
    checked = _assert_bodies_match_golden("channel-family", seed, tmp_path, monkeypatch,
                                          bodies=bodies, skip=())
    assert sorted(checked) == sorted(bodies) and len(checked) == 13
