"""Self-tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch():
    base = os.path.join(ROOT, ".bench_out")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=base)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _tree(path):
    out = {}
    for dirpath, _, names in os.walk(path):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(workload, scratch):
    a, b, c = (os.path.join(scratch, x) for x in "abc")
    setup_a, round_a = workloads.build(workload, 7, a)
    setup_b, round_b = workloads.build(workload, 7, b)
    _, round_c = workloads.build(workload, 8, c)
    assert _tree(a) == _tree(b)
    assert round_a == round_b and setup_a == setup_b
    specs_a, specs_c = _tree(a), _tree(c)
    assert specs_a.keys() == specs_c.keys()
    assert all(specs_a[k] != specs_c[k] for k in specs_a)
    assert [cmd.slot for cmd in round_a] == [cmd.slot for cmd in round_c]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_covers_every_slot(workload, scratch):
    _, commands = workloads.build(workload, 0, scratch)
    gold = golden.load(workload)
    assert {cmd.slot for cmd in commands} == set(gold["verdicts"])
    assert set(gold["bodies"]["0"]) == set(gold["verdicts"])


def _run(commands, judge, work):
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return [run.run_command(cmd, judge, []) for cmd in commands]
    finally:
        os.chdir(cwd)


def test_injected_mismatch_is_counted_in_fail_frac(scratch):
    _, commands = workloads.build("word-algebra", 0, scratch)
    picked = [c for c in commands if c.slot in ("verify", "n6-inv300", "n6-normalize300")]
    assert len(picked) == 3

    judge = golden.Judge(golden.load("word-algebra"), 0)
    _run(picked, judge, scratch)
    assert (judge.attempted, judge.failed, judge.fail_frac) == (3, 0, 0.0)
    assert judge.exact == 3

    mutated = copy.deepcopy(golden.load("word-algebra"))
    mutated["verdicts"]["verify"]["checks"][0][1] = False   # flipped verdict
    mutated["verdicts"]["n6-inv300"]["exit"] = 3            # flipped exit code
    judge = golden.Judge(mutated, 0)
    _run(picked, judge, scratch)
    assert (judge.attempted, judge.failed) == (3, 2)
    assert judge.fail_frac == pytest.approx(2 / 3)
    assert {m["slot"] for m in judge.mismatches} == {"verify", "n6-inv300"}


def test_wrong_normal_form_is_a_failure(scratch):
    _, commands = workloads.build("word-algebra", 0, scratch)
    cmd = next(c for c in commands if c.slot == "n6-normalize300")
    wrong = cmd._replace(expect={**cmd.expect, "normal_form": cmd.expect["normal_form"][1:]})
    judge = golden.Judge(golden.load("word-algebra"), 0)
    _run([cmd, wrong], judge, scratch)
    assert (judge.attempted, judge.failed) == (2, 1)


def test_tracer_sees_name_bound_call_sites_and_restores_them(scratch):
    import graphdyn.dilate
    import graphdyn.linops

    _, commands = workloads.build("grid-sweep", 0, scratch)
    cmd = next(c for c in commands if c.slot == "g17-exp-dilate-C")
    before = spans.namespace_snapshot()
    original = graphdyn.linops.spectral_norm
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert graphdyn.dilate.spectral_norm is not original
        assert graphdyn.dilate.spectral_norm is graphdyn.linops.spectral_norm
        tracer.begin_command()
        judge = golden.Judge(golden.load("grid-sweep"), 0)
        _run([cmd], judge, scratch)
    finally:
        tracer.uninstall()
    tracer.flush()
    assert spans.namespace_snapshot() == before
    assert graphdyn.dilate.spectral_norm is original
    assert judge.failed == 0
    for name in ("cli.main", "dilate.dilate_exponential", "extend.SecondCoverExtension.__init__",
                 "dynamics.check_additivity", "linops.expm", "dilate.ShiftDilation.value",
                 "dynamics.GeneratorFamily.__call__"):
        assert tracer.stat(name)["calls"] > 0, name
    assert 0.0 < tracer.hit_ratio("dilate.ShiftDilation.value") < 1.0

    rows = [tracer._spans[i:i + 6] for i in range(0, len(tracer._spans), 6)]
    ids = {row[0] for row in rows}
    assert all(row[1] == 0 or row[1] in ids for row in rows)
    assert {row[2] for row in rows} == {1.0}
    root = [row for row in rows if row[1] == 0]
    assert [tracer._names[int(row[3])] for row in root] == ["cli.main"]
    total_self = sum(tracer.layer_self_s(layer) for layer in spans.LAYERS)
    assert total_self == pytest.approx(root[0][5] - root[0][4], rel=1e-6)


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(BENCH_DIR, os.path.join(scratch, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "word-algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_percentile_leaves_ten_samples_in_the_shortest_run(workload, scratch):
    _, commands = workloads.build(workload, 0, scratch)
    num, den = run.tail_rank(len(commands))
    for rounds in range(workloads.MIN_ROUNDS, 40):
        _, beyond = run.nearest_rank(list(range(rounds * len(commands))), num, den)
        assert beyond >= run.TAIL_BEYOND
    assert run.nearest_rank(list(range(den)), num, den)[1] == run.TAIL_BEYOND


def test_steady_latency_is_the_median_repeat_in_reference_seconds():
    def sample(slot, seconds, ref_s):
        return run.Outcome(slot, seconds, 0, 1, True, ref_s)

    ref = run.REF_S
    samples = [sample("a", 0.1, ref), sample("a", 0.5, 2 * ref), sample("a", 0.9, ref),
               sample("b", 0.2, 2 * ref)]
    # a host running at half speed doubles both the command and the kernels
    assert run.steady_latencies(samples) == pytest.approx([0.25, 0.25, 0.25, 0.1])
    assert run.reference_kernel() > 0


def test_result_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["setup_s", "cmd_s_p50", "cmd_s_tail", "reports_per_s", "peak_rss_mb"]
    extra = dict.fromkeys(("report_bytes", "commands", "golden_exact", "golden_differ",
                           "overhead_frac"), 0)
    per_layer = run._per_layer(spans.Tracer(), 1, spans.Tracer(), extra)
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(per_layer)
    assert all(per_layer[m["name"]]["unit"] == m["unit"] for m in bench["per_layer"])
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
