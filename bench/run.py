#!/usr/bin/env python3
"""graphdyn benchmark: seeded CLI workloads checked against golden verdicts.

Run from the repository root:

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client in this process: it calls
``graphdyn.cli.main(argv)`` one command after another, each writing its
report with ``--output`` into a scratch directory under ``.bench_out/``.
Spec files are generated from ``--seed`` (see ``workloads.py``) before any
timing starts; the program sees only those files and argv.  BLAS runs one
thread.  Every report is checked against ``golden/<workload>.json``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of import + the workload's setup command), ``cmd_s_p50`` and
``cmd_s_tail`` (order statistics of steady-state command latency, measured
after an in-process warm-up round), ``reports_per_s``, ``fail_frac`` and
``peak_rss_mb``.  A command's steady-state latency is the median of its
identical repeats in the run; ``reports_per_s`` divides the certified reports
by the summed steady-state latencies (the wall-clock rate is printed too).

Times are in *reference seconds*.  The shared host this benchmark runs on
changes speed by up to 1.5x from one second, or one minute, to the next, and
CPU time moves with wall time, so raw seconds of the same code differ by more
than a regression bound between runs.  So every timed interval is bracketed by
two runs of ``reference_kernel`` (fixed work of the same kind graphdyn does,
independent of graphdyn) and scaled by ``REF_S`` over their mean: a value is
the interval's length on a host where the kernel takes ``REF_S``, about its
time on an idle core of the host the benchmark was written on (Xeon, 2 vCPUs).
A change to the program moves these figures as it moves raw seconds; the
raw seconds and kernel times are kept in the results file.  Per-layer span
times (``--trace 1``) are raw seconds.

``--trace 1`` measures half the time untraced and half with spans around
every call into the layers (``spans.py``), and prints the per-layer metrics
per round plus the tracing overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A results file with the
environment fingerprint and every sample goes to ``.bench_out/``.

Exit code 2 (and no result line) when the graphdyn sources or the golden
data are missing.
"""

import os
import sys

# Pinned before numpy loads; the matrices are tiny, so one thread is fastest
# and steadiest, and it stays within nproc on any machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import golden  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
SETUP_TIMEOUT_S = 120
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import graphdyn.cli; "
              "sys.exit(graphdyn.cli.main(sys.argv[2:]))")
TAIL_BEYOND = 10
REF_S = 0.006

_REF_RNG = np.random.default_rng(20250811)
_REF_MATS = [_REF_RNG.standard_normal((4, 4)) + 1j * _REF_RNG.standard_normal((4, 4))
             for _ in range(96)]
_REF_WORD = [(i % 7, (i * 3) % 7) for i in range(400)]


def reference_kernel():
    """Wall time of a fixed piece of work: word fusion in pure Python, then
    4x4 complex products, SVDs, eigendecompositions and spectral norms, about
    1:2 in time, the mix graphdyn's commands run.  The collector is off, so
    garbage the program left behind is not charged to the kernel."""
    gc.disable()
    start = time.perf_counter()
    try:
        for _ in range(24):
            out, seen = [], {}
            for tail, head in _REF_WORD:
                if out and out[-1][1] == tail:
                    out[-1] = (out[-1][0], head)
                else:
                    out.append((tail, head))
            for i, letter in enumerate(out):
                seen[letter] = seen.get(letter, 0) + i
        for m in _REF_MATS:
            h = m @ m.conj().T
            np.linalg.svd(m, compute_uv=False)
            np.linalg.eigh(h)
            np.linalg.norm(m - h, 2)
        return time.perf_counter() - start
    finally:
        gc.enable()


def bracketed(interval):
    """Run ``interval()`` (which returns its own raw seconds) between two
    reference kernels; return (raw seconds, mean kernel seconds)."""
    before = reference_kernel()
    raw = interval()
    return raw, 0.5 * (before + reference_kernel())


def to_reference(seconds, ref_s):
    return seconds * REF_S / ref_s


class Outcome(NamedTuple):
    slot: str
    seconds: float        # raw wall time of the command
    exit: object
    report_bytes: int
    ok: bool
    ref_s: float = None   # mean time of the reference kernels around it


def _remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _judge(judge, cmd, code):
    try:
        raw, report = golden.read_body(cmd.output)
    except ValueError:  # unparseable report: its verdict cannot match
        raw, report = b"", {"unparseable": True}
    ok = judge.judge(cmd.slot, golden.verdict(code, report), golden.digest(raw),
                     report, cmd.expect)
    _remove(cmd.output)
    return ok, len(raw or b"")


def run_command(cmd, judge, tracebacks):
    """Run one command in-process and judge its report against the golden data."""
    import graphdyn.cli
    _remove(cmd.output)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = graphdyn.cli.main(list(cmd.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed command, not a crash of the run
        code = f"traceback: {type(exc).__name__}"
        if len(tracebacks) < 5:
            tracebacks.append({"slot": cmd.slot, "traceback": traceback.format_exc()})
    seconds = time.perf_counter() - start
    ok, size = _judge(judge, cmd, code)
    return Outcome(cmd.slot, seconds, code, size, ok)


def measure(commands, seconds, min_rounds, judge, tracebacks, before_each=None,
            between_rounds=None):
    """Whole rounds until both ``seconds`` of rounds have passed and
    ``min_rounds`` ran; time spent in ``between_rounds`` is not counted.
    A reference kernel runs between every two commands, so each command is
    bracketed by two."""
    samples, rounds, elapsed = [], 0, 0.0
    while rounds < min_rounds or elapsed < seconds:
        start = time.perf_counter()
        ref_before = reference_kernel()
        for cmd in commands:
            if before_each is not None:
                before_each()
            outcome = run_command(cmd, judge, tracebacks)
            ref_after = reference_kernel()
            samples.append(outcome._replace(ref_s=0.5 * (ref_before + ref_after)))
            ref_before = ref_after
        elapsed += time.perf_counter() - start
        rounds += 1
        if between_rounds is not None:
            between_rounds()
    return samples, rounds


class FreshSetup:
    """Times fresh interpreters that import graphdyn.cli and run the setup
    command.  The runs are spread between the measured rounds, so that their
    median covers the whole run rather than one moment of a shared host."""

    def __init__(self, cmd, src, judge):
        self.cmd, self.src, self.judge = cmd, src, judge
        self.times = []   # (raw seconds, mean reference kernel seconds)
        self.once()  # untimed: fills bytecode caches

    def once(self):
        return bracketed(self._interpreter)

    def _interpreter(self):
        _remove(self.cmd.output)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, self.src, *self.cmd.argv],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        _judge(self.judge, self.cmd, code)
        return elapsed

    def between_rounds(self):
        want = -(-SETUP_RUNS // workloads.MIN_ROUNDS)  # spread over the first rounds
        for _ in range(min(want, SETUP_RUNS - len(self.times))):
            self.times.append(self.once())

    def median(self):
        while len(self.times) < SETUP_RUNS:
            self.times.append(self.once())
        return statistics.median(to_reference(raw, ref) for raw, ref in self.times)


def tail_rank(round_len):
    """The tail percentile as a fraction (num, den): the highest percentile
    with TAIL_BEYOND samples beyond it in the shortest allowed run.  It is
    fixed per workload, so it never moves between runs or commits."""
    n_min = workloads.MIN_ROUNDS * round_len
    return n_min - TAIL_BEYOND, n_min


def nearest_rank(values, num, den):
    """(value at the num/den quantile by nearest rank, samples beyond it)."""
    ordered = sorted(values)
    idx = max(0, -(-num * len(ordered) // den) - 1)
    return ordered[idx], len(ordered) - idx - 1


def steady_latencies(samples):
    """Each sample's steady-state latency in reference seconds: the median of
    its slot's identical repeats in the run."""
    repeats = {}
    for s in samples:
        repeats.setdefault(s.slot, []).append(to_reference(s.seconds, s.ref_s))
    steady = {slot: statistics.median(v) for slot, v in repeats.items()}
    return [steady[s.slot] for s in samples]


def reports_per_s(samples, latencies):
    """Reports whose verdict matched, per second of command time."""
    reports = sum(1 for s in samples if s.ok and s.report_bytes)
    return reports / sum(latencies), reports


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- environment fingerprint ------------------------------------------------------

def _git_head(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def source_stats(src):
    """sha256 and line count of the package's Python sources."""
    paths = sorted(os.path.join(d, n) for d, _, names in os.walk(src)
                   for n in names if n.endswith(".py"))
    digest, lines = hashlib.sha256(), 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def fingerprint(root, src, args):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_sha, src_lines = source_stats(src)
    return {
        "commit": _git_head(root),
        "src_sha256": src_sha,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed_sequence": workloads.seed_sequence(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- the two kinds of run -----------------------------------------------------------

def plain_run(args, src, setup_cmd, round_cmds, judge, tracebacks):
    setup = FreshSetup(setup_cmd, src, judge)
    for cmd in round_cmds:  # warm-up round: lazy set-up and allocator growth
        run_command(cmd, judge, tracebacks)
    samples, rounds = measure(round_cmds, args.seconds, workloads.MIN_ROUNDS, judge,
                              tracebacks, between_rounds=setup.between_rounds)
    setup_s = setup.median()
    # p50, tail and throughput use steady-state latencies; the wall-clock
    # throughput is kept in the notes
    latencies = steady_latencies(samples)
    num, den = tail_rank(len(round_cmds))
    tail, beyond = nearest_rank(latencies, num, den)
    rps, reports = reports_per_s(samples, latencies)
    wall_rps, _ = reports_per_s(samples, [s.seconds for s in samples])
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "cmd_s_p50": _metric(statistics.median(latencies), "s"),
        "cmd_s_tail": _metric(tail, "s"),
        "reports_per_s": _metric(rps, "1/s"),
        "fail_frac": _metric(judge.fail_frac, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
    }
    ref_median = statistics.median(s.ref_s for s in samples)
    notes = {
        "setup_s": f"median of {len(setup.times)} fresh interpreters; raw median "
                   f"{statistics.median(raw for raw, _ in setup.times):.4g} s",
        "cmd_s_p50": f"n={len(latencies)}, {len(round_cmds)} commands x {rounds} rounds",
        "cmd_s_tail": f"p{100 * num / den:.1f}, n={len(latencies)}, {beyond} beyond",
        "reports_per_s": f"{reports} reports at steady-state latency; "
                         f"{wall_rps:.4g}/s raw by wall clock; reference kernel "
                         f"median {1e3 * ref_median:.4g} ms against REF_S {1e3 * REF_S:g} ms",
        "fail_frac": f"{judge.failed} of {judge.attempted} commands",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    detail = {"rounds": rounds, "ref_s": REF_S,
              "setup_times_s": [{"raw_s": raw, "ref_s": ref} for raw, ref in setup.times],
              "samples": [s._asdict() for s in samples]}
    return metrics, notes, detail


def _per_layer(tr, rounds, warm, extra):
    calls = lambda name: tr.stat(name)["calls"] / rounds  # noqa: E731
    self_s = lambda name: tr.stat(name)["self_s"] / rounds  # noqa: E731
    incl = lambda name: tr.stat(name)["inclusive_s"] / rounds  # noqa: E731
    m = {f"{layer}.self_s": _metric(tr.layer_self_s(layer) / rounds, "s")
         for layer in spans.LAYERS}
    m.update({
        "cli.report_bytes": _metric(extra["report_bytes"] / rounds, "bytes"),
        "cli.commands": _metric(extra["commands"], "count"),
        "cli.golden_exact": _metric(extra["golden_exact"] / rounds, "count"),
        "cli.golden_differ": _metric(extra["golden_differ"] / rounds, "count"),
        "rewrite.gmul.calls": _metric(calls("rewrite.gmul"), "count"),
        "rewrite.gmul.letters": _metric(tr.counters["rewrite.gmul.letters"] / rounds, "count"),
        "rewrite.normalize.calls": _metric(calls("rewrite.normalize"), "count"),
        "rewrite.reduce_once_all.calls": _metric(calls("rewrite.reduce_once_all"), "count"),
        "rewrite.confluence.words": _metric(
            tr.counters["rewrite.confluence.words"] / rounds, "count"),
        "linops.expm.calls": _metric(calls("linops.expm"), "count"),
        "linops.expm.self_s": _metric(self_s("linops.expm"), "s"),
        "linops.expm.slow_calls": _metric(warm.stat("linops.expm")["slow_calls"], "count"),
        "linops.spectral_norm.calls": _metric(calls("linops.spectral_norm"), "count"),
        "linops.spectral_norm.self_s": _metric(self_s("linops.spectral_norm"), "s"),
        "linops.trace_norm.calls": _metric(calls("linops.trace_norm"), "count"),
        "dynamics.triples": _metric(calls("dynamics.divisibility_defect")
                                    + calls("dynamics.additivity_defect"), "count"),
        "dynamics.family.calls": _metric(calls("dynamics.OperatorFamily.__call__")
                                         + calls("dynamics.GeneratorFamily.__call__"), "count"),
        "dynamics.family.hit_ratio": _metric(tr.hit_ratio(
            "dynamics.OperatorFamily.__call__", "dynamics.GeneratorFamily.__call__"), "ratio"),
        "dynamics.build_system_s": _metric(incl("dynamics.build_system"), "s"),
        "extend.evaluations": _metric(calls("extend.NormalFormExtension.__call__")
                                      + calls("extend.FirstCoverExtension.evaluate")
                                      + calls("extend.SecondCoverExtension.generator_of"),
                                      "count"),
        "extend.precondition_s": _metric(incl("extend.NormalFormExtension.__init__")
                                         + incl("extend.FirstCoverExtension.__init__")
                                         + incl("extend.SecondCoverExtension.__init__"), "s"),
        "extend.cover_of_word.calls": _metric(calls("extend.cover_of_word"), "count"),
        "dilate.verify_s": _metric(incl("dilate.DilatedSystem.verify"), "s"),
        "dilate.verify_element.calls": _metric(calls("dilate.VedDilation.verify_element"),
                                               "count"),
        "dilate.verify_element.self_s": _metric(self_s("dilate.VedDilation.verify_element"),
                                                "s"),
        "dilate.formal_terms": _metric(tr.counters["dilate.formal_terms"] / rounds, "count"),
        "dilate.kraus_ii_dilation.calls": _metric(calls("dilate.kraus_ii_dilation"), "count"),
        "dilate.kraus_ii_dilation.self_s": _metric(self_s("dilate.kraus_ii_dilation"), "s"),
        "dilate.channel_builds": _metric(calls("dilate.Channel.__init__"), "count"),
        "dilate.unitary.hit_ratio": _metric(tr.hit_ratio("dilate.VedDilation.unitary_of"),
                                            "ratio"),
        "dilate.shift_value.hit_ratio": _metric(tr.hit_ratio("dilate.ShiftDilation.value"),
                                                "ratio"),
        "dilate.compression_matrix.calls": _metric(
            calls("dilate.ShiftDilation.compression_matrix"), "count"),
        "trace.overhead_frac": _metric(extra["overhead_frac"], "ratio"),
    })
    return m


def traced_run(args, round_cmds, judge, tracebacks, spans_path):
    before = spans.namespace_snapshot()
    warm = spans.Tracer(max_spans=0)  # counts slow first calls only
    warm.install()
    try:
        for cmd in round_cmds:
            warm.begin_command()
            run_command(cmd, judge, tracebacks)
    finally:
        warm.uninstall()
    half = args.seconds / 2.0
    plain, _ = measure(round_cmds, half, 1, judge, tracebacks)
    untraced_rps, _ = reports_per_s(plain, steady_latencies(plain))

    tr = spans.Tracer()
    exact0, differ0 = judge.exact, judge.differ
    tr.install()
    try:
        traced, rounds = measure(round_cmds, half, 1, judge, tracebacks,
                                 before_each=tr.begin_command)
    finally:
        tr.uninstall()
    tr.flush()
    restored = spans.namespace_snapshot() == before
    tr.save(spans_path)
    traced_rps, _ = reports_per_s(traced, steady_latencies(traced))
    extra = {
        "report_bytes": sum(s.report_bytes for s in traced),
        "commands": len(traced),
        "golden_exact": judge.exact - exact0,
        "golden_differ": judge.differ - differ0,
        "overhead_frac": 1.0 - traced_rps / untraced_rps,
    }
    metrics = _per_layer(tr, rounds, warm, extra)
    total_self = sum(tr.layer_self_s(layer) for layer in spans.LAYERS)
    notes = {f"{layer}.self_s": f"{100 * tr.layer_self_s(layer) / total_self:.1f}% of "
                                f"traced self time" for layer in spans.LAYERS}
    notes["trace.overhead_frac"] = (f"reports_per_s {untraced_rps:.3f} untraced, "
                                    f"{traced_rps:.3f} traced")
    detail = {"rounds": rounds, "restored": restored, "spans_file": spans_path,
              "spans_dropped": tr.dropped,
              "stats": {name: tr.stat(name) for name in sorted(tr.stats)},
              "warmup_stats": {name: warm.stat(name) for name in sorted(warm.stats)
                               if warm.stat(name)["calls"]}}
    return metrics, notes, detail, restored


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "graphdyn", "cli.py")):
        print("bench: no graphdyn sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        gold = golden.load(args.workload)
    except OSError as exc:
        print(f"bench: golden data missing: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    sys.path.insert(0, src)
    judge = golden.Judge(gold, args.seed)
    tracebacks = []
    restored = True
    try:
        setup_cmd, round_cmds = workloads.build(args.workload, args.seed, work)
        os.chdir(work)  # argv paths are relative to the scratch directory
        if args.trace:
            metrics, notes, detail, restored = traced_run(
                args, round_cmds, judge, tracebacks,
                os.path.join(out_dir, f"spans-{tag}.json"))
        else:
            metrics, notes, detail = plain_run(args, src, setup_cmd, round_cmds, judge,
                                               tracebacks)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)

    env = fingerprint(root, src, args)
    results = {"fingerprint": env, "metrics": metrics, "notes": notes,
               "attempted": judge.attempted, "failed": judge.failed,
               "golden_bodies": {"exact": judge.exact, "differ": judge.differ,
                                 "unrecorded": judge.unrecorded},
               "mismatches": judge.mismatches, "tracebacks": tracebacks,
               "detail": detail}
    results_path = os.path.join(out_dir, f"result-{tag}.json")
    with open(results_path, "w") as fh:
        json.dump(results, fh, indent=1, default=str)

    print("fingerprint " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {detail['rounds']} rounds of "
          f"{len(round_cmds)} commands; body hashes {judge.exact} exact, {judge.differ} "
          f"differ, {judge.unrecorded} unrecorded; results in {results_path}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for miss in judge.mismatches[:5]:
        print(f"  MISMATCH {json.dumps(miss)}")

    kind = "per_layer" if args.trace else "end_to_end"
    shown = {m["name"] for m in _benchmark_metrics(root, kind)}
    correct = judge.failed == 0 and restored
    print(json.dumps({"correct": correct, "attempted": judge.attempted,
                      "failed": judge.failed,
                      "metrics": {k: v for k, v in metrics.items() if k in shown}}))
    return 0


def _benchmark_metrics(root, kind):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


if __name__ == "__main__":
    sys.exit(main())
