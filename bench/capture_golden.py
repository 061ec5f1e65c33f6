#!/usr/bin/env python3
"""Record golden verdicts and report-body hashes for one workload.

Run from the repository root, at the commit whose behaviour is golden:

    python3 bench/capture_golden.py --workload word-algebra --seeds 0-31

Runs one round per seed and writes ``bench/golden/<workload>.json``.  Every
slot must give the same verdict on every seed (the workloads are built that
way); a slot whose verdict depends on the seed is reported and nothing is
written.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import golden  # noqa: E402
import workloads  # noqa: E402


class Recorder:
    """Stands in for ``golden.Judge`` and keeps what it is shown."""

    def __init__(self):
        self.seed = None  # the seed whose round is being recorded
        self.verdicts = {}
        self.bodies = {}
        self.conflicts = []

    def judge(self, slot, verdict, sha, report=None, expect=None):
        if expect is not None and {k: (report or {}).get(k) for k in expect} != expect:
            self.conflicts.append({"slot": slot, "seed": self.seed, "exact": "mismatch"})
        known = self.verdicts.setdefault(slot, verdict)
        if known != verdict:
            self.conflicts.append({"slot": slot, "seed": self.seed,
                                   "first": known, "now": verdict})
        self.bodies.setdefault(str(self.seed), {})[slot] = sha
        return True


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = p.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    rec = Recorder()
    tracebacks = []
    for seed in _seeds(args.seeds):
        rec.seed = seed
        work = os.path.join(root, ".bench_out", f"capture-{args.workload}-{seed}")
        shutil.rmtree(work, ignore_errors=True)
        try:
            _, round_cmds = workloads.build(args.workload, seed, work)
            os.chdir(work)
            for cmd in round_cmds:
                run.run_command(cmd, rec, tracebacks)
        finally:
            os.chdir(root)
            shutil.rmtree(work, ignore_errors=True)
        print(f"seed {seed}: {len(round_cmds)} commands", flush=True)
    if rec.conflicts or tracebacks:
        print(json.dumps({"conflicts": rec.conflicts[:10], "tracebacks": tracebacks},
                         indent=1), file=sys.stderr)
        return 1
    src_sha, src_lines = run.source_stats(src)
    with open(golden.golden_path(args.workload), "w") as fh:
        json.dump({"workload": args.workload, "src_sha256": src_sha,
                   "src_lines": src_lines, "verdicts": rec.verdicts,
                   "bodies": rec.bodies}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
