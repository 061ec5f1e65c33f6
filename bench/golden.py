"""Golden verdicts and report-body hashes.

A command's *verdict* is what it certifies: its exit code, each check's
``(name, passed, count)`` and the report's pass flags.  A verdict that
differs from the golden one is a failure, and so is a normal form that
differs from the one the workload computed independently (``expect``).
The sha256 of the report body is compared too, but a differing body is only
counted: a last-ulp change in a ``max_defect`` from a legitimate kernel swap
must stay visible without failing the run.

Golden files live in ``bench/golden/<workload>.json``:
``{"verdicts": {slot: verdict}, "bodies": {seed: {slot: sha256 | null}}}``.
Verdicts do not depend on the seed (see ``workloads``); body hashes do, so
they are recorded for a range of seeds only.
"""

import hashlib
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Report fields that are exact and do not depend on the seed.
VERDICT_KEYS = ("command", "kind", "pipeline", "which", "passed")


def golden_path(workload):
    return os.path.join(GOLDEN_DIR, workload + ".json")


def load(workload):
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def read_body(path):
    """(raw bytes, parsed JSON report) of a command's output, or (None, None).

    A directory output (the demo command) is hashed over its sorted file
    names and contents; its JSON file is the report.
    """
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw)
    if os.path.isdir(path):
        raw, report = b"", None
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                data = fh.read()
            raw += name.encode() + b"\0" + data
            if name.endswith(".json"):
                report = json.loads(data)
        return raw, report
    return None, None


def verdict(exit_code, report):
    out = {"exit": exit_code}
    if report is None:
        return out
    if "checks" in report:
        out["checks"] = [[c["name"], c["passed"], c["count"]] for c in report["checks"]]
    for key in VERDICT_KEYS:
        if key in report:
            out[key] = report[key]
    expected = report.get("expected")
    if isinstance(expected, dict):
        out["expected"] = {k: v for k, v in expected.items() if isinstance(v, bool)}
    return out


def digest(raw):
    return None if raw is None else hashlib.sha256(raw).hexdigest()


class Judge:
    """Compares command outcomes with one workload's golden data."""

    def __init__(self, golden, seed):
        self.verdicts = golden["verdicts"]
        self.bodies = golden.get("bodies", {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.exact = 0       # bodies byte-identical to the golden body
        self.differ = 0      # bodies that differ from a recorded golden body
        self.unrecorded = 0  # bodies whose seed has no recorded hash
        self.mismatches = []

    def judge(self, slot, got_verdict, body_sha, report=None, expect=None):
        """Record one outcome; return True when its verdict matches and its
        exact fields equal ``expect``."""
        self.attempted += 1
        got_exact = None
        if expect is not None:
            got_exact = {k: (report or {}).get(k) for k in expect}
        ok = self.verdicts.get(slot) == got_verdict and got_exact == expect
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append({"slot": slot, "got": got_verdict,
                                        "golden": self.verdicts.get(slot),
                                        "exact_ok": got_exact == expect})
        if self.bodies is None or slot not in self.bodies:
            self.unrecorded += 1
        elif self.bodies[slot] == body_sha:
            self.exact += 1
        else:
            self.differ += 1
        return ok

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0
