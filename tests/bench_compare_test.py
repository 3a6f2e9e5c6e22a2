#!/usr/bin/env python3
"""Drive tools/bench_compare against a mutated copy of a bench baseline.

Usage:
    bench_compare_test.py BENCH_COMPARE BASELINE CASE

Writes BASELINE with the mutation CASE names into a temporary file, runs
bench_compare on (BASELINE, mutated copy) with and without --warn-only, and
exits 0 only when both exit codes match the case's expectation.
"""

import json
import os
import subprocess
import sys
import tempfile


def shift_timing(rec):
    """Move the whole spread well above the baseline's p90."""
    p90 = rec["wall_ns"]["p90"]
    rec["wall_ns"].update(median=4 * p90, p10=2 * p90, p90=6 * p90)


def overlap_timing(rec):
    """A slower median whose spread still overlaps the baseline's: noise."""
    w = rec["wall_ns"]
    w.update(median=1.5 * w["median"], p90=2 * w["p90"])


def bump(key, by):
    def mutate(rec):
        rec["counters"][key] += by
    return mutate


def set_field(key, value):
    def mutate(rec):
        rec[key] = value
    return mutate


# case -> (op to mutate, mutation, expected exit, expected exit with
# --warn-only, text both runs must print)
CASES = {
    "unchanged": (None, None, 0, 0, "no correctness change"),
    "cycles": ("gemv-192-l6", lambda r: r.update(cycles=r["cycles"] + 1), 1,
               1, "FATAL"),
    "link_words": ("gemm-96-l3", bump("link_words", 1), 1, 1, "FATAL"),
    "interchassis_words": ("gemm-96-l3", bump("interchassis_words", 7), 1, 1,
                           "FATAL"),
    "model_cycles": ("gemm-96-l3", bump("model_cycles", 1), 1, 1, "FATAL"),
    "staging_saved_cycles": ("cg-step-512-dram/fused",
                             bump("staging_saved_cycles", 5), 1, 1, "FATAL"),
    "bits_equal": ("gemm-96-l2", set_field("bits_equal", False), 1, 1,
                   "FATAL"),
    "timing_shift": ("gemv-192-l3", shift_timing, 1, 0, "REGRESSION"),
    "timing_overlap": ("gemv-192-l3", overlap_timing, 0, 0,
                       "no timing regression"),
}


def main():
    tool, baseline, case = sys.argv[1:4]
    op, mutate, want, want_warn, text = CASES[case]
    lines = []
    found = op is None
    with open(baseline) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("event") == "bench" and rec["op"] == op:
                mutate(rec)
                found = True
            lines.append(json.dumps(rec))
    if not found:
        sys.exit(f"{case}: op {op} not in {baseline}")

    fd, current = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "w") as f:
            f.write("\n".join(lines) + "\n")
        ok = True
        for extra, expect in (([], want), (["--warn-only"], want_warn)):
            run = subprocess.run(
                [sys.executable, tool, baseline, current] + extra,
                capture_output=True, text=True)
            print(run.stdout, end="")
            if run.returncode != expect or text not in run.stdout:
                print(f"{case}{' ' + extra[0] if extra else ''}: exit "
                      f"{run.returncode}, want {expect} and {text!r}")
                ok = False
        return 0 if ok else 1
    finally:
        os.unlink(current)


if __name__ == "__main__":
    sys.exit(main())
