#!/usr/bin/env python3
"""Run one workload of the xdblas benchmark and print its result record.

    python3 perfbench/run.py --workload serve_small --seed 2005 \\
        --seconds 20 --trace 0

Run it from the root of a checkout. It builds perfbench/ (the xdblas
library from src/ plus the benchmark binary) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the binary, and checks the run's exact
counts against earlier runs of the same seed with the same binary. The last
line of standard output is one JSON object: correct, attempted, failed, and
the metrics of the mode (--trace 0: end_to_end, --trace 1: per_layer), each
with the unit BENCHMARK.json gives it. Any failed check exits non-zero.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_small", "cg_solve", "sharded")
DEFAULT_SEED = 2005
# Time the binary may take beyond --seconds: 17 set-ups, one untimed cycle
# of the input pool and, traced, the probes of the other workloads.
RUN_MARGIN_S = 120


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring the binary up to date; output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "xdbench"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "xdbench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_fingerprint(build_dir, binary, workload, seed, counts):
    """Exact counts must repeat for the same seed and binary. The first run
    of a binary records them; later runs compare. Returns an error or None."""
    fp_dir = os.path.join(build_dir, "fingerprints")
    os.makedirs(fp_dir, exist_ok=True)
    path = os.path.join(fp_dir, f"{workload}-{seed}.json")
    record = {"binary": file_digest(binary), "counts": counts}
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        if old.get("binary") == record["binary"]:
            if old.get("counts") != counts:
                return (f"exact counts differ from an earlier run: "
                        f"{old.get('counts')} vs {counts}")
            return None
    with open(path, "w") as f:
        json.dump(record, f)
    return None


def tagged_line(lines, tag):
    for line in reversed(lines):
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}.jsonl")]
    timeout_s = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {timeout_s:g} s")
        return 1
    lines = proc.stdout.splitlines()
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    result = tagged_line(lines, "RESULT")
    counts = tagged_line(lines, "FINGERPRINT")
    if result is None or counts is None:
        log(f"benchmark exited {proc.returncode} without a result")
        return 1

    correct = bool(result["correct"]) and proc.returncode == 0
    error = check_fingerprint(build_dir, binary, args.workload, args.seed,
                              counts)
    if error:
        log(error)
        correct = False

    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            log(f"metric {m['name']} missing from the run")
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
