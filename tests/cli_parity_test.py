#!/usr/bin/env python3
"""Check that a single-op CLI command and the same line in a batch agree.

Usage:
    cli_parity_test.py XDBLAS_CLI

Runs each op line below as `xdblas_cli <line> --json` and as one line of an
`xdblas_cli batch` file, and exits 0 only when every pair reports the same
`report` object. For dot lines the human-readable `dot(n) = v` line must
also print the batch record's value.
"""

import json
import os
import subprocess
import sys
import tempfile

LINES = [
    "dot --n 1024",
    "dot --n 512 --from-dram --k 4",
    "gemv --n 128",
    "gemv --n 96 --arch col --from-dram",
    "gemm --n 64 --b 32",
    "gemm --n 64 --b 32 --l 2",
    "spmxv --n 256 --nnz-per-row 8",
    # SpMXV's SRAM rate follows k (k/2 words per cycle), as the plan sets it.
    "spmxv --n 128 --k 2 --seed 9",
    "spmxv --n 128 --k 8",
]


def run(cli, args):
    proc = subprocess.run([cli] + args, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return proc.stdout


def batch_records(cli):
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("\n".join(LINES) + "\n")
        path = f.name
    try:
        out = run(cli, ["batch", path])
    finally:
        os.unlink(path)
    records = [json.loads(line) for line in out.splitlines() if line]
    if len(records) != len(LINES):
        raise RuntimeError(f"batch gave {len(records)} records for "
                           f"{len(LINES)} lines")
    return records


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    cli = sys.argv[1]
    failures = 0
    for line, record in zip(LINES, batch_records(cli)):
        single = json.loads(run(cli, line.split() + ["--json"]))
        if single["report"] != record["report"]:
            failures += 1
            print(f"FAIL {line}: report differs\n  cli:   {single['report']}"
                  f"\n  batch: {record['report']}")
            continue
        if record["op"] == "dot":
            want = f"dot({record['n']}) = {record['value']:.12g}"
            text = run(cli, line.split())
            if want not in text.splitlines():
                failures += 1
                print(f"FAIL {line}: want '{want}' in\n{text}")
                continue
        print(f"ok   {line}: {record['report']['cycles']} cycles")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
