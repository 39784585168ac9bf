"""Record the digest of the canonical output of every operation a seed can
draw, into perfbench/expected.json.

    python3 perfbench/record_expected.py [--workload sweep|verify|p1 ...]

Run it only at a commit whose outputs are known to be right: every later
run must reproduce these digests byte for byte.  An operation whose own
checks fail is not recorded, and the script exits 1.  Entries of the
workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from worker import EXPECTED, check_op, digest, run_op  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = p.parse_args(argv)
    table = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            table = json.load(fh)
    status = 0
    for w in args.workload or workloads.WORKLOADS:
        for op in workloads.universe(w):
            key = workloads.op_key(op)
            text, problems = check_op(op, run_op(op))
            if problems:
                print(f"{key}: NOT recorded: {problems}", file=sys.stderr)
                status = 1
                continue
            table[key] = digest(text)
            print(key, table[key][:16], flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
