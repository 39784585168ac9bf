"""Every digest of perfbench/expected.json, recomputed in process.

perfbench's worker checks each operation's output against these digests
and counts a mismatch as a failed operation.  Recomputing all of them
here, through the worker's own run_op, check_op and digest, makes a
changed output fail the tier-1 suite before it fails the benchmark.
"""

import json
import os

from test_bench_contract import PERFBENCH, _perfbench


def _op(key: str) -> tuple:
    """The operation tuple of an expected.json key ("decide 5 1 2")."""
    kind, *args = key.split()
    return (kind, *map(int, args))


def test_every_expected_digest_is_reproduced():
    worker = _perfbench("worker")
    with open(os.path.join(PERFBENCH, "expected.json")) as fh:
        expected = json.load(fh)
    kinds = {}
    mismatched, failed = [], []
    for key, want in expected.items():
        op = _op(key)
        kinds[op[0]] = kinds.get(op[0], 0) + 1
        text, problems = worker.check_op(op, worker.run_op(op))
        if problems:
            failed.append((key, problems))
        if worker.digest(text) != want:
            mismatched.append(key)
    assert kinds == {"decide": 65, "verify": 36, "verify_symbolic": 16, "constraint": 1}
    assert failed == [] and mismatched == []
