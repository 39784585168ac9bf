"""One benchmark process: a fresh interpreter that runs one workload cold.

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                [--probe] [--trace SPANS_PATH]

It imports tautrel from the src/ next to perfbench/, draws its operations
from the seed and notes the moment the first operation could be issued
(time.monotonic, which the parent compares with its spawn time).  With
--probe it stops there.  Otherwise it asserts that every cache of the
program is still empty, runs the operations one after another, checks each
output against the digests in perfbench/expected.json and prints one JSON
line with the results.  With --trace it wraps tautrel's public names first
and writes the spans to SPANS_PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(op: tuple):
    """Issue one operation and return the program's raw result.

    Every call goes through a module attribute, so the traced run sees it.
    """
    from tautrel import cli, constraint, obstruction

    kind = op[0]
    if kind == "decide":
        return obstruction.decide(*op[1:])
    if kind in ("verify", "verify_symbolic"):
        argv = ["verify", "--d", str(op[1]), "--chi", str(op[2]), "--format", "json"]
        if kind == "verify_symbolic":
            argv += ["--mode", "symbolic"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    if kind == "constraint":
        return constraint.constraint_analysis(op[1])
    raise ValueError(f"unknown operation {op!r}")


def check_op(op: tuple, raw) -> tuple:
    """(canonical output text, list of failed checks) of one result."""
    from tautrel import obstruction

    kind = op[0]
    if kind == "decide":
        problems = []
        if raw.expected_isomorphic != obstruction.congruent(*op[1:]):
            problems.append("expected_isomorphic != congruent")
        if not raw.agrees:
            problems.append(f"verdict {raw.verdict} disagrees with congruence")
        return canonical(raw.to_json()), problems
    if kind in ("verify", "verify_symbolic"):
        code, text = raw
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += [f"check {c['name']} failed" for c in json.loads(text)["checks"]
                     if c["status"] != "pass"]
        return text, problems
    out = {"P1": str(raw.P1), "P1_checks": raw.P1_checks,
           "structure_checks": raw.structure_checks}
    problems = [f"{name} false" for checks in (raw.P1_checks, raw.structure_checks)
                for name, ok in checks.items() if not ok]
    if not raw.ok():
        problems.append("ConstraintReport.ok() is false")
    return canonical(out), problems


def assert_cold() -> None:
    """The run starts with every cache of the program empty."""
    from tautrel import constraint, relations, symbolic

    info = symbolic.symbolic_MN.cache_info()
    if info.currsize != 0:
        raise AssertionError(f"symbolic_MN cache not cold: {info}")
    for name, cache in (("_REL_CACHE", relations._REL_CACHE),
                        ("_SLICE_CACHE", constraint._SLICE_CACHE),
                        ("_REPORT_CACHE", constraint._REPORT_CACHE)):
        if cache:
            raise AssertionError(f"{name} not cold: {len(cache)} entries")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--trace")
    args = p.parse_args(argv)

    if "tautrel" in sys.modules:
        raise AssertionError("tautrel imported before the run started")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tautrel
    # every module the operations use loads here, inside setup_s, and is
    # in sys.modules when the tracer looks for names to wrap
    from tautrel import cli, constraint, obstruction, symbolic  # noqa: F401

    src = os.path.join(ROOT, "src", "tautrel")
    if os.path.dirname(os.path.abspath(tautrel.__file__)) != src:
        raise AssertionError(f"tautrel imported from {tautrel.__file__}, not {src}")
    ops = workloads.operations(args.workload, args.seed, args.seconds)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    assert_cold()
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = []
    top_s = child_s = 0.0  # traced entry-point time inside the operations, and below them
    for i, op in enumerate(ops):
        key = workloads.op_key(op)
        if tracer is not None:
            tracer.op = i
            before = tracer.top_level_s, tracer.top_level_child_s
        t0 = time.perf_counter()
        try:
            raw = run_op(op)
        except Exception as e:  # a failed operation is counted, not fatal
            raw, problems = None, [f"{type(e).__name__}: {e}"]
        seconds = time.perf_counter() - t0
        if tracer is not None:
            top_s += tracer.top_level_s - before[0]
            child_s += tracer.top_level_child_s - before[1]
        if raw is not None:
            try:
                text, problems = check_op(op, raw)
            except Exception as e:  # unreadable output is a failed operation
                text, problems = "", [f"output check: {type(e).__name__}: {e}"]
            want = expected.get(key)
            if want is None:
                problems.append("no expected digest")
            elif digest(text) != want:
                problems.append(f"digest {digest(text)[:12]} != expected {want[:12]}")
        records.append({"op": key, "s": seconds, "problems": problems})

    wall_s = sum(r["s"] for r in records)
    result = {
        "ready": ready,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
        "rat_backend": f"{tautrel.Rat.__module__}.{tautrel.Rat.__qualname__}",
    }
    if tracer is not None:
        result["layers"], result["bases"] = tracing.layer_metrics(tracer, top_s, child_s, wall_s)
        with open(args.trace, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "ops": [r["op"] for r in records],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
