"""tautrel benchmark: one workload, one seed, from a cold start.

    python3 perfbench/run.py --workload {sweep,verify,p1,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; tautrel is imported from its src/.
Each workload runs in a fresh single-threaded interpreter (worker.py), one
operation after another (a closed loop with one client), because every
tautrel invocation pays cold caches.

--trace 0 prints the end-to-end metrics: wall_s (the operations' wall
time), setup_s (interpreter start to first operation: the median over
several fresh interpreters), peak_rss_mb, and fail_ratio with its base.
--trace 1 runs the workload twice side by side, untraced and traced, and
prints the per-layer metrics with the tracing overhead.  The last line of
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The command exits 1 if any operation failed, and 2 without a result if
the run itself could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# setup_s is the median of the measured worker's setup and SETUP_PROBES more
# interpreters; each costs about 0.2 s of a run's time, and a comparison of
# two commits makes 70 runs.
SETUP_PROBES = 4
# The whole run, workers and set-up probes, must end within 180 s, so a
# run whose workers are not done RUN_DEADLINE_S after it started gives no
# result (exit 2) rather than a measured regression.  p1, the longest
# workload at about 80 to 95 s, has about 2x headroom.
RUN_DEADLINE_S = 170
OUT_DIR = os.path.join(HERE, "out")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_digest() -> str:
    """sha256 over src/tautrel, so a result names its code without git."""
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "tautrel")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def worker_cmd(args, *extra) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def spawn(cmd: list) -> tuple:
    """Start one worker with a clean environment; (process, spawn time)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    return proc, t0


def finish(procs: list, deadline: float) -> list:
    """Wait for every process; kill them all if one fails or is not done
    by the deadline (time.monotonic)."""
    outs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
            outs.append(last_json(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return outs


def setup_seconds(args, main_setup: float, deadline: float) -> list:
    """Setup of SETUP_PROBES fresh interpreters plus the measured run's."""
    values = [main_setup]
    for _ in range(SETUP_PROBES):
        proc, t0 = spawn(worker_cmd(args, "--probe"))
        values.append(finish([proc], deadline)[0]["ready"] - t0)
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="all: each workload in turn, one result line each")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tautrel", "__init__.py")):
        print(f"error: no tautrel sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run(args)
    return max(run(argparse.Namespace(**{**vars(args), "workload": w}))
               for w in workloads.WORKLOADS)


def run(args) -> int:
    """One workload: print its metrics and result line; the exit code."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = load_spec()
    ops = workloads.operations(args.workload, args.seed, args.seconds)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT_DIR, f"{tag}-spans.json")

    try:
        if args.trace:
            (plain, _), (traced, _) = spawn(worker_cmd(args)), spawn(
                worker_cmd(args, "--trace", spans_path))
            plain, traced = finish([plain, traced], deadline)
            runs = [plain, traced]
            metrics, bases = dict(traced["layers"]), traced["bases"]
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.untraced_wall_s"] = plain["wall_s"]
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            wanted = spec["per_layer"]
        else:
            proc, t0 = spawn(worker_cmd(args))
            (measured,) = finish([proc], deadline)
            setups = setup_seconds(args, measured["ready"] - t0, deadline)
            runs = [measured]
            metrics = {"wall_s": measured["wall_s"], "setup_s": statistics.median(setups),
                       "peak_rss_mb": measured["peak_rss_mb"]}
            bases = {}
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    records = [r for w in runs for r in w["ops"]]
    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"FAILED {r['op']}: {'; '.join(r['problems'])}")
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    for name, unit in units.items():
        base = f" (base: {bases[name]})" if name in bases else ""
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}{base}")
    print(f"{args.workload} fail_ratio = {len(failed) / len(records):.6g} ratio"
          f" (failed {len(failed)} of ops {len(records)})")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": [workloads.op_key(op) for op in ops],
        "commit": git_commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "rat_backend": runs[0]["rat_backend"],
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "op_seconds": {r["op"]: r["s"] for r in runs[0]["ops"]},
    }
    if args.trace:
        meta["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        meta["setup_s_samples"] = setups
    print("meta " + json.dumps(meta))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
