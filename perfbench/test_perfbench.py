"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

TINY = "1"  # --seconds: one operation of sweep


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


SECONDS = spec()["run_seconds"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(workload):
    ops = workloads.operations(workload, 1, SECONDS)
    assert ops == workloads.operations(workload, 1, SECONDS)
    draws = {tuple(workloads.operations(workload, s, SECONDS)) for s in range(10)}
    assert len(draws) >= 5
    assert workloads.operations(workload, 1, SECONDS) != workloads.operations(workload, 2, SECONDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_digests_cover_every_draw(workload):
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for seed in range(100):
        for op in workloads.operations(workload, seed, SECONDS):
            assert op in workloads.universe(workload)
            assert workloads.op_key(op) in expected


def test_sweep_sample_shape():
    ops = workloads.operations("sweep", 5, SECONDS)
    assert ops == sorted(ops)
    assert len(set(ops)) == len(ops) == workloads.SWEEP_OPS
    alloc = workloads.sweep_allocation()
    # 25 decides of 10, 3, 21, 10, 21 pairs; 13 congruent of 6, 3, 9, 6, 9
    assert alloc == {5: (4, 2), 6: (1, 1), 7: (8, 4), 8: (4, 2), 9: (8, 4)}
    assert [op[1] for op in ops] == [d for d, (k, _) in alloc.items() for _ in range(k)]
    assert workloads.operations("sweep", 5, 1) == ops[:1]


def test_sweep_sample_has_the_full_sweeps_congruent_share_and_fixed_builds():
    full = workloads.universe("sweep")
    full_share = sum(workloads.congruent(*op[1:]) for op in full) / len(full)
    assert len(full) == 65 and round(full_share * 65) == 33
    alloc = workloads.sweep_allocation()
    for seed in range(100):
        ops = workloads.operations("sweep", seed, SECONDS)
        for d, (_, c) in alloc.items():
            assert sum(workloads.congruent(*op[1:]) for op in ops if op[1] == d) == c
            chis = {chi for op in ops if op[1] == d for chi in op[2:]}
            assert len(chis) == workloads.SWEEP_CHIS[d]
        share = sum(workloads.congruent(*op[1:]) for op in ops) / len(ops)
        assert abs(share - full_share) <= 0.5 / workloads.SWEEP_OPS  # the nearest share


def test_sweep_pairs_match_tautrel():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tautrel import obstruction

    for d in workloads.SWEEP_DS:
        assert workloads.coprime_pairs(d) == obstruction.coprime_pairs(d)
        for a, b in obstruction.coprime_pairs(d):
            assert workloads.congruent(d, a, b) == obstruction.congruent(d, a, b)


def test_end_to_end_metrics_printed():
    proc = run_bench("--workload", "sweep", "--seed", "3", "--seconds", TINY,
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 1
    for m in spec()["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
        assert f"sweep {m['name']} = " in proc.stdout
        assert f" {m['unit']}\n" in proc.stdout
    assert "sweep fail_ratio = 0 ratio (failed 0 of ops 1)" in proc.stdout
    meta = next(line for line in proc.stdout.splitlines() if line.startswith("meta "))
    meta = json.loads(meta[5:])
    assert meta["seed"] == 3 and meta["rat_backend"] and meta["python"]
    assert meta["inputs"] == [workloads.op_key(op) for op in
                              workloads.operations("sweep", 3, float(TINY))]


def test_per_layer_metrics_printed():
    proc = run_bench("--workload", "sweep", "--seed", "3", "--seconds", TINY,
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = result_of(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}
    for m in spec()["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert f"sweep {m['name']} = " in proc.stdout
    # predicted: sweep does no rational-function arithmetic
    assert metrics["ratfunc.arith.calls"]["value"] == 0
    assert metrics["obstruction.decide.calls"]["value"] == 1
    assert metrics["obstruction.decide.p50_s"]["value"] > 0
    assert metrics["cubicext.arith.calls"]["value"] > 0
    assert 0.9 < metrics["trace.coverage"]["value"] <= 1.0
    assert 0.5 < metrics["trace.child_coverage"]["value"] <= 1.0
    assert metrics["obstruction.decide.max_s"]["value"] > 0
    assert "trace.child_coverage = " in proc.stdout and " s in entry points)" in proc.stdout
    assert "(base: 2 relations.build calls)" in proc.stdout


def copy_benchmark(dest) -> None:
    """BENCHMARK.json and perfbench/ under dest, without the program."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


def test_corrupted_digest_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    (op,) = workloads.operations("sweep", 3, float(TINY))
    expected[workloads.op_key(op)] = "0" * 64
    path.write_text(json.dumps(expected))
    proc = run_bench("--workload", "sweep", "--seed", "3", "--seconds", TINY,
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    res = result_of(proc)
    assert res["failed"] == 1 and not res["correct"]
    assert "sweep fail_ratio = 1 ratio (failed 1 of ops 1)" in proc.stdout


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", TINY,
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
