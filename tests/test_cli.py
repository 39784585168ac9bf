import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import Future

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tautrel import cli
from tautrel.cli import main


def run_cli(*argv):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_decide_exit_codes():
    code, out, err = run_cli("decide", "--d", "5", "--chi1", "1", "--chi2", "2")
    assert code == 0
    assert "ObstructionFound" in out or "verdict" in out
    code, out, err = run_cli("decide", "--d", "6", "--chi1", "2", "--chi2", "1")
    assert code == 2
    assert "coprime" in err.lower()


def test_decide_witness_cases():
    code, out, _ = run_cli(
        "decide", "--d", "5", "--chi1", "1", "--chi2", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    v = payload["results"][0]
    assert v["verdict"] == "NoObstruction"
    assert v["witness"]["S"] == [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]
    assert v["witness"]["A"] == [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]


def test_main_keeps_its_parser_and_reads_patched_names(monkeypatch):
    # the parser is built by the first main and kept; each later call
    # still reaches a patched module name of cli, and prints the same
    # usage error, byte for byte
    cli.build_parser.cache_clear()
    calls = []
    real = cli.decide
    monkeypatch.setattr(cli, "decide", lambda *pair: calls.append(pair) or real(*pair))
    runs = [run_cli("decide", "--d", "5", "--chi1", "1", "--chi2", "2", "--format", "json")
            for _ in range(2)]
    assert calls == [(5, 1, 2)] * 2
    assert runs[0] == runs[1] and runs[0][0] == 0
    errors = [run_cli("verify", "--d", "5", "--mode", "numeric") for _ in range(2)]
    assert errors[0] == errors[1] and errors[0][0] == 2
    assert errors[0][1] == "" and "invalid choice: 'numeric'" in errors[0][2]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_verify_pass_and_rejections():
    code, out, _ = run_cli("verify", "--d", "5", "--chi", "1")
    assert code == 0
    assert "overall: pass" in out
    code, _, err = run_cli("verify", "--d", "4", "--chi", "1")
    assert code == 2
    assert "d >= 5" in err
    code, _, err = run_cli("verify", "--d", "6", "--chi", "2")
    assert code == 2
    assert "NotCoprime" in err


def test_constraint_command(monkeypatch):
    from tautrel.constraint import constraint_analysis

    rep = constraint_analysis(5)
    code, out, _ = run_cli("constraint", "--d", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "constraint" and payload["status"] == "pass"
    (result,) = payload["results"]
    assert result["P1"] == str(rep.P1)
    assert result["pair_agreement"] == rep.pair_agreement
    names = [c["name"] for c in payload["checks"]]
    assert names == [*rep.P1_checks, *rep.structure_checks] + ["pair_agreement"] * 6
    code, out, _ = run_cli("constraint", "--d", "5")
    assert code == 0
    assert f"P1 = {rep.P1}\n" in out and out.endswith("overall: pass\n")
    assert "[PASS] pair_agreement  (chi1=1,chi2=4)" in out
    for d in ("4", "0", "-5"):
        code, out, err = run_cli("constraint", "--d", d)
        assert code == 2 and out == "" and "d >= 5" in err
    # a failed check is a mathematical mismatch
    broken = type(rep)(5, rep.P1, dict(rep.P1_checks, symmetric=False),
                       rep.structure_checks, rep.pair_agreement)
    monkeypatch.setattr(cli, "constraint_analysis", lambda d: broken)
    code, out, _ = run_cli("constraint", "--d", "5")
    assert code == 1
    assert "[FAIL] symmetric" in out and out.endswith("overall: FAIL\n")


def assert_usage_error(*argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rejects_non_integer_chi():
    assert_usage_error("verify", "--d", "5", "--chi", "abc")


def test_verify_chi2_solves_each_pair_once(monkeypatch):
    # the Type I checks read decide's verdict: S is solved once per type
    from tautrel import obstruction

    calls = []
    real = obstruction.solve_S

    def counted(stype, *sides):
        calls.append(stype)
        return real(stype, *sides)

    monkeypatch.setattr(obstruction, "solve_S", counted)
    monkeypatch.setattr(cli, "solve_S", counted, raising=False)
    code, out, _ = run_cli("verify", "--d", "9", "--chi", "2", "--chi2", "4")
    assert code == 0 and "[PASS] type_I_a33_certificate[" in out
    assert calls == ["I", "II"]


def test_verify_chi2_checks_the_forcing_coefficient(monkeypatch):
    # a formula off by a factor fails the certificate check, with both values
    formula = cli.a33_coefficient_formula
    monkeypatch.setattr(cli, "a33_coefficient_formula", lambda *pair: 2 * formula(*pair))
    code, out, _ = run_cli("verify", "--d", "7", "--chi", "2", "--chi2", "5")
    assert code == 1
    assert "[FAIL] type_I_a33_certificate[t^3 + 30527/75]  expected -48/679, got -24/679" in out
    assert "[PASS] type_I_no_solution[t^3 + 30527/75]" in out


def test_verify_rejects_chi2_out_of_range():
    assert_usage_error("verify", "--d", "5", "--chi", "1", "--chi2", "7")


def test_decide_rejects_zero_d():
    assert_usage_error("decide", "--d", "0", "--chi1", "1", "--chi2", "1")


def test_decide_rejects_negative_d():
    assert_usage_error("decide", "--d", "-5", "--chi1", "1", "--chi2", "2")


def test_sweep_rejects_zero_jobs():
    assert_usage_error("sweep", "--dmin", "5", "--dmax", "5", "--jobs", "0")


def test_verify_node_errors(monkeypatch):
    from tautrel import obstruction

    def not_nodal(cubic, field):
        raise obstruction.NotNodal("zero cubic")

    monkeypatch.setattr(cli, "analyze_node", not_nodal)
    code, out, _ = run_cli("verify", "--d", "5", "--chi", "1")
    assert code == 1
    assert "zero cubic" in out

    def broken(cubic, field):
        raise RuntimeError("fault in analyze_node")

    monkeypatch.setattr(cli, "analyze_node", broken)
    with pytest.raises(RuntimeError, match="fault in analyze_node"):
        run_cli("verify", "--d", "5", "--chi", "1")


@pytest.mark.parametrize("d, chi", [(60, 7), (100, 3)])
def test_verify_far_beyond_the_build(d, chi):
    # the det formulas, the templates and the node coefficient at a d whose
    # full expansion tier-1 could not afford: verify reads the closed form
    code, out, err = run_cli("verify", "--d", str(d), "--chi", str(chi), "--format", "json")
    assert code == 0 and err == ""
    checks = json.loads(out)["checks"]
    assert len(checks) == 8 and all(c["status"] == "pass" for c in checks)


def test_verify_falls_back_to_the_block_rank(monkeypatch, rc2_zeroed):
    # a block whose pivot minor vanishes (Rc^2 zeroed by a defect of the
    # closed form) makes verify take the rank of the block's own rows and
    # report a mismatch, not raise, with no relation set built
    from tautrel import relations

    def no_build(*args):
        raise AssertionError("verify built a relation set")

    monkeypatch.setattr(relations, "build_relation_set", no_build)
    monkeypatch.setattr(cli, "build_relation_set", no_build)
    code, out, err = run_cli("verify", "--d", "7", "--chi", "3", "--format", "json")
    assert code == 1 and "Traceback" not in err
    (rank,) = [c for c in json.loads(out)["checks"] if c["name"] == "rank12"]
    assert rank["status"] == "fail" and rank["actual"] == "11"
    # the exit contract holds with the broken block: 2 for a usage error
    assert run_cli("verify", "--d", "6", "--chi", "2")[0] == 2


def test_verify_builds_no_relation_set(monkeypatch):
    from tautrel import relations

    def no_build(*args):
        raise AssertionError("verify built a relation set")

    monkeypatch.setattr(relations, "build_relation_set", no_build)
    monkeypatch.setattr(cli, "build_relation_set", no_build)
    code, out, _ = run_cli("verify", "--d", "5", "--dmax", "16", "--chi", "all",
                           "--format", "json")
    checks = json.loads(out)["checks"]
    assert code == 0 and all(c["status"] == "pass" for c in checks)
    points = {f"d={d},chi={chi}" for d in range(5, 17) for chi in range(1, d)
              if math.gcd(d, chi) == 1}
    assert {c["location"] for c in checks} == points


def test_verify_symbolic_mode(monkeypatch):
    code, out, _ = run_cli("verify", "--d", "5", "--chi", "1", "--mode", "symbolic")
    assert code == 0
    assert "symbolic_reference_matrices" in out
    # the (d, chi)-free template comparison runs once per command and is
    # reported at each of the 12 coprime points of d = 5..7
    calls = []
    templates = cli.reference_M_templates
    monkeypatch.setattr(cli, "reference_M_templates", lambda *a: calls.append(a) or templates(*a))
    code, out, _ = run_cli("verify", "--d", "5", "--dmax", "7", "--chi", "all",
                           "--mode", "symbolic", "--format", "json")
    rows = [c for c in json.loads(out)["checks"] if c["name"] == "symbolic_reference_matrices"]
    assert code == 0 and len(calls) == 1
    assert len(rows) == 12 and all(c["status"] == "pass" for c in rows)


def test_emit_relations_values(tmp_path):
    out_file = tmp_path / "rel.json"
    code, _, _ = run_cli(
        "emit", "--what", "relations", "--d", "5", "--chi", "1",
        "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["det1"] == "-972"
    assert payload["det2"] == "116640000"
    assert payload["R1"].startswith("c4(0)*c3(0)")


def test_emit_matrices_value(tmp_path):
    out_file = tmp_path / "mat.json"
    code, _, _ = run_cli(
        "emit", "--what", "matrices", "--d", "5", "--chi", "1",
        "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["M"][2][2][0] == "2/3"


def test_emit_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            "emit", "--what", "relations", "--d", "5", "--chi", "2",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_emit_unwritable_path():
    code, _, err = run_cli(
        "emit", "--what", "relations", "--d", "5", "--chi", "1",
        "--out", "/nonexistent-dir/x.json",
    )
    assert code == 2
    assert "error" in err.lower()


def test_emit_requires_chi():
    code, _, err = run_cli("emit", "--what", "relations", "--d", "5")
    assert code == 2


def test_sweep_small_serial_and_parallel_agree():
    code1, out1, _ = run_cli(
        "sweep", "--dmin", "5", "--dmax", "5", "--jobs", "1", "--format", "json"
    )
    assert code1 == 0
    payload1 = json.loads(out1)
    assert payload1["status"] == "pass"
    rows = payload1["results"]
    assert len(rows) == 10
    assert all(r["agrees"] for r in rows)
    code2, out2, _ = run_cli(
        "sweep", "--dmin", "5", "--dmax", "5", "--jobs", "2", "--format", "json"
    )
    assert code2 == 0
    assert json.loads(out2)["results"] == rows


@pytest.fixture
def fake_pool(monkeypatch):
    """The worker counts the sweep asks its process pool for; the fake
    pool runs each pair inline when it is given out, so no process starts."""
    asked = []

    class FakePool:
        def __init__(self, workers):
            asked.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            done = Future()
            done.set_result(fn(task))
            return done

    monkeypatch.setattr(cli, "_pool", FakePool)
    return asked


def test_sweep_replaces_a_pool_that_broke_between_pairs(monkeypatch):
    """A pool that refuses a pair because one of its workers died while
    idle loses no pair: a fresh pool decides that pair and the rest."""
    from concurrent.futures import BrokenExecutor

    pools = []

    class BreakingPool:
        def __init__(self, workers):
            pools.append(workers)
            self.given = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            self.given += 1
            if len(pools) == 1 and self.given == 3:
                raise BrokenExecutor("a worker died")
            done = Future()
            done.set_result(fn(task))
            return done

    monkeypatch.setattr(cli, "_pool", BreakingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ("sweep", "--dmin", "5", "--dmax", "5", "--format", "json", "--jobs")
    code, out, _ = run_cli(*argv, "2")
    assert code == 0 and pools == [2, 2]
    assert json.loads(out)["results"] == json.loads(run_cli(*argv, "1")[1])["results"]


def test_sweep_starts_no_more_workers_than_pairs(monkeypatch, fake_pool):
    """--jobs 64 over d = 5's 10 pairs, on 64 CPUs, asks for 10 workers
    and reports what --jobs 1 reports, --jobs included."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    code1, out1, _ = run_cli(
        "sweep", "--dmin", "5", "--dmax", "5", "--jobs", "1", "--format", "json")
    assert fake_pool == []
    code64, out64, _ = run_cli(
        "sweep", "--dmin", "5", "--dmax", "5", "--jobs", "64", "--format", "json")
    assert fake_pool == [10]
    assert code1 == code64 == 0
    payload1, payload64 = json.loads(out1), json.loads(out64)
    assert payload64["config"]["jobs"] == 64
    payload64["config"]["jobs"] = 1
    assert payload64 == payload1


def test_sweep_starts_no_more_workers_than_cpus(monkeypatch, fake_pool):
    """--jobs 1000 on 2 CPUs asks for 2 workers, and the report keeps the
    --jobs given; without --jobs the sweep asks for one worker per CPU,
    and runs serially when the CPU count is unknown."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, _ = run_cli(
        "sweep", "--dmin", "5", "--dmax", "5", "--jobs", "1000", "--format", "json")
    assert code == 0 and fake_pool == [2]
    assert json.loads(out)["config"]["jobs"] == 1000
    assert run_cli("sweep", "--dmin", "5", "--dmax", "5")[0] == 0
    assert fake_pool == [2, 2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert run_cli("sweep", "--dmin", "5", "--dmax", "5", "--jobs", "1000")[0] == 0
    assert fake_pool == [2, 2]


def test_sweep_failing_pair_gives_error_row(monkeypatch):
    from tautrel.obstruction import coprime_pairs

    c1, c2 = coprime_pairs(5)[1]
    real = cli.decide

    def flaky(d, chi1, chi2):
        if (d, chi1, chi2) == (5, c1, c2):
            raise RuntimeError("injected fault")
        return real(d, chi1, chi2)

    monkeypatch.setattr(cli, "decide", flaky)
    code, out, err = run_cli(
        "sweep", "--dmin", "5", "--dmax", "5", "--jobs", "1", "--format", "json"
    )
    assert code == 1 and err == ""
    payload = json.loads(out)
    rows = payload["results"]
    assert len(rows) == 10
    bad = [r for r in rows if "error" in r]
    assert bad == [{"d": 5, "chi1": c1, "chi2": c2, "error": "RuntimeError",
                    "message": "injected fault",
                    "raised_at": bad[0]["raised_at"]}]
    assert bad[0]["raised_at"].startswith("test_cli.py:")
    assert bad[0]["raised_at"].endswith(" in flaky")
    assert all(r["agrees"] for r in rows if "error" not in r)
    failed = [c for c in payload["checks"] if c["status"] == "fail"]
    assert {c["name"] for c in failed} == {"agreement", "decide_error"}
    assert any(c.get("location") == f"d=5,chi1={c1},chi2={c2}" for c in failed)
    code, out, _ = run_cli("sweep", "--dmin", "5", "--dmax", "5", "--jobs", "1")
    assert code == 1
    assert "got RuntimeError: injected fault (raised at test_cli.py:" in out
    assert f"in flaky)  (d=5,chi1={c1},chi2={c2})" in out


# a sweep whose worker process exits at (7, 2, 3), on every try; the
# workers start by importing this script, which patches them too
DYING_SWEEP = """
import os, sys
from tautrel import cli

real = cli._sweep_worker


def dying(task):
    if tuple(task) == (7, 2, 3):
        os._exit(1)
    return real(task)


cli._sweep_worker = dying

if __name__ == "__main__":
    sys.exit(cli.main(["sweep", "--dmin", "5", "--dmax", "7", "--jobs", "2",
                       "--format", "json"]))
"""


def test_sweep_survives_a_dead_worker(tmp_path):
    """A pair whose worker process dies, and dies again on its retry, gets
    a WorkerDied error row: the sweep neither waits forever nor loses
    another pair, exits 1 without a traceback, and leaves no process
    running."""
    script = tmp_path / "dying_sweep.py"
    script.write_text(DYING_SWEEP)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.Popen([sys.executable, str(script)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 1 and "Traceback" not in err
    rows = json.loads(out)["results"]
    dead = [r for r in rows if "error" in r]
    assert dead == [{"d": 7, "chi1": 2, "chi2": 3, "error": "WorkerDied",
                     "message": dead[0]["message"], "raised_at": dead[0]["raised_at"]}]
    assert dead[0]["message"].startswith("its worker process died twice")
    assert dead[0]["raised_at"].startswith("cli.py:")
    assert dead[0]["raised_at"].endswith(" in _pooled_rows")
    want = json.loads(run_cli("sweep", "--dmin", "5", "--dmax", "7", "--jobs", "1",
                              "--format", "json")[1])["results"]
    assert len(rows) == len(want) == 34
    assert [r for r in rows if "error" not in r] == [
        r for r in want if (r["d"], r["chi1"], r["chi2"]) != (7, 2, 3)]
    # the workers ran in the sweep's session, and none outlives it
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a worker process outlived the sweep"
        time.sleep(0.1)


UNWRITABLE = "/nonexistent-dir/x.json"


def _coprime(draw, d):
    return str(draw(st.sampled_from([c for c in range(1, d) if math.gcd(c, d) == 1])))


@st.composite
def cli_argv(draw):
    """A valid command line with small d and chi (a cheap one: at most one
    d, sweeps and verdict lists at d = 5, the constraint at 5 <= d <= 9),
    sometimes with an --out that cannot be written, then up to two
    mutations: an option dropped, a value dropped or made invalid, an
    unknown option."""
    command = draw(st.sampled_from(["verify", "decide", "emit"] * 2 + ["sweep", "constraint"]))
    d = draw(st.sampled_from([5, 6, 7]))
    opts = []
    if command == "verify":
        opts += [["--d", str(d)], ["--chi", _coprime(draw, d)]]
        if draw(st.booleans()):
            opts.append(["--chi2", _coprime(draw, d)])
        if not draw(st.integers(0, 9)):
            opts.append(["--mode", "symbolic"])
    elif command == "decide":
        opts += [["--d", str(d)], ["--chi1", _coprime(draw, d)], ["--chi2", _coprime(draw, d)]]
    elif command == "sweep":
        opts += [["--dmin", "5"], ["--dmax", "5"], ["--jobs", "1"]]
    elif command == "constraint":
        opts.append(["--d", str(draw(st.integers(5, 9)))])
    else:
        what = draw(st.sampled_from(["relations", "matrices", "verdicts"]))
        if what == "verdicts" and draw(st.integers(0, 2)):
            opts += [["--chi", _coprime(draw, d)], ["--chi2", _coprime(draw, d)]]
        elif what == "verdicts":
            d = 5
        else:
            opts.append(["--chi", _coprime(draw, d)])
        opts += [["--what", what], ["--d", str(d)]]
    opts.append(["--format", draw(st.sampled_from(["json", "text"]))])
    if not draw(st.integers(0, 4)):
        opts.append(["--out", UNWRITABLE])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(opts) - 1))
        kind = draw(st.sampled_from(["drop", "bare", "value", "unknown"]))
        if kind == "drop":
            opts.pop(i)
        elif kind == "bare":
            opts[i] = opts[i][:1]
        elif kind == "value":
            opts[i] = [opts[i][0], draw(st.sampled_from(["0", "-1", "4", "9", "x", "1.5", "all"]))]
        else:
            opts.append(["--nope"])
        if not opts:
            break
    return [command] + [tok for opt in draw(st.permutations(opts)) for tok in opt]


def _given_int(argv, option):
    """The integer value of option in argv, or None."""
    for flag, value in zip(argv, argv[1:]):
        if flag == option:
            try:
                return int(value)
            except ValueError:
                return None
    return None


def _parsed(argv):
    """argv parsed by the CLI's own parser, or None where it refuses it."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


def _half_pair(args) -> bool:
    """Whether a parsed emit gives --chi2 where it is not read, or only
    one of --chi and --chi2 for verdicts."""
    if args.what == "verdicts":
        return (args.chi is None) != (args.chi2 is None)
    return args.chi2 is not None


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
@example(["emit", "--what", "verdicts", "--d", "5", "--chi2", "1"])
@example(["verify", "--d", "5", "--chi", "1", "--out", UNWRITABLE])
@example(["decide", "--d", "5", "--chi1", "1", "--chi2", "2", "--out", UNWRITABLE])
@example(["sweep", "--dmin", "5", "--dmax", "5", "--jobs", "1", "--out", UNWRITABLE])
@example(["emit", "--what", "matrices", "--d", "5", "--chi", "1", "--out", UNWRITABLE])
@example(["emit", "--what", "verdicts", "--d", "0", "--chi", "1", "--chi2", "1"])
@example(["emit", "--what", "verdicts", "--d", "-5", "--chi", "1", "--chi2", "2"])
@example(["emit", "--what", "verdicts", "--d", "0"])
@example(["emit", "--what", "verdicts", "--d", "-5"])
@example(["decide", "--d", "-5", "--chi1", "1", "--chi2", "2"])
@example(["sweep", "--dmin", "5", "--dmax", "5", "--jobs", "1", "--format", "json", "--out", "0"])
@example(["verify", "--d", "9", "--dmax", "5"])
@example(["verify", "--d", "7", "--dmax", "0", "--chi", "2"])
@example(["emit", "--what", "verdicts", "--d", "5", "--chi", "3"])
@example(["emit", "--what", "relations", "--d", "5", "--chi", "1", "--chi2", "2"])
@example(["constraint", "--d", "4"])
@example(["constraint", "--d", "9", "--format", "json", "--out", UNWRITABLE])
def test_cli_exit_code_contract(argv):
    # exit 0, 1 or 2 for any input, and never an exception (a traceback
    # when run as a program).  A mutated --out (--out 0, say) names a
    # writable file, so each example runs in a directory of its own and
    # leaves none in the one the test started in
    start = os.getcwd()
    before = set(os.listdir(start))
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            code, out, err = run_cli(*argv)
        finally:
            os.chdir(start)
    assert set(os.listdir(start)) == before
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    d = _given_int(argv, "--d")
    if d is not None and d < 1:
        assert code == 2  # no command takes d < 1
    if argv[0] == "constraint" and d is not None and d < 5:
        assert code == 2  # nor the constraint d < 5
    dmax = _given_int(argv, "--dmax")
    if argv[0] == "verify" and d is not None and dmax is not None and dmax < d:
        assert code == 2  # an empty range of d is a usage error, as in sweep
    args = _parsed(argv)
    if args is not None and args.command == "emit" and _half_pair(args):
        # emit reads --chi2 only for verdicts, and there only with --chi
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    if UNWRITABLE in argv:
        # an output that cannot be written is a usage error, whatever
        # the command computed, and is reported in one line
        assert code == 2 and out == ""
        if "cannot write" in err:
            assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_usage_error():
    code, _, err = run_cli("sweep", "--dmin", "4", "--dmax", "3")
    assert code == 2


def test_sweep_fault_injection_reports_mismatch(monkeypatch):
    from tautrel.obstruction import Verdict, congruent

    def faulty(d, c1, c2):
        # wrong for every congruent pair
        return Verdict(d, c1, c2, "ObstructionFound", congruent(d, c1, c2))

    monkeypatch.setattr(cli, "decide", faulty)
    code, out, _ = run_cli(
        "sweep", "--dmin", "5", "--dmax", "5", "--jobs", "1", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert any(not r["agrees"] for r in payload["results"])
    agreement = [c for c in payload["checks"] if c["name"] == "agreement"]
    assert len(agreement) == 1 and agreement[0]["status"] == "fail"


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "tautrel.cli", "decide", "--d", "5",
         "--chi1", "1", "--chi2", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0
    assert "NoObstruction" in proc.stdout


def test_python_dash_m_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "tautrel", "verify", "--d", "5", "--chi", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


def test_cli_import_loads_no_multiprocessing():
    # only a parallel sweep starts processes, so only it loads
    # multiprocessing: every other command, and every import, goes without
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tautrel.cli; "
                               "print(sorted(m for m in sys.modules if 'multiprocessing' in m))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# cheap commands, one of each kind: no byte they print may hang on the
# iteration order of a set or of a dict built from hashed keys
HASH_SEED_COMMANDS = (
    "decide --d 7 --chi1 1 --chi2 2 --format json",
    "verify --d 7 --chi 1 --chi2 2 --format json",
    "constraint --d 7 --format json",
    "emit --what relations --d 5 --chi 1",
)


@pytest.mark.parametrize("argv", HASH_SEED_COMMANDS)
def test_output_does_not_depend_on_the_hash_seed(argv):
    # the bytes each command prints in process, and in a fresh process
    # under PYTHONHASHSEED 0 and 12345, one process at a time
    code, out, _ = run_cli(*argv.split())
    want = hashlib.sha256(out.encode()).hexdigest()
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8")
        proc = subprocess.run([sys.executable, "-m", "tautrel", *argv.split()],
                              capture_output=True, timeout=120, env=env)
        assert proc.returncode == code, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == want, (argv, seed)
