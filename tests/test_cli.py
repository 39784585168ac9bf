import json
import os
import subprocess
import sys

import pytest

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


def assert_usage_error(*argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rejects_non_integer_chi():
    assert_usage_error("verify", "--d", "5", "--chi", "abc")


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

    monkeypatch.setattr(obstruction, "analyze_node", not_nodal)
    code, out, _ = run_cli("verify", "--d", "5", "--chi", "1")
    assert code == 1
    assert "zero cubic" in out

    def broken(cubic, field):
        raise RuntimeError("fault in analyze_node")

    monkeypatch.setattr(obstruction, "analyze_node", broken)
    with pytest.raises(RuntimeError, match="fault in analyze_node"):
        run_cli("verify", "--d", "5", "--chi", "1")


def test_verify_symbolic_mode():
    code, out, _ = run_cli("verify", "--d", "5", "--chi", "1", "--mode", "symbolic")
    assert code == 0
    assert "symbolic_reference_matrices" in out


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


def test_sweep_usage_error():
    code, _, err = run_cli("sweep", "--dmin", "4", "--dmax", "3")
    assert code == 2


def test_sweep_fault_injection_reports_mismatch():
    from tautrel.obstruction import Verdict, sweep_rows

    def faulty(d, c1, c2):
        from tautrel.obstruction import congruent

        return Verdict(d, c1, c2, "ObstructionFound", congruent(d, c1, c2))

    rows = sweep_rows(5, 5, fault_hook=faulty)
    assert any(not r["agrees"] for r in rows)


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
