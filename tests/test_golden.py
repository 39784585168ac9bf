import hashlib
import json
import os

import pytest

from tautrel.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def emit_to(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "fixture,argv",
    [
        ("relations_d5_chi1.json",
         ["emit", "--what", "relations", "--d", "5", "--chi", "1"]),
        ("matrices_d5_chi1.json",
         ["emit", "--what", "matrices", "--d", "5", "--chi", "1"]),
        ("matrices_d7_chi2.json",
         ["emit", "--what", "matrices", "--d", "7", "--chi", "2"]),
    ],
)
def test_emit_matches_golden(tmp_path, fixture, argv):
    golden = os.path.join(FIXTURES, fixture)
    assert os.path.exists(golden), f"missing fixture {golden}"
    fresh = emit_to(tmp_path, *argv)
    with open(golden, "rb") as fh:
        assert fresh == fh.read()


def test_decide_golden_structure():
    golden = os.path.join(FIXTURES, "decide_d5_1_2.json")
    with open(golden) as fh:
        payload = json.load(fh)
    v = payload["results"][0]
    assert v["verdict"] == "ObstructionFound"
    assert v["agrees"] is True
    assert any(c["stage"] == "AB" for c in v["certificates"])
    assert any(c["stage"] == "UV" for c in v["certificates"])


# sha256 of `emit --what relations` at one coprime chi per d = 9..16,
# recorded before the one-pass expansion and the leading-column elimination
RELATION_DIGESTS = os.path.join(FIXTURES, "relations_d9_16.sha256.json")


def test_emit_relations_matches_recorded_digests(tmp_path, monkeypatch):
    from tautrel import relations

    monkeypatch.setattr(relations, "_REL_CACHE", {})  # every set built cold
    with open(RELATION_DIGESTS) as fh:
        digests = json.load(fh)
    assert sorted(int(key.split()[0]) for key in digests) == list(range(9, 17))
    for key, want in digests.items():
        d, chi = key.split()
        fresh = emit_to(tmp_path, "emit", "--what", "relations", "--d", d, "--chi", chi)
        assert hashlib.sha256(fresh).hexdigest() == want, key


# sha256 of `constraint --d D --format json` for d = 5..16, recorded while
# P1 and its checks were still computed on sparse polynomials
CONSTRAINT_DIGESTS = os.path.join(FIXTURES, "constraint_d5_16.sha256.json")


def test_constraint_matches_recorded_digests(tmp_path):
    with open(CONSTRAINT_DIGESTS) as fh:
        digests = json.load(fh)
    assert sorted(map(int, digests)) == list(range(5, 17))
    for d, want in digests.items():
        fresh = emit_to(tmp_path, "constraint", "--d", d, "--format", "json")
        assert hashlib.sha256(fresh).hexdigest() == want, d
