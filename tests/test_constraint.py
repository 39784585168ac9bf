import pytest

import constraint_oracle
from tautrel import constraint
from tautrel.constraint import _branch_pair_compatibility, _coordinates, constraint_analysis
from tautrel.mpoly import MPoly
from tautrel.rat import QQ


def _at_chi2(d: int, b: int) -> tuple:
    """The canonical numerators of the generic coordinates at chi2 = b."""
    return tuple(c.eval({"chi2": b}).num.over(QQ) for c in _coordinates(d))


def test_slice_structure_d5():
    num1, num2 = _at_chi2(5, 2)
    assert num1.degree_in("chi1") == 6
    assert num2.degree_in("chi1") == 4


@pytest.mark.parametrize("d", range(5, 13))
def test_generic_coordinates_match_the_slice_oracle(d):
    # the elimination over Q(chi1, chi2) against the slices over Q(chi1):
    # the same P1, and at every valid b the slice's numerators
    P1, P1_alt = constraint_oracle.slice_P1(d)
    assert constraint_analysis(d).P1 == P1 == P1_alt
    for b in range(1, d):
        if 2 * b == d:
            continue
        s = constraint_oracle.constraint_slice(d, b)
        assert _at_chi2(d, b) == (s.num1, s.num2)


def test_symbolic_report_d5():
    rep = constraint_analysis(5)
    assert rep.P1 == MPoly(
        ("chi1",),
        {(4,): 1705, (3,): -17050, (2,): 55772, (1,): -65735, (0,): 16200},
    )
    assert rep.ok()
    assert all(rep.P1_checks.values())
    assert rep.P1_checks["both_coordinates_agree"]


def _raise_on(divisor):
    real = MPoly.exact_div

    def exact_div(self, other):
        if other == divisor:
            raise RuntimeError("fault in exact_div")
        return real(self, other)

    return exact_div


def test_exact_div_faults_propagate(monkeypatch):
    # with the coordinates cached, the slice-shape check is the first to
    # divide by P1, and the cross-check the first to divide by chi (5 - chi)
    P1 = constraint_analysis(5).P1
    x = MPoly.variable("chi1")
    for divisor in (P1, x * (5 - x)):
        with monkeypatch.context() as m:
            m.delitem(constraint._REPORT_CACHE, 5)
            m.setattr(MPoly, "exact_div", _raise_on(divisor))
            with pytest.raises(RuntimeError):
                constraint_analysis(5)


def test_P1_range():
    for d in (5, 6, 7):
        rep = constraint_analysis(d)
        P1 = rep.P1
        x = MPoly.variable("chi1")
        dd = MPoly.constant(d, ("chi1",))
        assert P1.degree_in("chi1") == 4
        assert P1.eval({"chi1": dd - x}) == P1
        assert P1.eval({"chi1": 0}) > 0
        assert P1.eval({"chi1": 1}) < 0


def test_concrete_pair_reports():
    # (chi1, chi2) = (1, 2): the chi'=2 slice pair does not vanish at
    # chi1 = 1, and the one Type II branch is unsolvable
    assert tuple(num.eval({"chi1": 1}) for num in _at_chi2(5, 2)) != (0, 0)
    (branch,) = _branch_pair_compatibility(5, 1, 2)
    assert branch["uv_solvable"] is False
    assert branch["necessity_holds"] is True

    rows = _branch_pair_compatibility(5, 1, 4)
    rational = next(r for r in rows if r["branch"].startswith("t +"))
    assert rational["uv_solvable"] and rational["pair_compatible"]
    assert rational["resultant_vanishes"]


def test_congruent_pair_agreement_rows():
    rep = constraint_analysis(5)
    assert len(rep.pair_agreement) == 6  # 4 diagonal + 2 antidiagonal
    assert all(r["agrees"] for r in rep.pair_agreement)


def test_analysis_evaluates_the_blocks_once_per_d(monkeypatch):
    """constraint_analysis evaluates symbolic_matrices_at(d, None) once,
    for its one elimination over Q(chi1, chi2), with the same result.
    The necessity rows evaluate the blocks at each concrete chi as well;
    only the calls over QQ(chi1) are counted."""
    want = constraint_analysis(5)
    calls = []
    real = constraint.symbolic_matrices_at

    def counted(d, chi):
        calls.append((d, chi))
        return real(d, chi)

    monkeypatch.setattr(constraint, "symbolic_matrices_at", counted)
    monkeypatch.setattr(constraint, "_SLICE_CACHE", {})
    monkeypatch.setattr(constraint, "_REPORT_CACHE", {})
    got = constraint_analysis(5)
    assert calls.count((5, None)) == 1
    assert got.P1 == want.P1 and got.ok()
    assert (got.P1_checks, got.structure_checks) == (want.P1_checks, want.structure_checks)
    assert list(constraint._SLICE_CACHE) == [5]
