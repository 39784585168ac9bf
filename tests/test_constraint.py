import pytest

from tautrel import constraint
from tautrel.constraint import (
    EliminationFailure,
    _branch_pair_compatibility,
    _chi1_junk_factors,
    _strip_factors,
    constraint_analysis,
    constraint_slice,
)
from tautrel.mpoly import MPoly
from tautrel.rat import Rat


def test_slice_rejects_degenerate_b():
    with pytest.raises(ValueError):
        constraint_slice(6, 3)
    with pytest.raises(ValueError):
        constraint_slice(5, 0)


def test_slice_structure_d5():
    s = constraint_slice(5, 2)
    assert s.num1.degree_in("chi1") == 6
    assert s.num2.degree_in("chi1") == 4


def test_symbolic_report_d5():
    rep = constraint_analysis(5)
    assert rep.P1 == MPoly(
        ("chi1",),
        {(4,): 1705, (3,): -17050, (2,): 55772, (1,): -65735, (0,): 16200},
    )
    assert rep.ok()
    assert all(rep.P1_checks.values())
    assert rep.P1_checks["both_coordinates_agree"]


def _raise_on(divisor=None):
    real = MPoly.exact_div

    def exact_div(self, other):
        if divisor is None or other == divisor:
            raise RuntimeError("fault in exact_div")
        return real(self, other)

    return exact_div


def test_exact_div_faults_propagate(monkeypatch):
    x = MPoly.variable("chi1")
    with monkeypatch.context() as m:
        m.setattr(MPoly, "exact_div", _raise_on())
        with pytest.raises(RuntimeError):
            _strip_factors(x**2 * (5 - x), _chi1_junk_factors(5))
    # with the slices cached, the slice-shape check is the first to divide by P1
    P1 = constraint_analysis(5).P1
    monkeypatch.delitem(constraint._REPORT_CACHE, 5)
    monkeypatch.setattr(MPoly, "exact_div", _raise_on(P1))
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
    s = constraint_slice(5, 2)
    assert (s.num1.eval({"chi1": 1}), s.num2.eval({"chi1": 1})) != (0, 0)
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
    """constraint_analysis evaluates symbolic_matrices_at(d, None) once and
    hands the blocks to each of its three slices, with the same result.
    The necessity rows evaluate the blocks at each concrete chi as well;
    only the calls over QQ(chi1) are counted."""
    want, want_slice = constraint_analysis(5), constraint_slice(5, 2)
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
    assert sorted(constraint._SLICE_CACHE) == [(5, 1), (5, 2), (5, 3)]
    # a slice asked for on its own still evaluates the blocks itself
    constraint._SLICE_CACHE.clear()
    assert constraint_slice(5, 2) == want_slice
    assert calls.count((5, None)) == 2
