import os
import subprocess
import sys

import pytest

import constraint_oracle
from mpoly_oracle import MPoly, mpoly
from tautrel import constraint
from tautrel.constraint import (
    BI_FIELD,
    CHI1_FIELD,
    _branch_pair_compatibility,
    _coordinates,
    c1_formula,
    c2_formula,
    constraint_analysis,
)
from tautrel.obstruction import decide, side_at
from tautrel.rat import QQ, Rat, rational_cube_root
from tautrel.ratfunc import RatFunc

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _at_chi2(d: int, b: int) -> tuple:
    """The canonical numerators of the per-d coordinates at chi2 = b."""
    return tuple(mpoly(c.eval({"chi2": b}).num).over(QQ)
                 for c in constraint_oracle.coordinates(d))


def test_closed_forms_are_the_generic_type_II_coordinates():
    # the proof of the closed forms: one Type II run over Q(d, chi1, chi2)
    # finds one candidate with an (A, B) solution (type_II_coordinates
    # raises otherwise), a zero coordinate along 1, c2 free of chi2, and
    # c1 and c2 equal to the closed forms at the generator d
    c0, c1, c2 = constraint_oracle.generic_coordinates()
    assert c0.is_zero()
    assert c2.num.degree_in("chi2") == c2.den.degree_in("chi2") == 0
    D = constraint_oracle.GEN_FIELD.gen("d")
    assert c1 == c1_formula(D) and c2 == c2_formula(D)
    assert c1.vars == c2.vars == constraint_oracle.GEN_FIELD.vars


@pytest.mark.parametrize("d", range(5, 17))
def test_closed_forms_match_the_per_d_oracle(d):
    # the per-d elimination over Q(chi1, chi2), which the closed forms replaced
    c1, c2 = _coordinates(d)
    assert (c1, c2) == constraint_oracle.coordinates(d)
    assert c1.vars == c2.vars == BI_FIELD.vars
    # the generic coordinates evaluated at d
    _, g1, g2 = constraint_oracle.generic_coordinates()
    assert (g1.eval({"d": d}), g2.eval({"d": d})) == (c1, c2)


def test_slice_structure_d5():
    num1, num2 = _at_chi2(5, 2)
    assert num1.degree_in("chi1") == 6
    assert num2.degree_in("chi1") == 4


@pytest.mark.parametrize("d", range(5, 13))
def test_generic_coordinates_match_the_slice_oracle(d):
    # the per-d elimination over Q(chi1, chi2) against the slices over Q(chi1):
    # the same P1, and at every valid b the slice's numerators
    P1, P1_alt = constraint_oracle.slice_P1(d)
    got = constraint_analysis(d).P1
    assert got.vars == ("chi1",) and mpoly(got) == P1 == P1_alt
    for b in range(1, d):
        if 2 * b == d:
            continue
        s = constraint_oracle.constraint_slice(d, b)
        assert _at_chi2(d, b) == (s.num1, s.num2)


def test_symbolic_report_d5():
    rep = constraint_analysis(5)
    assert mpoly(rep.P1) == MPoly(
        ("chi1",),
        {(4,): 1705, (3,): -17050, (2,): 55772, (1,): -65735, (0,): 16200},
    )
    assert str(rep.P1) == "1705*chi1^4 - 17050*chi1^3 + 55772*chi1^2 - 65735*chi1 + 16200"
    assert rep.ok()
    assert all(rep.P1_checks.values())
    assert rep.P1_checks["both_coordinates_agree"]


def _raise_on(divisor):
    real = RatFunc.__truediv__

    def truediv(self, other):
        if other == divisor:
            raise RuntimeError("fault in division")
        return real(self, other)

    return truediv


def test_exact_div_faults_propagate(monkeypatch):
    # the slice-shape check divides by P1, and the cross-check divides the
    # t coordinate's chi2-content by chi (5 - chi): a fault in either
    # division reaches the caller
    P1 = constraint_analysis(5).P1
    x = CHI1_FIELD.gen("chi1")
    for divisor in (P1, x * (5 - x)):
        with monkeypatch.context() as m:
            m.delitem(constraint._REPORT_CACHE, 5)
            m.setattr(RatFunc, "__truediv__", _raise_on(divisor))
            with pytest.raises(RuntimeError):
                constraint_analysis(5)


def test_P1_range():
    for d in (5, 6, 7):
        rep = constraint_analysis(d)
        P1 = mpoly(rep.P1)
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


def test_analysis_runs_no_symbolic_elimination():
    """constraint_analysis evaluates the closed forms: in a fresh process it
    leaves symbolic_MN unbuilt, with the same report as a warm one."""
    want = constraint_analysis(5)
    code = ("from tautrel import constraint, symbolic\n"
            "rep = constraint.constraint_analysis(5)\n"
            "assert rep.ok()\n"
            "print(symbolic.symbolic_MN.cache_info().currsize)\n"
            "print(str(rep.P1)); print(sorted(rep.P1_checks.items()))\n"
            "print(sorted(rep.structure_checks.items())); print(rep.pair_agreement)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    assert out == ["0", str(want.P1), str(sorted(want.P1_checks.items())),
                   str(sorted(want.structure_checks.items())), str(want.pair_agreement)]


def _X(d: int, c: int) -> int:
    return c * (d - c) * (d - 2 * c)


def test_split_pairs_d7():
    # at d = 7, t^3 - r splits for four non-congruent pairs, r = X(a)/X(b)
    d = 7
    split = [(a, b) for a in range(1, d) for b in range(a + 1, d)
             if a + b != d and rational_cube_root(Rat(_X(d, a), _X(d, b))) is not None]
    assert split == [(1, 2), (1, 5), (2, 6), (5, 6)]
    c1, c2 = _coordinates(d)
    for a, b in split:
        c = rational_cube_root(Rat(_X(d, a), _X(d, b)))
        rows = _branch_pair_compatibility(d, a, b)
        assert len(rows) == 2  # the linear and the quadratic factor
        assert all(row["uv_solvable"] is False and row["necessity_holds"] is True
                   for row in rows)
        assert decide(d, a, b).verdict == "ObstructionFound"
        # on the linear factor the resultant c (c1 + c c2) does not vanish,
        # and neither does P: the condition (X/X')^2 (d^2 - 6u')^3 =
        # (d^2 - 6u)^3 fails
        v1, v2 = (x.eval({"chi1": a, "chi2": b}) for x in (c1, c2))
        assert v1 + c * v2 != 0 and v2 != 0
        u, u_p = a * (d - a), b * (d - b)
        assert Rat(_X(d, a), _X(d, b)) ** 2 * (d * d - 6 * u_p) ** 3 != (d * d - 6 * u) ** 3
    # the slices b = 1, 2 of rejects_noncongruent_pairs meet the pair (1, 2)
    assert constraint_analysis(d).structure_checks["rejects_noncongruent_pairs"]


def test_rejection_reads_the_linear_factor(monkeypatch):
    # c1 moved so that c1 + c c2 = 0 at the split pair (7, 1, 2), c = 1:
    # there the held-back pair is compatible on the linear factor though
    # (c1, c2) != (0, 0), and the rejection check turns False
    d, at = 7, {"chi1": 1, "chi2": 2}
    c1, c2 = _coordinates(d)
    c = rational_cube_root(Rat(_X(d, 1), _X(d, 2)))
    moved = c1 - (c1.eval(at) + c * c2.eval(at))
    assert moved.eval(at) == -c * c2.eval(at) != 0
    monkeypatch.setattr(constraint, "_REPORT_CACHE", {})
    monkeypatch.setattr(constraint, "_coordinates", lambda d: (moved, c2))
    assert constraint_analysis(d).structure_checks["rejects_noncongruent_pairs"] is False


def test_analysis_fills_the_side_cache_for_decide(monkeypatch):
    # the congruent pairs at d = 5 read side_at: four sides made, read
    # again once each at (1, 1)..(4, 4) and twice each at (1, 4), (2, 3);
    # decide then reads both its sides as hits
    monkeypatch.setattr(constraint, "_REPORT_CACHE", {})
    side_at.cache_clear()
    try:
        constraint_analysis(5)
        info = side_at.cache_info()
        assert (info.misses, info.hits, info.currsize) == (4, 8, 4)
        assert decide(5, 1, 4).agrees
        info = side_at.cache_info()
        assert (info.misses, info.hits, info.currsize) == (4, 10, 4)
    finally:
        side_at.cache_clear()


def test_a_changed_report_cannot_change_a_later_one():
    # constraint_analysis caches its report and hands out a copy: a caller
    # that marks a check False, drops a pair or rebinds P1 changes only
    # its own copy
    want = constraint_analysis(5)
    assert want.ok()
    got = constraint_analysis(5)
    got.P1_checks[next(iter(got.P1_checks))] = False
    got.structure_checks[next(iter(got.structure_checks))] = False
    got.pair_agreement[0]["agrees"] = False
    got.pair_agreement[0]["branches"].clear()
    got.pair_agreement.pop()
    got.P1 = CHI1_FIELD.zero
    assert not got.ok()
    again = constraint_analysis(5)
    assert again is not got and again.ok()
    assert again == want
    # the checks stay plain dicts, which the JSON of a report reads
    assert type(again.P1_checks) is dict and type(again.structure_checks) is dict
