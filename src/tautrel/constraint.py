"""Compatibility constraint for the extended system at concrete d,
symbolic in chi and chi'.

For a Type II candidate, the extended system's first column is
normalized by (A^-1)^T so the unknown-side coefficient block consists of
the chi-side matrices M_i, N_i only.  Five designated equations express
u11, u21, u31, v11, v21 in terms of v31; the held-back pair reads
AA*v31 + BB = 0 and CC*v31 + DD = 0, and eliminating v31 leaves the
resultant AA*DD - BB*CC.  Its coordinate along 1 vanishes, and its
coordinates c1, c2 along t and t^2 vanish together where the held-back
pair is compatible.

The elimination runs once per d, over Q(chi1, chi2): the chi side is the
Q(chi1) blocks of symbolic_matrices_at(d, None), the chi' side the same
blocks with chi1 renamed to chi2.  The quartic P1 is the primitive part
of the numerator of c2, which is free of chi2; the chi2-content of the
numerator of c1 is chi (d - chi) P1, which cross-checks it.

Specialization.  The chi'-slice at chi' = b is the same pipeline run
over Q(chi1) with the chi' blocks evaluated at b.  Every quantity of the
generic run is a rational function of chi2 over Q(chi1), and evaluation
at chi2 = b is a ring map on those defined at b, so the generic
coordinates at b are the slice's wherever the generic run divides by
nothing that vanishes at b.  Two things must stay nondegenerate there.
The (A, B) kernel system: when its kernel at b is still a line with
a11 != 0, the normalized solution (a11 = s22, det A = 1) is unique, so
the slice's A is the generic A at b, whichever pivots either run chose.
The five designated pivots: when the 5x5 block of the designated
equations stays invertible at b, both runs eliminate the five unknowns
with the same solution.  The slice path checks both and raises
otherwise; the tests run it as the oracle (tests/constraint_oracle.py)
and compare its numerators with the generic coordinates at every valid
b for d = 5..12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import reduce

from .linalg import ExactMatrix
from .mpoly import ExactDivisionError, MPoly
from .obstruction import CandidateS, coprime_chis, solve_AB, solve_S, solve_UV
from .rat import QQ, Rat
from .ratfunc import FracField, RatFunc, mpoly_gcd
from .symbolic import symbolic_matrices_at


class EliminationFailure(ArithmeticError):
    pass


def _column0_elimination(cand: CandidateS, A: ExactMatrix):
    """Residuals of the two held-back equations of the candidate's
    M_i U + N_i V = (A^-1)^T Q_i after expressing (u0, u1, u2, v0, v1)
    in terms of v2 := the bottom entry of V's first column.  Returns
    ((AA, BB), (CC, DD))."""
    E, Ms, Ns = cand.field, cand.M, cand.N
    A_inv_t = A.inverse().transpose()
    w = [A_inv_t * q for q in cand.Q]

    def equation(i, r):
        coeffs = [Ms[i][r, 0], Ms[i][r, 1], Ms[i][r, 2], Ns[i][r, 0], Ns[i][r, 1]]
        return coeffs, Ns[i][r, 2], -w[i][r, 0]

    # designated pivot equations: the first two rows of the i=2 block
    # and the full i=3 block eliminate the five unknowns, leaving four
    # equations, of which the first two rows of the i=1 block are the
    # residual pair.  (This split makes the chi-only content of the two
    # residual-resultant coordinates agree; the other two are not used.)
    pivot_eqs = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    held_back = [(0, 0), (0, 1)]
    rows = []
    for i, r in pivot_eqs:
        coeffs, cv, const = equation(i, r)
        rows.append(coeffs + [cv, const])
    pivots, _ = ExactMatrix(E, rows).gauss_jordan(pivot_cols=range(5))
    if sorted(col for col, _ in pivots) != [0, 1, 2, 3, 4]:
        raise EliminationFailure(
            f"designated pivot equations degenerate: pivots {[c for c, _ in pivots]}"
        )
    solution = {col: (prow[5], prow[6]) for col, prow in pivots}

    def residual_of(i, r):
        coeffs, cv, const = equation(i, r)
        lin = cv
        cst = const
        for col in range(5):
            pv, pc = solution[col]
            lin = lin - coeffs[col] * pv
            cst = cst - coeffs[col] * pc
        return lin, cst

    return [residual_of(i, r) for i, r in held_back]


# -- the elimination over Q(chi1, chi2) -------------------------------------------

BI_FIELD = FracField(("chi1", "chi2"))

# d -> the t and t^2 coordinates of the compatibility resultant over Q(chi1, chi2)
_SLICE_CACHE: dict = {}


def _lifted(mats: list, rename: bool) -> list:
    """The Q(chi1) blocks over Q(chi1, chi2), with chi1 renamed to chi2 when
    rename is set.  chi2 is the outer variable of the dense pairs, so each
    canonical pair is re-levelled as it is and stays canonical."""
    up = (lambda p: [[c] if c else [] for c in p]) if rename else (lambda p: [p] if p else [])
    return [ExactMatrix(BI_FIELD, [[RatFunc._raw(BI_FIELD.vars, up(x._num), up(x._den))
                                    for x in row] for row in m.data]) for m in mats]


def _coordinates(d: int) -> tuple:
    """(c1, c2): the t and t^2 coordinates of AA*DD - BB*CC over
    Q(chi1, chi2), whose coordinate along 1 vanishes; c2 is free of chi2."""
    if d in _SLICE_CACHE:
        return _SLICE_CACHE[d]
    blocks = symbolic_matrices_at(d, None)
    side = tuple(_lifted(mats, False) for mats in blocks)
    side_p = tuple(_lifted(mats, True) for mats in blocks)
    cands = solve_S("II", side, side_p)
    if len(cands) != 1:
        raise EliminationFailure(f"{len(cands)} Type II candidates over Q(chi1, chi2)")
    cand = cands[0]
    ab = solve_AB(cand)
    if ab.status != "solution":
        raise EliminationFailure(f"(A, B) system gives {ab.status} over Q(chi1, chi2)")
    (AA, BB), (CC, DD) = _column0_elimination(cand, ab.A)
    c0, c1, c2 = (AA * DD - BB * CC).coeffs
    if not c0.is_zero():
        raise EliminationFailure("constraint has a nonzero rational coordinate")
    if c2.is_zero() or c2.num.degree_in("chi2") > 0 or c2.den.degree_in("chi2") > 0:
        raise EliminationFailure("the t^2 coordinate of the constraint is zero or depends on chi2")
    _SLICE_CACHE[d] = c1, c2
    return c1, c2


@dataclass
class ConstraintReport:
    d: int
    P1: MPoly = None
    P1_checks: dict = dc_field(default_factory=dict)
    structure_checks: dict = dc_field(default_factory=dict)
    pair_agreement: list = dc_field(default_factory=list)

    def ok(self) -> bool:
        return (
            all(self.P1_checks.values())
            and all(self.structure_checks.values())
            and all(row["agrees"] for row in self.pair_agreement)
        )


_REPORT_CACHE: dict = {}


def _primitive(poly: MPoly) -> MPoly:
    """The primitive part of a polynomial in chi1, positive at 0."""
    P = poly.with_vars(("chi1",)).over(QQ).rational_content()[1]
    return -P if P.eval({"chi1": 0}) < 0 else P


def _branch_pair_compatibility(d: int, a: int, b: int) -> list:
    """For each Type II candidate at the concrete pair: is the held-back
    residual pair compatible, and is the full extended system solvable?
    Solvability must imply compatibility (the pair is a necessary
    condition)."""
    rows = []
    for cand in solve_S("II", symbolic_matrices_at(d, a), symbolic_matrices_at(d, b)):
        ab = solve_AB(cand)
        if ab.status != "solution":
            rows.append({"branch": cand.root_label, "ab": ab.status})
            continue
        (AA, BB), (CC, DD) = _column0_elimination(cand, ab.A)
        resultant = AA * DD - BB * CC
        # compatibility of the 2x1 affine pair in v31
        if AA.is_zero() and CC.is_zero():
            compatible = BB.is_zero() and DD.is_zero()
        elif not AA.is_zero():
            v = -BB / AA
            compatible = (CC * v + DD).is_zero()
        else:
            v = -DD / CC
            compatible = (AA * v + BB).is_zero()
        solvable = solve_UV(cand, ab.A).status == "solvable"
        rows.append(
            {
                "branch": cand.root_label,
                "resultant_vanishes": resultant.is_zero(),
                "pair_compatible": compatible,
                "uv_solvable": solvable,
                "necessity_holds": (not solvable) or compatible,
            }
        )
    return rows


def constraint_analysis(d: int) -> ConstraintReport:
    """The constraint analysis at d, symbolic in chi: recovers the
    quartic P1, verifies the structure of the slice constraints and,
    at each congruent pair, the per-branch necessity of the held-back
    pair."""
    if d in _REPORT_CACHE:
        return _REPORT_CACHE[d]

    coord_t, coord_t2 = _coordinates(d)
    report = ConstraintReport(d=d)
    x = MPoly.variable("chi1")
    dd = MPoly.constant(d, ("chi1",))

    # P1 from the t^2 coordinate, cross-validated against the chi2-content
    # of the t one, which carries the factor chi (d - chi) as well
    P1 = _primitive(coord_t2.num)
    content = reduce(mpoly_gcd, coord_t.num.over(QQ).as_univariate("chi2").values(),
                     MPoly.constant(0, ("chi1",)))
    try:
        P1_alt = _primitive(content.exact_div(x * (dd - x)))
    except ExactDivisionError:
        P1_alt = None
    report.P1 = P1
    report.P1_checks = {
        "degree_4": P1.degree_in("chi1") == 4,
        "symmetric": P1.eval({"chi1": dd - x}) == P1,
        "positive_at_0": P1.eval({"chi1": 0}) > 0,
        "negative_at_1": P1.eval({"chi1": 1}) < 0,
        "both_coordinates_agree": P1 == P1_alt,
    }

    # the chi'-slices at the first three valid b: the canonical numerators
    # of the coordinates at chi2 = b (see the module docstring)
    valid_bs = [b for b in range(1, d) if 2 * b != d]
    slices = [(b, *(c.eval({"chi2": b}).num.over(QQ) for c in (coord_t, coord_t2)))
              for b in valid_bs[:3]]

    # slice structure: num2 = c_b * P1 and num1 = c_b' * chi (d - chi) P1
    structure_ok = True
    constants_nonzero = True
    for b, num1, num2 in slices:
        try:
            c2 = num2.exact_div(P1)
            c1 = num1.exact_div(P1 * x * (dd - x))
        except ExactDivisionError:
            structure_ok = False
            continue
        if not (c2.is_constant() and c1.is_constant()):
            structure_ok = False
            continue
        if c1.constant_value() == 0 or c2.constant_value() == 0:
            constants_nonzero = False

    # rejection of non-congruent pairs: the slice constraint pair is
    # nonzero at every valid non-congruent integer pair
    chis = coprime_chis(d)
    reject_ok = True
    for b, num1, num2 in slices:
        if math.gcd(b, d) != 1:
            continue
        for a in chis:
            if a == b or a + b == d:
                continue
            if num1.eval({"chi1": Rat(a)}) == 0 and num2.eval(
                {"chi1": Rat(a)}
            ) == 0:
                reject_ok = False
    report.structure_checks = {
        "slice_shape_P1_times_constant": structure_ok,
        "slice_constants_nonzero": constants_nonzero,
        "rejects_noncongruent_pairs": reject_ok,
    }

    # per-branch necessity at the congruent pairs (where witnesses exist)
    congruent_pairs = [(a, a) for a in chis] + [
        (a, d - a) for a in chis if a < d - a
    ]
    for (a, b) in congruent_pairs:
        rows = _branch_pair_compatibility(d, a, b)
        ok = all(r.get("necessity_holds", True) for r in rows)
        report.pair_agreement.append(
            {"chi1": a, "chi2": b, "branches": rows, "agrees": ok}
        )
    _REPORT_CACHE[d] = report
    return report
