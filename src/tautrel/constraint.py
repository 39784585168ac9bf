"""Compatibility constraint for the extended system, symbolic in chi and
chi'.

For a Type II candidate, the extended system's first column is
normalized by (A^-1)^T so the unknown-side coefficient block consists of
the chi-side matrices M_i, N_i only.  Five designated equations express
u11, u21, u31, v11, v21 in terms of v31; the held-back pair reads
AA*v31 + BB = 0 and CC*v31 + DD = 0, and eliminating v31 leaves the
resultant AA*DD - BB*CC.  Its coordinate along 1 vanishes, and its
coordinates c1, c2 along t and t^2 vanish together where the held-back
pair is compatible.

The coordinates in closed form.  Write u = chi1 (d - chi1),
u' = chi2 (d - chi2), k = 2d^2 - 9d + 12 and

    P = 4 Q(d) u^2 - B(d) u + 6 d^2 (d-2)(d-1)^2 (5d-16),
    Q(d) = 11d^4 - 47d^3 + 3d^2 + 150d - 120,
    B(d) = 11d^6 - 50d^5 + 153d^4 - 822d^3 + 2184d^2 - 2256d + 768.

Then the coordinate along 1 is 0 and

    c2 = -k P / (128 d^4 (d-2)^3 (d - 2 chi1)),
    c1 = k P u (d^2 - 6u') / (128 d^4 (d-2)^3 chi2 (d - chi2)(d - 2 chi2)(d^2 - 6u)).

These are identities in Q(d, chi1, chi2).  The tests run the Type II
elimination once over that field: solve_S, solve_AB and the column-0
elimination below, from the blocks of symbolic_MN, the chi' side with
chi1 renamed to chi2.  The run finds one candidate, an (A, B) solution
and a zero coordinate along 1, and its c1 and c2 equal P_formula,
c1_formula and c2_formula at the generator d by ==.  Every quantity of
that run is a rational function of (d, chi1, chi2), and evaluation at a
point is a ring map on those defined there.  So the identities hold at
every d >= 5 where none of the generic run's divisors vanishes: the
pivots of its eliminations and the elements it inverts.  The per-d
elimination over Q(chi1, chi2), of the blocks of symbolic_MN evaluated
at d, is a second oracle (tests/constraint_oracle.py).  It gives the
same coordinates by == at d = 5..16.  constraint_analysis(d) evaluates
the closed forms at d.

The quartic P1 is the primitive part of the numerator of c2, which is
free of chi2: P at d, up to its content.  The chi2-content of the
numerator of c1 is chi (d - chi) P1, which cross-checks it.  P1 and
every check on it are polynomial RatFuncs in chi1, like all polynomials
of the package: its symmetry about d/2 is checked at deg P1 + 1 points,
which is exact, as P1(chi) - P1(d - chi) has degree at most deg P1.

Non-congruent pairs.  At a concrete pair the candidate lives over a
factor of t^3 - r, with r = X(chi)/X(chi') and X(c) = c (d-c)(d-2c),
and the resultant there is c1 t + c2 t^2.
- t^3 - r irreducible over Q: {1, t, t^2} is a basis, so the held-back
  pair is compatible only if c1 = c2 = 0, that is only if P = 0.
- t^3 - r split, r = c^3 for a rational c: on the quadratic factor the
  resultant is (c1 - c c2) t - c^2 c2, which vanishes only if
  c1 = c2 = 0, as above.  On the linear factor t - c it is
  c (c1 + c c2).  By the closed forms c1/c2 = -(X/X')(d^2 - 6u')/(d^2 - 6u),
  so it vanishes only if P = 0 or (X/X')^2 (d^2 - 6u')^3 = (d^2 - 6u)^3.
The split case occurs, first at d = 7 with the pairs (1, 2), (1, 5),
(2, 6) and (5, 6); there the linear-factor condition fails, decide
finds the obstruction (tests/test_constraint.py, at (7, 1, 2)), and
constraint_analysis checks both conditions at the pairs of its slices.

Specialization.  The chi'-slice at chi' = b is the same pipeline run
over Q(chi1) with the chi' blocks evaluated at b.  Every quantity of the
per-d run is a rational function of chi2 over Q(chi1), and evaluation
at chi2 = b is a ring map on those defined at b, so the coordinates at b
are the slice's wherever the per-d run divides by nothing that vanishes
at b.  Two things must stay nondegenerate there.  The (A, B) kernel
system: when its kernel at b is still a line with a11 != 0, the
normalized solution (a11 = s22, det A = 1) is unique, so the slice's A
is the per-d A at b, whichever pivots either run chose.  The five
designated pivots: when the 5x5 block of the designated equations stays
invertible at b, both runs eliminate the five unknowns with the same
solution.  The slice path checks both and raises otherwise; the tests
run it as the oracle and compare its numerators with the coordinates at
every valid b for d = 5..12.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field as dc_field
from functools import reduce

from .linalg import ExactMatrix, cross
from .obstruction import CandidateS, coprime_chis, side_at, solve_AB, solve_S, solve_UV
from .rat import Rat, rational_cube_root
from .ratfunc import FracField, RatFunc, mpoly_gcd


class EliminationFailure(ArithmeticError):
    pass


def _column0_elimination(cand: CandidateS, A: ExactMatrix):
    """Residuals of the two held-back equations of the candidate's
    M_i U + N_i V = (A^-1)^T Q_i after expressing (u0, u1, u2, v0, v1)
    in terms of v2 := the bottom entry of V's first column.  Returns
    ((AA, BB), (CC, DD))."""
    E, Ms, Ns = cand.field, cand.M, cand.N
    a = A.data  # A^-T is A's cofactor matrix: solve_AB checked det(A) = 1
    A_inv_t = ExactMatrix._of(E, [cross(a[1], a[2]), cross(a[2], a[0]), cross(a[0], a[1])])
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


# -- the coordinates in closed form ------------------------------------------------

BI_FIELD = FracField(("chi1", "chi2"))
# P1 and the slices' numerators are polynomials in chi1 alone
CHI1_FIELD = FracField(("chi1",))

# d -> the t and t^2 coordinates of the compatibility resultant over Q(chi1, chi2)
_SLICE_CACHE: dict = {}


def P_formula(d):
    """P = 4 Q(d) u^2 - B(d) u + 6 d^2 (d-2)(d-1)^2 (5d-16), u = chi1 (d - chi1):
    over BI_FIELD at an integer d, over Q(d, chi1, chi2) when d is the
    generator of that field."""
    chi1 = BI_FIELD.gen("chi1")
    u = chi1 * (d - chi1)
    Q = 11 * d**4 - 47 * d**3 + 3 * d**2 + 150 * d - 120
    B = 11 * d**6 - 50 * d**5 + 153 * d**4 - 822 * d**3 + 2184 * d**2 - 2256 * d + 768
    return 4 * Q * u * u - B * u + 6 * d**2 * (d - 2) * (d - 1) ** 2 * (5 * d - 16)


def c2_formula(d):
    """The t^2 coordinate -k P / (128 d^4 (d-2)^3 (d - 2 chi1)), k = 2d^2 - 9d + 12."""
    chi1 = BI_FIELD.gen("chi1")
    k = 2 * d**2 - 9 * d + 12
    return -k * P_formula(d) / (128 * d**4 * (d - 2) ** 3 * (d - 2 * chi1))


def c1_formula(d):
    """The t coordinate k P u (d^2 - 6u') / (128 d^4 (d-2)^3 chi2 (d - chi2)
    (d - 2 chi2)(d^2 - 6u)), u = chi1 (d - chi1), u' = chi2 (d - chi2)."""
    chi1, chi2 = BI_FIELD.gen("chi1"), BI_FIELD.gen("chi2")
    k = 2 * d**2 - 9 * d + 12
    u, u_p = chi1 * (d - chi1), chi2 * (d - chi2)
    return (k * P_formula(d) * u * (d * d - 6 * u_p)
            / (128 * d**4 * (d - 2) ** 3 * u_p * (d - 2 * chi2) * (d * d - 6 * u)))


def _coordinates(d: int) -> tuple:
    """(c1, c2): the t and t^2 coordinates of AA*DD - BB*CC over
    Q(chi1, chi2) at d, the closed forms evaluated there (see the module
    docstring); the coordinate along 1 vanishes and c2 is free of chi2."""
    if d not in _SLICE_CACHE:
        _SLICE_CACHE[d] = c1_formula(d), c2_formula(d)
    return _SLICE_CACHE[d]


@dataclass
class ConstraintReport:
    d: int
    P1: RatFunc = None
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


def _primitive(poly: RatFunc) -> RatFunc:
    """The primitive part of a polynomial in chi1, positive at 0: its gcd
    with 0, up to sign."""
    P = mpoly_gcd(poly, CHI1_FIELD.zero)
    return -P if P.eval({"chi1": 0}) < 0 else P


def _branch_pair_compatibility(d: int, a: int, b: int) -> list:
    """For each Type II candidate at the concrete pair: is the held-back
    residual pair compatible, and is the full extended system solvable?
    Solvability must imply compatibility (the pair is a necessary
    condition).  AA v + BB = CC v + DD = 0 has a solution v where the
    resultant vanishes, unless AA = CC = 0, when it needs BB = DD = 0."""
    rows = []
    for cand in solve_S("II", side_at(d, a), side_at(d, b)):
        ab = solve_AB(cand)
        if ab.status != "solution":
            rows.append({"branch": cand.root_label, "ab": ab.status})
            continue
        (AA, BB), (CC, DD) = _column0_elimination(cand, ab.A)
        vanishes = (AA * DD - BB * CC).is_zero()
        compatible = vanishes and not (
            AA.is_zero() and CC.is_zero() and not (BB.is_zero() and DD.is_zero()))
        solvable = solve_UV(cand, ab.A).status == "solvable"
        rows.append(
            {
                "branch": cand.root_label,
                "resultant_vanishes": vanishes,
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
    pair.  Each call returns a copy of the cached report, so a caller
    that changes what it got cannot change a later answer."""
    if d not in _REPORT_CACHE:
        _REPORT_CACHE[d] = _analysis(d)
    return copy.deepcopy(_REPORT_CACHE[d])


def _analysis(d: int) -> ConstraintReport:
    """The report of constraint_analysis(d), computed."""
    coord_t, coord_t2 = _coordinates(d)
    report = ConstraintReport(d=d)
    x = CHI1_FIELD.gen("chi1")

    # P1 from the t^2 coordinate, which is free of chi2, cross-validated
    # against the chi2-content of the t one, which carries the factor
    # chi (d - chi) as well.  That content is the gcd of the numerator's
    # values at deg + 1 points of chi2: they span the same space over Q as
    # its coefficients in chi2 (Vandermonde), so they have the same gcd
    P1 = _primitive(coord_t2.num.eval({"chi2": 0}))
    num_t = coord_t.num
    content = reduce(mpoly_gcd, (num_t.eval({"chi2": b})
                                 for b in range(num_t.degree_in("chi2") + 1)), CHI1_FIELD.zero)
    quotient = content / (x * (d - x))
    P1_alt = _primitive(quotient) if quotient.den == 1 else None
    report.P1 = P1
    report.P1_checks = {
        "degree_4": P1.degree_in("chi1") == 4,
        # P1(chi) - P1(d - chi) has degree at most that of P1, so it
        # vanishes if it vanishes at one point more
        "symmetric": all(P1.eval({"chi1": a}) == P1.eval({"chi1": d - a})
                         for a in range(P1.degree_in("chi1") + 1)),
        "positive_at_0": P1.eval({"chi1": 0}) > 0,
        "negative_at_1": P1.eval({"chi1": 1}) < 0,
        "both_coordinates_agree": P1 == P1_alt,
    }

    # the chi'-slices at the first three valid b: the canonical numerators
    # of the coordinates at chi2 = b (see the module docstring)
    valid_bs = [b for b in range(1, d) if 2 * b != d]
    slices = [(b, *(c.eval({"chi2": b}).num for c in (coord_t, coord_t2)))
              for b in valid_bs[:3]]

    # slice structure: num2 = c_b * P1 and num1 = c_b' * chi (d - chi) P1,
    # so both quotients are constants
    structure_ok = True
    constants_nonzero = True
    for b, num1, num2 in slices:
        c2, c1 = num2 / P1, num1 / (P1 * x * (d - x))
        if c2.degree_in("chi1") > 0 or c1.degree_in("chi1") > 0:
            structure_ok = False
            continue
        if not c1 or not c2:
            constants_nonzero = False

    # rejection of non-congruent pairs: the held-back pair is compatible
    # at no valid non-congruent integer pair (a, b) of the slices.  Where
    # t^3 - r is irreducible, or on the quadratic factor where it splits,
    # that needs (c1, c2) != (0, 0); where r = X(a)/X(b) = c^3, the linear
    # factor t - c needs c1 + c c2 != 0 too (module docstring).  The
    # slices b = 1, 2 at d = 7 meet the split pair (1, 2)
    chis = coprime_chis(d)
    reject_ok = True
    for b in valid_bs[:3]:
        if math.gcd(b, d) != 1:
            continue
        for a in chis:
            if a == b or a + b == d:
                continue
            at = {"chi1": Rat(a), "chi2": Rat(b)}
            v1, v2 = coord_t.eval(at), coord_t2.eval(at)
            c = rational_cube_root(Rat(a * (d - a) * (d - 2 * a), b * (d - b) * (d - 2 * b)))
            if v1 == v2 == 0 or (c is not None and v1 + c * v2 == 0):
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
    return report
