"""Compatibility constraint for the extended system at concrete d,
symbolic in chi.

For a Type II candidate, the extended system's first column is
normalized by (A^-1)^T so the unknown-side coefficient block consists of
the chi-side matrices M_i, N_i only.  Five designated equations express
u11, u21, u31, v11, v21 in terms of v31; the held-back pair reads
AA*v31 + BB = 0 and CC*v31 + DD = 0, and eliminating v31 leaves the
resultant Constraint := AA*DD - BB*CC, free of the cube root.

Because the pivot block depends only on chi, specializing chi' to a
number commutes with the whole elimination: running the pipeline over
QQ(chi) with chi' = b produces the exact chi'-slice of the bivariate
constraint.  The quartic P1 (the factor depending on chi alone) is the
stable common divisor of the slice numerators; the remaining factor is
analyzed slice by slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .linalg import ExactMatrix
from .mpoly import ExactDivisionError, MPoly
from .obstruction import CandidateS, _lift_matrix, _s_combination, solve_AB, solve_S, solve_UV
from .rat import QQ, Rat
from .ratfunc import mpoly_gcd
from .symbolic import UNI_FIELD, symbolic_matrices_at


class EliminationFailure(ArithmeticError):
    pass


def _column0_elimination(cand: CandidateS, A: ExactMatrix, M, N, Np):
    """Residuals of the two held-back equations after expressing
    (u0, u1, u2, v0, v1) in terms of v2 := the bottom entry of V's first
    column.  Returns ((AA, BB), (CC, DD))."""
    E = cand.field
    Ps = _s_combination(cand, Np)
    A_inv_t = A.inverse().transpose()
    w = [A_inv_t * Ps[i] for i in range(3)]
    Ms = [_lift_matrix(m, E) for m in M]
    Ns = [_lift_matrix(n, E) for n in N]

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


# -- chi'-slices ---------------------------------------------------------------


@dataclass
class ConstraintSlice:
    """chi'-slice of the compatibility resultant AA*DD - BB*CC.

    Its coordinate along 1 vanishes identically; the t and t^2
    coordinates are rational functions whose common vanishing is the
    compatibility condition of the held-back pair (num1, num2 are their
    canonical numerators, over QQ)."""

    d: int
    b: int
    num1: MPoly
    num2: MPoly


_SLICE_CACHE: dict = {}


def _evaluated(mat: ExactMatrix, b: int) -> ExactMatrix:
    return ExactMatrix(UNI_FIELD, [[x.eval({"chi1": Rat(b)}) for x in row] for row in mat.data])


def constraint_slice(d: int, b: int, *, _blocks: tuple = None) -> ConstraintSlice:
    """The exact chi'-slice of the compatibility constraint at chi' = b.
    _blocks, when given, is symbolic_matrices_at(d, None): a caller taking
    several slices of one d evaluates the blocks once."""
    key = (d, b)
    if key in _SLICE_CACHE:
        return _SLICE_CACHE[key]
    if b <= 0 or b >= d or 2 * b == d:
        raise ValueError(f"slice value b={b} degenerate for d={d}")
    M, N = symbolic_matrices_at(d, None) if _blocks is None else _blocks
    Mp = [_evaluated(m, b) for m in M]
    Np = [_evaluated(n, b) for n in N]
    cands = solve_S("II", M, Mp, base=UNI_FIELD)
    if len(cands) != 1:
        raise EliminationFailure(f"{len(cands)} slice candidates at chi'={b}")
    cand = cands[0]
    ab = solve_AB(cand, M, Mp)
    if ab.status != "solution":
        raise EliminationFailure(f"(A, B) system gives {ab.status} at chi'={b}")
    (AA, BB), (CC, DD) = _column0_elimination(cand, ab.A, M, N, Np)
    constraint = AA * DD - BB * CC
    c0, c1, c2 = constraint.coeffs
    if not c0.is_zero():
        raise EliminationFailure(
            "slice constraint has an unexpected rational coordinate"
        )
    if c1.is_zero() and c2.is_zero():
        raise EliminationFailure(f"slice constraint vanished identically at chi'={b}")
    out = ConstraintSlice(d, b, c1.num.over(QQ), c2.num.over(QQ))
    _SLICE_CACHE[key] = out
    return out


# -- recovery of the factors -----------------------------------------------------


def _strip_factors(poly: MPoly, factors: list) -> MPoly:
    """poly with every power of each factor divided out."""
    for f in factors:
        while True:
            try:
                poly = poly.exact_div(f)
            except ExactDivisionError:
                break
    return poly


def _chi1_junk_factors(d: int) -> list:
    x = MPoly.variable("chi1")
    dd = MPoly.constant(d, ("chi1",))
    return [x, dd - x, dd - 2 * x]


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


def _recover_P1(d: int, nums: list) -> MPoly:
    """Strip the chi-only trivial factors from the common divisor of the
    given slice numerators and normalize the sign at 0."""
    acc = None
    for p in nums:
        acc = p if acc is None else mpoly_gcd(acc, p)
        if acc.is_constant():
            break
    P1 = _strip_factors(acc.rational_content()[1], _chi1_junk_factors(d))
    P1 = P1.rational_content()[1]
    if not P1.is_constant() and P1.eval({"chi1": 0}) < 0:
        P1 = -P1
    return P1


def _branch_pair_compatibility(d: int, a: int, b: int) -> list:
    """For each Type II candidate at the concrete pair: is the held-back
    residual pair compatible, and is the full extended system solvable?
    Solvability must imply compatibility (the pair is a necessary
    condition)."""
    M, N = symbolic_matrices_at(d, a)
    Mp, Np = symbolic_matrices_at(d, b)
    rows = []
    for cand in solve_S("II", M, Mp):
        ab = solve_AB(cand, M, Mp)
        if ab.status != "solution":
            rows.append({"branch": cand.root_label, "ab": ab.status})
            continue
        E = cand.field
        (AA, BB), (CC, DD) = _column0_elimination(cand, ab.A, M, N, Np)
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
        solvable = solve_UV(cand, ab.A, M, N, Np).status == "solvable"
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

    valid_bs = [b for b in range(1, d) if 2 * b != d]
    blocks = symbolic_matrices_at(d, None)
    slices = [constraint_slice(d, b, _blocks=blocks) for b in valid_bs[:3]]
    report = ConstraintReport(d=d)

    # P1 from the t^2 coordinate, cross-validated against the t one
    P1 = _recover_P1(d, [s.num2 for s in slices])
    P1_alt = _recover_P1(d, [s.num1 for s in slices])
    report.P1 = P1
    x = MPoly.variable("chi1")
    dd = MPoly.constant(d, ("chi1",))
    report.P1_checks = {
        "degree_4": P1.degree_in("chi1") == 4,
        "symmetric": P1.eval({"chi1": dd - x}) == P1,
        "positive_at_0": P1.eval({"chi1": 0}) > 0,
        "negative_at_1": P1.eval({"chi1": 1}) < 0,
        "both_coordinates_agree": P1 == P1_alt,
    }

    # slice structure: num2 = c_b * P1 and num1 = c_b' * chi (d - chi) P1
    structure_ok = True
    constants_nonzero = True
    for s in slices:
        try:
            c2 = s.num2.exact_div(P1)
            c1 = s.num1.exact_div(P1 * x * (dd - x))
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
    chis = [c for c in range(1, d) if math.gcd(c, d) == 1]
    reject_ok = True
    for b in [s.b for s in slices if math.gcd(s.b, d) == 1]:
        s = constraint_slice(d, b)
        for a in chis:
            if a == b or a + b == d:
                continue
            if s.num1.eval({"chi1": Rat(a)}) == 0 and s.num2.eval(
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
