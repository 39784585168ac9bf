"""The chi'-slices of the compatibility constraint, for the tests.

This is how tautrel.constraint found P1 before it ran one elimination
over Q(chi1, chi2) per d: the pipeline runs over Q(chi1) once per
chi' = b, and P1 is the common divisor of the slices' t^2 (or t)
numerators with the factors chi1, d - chi1 and d - 2 chi1 stripped.
"""

from dataclasses import dataclass

from tautrel.constraint import EliminationFailure, _column0_elimination
from tautrel.linalg import ExactMatrix
from tautrel.mpoly import ExactDivisionError, MPoly
from tautrel.obstruction import solve_AB, solve_S
from tautrel.rat import QQ, Rat
from tautrel.ratfunc import mpoly_gcd
from tautrel.symbolic import UNI_FIELD, symbolic_matrices_at


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
    cands = solve_S("II", (M, N), (Mp, Np))
    if len(cands) != 1:
        raise EliminationFailure(f"{len(cands)} slice candidates at chi'={b}")
    cand = cands[0]
    ab = solve_AB(cand)
    if ab.status != "solution":
        raise EliminationFailure(f"(A, B) system gives {ab.status} at chi'={b}")
    (AA, BB), (CC, DD) = _column0_elimination(cand, ab.A)
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


def slice_P1(d: int) -> tuple:
    """(P1, P1_alt) from the first three valid slices: the common divisor
    of their t^2 numerators and of their t numerators."""
    valid_bs = [b for b in range(1, d) if 2 * b != d]
    blocks = symbolic_matrices_at(d, None)
    slices = [constraint_slice(d, b, _blocks=blocks) for b in valid_bs[:3]]
    return (_recover_P1(d, [s.num2 for s in slices]),
            _recover_P1(d, [s.num1 for s in slices]))
