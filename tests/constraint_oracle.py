"""Two eliminations of the compatibility constraint, for the tests.

tautrel.constraint evaluates closed forms of the constraint's
coordinates.  These are the eliminations the closed forms are checked
against:

- the generic run: Type II once over Q(d, chi1, chi2), from the blocks of
  symbolic_MN, the chi' side with chi1 renamed to chi2.  Its coordinates
  are compared with the closed forms, d a generator, by ==: that is the
  proof of the identities (generic_coordinates);
- the per-d run: Type II over Q(chi1, chi2) from the blocks of
  symbolic_MN evaluated at d, which is how tautrel.constraint found the
  coordinates before it took the closed forms (coordinates);
- the chi'-slices: the pipeline over Q(chi1) once per chi' = b, with P1
  the common divisor of the slices' t^2 (or t) numerators with the
  factors chi1, d - chi1 and d - 2 chi1 stripped, which is how
  tautrel.constraint found P1 before it ran one elimination per d.
"""

from dataclasses import dataclass
from functools import lru_cache

from mpoly_oracle import ExactDivisionError, MPoly, gcd, mpoly
from tautrel.constraint import BI_FIELD, EliminationFailure, _column0_elimination
from tautrel.linalg import ExactMatrix
from tautrel.obstruction import side, solve_AB, solve_S
from tautrel.rat import QQ, Rat
from tautrel.ratfunc import FracField, RatFunc
from tautrel.symbolic import SYM_FIELD, symbolic_MN

UNI_FIELD = FracField(("chi1",))
GEN_FIELD = FracField(("d", "chi1", "chi2"))


def uni_blocks(d: int) -> tuple:
    """The blocks (M, N) at d with chi left symbolic, over Q(chi1):
    symbolic_MN evaluated at d."""
    if d < 5:
        raise ValueError(f"d >= 5 required (d={d})")
    return tuple([ExactMatrix(UNI_FIELD, [[x.eval({"d": d}) for x in row] for row in m.data])
                  for m in mats] for mats in symbolic_MN())


def lifted(mats: list, field: FracField, rename: bool) -> list:
    """Blocks over a field whose last variable is chi1, lifted to field,
    the same variables and chi2 after them, with chi1 renamed to chi2 when
    rename is set.  chi2 is the outer variable of the dense pairs, so each
    canonical pair is re-levelled as it is and stays canonical: renaming
    chi1 to chi2 keeps the graded-lex order of the terms."""
    up = (lambda p: [[c] if c else [] for c in p]) if rename else (lambda p: [p] if p else [])
    return [ExactMatrix(field, [[RatFunc._raw(field.vars, up(x._num), up(x._den))
                                 for x in row] for row in m.data]) for m in mats]


def generic_sides(blocks: tuple, field: FracField) -> tuple:
    """The chi side of the blocks (M, N), and the chi' side: the same
    blocks with chi1 renamed to chi2, both over field."""
    return (side(*(lifted(mats, field, False) for mats in blocks)),
            side(*(lifted(mats, field, True) for mats in blocks)))


def type_II_coordinates(blocks: tuple, field: FracField) -> tuple:
    """(c0, c1, c2): the coordinates along 1, t and t^2 of AA*DD - BB*CC for
    the sides of generic_sides(blocks, field).  Raises EliminationFailure
    unless there is one Type II candidate and its (A, B) system has a
    solution."""
    cands = solve_S("II", *generic_sides(blocks, field))
    if len(cands) != 1:
        raise EliminationFailure(f"{len(cands)} Type II candidates over {field!r}")
    cand = cands[0]
    ab = solve_AB(cand)
    if ab.status != "solution":
        raise EliminationFailure(f"(A, B) system gives {ab.status} over {field!r}")
    (AA, BB), (CC, DD) = _column0_elimination(cand, ab.A)
    return (AA * DD - BB * CC).coeffs


@lru_cache(maxsize=1)
def generic_coordinates() -> tuple:
    """(c0, c1, c2) of the Type II run over Q(d, chi1, chi2)."""
    return type_II_coordinates(symbolic_MN(), GEN_FIELD)


@lru_cache(maxsize=None)
def coordinates(d: int) -> tuple:
    """(c1, c2) of the per-d run over Q(chi1, chi2), after checking that
    the coordinate along 1 vanishes and that c2 is nonzero and free of
    chi2."""
    c0, c1, c2 = type_II_coordinates(uni_blocks(d), BI_FIELD)
    if not c0.is_zero():
        raise EliminationFailure("constraint has a nonzero rational coordinate")
    if c2.is_zero() or c2.num.degree_in("chi2") > 0 or c2.den.degree_in("chi2") > 0:
        raise EliminationFailure("the t^2 coordinate of the constraint is zero or depends on chi2")
    return c1, c2


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
    _blocks, when given, is uni_blocks(d): a caller taking several slices
    of one d evaluates the blocks once."""
    key = (d, b)
    if key in _SLICE_CACHE:
        return _SLICE_CACHE[key]
    if b <= 0 or b >= d or 2 * b == d:
        raise ValueError(f"slice value b={b} degenerate for d={d}")
    M, N = uni_blocks(d) if _blocks is None else _blocks
    Mp = [_evaluated(m, b) for m in M]
    Np = [_evaluated(n, b) for n in N]
    cands = solve_S("II", side(M, N), side(Mp, Np))
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
    out = ConstraintSlice(d, b, mpoly(c1.num).over(QQ), mpoly(c2.num).over(QQ))
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
        acc = p if acc is None else gcd(acc, p)
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
    blocks = uni_blocks(d)
    slices = [constraint_slice(d, b, _blocks=blocks) for b in valid_bs[:3]]
    return (_recover_P1(d, [s.num2 for s in slices]),
            _recover_P1(d, [s.num1 for s in slices]))
