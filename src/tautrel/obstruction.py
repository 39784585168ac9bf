"""The isomorphism-obstruction decision.

Given the coefficient blocks (M, N) at (d, chi) and (M', N') at
(d, chi'), a graded ring isomorphism would induce an invertible
change-of-relations matrix S with A^T M_i B = sum_j s_ij M'_j.  Both
determinant pencils det(sum x_i M_i) and det(sum x_j M'_j) are cubics
with a node at [0:0:1] and five nonzero coefficients.  Comparing
coefficients of the pencil identity det(sum x_i M_i) =
det(sum_ij x_i s_ij M'_j) classifies S into two vanishing patterns and
gives each entry of S as a ratio of those coefficients, over a cubic
extension (one candidate per irreducible factor of t^3 - r); each
candidate is checked against the whole identity.  Each candidate
carries its extended system over its extension, built once: the
chi-side blocks M_i and N_i lifted there, P_i = sum_j s_ij M'_j and
Q_i = sum_j s_ij N'_j.  Each side's pencil cubic does not depend on the
extension: at a point it is made once per (d, chi) and process
(side_at), with the blocks, from the one relations.tracked_block there
(pencil).  One elimination of the 27x18 homogeneous system
A^T M_i = P_i B^-1, with a33 normalized to 1, gives the (A, B) solution
or, when there is none, the a33 certificate; finally
A^T M_i U + A^T N_i V = Q_i decides solvability.  Witnesses and
inconsistency certificates are re-verified by direct substitution.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import product
from types import MappingProxyType

from .cubicext import CubicField, factor_t3_minus_r
from .linalg import ExactMatrix, cross
from .rat import ZZ, Rat
from .relations import TrackedBlock, tracked_block
from .symbolic import M_COLS, read_blocks
from .truncation import matrices_M, matrices_N


class NotNodal(ArithmeticError):
    pass


class NoCandidate(ArithmeticError):
    pass


class NotCoprime(ValueError):
    pass


# -- the cubic pencil ---------------------------------------------------------


def cubic_det(Ms: list) -> dict:
    """Coefficients of det(x1 M1 + x2 M2 + x3 M3): {(u,v,w): value}.

    The determinant whose row r is row r of M_{i_r} is row 0 of M_{i_0}
    dotted with the cross product of the other two rows; the nine cross
    products are shared by the 27 determinants."""
    crosses = {(i1, i2): cross(Ms[i1].data[1], Ms[i2].data[2])
               for i1, i2 in product(range(3), repeat=2)}
    out: dict = {}
    for rows in product(range(3), repeat=3):
        v = _dot(Ms[rows[0]].data[0], crosses[rows[1], rows[2]])
        if not v:
            continue
        key = (rows.count(0), rows.count(1), rows.count(2))
        prev = out.get(key)
        out[key] = v if prev is None else prev + v
    return {k: v for k, v in out.items() if v}


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def pencil(block: TrackedBlock) -> dict:
    """cubic_det of the M_i of block, over QQ: cubic_det of the integer
    numerators of R1..R3's M blocks, the coefficient of x1^u x2^v x3^w
    divided once by p1^u p2^v p3^w, p_i the pivot entry R_i is over.
    Its keys come in the order cubic_det of the M_i gives them."""
    p1, p2, p3 = block.R_dens
    return {(u, v, w): Rat(c, p1**u * p2**v * p3**w)
            for (u, v, w), c in cubic_det(read_blocks(block.R, M_COLS, ZZ)).items()}


def analyze_node(cubic: dict, field) -> dict:
    """Check that [0:0:1] is a node with branches tangent to the two
    coordinate lines: in the chart x3 = 1 the expansion must have no
    constant or linear part and quadratic part x1*x2 times a nonzero
    coefficient.  Returns {'coefficient': value}."""
    if not cubic:
        raise NotNodal("zero cubic")
    zero = field.zero
    for key, label in [
        ((0, 0, 3), "constant"),
        ((1, 0, 2), "linear x1"),
        ((0, 1, 2), "linear x2"),
        ((2, 0, 1), "quadratic x1^2"),
        ((0, 2, 1), "quadratic x2^2"),
    ]:
        if not field.is_zero(cubic.get(key, zero)):
            raise NotNodal(f"{label} term {cubic[key]} does not vanish")
    coeff = cubic.get((1, 1, 1), zero)
    if field.is_zero(coeff):
        raise NotNodal("degenerate quadratic part (x1*x2 coefficient vanishes)")
    return {"coefficient": coeff}


# -- solving for S ------------------------------------------------------------


@dataclass
class CandidateS:
    """S and its extended system over its extension field: the chi-side
    M, N lifted, P_i = sum_j s_ij M'_j and Q_i = sum_j s_ij N'_j.
    solve_AB reads M and P, solve_UV M, N and Q."""

    field: CubicField
    S: ExactMatrix
    r: object
    root_label: str
    M: list
    N: list
    P: list
    Q: list


# the five monomials a cubic with that node may have
_NODAL_TERMS = ((3, 0, 0), (0, 3, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1))

# What one point (d, chi) contributes to a pair, over the field of its
# blocks: the blocks M and N and their node-checked pencil cubic.  A
# named tuple: its fields cannot be reassigned, and it is cheaper to
# define at import than a frozen dataclass.
_Side = namedtuple("_Side", "M N cubic")


def side(M: list, N: list, cubic: dict) -> _Side:
    """The side of the blocks (M, N) and their pencil cubic
    det(sum x_i M_i), which the caller gives: pencil(block) at a point,
    cubic_det(M) over any other field.  The cubic must be nodal at
    [0:0:1] (analyze_node) with nonzero x1^3 and x2^3 coefficients:
    since dC/dx3 = c111*x1*x2, those make [0:0:1] its only singular
    point.  The blocks are kept as tuples and the cubic as a read-only
    mapping, so no reader can change a side."""
    analyze_node(cubic, M[0].field)
    if (3, 0, 0) not in cubic or (0, 3, 0) not in cubic:
        raise NoCandidate("x1^3 or x2^3 coefficient vanishes: the node "
                          "is not the only singular point")
    return _Side(tuple(M), tuple(N), MappingProxyType(cubic))


@lru_cache(maxsize=1024)
def side_at(d: int, chi: int) -> _Side:
    """The side at a point (d, chi) over QQ, made once per process: a
    sweep at d uses each side in phi(d) pairs, and none of its objects
    depends on the other side.  The cache holds all phi(d) sides of any
    d <= 1024 (about 6 KB a side at d = 199): the pairs of a sweep at d
    visit them in a cycle of phi(d) sides, so a smaller cache would drop
    each side before its next use once phi(d) exceeds its size.  Blocks
    and cubic are read from the one
    relations.tracked_block(d, chi), which refuses any point but d >= 5
    and a coprime 0 < chi < d, its pivots checked on columns 0..11
    (symbolic's docstring shows they always are).  No part of a _Side
    can be changed (side), so the cache gives every caller the same
    answer."""
    block = tracked_block(d, chi)
    if block.pivots != tuple(range(12)):
        raise AssertionError(f"unexpected echelon pivots at (d, chi) = ({d}, {chi}): "
                             f"{block.pivots}")
    return side(matrices_M(block), matrices_N(block), pencil(block))


def _cube(value, coeff, unknown: str):
    """The cube of unknown pinned by coeff * unknown^3 = value."""
    if not coeff:
        raise NoCandidate(f"cube equation for {unknown} degenerate")
    return value / coeff


def solve_S(stype: str, side_chi: _Side, side_p: _Side) -> list:
    """All candidates of the given type ('I' or 'II'), one per
    irreducible factor of the relevant t^3 - r, over the field of the
    blocks.  side_chi and side_p are the sides at chi and at chi' (side,
    side_at); of side_p only the blocks and the cubic are read.

    Write c_uvw for the coefficient of x1^u x2^v x3^w in
    C = det(sum x_i M_i), and c'_uvw for that of C' = det(sum y_j M'_j).
    After the node check each is c300 x1^3 + c030 x2^3 + c210 x1^2 x2 + c120 x1 x2^2 +
    c111 x1 x2 x3, and the identity reads C(x) = C'(S^T x).  S^T is
    invertible: C(x + k) = C(x) for a kernel vector k would make k a
    singular point of C, so k ~ [0:0:1], and C would not involve x3.  So
    S^T maps the one singular point [0:0:1] of C to that of C':
    s31 = s32 = 0, y1 = s11 x1 + s21 x2, y2 = s12 x1 + s22 x2 and
    y3 = s13 x1 + s23 x2 + s33 x3.  Only c'111 y1 y2 y3 involves x3, so

        x1^2 x3:   c'111 s11 s12 s33 = 0
        x2^2 x3:   c'111 s21 s22 s33 = 0
        x1 x2 x3:  c'111 s33 (s11 s22 + s12 s21) = c111.

    With tau = c111/c'111 != 0 the last gives s33 != 0 and s11 s22 != 0
    or s12 s21 != 0, and the first two then force s12 = s21 = 0
    (Type II) or s11 = s22 = 0 (Type I): the two patterns are complete.
    Under s33 = 1 every other coefficient is a cube equation, a linear
    one or 0 on both sides (x3^2, x3^3):

        Type I                             Type II
        x2^3:  c'300 s21^3 = c030          c'030 s22^3 = c030
        x1^3:  c'030 s12^3 = c300          c'300 s11^3 = c300
        x1 x2 x3:  s12 s21 = tau           s11 s22 = tau
        x1^2 x2:  c'120 s12^2 s21 + c'111 s12 s21 s13 = c210
                                           c'210 s11^2 s22 + c'111 s11 s22 s13 = c210
        x1 x2^2:  c'210 s12 s21^2 + c'111 s12 s21 s23 = c120
                                           c'120 s11 s22^2 + c'111 s11 s22 s23 = c120

    So in Type I r = s21^3 = c030/c'300 and s12 = tau/s21, consistent
    when tau^3 = r * c300/c'030.  In Type II r = s22^3 = c030/c'030,
    consistent when c300/c'300 = r^2 and tau = r, and then
    s11 = tau/s22 = s22^2.  s13 and s23 follow from the last two rows.
    Each candidate is checked against the whole identity, with C'
    computed again from P = sum_j s_ij M'_j.
    """
    M, N, C = side_chi.M, side_chi.N, side_chi.cubic
    Mp, Np, Cp = side_p.M, side_p.N, side_p.cubic
    zero = M[0].field.zero
    c300, c030, c210, c120, c111 = (C.get(k, zero) for k in _NODAL_TERMS)
    p300, p030, p210, p120, p111 = (Cp.get(k, zero) for k in _NODAL_TERMS)
    tau = c111 / p111

    if stype == "I":
        r_main = _cube(c030, p300, "s21")  # s21^3
        r_other = _cube(c300, p030, "s12")  # s12^3
        if tau**3 != r_main * r_other:
            raise NoCandidate("s33^3 != 1 for Type I: cube consistency broken")
    elif stype == "II":
        r_main = _cube(c030, p030, "s22")  # s22^3
        r_other = _cube(c300, p300, "s11")  # s11^3
        if r_other != r_main * r_main:
            raise NoCandidate("s11^3 != (s22^3)^2 for Type II")
        if tau != r_main:
            raise NoCandidate("s33 != 1 normalization impossible: tau != r")
    else:
        raise ValueError("stype must be 'I' or 'II'")

    candidates = []
    for E in factor_t3_minus_r(r_main, M[0].field):
        root = E.t
        if stype == "I":
            s11 = s22 = E.zero
            s21, s12 = root, E.coerce(tau) / root
            s13 = (c210 - p120 * s12 * s12 * s21) / (p111 * s12 * s21)
            s23 = (c120 - p210 * s12 * s21 * s21) / (p111 * s12 * s21)
        else:
            s12 = s21 = E.zero
            s22, s11 = root, root * root
            s13 = (c210 - p210 * s11 * s11 * s22) / (p111 * s11 * s22)
            s23 = (c120 - p120 * s11 * s22 * s22) / (p111 * s11 * s22)
        S = ExactMatrix(E, [[s11, s12, s13], [s21, s22, s23], [0, 0, 1]])
        P = _s_combination(S, Mp)
        if cubic_det(P) != {k: E.coerce(v) for k, v in C.items()}:
            raise NoCandidate(f"pencil identity violated for type {stype}")
        candidates.append(CandidateS(
            E, S, r_main, E.modulus_str(), [ExactMatrix(E, m.data) for m in M],
            [ExactMatrix(E, n.data) for n in N], P, _s_combination(S, Np)))
    return candidates


def _s_combination(S: ExactMatrix, mats: list) -> list:
    """P_i = sum_j s_ij mats_j over the field of S, entry by entry over
    the nonzero s_ij, each sum started at its first product."""
    zero = S.field.zero
    out = []
    for srow in S.data:
        terms = [(s, m.data) for s, m in zip(srow, mats) if s]
        rows = []
        for r in range(3):
            row = []
            for c in range(3):
                acc = None
                for s, m in terms:
                    p = s * m[r][c]
                    acc = p if acc is None else acc + p
                row.append(zero if acc is None else acc)
            rows.append(row)
        out.append(ExactMatrix._of(S.field, rows))
    return out


# -- solving for A and B -------------------------------------------------------


@dataclass
class ABResult:
    status: str  # "solution" | "no_invertible" | "anomaly"
    kernel_dim: int  # None when the elimination cannot tell (anomaly)
    A: ExactMatrix = None
    B: ExactMatrix = None
    certificate: dict = None


def solve_AB(cand: CandidateS) -> ABResult:
    """Solve A^T M_i = P_i B^-1 exactly, P_i = sum_j s_ij M'_j, by one
    elimination.

    The 27x18 homogeneous system in the entries of A and of B^-1 has row
    (i, r, c) for entry (r, c) of equation i, A[k, r] at column 3k + r
    and B^-1[k, c] at column 9 + 3k + c.  Hold back the row
    (i=1, r=0, c=1) and eliminate the other 26, in (r, c, i) order,
    pivoting on the 17 columns other than a33.  With 17 pivots every
    other row is set aside as a multiple of a33, and a33 = 1 fixes one
    solution line of the pivot rows.
    - The held-back row and every set-aside row vanish on the line: the
      kernel is that line (kernel_dim 1).  A and B^-1 are read off it,
      normalized so a11 = s22 (top-left entry of A equals the middle
      entry of S) and det(A) = det(B) = 1, both by cofactors, and
      verified by substitution; B is adj(B^-1), with no division.
    - Otherwise a33 = 0, so every unknown is 0 and no (A, B) exists
      (kernel_dim 0).  The certificate is the held-back row evaluated on
      the line, (coefficient) * a33.  Under this pivot recipe it comes
      out as -4 chi (d-chi)(d-2chi) / (d ((d-2) d^2 + 24 d chi' - 24 chi'^2)),
      2/(d-4) times a33_coefficient_formula (an exact, tested relation).
    - Fewer than 17 pivots: anomaly, as the elimination does not tell
      whether some nonzero kernel vector has a33 = 0.  The former 18x9
      kernel solve in B^-1 (tests/ab_oracle.py) reported such a case as
      no_invertible with a note, or as a solution with a33 = 0.  It
      occurs at no coprime pair of d = 5..30.
    """
    E, Ms, Ps = cand.field, cand.M, cand.P
    rows = []
    for r, c, i in product(range(3), repeat=3):
        row = [E.zero] * 18
        for k in range(3):
            row[3 * k + r] = Ms[i][k, c]
            row[9 + 3 * k + c] = -Ps[i][r, k]
        if (i, r, c) == (0, 0, 1):
            held_back = row
        else:
            rows.append(row)
    not_a33 = [c for c in range(18) if c != 8]
    pivots, rest = ExactMatrix._of(E, rows).gauss_jordan(pivot_cols=not_a33)
    if len(pivots) != 17:
        return ABResult("anomaly", None, certificate={
            "note": f"only {len(pivots)} pivots found (expected 17)"})
    # the line: a33 = 1, each pivot unknown from its reduced row
    vec = [E.zero] * 18
    vec[8] = E.one
    for col, prow in pivots:
        vec[col] = -prow[8]
    residual = E.zero
    for coeff, val in zip(held_back, vec):
        residual = residual + coeff * val
    if residual or any(row[8] for row in rest):
        return ABResult("no_invertible", 0, certificate={
            "forcing_coefficient": residual, "normalized_unknown": "a33"})
    A = ExactMatrix._of(E, [vec[3 * k:3 * k + 3] for k in range(3)])
    Binv = ExactMatrix._of(E, [vec[9 + 3 * k:12 + 3 * k] for k in range(3)])
    anchor = A[0, 0]
    if anchor.is_zero():
        return ABResult(
            "anomaly", 1, certificate={"note": "kernel vector has a11 = 0"}
        )
    mu = cand.S[1, 1] / anchor
    A = A.scale(mu)
    Binv = Binv.scale(mu)
    # B^-1's cofactor rows: with det(B^-1) = 1 their transpose is B
    a, b = A.data, Binv.data
    cof = [cross(b[1], b[2]), cross(b[2], b[0]), cross(b[0], b[1])]
    if _dot(a[0], cross(a[1], a[2])) != E.one or _dot(b[0], cof[0]) != E.one:
        return ABResult(
            "anomaly", 1,
            certificate={"note": "normalized solution has det(A) or det(B^-1) != 1"},
        )
    B = ExactMatrix._of(E, cof).transpose()
    At = A.transpose()
    for i in range(3):
        if not (At * Ms[i] * B) == Ps[i]:
            raise AssertionError("A, B verification failed: witness unsound")
    return ABResult("solution", 1, A=A, B=B)


def a33_coefficient_formula(d: int, chi1: int, chi2: int):
    """-2 chi (d-4)(d-chi)(d-2chi) / (d ((d-2) d^2 + 24 d chi' - 24 chi'^2))."""
    num = Rat(-2 * chi1 * (d - 4) * (d - chi1) * (d - 2 * chi1))
    den = Rat(d * ((d - 2) * d * d + 24 * d * chi2 - 24 * chi2 * chi2))
    if den <= 0:
        raise AssertionError("certificate denominator must be positive")
    return num / den


# -- solving for U and V --------------------------------------------------------


@dataclass
class UVResult:
    status: str  # "solvable" | "inconsistent"
    U: ExactMatrix = None
    V: ExactMatrix = None
    certificate: list = None


def solve_UV(cand: CandidateS, A: ExactMatrix) -> UVResult:
    """Solve A^T M_i U + A^T N_i V = Q_i for U, V, Q_i = sum_j s_ij N'_j."""
    At = A.transpose()
    return _solve_uv_block(cand.field, [At * m for m in cand.M],
                           [At * n for n in cand.N], cand.Q)


def _solve_uv_block(E, AM: list, AN: list, Ps: list) -> UVResult:
    """Solve AM_i U + AN_i V = Ps_i (i = 0, 1, 2) as one 9x6 block.

    Row 9i + 3r + c of the 27x18 system, entry (r, c) of equation i,
    reads sum_k AM_i[r, k] U[k, c] + AN_i[r, k] V[k, c] = Ps_i[r, c], in
    the unknowns U[k, c] (column 3k + c) and V[k, c] (column 9 + 3k + c).
    It involves column c of U and V alone, with coefficients free of c:
    the system is three copies of the block whose row 3i + r is
    (AM_i[r, :], AN_i[r, :]), copy c with the right-hand sides Ps_i[r, c].
    One gauss_jordan of [block | Ps_i[r, 0..2]] with a 9-column
    transform, pivoting left of the bar, runs the three eliminations.

    The certificate is the one a general solve of the 27x18 system
    returns: one gauss_jordan of [system | rhs] with a transform,
    pivoting left of the bar, whose first set-aside row with a nonzero
    right-hand side it takes (tests/uv_oracle.py keeps that solve).
    That elimination visits rows 9i + 3r + c in order, so each
    copy's rows in the block's (i, r) order; a row of copy c is never
    changed by a pivot row of another copy, which is zero in its
    columns.  So it runs the block's elimination three times
    interleaved, step for step: each copy has the block's pivots and
    set-aside rows, its right-hand-side column and its transform rows
    3q + c for block row q.  Its first set-aside row with a nonzero
    right-hand side is therefore the block's first set-aside row, in
    (i, r) order, with a nonzero right-hand side, at the first such c;
    solve returns it over that entry, as here.
    """
    block = ExactMatrix._of(E, [AM[i].data[r] + AN[i].data[r] + Ps[i].data[r]
                                for i in range(3) for r in range(3)])
    pivots, rest = block.gauss_jordan(pivot_cols=range(6), with_transform=True)
    for row in rest:
        for c in range(3):
            if row[6 + c]:
                inv = E.one / row[6 + c]
                certificate = [E.zero] * 27
                for q, lam in enumerate(row[9:]):
                    certificate[3 * q + c] = lam * inv
                _check_uv_certificate(E, AM, AN, Ps, certificate)
                return UVResult("inconsistent", certificate=certificate)
    X = [[E.zero] * 3 for _ in range(6)]  # rows: U then V; free unknowns 0
    for k, row in pivots:
        X[k] = row[6:9]
    U, V = ExactMatrix._of(E, X[:3]), ExactMatrix._of(E, X[3:])
    for i in range(3):
        if not AM[i] * U + AN[i] * V == Ps[i]:
            raise AssertionError("U, V verification failed: witness unsound")
    return UVResult("solvable", U=U, V=V)


def _check_uv_certificate(E, AM: list, AN: list, Ps: list, lam: list) -> None:
    """lam, over the rows 9i + 3r + c of the 27x18 system, annihilates
    every unknown column (U[k, c], V[k, c]) but not the right-hand side."""
    rhs = E.zero
    for c in range(3):
        cols = [E.zero] * 6
        for i in range(3):
            for r in range(3):
                w = lam[9 * i + 3 * r + c]
                if w:
                    for k in range(3):
                        cols[k] = cols[k] + w * AM[i][r, k]
                        cols[3 + k] = cols[3 + k] + w * AN[i][r, k]
                    rhs = rhs + w * Ps[i][r, c]
        if any(cols):
            raise AssertionError("inconsistency certificate unsound")
    if rhs.is_zero():
        raise AssertionError("inconsistency certificate unsound (rhs)")


# -- the decision ----------------------------------------------------------------


def congruent(d: int, chi1: int, chi2: int) -> bool:
    return (chi1 - chi2) % d == 0 or (chi1 + chi2) % d == 0


@dataclass
class Verdict:
    d: int
    chi1: int
    chi2: int
    verdict: str  # "NoObstruction" | "ObstructionFound"
    expected_isomorphic: bool
    witness: dict = None
    # one per candidate that failed, also when another gave the witness;
    # the JSON carries them only for an obstruction
    certificates: list = dc_field(default_factory=list)
    kernel_dims: dict = dc_field(default_factory=dict)
    note: str = None

    @property
    def agrees(self) -> bool:
        return (self.verdict == "NoObstruction") == self.expected_isomorphic

    def to_json(self) -> dict:
        out = {
            "schema": "tautrel/verdict/1",
            "d": self.d,
            "chi1": self.chi1,
            "chi2": self.chi2,
            "verdict": self.verdict,
            "expected_isomorphic": self.expected_isomorphic,
            "agrees": self.agrees,
            "kernel_dims": {k: v for k, v in sorted(self.kernel_dims.items())},
        }
        if self.witness is not None:
            out["witness"] = self.witness
        elif self.certificates:
            out["certificates"] = self.certificates
        if self.note:
            out["note"] = self.note
        return out


def _matrix_json(mat: ExactMatrix) -> list:
    return [[str(x) for x in row] for row in mat.data]


def decide(d: int, chi1: int, chi2: int) -> Verdict:
    """Decide whether the truncated relation systems at (d, chi1) and
    (d, chi2) admit a full change-of-relations witness (S, A, B, U, V).
    Each side, its blocks M, N and its pencil cubic, comes from
    side_at(d, chi mod d), which makes it once per process from
    relations.tracked_block: one integer elimination of the closed form
    at the point, whose blocks equal the symbolic blocks evaluated there.
    Neither the relation expansion nor the elimination over QQ(d, chi1)
    is run."""
    _require_positive(d)
    if math.gcd(d, chi1) != 1 or math.gcd(d, chi2) != 1:
        raise NotCoprime(f"chi1={chi1}, chi2={chi2} must be coprime to d={d}")
    c1 = chi1 % d
    c2 = chi2 % d
    expected = congruent(d, c1, c2)
    if d < 5:
        return Verdict(d, c1, c2, "NoObstruction", expected,
                       note="d < 5: no degree-d relations to obstruct")
    side_chi, side_p = side_at(d, c1), side_at(d, c2)

    certificates = []
    kernel_dims = {}
    witness = None

    for stype in ("I", "II"):
        for cand in solve_S(stype, side_chi, side_p):
            label = f"type_{stype}[{cand.root_label}]"
            ab = solve_AB(cand)
            kernel_dims[label] = ab.kernel_dim
            if ab.status == "anomaly":
                raise NoCandidate(f"{label}: {ab.certificate['note']}")
            if ab.status == "no_invertible":
                certificates.append({
                    "candidate": label, "stage": "AB",
                    "a33_forcing_coefficient": str(ab.certificate["forcing_coefficient"])})
                continue
            uv = solve_UV(cand, ab.A)
            if uv.status == "solvable":
                if witness is None:
                    witness = {
                        "candidate": label,
                        "modulus": cand.root_label,
                        "r": str(cand.r),
                        "S": _matrix_json(cand.S),
                        "A": _matrix_json(ab.A),
                        "B": _matrix_json(ab.B),
                        "U": _matrix_json(uv.U),
                        "V": _matrix_json(uv.V),
                    }
            else:
                certificates.append(
                    {
                        "candidate": label,
                        "stage": "UV",
                        "certificate_row": [str(x) for x in uv.certificate],
                    }
                )
    # Candidates from different irreducible factors of t^3 - r are not
    # Galois conjugate to each other, and their extendability genuinely
    # differs (the quadratic-factor twist of the identity witness does
    # not extend); the verdict is existential over candidates, with
    # per-candidate kernel dimensions and certificates recorded.
    verdict = "ObstructionFound" if witness is None else "NoObstruction"
    return Verdict(d, c1, c2, verdict, expected, witness=witness,
                   certificates=certificates, kernel_dims=kernel_dims)


def _require_positive(d: int) -> None:
    if d < 1:
        raise ValueError(f"d >= 1 required (got {d})")


def coprime_chis(d: int) -> list:
    """All 0 < chi < d coprime to d."""
    return [c for c in range(1, d) if math.gcd(c, d) == 1]


def coprime_pairs(d: int) -> list:
    """All coprime 0 < chi1 <= chi2 < d."""
    _require_positive(d)
    chis = coprime_chis(d)
    return [(a, b) for a in chis for b in chis if a <= b]

