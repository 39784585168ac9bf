"""Production of the degree-d relations.

For each n in {1,2,3} the generating identity is a sum over partition
tuples of products of beta-twisted linear factors; summed over all
partitions it is the degree-ell piece of exp(sum_k (k-1)! F_k), so the
full expansion is computed by the standard recurrence
m*E_m = sum_k k!*F_k*E_{m-k}.  Pushing forward the degree d+1 and d+2
pieces yields the nine relations R_a^n, R_b^n, R_c^n; eliminating the
nine monomials that involve generators of degree d-1 and d leaves the
three canonical relations R_1, R_2, R_3 in row echelon form.

The recurrence runs fraction-free.  With D the lcm of the coefficient
denominators of F_1..F_upto, the factors H_k = k! D^k F_k have integer
coefficients, and G_m = m! D^m E_m obeys
G_m = sum_k ((m-1)!/(m-k)!) H_k G_{m-k}  (multiply the recurrence by
(m-1)! D^m).  The weights (m-1)!/(m-k)! are integers for k >= 1, so
every G_m is computed with integer additions and multiplications only.
Since G_m = m! D^m E_m holds exactly, the coefficients of E_m are those
of G_m over m! D^m; each output coefficient is divided once, as
Rat(num, den), the (d-3)! normalization and its sign folded into den.
In symbolic chi the coefficients are polynomials in chi over ZZ, and
their integer coefficients are divided in the same way.  Of G_{d+2}
only the beta^2 component is read (its pushforward gives R_c^n), so the
build's last step computes only that component: three of the six
products per k.  expand_relation computes all three.

The build eliminates the twelve relations once and keeps the twelve
pivot monomials it found.  Over QQ the elimination is fraction-free:
each relation's coefficient row is scaled by the lcm of its own
denominators to an integer row, linalg.int_gauss_jordan reduces the
rows to primitive pivot rows, and only R_1, R_2, R_3 (rows 9-11) are
divided by their pivot entries back into rationals; the result is the
reduced row echelon form over QQ, which is unique.  In symbolic chi
(over QQ(chi1)) ExactMatrix.rref eliminates them.  verify_rank12
certifies rank 12 by the nonzero 12x12 minor of the twelve relations
at those monomials, which needs no second elimination of the full
matrix; only when that minor vanishes does it take the full rank, by
the same elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import ExactMatrix, int_gauss_jordan
from .mpoly import MPoly, PolyDomain
from .rat import QQ, ZZ, Rat
from .ratfunc import FracField, RatFunc
from .tautalg import (
    BetaClass,
    DegreeMismatch,
    GradedPoly,
    TautContext,
    _sum_products,
    beta_pushforward,
    gen_key,
    mono_key,
    mono_str,
)


class UnsupportedEll(ValueError):
    pass


class SingularCheckpoint(ArithmeticError):
    """A determinant checkpoint vanished: invalid input or an upstream bug."""


# -- partitions -------------------------------------------------------------


@dataclass(frozen=True)
class PartitionTuple:
    """Multiplicity vector (m_1, ..., m_ell) with sum s*m_s = ell."""

    m: tuple

    @property
    def ell(self) -> int:
        return sum((s + 1) * ms for s, ms in enumerate(self.m))

    def parts(self) -> tuple:
        out = []
        for s in range(len(self.m), 0, -1):
            out.extend([s] * self.m[s - 1])
        return tuple(out)

    def coefficient(self):
        """prod_s ((s-1)!)^{m_s} / (m_s)! as an exact rational."""
        num = 1
        den = 1
        for s, ms in enumerate(self.m, start=1):
            if ms:
                num *= math.factorial(s - 1) ** ms
                den *= math.factorial(ms)
        return Rat(num, den)


def enumerate_partitions(ell: int, predicate=None) -> list:
    """All partition tuples of ell, optionally filtered on their parts."""
    if ell < 1:
        raise ValueError("ell must be positive")
    out = []

    def descend(parts, largest, remaining):
        if remaining == 0:
            m = [0] * ell
            for p in parts:
                m[p - 1] += 1
            pt = PartitionTuple(tuple(m))
            if predicate is None or predicate(pt):
                out.append(pt)
            return
        for p in range(min(largest, remaining), 0, -1):
            parts.append(p)
            descend(parts, p, remaining - p)
            parts.pop()

    descend([], ell, ell)
    return out


# -- the beta-twisted factors -----------------------------------------------


def _d_inverse(ctx: TautContext):
    d = ctx.d
    if isinstance(d, MPoly):
        if not d.is_constant():
            raise TypeError("polynomial-domain context requires concrete d")
        return ctx.domain.coerce(Rat(1) / d.constant_value())
    return ctx.domain.one / d


def _ctilde(ctx, coeff, k, j) -> GradedPoly:
    """coeff * (-1)^(k+1) c_k(j), degenerate symbols resolved."""
    if (k + 1) & 1:
        coeff = -coeff
    return GradedPoly.term(ctx, coeff, [(k, j)])


def _b_class(ctx, m: int, n: int, chi, d_inv) -> GradedPoly:
    """B_m = ct_{m+1}(0) + (2-n-chi/d) ct_m(1) + q ct_{m-1}(2)."""
    dom = ctx.domain
    one = dom.one
    c1 = dom.coerce(2 - n) - chi * d_inv
    half_a = dom.coerce(Rat(2 * n - 5, 2)) * ctx.d + chi
    half_b = dom.coerce(Rat(2 * n - 3, 2)) * ctx.d + chi
    q = half_a * half_b * d_inv * d_inv * dom.coerce(Rat(1, 2))
    out = _ctilde(ctx, one, m + 1, 0)
    out = out + _ctilde(ctx, c1, m, 1)
    out = out + _ctilde(ctx, q, m - 1, 2)
    return out


def relation_factor(s: int, n: int, d, chi, ctx: TautContext) -> BetaClass:
    """The beta-class factor attached to index s:
    (A_s - B_s) + B_{s-1}*beta - (1/2)B_{s-2}*beta^2."""
    if s < 1:
        raise ValueError("s must be >= 1")
    dom = ctx.domain
    chi = dom.coerce(chi)
    d_inv = _d_inverse(ctx)
    half_a = dom.coerce(Rat(2 * n - 5, 2)) * ctx.d + chi
    diff = _ctilde(ctx, dom.one, s, 1) + _ctilde(ctx, -half_a * d_inv, s - 1, 2)
    b1 = _b_class(ctx, s - 1, n, chi, d_inv)
    b2 = _b_class(ctx, s - 2, n, chi, d_inv).scale(Rat(-1, 2))
    return BetaClass(diff, b1, b2)


def _coeff_denominator(c) -> int:
    """Least common denominator of a Rat or of an MPoly's coefficients."""
    if isinstance(c, MPoly):
        return math.lcm(*(v.denominator for v in c.terms.values()))
    return c.denominator


def _exp_series(n: int, d: int, chi, ctx: TautContext, upto: int,
                top_b2_only: bool = False) -> tuple:
    """(G, D): G_0..G_upto with G_m = m! D^m E_m, E = exp(sum_k (k-1)! F_k).

    D is the lcm of the coefficient denominators of F_1..F_upto; G runs
    over the integers (ints, or MPolys over ZZ in symbolic chi).  With
    top_b2_only the last step computes only the beta^2 component of
    G_upto (three of the six products per k), and G[upto] is that
    GradedPoly.
    """
    F = [relation_factor(k, n, d, chi, ctx) for k in range(1, upto + 1)]
    D = 1
    for f in F:
        for part in (f.b0, f.b1, f.b2):
            for c in part.terms.values():
                D = math.lcm(D, _coeff_denominator(c))
    dom = ctx.domain
    ring = PolyDomain(dom.vars, ZZ) if isinstance(dom, PolyDomain) else ZZ
    zctx = TautContext(ring, d)
    H = [None]
    for k, f in enumerate(F, start=1):
        s = math.factorial(k) * D**k
        H.append(BetaClass(*(
            p.map_coeffs(lambda c: ring.coerce(c * s), zctx) for p in (f.b0, f.b1, f.b2)
        )))
    G = [BetaClass.one(zctx)]
    for m in range(1, upto + 1):
        b2_only = top_b2_only and m == upto
        # the sum over k accumulates in place, in dicts owned by this step
        acc = [{}] if b2_only else [{}, {}, {}]
        w = 1  # (m-1)!/(m-k)!
        for k in range(1, m + 1):
            hk, g = (H[k] if w == 1 else H[k] * w), G[m - k]
            if b2_only:
                parts = (_sum_products(hk.b0 * g.b2, hk.b1 * g.b1, hk.b2 * g.b0),)
            else:
                prod = hk * g
                parts = (prod.b0, prod.b1, prod.b2)
            for terms, part in zip(acc, parts):
                GradedPoly.add_into(terms, part)
            w *= m - k
        parts = [GradedPoly(zctx, terms) for terms in acc]
        G.append(parts[0] if b2_only else BetaClass(*parts))
    return G, D


def _divided(p: GradedPoly, den: int, ctx: TautContext) -> GradedPoly:
    """The integer-coefficient p divided by den, over ctx (QQ or QQ[vars])."""
    if isinstance(ctx.domain, PolyDomain):
        terms = {m: MPoly(c.vars, {e: Rat(v, den) for e, v in c.terms.items()})
                 for m, c in p.terms.items()}
    else:
        terms = {m: Rat(c, den) for m, c in p.terms.items()}
    return GradedPoly(ctx, terms)


def expand_relation(ell: int, n: int, d: int, chi, ctx: TautContext) -> BetaClass:
    """The full left-hand side of the generating identity in degree ell."""
    if ell not in (d + 1, d + 2):
        raise UnsupportedEll(f"ell must be d+1 or d+2, got {ell} for d={d}")
    G, D = _exp_series(n, d, chi, ctx, ell)
    den = math.factorial(ell) * D**ell
    g = G[ell]
    return BetaClass(*(_divided(p, den, ctx) for p in (g.b0, g.b1, g.b2)))


def expand_relation_by_partitions(ell: int, n: int, d: int, chi, ctx: TautContext) -> BetaClass:
    """Independent expander: the literal sum over partition tuples of
    scaled factor powers (test oracle for expand_relation)."""
    total = BetaClass.zero(ctx)
    factors: dict = {}
    for pt in enumerate_partitions(ell):
        term = BetaClass.one(ctx)
        for s, ms in enumerate(pt.m, start=1):
            if not ms:
                continue
            f = factors.get(s)
            if f is None:
                f = relation_factor(s, n, d, chi, ctx)
                factors[s] = f
            term = term * f**ms
        total = total + term * pt.coefficient()
    return total


# -- relation sets -----------------------------------------------------------


def high_generators(d: int) -> dict:
    return {
        "deg_d_minus_1": [(d, 0), (d - 1, 1), (d - 2, 2)],
        "deg_d": [(d + 1, 0), (d, 1), (d - 1, 2)],
    }


def mon1(d: int) -> list:
    out = []
    for g in [(d, 0), (d - 1, 1), (d - 2, 2)]:
        for u in [(2, 0), (0, 2)]:
            out.append(tuple(sorted((g, u), key=gen_key, reverse=True)))
    return out


def mon2(d: int) -> list:
    singles = [((d + 1, 0),), ((d, 1),), ((d - 1, 2),)]
    pairs = [
        tuple(sorted(((d - 1, 0), u), key=gen_key, reverse=True))
        for u in [(3, 0), (2, 1), (1, 2)]
    ]
    return singles + pairs


# the degree-1 generators c2(0) and c0(2) that multiply Ra^n
_RA_FACTORS = ((2, 0), (0, 2))


def _twelve_rows(ctx: TautContext, Ra: dict, Rb: dict, Rc: dict) -> list:
    """The 12 degree-d relations in their canonical order:
    c2(0)Ra^n, c0(2)Ra^n (n = 1..3 interleaved), then Rb^n, Rc^n."""
    c2, c0 = (GradedPoly.term(ctx, 1, [g]) for g in _RA_FACTORS)
    rows = []
    for n in (1, 2, 3):
        rows.append(c2 * Ra[n])
        rows.append(c0 * Ra[n])
    for n in (1, 2, 3):
        rows.append(Rb[n])
    for n in (1, 2, 3):
        rows.append(Rc[n])
    return rows


@dataclass
class RelationSet:
    """The relations at (d, chi).  pivot_monos are the twelve pivot
    monomials that the build's elimination of the twelve relations
    found, in column order."""

    d: int
    chi: object
    ctx: TautContext
    Ra: dict
    Rb: dict
    Rc: dict
    R1: GradedPoly
    R2: GradedPoly
    R3: GradedPoly
    det1: object
    det2: object
    pivot_monos: tuple

    @property
    def relations(self):
        return (self.R1, self.R2, self.R3)

    def twelve_relations(self) -> list:
        return _twelve_rows(self.ctx, self.Ra, self.Rb, self.Rc)

    def to_json(self) -> dict:
        return {
            "schema": "tautrel/relations/1",
            "d": self.d,
            "chi": str(self.chi),
            "det1": str(self.det1),
            "det2": str(self.det2),
            "R1": str(self.R1),
            "R2": str(self.R2),
            "R3": str(self.R3),
        }


def _twelve_entries(rel: RelationSet, monos) -> list:
    """The coefficients of the twelve relations at monos, rows in the
    order of _twelve_rows, without forming the products g Ra^n: a
    generator g multiplies monomials injectively, so the coefficient of
    m in g Ra^n is that of m/g in Ra^n, and zero when g does not divide m."""
    zero = rel.ctx.domain.zero
    rows = []
    for n in (1, 2, 3):
        for g in _RA_FACTORS:
            R = rel.Ra[n]
            rows.append([R.coeff(_without(m, g)) if g in m else zero for m in monos])
    for R in [rel.Rb[n] for n in (1, 2, 3)] + [rel.Rc[n] for n in (1, 2, 3)]:
        rows.append([R.coeff(m) for m in monos])
    return rows


def _without(mono: tuple, gen) -> tuple:
    """mono with one factor gen removed (gen divides mono)."""
    i = mono.index(gen)
    return mono[:i] + mono[i + 1:]


def _coeff_matrix(polys, monos, field) -> ExactMatrix:
    data = [[p.coeff(m) for m in monos] for p in polys]
    if all(p.ctx.domain == field for p in polys):
        # the coefficients are elements of field already
        return ExactMatrix._of(field, data)
    return ExactMatrix(field, data)


def _integer_rows(polys, monos) -> list:
    """The coefficient rows of relations over QQ at monos, each scaled by
    the lcm of its own denominators: integer rows spanning the same lines."""
    index = {m: j for j, m in enumerate(monos)}
    out = []
    for p in polys:
        lcd = math.lcm(*(c.denominator for c in p.terms.values()))
        row = [0] * len(monos)
        for m, c in p.terms.items():
            row[index[m]] = c.numerator * (lcd // c.denominator)
        out.append(row)
    return out


def _rref_relations(rows, field, keep: slice = slice(None)):
    """RREF of relation vectors over the occurring degree-d monomials.

    Returns (reduced GradedPolys, pivot monomials, ordered monomials);
    the pivot monomials are all of them, the reduced rows only those
    that keep selects, in pivot order.  Over QQ the rows are cleared of
    denominators and eliminated fraction-free by int_gauss_jordan; only
    the kept rows are divided by their pivots into Rats.  Over QQ(chi1),
    the symbolic-chi mode, ExactMatrix.rref eliminates them.
    """
    monos = sorted({m for p in rows for m in p.terms}, key=mono_key, reverse=True)
    ctx = rows[0].ctx
    if field is QQ:
        found = int_gauss_jordan(_integer_rows(rows, monos))
        pivots = [col for col, _ in found]
        reduced = [
            GradedPoly(ctx, {m: Rat(c, row[col]) for m, c in zip(monos, row) if c})
            for col, row in found[keep]
        ]
    else:
        R, pivots = _coeff_matrix(rows, monos, field).rref()
        is_zero = field.is_zero
        reduced = [
            GradedPoly(ctx, {m: c for m, c in zip(monos, row) if not is_zero(c)})
            for row in R.data[:len(pivots)][keep]
        ]
    return reduced, [monos[p] for p in pivots], monos


_REL_CACHE: dict = {}


def build_relation_set(d: int, chi=None, symbolic_chi: bool = False) -> RelationSet:
    """Compute the relation set at (d, chi); chi symbolic when requested.

    Concrete mode requires d >= 5, gcd(d, chi) = 1 and 0 < chi < d.
    """
    if d < 5:
        raise ValueError("d >= 5 required")
    key = (d, "sym" if symbolic_chi else int(chi))
    hit = _REL_CACHE.get(key)
    if hit is not None:
        return hit
    if not symbolic_chi:
        chi = int(chi)
        if math.gcd(d, chi) != 1:
            raise ValueError(f"chi={chi} not coprime to d={d}")
        if not 0 < chi < d:
            raise ValueError("0 < chi < d required")

    # expansion over a polynomial coefficient ring (no divisions), then
    # lifted into the fraction field for the elimination
    if symbolic_chi:
        ring = PolyDomain(("chi1",))
        ctx_ring = TautContext(ring, d)
        chi_ring = ring.gen("chi1")
        field = FracField(("chi1",))
        ctx = TautContext(field, d)

        def lift(p: GradedPoly) -> GradedPoly:
            return p.map_coeffs(lambda c: RatFunc(c), ctx)

    else:
        ctx_ring = TautContext(QQ, d)
        chi_ring = Rat(chi)
        field = QQ
        ctx = ctx_ring

        def lift(p: GradedPoly) -> GradedPoly:
            return p

    # Relations are rescaled by (-1)^(ell-d-1) (d-3)!: the smallest
    # factorial occurring among the contributing partitions, with the
    # sign that orients the ell = d+2 construction consistently.  This
    # is the normalization under which det1 and det2 take their
    # canonical closed forms (verified across d = 5..10).  It is folded
    # into the one division of the scaled pieces G_ell = ell! D^ell E_ell.
    fact = math.factorial(d - 3)
    Ra, Rb, Rc = {}, {}, {}
    for n in (1, 2, 3):
        G, D = _exp_series(n, d, chi_ring, ctx_ring, d + 2, top_b2_only=True)
        den1 = math.factorial(d + 1) * D ** (d + 1) * fact
        den2 = -math.factorial(d + 2) * D ** (d + 2) * fact
        Ra[n] = lift(_divided(beta_pushforward(G[d + 1], 0), den1, ctx_ring))
        Rb[n] = lift(_divided(beta_pushforward(G[d + 1], 1), den1, ctx_ring))
        # G[d + 2] is the beta^2 component alone: its pushforward with j = 0
        Rc[n] = lift(_divided(G[d + 2], den2, ctx_ring))

    det1 = _coeff_matrix(
        [Ra[n] for n in (1, 2, 3)], [(g,) for g in high_generators(d)["deg_d_minus_1"]], field
    ).det()
    det2 = _coeff_matrix(
        [Rb[1], Rb[2], Rb[3], Rc[1], Rc[2], Rc[3]], mon2(d), field
    ).det()
    if field.is_zero(det1) or field.is_zero(det2):
        raise SingularCheckpoint(f"det1={det1}, det2={det2} at (d,chi)=({d},{chi})")

    # only R1..R3, rows 9-11 of the echelon form, are kept
    reduced, pivot_monos, _ = _rref_relations(
        _twelve_rows(ctx, Ra, Rb, Rc), field, keep=slice(9, 12))
    if len(pivot_monos) != 12:
        raise SingularCheckpoint(
            f"relation span has rank {len(pivot_monos)} != 12 at (d,chi)=({d},{chi})"
        )
    expected_pivots = [
        tuple(sorted(((d - 1, 0), u), key=gen_key, reverse=True))
        for u in [(3, 0), (2, 1), (1, 2)]
    ]
    if pivot_monos[9:12] != expected_pivots:
        raise SingularCheckpoint(
            "echelon leading monomials differ from the canonical ones: "
            + ", ".join(mono_str(m) for m in pivot_monos[9:12])
        )
    # checked once here, so the block projections compare their bases
    # with d instead of re-reading every term
    for R in reduced:
        if R.degree() != d:
            raise DegreeMismatch(f"relation of degree {R.degree()} != d={d}")
    rel = RelationSet(d, chi if not symbolic_chi else "chi1", ctx, Ra, Rb, Rc,
                      *reduced, det1, det2, tuple(pivot_monos))
    _REL_CACHE[key] = rel
    return rel


def verify_rank12(d: int, chi: int, rel: RelationSet = None):
    """Rank and minor checkpoints on the 12 degree-d relations.

    Returns (ok, trace).  trace records the rank, the Mon1 minor
    determinant (must be det1^2) and the Mon2 minor determinant.

    Twelve rows have rank at most 12, so a nonzero 12x12 minor proves
    rank 12.  The minor taken is the one at the twelve pivot monomials
    of the build's own elimination (by det, which runs its own forward
    elimination), so the 12xN matrix is not eliminated a second time.
    Only when that minor vanishes, or no pivots are recorded, is the
    full rank computed (by the build's own elimination, fraction-free
    over QQ), so a broken relation set reports its true rank.  The
    minors' entries are read from Ra^n, Rb^n, Rc^n (_twelve_entries);
    the twelve relations themselves are formed only for that full rank.
    """
    if rel is None:
        rel = build_relation_set(d, chi)
    field = rel.ctx.domain
    pivots = rel.pivot_monos
    if len(pivots) == 12 and not field.is_zero(
            ExactMatrix._of(field, _twelve_entries(rel, pivots)).det()):
        rank = 12
    else:
        # only the pivots are read: no row is divided back
        rank = len(_rref_relations(rel.twelve_relations(), field, keep=slice(0))[1])
    # Mon1 minor: rows c2(0)Ra^n, c0(2)Ra^n interleaved match the column
    # pairing of Mon1, giving a block structure with determinant det1^2.
    m1 = ExactMatrix._of(field, _twelve_entries(rel, mon1(d))[0:6]).det()
    m2 = ExactMatrix._of(field, _twelve_entries(rel, mon2(d))[6:12]).det()
    ok = rank == 12 and m1 == rel.det1 * rel.det1 and not field.is_zero(m2)
    trace = {
        "rank": rank,
        "mon1_minor_det": m1,
        "det1_squared": rel.det1 * rel.det1,
        "mon2_minor_det": m2,
        "det2": rel.det2,
    }
    return ok, trace


def det1_formula(d: int, chi: int):
    """(-1)^d (d-2)^4 (d-1)/4 * chi (d-chi)(d-2chi)."""
    return (
        Rat((-1) ** d)
        * Rat((d - 2) ** 4 * (d - 1), 4)
        * Rat(chi * (d - chi) * (d - 2 * chi))
    )


def det2_formula(d: int):
    """4 (d-2)^6 (d-1)^3 d^4."""
    return Rat(4 * (d - 2) ** 6 * (d - 1) ** 3 * d**4)
