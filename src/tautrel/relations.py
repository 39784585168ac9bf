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
Of G_{d+2} only the beta^2 component is read (its pushforward gives
R_c^n), so the last step computes only that component: three of the
six products per k.

The recurrence runs on packed exponent vectors (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  Each generator c_k(j) of F_1..F_upto, upto =
d+2, owns a field of upto.bit_length() bits of one Python int, in
ascending gen_key order, so a monomial is an int and a product of
monomials one int addition.  No field carries: every generator has
degree >= 1 and the beta^i component of G_m is homogeneous of degree
m - i <= upto, so no exponent exceeds upto < 2^bits.  The build does
not assume this: unpacking checks each output monomial's degree, which
a carry would lower.  Only the output monomials are unpacked into
tuples, once each, in descending order; the rest of the package sees
tuple monomials only.

The build eliminates the twelve relations once and keeps the twelve
pivot monomials it found.  The elimination is fraction-free: each
relation's coefficient row is scaled by the lcm of its own denominators
to an integer row, linalg.int_gauss_jordan reduces the rows to
primitive pivot rows, and only R_1, R_2, R_3 (rows 9-11) are divided by
their pivot entries back into rationals; the result is the reduced row
echelon form over QQ, which is unique.  verify_rank12
certifies rank 12 by the nonzero 12x12 minor of the twelve relations
at those monomials, which needs no second elimination of the full
matrix; only when that minor vanishes does it take the full rank, by
the same elimination.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict, namedtuple
from dataclasses import dataclass

from .linalg import ExactMatrix, int_gauss_jordan
from .rat import QQ, ZZ, Rat
from .tautalg import (
    BetaClass,
    DegreeMismatch,
    GradedPoly,
    TautContext,
    _mono_insert,
    beta_pushforward,
    gen_degree,
    gen_key,
    mono_key,
    mono_str,
)


class SingularCheckpoint(ArithmeticError):
    """A determinant checkpoint vanished: invalid input or an upstream bug."""


# -- the beta-twisted factors -----------------------------------------------


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
    d_inv = dom.one / ctx.d
    half_a = dom.coerce(Rat(2 * n - 5, 2)) * ctx.d + chi
    diff = _ctilde(ctx, dom.one, s, 1) + _ctilde(ctx, -half_a * d_inv, s - 1, 2)
    b1 = _b_class(ctx, s - 1, n, chi, d_inv)
    b2 = _b_class(ctx, s - 2, n, chi, d_inv).scale(Rat(-1, 2))
    return BetaClass(diff, b1, b2)


# b0 + b1*beta + b2*beta^2 with {packed monomial: int} components
_PackedBeta = namedtuple("_PackedBeta", "b0 b1 b2")


class _Packing:
    """Packed exponent vectors over a fixed set of generators.

    Generator i, in ascending gen_key order, owns bits [i*bits, (i+1)*bits)
    of a Python int, so a monomial is one int and a product of monomials
    one int addition.  The exponents of a product are sums of exponents:
    they stay exact as long as none passes limit < 1 << bits, which the
    caller guarantees and unpack checks.  The highest generator sits in
    the highest field, so the packed ints order monomials as mono_key
    does.  Every generator must have a degree in 1..limit.
    """

    __slots__ = ("gens", "bits", "degs", "shift", "top")

    def __init__(self, gens, limit: int):
        self.gens = sorted(gens, key=gen_key)
        self.bits = limit.bit_length()
        self.degs = [gen_degree(g) for g in self.gens]
        if not all(1 <= deg <= limit for deg in self.degs):
            raise DegreeMismatch(f"a packed generator of degree outside 1..{limit}")
        self.shift = {g: i * self.bits for i, g in enumerate(self.gens)}
        self.top = len(self.gens) * self.bits

    def pack(self, mono) -> int:
        shift = self.shift
        return sum(1 << shift[g] for g in mono)

    def unpack(self, m: int, degree: int) -> tuple:
        """The tuple monomial (generators descending) of the packed m,
        which must have degree degree.  Only the nonzero fields are
        read, from the highest set bit down.  A carry out of a field
        takes 1 << bits from the exponent of a generator of degree >= 1
        and adds one to a generator of degree <= limit < 1 << bits, so
        it lowers the degree: the degree check sees every carry.
        """
        if m >> self.top:
            raise DegreeMismatch("a packed exponent carried past the last field")
        gens, bits, degs = self.gens, self.bits, self.degs
        out = []
        deg = 0
        while m:
            i = (m.bit_length() - 1) // bits
            low = i * bits
            e = m >> low
            m -= e << low
            out += (gens[i],) * e
            deg += e * degs[i]
        if deg != degree:
            raise DegreeMismatch(
                f"packed monomial of degree {deg} != {degree}: an exponent passed its field")
        return tuple(out)


def _exp_series(n: int, d: int, chi, ctx: TautContext, upto: int) -> tuple:
    """(G, D, packing): G_0..G_upto with G_m = m! D^m E_m, E = exp(sum_k (k-1)! F_k).

    D is the lcm of the coefficient denominators of F_1..F_upto; G runs
    over the integers, on monomials packed by packing.  G[m] is a
    _PackedBeta of {packed monomial: int} dicts, except that the last
    step computes only the beta^2 component of G_upto (three of the six
    products per k): G[upto] is that dict.
    """
    F = [(f.b0, f.b1, f.b2) for f in
         (relation_factor(k, n, d, chi, ctx) for k in range(1, upto + 1))]
    D = 1
    for f in F:
        for part in f:
            for c in part.terms.values():
                D = math.lcm(D, c.denominator)
    # every generator has degree >= 1 and G_m's beta^i component is
    # homogeneous of degree m - i, so no exponent exceeds upto < 1 << bits
    packing = _Packing({g for f in F for part in f for m in part.terms for g in m}, upto)
    H = [None]
    for k, f in enumerate(F, start=1):
        s = math.factorial(k) * D**k
        H.append([[(packing.pack(m), ZZ.coerce(c * s)) for m, c in part.terms.items()]
                  for part in f])
    G = [_PackedBeta({0: 1}, {}, {})]
    for m in range(1, upto + 1):
        comps = (2,) if m == upto else (0, 1, 2)
        # the sum over k accumulates in place; beta^i gets h_a g_{i-a}
        acc = [defaultdict(int) for _ in comps]
        w = 1  # (m-1)!/(m-k)!
        for k in range(1, m + 1):
            h, g = H[k], G[m - k]
            for i, out in zip(comps, acc):
                for a in range(i + 1):
                    _mul_into(out, h[a], g[i - a], w)
            w *= m - k
        parts = [{mono: c for mono, c in terms.items() if c} for terms in acc]
        G.append(parts[0] if m == upto else _PackedBeta(*parts))
    return G, D, packing


def _mul_into(out: defaultdict, h: list, g: dict, w: int) -> None:
    """out += w h g on packed monomials: h a list of (monomial,
    coefficient) pairs, g a dict.  One int addition per product of
    monomials and no call per term; out keeps the zeros of cancelled
    sums, for the caller to drop once."""
    g_terms = g.items()
    for mh, ch in h:
        ch *= w
        for mg, cg in g_terms:
            out[mh + mg] += ch * cg


def _divided(terms: dict, den: int, packing: _Packing, degree: int,
             ctx: TautContext) -> GradedPoly:
    """The packed integer terms, of the given degree, divided by den over
    ctx, in descending monomial order."""
    unpack = packing.unpack
    return GradedPoly(ctx, {unpack(m, degree): Rat(c, den)
                            for m, c in sorted(terms.items(), reverse=True)})


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
    c2(0)Ra^n, c0(2)Ra^n (n = 1..3 interleaved), then Rb^n, Rc^n.  A
    generator g multiplies monomials injectively, so g Ra^n is Ra^n with
    each monomial relabelled and its coefficient kept."""
    rows = []
    for n in (1, 2, 3):
        for g in _RA_FACTORS:
            rows.append(GradedPoly(ctx, {_mono_insert(m, g): c for m, c in Ra[n].terms.items()}))
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
    chi: int
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


def _coeff_matrix(polys, monos) -> ExactMatrix:
    """The coefficients of relations over QQ at monos, one row each."""
    return ExactMatrix._of(QQ, [[p.coeff(m) for m in monos] for p in polys])


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


def _rref_relations(rows, keep: slice = slice(None)):
    """RREF of relation vectors over QQ at the occurring degree-d monomials.

    Returns (reduced GradedPolys, pivot monomials, ordered monomials);
    the pivot monomials are all of them, the reduced rows only those
    that keep selects, in pivot order.  The rows are cleared of
    denominators and eliminated fraction-free by int_gauss_jordan; only
    the kept rows are divided by their pivots into Rats.
    """
    monos = sorted({m for p in rows for m in p.terms}, key=mono_key, reverse=True)
    ctx = rows[0].ctx
    found = int_gauss_jordan(_integer_rows(rows, monos))
    reduced = [
        GradedPoly(ctx, {m: Rat(c, row[col]) for m, c in zip(monos, row) if c})
        for col, row in found[keep]
    ]
    return reduced, [monos[col] for col, _ in found], monos


_REL_CACHE: dict = {}


def build_relation_set(d: int, chi: int) -> RelationSet:
    """Compute the relation set at (d, chi).

    Requires d >= 5, an integer chi, gcd(d, chi) = 1 and 0 < chi < d.
    """
    if d < 5:
        raise ValueError("d >= 5 required")
    chi = operator.index(chi)  # a float or Fraction raises, not truncates
    if math.gcd(d, chi) != 1:
        raise ValueError(f"chi={chi} not coprime to d={d}")
    if not 0 < chi < d:
        raise ValueError("0 < chi < d required")
    key = (d, chi)
    hit = _REL_CACHE.get(key)
    if hit is not None:
        return hit

    ctx = TautContext(QQ, d)
    # Relations are rescaled by (-1)^(ell-d-1) (d-3)!: the smallest
    # factorial occurring among the contributing partitions, with the
    # sign that orients the ell = d+2 construction consistently.  This
    # is the normalization under which det1 and det2 take their
    # canonical closed forms (verified across d = 5..10).  It is folded
    # into the one division of the scaled pieces G_ell = ell! D^ell E_ell.
    fact = math.factorial(d - 3)
    Ra, Rb, Rc = {}, {}, {}
    for n in (1, 2, 3):
        G, D, packing = _exp_series(n, d, Rat(chi), ctx, d + 2)
        den1 = math.factorial(d + 1) * D ** (d + 1) * fact
        den2 = -math.factorial(d + 2) * D ** (d + 2) * fact
        Ra[n] = _divided(beta_pushforward(G[d + 1], 0), den1, packing, d - 1, ctx)
        Rb[n] = _divided(beta_pushforward(G[d + 1], 1), den1, packing, d, ctx)
        # G[d + 2] is the beta^2 component alone: its pushforward with j = 0
        Rc[n] = _divided(G[d + 2], den2, packing, d, ctx)

    det1 = _coeff_matrix(
        [Ra[n] for n in (1, 2, 3)], [(g,) for g in high_generators(d)["deg_d_minus_1"]]
    ).det()
    det2 = _coeff_matrix([Rb[1], Rb[2], Rb[3], Rc[1], Rc[2], Rc[3]], mon2(d)).det()
    if not det1 or not det2:
        raise SingularCheckpoint(f"det1={det1}, det2={det2} at (d,chi)=({d},{chi})")

    # only R1..R3, rows 9-11 of the echelon form, are kept
    reduced, pivot_monos, _ = _rref_relations(
        _twelve_rows(ctx, Ra, Rb, Rc), keep=slice(9, 12))
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
    rel = RelationSet(d, chi, ctx, Ra, Rb, Rc, *reduced, det1, det2, tuple(pivot_monos))
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
    pivots = rel.pivot_monos
    if len(pivots) == 12 and ExactMatrix._of(QQ, _twelve_entries(rel, pivots)).det():
        rank = 12
    else:
        # only the pivots are read: no row is divided back
        rank = len(_rref_relations(rel.twelve_relations(), keep=slice(0))[1])
    # Mon1 minor: rows c2(0)Ra^n, c0(2)Ra^n interleaved match the column
    # pairing of Mon1, giving a block structure with determinant det1^2.
    m1 = ExactMatrix._of(QQ, _twelve_entries(rel, mon1(d))[0:6]).det()
    m2 = ExactMatrix._of(QQ, _twelve_entries(rel, mon2(d))[6:12]).det()
    ok = rank == 12 and m1 == rel.det1 * rel.det1 and m2 != 0
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
