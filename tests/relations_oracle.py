"""Reference expansions and the reference relation build for the tests.

packed_series reads one n out of the one-pass packed integer recurrence
of tautrel.relations._exp_series.  expand_relation is the full
degree-ell piece E_ell of the exponential series, all three beta
components, read from that recurrence run two steps further (the run
computes no beta^0 component of its last two steps).
expand_relation_by_partitions is the literal sum over partition tuples
of products of factor powers, an expander independent of the
recurrence.

exp_series_one and eliminate_dense are the expansion and the relation
elimination as the build ran them before the one-pass expansion and the
leading-column elimination: the recurrence for one n at a time, with
the beta^2 component alone at its last step, and int_gauss_jordan over
every column of the dense 12xN integer matrix.  oracle_relation_set is
the build as it ran before it kept packed integer rows to the end: each
expansion (exp_series_one) packed on its own, every output coefficient
divided into a Rat, tuple monomials sorted by mono_key, each relation's
row scaled by the lcm of its own denominators before the integer
elimination, det1 and det2 read from tuple-monomial GradedPolys
(tautalg_oracle).
expansion caches the build's twelve packed rows at a point
(relations._expansion), which the cached RelationSet does not keep;
twelve_relations unpacks them into tuple-monomial GradedPolys, entries
divides their numerators at given monomials by their denominators, and
block_of_rows makes the block (relations._block) of altered rows.
high_generators, mon1, mon2, _RA_FACTORS, t2_basis, tk_basis and
sym2_basis are the monomial lists and block bases as the package wrote
them by hand before it read them from the layout in tautalg.
dual_involution is the algebra involution c_k(j) -> (-1)^k c_k(j) on the
relations, and beta_zero and beta_one the zero and unit beta classes.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType, SimpleNamespace

from linalg_oracle import det
from tautalg_oracle import (
    BetaClass,
    GradedPoly,
    TautContext,
    _mono_insert,
    as_poly,
    beta_pushforward,
    mono_key,
    relation_factor,
)
from tautrel.linalg import ExactMatrix, int_gauss_jordan
from tautrel.rat import QQ, ZZ, Rat
from tautrel.relations import (
    _block,
    _exp_series,
    _expansion,
    _factors,
    _generators,
    _numerators,
    _PackedBeta,
    _Packing,
)
from tautrel.tautalg import gen_key, tracked_monos


# -- the hand-written layout the package now reads from tautalg -------------


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


def t2_basis() -> list:
    """Ordered basis of the degree-2 generator block: rows s = 0, 1, 2."""
    return [((3 - s, s),) for s in range(3)]


def tk_basis(k: int) -> list:
    """Ordered basis of the degree-k generator block (k >= 2)."""
    return [((k + 1 - t, t),) for t in range(3)]


def sym2_basis() -> list:
    """Ordered basis of squares of degree-1 generators."""
    a, b = (2, 0), (0, 2)
    mk = lambda u, v: tuple(sorted((u, v), key=gen_key, reverse=True))
    return [mk(a, a), mk(a, b), mk(b, b)]


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


def packed_series(n: int, d: int, chi: int, upto: int) -> tuple:
    """(G, D, packing): the one-pass packed recurrence of n = 1, 2, 3 on
    the packing of their factors' generators, read at n: G[m] a
    _PackedBeta of {packed monomial: int} dicts, None where the pass
    computes no component, and D = D_n."""
    Fs = [_factors(k, d, chi, upto) for k in (1, 2, 3)]
    packing = _Packing(set().union(*map(_generators, Fs)), upto)
    G, Ds = _exp_series(Fs, packing)

    def at(part):
        return None if part is None else {m: t[n - 1] for m, t in part.items() if t[n - 1]}

    return [_PackedBeta(*map(at, g)) for g in G], Ds[n - 1], packing


def exp_series_one(F, packing) -> tuple:
    """(G, D): G_0..G_upto with G_m = m! D^m E_m for the factors F of one
    n, upto = len(F), on packing: G[m] a _PackedBeta of {packed monomial:
    int} dicts, except that G[upto] is its beta^2 component alone."""
    upto = len(F)
    D = 1
    for f in F:
        for part in f:
            for c in part.values():
                D = math.lcm(D, c.denominator)
    H = [None]
    for k, f in enumerate(F, start=1):
        s = math.factorial(k) * D**k
        H.append([[(packing.pack(m), ZZ.coerce(c * s)) for m, c in part.items()] for part in f])
    G = [_PackedBeta({0: 1}, {}, {})]
    for m in range(1, upto + 1):
        comps = (2,) if m == upto else (0, 1, 2)
        acc = [defaultdict(int) for _ in comps]
        w = 1  # (m-1)!/(m-k)!
        for k in range(1, m + 1):
            h, g = H[k], G[m - k]
            for i, out in zip(comps, acc):
                for a in range(i + 1):
                    for mh, ch in h[a]:
                        for mg, cg in g[i - a].items():
                            out[mh + mg] += w * ch * cg
            w *= m - k
        parts = [{mono: c for mono, c in terms.items() if c} for terms in acc]
        for part in parts:
            packing.check(part)
        G.append(parts[0] if m == upto else _PackedBeta(*parts))
    return G, D


def packed_series_one(n: int, d: int, chi: int, upto: int) -> tuple:
    """(G, D, packing): exp_series_one for n alone, on a packing of its
    own factors' generators."""
    F = _factors(n, d, chi, upto)
    packing = _Packing(_generators(F), upto)
    G, D = exp_series_one(F, packing)
    return G, D, packing


def eliminate_dense(rows) -> tuple:
    """(found, columns): int_gauss_jordan of the packed integer rows over
    every column of the dense matrix, its (col, row) pivot rows over
    columns, the distinct packed monomials of the rows in descending
    order."""
    columns = sorted(set().union(*rows), reverse=True)
    index = {m: j for j, m in enumerate(columns)}
    dense = []
    for row in rows:
        out = [0] * len(columns)
        for m, c in row.items():
            out[index[m]] = c
        dense.append(out)
    return int_gauss_jordan(dense), columns


def expand_relation(ell: int, n: int, d: int, chi, ctx: TautContext) -> BetaClass:
    """The full left-hand side of the generating identity in degree ell."""
    G, D, packing = packed_series(n, d, chi, ell + 2)
    den = math.factorial(ell) * D**ell
    # the beta^i component of G_ell has degree ell - i
    return BetaClass(*(as_poly(p, den, packing, ell - i, ctx) for i, p in enumerate(G[ell])))


def expand_relation_by_partitions(ell: int, n: int, d: int, chi, ctx: TautContext) -> BetaClass:
    """The literal sum over partition tuples of scaled factor powers."""
    total = beta_zero(ctx)
    factors: dict = {}
    for pt in enumerate_partitions(ell):
        term = beta_one(ctx)
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


def beta_zero(ctx: TautContext) -> BetaClass:
    z = GradedPoly.zero(ctx)
    return BetaClass(z, z, z)


def beta_one(ctx: TautContext) -> BetaClass:
    z = GradedPoly.zero(ctx)
    return BetaClass(GradedPoly.const(ctx, 1), z, z)


def dual_involution(p: GradedPoly) -> GradedPoly:
    """The algebra involution c_k(j) -> (-1)^k c_k(j)."""
    out = {}
    for m, c in p.terms.items():
        sign = sum(k for k, _ in m) & 1
        out[m] = -c if sign else c
    return GradedPoly(p.ctx, out)


# -- the reference relation build ---------------------------------------------


def coeff_matrix(polys, monos) -> ExactMatrix:
    """The coefficients of relations over QQ at monos, one row each."""
    return ExactMatrix._of(QQ, [[p.coeff(m) for m in monos] for p in polys])


def integer_rows(polys, monos) -> list:
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


def rref_relations(rows, keep: slice = slice(None)):
    """(reduced GradedPolys, pivot monomials, ordered monomials) of the
    relations rows over QQ: the rows cleared of denominators and
    eliminated by int_gauss_jordan at their monomials sorted by mono_key,
    only the kept reduced rows divided by their pivots."""
    monos = sorted({m for p in rows for m in p.terms}, key=mono_key, reverse=True)
    ctx = rows[0].ctx
    found = int_gauss_jordan(integer_rows(rows, monos))
    reduced = [
        GradedPoly(ctx, {m: Rat(c, row[col]) for m, c in zip(monos, row) if c})
        for col, row in found[keep]
    ]
    return reduced, [monos[col] for col, _ in found], monos


@lru_cache(maxsize=None)
def expansion(d: int, chi: int) -> tuple:
    """(packing, rows, dens) of relations._expansion at (d, chi), the rows
    read-only mappings (cached: the callers only read them)."""
    packing, rows, dens = _expansion(d, chi)
    return packing, tuple(map(MappingProxyType, rows)), tuple(dens)


def rat_rows(rows, dens) -> list:
    """The integer rows, row i over dens[i], as lists of Rats: a
    TrackedBlock's rows over its scales, or its R over its R_dens."""
    return [[Rat(x, den) for x in row] for row, den in zip(rows, dens)]


def entries(packing, rows, dens, monos) -> list:
    """The rational coefficients of the packed rows (row i over dens[i])
    at the tuple monomials monos, one numerator divided per entry."""
    return rat_rows(_numerators(packing, rows, monos), dens)


def block_of_rows(d: int, chi: int, rows):
    """The block (relations._block) of the packed rows, in place of the
    twelve rows at (d, chi), over their denominators."""
    packing, _, dens = expansion(d, chi)
    return _block(d, chi, _numerators(packing, rows, tracked_monos(d)), dens)


def twelve_relations(rel) -> list:
    """The twelve packed rows of the relation set rel as tuple-monomial
    GradedPolys."""
    ctx = TautContext(QQ, rel.d)
    packing, rows, dens = expansion(rel.d, rel.chi)
    return [as_poly(row, den, packing, rel.d, ctx) for row, den in zip(rows, dens)]


@lru_cache(maxsize=None)
def oracle_relation_set(d: int, chi: int):
    """The twelve relations (rows), R1..R3, det1, det2 and pivot_monos of
    the relation set at (d, chi), by the reference build (cached: the
    callers only read it)."""
    ctx = TautContext(QQ, d)
    fact = math.factorial(d - 3)
    Ra, Rb, Rc = {}, {}, {}
    for n in (1, 2, 3):
        G, D, packing = packed_series_one(n, d, chi, d + 2)
        den1 = math.factorial(d + 1) * D ** (d + 1) * fact
        den2 = -math.factorial(d + 2) * D ** (d + 2) * fact
        Ra[n] = as_poly(beta_pushforward(G[d + 1], 0), den1, packing, d - 1, ctx)
        Rb[n] = as_poly(beta_pushforward(G[d + 1], 1), den1, packing, d, ctx)
        Rc[n] = as_poly(G[d + 2], den2, packing, d, ctx)
    det1 = det(coeff_matrix([Ra[n] for n in (1, 2, 3)],
                            [(g,) for g in high_generators(d)["deg_d_minus_1"]]))
    det2 = det(coeff_matrix([Rb[1], Rb[2], Rb[3], Rc[1], Rc[2], Rc[3]], mon2(d)))
    rows = [GradedPoly(ctx, {_mono_insert(m, g): c for m, c in Ra[n].terms.items()})
            for n in (1, 2, 3) for g in _RA_FACTORS]
    rows += [Rb[n] for n in (1, 2, 3)] + [Rc[n] for n in (1, 2, 3)]
    reduced, pivot_monos, _ = rref_relations(rows, keep=slice(9, 12))
    for R in reduced:
        assert R.degree() == d
    assert len(pivot_monos) == 12
    assert pivot_monos[9:12] == [tuple(sorted(((d - 1, 0), u), key=gen_key, reverse=True))
                                 for u in [(3, 0), (2, 1), (1, 2)]]
    return SimpleNamespace(rows=rows, R1=reduced[0], R2=reduced[1], R3=reduced[2],
                           det1=det1, det2=det2, pivot_monos=tuple(pivot_monos))
