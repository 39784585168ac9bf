"""Production of the degree-d relations.

Every consumer reads the twelve degree-d relations at (d, chi) as one
12x27 block (TrackedBlock): their entries at the 27 tracked monomials
of tautalg's layout.  One constructor, _block, makes every block from
its twelve integer rows over their scales, by one elimination: its
pivots, and R1..R3 at the 27 columns as rows 9-11 of the rows' reduced
row echelon form (symbolic.point_echelon), and det1 and det2, the
minors of the rows (_dets).  Two functions give it the rows:

- tracked_block(d, chi) evaluates the closed form of exp(L) at the
  tracked columns, derived once in symbolic's docstring, at the point,
  in about the same time at every d.  verify and emit --what matrices
  read it.
- build_relation_set(d, chi) expands every relation in full by the
  recurrence below, which does not use the closed form.  It serves
  emit --what relations, which prints whole rows, and verify --mode
  symbolic, which checks the symbolic blocks against it; the tests
  check the closed form against it.  The build gives _block the
  numerators of its own rows at the 27 columns over their
  denominators, once, and keeps the block (RelationSet.block), so the
  recurrence feeds the same consumers.

The pivots.  For d >= 5 the twelve layout pivots, mon1(d) and mon2(d),
are the twelve largest degree-d monomials, and they are the first
twelve of tautalg.tracked_monos(d).  Every generator has degree >= 1,
and a large generator (degree >= d-2 >= 3) sorts above every small one
(degree <= 2), so a degree-d monomial has at most one large generator
(2(d-2) > d) and sorts by it first.  The degree-d ones headed by a
generator of degree d are the three of LARGE[0]; those headed by one of
degree d-1 are LARGE[1] times a degree-1 generator, DEG1 (c1(1)
vanishes); the highest generator of degree d-2 is c_{d-1}(0), and of
the monomials it heads, the three with a degree-2 generator (DEG2) sort
above the products of two degree-1 ones, because DEG2 sorts above DEG1.
Every other degree-d monomial sorts below these twelve.  So when the
12x12 minor at them is nonzero they are the pivots of the echelon form,
which is P^-1 A for that minor P: R1..R3 at the 27 columns read no
other column, and each R_i's leading monomial is its pivot.  The same
argument gives the build its R1..R3 over every monomial: the twelve
pivots lead every row, so the echelon form of the full rows is P^-1
times them too, and its rows are the integer combinations of the rows
that an elimination of the twelve pivot columns alone records.

The recurrence.  For each n in {1,2,3} the generating identity is a
sum over partition tuples of products of beta-twisted linear factors;
summed over all partitions it is the degree-ell piece of
exp(sum_k (k-1)! F_k), so the full expansion is computed by the
standard recurrence m*E_m = sum_k k!*F_k*E_{m-k}.  Pushing forward the degree d+1 and d+2
pieces yields the nine relations R_a^n, R_b^n, R_c^n; eliminating the
nine monomials that involve generators of degree d-1 and d leaves the
three canonical relations R_1, R_2, R_3 in row echelon form.

The recurrence runs fraction-free.  With D_n the lcm of the coefficient
denominators of the factors F_1..F_upto of n, the factors H_k = k! D_n^k
F_k have integer coefficients, and G_m = m! D_n^m E_m obeys
G_m = sum_k ((m-1)!/(m-k)!) H_k G_{m-k}  (multiply the recurrence by
(m-1)! D_n^m).  The weights (m-1)!/(m-k)! are integers for k >= 1, so
every G_m is computed with integer additions and multiplications only.
Since G_m = m! D_n^m E_m holds exactly, the coefficients of E_m are
those of G_m over m! D_n^m.  The three series n = 1, 2, 3 run in one
pass: factor_table gives F_k the same terms for every n, only their
coefficients differ, so a term of H_k or G_m carries a triple of
integers, one per n, and each product of monomials is formed once for
the three.  Only the components the pushforwards read are computed:
beta^1 and beta^2 of G_{d+1} (R_b^n and R_a^n) and beta^2 of G_{d+2}
(R_c^n).  The beta^2 component of G_{d+2} would read G_{d+1}'s beta^0
one only through the beta^2 terms of F_1, which has none; the pass
checks that rather than assume it.

The recurrence runs on packed exponent vectors (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  One packing serves the whole build: each
generator c_k(j) of the factors F_1..F_upto of n = 1, 2, 3, upto = d+2,
owns a field of one Python int, in ascending gen_key order, so a
monomial is an int, a product of monomials one int addition, and the
packed ints order monomials as the monomial order does.  A field holds
upto.bit_length() value bits and one guard bit above them.  After each
recurrence step every monomial of G_m is tested against the guard bits,
which detects any overflow: the monomials of each product passed the
test before (the factors' ones have exponents 0 and 1), so their
exponents are below 2^bits; the sum of two such exponents is below
2^(bits+1), so it fits in the field with its guard bit, carries into no
other field, and sets the guard bit exactly when it leaves the value
bits.  No build trips it (every generator has degree >= 1 and the
beta^i component of G_m is homogeneous of degree m - i, so no exponent
exceeds upto < 2^bits), but the build does not assume this.

The twelve relations are packed integer rows (_expansion): the
numerators of Ra^n, Rb^n and Rc^n as the recurrence leaves them,
{packed monomial: int}, each over one denominator, (d+1)! D_n^(d+1)
for the pushforwards of G_{d+1} and -(d+2)! D_n^(d+2) for that of
G_{d+2}, the (d-3)! normalization and its sign folded in.  c2(0) Ra^n
and c0(2) Ra^n add the generator's unit to each key of Ra^n.  The
packed ints order the monomials as the descending monomial order
does.  The build reads the numerators of the rows at the 27 tracked
monomials (_numerators, one lookup per coefficient) and makes its
block from them over the denominators (_block).  It refuses the point
(SingularCheckpoint) unless det1 and det2 are nonzero, the block's
pivots are its columns 0..11 and the twelve largest packed monomials
of the rows, each checked to have degree d, are the first twelve
tracked monomials, so that those columns are the rows' entries at
their twelve leading monomials.  R_1, R_2, R_3 are rows 9-11 of the
reduced row echelon form over QQ, which is unique: int_gauss_jordan
of [block columns 0..11 | 12x12 identity] reduces those columns to a
diagonal, and each echelon row, the vector of the row space fixed by
its pivot coordinates, is the integer combination of the rows that the
identity part records, made primitive and positive at its pivot.  No input row
is divided by its denominator, since the result does not depend on how
an input row is scaled.  R_1..R_3 are kept packed, each over its pivot
entry: divided by it they are the rows of the reduced row echelon
form, and each of their monomials is unpacked once and checked to have
degree d.  The R_1..R_3 of a RelationSet are read-only mappings, since
the set is cached; the twelve rows are not kept, since nothing outside
the build reads them.

The monomials read by name (det1's, the minors', the 27 of a block) and
the multipliers of Ra^n come from tautalg's layout.

The factors F_s come from tautalg.factor_table, the one definition of
their eight terms and of the degenerate symbols that symbolic's closed
form reads too: each coefficient is evaluated at (d, chi) and signed
into the c_k(j) basis (_factors).

One elimination per block.  verify_rank12 reads the rank as the number
of the block's pivots, which the elimination that made the block found,
and computes only the Mon1 minor, which must be det1^2; the Mon2 minor
of rows 6-11 is det2 itself, since _dets took det2 from the same rows.
The rank is that of the block's rows at the 27 columns: a lower bound of
the rank of the full rows, equal to it when it is 12.  At a valid point
it is 12 (symbolic's docstring), so only a broken block reports less,
and it fails the check, as it should: the layout columns are then not
its pivots, so R1..R3 cannot be read off it.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

from .linalg import ExactMatrix, int_gauss_jordan
from .mpoly import signed_term
from .rat import QQ, ZZ, Rat
from .symbolic import point_echelon, tracked_rows_at
from .tautalg import (
    DEG1,
    DEG2,
    LARGE,
    DegreeMismatch,
    factor_table,
    gen_degree,
    gen_key,
    large_gen,
    mono_str,
    tracked_monos,
    twisted_symbol,
)


class SingularCheckpoint(ArithmeticError):
    """A determinant checkpoint vanished: invalid input or an upstream bug."""


# -- the beta-twisted factors -----------------------------------------------


def _factors(n: int, d: int, chi: int, upto: int) -> list:
    """F_1..F_upto at (n, d, chi), each as its (b0, b1, b2) components
    {tuple monomial: Rat}: the terms of factor_table evaluated at (d, chi)
    and signed (-1)^(k+1) into the c_k(j) basis, the scalar ct_0(1) = -d
    folded into the constant term."""
    at = [(beta, sum(x * Rat(d) ** a * chi**b for (a, b), x in lau.items()), offset, j)
          for beta, lau, offset, j in factor_table(n)]
    out = []
    for s in range(1, upto + 1):
        parts = ({}, {}, {})
        for beta, c, offset, j in at:
            k = s + offset
            sym = twisted_symbol(k, j)
            if sym is None:
                continue
            if sym:
                parts[beta][(sym,)] = c if k & 1 else -c
            else:
                parts[beta][()] = -d * c
        out.append(parts)
    return out


def _generators(F) -> set:
    """The generators occurring in the factors F."""
    return {g for f in F for part in f for m in part for g in m}


# b0 + b1*beta + b2*beta^2 with {packed monomial: int} components
_PackedBeta = namedtuple("_PackedBeta", "b0 b1 b2")


class _Packing:
    """Packed exponent vectors over a fixed set of generators.

    Generator i, in ascending gen_key order, owns the field of width =
    bits + 1 bits at shift i*width of a Python int: bits value bits,
    bits = limit.bit_length(), so exponents up to limit fit, and a guard
    bit above them.  A monomial is one int and a product of monomials
    one int addition, exact as long as no exponent reaches its guard bit
    (check).  The highest generator sits in the highest field, so the
    packed ints order monomials as the monomial order does: generator
    by generator, highest first, by gen_key.  Every generator must
    have a degree in 1..limit.

    A packing is read-only: gens and degs are tuples, shift a read-only
    mapping, and no attribute can be set once it is made.  The relation
    set the cache hands out shares it, so a change would reach every
    later reader of that set.
    """

    __slots__ = ("gens", "bits", "width", "degs", "shift", "guard", "top")

    def __init__(self, gens, limit: int):
        gens = tuple(sorted(gens, key=gen_key))
        bits = limit.bit_length()
        width = bits + 1
        degs = tuple(gen_degree(g) for g in gens)
        if not all(1 <= deg <= limit for deg in degs):
            raise DegreeMismatch(f"a packed generator of degree outside 1..{limit}")
        shift = MappingProxyType({g: i * width for i, g in enumerate(gens)})
        for name, value in (("gens", gens), ("bits", bits), ("width", width), ("degs", degs),
                            ("shift", shift),
                            ("guard", sum(1 << (s + bits) for s in shift.values())),
                            ("top", len(gens) * width)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a packing is read-only: {name} cannot be set")

    def __delattr__(self, name):
        raise AttributeError(f"a packing is read-only: {name} cannot be deleted")

    def pack(self, mono) -> int:
        shift = self.shift
        return sum(1 << shift[g] for g in mono)

    def check(self, monos) -> None:
        """Raise DegreeMismatch when some packed monomial of monos has an
        exponent that reached its guard bit: one OR over the monomials,
        one AND with the guard bits."""
        if reduce(operator.or_, monos, 0) & self.guard:
            raise DegreeMismatch("a packed exponent reached the guard bit of its field")

    def unpack(self, m: int, degree: int) -> tuple:
        """The tuple monomial (generators descending) of the packed m,
        which must have degree degree.  Only the nonzero fields are
        read, from the highest set bit down.  An exponent that reached
        its guard bit or left the last field is refused; one that
        carried into the next field took 1 << width from the exponent of
        a generator of degree >= 1 and added one to a generator of degree
        <= limit < 1 << width, so it lowered the degree, which is checked.
        """
        if m & self.guard or m >> self.top:
            raise DegreeMismatch("a packed exponent passed the value bits of its field")
        gens, width, degs = self.gens, self.width, self.degs
        out = []
        deg = 0
        while m:
            i = (m.bit_length() - 1) // width
            low = i * width
            e = m >> low
            m -= e << low
            out += (gens[i],) * e
            deg += e * degs[i]
        if deg != degree:
            raise DegreeMismatch(
                f"packed monomial of degree {deg} != {degree}: an exponent passed its field")
        return tuple(out)


def _exp_series(Fs, packing: _Packing) -> tuple:
    """(G, Ds): the three series of the factors Fs = (F^1, F^2, F^3) of
    n = 1, 2, 3 in one pass, G_m = m! D_n^m E_m for E = exp(sum_k (k-1)!
    F^n_k), m = 0..upto, upto = len(F^n).

    D_n, Ds[n-1], is the lcm of the coefficient denominators of F^n.
    G[m] is a _PackedBeta of {packed monomial: [g1, g2, g3]} dicts, the
    coefficient of n in place n-1, kept where one of the three is
    nonzero; packing must hold every generator of Fs.  G_upto has its
    beta^2 component alone and G_(upto-1) no beta^0 one (None), which
    F_1 must have no beta^2 term for.  Every monomial of every step is
    checked against the guard bits of packing (see the module
    docstring).
    """
    upto = len(Fs[0])
    Ds = [math.lcm(*(c.denominator for f in F for part in f for c in part.values()))
          for F in Fs]
    H = [None]
    for k, fs in enumerate(zip(*Fs), start=1):
        scales = [math.factorial(k) * D**k for D in Ds]
        H.append([[(packing.pack(m), tuple(ZZ.coerce(part.get(m, 0) * s)
                                           for part, s in zip(parts, scales)))
                    for m in {m: None for part in parts for m in part}]
                   for parts in zip(*fs)])
    if upto >= 2 and H[1][2]:
        raise ValueError("F_1 has a beta^2 term, which reads the uncomputed G_(upto-1).b0")
    G = [_PackedBeta({0: (1, 1, 1)}, {}, {})]
    for m in range(1, upto + 1):
        comps = (2,) if m == upto else (1, 2) if m == upto - 1 else (0, 1, 2)
        parts = [None, None, None]
        for i in comps:
            # the sum over k accumulates in place; beta^i gets h_a g_{i-a}
            out = {}
            w = 1  # (m-1)!/(m-k)!
            for k in range(1, m + 1):
                h, g = H[k], G[m - k]
                for a in range(i + 1):
                    if h[a]:
                        _mul_into(out, h[a], g[i - a], w)
                w *= m - k
            parts[i] = {mono: t for mono, t in out.items() if any(t)}
            packing.check(parts[i])
        G.append(_PackedBeta(*parts))
    return G, Ds


def _mul_into(out: dict, h: list, g: dict, w: int) -> None:
    """out += w h g on packed monomials with coefficient triples, one per
    n: h a list of (monomial, (h1, h2, h3)) pairs, g a dict of triples.
    One int addition per product of monomials, one dict lookup per
    product and no call per term; out holds fresh lists, and keeps the
    zeros of cancelled sums, for the caller to drop once."""
    get = out.get
    g_terms = g.items()
    for mh, (a, b, c) in h:
        a *= w
        b *= w
        c *= w
        for mg, (x, y, z) in g_terms:
            key = mh + mg
            t = get(key)
            if t is None:
                out[key] = [a * x, b * y, c * z]
            else:
                t[0] += a * x
                t[1] += b * y
                t[2] += c * z


# -- relation sets -----------------------------------------------------------


def mon1(d: int) -> list:
    """The Mon1 minor's monomials: degree d-1 times degree 1."""
    return [(large_gen(d, o), u) for o in LARGE[1] for u in DEG1]


def mon2(d: int) -> list:
    """The Mon2 minor's monomials: degree d, then R1..R3's leading ones."""
    lead = large_gen(d, LARGE[2][0])
    return [(large_gen(d, o),) for o in LARGE[0]] + [(lead, u) for u in DEG2]


def _numerators(packing: _Packing, rows, monos) -> list:
    """The integer numerators of the packed rows at the tuple monomials
    monos.  A monomial with a generator outside packing reads as 0."""
    shift = packing.shift
    keys = [packing.pack(m) if all(g in shift for g in m) else None for m in monos]
    return [[row.get(k, 0) for k in keys] for row in rows]


# -- the twelve relations at the 27 tracked monomials ------------------------


@dataclass(frozen=True)
class TrackedBlock:
    """The twelve degree-d relations at (d, chi), in the order of
    _expansion, at the 27 tracked monomials tracked_monos(d): rows is
    12 tuples of 27 rationals; pivots are the pivot columns of their
    reduced row echelon form, as many as its rank; R holds R1, R2, R3 at
    the same columns, its rows 9-11 (a zero row past the rank); det1 and
    det2 are the minors of rows (_dets).  _block makes every block, all
    of it from the rows, by one elimination."""

    d: int
    chi: int
    rows: tuple
    pivots: tuple
    R: tuple
    det1: object
    det2: object

    def leading_monos(self) -> list:
        """The leading monomials of R1, R2, R3 (None for a zero row): each
        row's first nonzero column, its pivot (module docstring)."""
        monos = tracked_monos(self.d)
        return [next((m for m, x in zip(monos, row) if x), None) for row in self.R]


def _minor(rows, d: int, monos):
    """The determinant of rows at the tracked monomials monos of d."""
    index = {m: i for i, m in enumerate(tracked_monos(d))}
    cols = [index[m] for m in monos]
    return ExactMatrix._of(QQ, [[row[j] for j in cols] for row in rows]).det()


def _dets(rows, d: int) -> tuple:
    """(det1, det2) of the twelve rows at the tracked monomials of d:
    det1 the minor of Ra^n at LARGE[1], read off the c2(0) Ra^n rows at
    LARGE[1] x c2(0), and det2 that of Rb^n, Rc^n at mon2(d)."""
    return _minor(rows[0:6:2], d, mon1(d)[0::2]), _minor(rows[6:12], d, mon2(d))


def _block(d: int, chi: int, ints, scales) -> TrackedBlock:
    """The block of the twelve integer rows ints at the 27 tracked
    monomials of d, row i over scales[i]: its pivots and R1..R3 from one
    elimination of ints (symbolic.point_echelon), det1 and det2 the
    minors of its rows (_dets)."""
    rows = tuple(tuple(Rat(x, s) for x in row) for row, s in zip(ints, scales))
    return TrackedBlock(d, chi, rows, *point_echelon(ints), *_dets(rows, d))


def tracked_block(d: int, chi: int) -> TrackedBlock:
    """The twelve degree-d relations at the 27 tracked monomials at
    (d, chi): the integer rows of symbolic.tracked_rows_at, the closed
    form at the point, over their scales times (-1)^d (symbolic's
    docstring).  The points are those of build_relation_set."""
    chi = _checked_point(d, chi)
    ints, scales = tracked_rows_at(d, chi)
    sign = -1 if d & 1 else 1
    return _block(d, chi, ints, [sign * s for s in scales])


@dataclass(frozen=True)
class RelationSet:
    """The relations at (d, chi).  R_rows are the canonical relations R1,
    R2, R3 over every monomial, rows 9-11 of the echelon form of the
    twelve degree-d relations, each a read-only {packed monomial: int}
    over packing and over its pivot entry R_pivots[i]; block is the
    twelve relations at the 27 tracked monomials (_block), made once by
    the build."""

    d: int
    chi: int
    packing: _Packing
    R_rows: tuple
    R_pivots: tuple
    block: TrackedBlock

    def to_json(self) -> dict:
        out = {
            "schema": "tautrel/relations/1",
            "d": self.d,
            "chi": str(self.chi),
            "det1": str(self.block.det1),
            "det2": str(self.block.det2),
        }
        for i, (row, pivot) in enumerate(zip(self.R_rows, self.R_pivots), start=1):
            # descending keys are descending monomials
            parts = []
            for m in sorted(row, reverse=True):
                body = mono_str(self.packing.unpack(m, self.d))
                parts.append(signed_term(Rat(row[m], pivot), body, bool(parts)))
            out[f"R{i}"] = "".join(parts) or "0"
        return out


_REL_CACHE: dict = {}


def _checked_point(d: int, chi: int) -> int:
    """chi as an int, once (d, chi) is a point the relations are made at:
    d >= 5, gcd(d, chi) = 1 and 0 < chi < d; ValueError otherwise, and
    TypeError for a chi that is not an integer."""
    if d < 5:
        raise ValueError("d >= 5 required")
    chi = operator.index(chi)  # a float or Fraction raises, not truncates
    if math.gcd(d, chi) != 1:
        raise ValueError(f"chi={chi} not coprime to d={d}")
    if not 0 < chi < d:
        raise ValueError("0 < chi < d required")
    return chi


def _expansion(d: int, chi: int) -> tuple:
    """(packing, rows, dens): the twelve degree-d relations at (d, chi) in
    their canonical order, c2(0)Ra^n, c0(2)Ra^n (n = 1..3 interleaved),
    then Rb^n, Rc^n, as packed numerator rows {packed monomial: int}
    over packing, row i over dens[i].  A generator g multiplies
    monomials injectively, so g Ra^n is Ra^n with g's unit added to each
    key and its coefficients kept."""
    factors = [_factors(n, d, chi, d + 2) for n in (1, 2, 3)]
    # one packing for n = 1, 2, 3, so the twelve rows share their columns
    packing = _Packing(set().union(*map(_generators, factors)), d + 2)
    # Relations are rescaled by (-1)^(ell-d-1) (d-3)!: the smallest
    # factorial occurring among the contributing partitions, with the
    # sign that orients the ell = d+2 construction consistently.  This
    # is the normalization under which det1 and det2 take their
    # canonical closed forms (verified across d = 5..10).  It is folded
    # into the denominators of the scaled pieces G_ell = ell! D^ell E_ell.
    fact = math.factorial(d - 3)
    G, Ds = _exp_series(factors, packing)
    den1 = [math.factorial(d + 1) * D ** (d + 1) * fact for D in Ds]
    den2 = [-math.factorial(d + 2) * D ** (d + 2) * fact for D in Ds]
    # the pushforward of x beta^j reads the beta^(2-j) component of x
    Ra, Rb, Rc = ([{m: t[n] for m, t in part.items() if t[n]} for n in range(3)]
                  for part in (G[d + 1].b2, G[d + 1].b1, G[d + 2].b2))
    # nothing else of the series is read: free it before the rows are
    # made, which lowers the build's peak memory
    del G
    units = [packing.pack((g,)) for g in DEG1]
    rows = [{m + unit: c for m, c in R.items()} for R in Ra for unit in units]
    return packing, rows + Rb + Rc, [den for den in den1 for _ in units] + den1 + den2


def build_relation_set(d: int, chi: int) -> RelationSet:
    """Compute the relation set at (d, chi).

    Requires d >= 5, an integer chi, gcd(d, chi) = 1 and 0 < chi < d.
    """
    chi = _checked_point(d, chi)
    key = (d, chi)
    hit = _REL_CACHE.get(key)
    if hit is not None:
        return hit

    packing, rows, dens = _expansion(d, chi)
    monos = tracked_monos(d)
    ints = _numerators(packing, rows, monos)
    block = _block(d, chi, ints, dens)
    # the twelve largest monomials, each checked to have degree d, lead
    # every row when they are the block's pivot columns 0..11
    lead = sorted(set().union(*rows), reverse=True)[:12]
    if ([packing.unpack(m, d) for m in lead] != monos[:12] or not block.det1
            or not block.det2 or block.pivots != tuple(range(12))):
        raise SingularCheckpoint(
            f"det1={block.det1}, det2={block.det2}, pivots {block.pivots} at "
            f"(d,chi)=({d},{chi}): the twelve layout pivots do not lead the relations")
    # R1..R3, rows 9-11 of the echelon form, are the integer combinations
    # of the rows that the identity part records
    unit = [[int(i == k) for k in range(12)] for i in range(12)]
    found = int_gauss_jordan([row[:12] + e for row, e in zip(ints, unit)])
    R_rows = []
    for (_, t), pivot in zip(found[9:], lead[9:]):
        acc = defaultdict(int)
        for f, row in zip(t[12:], rows):
            if f:
                for m, c in row.items():
                    acc[m] += f * c
        g = math.gcd(*acc.values())
        if acc[pivot] < 0:
            g = -g
        R_rows.append({m: acc[m] // g for m in sorted(acc, reverse=True) if acc[m]})
    # R1..R3 stay packed over their pivot entries; a monomial that
    # several of them hold is checked once
    for m in set().union(*R_rows):
        packing.unpack(m, d)
    R_pivots = tuple(row[m] for row, m in zip(R_rows, lead[9:]))
    rel = RelationSet(d, chi, packing, tuple(map(MappingProxyType, R_rows)), R_pivots, block)
    _REL_CACHE[key] = rel
    return rel


def verify_rank12(block: TrackedBlock):
    """Rank and minor checkpoints on the 12 degree-d relations of block.

    Returns (ok, trace).  trace records the rank, the number of the
    block's pivots (must be 12), the Mon1 minor determinant (must be
    det1^2) and the Mon2 minor determinant of rows 6-11, Rb^n and Rc^n,
    which is det2: _dets took it from the same rows.  Nothing is
    eliminated: the block's one elimination gave its pivots (module
    docstring).
    """
    d = block.d
    rank = len(block.pivots)
    # Mon1 minor: rows c2(0)Ra^n, c0(2)Ra^n interleaved match the column
    # pairing of Mon1, giving a block structure with determinant det1^2.
    m1 = _minor(block.rows[0:6], d, mon1(d))
    ok = rank == 12 and m1 == block.det1 * block.det1
    trace = {
        "rank": rank,
        "mon1_minor_det": m1,
        "det1_squared": block.det1 * block.det1,
        "mon2_minor_det": block.det2,
        "det2": block.det2,
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
