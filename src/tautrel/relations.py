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
of G_m over m! D^m.  Of G_{d+2} only the beta^2 component is read (its
pushforward gives R_c^n), so the last step computes only that
component: three of the six products per k.

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

The twelve relations are packed integer rows: the numerators of Ra^n,
Rb^n and Rc^n as the recurrence leaves them, {packed monomial: int},
each over one denominator, (d+1)! D^(d+1) for the pushforwards of
G_{d+1} and -(d+2)! D^(d+2) for that of G_{d+2}, the (d-3)!
normalization and its sign folded in.  c2(0) Ra^n and c0(2) Ra^n add
the generator's unit to each key of Ra^n.  The columns are the distinct
packed monomials in descending order, which is the descending monomial
order, and linalg.int_gauss_jordan eliminates the rows as they are:
its pivot rows are primitive and positive at the pivot, so its output
does not change when an input row is scaled by a nonzero integer,
negative ones included.  R_1, R_2, R_3 are rows 9-11 of its output,
kept packed, each over its pivot entry: divided by it they are the
reduced row echelon form over QQ, which is unique.  The build unpacks
the twelve pivot monomials and the monomials of R_1..R_3, each checked
to have degree d.  Every coefficient is read by one point read,
_entries: det1, det2, the minors of verify_rank12 and the M/N blocks
of truncation pack the monomials they read, look them up, and divide
one numerator by its row's denominator.

The monomials read by name (det1's, the minors', the leading ones of
R1..R3) and the multipliers of Ra^n come from tautalg's layout.

The factors F_s come from tautalg.factor_table, the one definition of
their eight terms and of the degenerate symbols that symbolic expands
too: each coefficient is evaluated at (d, chi) and signed into the
c_k(j) basis.

verify_rank12 certifies rank 12 by the nonzero 12x12 minor of the
twelve relations at the build's pivot monomials, which needs no second
elimination; only when that minor vanishes does it take the full rank,
by the same elimination of the same integer rows.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from functools import reduce
from itertools import compress

from .linalg import ExactMatrix, int_gauss_jordan
from .mpoly import _signed_term
from .rat import QQ, ZZ, Rat
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
    """

    __slots__ = ("gens", "bits", "width", "degs", "shift", "guard", "top")

    def __init__(self, gens, limit: int):
        self.gens = sorted(gens, key=gen_key)
        self.bits = limit.bit_length()
        self.width = width = self.bits + 1
        self.degs = [gen_degree(g) for g in self.gens]
        if not all(1 <= deg <= limit for deg in self.degs):
            raise DegreeMismatch(f"a packed generator of degree outside 1..{limit}")
        self.shift = {g: i * width for i, g in enumerate(self.gens)}
        self.guard = sum(1 << (s + self.bits) for s in self.shift.values())
        self.top = len(self.gens) * width

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


def _exp_series(F, packing: _Packing) -> tuple:
    """(G, D): G_0..G_upto with G_m = m! D^m E_m, E = exp(sum_k (k-1)! F_k),
    upto = len(F).

    D is the lcm of the coefficient denominators of the factors F; G
    runs over the integers, on monomials packed by packing, which must
    hold every generator of F.  G[m] is a _PackedBeta of {packed
    monomial: int} dicts, except that the last step computes only the
    beta^2 component of G_upto (three of the six products per k): G[upto]
    is that dict.  Every monomial of every step is checked against the
    guard bits of packing (see the module docstring).
    """
    upto = len(F)
    D = 1
    for f in F:
        for part in f:
            for c in part.values():
                D = math.lcm(D, c.denominator)
    H = [None]
    for k, f in enumerate(F, start=1):
        s = math.factorial(k) * D**k
        H.append([[(packing.pack(m), ZZ.coerce(c * s)) for m, c in part.items()]
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
        for part in parts:
            packing.check(part)
        G.append(parts[0] if m == upto else _PackedBeta(*parts))
    return G, D


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


# -- relation sets -----------------------------------------------------------


def mon1(d: int) -> list:
    """The Mon1 minor's monomials: degree d-1 times degree 1."""
    return [(large_gen(d, o), u) for o in LARGE[1] for u in DEG1]


def mon2(d: int) -> list:
    """The Mon2 minor's monomials: degree d, then R1..R3's leading ones."""
    lead = large_gen(d, LARGE[2][0])
    return [(large_gen(d, o),) for o in LARGE[0]] + [(lead, u) for u in DEG2]


def _twelve_rows(packing: _Packing, Ra, Rb, Rc, den1, den2) -> tuple:
    """(rows, dens): the 12 degree-d relations in their canonical order,
    c2(0)Ra^n, c0(2)Ra^n (n = 1..3 interleaved), then Rb^n, Rc^n, as
    packed numerator rows, row i over dens[i].  A generator g multiplies
    monomials injectively, so g Ra^n is Ra^n with g's unit added to each
    key and its coefficients kept."""
    rows, dens = [], []
    for R, den in zip(Ra, den1):
        for g in DEG1:
            unit = packing.pack((g,))
            rows.append({m + unit: c for m, c in R.items()})
            dens.append(den)
    return rows + Rb + Rc, dens + den1 + den2


def _eliminate(rows) -> tuple:
    """(found, columns): int_gauss_jordan of the packed integer rows, its
    (col, row) pivot rows over columns, the distinct packed monomials of
    the rows in descending (monomial) order.  No row is divided by its
    denominator: the pivot rows do not depend on how an input row is
    scaled."""
    columns = sorted(set().union(*rows), reverse=True)
    index = {m: j for j, m in enumerate(columns)}
    dense = []
    for row in rows:
        out = [0] * len(columns)
        for m, c in row.items():
            out[index[m]] = c
        dense.append(out)
    return int_gauss_jordan(dense), columns


def _entries(packing: _Packing, rows, dens, monos) -> list:
    """The rational coefficients of the packed rows (row i over dens[i])
    at the tuple monomials monos, one numerator divided per entry.  A
    monomial with a generator outside packing reads as 0."""
    shift = packing.shift
    keys = [packing.pack(m) if all(g in shift for g in m) else None for m in monos]
    return [[Rat(row.get(k, 0), den) for k in keys] for row, den in zip(rows, dens)]


@dataclass
class RelationSet:
    """The relations at (d, chi).  rows are the twelve degree-d relations
    in the order of _twelve_rows, as {packed monomial: int} numerator
    rows over packing, row i over dens[i]; R_rows are the canonical
    relations R1, R2, R3 as rows 9-11 of the build's echelon form, each
    {packed monomial: int} over its pivot entry R_pivots[i]; pivot_monos
    are the twelve pivot monomials of that echelon form, in column
    order.  Every coefficient is read by _entries."""

    d: int
    chi: int
    packing: _Packing
    rows: tuple
    dens: tuple
    R_rows: tuple
    R_pivots: tuple
    det1: object
    det2: object
    pivot_monos: tuple

    def leading_monos(self) -> list:
        """The leading monomials of R1, R2, R3: each row's largest key."""
        return [self.packing.unpack(max(row), self.d) for row in self.R_rows]

    def to_json(self) -> dict:
        out = {
            "schema": "tautrel/relations/1",
            "d": self.d,
            "chi": str(self.chi),
            "det1": str(self.det1),
            "det2": str(self.det2),
        }
        for i, (row, pivot) in enumerate(zip(self.R_rows, self.R_pivots), start=1):
            # descending keys are descending monomials
            parts = []
            for m in sorted(row, reverse=True):
                body = mono_str(self.packing.unpack(m, self.d))
                parts.append(_signed_term(Rat(row[m], pivot), body, bool(parts)))
            out[f"R{i}"] = "".join(parts) or "0"
        return out


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
    Ra, Rb, Rc, den1, den2 = [], [], [], [], []
    for F in factors:
        G, D = _exp_series(F, packing)
        den1.append(math.factorial(d + 1) * D ** (d + 1) * fact)
        den2.append(-math.factorial(d + 2) * D ** (d + 2) * fact)
        # the pushforward of x beta^j reads the beta^(2-j) component of x;
        # G[d + 2] is the beta^2 component alone
        Ra.append(G[d + 1].b2)
        Rb.append(G[d + 1].b1)
        Rc.append(G[d + 2])

    singles = [(large_gen(d, o),) for o in LARGE[1]]
    det1 = ExactMatrix._of(QQ, _entries(packing, Ra, den1, singles)).det()
    det2 = ExactMatrix._of(QQ, _entries(packing, Rb + Rc, den1 + den2, mon2(d))).det()
    if not det1 or not det2:
        raise SingularCheckpoint(f"det1={det1}, det2={det2} at (d,chi)=({d},{chi})")

    rows, dens = _twelve_rows(packing, Ra, Rb, Rc, den1, den2)
    found, columns = _eliminate(rows)
    if len(found) != 12:
        raise SingularCheckpoint(
            f"relation span has rank {len(found)} != 12 at (d,chi)=({d},{chi})"
        )
    # only the output is unpacked, each monomial checked to have degree d
    unpack = packing.unpack
    pivot_monos = tuple(unpack(columns[col], d) for col, _ in found)
    if pivot_monos[9:12] != tuple(mon2(d)[3:]):
        raise SingularCheckpoint(
            "echelon leading monomials differ from the canonical ones: "
            + ", ".join(mono_str(m) for m in pivot_monos[9:12])
        )
    # R1..R3, rows 9-11 of the echelon form, stay packed over their
    # pivot entries; a column that several of them hold is checked once
    kept = found[9:12]
    every = range(len(columns))
    for j in set().union(*(compress(every, row) for _, row in kept)):
        unpack(columns[j], d)
    R_rows = tuple({columns[j]: row[j] for j in compress(every, row)} for _, row in kept)
    R_pivots = tuple(row[col] for col, row in kept)
    rel = RelationSet(d, chi, packing, tuple(rows), tuple(dens), R_rows, R_pivots,
                      det1, det2, pivot_monos)
    _REL_CACHE[key] = rel
    return rel


def verify_rank12(rel: RelationSet):
    """Rank and minor checkpoints on the 12 degree-d relations of rel.

    Returns (ok, trace).  trace records the rank, the Mon1 minor
    determinant (must be det1^2) and the Mon2 minor determinant.

    Twelve rows have rank at most 12, so a nonzero 12x12 minor proves
    rank 12.  The minor taken is the one at the twelve pivot monomials
    of the build's own elimination (by det, which runs its own forward
    elimination), so the 12xN matrix is not eliminated a second time.
    Only when that minor vanishes, or no pivots are recorded, is the
    full rank computed, by the build's own elimination of the same
    integer rows, so a broken relation set reports its true rank.  The
    minors' entries are point reads of the packed rows (_entries).
    """
    d, pivots = rel.d, rel.pivot_monos
    def entries(monos):
        return _entries(rel.packing, rel.rows, rel.dens, monos)

    if len(pivots) == 12 and ExactMatrix._of(QQ, entries(pivots)).det():
        rank = 12
    else:
        rank = len(_eliminate(rel.rows)[0])
    # Mon1 minor: rows c2(0)Ra^n, c0(2)Ra^n interleaved match the column
    # pairing of Mon1, giving a block structure with determinant det1^2.
    m1 = ExactMatrix._of(QQ, entries(mon1(d))[0:6]).det()
    m2 = ExactMatrix._of(QQ, entries(mon2(d))[6:12]).det()
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
