"""Truncated relation computation with d symbolic.

Internally everything is written in the sign-twisted generator basis
(ct_k(j) = (-1)^(k+1) c_k(j)), whose structure constants are rational in
d; each extracted monomial carries exactly one symbolic-index generator,
so the global parity factor of the conversion back to the plain basis
cancels against the echelon normalization and only per-column signs
remain.

Truncation.  The relation of degree ell = d + delta (delta = 1, 2) is
the degree-ell piece of exp(sum_s (s-1)! F_s) (see relations), a sum
over the partitions of ell of prod_s ((s-1)! F_s)^m_s / m_s!, rescaled
by (d-3)!.  Each term of the factor F_s (the eight terms of
tautalg.factor_table, with its degenerate symbols) is beta^i (i <= 2)
times a generator of degree s - i or, for s = i, the scalar
ct_0(1) = -d.
The 27 tracked columns are the degree-d monomials with one generator of
degree d-2, d-1 or d (the large generator) and small generators of
total degree <= 2: the layout of tautalg, whose large generators are
offsets (a, j) from d.  For d >= 5 a small generator has degree <= 2 <
d-2, so in every product reaching a tracked column exactly one factor
supplies the large generator, and its index is >= d-2.  Hence, for
every d >= 5:

- a partition with no part >= d-2 contributes nothing.  The others are
  split as (L, rest) with L = d + a >= d-2 and rest a partition of
  delta - a <= delta + 2: seven pairs for ell = d+1, twelve for d+2
  (truncated_partition_parts);
- the terms of a partition are grouped by the part L that supplies the
  large generator.  With L of multiplicity m, F_L^m / m! contributes
  m * top(F_L) * F_L^(m-1) / m! = top(F_L) * F_L^(m-1) / (m-1)!, which
  is the weight of the pair (L, rest): (L-1)!/(d-3)! = (d+a-1)!/(d-3)!
  for the large factor (_large_ratio, a polynomial in d as a >= -2) and
  prod_s (s-1)!^m_s / m_s! over rest.  A partition with two distinct
  parts >= d-2 (only for d <= 6, e.g. 4 + 3 at d = 5, ell = 7) appears
  once per such part, each time with that part supplying the large
  generator, so no term is counted twice or missed;
- within a pair the large factor keeps only its terms with a generator
  of degree d-2..d (_top_ct), the small factors (indices <= 4) only
  those with a generator of degree <= 2 (_small_ct), and products only
  small degree <= 2 and beta^i with i <= 2 (beta^3 = 0).  Every dropped
  term either reaches no tracked column or is counted in the pair whose
  large part supplies the large generator.

Laurent polynomials.  Every coefficient of the expansion has a
denominator that is a power of d times an integer: the factor
coefficients ha/d, c1 = (2-n) - chi1/d, q = ha*hb/(2 d^2) and -1/2 and
the factorial weights.  So the expansion runs on Laurent polynomials in
(d, chi1), {(e_d, e_chi1): int} with e_d possibly negative, and a
truncated polynomial holds its Laurent coefficients over one positive
integer denominator: a product adds exponents and multiplies the
denominators, a sum merges dicts over the lcm, and no gcd is taken.
The 12x27 matrix is built as immutable Laurent entries, each over an
integer den with its column sign folded in (_laurent_rows).  The
symbolic path turns each entry into a RatFunc once: with
k = max(0, -min e_d), it is (d^k lau) / (den d^k).  When k > 0 some term
of d^k lau is free of d, so d does not divide it; the irreducible
factors of den d^k are d and primes, so the only common factor left is
the integer gcd of den and the coefficients.  Dividing it out, with the
sign on den, gives the canonical pair of RatFunc directly.  The point
path evaluates the same entries at (d, chi) over the integers, each row
scaled by d^k and the lcm of its denominators, both nonzero at d >= 5.

Exact specialization.  The 12x27 matrix A over QQ(d, chi1) has its
pivots on columns 0..11 (symbolic_MN checks this), so its echelon form
is P^-1 A for the 12x12 submatrix P on those columns, and

    det P = d^4 chi1^2 (d-1)^5 (d-2)^14 (d-chi1)^2 (d-2 chi1)^2 / 4

(recomputed in the tests).  At a coprime 0 < chi < d with d >= 5 no
factor vanishes: d, d-1, d-2 >= 3; chi1 = chi > 0 and d - chi > 0; and
d = 2 chi would make chi a common divisor of d and chi, so chi = 1 and
d = 2.  The entries of A have denominators 2^a d^k, nonzero there too.
This closed form is why two things hold at every such point, not only
at the sampled ones:

- the point path's pivot check never fails.  Its rows are those of
  A(d, chi) times nonzero integers, and P(d, chi) is invertible, so the
  echelon form of A(d, chi) has its pivots on columns 0..11 and equals
  P(d, chi)^-1 A(d, chi);
- the point path and symbolic_MN evaluated at (d, chi) agree.  Each
  entry of P^-1 A = adj(P) A / det P has a reduced denominator dividing
  det P times some 2^a d^k, so it is defined at (d, chi), and its value
  there is the entry of P(d, chi)^-1 A(d, chi).

The point elimination itself (int_gauss_jordan, then one division of
each of rows 9..11 by its pivot) is exact integer arithmetic.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

from .linalg import ExactMatrix, int_gauss_jordan
from .rat import QQ, Rat
from .ratfunc import FracField, RatFunc
from .tautalg import (
    DEG1,
    DEG2,
    LARGE,
    SMALL_DEGREE,
    SQUARES,
    TRACKED,
    factor_table,
    gen_key,
    twisted_symbol,
)

SYM_FIELD = FracField(("d", "chi1"))
_ZERO = SYM_FIELD.zero

# generators: ("top", a, j) means index d+a; ("sm", k, j) a concrete index.
# A Laurent polynomial is {(e_d, e_chi1): coeff} with e_d possibly
# negative.  A truncated polynomial is (terms, den): terms
# {(large_or_None, small_tuple, beta): Laurent polynomial with int
# coefficients} over one positive integer den.


def _small_gen_key(g):
    _, k, j = g
    return gen_key((k, j))


def _small_degree(small) -> int:
    return sum(k + j - 1 for _, k, j in small)


# -- Laurent polynomials in (d, chi1) ------------------------------------


def _laurent_mul_into(out: dict, p: dict, q: dict) -> None:
    """out += p*q, exponents added; zero coefficients may be left in out."""
    for (a1, b1), x in p.items():
        for (a2, b2), y in q.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + x * y


def _laurent_add_into(out: dict, p: dict) -> None:
    """out += p; zero coefficients may be left in out."""
    for e, x in p.items():
        out[e] = out.get(e, 0) + x


def _nonzero(lau: dict) -> dict:
    return {e: x for e, x in lau.items() if x}


def _nonzero_terms(poly: dict) -> dict:
    """poly with zero coefficients, and keys left with none, dropped."""
    return {key: lau for key, c in poly.items() if (lau := _nonzero(c))}


def _scaled(lau: dict, c) -> dict:
    return {e: c * x for e, x in lau.items()}


def _laurent_ratfunc(lau: dict, den: int) -> RatFunc:
    """The canonical RatFunc lau/den, for int coefficients and den != 0,
    with no polynomial gcd: see the module docstring."""
    lau = _nonzero(lau)
    if not lau:
        return _ZERO
    k = max(0, -min(a for a, _ in lau))
    g = math.gcd(den, *lau.values())
    if den < 0:
        g = -g
    return RatFunc._of_terms(
        SYM_FIELD.vars, {(a + k, b): x // g for (a, b), x in lau.items()}, {(k, 0): den // g}
    )


# -- the truncated expansion -----------------------------------------------


def _trunc_mul(p: tuple, q: tuple) -> tuple:
    """The truncated product p * q.  p is the large factor (or a product
    with it) and q a small factor, whose terms carry no large generator,
    so each product term keeps the large generator of p's term."""
    (pt, pden), (qt, qden) = p, q
    out: dict = {}
    for (l1, s1, b1), c1 in pt.items():
        for (_, s2, b2), c2 in qt.items():
            b = b1 + b2
            if b > 2:
                continue
            small = tuple(sorted(s1 + s2, key=_small_gen_key, reverse=True))
            if _small_degree(small) > SMALL_DEGREE:
                continue
            key = (l1, small, b)
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            _laurent_mul_into(acc, c1, c2)
    return _nonzero_terms(out), pden * qden


def _add_term(poly: dict, key, coeff: dict) -> None:
    _laurent_add_into(poly.setdefault(key, {}), coeff)


def _small_ct(poly: dict, beta: int, coeff: dict, k: int, j: int) -> None:
    """Append coeff * ct_k(j) (small index) to the beta-component."""
    sym = twisted_symbol(k, j)
    if sym is None:
        return
    if not sym:
        # ct_0(1) = -d
        _add_term(poly, (None, (), beta), {(a + 1, b): -x for (a, b), x in coeff.items()})
    elif k + j - 1 <= SMALL_DEGREE:
        _add_term(poly, (None, (("sm", k, j),), beta), coeff)


def _top_ct(poly: dict, beta: int, coeff: dict, a: int, j: int) -> None:
    """Append coeff * ct_{d+a}(j); kept only for the large generators of
    the layout, of degree d-2..d."""
    if any((a, j) in group for group in LARGE):
        _add_term(poly, (("top", a, j), (), beta), coeff)


def _factor(n: int, s: int, ct) -> tuple:
    """Truncation of the beta-class factor with index s (ct = _small_ct)
    or d + s (ct = _top_ct), as a truncated polynomial: the terms of
    tautalg.factor_table, chi being chi1."""
    poly: dict = {}
    for beta, coeff, offset, j in factor_table(n):
        ct(poly, beta, coeff, s + offset, j)
    poly = _nonzero_terms(poly)
    den = math.lcm(*(int(x.denominator) for lau in poly.values() for x in lau.values()))
    terms = {
        key: {e: int(x.numerator) * (den // int(x.denominator)) for e, x in lau.items()}
        for key, lau in poly.items()
    }
    return terms, den


def truncated_partition_parts(delta: int) -> list:
    """Contributing partitions of ell = d + delta: a symbolic large part
    ("d", a) followed by concrete small parts, largest first."""
    out = []
    for restsum in range(0, delta + 3):
        a = delta - restsum
        for small in _small_partitions(restsum):
            out.append((("d", a),) + small)
    return out


def _small_partitions(n: int, largest: int = None) -> list:
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for p in range(min(largest, n), 0, -1):
        for rest in _small_partitions(n - p, p):
            out.append((p,) + rest)
    return out


def _large_ratio(a: int) -> dict:
    """(d+a-1)! / (d-3)! as a polynomial in d."""
    acc = {(0, 0): 1}
    for off in range(-2, a):
        nxt: dict = {}
        _laurent_mul_into(nxt, acc, {(1, 0): 1, (0, 0): off})
        acc = _nonzero(nxt)
    return acc


def _sym_relation(kind: str, n: int) -> tuple:
    """Truncated relation in the twisted basis, as (den, ((key, items),
    ...)): the coefficient of key is the Laurent polynomial dict(items)
    over the integer den.  kind: 'a' (beta^2 of d+1), 'b' (beta^1 of
    d+1), 'c' (beta^2 of d+2, with the orientation sign)."""
    delta = 1 if kind in ("a", "b") else 2
    want_beta = 1 if kind == "b" else 2
    sign = 1 if delta == 1 else -1
    smalls = {s: _factor(n, s, _small_ct) for s in (1, 2, 3, 4)}
    pieces = []
    for parts in truncated_partition_parts(delta):
        (_, a), small_parts = parts[0], parts[1:]
        mults: dict = {}
        for s in small_parts:
            mults[s] = mults.get(s, 0) + 1
        num, den = sign, 1
        for s, m in mults.items():
            num *= math.factorial(s - 1) ** m
            den *= math.factorial(m)
        poly = _factor(n, a, _top_ct)
        for s in small_parts:
            poly = _trunc_mul(poly, smalls[s])
        terms, pden = poly
        pieces.append((terms, pden * den, _scaled(_large_ratio(a), num)))
    den = math.lcm(*(pden for _, pden, _ in pieces))
    total: dict = {}
    for terms, pden, ratio in pieces:
        ratio = _scaled(ratio, den // pden)
        for (large, small, beta), c in terms.items():
            if beta == want_beta:
                _laurent_mul_into(total.setdefault((large, small), {}), c, ratio)
    return den, tuple((key, tuple(lau.items())) for key, lau in _nonzero_terms(total).items())


# -- extraction of the block matrices ------------------------------------


def _col_sign(large, small) -> int:
    """Twisted-to-plain conversion sign, global parity factor dropped."""
    a, _j = large
    s = (a + 1) & 1
    for k, _ in small:
        s ^= (k + 1) & 1
    return -1 if s else 1


# a term c * d^e_d * chi1^e_chi1 of a Laurent entry, packed as (e_d, e_chi1, c)
_TERM = struct.Struct("bbh")
_ZERO_ENTRY = (1, b"")


def _laurent_rows() -> tuple:
    """The 12x27 matrix whose echelon form holds the blocks, in the
    columns of tautalg.TRACKED, as rows of Laurent entries (den, terms):
    the sum of the terms c * d^e_d * chi1^e_chi1 over the integer den,
    its column sign folded into den, the terms packed by _TERM.  Rows:
    c2(0)*Ra^n and c0(2)*Ra^n for n = 1, 2, 3, then Rb^1..Rb^3 and
    Rc^1..Rc^3.  Tuples and bytes only, so no reader can change it.

    The terms are packed because the point path holds the matrix for
    the life of the process: as ((e_d, e_chi1), c) tuples it took
    0.18 MB (tracemalloc), packed 0.03 MB.  A value out of range raises
    struct.error: the exponents lie in -5..5, the coefficients below
    2^14."""
    rels = {}
    for kind in ("a", "b", "c"):
        for n in (1, 2, 3):
            den, terms = _sym_relation(kind, n)
            rels[(kind, n)] = (den, {key: b"".join(_TERM.pack(a, b, c) for (a, b), c in lau)
                                     for key, lau in terms})

    def entry(rel, large, small):
        den, terms = rel
        a, j = large
        lau = terms.get((("top", a, j), tuple(("sm", k, jj) for k, jj in small)))
        return _ZERO_ENTRY if lau is None else (den * _col_sign(large, small), lau)

    rows = []
    # c2(0)*Ra and c0(2)*Ra rows: multiplying by a degree-1 generator
    # shifts the needed coefficient down by that generator
    for n in (1, 2, 3):
        ra = rels[("a", n)]
        for mult in DEG1:
            row = []
            for large, small in TRACKED:
                if mult in small:
                    reduced = list(small)
                    reduced.remove(mult)
                    row.append(entry(ra, large, tuple(reduced)))
                else:
                    row.append(_ZERO_ENTRY)
            rows.append(tuple(row))
    for kind in ("b", "c"):
        for n in (1, 2, 3):
            rel = rels[(kind, n)]
            rows.append(tuple(entry(rel, large, small) for large, small in TRACKED))
    return tuple(rows)


# the point path's copy, held for the life of the process.  symbolic_MN
# expands its own and drops it: a copy shared by both, held through the
# elimination over QQ(d, chi1), raised the peak RSS of perfbench p1 by
# about 0.1 MB, packed or not; the second expansion, where a process
# needs both, takes about 0.02 s
_laurent_matrix = lru_cache(maxsize=1)(_laurent_rows)


def _unpacked(terms: bytes) -> dict:
    """The Laurent polynomial {(e_d, e_chi1): c} of packed terms."""
    return {(a, b): c for a, b, c in _TERM.iter_unpack(terms)}


def _sym_matrix() -> ExactMatrix:
    """The matrix of _laurent_rows over QQ(d, chi1), each entry turned
    into a RatFunc once."""
    return ExactMatrix._of(SYM_FIELD, [[_laurent_ratfunc(_unpacked(terms), den)
                                        for den, terms in row] for row in _laurent_rows()])


def _blocks(rows, field) -> tuple:
    """(M_1..M_3, N_1..N_3) over field, read from the echelon rows 9..11,
    whose pivots are the columns of the large generators LARGE[2]."""
    index = {col: i for i, col in enumerate(TRACKED)}

    def block(row, smalls):
        return ExactMatrix(field, [[row[index[(large, small)]] for small in smalls]
                                   for large in LARGE[2]])

    return ([block(row, [(u,) for u in DEG2]) for row in rows],
            [block(row, SQUARES) for row in rows])


@lru_cache(maxsize=1)
def symbolic_MN() -> tuple:
    """(M_1..M_3, N_1..N_3) as 3x3 matrices of rational functions in
    (d, chi1), from the truncated symbolic pipeline."""
    R, pivots = _sym_matrix().rref()
    if len(pivots) != 12 or pivots[9:12] != [9, 10, 11]:
        raise AssertionError(f"unexpected symbolic echelon pivots: {pivots}")
    return _blocks(R.data[9:12], SYM_FIELD)


def _point_rows(d: int, chi: int) -> list:
    """The rows of _laurent_matrix evaluated at (d, chi1 = chi) over the
    integers, each scaled by d^k and the lcm of its denominators, with
    k = max(0, -min e_d) over the row."""
    out = []
    for row in _laurent_matrix():
        lcm = math.lcm(*(den for den, _ in row))
        k = max(0, -min((a for _, terms in row for a, _, _ in _TERM.iter_unpack(terms)), default=0))
        out.append([lcm // den * sum(c * d ** (a + k) * chi ** b
                                     for a, b, c in _TERM.iter_unpack(terms))
                    for den, terms in row])
    return out


def symbolic_matrices_at(d: int, chi: int) -> tuple:
    """The blocks (M, N) at d >= 5 and a coprime 0 < chi < d, over the
    rationals; other points, chi = None among them, raise ValueError.

    They come from one elimination over the integers at the point: the
    rows of the truncated matrix evaluated there, eliminated by
    int_gauss_jordan, with the pivots checked to lie on columns 0..11.
    They equal symbolic_MN evaluated at (d, chi) and the blocks of the
    relation set built at (d, chi): see the module docstring."""
    if not isinstance(chi, int) or d < 5 or math.gcd(d, chi) != 1 or not 0 < chi < d:
        raise ValueError(f"d >= 5 and a coprime 0 < chi < d required (d={d}, chi={chi})")
    pivots = int_gauss_jordan(_point_rows(d, chi))
    cols = [col for col, _ in pivots]
    if cols != list(range(12)):
        raise AssertionError(f"unexpected echelon pivots at (d, chi) = ({d}, {chi}): {cols}")
    return _blocks([[Rat(x, row[col]) for x in row] for col, row in pivots[9:12]], QQ)
