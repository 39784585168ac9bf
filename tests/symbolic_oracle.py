"""Reference for the Laurent matrix of tautrel.symbolic: the partition
truncation, every coefficient a RatFunc in (d, chi1).

tautrel.symbolic once computed the matrix this way, first over RatFuncs
and then over Laurent polynomials, before it read the closed form of
exp(L).  The relation of degree ell = d + delta (delta = 1, 2) is the
degree-ell piece of exp(sum_s (s-1)! F_s), a sum over the partitions of
ell of prod_s ((s-1)! F_s)^m_s / m_s!, rescaled by (d-3)!.  For d >= 5 a
small generator has degree <= 2 < d-2, so in every product reaching a
tracked column exactly one factor supplies the large generator, and
its index is >= d-2.  Hence:

- a partition with no part >= d-2 contributes nothing.  The others are
  split as (L, rest) with L = d + a >= d-2 and rest a partition of
  delta - a <= delta + 2: seven pairs for ell = d+1, twelve for d+2
  (truncated_partition_parts);
- the terms of a partition are grouped by the part L that supplies the
  large generator.  With L of multiplicity m, F_L^m / m! contributes
  top(F_L) * F_L^(m-1) / (m-1)!, which is the weight of the pair
  (L, rest): (L-1)!/(d-3)! = (d+a-1)!/(d-3)! for the large factor
  (_large_ratio) and prod_s (s-1)!^m_s / m_s! over rest.  A partition
  with two distinct parts >= d-2 (only for d <= 6, e.g. 4 + 3 at d = 5,
  ell = 7) appears once per such part, each time with that part
  supplying the large generator, so no term is counted twice or missed;
- within a pair the large factor keeps only its terms with a generator
  of degree d-2..d (_top_ct), the small factors (indices <= 4) only
  those with a generator of degree <= 2 (_small_ct), and products only
  small degree <= 2 and beta^i with i <= 2 (beta^3 = 0).

Every product and sum here is a RatFunc operation (a gcd each), so it
is slow but independent of the closed form and of the Laurent helpers.
sym_relation returns the relations in the twisted basis, each
coefficient a canonical RatFunc; laurent_matrix assembles the twelve
rows at the 27 columns with their column signs, and differences
compares the Laurent matrix of tautrel.symbolic with it.

column_keys is the list of the 27 tracked columns as tautrel.symbolic
wrote it by hand, sorted into descending order by an explicit key,
before it read the columns from the layout in tautalg.

laurent_ratfunc, sym_matrix and ratfunc_MN are the elimination that
tautrel.symbolic.symbolic_MN ran before it kept its denominators as
powers of linear forms: each entry of the Laurent matrix turned into a
canonical RatFunc once, and the 12x27 rref over QQ(d, chi1) in RatFunc
arithmetic, a polynomial gcd per operation.
"""

import math
from functools import lru_cache

from linalg_oracle import rref
from tautrel.linalg import ExactMatrix
from tautrel.rat import Rat
from tautrel.ratfunc import RatFunc, _to_dense
from tautrel.symbolic import M_COLS, N_COLS, SYM_FIELD, _laurent_matrix, read_blocks
from tautrel.tautalg import LARGE, gen_key

# the small part of a tracked monomial has degree at most SMALL_DEGREE,
# one less than the number of groups of large generators
SMALL_DEGREE = len(LARGE) - 1

_D = SYM_FIELD.gen("d")
_CHI = SYM_FIELD.gen("chi1")
_ONE = SYM_FIELD.one


def _small_gen_key(g):
    _, k, j = g
    return gen_key((k, j))


def _small_degree(small) -> int:
    return sum(k + j - 1 for _, k, j in small)


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


def _trunc_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (l1, s1, b1), c1 in p.items():
        for (l2, s2, b2), c2 in q.items():
            if l1 is not None and l2 is not None:
                continue
            b = b1 + b2
            if b > 2:
                continue
            small = tuple(sorted(s1 + s2, key=_small_gen_key, reverse=True))
            if _small_degree(small) > SMALL_DEGREE:
                continue
            key = (l1 if l1 is not None else l2, small, b)
            c = c1 * c2
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _add_term(poly: dict, key, coeff) -> None:
    if coeff.is_zero():
        return
    prev = poly.get(key)
    val = coeff if prev is None else prev + coeff
    if val.is_zero():
        poly.pop(key, None)
    else:
        poly[key] = val


def _small_ct(poly: dict, beta: int, coeff, k: int, j: int) -> None:
    if (k, j) == (0, 1):
        _add_term(poly, (None, (), beta), coeff * (-_D))
        return
    if (k, j) in ((1, 0), (1, 1)) or k + j - 1 <= 0:
        return
    if k + j - 1 > SMALL_DEGREE:
        return
    _add_term(poly, (None, (("sm", k, j),), beta), coeff)


def _top_ct(poly: dict, beta: int, coeff, a: int, j: int) -> None:
    if a + j - 1 in (-2, -1, 0):
        _add_term(poly, (("top", a, j), (), beta), coeff)


def _coeff_c1(n: int):
    return SYM_FIELD.coerce(2 - n) - _CHI / _D


def _coeff_q(n: int):
    ha = SYM_FIELD.coerce(Rat(2 * n - 5, 2)) * _D + _CHI
    hb = SYM_FIELD.coerce(Rat(2 * n - 3, 2)) * _D + _CHI
    return ha * hb / (_D * _D * 2)


def _factor(n: int, s: int, ct) -> dict:
    poly: dict = {}
    ha = SYM_FIELD.coerce(Rat(2 * n - 5, 2)) * _D + _CHI
    c1, q = _coeff_c1(n), _coeff_q(n)
    half = SYM_FIELD.coerce(Rat(-1, 2))
    ct(poly, 0, _ONE, s, 1)
    ct(poly, 0, -ha / _D, s - 1, 2)
    ct(poly, 1, _ONE, s, 0)
    ct(poly, 1, c1, s - 1, 1)
    ct(poly, 1, q, s - 2, 2)
    ct(poly, 2, half, s - 1, 0)
    ct(poly, 2, half * c1, s - 2, 1)
    ct(poly, 2, half * q, s - 3, 2)
    return poly


def _large_ratio(a: int):
    acc = _ONE
    for off in range(-2, a):
        acc = acc * (_D + SYM_FIELD.coerce(off))
    return acc


def sym_relation(kind: str, n: int) -> dict:
    """{(large, small): RatFunc} of relation kind ('a', 'b', 'c') at n."""
    delta = 1 if kind in ("a", "b") else 2
    want_beta = 1 if kind == "b" else 2
    sign = Rat(1) if delta == 1 else Rat(-1)
    total: dict = {}
    smalls = {s: _factor(n, s, _small_ct) for s in (1, 2, 3, 4)}
    for parts in truncated_partition_parts(delta):
        (_, a), small_parts = parts[0], parts[1:]
        coeff = _large_ratio(a) * sign
        mults: dict = {}
        for s in small_parts:
            mults[s] = mults.get(s, 0) + 1
        num, den = 1, 1
        for s, m in mults.items():
            num *= math.factorial(s - 1) ** m
            den *= math.factorial(m)
        coeff = coeff * SYM_FIELD.coerce(Rat(num, den))
        poly = _factor(n, a, _top_ct)
        for s in small_parts:
            poly = _trunc_mul(poly, smalls[s])
        for (large, small, beta), c in poly.items():
            if beta != want_beta:
                continue
            _add_term(total, (large, small), c * coeff)
    return total


def column_keys():
    """The 27 tracked degree-d monomials in descending order, as
    (large (a, j), small tuple of plain (k, j) gens)."""
    cols = []
    for a, j in [(1, 0), (0, 1), (-1, 2)]:
        cols.append(((a, j), ()))
    for a, j in [(0, 0), (-1, 1), (-2, 2)]:
        for u in [(2, 0), (0, 2)]:
            cols.append(((a, j), (u,)))
    deg2 = [(3, 0), (2, 1), (1, 2)]
    sym2 = [((2, 0), (2, 0)), ((2, 0), (0, 2)), ((0, 2), (0, 2))]
    for a, j in [(-1, 0), (-2, 1), (-3, 2)]:
        for u in deg2:
            cols.append(((a, j), (u,)))
        for pair in sym2:
            cols.append(((a, j), tuple(sorted(pair, key=gen_key, reverse=True))))
    # within each large-index group the M columns precede the N columns,
    # matching the lexicographic monomial order
    def key(col):
        (a, j), small = col
        return ((a + j - 1, a), tuple(gen_key(g) for g in small))

    return sorted(cols, key=key, reverse=True)


def _column_sign(large, small):
    """prod over the column's generators of (-1)^(k+1), the large one's
    index k = d + a taken as a: the twisted-to-plain sign without the
    parity of d."""
    a, _ = large
    return -1 if (a + 1 + sum(k + 1 for k, _ in small)) % 2 else 1


@lru_cache(maxsize=1)
def laurent_matrix() -> tuple:
    """The 12x27 matrix of tautrel.symbolic._laurent_rows over QQ(d,
    chi1), in its row order (c2(0) Ra^n and c0(2) Ra^n for n = 1, 2, 3,
    then Rb^n, then Rc^n) and the column order of column_keys."""
    rels = {(kind, n): sym_relation(kind, n) for kind in "abc" for n in (1, 2, 3)}
    zero = SYM_FIELD.zero

    def entry(rel, large, small):
        key = (("top",) + large, tuple(("sm",) + g for g in small))
        return rel.get(key, zero) * _column_sign(large, small)

    rows = []
    for n in (1, 2, 3):
        for mult in ((2, 0), (0, 2)):
            row = []
            for large, small in column_keys():
                if mult in small:
                    rest = list(small)
                    rest.remove(mult)
                    row.append(entry(rels[("a", n)], large, tuple(rest)))
                else:
                    row.append(zero)
            rows.append(tuple(row))
    for kind in "bc":
        for n in (1, 2, 3):
            rows.append(tuple(entry(rels[(kind, n)], large, small)
                              for large, small in column_keys()))
    return tuple(rows)


def differences(rows) -> list:
    """The (row, column) of each entry of the Laurent matrix rows
    (tautrel.symbolic._laurent_rows: rows (den, k, terms)) whose RatFunc
    differs from laurent_matrix by == or by its printed form."""
    out = []
    for i, ((den, _, got_row), want_row) in enumerate(zip(rows, laurent_matrix(), strict=True)):
        for j, (terms, want) in enumerate(zip(got_row, want_row, strict=True)):
            got = laurent_ratfunc({(a, b): c for a, b, c in terms}, den)
            if got != want or str(got) != str(want):
                out.append((i, j))
    return out


def laurent_ratfunc(lau: dict, den: int) -> RatFunc:
    """The canonical RatFunc lau/den, for int coefficients and den != 0,
    with no polynomial gcd.  With k = max(0, -min e_d) it is (d^k lau) /
    (den d^k).  When k > 0 some term of d^k lau is free of d, so d does
    not divide it; the irreducible factors of den d^k are d and primes,
    so the only common factor left is the integer gcd of den and the
    coefficients.  Dividing it out, with the sign on den, gives the
    canonical pair directly."""
    lau = {e: x for e, x in lau.items() if x}
    if not lau:
        return SYM_FIELD.zero
    k = max(0, -min(a for a, _ in lau))
    g = math.gcd(den, *lau.values())
    if den < 0:
        g = -g
    num = {(a + k, b): x // g for (a, b), x in lau.items()}
    return RatFunc._raw(SYM_FIELD.vars, _to_dense(num, 2), _to_dense({(k, 0): den // g}, 2))


def sym_matrix() -> ExactMatrix:
    """The matrix of tautrel.symbolic._laurent_matrix over QQ(d, chi1),
    each entry turned into a RatFunc once."""
    return ExactMatrix._of(SYM_FIELD, [[laurent_ratfunc({(a, b): c for a, b, c in terms}, den)
                                        for terms in row] for den, _, row in _laurent_matrix()])


def ratfunc_MN() -> tuple:
    """(M_1..M_3, N_1..N_3) over QQ(d, chi1) from the rref of sym_matrix
    in RatFunc arithmetic, its pivots checked on columns 0..11."""
    R, pivots = rref(sym_matrix())
    assert pivots == list(range(12)), pivots
    R = R.data[9:12]
    return read_blocks(R, M_COLS, SYM_FIELD), read_blocks(R, N_COLS, SYM_FIELD)
