"""Reference truncated expansion: every coefficient a RatFunc in (d, chi1).

This is the expansion tautrel.symbolic ran before it moved to Laurent
polynomials in (d, chi1) with integer coefficients over one denominator.
Every product and sum here is a RatFunc operation (a gcd each), so it
is slow but independent of the Laurent helpers.  sym_relation returns
the same keys in the twisted basis as tautrel.symbolic._sym_relation,
each with its coefficient as a canonical RatFunc.

column_keys is the list of the 27 tracked columns as tautrel.symbolic
wrote it by hand, sorted into descending order by an explicit key,
before it read the columns from the layout in tautalg.
"""

import math

from tautrel.rat import Rat
from tautrel.symbolic import (
    SYM_FIELD,
    _small_degree,
    _small_gen_key,
    truncated_partition_parts,
)
from tautrel.tautalg import SMALL_DEGREE, gen_key

_D = SYM_FIELD.gen("d")
_CHI = SYM_FIELD.gen("chi1")
_ONE = SYM_FIELD.one


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
