"""The packed exponent vectors of the relation expansion
(relations._Packing, relations._mul_into) against tuple monomials."""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from test_tautalg import mono_mul_oracle
from tautrel.rat import QQ, Rat
from tautrel.relations import _exp_series, _mul_into, _Packing, relation_factor
from tautrel.tautalg import DegreeMismatch, TautContext, gen_degree, gen_key, mono_degree, mono_key


def generators(limit: int) -> list:
    """The generators c_k(j) of degree 1..limit that do not vanish."""
    return [(k, j) for j in range(3) for k in range(limit + 2)
            if 1 <= k + j - 1 <= limit and (k, j) != (1, 1)]


def descending(gens) -> tuple:
    return tuple(sorted(gens, key=gen_key, reverse=True))


@pytest.mark.parametrize("d", range(5, 21))
def test_round_trip_reaches_exponent_d_plus_2(d):
    limit = d + 2
    p = _Packing(generators(limit), limit)
    assert p.bits == limit.bit_length()
    low, high = p.gens[0], p.gens[-1]
    monos = [(g,) * limit for g in p.gens] + [(high,) * limit + (low,) * limit]
    rng = random.Random(d)
    for _ in range(100):
        gens = rng.sample(p.gens, rng.randint(1, 6))
        monos.append(descending(g for g in gens for _ in range(rng.randint(1, limit))))
    for m in monos:
        assert p.unpack(p.pack(m), mono_degree(m)) == m
    # the packed ints order monomials as mono_key does
    assert sorted(monos, key=p.pack) == sorted(monos, key=mono_key)


def test_exp_series_packs_the_generators_of_the_factors():
    d = 6
    ctx = TautContext(QQ, d)
    _, _, p = _exp_series(1, d, Rat(1), ctx, d + 2)
    factors = [relation_factor(k, 1, d, Rat(1), ctx) for k in range(1, d + 3)]
    gens = {g for f in factors for part in (f.b0, f.b1, f.b2) for m in part.terms for g in m}
    assert p.gens == sorted(gens, key=gen_key)
    assert p.bits == (d + 2).bit_length()
    assert max(map(gen_degree, p.gens)) == d + 2


def test_unpack_refuses_an_exponent_past_its_field():
    p = _Packing(generators(3), 3)  # 2-bit fields: exponents up to 3
    g, top = p.gens[0], p.gens[-1]
    cube = p.pack((g,) * 3)
    assert p.unpack(cube, 3 * gen_degree(g)) == (g,) * 3
    # exponent 4 carries into the next generator's field
    with pytest.raises(DegreeMismatch):
        p.unpack(cube + p.pack((g,)), 4 * gen_degree(g))
    # and out of the last field
    with pytest.raises(DegreeMismatch):
        p.unpack(p.pack((top,) * 4), 4 * gen_degree(top))
    with pytest.raises(DegreeMismatch):
        _Packing([(2, 0), (5, 0)], 3)  # c5(0) has degree 4 > 3


LIMIT = 6
GENS = generators(LIMIT)
# total exponent <= 3, so every product stays within LIMIT
monomials = st.lists(st.sampled_from(GENS), max_size=3).map(descending)
polys = st.dictionaries(monomials, st.integers(-3, 3).filter(bool), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(polys, polys, st.integers(1, 5)), min_size=1, max_size=4))
def test_packed_product_and_accumulation_match_tuple_product(products):
    p = _Packing(GENS, LIMIT)
    got = defaultdict(int)
    want: dict = {}
    for h, g, w in products:
        _mul_into(got, [(p.pack(m), c) for m, c in h.items()],
                  {p.pack(m): c for m, c in g.items()}, w)
        for m1, c1 in h.items():
            for m2, c2 in g.items():
                m = mono_mul_oracle(m1, m2)
                want[m] = want.get(m, 0) + w * c1 * c2
    got = {m: c for m, c in got.items() if c}
    want = {m: c for m, c in want.items() if c}
    assert len(got) == len(want)
    for m, c in want.items():
        packed = p.pack(m)
        assert got[packed] == c
        assert p.unpack(packed, mono_degree(m)) == m
