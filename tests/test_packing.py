"""The packed exponent vectors of the relation build (relations._Packing,
relations._mul_into, relations._exp_series) against tuple monomials,
the guard bit of each field, and the components the one-pass expansion
leaves out."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from relations_oracle import entries
from tautalg_oracle import mono_degree, mono_key
from test_tautalg import mono_mul_oracle
from tautrel import relations
from tautrel.rat import Rat
from tautrel.relations import (
    _exp_series,
    _factors,
    _generators,
    _mul_into,
    _Packing,
    build_relation_set,
)
from tautrel.tautalg import DegreeMismatch, gen_degree, gen_key


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
    assert p.bits == limit.bit_length() and p.width == p.bits + 1
    low, high = p.gens[0], p.gens[-1]
    monos = [(g,) * limit for g in p.gens] + [(high,) * limit + (low,) * limit]
    rng = random.Random(d)
    for _ in range(100):
        gens = rng.sample(p.gens, rng.randint(1, 6))
        monos.append(descending(g for g in gens for _ in range(rng.randint(1, limit))))
    for m in monos:
        assert p.unpack(p.pack(m), mono_degree(m)) == m
    p.check([p.pack(m) for m in monos])  # exponent limit reaches no guard bit
    # the packed ints order monomials as mono_key does
    assert sorted(monos, key=p.pack) == sorted(monos, key=mono_key)


def test_exp_series_packs_the_generators_of_the_factors():
    # the build's one packing holds exactly the generators of the factors,
    # the same for n = 1, 2, 3
    d = 6
    rel = build_relation_set(d, 1)
    for n in (1, 2, 3):
        gens = _generators(_factors(n, d, 1, d + 2))
        assert rel.packing.gens == tuple(sorted(gens, key=gen_key))
    assert rel.packing.bits == (d + 2).bit_length()
    assert max(map(gen_degree, rel.packing.gens)) == d + 2


def test_one_packing_per_build(monkeypatch):
    # the twelve rows share their columns because the three expansions
    # and the rows are packed by one _Packing
    made = []

    class Counted(_Packing):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    monkeypatch.setattr(relations, "_REL_CACHE", {})
    monkeypatch.setattr(relations, "_Packing", Counted)
    rel = build_relation_set(7, 2)
    assert made == [rel.packing]


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


def test_entries_read_zero_outside_the_packing():
    # relations._numerators, which entries divides by the denominators
    p = _Packing([(0, 2), (2, 0)], 3)
    square = ((2, 0), (2, 0))
    rows = [{p.pack(square): 3}, {}]
    monos = [square, ((3, 0),), ((2, 0), (0, 2))]
    assert entries(p, rows, [2, 5], monos) == [[Rat(3, 2), 0, 0], [0, 0, 0]]


def _power_series(gen, upto: int, limit: int, scales=(1, 2, 3)):
    """_exp_series of the factors F_1 = c gen, F_2..F_upto = 0, c = 1, 2, 3
    for the three series by default, on a packing of c0(2) and c2(0) with
    exponents up to limit: E_m = (c gen)^m / m!, so G_m's beta^0
    component is (D c)^m gen^m, and the pass computes it up to
    m = upto - 2."""
    Fs = [[({(gen,): Rat(c)}, {}, {})] + [({}, {}, {})] * (upto - 1) for c in scales]
    return _exp_series(Fs, _Packing([(0, 2), (2, 0)], limit))


@pytest.mark.parametrize("gen", [(0, 2), (2, 0)])  # the inner and the last field
def test_guard_bit_fires_on_an_exponent_past_its_field(gen):
    # 2-bit value fields: gen^3 fits, gen^4 sets the guard bit
    shift = _Packing([(0, 2), (2, 0)], 3).shift[gen]
    G, Ds = _power_series(gen, 5, 3)
    assert Ds == [1, 1, 1] and G[3].b0 == {3 << shift: [1, 8, 27]}
    assert G[4].b0 is G[5].b0 is None  # gen^4 is never formed
    with pytest.raises(DegreeMismatch, match="guard bit"):
        _power_series(gen, 6, 3)


def test_last_step_refuses_a_beta_squared_term_in_F1():
    # G_upto.b2 would read the uncomputed G_(upto-1).b0 through F_1's
    # beta^2 terms, so their presence is refused, not assumed away
    gen = (2, 0)
    Fs = [[({}, {}, {(gen,): Rat(1)})] + [({}, {}, {})] * 3] * 3
    with pytest.raises(ValueError, match="beta\\^2"):
        _exp_series(Fs, _Packing([(0, 2), (2, 0)], 5))
    # one step, upto = 1, reads only G_0
    G, _ = _exp_series([F[:1] for F in Fs], _Packing([(0, 2), (2, 0)], 5))
    assert G[1].b2 == {1 << _Packing([(0, 2), (2, 0)], 5).shift[gen]: [1, 1, 1]}


def test_zero_triples_are_dropped_and_one_series_may_vanish():
    # a monomial is kept where one of the three coefficients is nonzero
    G, Ds = _power_series((0, 2), 5, 3, scales=(1, 0, Rat(3, 2)))
    assert Ds == [1, 1, 2]
    assert G[2].b0 == {2: [1, 0, 9]}  # (D c)^2 gen^2, gen = c0(2) packed as 1
    G, _ = _power_series((0, 2), 5, 3, scales=(0, 0, 0))
    assert all(part == {} for g in G[1:] for part in g if part is not None)


LIMIT = 6
GENS = generators(LIMIT)
# total exponent <= 3, so every product stays within LIMIT
monomials = st.lists(st.sampled_from(GENS), max_size=3).map(descending)
coefficient = st.integers(-3, 3)
triples = st.tuples(coefficient, coefficient, coefficient)
polys = st.dictionaries(monomials, triples.filter(any), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(polys, polys, st.integers(1, 5)), min_size=1, max_size=4))
def test_packed_product_and_accumulation_match_tuple_product(products):
    # each of the three coefficients against its own tuple product
    p = _Packing(GENS, LIMIT)
    got: dict = {}
    want = [{}, {}, {}]
    for h, g, w in products:
        _mul_into(got, [(p.pack(m), c) for m, c in h.items()],
                  {p.pack(m): c for m, c in g.items()}, w)
        for m1, c1 in h.items():
            for m2, c2 in g.items():
                m = mono_mul_oracle(m1, m2)
                for n in range(3):
                    want[n][m] = want[n].get(m, 0) + w * c1[n] * c2[n]
    for n in range(3):
        got_n = {m: t[n] for m, t in got.items() if t[n]}
        want_n = {m: c for m, c in want[n].items() if c}
        assert len(got_n) == len(want_n)
        for m, c in want_n.items():
            packed = p.pack(m)
            assert got_n[packed] == c
            assert p.unpack(packed, mono_degree(m)) == m
    assert set(got) == {p.pack(m) for m in set().union(*want)}


def test_cached_packing_is_read_only(monkeypatch):
    # the cache hands out the same relation set, packing included: a
    # swapped shift once made a later verify_rank12 answer differently
    from tautrel.relations import verify_rank12
    from tautrel.truncation import matrices_M

    monkeypatch.setattr(relations, "_REL_CACHE", {})
    rel = build_relation_set(7, 2)
    want = (rel.to_json(), verify_rank12(rel.block), matrices_M(rel.block))
    p = rel.packing
    assert type(p.gens) is tuple and type(p.degs) is tuple
    a, b = p.gens[:2]
    with pytest.raises(TypeError):
        p.shift[a], p.shift[b] = p.shift[b], p.shift[a]
    with pytest.raises(TypeError):
        del p.shift[a]
    with pytest.raises(TypeError):
        p.gens[0] = b
    for name in ("gens", "degs", "shift", "guard", "top", "bits", "width"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert not hasattr(p.shift, "update") and not hasattr(p.shift, "pop")
    again = build_relation_set(7, 2)
    assert again is rel and again.packing is p
    assert (again.to_json(), verify_rank12(again.block), matrices_M(again.block)) == want
