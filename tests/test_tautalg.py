import random

import pytest
from hypothesis import example, given, settings, strategies as st

import relations_oracle
import symbolic_oracle
from relations_oracle import dual_involution
from tautalg_oracle import (
    BetaClass,
    GradedPoly,
    TautContext,
    ZeroPolynomial,
    beta_pushforward,
    mono_degree,
    mono_key,
    mono_mul,
    project_block,
)
from tautrel import relations
from tautrel.rat import QQ, Rat
from tautrel.tautalg import (
    DEG1,
    DEG2,
    LARGE,
    SQUARES,
    TRACKED,
    DegreeMismatch,
    gen_degree,
    gen_key,
    large_gen,
    mono_str,
    tracked_monos,
)

CTX = TautContext(QQ, 5)


def mono_mul_oracle(m1: tuple, m2: tuple) -> tuple:
    """The sort-based merge: concatenate and re-sort by gen_key (oracle
    for mono_mul's single-generator insertion)."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = list(m1) + list(m2)
    out.sort(key=gen_key, reverse=True)
    return tuple(out)


def gen_compare(a, b) -> int:
    """-1, 0 or 1 according to the ordering of two generators."""
    ka, kb = gen_key(a), gen_key(b)
    return (ka > kb) - (ka < kb)


def monomial_basis(degree: int, max_gen_degree: int) -> list:
    """All monomials of the given degree over generators of degree
    <= max_gen_degree, sorted descending under the ordering."""
    gens_desc = []
    for deg in range(max_gen_degree, 0, -1):
        if deg == 1:
            gens_desc += [(2, 0), (0, 2)]
        else:
            gens_desc += [(deg + 1, 0), (deg, 1), (deg - 1, 2)]
    gens_desc.sort(key=gen_key, reverse=True)
    out = []

    def build(prefix, start, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for i in range(start, len(gens_desc)):
            g = gens_desc[i]
            if gen_degree(g) <= remaining:
                prefix.append(g)
                build(prefix, i, remaining - gen_degree(g))
                prefix.pop()

    build([], 0, degree)
    out.sort(key=mono_key, reverse=True)
    return out


def P(coeff, *gens):
    return GradedPoly.term(CTX, coeff, gens)


def test_gen_compare_examples():
    assert gen_compare((0, 2), (2, 0)) == -1  # same degree, smaller Chern index
    assert gen_compare((3, 0), (4, 0)) == -1
    assert gen_compare((4, 0), (3, 1)) == 1
    assert gen_compare((2, 1), (2, 1)) == 0


def test_order_is_total_on_generators():
    gens = [(k, j) for j in range(3) for k in range(0, 9) if k + j - 1 >= 1]
    keys = [gen_key(g) for g in gens]
    assert len(set(keys)) == len(keys)


def test_degenerate_resolution():
    assert P(1, (1, 1)).is_zero()
    assert P(1, (1, 0)).is_zero()
    assert P(7, (0, 1)) == GradedPoly.const(CTX, 35)
    assert P(1, (0, 0)).is_zero()
    assert P(1, (-1, 2)).is_zero()
    p = P(1, (0, 1), (3, 0))
    assert p == P(5, (3, 0))


def test_graded_mul():
    one = GradedPoly.const(CTX, 1)
    c20 = P(1, (2, 0))
    assert c20 * one == c20
    prod = P(1, (2, 0)) * P(1, (0, 2))
    ((mono, coeff),) = prod.terms.items()
    assert coeff == 1 and mono == ((2, 0), (0, 2))
    assert prod.degree() == 2


def test_leading_term_examples():
    p = P(1, (2, 0)) + P(1, (0, 2))
    assert p.leading_term() == (((2, 0),), Rat(1))
    p = P(5, (3, 0))
    assert p.leading_term() == (((3, 0),), Rat(5))
    with pytest.raises(ZeroPolynomial):
        GradedPoly.zero(CTX).leading_term()


def test_monomial_count_invariant_d5():
    # dimensions of the graded pieces over the full generator range
    assert len(monomial_basis(1, 5)) == 2
    assert len(monomial_basis(2, 5)) == 6
    assert len(monomial_basis(3, 5)) == 13


def test_basis_sorted_descending():
    basis = monomial_basis(3, 5)
    keys = [mono_key(m) for m in basis]
    assert keys == sorted(keys, reverse=True)


def test_beta_nilpotency():
    z = GradedPoly.zero(CTX)
    beta = BetaClass(z, GradedPoly.const(CTX, 1), z)
    beta2 = beta * beta
    assert beta2.b2 == GradedPoly.const(CTX, 1)
    assert beta2 * beta == BetaClass(z, z, z)


def test_beta_binomial():
    a = P(1, (2, 0))
    b = P(1, (0, 2))
    x = BetaClass(a, b, GradedPoly.zero(CTX))
    sq = x**2
    assert sq.b0 == a * a
    assert sq.b1 == (a * b) + (b * a)
    assert sq.b2 == b * b


def test_pow_matches_repeated_mul():
    rng = random.Random(5)
    for _ in range(10):
        parts = []
        for _ in range(3):
            parts.append(P(rng.randint(-3, 3), (rng.randint(2, 4), rng.randint(0, 2))))
        x = BetaClass(parts[0], parts[1], parts[2])
        assert x**3 == x * x * x
        assert (x**0).b0 == GradedPoly.const(CTX, 1)


def test_pushforward():
    a = P(1, (2, 0))
    b = P(2, (0, 2))
    c = P(3, (3, 0))
    x = BetaClass(a, b, c)
    assert beta_pushforward(x, 0) == c
    assert beta_pushforward(x, 1) == b
    assert beta_pushforward(x, 2) == a
    top = BetaClass(GradedPoly.zero(CTX), GradedPoly.zero(CTX), a)
    assert beta_pushforward(top, 0) == a
    assert beta_pushforward(top, 1).is_zero()


def test_dual_involution_is_algebra_map():
    p = P(1, (2, 0)) + P(3, (0, 2))
    q = P(1, (3, 0)) + P(-2, (1, 2))
    assert dual_involution(p * q) == dual_involution(p) * dual_involution(q)
    assert dual_involution(dual_involution(p)) == p


def test_project_block():
    p = P(1, (4, 0), (3, 0)) + P(Rat(2, 3), (2, 2), (1, 2))
    left = [((4, 0),), ((3, 1),), ((2, 2),)]
    right = [((3, 0),), ((2, 1),), ((1, 2),)]
    m = project_block(p, left, right)
    assert m[0, 0] == 1
    assert m[2, 2] == Rat(2, 3)
    assert m[1, 1] == 0
    zero = project_block(GradedPoly.zero(CTX), left, right)
    assert all(zero[i, j] == 0 for i in range(3) for j in range(3))
    with pytest.raises(DegreeMismatch):
        project_block(p, [((2, 0),)], right)


def test_project_block_with_known_degree():
    # a caller that knows the degree skips p.degree(), but the bases are
    # still compared with it
    p = P(1, (4, 0), (3, 0)) + P(Rat(2, 3), (2, 2), (1, 2))
    left = [((4, 0),), ((3, 1),), ((2, 2),)]
    right = [((3, 0),), ((2, 1),), ((1, 2),)]
    assert project_block(p, left, right, 5) == project_block(p, left, right)
    with pytest.raises(DegreeMismatch):
        project_block(p, [((2, 0),)], right, 5)
    with pytest.raises(DegreeMismatch):
        project_block(p, left, right, 6)
    # without it, an inhomogeneous p is rejected
    with pytest.raises(DegreeMismatch):
        project_block(p + P(1, (2, 0)), left, right)


def test_mono_str():
    assert mono_str(((4, 0), (2, 0), (2, 0))) == "c4(0)*c2(0)^2"
    assert mono_str(()) == "1"


# generators of degree 1..5, few enough that monomials repeat them
GENS = [(k, j) for j in range(3) for k in range(7) if 1 <= k + j - 1 <= 5]
monomials = st.lists(st.sampled_from(GENS), max_size=6).map(
    lambda gens: tuple(sorted(gens, key=gen_key, reverse=True))
)


@settings(max_examples=300, deadline=None)
@given(monomials, monomials)
@example((), ())
@example((), ((3, 0),))
@example(((3, 0),), ((3, 0),))
@example(((2, 0),), ((0, 2),))
@example(((4, 0), (3, 1), (3, 1), (0, 2)), ((3, 1),))
@example(((4, 0), (3, 1), (0, 2)), ((6, 0), (0, 2)))
def test_mono_mul_matches_sort_oracle(m1, m2):
    for a, b in ((m1, m2), (m2, m1)):
        got = mono_mul(a, b)
        assert type(got) is tuple
        assert got == mono_mul_oracle(a, b)


def beta_mul_oracle(x: BetaClass, y: BetaClass) -> BetaClass:
    """The product summed with the public +, which copies a dict per sum."""
    return BetaClass(
        x.b0 * y.b0,
        x.b0 * y.b1 + x.b1 * y.b0,
        x.b0 * y.b2 + x.b1 * y.b1 + x.b2 * y.b0,
    )


def test_beta_mul_matches_plus_oracle_and_keeps_operands():
    # few generators and small coefficients, so the sums cancel terms
    rng = random.Random(11)
    gens = [(2, 0), (0, 2), (3, 0), (2, 1)]

    def rand_poly():
        p = GradedPoly.zero(CTX)
        for _ in range(rng.randint(0, 4)):
            p = p + P(rng.randint(-2, 2), *rng.sample(gens, rng.randint(1, 2)))
        return p

    def snapshot(x):
        return [list(part.terms.items()) for part in (x.b0, x.b1, x.b2)]

    for _ in range(60):
        x = BetaClass(rand_poly(), rand_poly(), rand_poly())
        y = BetaClass(rand_poly(), rand_poly(), rand_poly())
        before = snapshot(x), snapshot(y)
        got, want = x * y, beta_mul_oracle(x, y)
        assert (snapshot(x), snapshot(y)) == before
        # the same terms in the same key order
        assert snapshot(got) == snapshot(want)
        assert got.b1 is not x.b1 and got.b2 is not y.b2


# -- the layout of the truncated system against the hand-written lists ------


LAYOUT_DS = range(5, 31)


@pytest.mark.parametrize("d", LAYOUT_DS)
def test_layout_instantiates_the_hand_written_lists(d):
    # relations' minors and leading monomials, det1's single generators
    # (and the unread degree-d list beside them), and the rows of M_i, N_i
    assert relations.mon1(d) == relations_oracle.mon1(d)
    assert relations.mon2(d) == relations_oracle.mon2(d)
    high = relations_oracle.high_generators(d)
    assert [large_gen(d, o) for o in LARGE[1]] == high["deg_d_minus_1"]
    assert [large_gen(d, o) for o in LARGE[0]] == high["deg_d"]
    assert [(large_gen(d, o),) for o in LARGE[2]] == relations_oracle.tk_basis(d - 2)


def test_layout_columns_are_the_hand_written_columns():
    assert DEG1 == relations_oracle._RA_FACTORS
    assert [(u,) for u in DEG2] == relations_oracle.t2_basis()
    assert list(SQUARES) == relations_oracle.sym2_basis()
    assert list(TRACKED) == symbolic_oracle.column_keys()


@pytest.mark.parametrize("d", LAYOUT_DS)
def test_column_keys_instantiate_in_descending_order(d):
    # each column written large-first is already a monomial, of degree d,
    # and the 27 of them strictly descend in the monomial order
    monos = []
    for large, small in TRACKED:
        mono = (large_gen(d, large),) + small
        assert mono == mono_mul((large_gen(d, large),), small)
        assert mono_degree(mono) == d
        monos.append(mono)
    assert monos == tracked_monos(d)
    keys = [mono_key(m) for m in monos]
    assert len(keys) == 27
    assert all(a > b for a, b in zip(keys, keys[1:]))
