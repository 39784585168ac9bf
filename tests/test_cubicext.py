"""CubicExt over QQ, integer numerators over one common denominator,
against the coefficient-tuple reference arithmetic and against the
former fold-and-adjugate integer path."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cubicext_oracle import FoldField, OracleCubicExt, fold_inverse, fold_mul, fold_sum
from tautrel.cubicext import CubicExt, CubicField, NotInvertible, factor_t3_minus_r
from tautrel.rat import QQ, Rat
from tautrel.ratfunc import FracField

# the irreducible t^3 - 5/3, both factors of t^3 + 8/27 = (t + 2/3)(t^2 -
# 2/3 t + 4/9), and t^3 - 2, whose fold needs no scaling
FIELDS = (factor_t3_minus_r(Rat(5, 3), QQ) + factor_t3_minus_r(Rat(-8, 27), QQ)
          + factor_t3_minus_r(Rat(2), QQ))
BIG = 2**130


def _shape(E):
    """The modulus over QQ written with the rational k = p/q it keeps:
    t^3 - k, t - k or t^2 + k t + k^2."""
    k = Rat(E.p, E.q)
    return {3: (-k, 0, 0, 1), 1: (-k, 1), 2: (k * k, k, 1)}[E.deg]


def test_fields_cover_every_modulus_shape():
    # t^3 - r, t - c and t^2 + c t + c^2, with c^3 = r, and t^3 - r again
    # with an integer r
    assert [E.deg for E in FIELDS] == [3, 1, 2, 3]
    assert [(E.p, E.q) for E in FIELDS] == [(5, 3), (-2, 3), (-2, 3), (2, 1)]
    for E in FIELDS:
        assert E.modulus == _shape(E)
        k = Rat(E.p, E.q)
        assert E.r == (k if E.deg == 3 else k**3)


def _in_normal_form(x: CubicExt):
    assert type(x.den) is int and x.den > 0
    assert all(type(n) is int for n in x.num) and len(x.num) == x.field.deg
    assert math.gcd(*x.num, x.den) == 1


def _agrees(x: CubicExt, o: OracleCubicExt):
    _in_normal_form(x)
    assert x.coeffs == o.coeffs
    assert str(x) == str(o)
    assert hash(x) == hash(o)
    assert bool(x) == bool(o) == (not x.is_zero())
    assert x.is_base() == (not any(o.coeffs[1:]))
    assert type(x.coeffs[0]) is type(Rat(0))


# rationals with planted zeros, small ones and ones past 2^100
rationals = st.one_of(
    st.just(Rat(0)),
    st.fractions(-9, 9, max_denominator=6),
    st.builds(lambda n, d: Rat(n, d), st.integers(-BIG, BIG), st.integers(1, BIG)),
).map(lambda f: Rat(f.numerator, f.denominator))


@st.composite
def operands(draw):
    E = draw(st.sampled_from(FIELDS))
    a = CubicExt(E, [draw(rationals) for _ in range(E.deg)])
    b = CubicExt(E, [draw(rationals) for _ in range(E.deg)])
    return a, b, draw(rationals)


@settings(max_examples=400, deadline=None)
@given(operands())
@example((CubicExt(FIELDS[0], [0, Rat(1, 3), 0]), CubicExt(FIELDS[0], [Rat(3), 0, 0]), Rat(0)))
@example((FIELDS[2].zero, FIELDS[2].t, Rat(-7, 2**101)))
def test_integer_arith_matches_coefficient_oracle(case):
    a, b, q = case
    oa, ob = OracleCubicExt.of(a), OracleCubicExt.of(b)
    _agrees(a, oa)
    _agrees(b, ob)
    _agrees(a + b, oa + ob)
    _agrees(a - b, oa - ob)
    _agrees(a * b, oa * ob)
    _agrees(b * a, ob * oa)
    _agrees(-a, -oa)
    _agrees(a * a * a, oa ** 3)
    _agrees(a ** 3, oa ** 3)
    _agrees(a + q, oa + q)
    _agrees(q - a, oa._other(q) - oa)
    _agrees(a * q, oa * q)
    assert (a == b) == (oa == ob) and (a == a + 0) and (a == q) == (oa == q)
    assert (a == b) <= (hash(a) == hash(b))
    for x, ox in ((a, oa), (b, ob)):
        if ox:
            _agrees(x.inverse(), ox.inverse())
            _agrees(x ** -2, ox ** -2)
            _agrees(b / x, ob / ox)
            _agrees(q / x, oa._other(q) / ox)
    if q:
        _agrees(a / q, oa / q)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda E: st.lists(rationals, min_size=E.deg, max_size=E.deg).map(lambda c: CubicExt(E, c))))
@example(CubicExt(FIELDS[0], [0, 0, Rat(-1, 7)]))
@example(CubicExt(FIELDS[2], [Rat(2, 3), 1]))  # t + 2/3: a unit mod t^2 - 2/3 t + 4/9
def test_integer_inverse_matches_xgcd_oracle(x):
    # the adjugate inverse against the extended gcd over Rats, for the
    # irreducible cubic moduli and the linear and quadratic split ones
    ox = OracleCubicExt.of(x)
    if not ox:
        with pytest.raises(NotInvertible):
            x.inverse()
        return
    inv = x.inverse()
    _agrees(inv, ox.inverse())
    assert x * inv == x.field.one


def test_integer_inverse_refuses_a_zero_divisor():
    # t^3 - 8 = (t - 2)(t^2 + 2t + 4), kept whole: t - 2 and t^2 + 2t + 4
    # have no inverse, t + 2 has one
    E = CubicField(QQ, Rat(8), (Rat(-8), 0, 0, 1))
    for zero_divisor in ([-2, 1, 0], [4, 2, 1], [Rat(-4, 3), Rat(2, 3), 0]):
        with pytest.raises(NotInvertible):
            CubicExt(E, zero_divisor).inverse()
    x = CubicExt(E, [2, 1, 0])
    _agrees(x.inverse(), OracleCubicExt.of(x).inverse())


# every shape the closed forms take, with k integral and not, and the
# fields built directly on a reducible t^3 - r (and on t^2 and t, r = 0),
# whose zero divisors have norm 0
SHAPES = tuple(FIELDS) + tuple(factor_t3_minus_r(Rat(8), QQ)) + (
    CubicField(QQ, Rat(8), (Rat(-8), 0, 0, 1)),
    CubicField(QQ, Rat(-8, 27), (Rat(8, 27), 0, 0, 1)),
    CubicField(QQ, Rat(0), (0, 0, 1)),
    CubicField(QQ, Rat(0), (0, 1)),
)
FOLDS = {id(E): FoldField(E) for E in SHAPES}


def _is(x: CubicExt, num_den: tuple):
    _in_normal_form(x)
    assert (x.num, x.den) == num_den


@st.composite
def shape_operands(draw):
    E = draw(st.sampled_from(SHAPES))
    element = st.lists(rationals, min_size=E.deg, max_size=E.deg).map(lambda c: CubicExt(E, c))
    # elements of QQ inside the extension take the scalar path
    base = rationals.map(E.coerce)
    a = draw(st.one_of(element, base))
    b = draw(st.one_of(element, base))
    return E, a, b, draw(rationals)


@settings(max_examples=600, deadline=None)
@given(shape_operands())
@example((SHAPES[6], SHAPES[6].t - 2, SHAPES[6].t ** 2 + SHAPES[6].t * 2 + 4, Rat(3)))
@example((SHAPES[8], SHAPES[8].t, SHAPES[8].coerce(Rat(2**101 + 1, 3**70)), Rat(-(2**120), 7)))
@example((FIELDS[0], CubicExt(FIELDS[0], [Rat(2**105, 3), Rat(-(2**103), 2**101 + 1), 1]),
          CubicExt(FIELDS[0], [0, Rat(3**80, 2**110), Rat(1, 3)]), Rat(3**90, 2**102)))
def test_closed_forms_match_the_fold_oracle(case):
    # products (with the scalar path), sums, differences and norm
    # inverses against the integer fold and the adjugate, on every shape
    E, a, b, q = case
    F = FOLDS[id(E)]
    Q = E.coerce(q)
    for x, y in ((a, b), (b, a), (a, Q), (Q, a)):
        _is(x * y, fold_mul(F, x.num, x.den, y.num, y.den))
        _is(x + y, fold_sum(x.num, x.den, y.num, y.den))
        _is(x - y, fold_sum(x.num, x.den, [-n for n in y.num], y.den))
    _is(a * q, fold_mul(F, a.num, a.den, Q.num, Q.den))
    _is(q * a, fold_mul(F, a.num, a.den, Q.num, Q.den))
    _is(a + q, fold_sum(a.num, a.den, Q.num, Q.den))
    _is(q - a, fold_sum(Q.num, Q.den, [-n for n in a.num], a.den))
    _is(-a, (tuple(-n for n in a.num), a.den))
    for x in (a, b, Q, a * b):
        try:
            want = fold_inverse(F, x.num, x.den)  # refuses 0 as well
        except ZeroDivisionError:
            with pytest.raises(NotInvertible):
                x.inverse()
            continue
        _is(x.inverse(), want)
        assert x * x.inverse() == E.one


big_nonzero = rationals.filter(bool)


@settings(max_examples=200, deadline=None)
@given(big_nonzero, st.lists(rationals, min_size=3, max_size=3))
@example(Rat(2**101 + 3, 3**65), [Rat(1), Rat(2**100, 7), Rat(-1, 2**103)])
def test_norm_inverse_refuses_zero_divisors_of_a_reducible_cubic(c, ys):
    # t^3 - c^3 built whole: every multiple of t - c or of t^2 + c t + c^2
    # has norm 0, and the adjugate of the fold oracle is singular there
    E = CubicField(QQ, c**3, (-c**3, 0, 0, 1))
    F = FoldField(E)
    y = CubicExt(E, ys)
    for factor in (E.t - c, E.t * E.t + E.t * c + c * c):
        x = factor * y
        _is(x, fold_mul(F, factor.num, factor.den, y.num, y.den))
        with pytest.raises(NotInvertible):
            x.inverse()
        with pytest.raises(ZeroDivisionError):
            fold_inverse(F, x.num, x.den)
    unit = E.t + c
    _is(unit.inverse(), fold_inverse(F, unit.num, unit.den))


_F1 = FracField(("chi1",))
_X = _F1.gen("chi1")
# t^3 - (chi1 - 2)/3, irreducible over Q(chi1), and t^3 - chi1^3 kept
# whole, in which t - chi1 and t^2 + chi1 t + chi1^2 are zero divisors
RATFUNC_FIELDS = (factor_t3_minus_r((_X - 2) / 3, _F1)[0],
                  CubicField(_F1, _X**3, (-_X**3, 0, 0, 1)))
small = st.integers(-3, 3)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RATFUNC_FIELDS), st.lists(st.tuples(small, small, small), min_size=3, max_size=3))
@example(RATFUNC_FIELDS[1], [(2, 3, 0), (-1, 0, 0), (0, 0, 0)])  # (2 + 3 chi1) - t
def test_ratfunc_base_inverse_matches_xgcd_oracle(E, coeffs):
    # over Q(chi1) the adjugate inverse against the extended gcd
    x = CubicExt(E, [(a + b * _X) / (1 + c * _X) for a, b, c in coeffs])
    ox = OracleCubicExt.of(x)
    if not ox:
        with pytest.raises(NotInvertible):
            x.inverse()
        return
    inv = x.inverse()
    assert inv.coeffs == ox.inverse().coeffs
    assert x * inv == E.one


def test_ratfunc_base_inverse_refuses_a_zero_divisor():
    E = RATFUNC_FIELDS[1]
    for zero_divisor in ([-_X, 1, 0], [_X**2, _X, 1], [-_X / 3, Rat(1, 3), 0]):
        with pytest.raises(NotInvertible):
            CubicExt(E, zero_divisor).inverse()
    x = CubicExt(E, [_X, 1, 0])
    assert x.inverse().coeffs == OracleCubicExt.of(x).inverse().coeffs


def test_constructor_and_coerce_give_the_normal_form():
    E = FIELDS[0]
    x = CubicExt(E, [Rat(2, 6), Rat(-4, 6), 0])
    assert x.num == (1, -2, 0) and x.den == 3
    assert E.coerce(Rat(-10, 4)).num == (-5, 0, 0) and E.coerce(Rat(-10, 4)).den == 2
    assert E.zero.num == (0, 0, 0) and E.zero.den == 1
    assert (x - x).den == 1 and str(E.zero) == "0"
    assert E.t ** 3 == E.coerce(Rat(5, 3))


def test_factor_t3_minus_r_refuses_zero():
    # t^3 has the repeated factor t: over QQ the split would give Q[t]/(t)
    # and Q[t]/(t^2), over Q(chi1) the whole t^3, and no field among them
    for base in (QQ, _F1):
        with pytest.raises(ValueError):
            factor_t3_minus_r(0, base)
    with pytest.raises(ValueError):
        factor_t3_minus_r(_X - _X, _F1)


def test_constructor_refuses_a_wrong_number_of_coefficients():
    # over Q[t]/(t^3 - 2) a fourth coefficient would be dropped by sums
    E = FIELDS[3]
    for coeffs in ([1, 0, 0, 5], [1, 0], []):
        with pytest.raises(ValueError):
            CubicExt(E, coeffs)
    with pytest.raises(ValueError):
        CubicExt(RATFUNC_FIELDS[0], [_X, 1])
    assert E.from_coeffs([1, 0, 0, 5]) == E.coerce(11)
    assert FIELDS[1].from_coeffs([Rat(2, 3)]).coeffs == (Rat(2, 3),)
