"""RatFunc over ZZ against the QQ reference, its GCDHEU fallback, the QQ
boundary, and the nonzero-terms invariant of the reference MPoly._of."""

import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import constraint_oracle
import ratfunc_oracle
from mpoly_oracle import MPoly, from_dense, mpoly, num_den, ratfunc, ratfunc_hash, to_dense
from ratfunc_oracle import OracleRatFunc, eval_over_qq
from tautrel import ratfunc as ratfunc_module
from tautrel.rat import QQ, ZZ, Rat
from tautrel.ratfunc import FracField, RatFunc, mpoly_gcd

GCD_VARS = (("chi1",), ("d", "chi1"), ("d", "chi1", "chi2"))
WIDE_VARS = ("d", "chi1", "chi2", "t")
RAT = type(Rat(0))
# a point where no factor drawn below vanishes is found among these
POINTS = ({"d": Rat(7, 3), "chi1": Rat(-5, 2), "chi2": Rat(11, 7)},
          {"d": Rat(13), "chi1": Rat(2, 9), "chi2": Rat(-3)})


def _is_zz(p: MPoly) -> bool:
    return p.domain is ZZ and all(type(c) is int and c for c in p.terms.values())


def _qq(rf) -> tuple:
    return tuple(p.over(QQ) for p in num_den(rf))


@st.composite
def ratfunc_pairs(draw):
    """Two numerator/denominator pairs over chi1, (d, chi1) or (d, chi1,
    chi2) with non-integral rational coefficients; h is planted in both
    parts of the first, and in the second's denominator and the first's
    numerator, so construction, products and sums all cancel."""
    vars = draw(st.sampled_from(GCD_VARS))
    coeffs = st.fractions(-12, 12, max_denominator=draw(st.sampled_from([1, 5])))
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))

    def poly(min_terms, max_terms):
        terms = draw(st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms))
        return MPoly(vars, {e: Rat(c.numerator, c.denominator) for e, c in terms.items()})

    f, g, h, k = poly(0, 3), poly(1, 3), poly(1, 2), poly(0, 3)
    if g.is_zero() or h.is_zero():
        g = h = MPoly.constant(Rat(3, 2), vars)
    return (f * h * g, g * h * 6), (k * g, h * Rat(-2, 3))


def _agrees(new, old):
    assert str(new) == str(old)
    num, den = num_den(new)
    assert _is_zz(num) and _is_zz(den)
    assert num.vars == old.num.vars and den.vars == old.den.vars
    n, d = _qq(new)
    assert n * old.den == old.num * d
    assert hash(new) == ratfunc_hash(old.num, old.den)
    wide = ratfunc(old.num.with_vars(WIDE_VARS), old.den.with_vars(WIDE_VARS))
    assert new == wide and hash(new) == hash(wide)
    for pt in POINTS:
        if old.den.eval(pt) != 0:
            v = new.eval(pt)
            assert type(v) is RAT and v == old.eval(pt)
            break


@st.composite
def polynomial_quotients(draw):
    """(p, q): two MPolys over one to three of (d, chi1, chi2), in any
    order, with integer or rational coefficients; either may be constant
    or zero."""
    vars = tuple(draw(st.lists(st.sampled_from(GCD_VARS[-1]), min_size=1, max_size=3,
                               unique=True)))
    coeffs = st.fractions(-9, 9, max_denominator=draw(st.sampled_from([1, 4])))
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))

    def poly():
        terms = draw(st.dictionaries(exps, coeffs, max_size=4))
        return MPoly(vars, {e: Rat(c.numerator, c.denominator) for e, c in terms.items()})

    return poly(), poly()


@settings(max_examples=200, deadline=None)
@given(polynomial_quotients())
@example((MPoly.constant(Rat(-7, 4), ("chi2",)), MPoly.constant(0, ("chi2",))))
@example((MPoly.variable("chi1") * 3 - 3, MPoly.constant(6, ("chi1",))))
def test_dense_str_eq_and_hash_match_the_mpoly_path(case):
    """The polynomial p and the quotient p/q as RatFuncs against the
    reference path, whose parts are MPolys: str byte for byte, the parts'
    str, == and hash with the same function over a wider variable tuple,
    the hash RatFunc had over MPolys, and a constant equal to its Rat and
    hashing as it."""
    p, q = case
    pairs = [(p, MPoly.constant(1, p.vars))] + ([(p, q)] if q else [])
    for num, den in pairs:
        r, o = ratfunc(num, den), OracleRatFunc(num, den)
        assert str(r) == str(o)
        assert (str(r.num), str(r.den)) == (str(o.num), str(o.den))
        assert hash(r) == ratfunc_hash(o.num, o.den)
        wide = ratfunc(num.with_vars(WIDE_VARS), den.with_vars(WIDE_VARS))
        assert wide.vars == WIDE_VARS and r.vars == o.vars
        assert r == wide and hash(r) == hash(wide)
        assert (r == wide + 1) is False
        if o.num.is_constant() and o.den.is_constant():
            value = o.num.constant_value() / o.den.constant_value()
            assert r == value and hash(r) == hash(value)


OPS = (operator.add, operator.sub, operator.mul, operator.truediv)

_d = MPoly.variable("d", ("d", "chi1"))
_x = MPoly.variable("chi1", ("d", "chi1"))


@settings(max_examples=120, deadline=None)
@given(ratfunc_pairs(), st.integers(-2, 3))
@example((((_d - _x) * 4, (_d - _x) * (_x + 1) * 6), (_x + 1, (_d - _x) / 3)), -1)
@example(((_x * 0, _d), (_d * Rat(1, 2), _x * Rat(-4, 7))), 2)
def test_ratfunc_matches_qq_oracle(pairs, n):
    (a_num, a_den), (b_num, b_den) = pairs
    a, b = ratfunc(a_num, a_den), ratfunc(b_num, b_den)
    oa, ob = OracleRatFunc(a_num, a_den), OracleRatFunc(b_num, b_den)
    _agrees(a, oa)
    _agrees(b, ob)
    for op in OPS:
        if op is operator.truediv and b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a / b
            continue
        _agrees(op(a, b), op(oa, ob))
    _agrees(a * Rat(-5, 4), oa * Rat(-5, 4))
    _agrees(a + 3, oa + 3)
    if n >= 0 or not a.is_zero():
        _agrees(a**n, oa**n)


values = st.one_of(
    st.integers(-6, 6),
    st.builds(Rat, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 7])),
)


@settings(max_examples=150, deadline=None)
@given(ratfunc_pairs(), st.data())
def test_eval_matches_qq_path(pairs, data):
    """eval over the integers against the old QQ path: full, partial and
    empty assignments, rational values with denominators, zero
    denominators included."""
    for num, den in pairs:
        r = ratfunc(num, den)
        names = data.draw(st.lists(st.sampled_from(r.vars + ("chi2",)), unique=True))
        drawn = {v: data.draw(values) for v in names}
        for pt in ({"d": 2}, {"d": Rat(1, 2), "chi1": -1}, {}, drawn):
            try:
                want = eval_over_qq(r, pt)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    r.eval(pt)
                continue
            got = r.eval(pt)
            assert type(got) is type(want) and got == want and str(got) == str(want)
            if isinstance(got, RatFunc):
                assert got.vars == want.vars and all(map(_is_zz, num_den(got)))


def _fallback_cases():
    d = MPoly.variable("d", ("d", "chi1", "chi2"))
    x = MPoly.variable("chi1", ("d", "chi1", "chi2"))
    y = MPoly.variable("chi2", ("d", "chi1", "chi2"))
    h = (d - 2 * x) * (y + 1)
    return [
        (h * (d + Rat(1, 3)), h * x * 4),
        ((x**2 - y**2) * 6, (x + y) * (d - 2) * Rat(9, 2)),
        (d**3 - x * y, (d - y) ** 2),
        ((d - 2 * x) * Rat(2, 5), h),
    ]


def _operands(cases):
    return [(ratfunc(num, den), ratfunc(den + 1, num * 2)) for num, den in cases]


def _ops(operands):
    out = []
    for r, s in operands:
        out += [r, r + s, r - s, r * s, r / s, r**-2, r * Rat(-5, 4), r + 3]
    return out


def _counting_fallback(monkeypatch):
    """Forces every non-trivial gcd onto the dense fallback; returns the
    list that records its calls."""
    calls = []
    real = ratfunc_module._subresultant_gcd

    def counted(a, b, k):
        calls.append(k)
        return real(a, b, k)

    # no xi is small enough, so every non-trivial gcd takes the fallback
    monkeypatch.setattr(ratfunc_module, "HEU_MAX_BITS", 0)
    monkeypatch.setattr(ratfunc_module, "_subresultant_gcd", counted)
    return calls


def test_ratfunc_fallback_gives_same_results(monkeypatch):
    cases = _fallback_cases()
    expected = _ops(_operands(cases))
    fallbacks = _counting_fallback(monkeypatch)
    got = _ops(_operands(cases))
    assert fallbacks
    for r, e in zip(got, expected):
        assert str(r) == str(e) and r == e and hash(r) == hash(e)
        assert all(map(_is_zz, num_den(r)))


def test_fallback_arithmetic_stays_dense(monkeypatch):
    """+ - * / ** on operands over one variable tuple, every gcd on the
    fallback, never leave the dense form: no polynomial is read out as
    terms or built from them."""
    operands = _operands(_fallback_cases())
    expected = _ops(operands)
    fallbacks = _counting_fallback(monkeypatch)
    converted = []
    for name in ("_dense_terms", "_to_dense"):
        def recorded(*args, _real=getattr(ratfunc_module, name), _name=name):
            converted.append(_name)
            return _real(*args)
        monkeypatch.setattr(ratfunc_module, name, recorded)
    got = _ops(operands)
    assert converted == [] and fallbacks
    assert all(r == e for r, e in zip(got, expected))


def _tail_cases():
    """Pairs of integer polynomials of positive degree in the outermost
    variable, with a planted common factor, over one to three variables."""
    rng = random.Random(20)
    for vars in GCD_VARS:
        def poly(deg):
            terms = {tuple(rng.randint(0, 2) for _ in vars[:-1]) + (rng.randint(1, deg),):
                     Rat(rng.randint(-6, 6)) for _ in range(3)}
            return MPoly(vars, terms) + rng.randint(-3, 3)
        for _ in range(6):
            f, g, h = poly(3), poly(2), poly(1)
            if h.degree_in(vars[-1]) > 0 and (f * h).degree_in(vars[-1]) > 0 \
                    and (g * h).degree_in(vars[-1]) > 0:
                yield vars, f * h, g * h


def test_subresultant_tail_matches_the_mpoly_sequence():
    """The dense remainder sequence ends in exactly the polynomial the
    MPoly sequence over QQ ends in, not one of its multiples."""
    count = 0
    for vars, A, B in _tail_cases():
        main, rest = vars[-1], vars[:-1]
        one = MPoly.constant(1, rest)
        want = ratfunc_oracle._subresultant_pp_gcd(
            A.as_univariate(main), B.as_univariate(main), one)
        tail = ratfunc_module._subresultant_tail(*(to_dense(p) for p in (A, B)), len(vars))
        got = {i: from_dense(c, rest) for i, c in enumerate(tail) if c}
        assert got == want, (A, B)
        count += len(tail) > 1
    assert count >= 6


def test_rational_boundary_returns_rat():
    F = FracField(("d", "chi1"))
    origin = {"d": 0, "chi1": 0}
    assert type(F.coerce(Rat(2, 3)).eval(origin)) is RAT
    third = ratfunc(MPoly.constant(1, ("d",)), MPoly.constant(3, ("d",)))
    assert third.eval(origin) == Rat(1, 3) and type(third.eval(origin)) is RAT
    assert type(ratfunc(MPoly.constant(6, ("d",))).eval(origin)) is RAT
    assert type(F.zero.eval(origin)) is RAT
    r = (F.gen("d") + 1) / (F.gen("chi1") * 2)
    v = r.eval({"d": 3, "chi1": 2})
    assert v == 1 and type(v) is RAT
    v = r.eval({"d": Rat(1, 2), "chi1": 5})
    assert v == Rat(3, 20) and type(v) is RAT
    partial = r.eval({"d": Rat(1, 2)})
    assert isinstance(partial, RatFunc) and _is_zz(mpoly(partial.num))
    # an integer polynomial compares with a non-integral rational
    assert third.den == 3 and third.den != Rat(1, 3) and (r.num == Rat(1, 2)) is False


def test_qq_boundary_of_slices_and_gcd():
    # the constraint's coordinates are integer pairs; their chi'-slice
    # numerators leave them at the QQ boundary
    coords = constraint_oracle.coordinates(5)
    assert all(_is_zz(p) for c in coords for p in num_den(c))
    num1, num2 = (mpoly(c.eval({"chi2": 2}).num).over(QQ) for c in coords)
    assert num1.domain is QQ and num2.domain is QQ
    assert all(type(c) is RAT for c in num2.terms.values())
    # the gcd takes polynomials over QQ and returns one over ZZ
    x = FracField(("chi1",)).gen("chi1")
    g = mpoly_gcd((x - 1) * (x + Rat(1, 2)), (x + Rat(1, 2)) * 4)
    assert g.den == 1 and str(g) == "2*chi1 + 1"
    with pytest.raises(TypeError):
        mpoly_gcd(x, 1 / x)


@st.composite
def mpolys(draw, vars=("d", "chi1")):
    domain = draw(st.sampled_from([QQ, ZZ]))
    coeffs = st.integers(-3, 3) if domain is ZZ else st.fractions(-3, 3, max_denominator=3)
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))
    terms = draw(st.dictionaries(exps, coeffs, max_size=5))
    return MPoly(vars, {e: domain.coerce(c) for e, c in terms.items()}, domain)


def _no_zero_terms(p: MPoly):
    assert all(c for c in p.terms.values()), p.terms


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_of_outputs_hold_no_zero_coefficient(data):
    a = data.draw(mpolys())
    b = data.draw(mpolys().filter(lambda p: p.domain is a.domain))
    c = data.draw(st.integers(-2, 2))
    # (a + b)(a - b) and a + (-a) + b plant cancellations
    for p in (a * b, (a + b) * (a - b), -a, a * c, c * b, a + b, a + (-a) + b, a - a):
        _no_zero_terms(p)
    if a.domain is QQ and a.terms:
        content, prim = a.rational_content()
        _no_zero_terms(prim)
        assert prim * content == a


def _both(num, den):
    return ratfunc(num, den), OracleRatFunc(num, den)


# denominators with a negative graded-lex leading coefficient; in the last
# four the outermost variable's top term (chi1^k) is not the graded-lex
# leading term, and its coefficient has the other sign
NEGATIVE_LEADS = (
    _d - _x**2,
    _d**2 - _x**3,
    -(_x**3 - _d**2) * 3,
    _x - _d**2,
    _x**2 - _d * _x,
    (_x**2 - _d * _x) * (_d + 1),
    _x**3 - _d**2 * _x * 2 + 5,
)


def test_sign_normalization_matches_qq_oracle():
    """den's graded-lex leading coefficient decides the sign, not the
    dense form's outermost-variable top term."""
    nums = (_d + 1, _x * Rat(-3, 2), MPoly.constant(7, ("d", "chi1")), _d * _x - 4)
    for den in NEGATIVE_LEADS:
        assert den.leading()[1] < 0
        for num in nums:
            r, o = _both(num, den)
            _agrees(r, o)
            assert mpoly(r.den).leading()[1] > 0
            assert r == ratfunc(-num, -den) and hash(r) == hash(ratfunc(num * 2, den * 2))
            _agrees(r + ratfunc(_x, den), o + OracleRatFunc(_x, den))
            _agrees(r * ratfunc(den, _d - 3), o * OracleRatFunc(den, _d - 3))
            _agrees(r**-1, o**-1)
    for a, b in zip(NEGATIVE_LEADS, NEGATIVE_LEADS[1:]):
        r, s = ratfunc(_d, a), ratfunc(_x + 2, b)
        o, p = OracleRatFunc(_d, a), OracleRatFunc(_x + 2, b)
        for op in OPS:
            _agrees(op(r, s), op(o, p))


_y = MPoly.variable("chi1")


def test_mixed_variable_sets_match_qq_oracle():
    """Q(chi1) with QQ(d, chi1) operands, and constants in no variable
    with both, against the QQ reference; the results live in the union
    of the variables."""
    uni = ((_y**2 - 4, _y * 3 + 6), (_y * Rat(-1, 2), _y**2 + 1),
           (_y - 2, MPoly.constant(5, ("chi1",))))
    bi = ((_d - _x * 2, (_x + 2) * _d), (_x**2 - 4, _d - _x**2), (_d * 0, _d))
    const = ((MPoly.constant(Rat(3, 2)), MPoly.constant(-4)), (MPoly.constant(0), MPoly.constant(1)))
    cases = [_both(*p) for p in uni + bi + const]
    for r, o in cases:
        _agrees(r, o)
        for s, p in cases:
            for op in OPS:
                if op is operator.truediv and s.is_zero():
                    continue
                got, want = op(r, s), op(o, p)
                _agrees(got, want)
                assert got.vars == want.vars
        _agrees(r + 3, o + 3)
        _agrees(r * Rat(-5, 4), o * Rat(-5, 4))
    # the same function over different variable sets compares equal
    assert ratfunc(_y + 1) == ratfunc(_x + 1) and ratfunc(_y, _y) == 1
    assert ratfunc(_x * 0 + 3, _x - _x + 2) == ratfunc(MPoly.constant(Rat(3, 2)))


def test_partial_eval_returns_ratfunc_in_the_rest():
    r = ratfunc((_x**2 - 4) * _d, (_d - _x * 2) * (_x + 1))
    o = OracleRatFunc((_x**2 - 4) * _d, (_d - _x * 2) * (_x + 1))
    got = r.eval({"d": Rat(4)})
    assert isinstance(got, RatFunc) and got.vars == ("chi1",)
    want = eval_over_qq(r, {"d": Rat(4)})
    assert str(got) == str(want) == "(-2*chi1 - 4)/(chi1 + 1)"
    assert got == want and hash(got) == hash(want) and _is_zz(mpoly(got.num))
    # the result combines with univariate and bivariate operands
    s, p = _both(_y + 2, _y - 3)
    _agrees(got * s, OracleRatFunc(*_qq(got)) * p)
    _agrees(got - r, OracleRatFunc(*_qq(got)) - o)
    assert got.eval({"chi1": Rat(1, 2)}) == r.eval({"d": 4, "chi1": Rat(1, 2)}) == Rat(-10, 3)
