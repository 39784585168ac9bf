import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cubicext_oracle import upoly_mul
from linalg_oracle import det_cofactor, identity, kernel, rank, solve
from mpoly_oracle import ExactDivisionError, MPoly, gcd, mpoly, ratfunc
from ratfunc_oracle import subresultant_gcd
from tautrel.cubicext import CubicField, NotInvertible, _trim, factor_t3_minus_r, upoly_divmod
from tautrel.linalg import ExactMatrix, NonSquareDet, int_gauss_jordan
from tautrel.rat import QQ, Rat, rat, rational_cube_root
from tautrel import ratfunc as ratfunc_module
from tautrel.ratfunc import FracField, mpoly_gcd

VARS = ("d", "chi1", "chi2")


def divides(a: MPoly, b: MPoly) -> bool:
    try:
        b.exact_div(a)
        return True
    except ExactDivisionError:
        return False


def rand_poly(rng, maxdeg=2, nterms=3, vars=VARS):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in vars)
        terms[e] = Rat(rng.randint(-5, 5))
    return MPoly(vars, {e: c for e, c in terms.items() if c != 0})


def test_rat_invariants():
    q = rat(6, -4)
    assert q.numerator == -3 and q.denominator == 2
    assert str(rat(0, 7)) == "0"
    assert str(rat(5)) == "5"
    assert str(rat(-3, 2)) == "-3/2"


def test_rat_submodule_not_shadowed():
    import tautrel.rat as r

    assert r.__name__ == "tautrel.rat" and r.rat is rat


def test_rational_cube_root():
    assert rational_cube_root(rat(27, 8)) == rat(3, 2)
    assert rational_cube_root(rat(-8)) == -2
    assert rational_cube_root(rat(2)) is None
    assert rational_cube_root(rat(1)) == 1


def test_poly_eval_and_mul_examples():
    d = MPoly.variable("d", ("chi1", "d"))
    chi = MPoly.variable("chi1", ("chi1", "d"))
    assert (d - 2 * chi).eval({"d": 5, "chi1": 1}) == 3
    x1 = MPoly.variable("x1", ("x1", "x2"))
    x2 = MPoly.variable("x2", ("x1", "x2"))
    assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2


def test_det1_formula_evaluation():
    F = FracField(("d", "chi1"))
    D, X = F.gen("d"), F.gen("chi1")
    det1 = (-1) ** 5 * (D - 2) ** 4 * (D - 1) / 4 * X * (D - X) * (D - 2 * X)
    assert det1.eval({"d": 5, "chi1": 1}) == -972


def test_ratfunc_normalize_examples():
    d = MPoly.variable("d")
    assert str(ratfunc(d * d - 4, d - 2)) == "d + 2"
    assert str(ratfunc(MPoly.constant(0, ("d",)), d**3)) == "0"
    rf = ratfunc((d - 4) * (d - 2), (d - 2) * (d - 2) * 8)
    assert str(rf) == "(d - 4)/(8*d - 16)"
    with pytest.raises(ZeroDivisionError):
        ratfunc(d, MPoly.constant(0, ("d",)))


def test_mpoly_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_eval_is_ring_homomorphism(a0, a1, b0, b1):
    d = MPoly.variable("d", VARS)
    chi = MPoly.variable("chi1", VARS)
    p = a0 + a1 * d * chi + d**2
    q = b0 + b1 * chi**2 - d
    pt = {"d": Rat(2), "chi1": Rat(-3), "chi2": Rat(1)}
    for a, b in ((p, q), (ratfunc(p), ratfunc(q))):
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)


def test_gcd_products_random():
    rng = random.Random(4)
    for _ in range(120):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng, 1, 2)
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        G = gcd(f * h, g * h)
        assert divides(h.rational_content()[1], G)
        (f * h).exact_div(G)
        (g * h).exact_div(G)


GCD_VARS = (("chi1",), ("d", "chi1"), ("d", "chi1", "chi2"))


@st.composite
def planted_gcd_pairs(draw):
    """(f*h, g*h) over chi1, (d, chi1) or (d, chi1, chi2); coefficients are
    integers or fractions, and terms may be few enough to give monomials."""
    vars = draw(st.sampled_from(GCD_VARS))
    coeffs = st.fractions(-20, 20, max_denominator=draw(st.sampled_from([1, 6])))
    exps = st.tuples(*[st.integers(0, 2 if len(vars) == 3 else 3)] * len(vars))

    def poly(max_terms):
        terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms))
        return MPoly(vars, {e: Rat(c.numerator, c.denominator) for e, c in terms.items()})

    f, g, h = poly(4), poly(4), poly(3)
    return f * h, g * h, h


_d = MPoly.variable("d", ("d", "chi1"))
_chi = MPoly.variable("chi1", ("d", "chi1"))
_D, _X, _Y = (MPoly.variable(v, VARS) for v in VARS)


@settings(max_examples=150, deadline=None)
@given(planted_gcd_pairs())
@example((16 * _d**2, 4 * _d * _chi, 4 * _d))
@example((16 * _d**2, _d * (_chi + 1), _d))
@example((6 * _chi**3 - 6 * _chi, (_chi - 1) * (_d - 2 * _chi) / 7, _chi - 1))
# one side free of the outer variable chi1
@example(((_d**2 - 1) * (_d + 2), (_d + 1) * (_chi**2 + _d), _d + 1))
# over the integers the gcd is only the content 2
@example((6 * _d * _chi + 6, 4 * _chi**2 - 4 * _d, MPoly.constant(2, ("d", "chi1"))))
# a gcd planted in all three variables
@example(((_D * _Y - _X + 2) * (_Y**2 + _D), (_D * _Y - _X + 2) * (_X * _Y - 3),
          _D * _Y - _X + 2))
def test_gcd_matches_subresultant_oracle(case):
    """mpoly_gcd with GCDHEU, then with every gcd on the dense fallback,
    against the subresultant gcd on MPolys over QQ."""
    A, B, h = case
    oracle = subresultant_gcd(A, B)
    a, b = ratfunc(A), ratfunc(B)
    for max_bits in (ratfunc_module.HEU_MAX_BITS, 0):
        with mock.patch.object(ratfunc_module, "HEU_MAX_BITS", max_bits):
            g = mpoly_gcd(a, b)
        G = mpoly(g).over(QQ)
        assert G == oracle and g.vars == G.vars == oracle.vars
        if not (A.is_zero() or B.is_zero() or h.is_zero()):
            assert divides(h.rational_content()[1], G)


def test_gcd_fallback_when_heuristic_gives_up(monkeypatch):
    rng = random.Random(5)
    cases = []
    for vars in GCD_VARS:
        for _ in range(8):
            f, g, h = (rand_poly(rng, vars=vars) for _ in range(3))
            if not (f.is_zero() or g.is_zero() or h.is_zero()):
                cases.append((f * h, g * h))
    expected = [gcd(A, B) for A, B in cases]
    fallbacks = []
    real = ratfunc_module._subresultant_gcd

    def counted(a, b, k):
        fallbacks.append(k)
        return real(a, b, k)

    # no xi is small enough, so every non-trivial call gives up
    monkeypatch.setattr(ratfunc_module, "HEU_MAX_BITS", 0)
    monkeypatch.setattr(ratfunc_module, "_subresultant_gcd", counted)
    assert [gcd(A, B) for A, B in cases] == expected
    assert [subresultant_gcd(A, B) for A, B in cases] == expected
    # the contents are taken through the fallback one level down
    assert {1, 2, 3} <= set(fallbacks)


def test_ratfunc_inverse_roundtrip_random():
    rng = random.Random(9)
    count = 0
    for _ in range(80):
        f, g = rand_poly(rng), rand_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        r = ratfunc(f, g)
        if r.is_zero():
            continue
        assert r * (ratfunc(g, f)) == ratfunc(MPoly.constant(1, VARS))
        count += 1
    assert count > 40


def test_exact_div_error():
    d = MPoly.variable("d")
    with pytest.raises(ExactDivisionError):
        (d**2 + 1).exact_div(d - 1)


def test_ext_invert_examples():
    E = factor_t3_minus_r(2, QQ)[0]
    t = E.t
    assert t.inverse() == E.from_coeffs([0, 0, rat(1, 2)])
    assert E.one.inverse() == E.one
    e = E.one + t
    assert e * e.inverse() == E.one
    with pytest.raises(NotInvertible):
        E.zero.inverse()


def test_ext_invert_involution_random():
    E = factor_t3_minus_r(rat(5, 3), QQ)[0]
    rng = random.Random(2)
    for _ in range(40):
        e = E.from_coeffs([rat(rng.randint(-4, 4)) for _ in range(3)])
        if e.is_zero():
            continue
        assert e.inverse().inverse() == e


def test_cube_factorization_cases():
    fields = factor_t3_minus_r(1, QQ)
    assert len(fields) == 2
    assert fields[0].t == QQ.one and fields[0].deg == 1
    assert fields[1].deg == 2 and fields[1].t ** 3 == fields[1].one
    fields = factor_t3_minus_r(-1, QQ)
    assert [f.deg for f in fields] == [1, 2]
    assert fields[0].t ** 3 == fields[0].coerce(-1)
    assert len(factor_t3_minus_r(rat(2, 5), QQ)) == 1


def test_cubic_field_over_function_field():
    F = FracField(("chi1", "chi2"))
    r = F.gen("chi1") / F.gen("chi2")
    E = factor_t3_minus_r(r, F)[0]
    t = E.t
    assert t**3 == E.coerce(r)
    e = E.one + t
    assert e * e.inverse() == E.one


def mul_oracle(a, b):
    """The product CubicExt.__mul__ computed before the fold: upoly_mul,
    then upoly_divmod by the modulus, then padding to deg coefficients."""
    E = a.field
    zero = E.base.zero
    prod = upoly_mul(_trim(list(a.coeffs)), _trim(list(b.coeffs)), zero)
    _, rem = upoly_divmod(prod, E.modulus)
    return tuple(rem) + (zero,) * (E.deg - len(rem))


_F1 = FracField(("chi1",))
_X = _F1.gen("chi1")
# the linear and quadratic factors of a rational cube, t^3 - r for a
# non-cube, and t^3 - r over Q(chi1)
ORACLE_FIELDS = (factor_t3_minus_r(rat(-8, 27), QQ) + factor_t3_minus_r(rat(5, 3), QQ)
                 + factor_t3_minus_r((_X - 2) / 3, _F1))


def _rat_coeffs():
    # zero is planted about half the time
    return st.one_of(st.just(Rat(0)), st.fractions(-9, 9, max_denominator=4).map(
        lambda f: Rat(f.numerator, f.denominator)))


@st.composite
def ext_elements(draw, E):
    if E.base is QQ:
        coeffs = [draw(_rat_coeffs()) for _ in range(E.deg)]
    else:
        coeffs = [(draw(_rat_coeffs()) + draw(_rat_coeffs()) * _X)
                  / (1 + draw(_rat_coeffs()) * _X) for _ in range(E.deg)]
    return E.from_coeffs(coeffs)


@st.composite
def ext_operand_pairs(draw):
    E = draw(st.sampled_from(ORACLE_FIELDS))
    return draw(ext_elements(E)), draw(ext_elements(E))


def test_oracle_fields_cover_three_modulus_shapes():
    assert [(E.deg, E.base is QQ) for E in ORACLE_FIELDS] == [
        (1, True), (2, True), (3, True), (3, False)]


@settings(max_examples=300, deadline=None)
@given(ext_operand_pairs())
def test_cubic_arith_matches_division_oracle(case):
    a, b = case
    E = a.field
    assert (a * b).coeffs == mul_oracle(a, b)
    assert (b * a).coeffs == mul_oracle(b, a)
    assert len((a * b).coeffs) == E.deg
    assert (a - b).coeffs == (a + (-b)).coeffs
    for x in (a, b, a - a):
        assert x.is_zero() == all(E.base.is_zero(c) for c in x.coeffs) == (not x)


def rref_oracle(M: ExactMatrix, cols=None):
    """The column-by-column elimination with row swaps that ExactMatrix.rref
    ran before the row-by-row loop: (R, pivots), pivoting only in cols."""
    R = M.copy()
    pivots = []
    pr = 0
    for col in range(M.cols) if cols is None else cols:
        pivot_row = next((i for i in range(pr, M.rows) if R.data[i][col] != 0), None)
        if pivot_row is None:
            continue
        R.data[pr], R.data[pivot_row] = R.data[pivot_row], R.data[pr]
        inv = 1 / R.data[pr][col]
        R.data[pr] = [x * inv for x in R.data[pr]]
        for i in range(M.rows):
            f = R.data[i][col]
            if i != pr and f != 0:
                R.data[i] = [a - f * b for a, b in zip(R.data[i], R.data[pr])]
        pivots.append(col)
        pr += 1
        if pr == M.rows:
            break
    return R, pivots


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Rat(0))


@st.composite
def sparse_ext_elements(draw, E):
    """Elements of a cubic extension of QQ, zero about half the time."""
    if draw(st.booleans()):
        return E.zero
    small = st.sampled_from([0, 0, 1, -1, 2, -3])
    return E.from_coeffs([Rat(draw(small), draw(st.integers(1, 2))) for _ in range(E.deg)])


@st.composite
def systems(draw):
    """(A, b) over QQ or over one of the cubic extensions of QQ in
    ORACLE_FIELDS: A = C @ B has rank at most r, and b is A @ x (solvable)
    or drawn freely (usually not, when A is rank deficient).  Over the
    extensions B and C are sparse, so A has many zero entries."""
    F = draw(st.sampled_from([QQ] + [E for E in ORACLE_FIELDS if E.base is QQ]))
    small = st.integers(-3, 3)
    if F is QQ:
        entries = small.map(Rat)
        factors = st.builds(Rat, small, st.integers(1, 3))
    else:
        entries = factors = sparse_ext_elements(F)
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(m, n)))
    B = [[draw(entries) for _ in range(n)] for _ in range(r)]
    C = [[draw(factors) for _ in range(r)] for _ in range(m)]
    A = ExactMatrix(F, [[dot(C[i], [B[k][j] for k in range(r)]) for j in range(n)]
                        for i in range(m)])
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(n)]
        b = [F.coerce(dot(row, x)) for row in A.data]
    else:
        b = [F.coerce(draw(entries)) for _ in range(m)]
    return A, b


@settings(max_examples=250, deadline=None)
@given(systems())
def test_elimination_kernel_against_oracle(system):
    A, b = system
    R, pivots, T = A.rref(with_transform=True)
    assert (R, pivots) == rref_oracle(A) == A.rref()
    assert T * A == R
    assert rank(A) == len(pivots)
    ker_A = kernel(A)
    assert len(ker_A) == A.cols - len(pivots)
    assert all(dot(row, v) == 0 for v in ker_A for row in A.data)
    x, ker, cert = solve(A, b)
    if cert is None:
        assert [dot(row, x) for row in A.data] == b
        assert ker == ker_A
    else:
        assert x is None
        assert all(dot(cert, [row[j] for row in A.data]) == 0 for j in range(A.cols))
        assert dot(cert, b) != 0


@settings(max_examples=80, deadline=None)
@given(systems(), st.booleans())
@example((ExactMatrix(QQ, [[1, 1], [0, 1]]), [Rat(1), Rat(1)]), False)
def test_gauss_jordan_leaves_matrix_unchanged(system, with_transform):
    # pivot rows are updated in place, so they must be copies of the data
    A, b = system
    before = [row[:] for row in A.data]
    rows = list(A.data)
    # the rows bottom to top, the same row lists as A's
    Ar = ExactMatrix._of(A.field, rows[::-1])
    pivots, rest = Ar.gauss_jordan(with_transform=with_transform)
    assert A.data == before and all(r is s for r, s in zip(A.data, rows))
    assert not any(row is r for _, row in pivots for r in A.data)
    assert Ar.gauss_jordan(with_transform=with_transform) == (pivots, rest)
    A.rref(with_transform=True)
    solve(A, b)
    assert A.data == before


def product_oracle(A: ExactMatrix, B: ExactMatrix) -> list:
    """The dense triple loop, every sum started at zero."""
    return [[sum((A.data[i][k] * B.data[k][j] for k in range(A.cols)), A.field.zero)
             for j in range(B.cols)] for i in range(A.rows)]


@settings(max_examples=100, deadline=None)
@given(systems())
@example((ExactMatrix(QQ, [[0, 0], [0, 2]]), [Rat(0), Rat(1)]))
def test_matrix_product_matches_dense_oracle(system):
    A, _ = system
    At = A.transpose()
    for P, Q in ((A, At), (At, A)):
        prod = (P * Q).data
        want = product_oracle(P, Q)
        assert prod == want
        assert [[str(x) for x in row] for row in prod] == [[str(x) for x in row] for row in want]


def test_gauss_jordan_pins_row_greedy_recipe():
    # pivots only left of the bar; the solution line fixes z = 1 and reads
    # the pivot unknowns off the reduced rows (the a33 certificate recipe)
    M = ExactMatrix(QQ, [[0, 1, 0], [0, 1, 1], [1, 0, 0]])
    pivots, rest = M.gauss_jordan(pivot_cols=[0, 1])
    assert [col for col, _ in pivots] == [1, 0]
    assert rest == [[0, 0, 1]]

    def line(pivot_rows):
        v = [Rat(0), Rat(0), Rat(1)]
        for col, row in pivot_rows:
            v[col] = -row[2]
        return v

    assert line(pivots) == [0, 0, 1]
    # the column-by-column loop with row swaps takes the second row as the
    # y pivot instead, and lands on another point
    R, cols = rref_oracle(M, cols=[0, 1])
    assert line(zip(cols, R.data)) == [0, -1, 1]
    # the row order decides which rows pivot
    pivots, rest = ExactMatrix(QQ, [M.data[k] for k in (1, 0, 2)]).gauss_jordan(pivot_cols=[0, 1])
    assert line(pivots) == [0, -1, 1] and rest == [[0, 0, -1]]


@st.composite
def integer_rows(draw):
    """Integer rows of planted rank at most r (A = C @ B), with zero
    rows, duplicate rows and zero columns put in, and each row scaled
    by a sign and a small or huge factor; entries reach past 2^200."""
    huge = st.integers(2**200, 2**210)
    entries = st.one_of(st.integers(-4, 4), huge, huge.map(lambda x: -x))
    m, n = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    r = draw(st.integers(0, min(m, n)))
    B = [[draw(entries) for _ in range(n)] for _ in range(r)]
    C = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(m)]
    rows = [[sum(C[i][k] * B[k][j] for k in range(r)) for j in range(n)]
            for i in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        extra = list(draw(st.sampled_from(rows))) if draw(st.booleans()) else [0] * n
        rows.insert(draw(st.integers(0, len(rows))), extra)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(rows[0])))
        for row in rows:
            row.insert(j, 0)
    factors = st.sampled_from([1, -1, 3, -6, 2**201, -(2**203)])
    return [[f * x for x in row] for row, f in zip(rows, [draw(factors) for _ in rows])]


@settings(max_examples=200, deadline=None)
@given(integer_rows())
@example([[0, 0], [0, 0]])
@example([[-2, 4, 6], [-1, 2, 3], [0, 0, -5]])
@example([[0, -3, 2**205], [0, -3, 2**205], [7, 0, 1]])
def test_int_gauss_jordan_matches_field_rref(rows):
    before = [row[:] for row in rows]
    found = int_gauss_jordan(rows)
    assert rows == before
    M = ExactMatrix(QQ, rows)
    R, pivots = M.rref()
    R_oracle, pivots_oracle = rref_oracle(M)
    cols = [col for col, _ in found]
    assert cols == pivots == pivots_oracle
    divided = [[Rat(x, row[col]) for x in row] for col, row in found]
    assert divided == R.data[:len(pivots)] == R_oracle.data[:len(pivots)]
    for col, row in found:
        assert math.gcd(*row) == 1
        assert row[col] > 0
        assert all(row[c] == 0 for c in cols if c != col)


@settings(max_examples=200, deadline=None)
@given(integer_rows(), st.lists(st.integers(-(2**70), 2**70).filter(bool), min_size=8, max_size=8))
@example([[2, -4, 6], [1, 1, 0]], [-3, 7] + [1] * 6)
def test_int_gauss_jordan_ignores_row_scaling(rows, scales):
    # the relation build hands int_gauss_jordan numerator rows that are
    # not cleared of their denominators, some of them negative
    assert len(rows) <= len(scales)
    scaled = [[f * x for x in row] for row, f in zip(rows, scales)]
    assert int_gauss_jordan(scaled) == int_gauss_jordan(rows)


def test_linalg_examples():
    I3 = identity(QQ, 3)
    assert I3.det() == 1
    M = ExactMatrix(QQ, [[1, 2], [3, 4]])
    assert M.det() == -2
    with pytest.raises(NonSquareDet):
        ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6]]).det()


def test_rref_idempotence_and_det_oracle_random():
    rng = random.Random(17)
    for n in (3, 4):
        for _ in range(25):
            M = ExactMatrix(
                QQ, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            )
            R, piv = M.rref()
            R2, piv2 = R.rref()
            assert R == R2 and piv == piv2
            assert rank(M) == rank(R)
            assert M.det() == det_cofactor(M)


def test_solve_and_kernel():
    A = ExactMatrix(QQ, [[1, 2, 3], [2, 4, 6]])
    assert len(kernel(A)) == 2
    x, ker, cert = solve(A, [1, 2])
    assert cert is None
    assert x[0] + 2 * x[1] + 3 * x[2] == 1
    x, ker, cert = solve(A, [1, 3])
    assert x is None and cert is not None
    assert cert[0] * 1 + cert[1] * 3 != 0
    assert cert[0] * 1 + cert[1] * 2 == 0


def test_kernel_over_extension():
    E = factor_t3_minus_r(2, QQ)[0]
    t = E.t
    M = ExactMatrix(E, [[t, E.one], [t * t, t]])
    ker = kernel(M)
    assert len(ker) == 1
    v = ker[0]
    assert (t * v[0] + v[1]).is_zero()


# -- hash agrees with == ----------------------------------------------------------


def _equal_cubic_fields(base):
    """Two distinct but equal descriptors of base[t]/(t^3 - 2)."""
    return [CubicField(b, 2, (-2, 0, 0, 1)) for b in (base, base)]


@st.composite
def one_value_many_ways(draw):
    """Groups of equal values, each an anchor and the ways it is written.
    A polynomial p in (d, chi1), possibly constant or free of one
    variable: as RatFuncs over wider variable tuples (over a constant
    denominator too) and as base elements of two equal cubic fields over
    Q(d, chi1); and as the reference MPoly over a wider variable tuple.
    A constant p also as an MPoly and a RatFunc in another variable, an
    int when integral, and a base element of two equal cubic fields over
    QQ.  And t + p in the two equal fields over Q(d, chi1)."""
    small = st.fractions(-4, 4, max_denominator=3).map(lambda f: Rat(f.numerator, f.denominator))
    exps = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)])
    p = MPoly(("d", "chi1"), draw(st.dictionaries(exps, small, max_size=3)))
    k = draw(st.integers(1, 5))
    function_fields = _equal_cubic_fields(FracField(("d", "chi1")))
    r = ratfunc(p)
    groups = [(r, [ratfunc(p.with_vars(VARS)),
                   ratfunc(p * k, MPoly.constant(k, ("chi1", "chi2")))]
               + [E.coerce(r) for E in function_fields]),
              (p, [p.with_vars(VARS)])]
    if p.is_constant():
        q = p.constant_value()
        ways = [MPoly.constant(q, ("chi2",)), ratfunc(MPoly.constant(q, ("chi2",))), r]
        ways += [E.coerce(q) for E in _equal_cubic_fields(QQ)]
        if q.denominator == 1:
            ways.append(int(q))
        groups.append((q, ways))
    shifted = [E.t + r for E in function_fields]
    groups.append((shifted[0], shifted))
    return groups


@settings(max_examples=120, deadline=None)
@given(one_value_many_ways())
def test_equal_values_hash_alike(groups):
    values = []
    for anchor, ways in groups:
        assert all(anchor == b for b in ways)
        values += [anchor] + ways
    for a in values:
        for b in values:
            assert (a == b) <= (hash(a) == hash(b)), (a, b)


def test_equal_values_hash_alike_examples():
    QE = _equal_cubic_fields(QQ)
    pairs = [
        (MPoly.variable("d"), MPoly.variable("d", ("d", "chi1"))),
        (MPoly.constant(3, ("d",)), 3),
        (FracField(("d",)).gen("d"), FracField(("d", "chi1")).gen("d")),
        (FracField(("d", "chi1")).coerce(Rat(-5, 3)), Rat(-5, 3)),
        (QE[0].coerce(Rat(7, 2)), Rat(7, 2)),
        (QE[0].t, QE[1].t),
        tuple(_equal_cubic_fields(QQ)),
        tuple(_equal_cubic_fields(FracField(("d", "chi1")))),
        tuple(CubicField(FracField(("d",)), 2, (-2, 0, 0, 1)) for _ in range(2)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (a, b)
