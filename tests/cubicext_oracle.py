"""Reference cubic-extension elements for the tests: one base-field
coefficient per power of t, products folded from the top.

This is the representation tautrel.cubicext.CubicExt used over QQ before
it moved to integer numerators over one common denominator.  Its values,
str, == and hash are the ones CubicExt must reproduce.  The field
descriptor is only read for its base, degree and modulus.

Its inverse is the extended Euclidean algorithm on the coefficient
tuples (upoly_xgcd), which CubicExt.inverse used over every base before
it took the adjugate of the multiplication matrix.
"""

import math
from operator import add, sub

from tautrel.cubicext import _adjugate_column, _trim


def upoly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else None
        y = b[i] if i < len(b) else None
        if x is None:
            out.append(y)
        elif y is None:
            out.append(x)
        else:
            out.append(x + y)
    return _trim(out)


def upoly_mul(a, b, zero):
    if not a or not b:
        return ()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def upoly_divmod(a, b):
    """Division with remainder over a field by any nonzero b (the
    division of tautrel.cubicext takes a monic b only)."""
    a = list(a)
    lead = b[-1]
    db = len(b) - 1
    q = [lead - lead] * max(len(a) - db, 0)
    while a and len(a) - 1 >= db:
        c = a[-1] / lead
        pos = len(a) - 1 - db
        q[pos] = c
        for i in range(db):
            a[pos + i] = a[pos + i] - c * b[i]
        a.pop()
        a = list(_trim(a))
    return _trim(q), tuple(a)


def upoly_xgcd(a, b, one):
    """(g, u, v) with u*a + v*b = g over a field (g not normalized)."""
    zero = one - one
    r0, r1 = tuple(a), tuple(b)
    s0, s1 = (one,), ()
    t0, t1 = (), (one,)
    while r1:
        q, r = upoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, upoly_add(s0, _upoly_neg(upoly_mul(q, s1, zero)))
        t0, t1 = t1, upoly_add(t0, _upoly_neg(upoly_mul(q, t1, zero)))
    return r0, s0, t0


def _upoly_neg(a):
    return tuple(-x for x in a)


class OracleCubicExt:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(field.base.coerce(c) for c in coeffs)

    @classmethod
    def of(cls, e):
        """The oracle element with the coefficients of a CubicExt."""
        return cls(e.field, e.coeffs)

    def _other(self, x):
        if isinstance(x, OracleCubicExt):
            return x
        base = self.field.base
        return OracleCubicExt(self.field, (base.coerce(x),) + (base.zero,) * (self.field.deg - 1))

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        return OracleCubicExt(self.field, map(add, self.coeffs, self._other(other).coeffs))

    def __neg__(self):
        return OracleCubicExt(self.field, (-a for a in self.coeffs))

    def __sub__(self, other):
        return OracleCubicExt(self.field, map(sub, self.coeffs, self._other(other).coeffs))

    def __mul__(self, other):
        field = self.field
        n = field.deg
        zero = field.base.zero
        fold = [(i, -c) for i, c in enumerate(field.modulus[:-1]) if c]
        prod = [zero] * (2 * n - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(self._other(other).coeffs):
                prod[i + j] = prod[i + j] + x * y
        for p in range(2 * n - 2, n - 1, -1):
            c = prod[p]
            for i, f in fold:
                prod[p - n + i] = prod[p - n + i] + c * f
        return OracleCubicExt(field, prod[:n])

    def inverse(self):
        if not self:
            raise ZeroDivisionError("zero is not invertible")
        base = self.field.base
        g, u, _ = upoly_xgcd(_trim(list(self.coeffs)), self.field.modulus, base.one)
        assert len(g) == 1
        inv = [c / g[0] for c in u]
        return OracleCubicExt(self.field, inv + [base.zero] * (self.field.deg - len(inv)))

    def __truediv__(self, other):
        return self * self._other(other).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self._other(self.field.base.one)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return all(a == b for a, b in zip(self.coeffs, self._other(other).coeffs))

    def __hash__(self):
        # an element of the base hashes as the base value it equals
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __str__(self):
        names = ["", "t", "t^2"]
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            parts.append(str(c) if i == 0 else f"({c})*{names[i]}")
        return " + ".join(parts) if parts else "0"


# -- the former integer path over QQ: fold tables and the adjugate -------
#
# CubicExt over QQ folded the top degrees of a product back with integer
# rows (t^p mod m, scaled by one common denominator) and inverted by the
# first column of the adjugate of its integer multiplication matrix.
# The code below is that path, on (numerators, denominator) pairs in
# normal form; the closed forms of tautrel.cubicext must agree with it.


class FoldField:
    """The fold of a CubicField over QQ, scaled to integers: t^p for
    deg <= p <= 2 deg - 2 reduced mod m is (sum_i f_pi t^i) / fold_den,
    with one positive common denominator; int_fold lists (p, [(i, f_pi)])
    over the nonzero f_pi."""

    def __init__(self, field):
        self.field = field
        self.deg = n = field.deg
        zero, one = field.base.zero, field.base.one
        reduced = [upoly_divmod((zero,) * p + (one,), field.modulus)[1]
                   for p in range(n, 2 * n - 1)]
        self.fold_den = den = math.lcm(*(c.denominator for red in reduced for c in red))
        self.int_fold = [
            (p, [(i, int(c.numerator) * (den // int(c.denominator)))
                 for i, c in enumerate(red) if c])
            for p, red in zip(range(n, 2 * n - 1), reduced)
        ]


def _normalized(num: list, den: int) -> tuple:
    """num / den over QQ with the common factor removed (den > 0)."""
    g = math.gcd(*num, den)
    if g != 1:
        return tuple(x // g for x in num), den // g
    return tuple(num), den


def fold_sum(xs, dx: int, ys, dy: int) -> tuple:
    """xs/dx + ys/dy, both in normal form.  With coprime denominators the
    sum needs no cancellation: a prime of dx does not divide dy, so it
    divides each numerator as it divides the xs, which it does not all."""
    if dx == dy:
        return _normalized(list(map(add, xs, ys)), dx)
    g = math.gcd(dx, dy)
    if g == 1:
        return tuple(x * dy + y * dx for x, y in zip(xs, ys)), dx * dy
    a, b = dy // g, dx // g
    return _normalized([x * a + y * b for x, y in zip(xs, ys)], dx * a)


def _int_fold(F: FoldField, prod: list) -> list:
    """fold_den * (prod mod m): the integer coefficients of degree < deg
    of the integer polynomial prod, of degree <= 2 deg - 2, reduced by
    the modulus and scaled by fold_den."""
    n, scale = F.deg, F.fold_den
    low = [scale * c for c in prod[:n]] if scale != 1 else prod[:n]
    for p, row in F.int_fold:
        c = prod[p]
        if c:
            for i, f in row:
                low[i] += c * f
    return low


def fold_mul(F: FoldField, xs, dx: int, ys, dy: int) -> tuple:
    """The product: the schoolbook product of the numerators (zero
    numerators skipped), the top degrees folded in with the integer rows,
    and one gcd of the results and the denominator."""
    n = F.deg
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                if y:
                    prod[i + j] += x * y
    den = dx * dy
    if any(prod[n:]):
        return _normalized(_int_fold(F, prod), den * F.fold_den)
    return _normalized(prod[:n], den)


def fold_inverse(F: FoldField, xs, dx: int) -> tuple:
    """x^-1 over QQ, x = xs/dx not zero, from the integer matrix A whose
    column j is fold_den * (xs t^j mod m).  Multiplication by x is
    A / (dx fold_den), so x^-1, the solution y of x y = 1, is
    dx fold_den adj(A) e_0 / det A: the first column of the adjugate over
    the determinant.  det A = 0 exactly when xs shares a factor with the
    modulus; then ZeroDivisionError.  (The former code took a rational
    x by the reciprocal; its adjugate gives the same.)"""
    n = F.deg
    cols = [_int_fold(F, [0] * j + list(xs) + [0] * (n - 1 - j)) for j in range(n)]
    adj, det = _adjugate_column(cols)
    if not det:
        raise ZeroDivisionError("zero divisor")
    k = dx * F.fold_den
    if det < 0:
        k, det = -k, -det
    return _normalized([k * c for c in adj], det)
