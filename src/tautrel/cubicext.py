"""Cubic extensions of an exact field: quotients base[t]/(m(t)) with
m dividing t^3 - r.

When r is a perfect cube c^3 over the base, t^3 - r splits as
(t - c)(t^2 + c t + c^2) and each irreducible factor yields its own
extension; solvability questions downstream are invariant under the
choice within a Galois orbit, so one representative per factor is
enough.

Over QQ an element holds integer numerators over one positive common
denominator, normalized so that the numerators and the denominator have
gcd 1 (zero is 0/1).  The field scales the fold of its monic modulus to
integers once: t^p for deg <= p <= 2 deg - 2 reduced mod m, over one
common denominator.  A product is then the schoolbook product of the
numerators (zero numerators skipped), the top degrees folded in with
those integer rows, and one gcd of the results and the denominator; a
sum cross-multiplies the denominators and needs no gcd when they are
coprime.  No Rat is built on the way.  The normal form is unique, so
coeffs (Rats, each numerator over the denominator, reduced) are the
coefficients the former one-Rat-per-coefficient form held, and str,
== and hash, which read them or compare the normal forms, are unchanged.
inverse takes the first column of the adjugate of the integer
multiplication matrix over its determinant (_int_inverse).

Over any other base (Q(chi1, chi2) in constraint) an element holds one
base coefficient per power of t, and a product folds the top degrees
back with the modulus itself.  inverse takes the same adjugate column of
the multiplication matrix over the base.  Zero tests use the
coefficients' truth value.
"""

from __future__ import annotations

import math
from operator import add, sub

from .rat import Rat, RationalField, rat, rational_cube_root


_RAT = type(Rat(0))


class NotInvertible(ArithmeticError):
    """The element is zero (or a zero divisor) in the quotient ring."""


# -- dense univariate helpers over a field descriptor (tiny degrees) ----


def _trim(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def upoly_divmod(a, b):
    """Division with remainder by a monic b over a field."""
    a = list(a)
    db = len(b) - 1
    q = [b[-1] - b[-1]] * max(len(a) - db, 0)
    while a and len(a) - 1 >= db:
        c = a[-1]
        pos = len(a) - 1 - db
        q[pos] = c
        for i in range(db):
            a[pos + i] = a[pos + i] - c * b[i]
        a.pop()
        a = list(_trim(a))
    return _trim(q), tuple(a)


# -- the extension field -------------------------------------------------


class CubicField:
    """Descriptor for base[t]/(m(t)), m monic dividing t^3 - r."""

    def __init__(self, base, r, modulus):
        self.base = base
        self.r = base.coerce(r)
        modulus = tuple(base.coerce(c) for c in modulus)
        if not (2 <= len(modulus) <= 4):
            raise ValueError("modulus degree must be 1, 2 or 3")
        if modulus[-1] != base.one:
            raise ValueError("modulus must be monic")
        self.modulus = modulus
        self.deg = len(modulus) - 1
        # m | t^3 - r, exactly
        t3 = [base.zero - self.r, base.zero, base.zero, base.one]
        _, rem = upoly_divmod(tuple(t3), modulus)
        if rem:
            raise ValueError("modulus does not divide t^3 - r")
        self.integral = isinstance(base, RationalField)
        if self.integral:
            self._scale_fold()
        else:
            self.fold = [(i, -c) for i, c in enumerate(modulus[:-1]) if c]
        self.zero = self.coerce(base.zero)
        self.one = self.coerce(base.one)

    def _scale_fold(self):
        """The fold over QQ, scaled to integers: t^p for deg <= p <=
        2 deg - 2 reduced mod m is (sum_i f_pi t^i) / fold_den, with one
        positive common denominator; int_fold lists (p, [(i, f_pi)]) over
        the nonzero f_pi."""
        n, zero, one = self.deg, self.base.zero, self.base.one
        reduced = [upoly_divmod((zero,) * p + (one,), self.modulus)[1]
                   for p in range(n, 2 * n - 1)]
        self.fold_den = den = math.lcm(*(c.denominator for red in reduced for c in red))
        self.int_fold = [
            (p, [(i, int(c.numerator) * (den // int(c.denominator)))
                 for i, c in enumerate(red) if c])
            for p, red in zip(range(n, 2 * n - 1), reduced)
        ]

    def coerce(self, x) -> "CubicExt":
        if isinstance(x, CubicExt):
            if x.field is not self and x.field != self:
                raise TypeError("element from a different extension")
            return x
        if not self.integral:
            return _ext(self, (self.base.coerce(x),) + (self.base.zero,) * (self.deg - 1), None)
        pad = (0,) * (self.deg - 1)
        if type(x) is int:
            return _ext(self, (x,) + pad, 1)
        c = x if type(x) is _RAT else self.base.coerce(x)
        return _ext(self, (int(c.numerator),) + pad, int(c.denominator))

    def from_coeffs(self, coeffs) -> "CubicExt":
        coeffs = [self.base.coerce(c) for c in coeffs]
        _, rem = upoly_divmod(tuple(coeffs), self.modulus)
        padded = list(rem) + [self.base.zero] * (self.deg - len(rem))
        return CubicExt(self, padded)

    @property
    def t(self) -> "CubicExt":
        """The distinguished cube root of r in this extension."""
        return self.from_coeffs([self.base.zero, self.base.one])

    @staticmethod
    def is_zero(x) -> bool:
        return x.is_zero()

    def modulus_str(self) -> str:
        names = {1: "t", 2: "t^2", 3: "t^3"}
        parts = []
        for p in range(self.deg, -1, -1):
            c = self.modulus[p]
            if not c:
                continue
            body = names.get(p, "")
            if p == 0:
                parts.append(str(c))
            elif c == self.base.one:
                parts.append(body)
            else:
                parts.append(f"({c})*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"{self.base!r}[t]/({self.modulus_str()})"

    def __eq__(self, other):
        return (
            isinstance(other, CubicField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("CubicField", self.base, self.modulus))


class CubicExt:
    """Element of a CubicField: the coefficients of 1, t, t^2.

    Over QQ, num holds integer numerators over den, one positive common
    denominator, with gcd(*num, den) = 1.  Over any other base, den is
    None and num holds the coefficients themselves.  CubicExt(field, c)
    takes field.deg coefficients c in the base; coeffs gives them back.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coeffs):
        self.field = field
        coeffs = tuple(coeffs)
        if len(coeffs) != field.deg:
            raise ValueError(f"{len(coeffs)} coefficients for an extension of degree {field.deg}")
        if not field.integral:
            self.num, self.den = coeffs, None
            return
        coeffs = [field.base.coerce(c) for c in coeffs]
        den = math.lcm(*(int(c.denominator) for c in coeffs))
        self.num = tuple(int(c.numerator) * (den // int(c.denominator)) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple:
        if self.den is None:
            return self.num
        return tuple(Rat(n, self.den) for n in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def _other(self, x):
        if type(x) is CubicExt and x.field is self.field:
            return x
        return self.field.coerce(x)

    def __add__(self, other):
        o = self._other(other)
        if self.den is None:
            return _ext(self.field, tuple(map(add, self.num, o.num)), None)
        return _int_sum(self.field, self.num, self.den, o.num, o.den)

    __radd__ = __add__

    def __neg__(self):
        return _ext(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._other(other)
        if self.den is None:
            return _ext(self.field, tuple(map(sub, self.num, o.num)), None)
        return _int_sum(self.field, self.num, self.den, [-y for y in o.num], o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        field = self.field
        o = self._other(other)
        if self.den is None:
            return _ext(field, _fold_mul(field, self.num, o.num), None)
        n = field.deg
        prod = [0] * (2 * n - 1)
        ys = o.num
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(ys):
                    if y:
                        prod[i + j] += x * y
        den = self.den * o.den
        if any(prod[n:]):
            return _normalized(field, _int_fold(field, prod), den * field.fold_den)
        return _normalized(field, prod[:n], den)

    __rmul__ = __mul__

    def inverse(self) -> "CubicExt":
        if self.is_zero():
            raise NotInvertible("zero is not invertible")
        field = self.field
        if self.den is not None:
            if self.is_base():
                c = self.num[0]
                sign = 1 if c > 0 else -1
                return _ext(field, (sign * self.den,) + self.num[1:], sign * c)
            return _int_inverse(self)
        # the first column of the adjugate of the multiplication matrix,
        # whose column j is x t^j mod m, over its determinant
        zero, one = field.base.zero, field.base.one
        units = [tuple(one if i == j else zero for i in range(field.deg)) for j in range(field.deg)]
        adj, det = _adjugate_column([_fold_mul(field, self.num, e) for e in units])
        if not det:
            raise NotInvertible(f"{self} is a zero divisor mod {field.modulus_str()}")
        return _ext(field, tuple(c / det for c in adj), None)

    def __truediv__(self, other):
        return self * self._other(other).inverse()

    def __rtruediv__(self, other):
        return self._other(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        try:
            o = self._other(other)
        except TypeError:
            return NotImplemented
        if self.den is not None:
            return self.den == o.den and self.num == o.num
        return all(a == b for a, b in zip(self.num, o.num))

    def __hash__(self):
        # an element of the base hashes as the base value it equals
        if self.is_base():
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def base_part(self):
        """The coefficient of 1 (useful when the element is known rational)."""
        return self.coeffs[0]

    def is_base(self) -> bool:
        return not any(self.num[1:])

    def __str__(self):
        names = ["", "t", "t^2"]
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                parts.append(f"({c})*{names[i]}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CubicExt({self.__str__()!r})"


_new = object.__new__


def _ext(field, num, den) -> CubicExt:
    """Wrap a representation already in normal form."""
    e = _new(CubicExt)
    e.field = field
    e.num = num
    e.den = den
    return e


def _normalized(field, num: list, den: int) -> CubicExt:
    """num / den over QQ with the common factor removed (den > 0)."""
    g = math.gcd(*num, den)
    if g != 1:
        return _ext(field, tuple(x // g for x in num), den // g)
    return _ext(field, tuple(num), den)


def _int_sum(field, xs, dx: int, ys, dy: int) -> CubicExt:
    """xs/dx + ys/dy, both in normal form.  With coprime denominators the
    sum needs no cancellation: a prime of dx does not divide dy, so it
    divides each numerator as it divides the xs, which it does not all."""
    if dx == dy:
        return _normalized(field, list(map(add, xs, ys)), dx)
    g = math.gcd(dx, dy)
    if g == 1:
        return _ext(field, tuple(x * dy + y * dx for x, y in zip(xs, ys)), dx * dy)
    a, b = dy // g, dx // g
    return _normalized(field, [x * a + y * b for x, y in zip(xs, ys)], dx * a)


def _int_fold(field, prod: list) -> list:
    """fold_den * (prod mod m): the integer coefficients of degree < deg
    of the integer polynomial prod, of degree <= 2 deg - 2, reduced by
    the modulus and scaled by fold_den."""
    n, scale = field.deg, field.fold_den
    low = [scale * c for c in prod[:n]] if scale != 1 else prod[:n]
    for p, row in field.int_fold:
        c = prod[p]
        if c:
            for i, f in row:
                low[i] += c * f
    return low


def _adjugate_column(cols: list) -> tuple:
    """(first column of adj(A), det A) for the n x n matrix A, n <= 3,
    whose column j is cols[j]."""
    if len(cols) == 1:
        return [1], cols[0][0]
    if len(cols) == 2:
        (a, c), (b, d) = cols  # A = [[a, b], [c, d]]
        return [d, -c], a * d - b * c
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = cols  # row i of A: ai, bi, ci
    adj = [b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2]
    return adj, a0 * adj[0] + b0 * adj[1] + c0 * adj[2]


def _int_inverse(x: CubicExt) -> CubicExt:
    """x^-1 over QQ, x = num/den not rational (so deg is 2 or 3), from
    the integer matrix A whose column j is fold_den * (num t^j mod m).
    Multiplication by x is A / (den fold_den), so x^-1, the solution y of
    x y = 1, is den fold_den adj(A) e_0 / det A: the first column of the
    adjugate over the determinant.  det A = 0 exactly when num shares a
    factor with the modulus."""
    field = x.field
    n = field.deg
    cols = [_int_fold(field, [0] * j + list(x.num) + [0] * (n - 1 - j)) for j in range(n)]
    adj, det = _adjugate_column(cols)
    if not det:
        raise NotInvertible(f"{x} is a zero divisor mod {field.modulus_str()}")
    k = x.den * field.fold_den
    if det < 0:
        k, det = -k, -det
    return _normalized(field, [k * c for c in adj], det)


def _fold_mul(field, xs, ys) -> tuple:
    """The product over a non-rational base: the schoolbook product of the
    coefficient tuples (zero coefficients skipped), the degrees >= deg
    folded back from the top."""
    n = field.deg
    zero = field.base.zero
    prod = [zero] * (2 * n - 1)  # a slot still holding zero is unwritten
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                if y:
                    acc = prod[i + j]
                    prod[i + j] = x * y if acc is zero else acc + x * y
    for p in range(2 * n - 2, n - 1, -1):
        c = prod[p]
        if c:
            for i, f in field.fold:
                acc = prod[p - n + i]
                prod[p - n + i] = c * f if acc is zero else acc + c * f
    return tuple(prod[:n])


def factor_t3_minus_r(r, base):
    """Moduli of the irreducible factors of t^3 - r over the base field.

    Over the rationals, a perfect cube r = c^3 splits off (t - c) and the
    quadratic (t^2 + c t + c^2) (irreducible: its discriminant -3c^2 < 0).
    Function-field bases keep t^3 - r whole; if r were secretly a cube
    the quotient would expose itself as NotInvertible during solving.
    r = 0 is refused: t^3 has the repeated factor t, so no quotient by a
    factor of it is a field.
    """
    r = base.coerce(r)
    if base.is_zero(r):
        raise ValueError("t^3 - r with r = 0 has the repeated factor t")
    if isinstance(base, RationalField):
        c = rational_cube_root(rat(r))
        if c is not None:
            linear = (-c, rat(1))
            quadratic = (c * c, c, rat(1))
            return [CubicField(base, r, linear), CubicField(base, r, quadratic)]
    one = base.one
    zero = base.zero
    return [CubicField(base, r, (zero - r, zero, zero, one))]
