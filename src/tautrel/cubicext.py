"""Cubic extensions of an exact field: quotients base[t]/(m(t)) with
m dividing t^3 - r.

When r is a perfect cube c^3 over the base, t^3 - r splits as
(t - c)(t^2 + c t + c^2) and each irreducible factor yields its own
extension; solvability questions downstream are invariant under the
choice within a Galois orbit, so one representative per factor is
enough.

Over QQ a monic m dividing t^3 - r has one of three shapes.  A factor
of degree 1 or 2 has a rational root c of t^3 - r, so c^3 = r and the
shapes are t - c, t^2 + c t + c^2 and t^3 - r itself.  Each is made of
one rational k = p/q, q > 0: k = c for the first two, k = r for the
third.  The field keeps p and q.

An element over QQ holds integer numerators over one positive common
denominator, normalized so that the numerators and the denominator have
gcd 1 (zero is 0/1).  Each shape has closed forms over the numerators a
and b of the operands, written out in the arithmetic methods:

  product   the schoolbook product e_0 .. e_{2 deg - 2}, folded with k:
              t^2 + c t + c^2:  (q^2 e0 - p^2 e2, q^2 e1 - p q e2) / q^2
              t^3 - r:          (q e0 + p e3, q e1 + p e4, q e2) / q
            over the product of the denominators, then one gcd of the
            numerators and the denominator.  t - c holds rationals only.
  scalar    an element times a rational, or times an element of QQ:
            the two fractions cross-cancelled, as Fraction multiplies,
            which is reduced as it stands.
  sum       the denominators cross-multiplied, with no gcd when they are
            coprime and one gcd otherwise.
  inverse   the conjugates over the norm:
              t^2 + c t + c^2:  (a0 - c a1 - a1 t) / (a0^2 - c a0 a1 + c^2 a1^2)
              t^3 - r:          (a0^2 - r a1 a2 + (r a2^2 - a0 a1) t
                                 + (a1^2 - a0 a2) t^2) / N,
                                N = a0^3 + r a1^3 + r^2 a2^3 - 3 r a0 a1 a2
            A zero norm raises NotInvertible.  Over a field only 0 has
            one, but a field built directly on a reducible t^3 - r (or
            on t^2, for r = 0) has zero divisors.

No Rat is built on the way.  The normal form is unique, so coeffs (Rats,
each numerator over the denominator, reduced) are the coefficients the
former one-Rat-per-coefficient form held, and str, == and hash, which
read them or compare the normal forms, are unchanged.

Over any other base (Q(chi1, chi2) in constraint) an element holds one
base coefficient per power of t, and a product folds the top degrees
back with the modulus itself.  inverse takes the first column of the
adjugate of the multiplication matrix over the base (for a cubic, a
cross product of two of its rows: linalg.cross).  Zero tests use the
coefficients' truth value.
"""

from __future__ import annotations

import math
from operator import add, neg, sub

from .linalg import cross
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
            k = -modulus[0] if self.deg == 1 else modulus[1] if self.deg == 2 else self.r
            self.p, self.q = int(k.numerator), int(k.denominator)
        else:
            self.fold = [(i, -c) for i, c in enumerate(modulus[:-1]) if c]
        self.zero = self.coerce(base.zero)
        self.one = self.coerce(base.one)

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
        return _sum(self.field, self.num, self.den, o.num, o.den, False)

    __radd__ = __add__

    def __neg__(self):
        return _ext(self.field, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        o = self._other(other)
        if self.den is None:
            return _ext(self.field, tuple(map(sub, self.num, o.num)), None)
        return _sum(self.field, self.num, self.den, o.num, o.den, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        field = self.field
        o = self._other(other)
        if self.den is None:
            return _ext(field, _fold_mul(field, self.num, o.num), None)
        xs, dx, ys, dy = self.num, self.den, o.num, o.den
        n = field.deg
        if n == 3:
            a0, a1, a2 = xs
            b0, b1, b2 = ys
            if not (b1 or b2):
                return _scaled(field, xs, dx, b0, dy)
            if not (a1 or a2):
                return _scaled(field, ys, dy, a0, dx)
            e3, e4 = a1 * b2 + a2 * b1, a2 * b2
            c0, c1, c2 = a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0
            p, q = field.p, field.q
            if q == 1:
                return _norm3(field, c0 + p * e3, c1 + p * e4, c2, dx * dy)
            return _norm3(field, q * c0 + p * e3, q * c1 + p * e4, q * c2, q * dx * dy)
        if n == 2:
            a0, a1 = xs
            b0, b1 = ys
            if not b1:
                return _scaled(field, xs, dx, b0, dy)
            if not a1:
                return _scaled(field, ys, dy, a0, dx)
            e2 = a1 * b1
            c0, c1 = a0 * b0, a0 * b1 + a1 * b0
            p, q = field.p, field.q
            if q == 1:
                return _norm2(field, c0 - p * p * e2, c1 - p * e2, dx * dy)
            q2 = q * q
            return _norm2(field, q2 * c0 - p * p * e2, q2 * c1 - p * q * e2, q2 * dx * dy)
        return _scaled(field, xs, dx, ys[0], dy)

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
            # x = a/D: x^-1 = D adj(a) / N(a), adj(a) the product of the
            # conjugates of a; with k = p/q, b = q adj(a) and norm = q^2 N(a)
            p, q = field.p, field.q
            if field.deg == 2:
                a0, a1 = self.num
                b0, b1 = q * a0 - p * a1, -q * a1
                norm = q * a0 * b0 + p * p * a1 * a1
            else:
                a0, a1, a2 = self.num
                b0, b1, b2 = q * a0 * a0 - p * a1 * a2, p * a2 * a2 - q * a0 * a1, q * (a1 * a1 - a0 * a2)
                norm = q * a0 * b0 + p * (a1 * b2 + a2 * b1)
            if not norm:
                raise NotInvertible(f"{self} is a zero divisor mod {field.modulus_str()}")
            k = self.den * q
            if norm < 0:
                k, norm = -k, -norm
            if field.deg == 2:
                return _norm2(field, k * b0, k * b1, norm)
            return _norm3(field, k * b0, k * b1, k * b2, norm)
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


def _norm3(field, c0, c1, c2, den: int) -> CubicExt:
    """(c0, c1, c2) / den over QQ with the common factor removed (den > 0)."""
    g = math.gcd(c0, c1, c2, den)
    if g == 1:
        return _ext(field, (c0, c1, c2), den)
    return _ext(field, (c0 // g, c1 // g, c2 // g), den // g)


def _norm2(field, c0, c1, den: int) -> CubicExt:
    """(c0, c1) / den over QQ with the common factor removed (den > 0)."""
    g = math.gcd(c0, c1, den)
    if g == 1:
        return _ext(field, (c0, c1), den)
    return _ext(field, (c0 // g, c1 // g), den // g)


def _scaled(field, xs, dx: int, b: int, db: int) -> CubicExt:
    """xs/dx times the rational b/db, both in normal form.  As Fraction
    multiplies: the content of xs cancels against db and b against dx,
    and what is left is coprime to the denominator, so the product needs
    no gcd."""
    if not b:
        return field.zero
    h = math.gcd(b, dx)
    if h != 1:
        b, dx = b // h, dx // h
    if len(xs) == 3:
        x0, x1, x2 = xs
        g = math.gcd(x0, x1, x2, db)
        if g != 1:
            x0, x1, x2, db = x0 // g, x1 // g, x2 // g, db // g
        return _ext(field, (x0 * b, x1 * b, x2 * b), dx * db)
    g = math.gcd(*xs, db)
    if g != 1:
        xs, db = [x // g for x in xs], db // g
    return _ext(field, tuple([x * b for x in xs]), dx * db)


def _sum(field, xs, dx: int, ys, dy: int, negate: bool) -> CubicExt:
    """xs/dx + ys/dy, or xs/dx - ys/dy if negate, both in normal form.
    With coprime denominators the sum needs no cancellation: a prime of dx
    does not divide dy, so it divides each numerator as it divides the
    xs, which it does not all."""
    n = field.deg
    if n == 3:
        x0, x1, x2 = xs
        y0, y1, y2 = ys
        if negate:
            y0, y1, y2 = -y0, -y1, -y2
        if dx == dy:
            return _norm3(field, x0 + y0, x1 + y1, x2 + y2, dx)
        g = math.gcd(dx, dy)
        if g == 1:
            return _ext(field, (x0 * dy + y0 * dx, x1 * dy + y1 * dx, x2 * dy + y2 * dx), dx * dy)
        a, b = dy // g, dx // g
        return _norm3(field, x0 * a + y0 * b, x1 * a + y1 * b, x2 * a + y2 * b, dx * a)
    if n == 2:
        x0, x1 = xs
        y0, y1 = ys
        if negate:
            y0, y1 = -y0, -y1
        if dx == dy:
            return _norm2(field, x0 + y0, x1 + y1, dx)
        g = math.gcd(dx, dy)
        if g == 1:
            return _ext(field, (x0 * dy + y0 * dx, x1 * dy + y1 * dx), dx * dy)
        a, b = dy // g, dx // g
        return _norm2(field, x0 * a + y0 * b, x1 * a + y1 * b, dx * a)
    (x,), (y,) = xs, ys
    num, den = (x * dy - y * dx) if negate else (x * dy + y * dx), dx * dy
    g = math.gcd(num, den)
    return _ext(field, (num // g,), den // g)


def _adjugate_column(cols: list) -> tuple:
    """(first column of adj(A), det A) for the n x n matrix A, n <= 3,
    whose column j is cols[j].  For n = 3 the column is the cross
    product of rows 1 and 2 of A, and det A is row 0 dotted with it."""
    if len(cols) == 1:
        return [1], cols[0][0]
    if len(cols) == 2:
        (a, c), (b, d) = cols  # A = [[a, b], [c, d]]
        return [d, -c], a * d - b * c
    row0, row1, row2 = zip(*cols)
    adj = cross(row1, row2)
    return adj, row0[0] * adj[0] + row0[1] * adj[1] + row0[2] * adj[2]


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
