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

from operator import add, sub

from tautrel.cubicext import _trim


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
