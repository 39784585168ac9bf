"""Exact rational scalars and the base coefficient field.

Rat is gmpy2's mpq when available and fractions.Fraction otherwise.
Both keep values reduced with a positive denominator, so the canonical
text form "p/q" (q omitted when 1) is just str().  The relation
expansions run on Python ints (a relations.TrackedBlock keeps integer
rows over their scales, its minors are linalg.int_det divided once);
Rat carries the coefficients of tautalg.factor_table, the values a
block is read into (the minors, the M and N blocks, the pencil's
coefficients), which verify reports and decide's sides hold, the
reference templates, the linear algebra over QQ (S among it), the
coefficients CubicExt reads out and the values of RatFunc.eval, P1's at
the constraint's sign checks among them.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    Rat = Fraction

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


def rat(num, den=None):
    """Coerce an int, string "p/q", Fraction or Rat into a Rat."""
    if den is not None:
        return Rat(num, den)
    return Rat(num)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction)) or type(x) is type(RAT_ZERO)


def _icbrt(n: int):
    """Exact integer cube root of n >= 0, or None."""
    if n < 0:
        raise ValueError("negative input")
    if n < 2:
        return n
    r = 1 << ((n.bit_length() + 2) // 3)
    while True:
        nr = (2 * r + n // (r * r)) // 3
        if nr >= r:
            break
        r = nr
    return r if r**3 == n else None


def rational_cube_root(q):
    """The exact rational c with c**3 == q, or None if q is not a cube."""
    q = rat(q)
    sign = -1 if q < 0 else 1
    num = _icbrt(abs(int(q.numerator)))
    if num is None:
        return None
    den = _icbrt(int(q.denominator))
    if den is None:
        return None
    return Rat(sign * num, den)


class RationalField:
    """Field descriptor for exact rationals (coefficients of everything)."""

    zero = RAT_ZERO
    one = RAT_ONE

    @staticmethod
    def coerce(x):
        return rat(x)

    @staticmethod
    def is_zero(x) -> bool:
        return x == 0

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class IntegerRing:
    """Ring descriptor for Python ints, the coefficients of a
    fraction-free computation.  coerce refuses a non-integral value
    instead of truncating it, and it never hands back a Rat, so products
    with an int scalar stay ints."""

    zero = 0
    one = 1

    @staticmethod
    def coerce(x):
        if type(x) is int:
            return x
        q = rat(x)
        if q.denominator != 1:
            raise ValueError(f"{q} is not an integer")
        return int(q.numerator)

    @staticmethod
    def is_zero(x) -> bool:
        return x == 0


ZZ = IntegerRing()
