"""Reference rational functions for the tests: numerator and denominator
over QQ, cancelled by the public mpoly_gcd and MPoly.exact_div and
normalized by rational_content.

This is the representation tautrel.ratfunc.RatFunc used before it moved
to polynomials over ZZ cancelled with GCDHEU's cofactors.  The canonical
form is the same (polynomial gcd cancelled, both parts integer primitive
up to coprime contents, denominator leading coefficient positive), so
str and values must agree with it exactly.
"""

from tautrel.mpoly import MPoly, canonical_vars
from tautrel.rat import QQ, Rat, is_rational, rat
from tautrel.ratfunc import RatFunc, mpoly_gcd


def _normalized(num: MPoly, den: MPoly) -> tuple:
    cn, pn = num.rational_content()
    cd, pd = den.rational_content()
    ratio = cn / cd
    return pn * Rat(ratio.numerator), pd * Rat(ratio.denominator)


def _cancelled(a: MPoly, b: MPoly) -> tuple:
    if a.is_constant() or b.is_constant():
        return a, b
    g = mpoly_gcd(a, b)
    if g.is_constant():
        return a, b
    return a.exact_div(g), b.exact_div(g)


class OracleRatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MPoly.constant(1, num.vars if isinstance(num, MPoly) else ())
        if not isinstance(num, MPoly):
            num = MPoly.constant(rat(num))
        if not isinstance(den, MPoly):
            den = MPoly.constant(rat(den))
        vars = canonical_vars(num.vars + den.vars)
        num = num.with_vars(vars)
        den = den.with_vars(vars)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = num, MPoly.constant(1, vars)
            return
        self.num, self.den = _normalized(*_cancelled(num, den))

    @classmethod
    def _raw(cls, num, den):
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, OracleRatFunc):
            return other
        if isinstance(other, MPoly):
            return OracleRatFunc(other)
        if is_rational(other):
            return OracleRatFunc(MPoly.constant(rat(other), self.vars))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if self.den == o.den:
            return OracleRatFunc(self.num + o.num, self.den)
        return OracleRatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return OracleRatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        if self.is_zero() or o.is_zero():
            return OracleRatFunc(MPoly.constant(0, self.vars))
        a, d = _cancelled(self.num, o.den)
        c, b = _cancelled(o.num, self.den)
        return OracleRatFunc._raw(*_normalized(a * c, b * d))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * OracleRatFunc._raw(o.den, o.num)

    def __pow__(self, n: int):
        if n < 0:
            return OracleRatFunc(self.den, self.num) ** (-n)
        if n == 0:
            return OracleRatFunc(MPoly.constant(1, self.vars))
        return OracleRatFunc._raw(self.num**n, self.den**n)

    def eval(self, assignment: dict):
        return self.num.eval(assignment) / self.den.eval(assignment)

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return self.num.to_str()
        num, den = self.num.to_str(), self.den.to_str()
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"


def eval_over_qq(rf, assignment: dict):
    """RatFunc.eval as it was before it substituted into the integer
    polynomials: numerator and denominator converted to QQ and evaluated
    by MPoly.eval, one MPoly per term for a partial assignment."""
    num = rf.num.over(QQ).eval(assignment)
    den = rf.den.over(QQ).eval(assignment)
    if isinstance(num, MPoly) or isinstance(den, MPoly):
        if not isinstance(num, MPoly):
            num = MPoly.constant(num)
        if not isinstance(den, MPoly):
            den = MPoly.constant(den)
        return RatFunc(num, den)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the given point")
    return num / den
