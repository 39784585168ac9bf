"""Reference rational functions for the tests: numerator and denominator
over QQ, cancelled by the public mpoly_gcd and MPoly.exact_div and
normalized by rational_content.

This is the representation tautrel.ratfunc.RatFunc used before it moved
to polynomials over ZZ cancelled with GCDHEU's cofactors.  The canonical
form is the same (polynomial gcd cancelled, both parts integer primitive
up to coprime contents, denominator leading coefficient positive), so
str and values must agree with it exactly.

subresultant_gcd below is the reference for the package's gcd: the
fallback of GCDHEU as it was computed on MPolys over QQ.
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
        if len(self.den.terms) > 1 or "*" in den:
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


# -- the subresultant gcd on MPolys over QQ ----------------------------------
#
# tautrel.ratfunc's fallback as it was before it moved to the dense integer
# form: the subresultant remainder sequence on the last live variable,
# recursing through contents variable by variable, every quotient an
# MPoly.exact_div over QQ.


def from_univariate(name: str, coeffs: dict, domain=QQ) -> MPoly:
    """Inverse of MPoly.as_univariate: {power: MPoly} back to one MPoly."""
    acc = None
    for p, poly in coeffs.items():
        vars = canonical_vars(poly.vars + (name,))
        lifted = poly.with_vars(vars)
        xi = vars.index(name)
        terms = {}
        for e, c in lifted.terms.items():
            ne = list(e)
            ne[xi] += p
            terms[tuple(ne)] = c
        piece = MPoly(vars, terms, domain)
        acc = piece if acc is None else acc + piece
    if acc is None:
        return MPoly.constant(0, (name,), domain)
    return acc


def _prem(A: dict, B: dict) -> dict:
    """Pseudo-remainder of univariate-over-MPoly dicts: lc(B)^(dA-dB+1)*A mod B."""
    dA, dB = max(A), max(B)
    lcB = B[dB]
    R = dict(A)
    e = dA - dB + 1
    while R:
        dR = max(R)
        if dR < dB:
            break
        lcR = R[dR]
        newR = {}
        for k, c in R.items():
            if k != dR:
                newR[k] = c * lcB
        for k, c in B.items():
            if k == dB:
                continue
            kk = k + dR - dB
            prev = newR.get(kk)
            term = lcR * c
            newR[kk] = -term if prev is None else prev - term
        R = {k: c for k, c in newR.items() if not c.is_zero()}
        e -= 1
    if e > 0 and R:
        f = lcB**e
        R = {k: c * f for k, c in R.items()}
    return R


def _dict_content(coeffs: dict) -> MPoly:
    acc = None
    for c in coeffs.values():
        acc = c if acc is None else subresultant_gcd(acc, c)
        if acc.is_constant():
            break
    _, prim = acc.rational_content()
    return prim


def _dict_exact_div(coeffs: dict, divisor: MPoly) -> dict:
    return {k: c.exact_div(divisor) for k, c in coeffs.items()}


def _subresultant_pp_gcd(A: dict, B: dict, one: MPoly) -> dict:
    """Gcd of primitive univariate-over-MPoly polys, up to content."""
    if max(A) < max(B):
        A, B = B, A
    g = one
    h = one
    while True:
        delta = max(A) - max(B)
        R = _prem(A, B)
        if not R:
            return B
        if max(R) == 0:
            return {0: one}
        divisor = g * h**delta
        A, B = B, _dict_exact_div(R, divisor)
        g = A[max(A)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g**delta).exact_div(h ** (delta - 1))


def _gcd_args(f: MPoly, g: MPoly):
    """Align f and g on a common variable tuple and settle the trivial
    cases: (f, g, gcd or None)."""
    if f.domain is not QQ or g.domain is not QQ:
        raise TypeError("gcd is defined over the rational coefficient domain")
    vars = canonical_vars(f.vars + g.vars)
    f = f.with_vars(vars)
    g = g.with_vars(vars)
    if f.is_zero() and g.is_zero():
        return f, g, MPoly.constant(0, vars)
    if f.is_zero():
        return f, g, g.rational_content()[1]
    if g.is_zero():
        return f, g, f.rational_content()[1]
    if f.is_constant() or g.is_constant():
        return f, g, MPoly.constant(1, vars)
    return f, g, None


def subresultant_gcd(f: MPoly, g: MPoly) -> MPoly:
    """The gcd of mpoly_gcd by the subresultant remainder sequence: the
    fallback of the heuristic and its reference."""
    f, g, done = _gcd_args(f, g)
    if done is not None:
        return done
    vars = f.vars
    main = None
    for name in reversed(vars):
        if f.degree_in(name) > 0 or g.degree_in(name) > 0:
            main = name
            break
    fu = f.as_univariate(main)
    gu = g.as_univariate(main)
    if f.degree_in(main) == 0:
        return subresultant_gcd(f, _dict_content(gu))
    if g.degree_in(main) == 0:
        return subresultant_gcd(_dict_content(fu), g)
    cf = _dict_content(fu)
    cg = _dict_content(gu)
    cont = subresultant_gcd(cf, cg)
    ppf = _dict_exact_div(fu, cf)
    ppg = _dict_exact_div(gu, cg)
    one = MPoly.constant(1, tuple(v for v in vars if v != main))
    chain_tail = _subresultant_pp_gcd(ppf, ppg, one)
    # the final chain element carries junk content in the lower variables
    pp_gcd = _dict_exact_div(chain_tail, _dict_content(chain_tail))
    raw = from_univariate(main, pp_gcd) * cont
    return raw.with_vars(vars).rational_content()[1]
