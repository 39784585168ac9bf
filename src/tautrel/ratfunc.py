"""Rational functions: the fraction field of the rational-coefficient
polynomial ring, normalized so equality is representational.

The gcd underneath is the heuristic gcd GCDHEU (Char, Geddes and Gonnet,
J. Symb. Comp. 7, 1989): with denominators cleared, the last live
variable is evaluated at a large integer xi, the gcd of the images is
taken recursively down to an integer gcd, and a candidate is rebuilt
from its symmetric xi-adic digits.  A candidate is accepted only once
exact division shows that it divides both inputs; with xi above twice
the smaller coefficient norm, such a candidate is the gcd.  When a few
values of xi fail, the subresultant polynomial remainder sequence on the
last live variable (recursing through contents variable by variable)
computes it instead; that path also serves as the reference in tests.
No factorization is ever needed.
"""

from __future__ import annotations

import math

from .mpoly import MPoly, canonical_vars
from .rat import QQ, Rat, is_rational, rat


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
    raw = MPoly.from_univariate(main, pp_gcd) * cont
    return raw.with_vars(vars).rational_content()[1]


# -- heuristic gcd over the integers ------------------------------------------
#
# A polynomial in k variables with integer coefficients is held densely
# and recursively: level 0 is an int, level k a list of level k-1
# coefficients indexed by the degree in the k-th (outermost) variable,
# with no zero at its end.  Zero is 0 at level 0 and [] above; both are
# falsy.  Lists are never changed once built.

HEU_GCD_MAX = 6  # values of xi tried before the fallback
HEU_MAX_BITS = 1 << 16  # give up rather than evaluate to larger images


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _coeffs(p, k):
    """The integer coefficients of p."""
    if k == 0:
        yield p
    elif k == 1:
        yield from p
    else:
        for c in p:
            yield from _coeffs(c, k - 1)


def _add(p, q, k):
    if k == 0:
        return p + q
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    if k == 1:
        for i, c in enumerate(q):
            out[i] += c
    else:
        for i, c in enumerate(q):
            out[i] = _add(out[i], c, k - 1)
    return _trim(out)


def _scale(p, c: int, k):
    if k == 0:
        return p * c
    if k == 1:
        return [a * c for a in p]
    return [_scale(a, c, k - 1) for a in p]


def _quo_int(p, c: int, k):
    """p / c for an integer c dividing every coefficient."""
    if k == 0:
        return p // c
    if k == 1:
        return [a // c for a in p]
    return [_quo_int(a, c, k - 1) for a in p]


def _mul(p, q, k):
    if k == 0:
        return p * q
    if not p or not q:
        return []
    if k == 1:
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    out[i + j] += a * b
        return _trim(out)
    out = [[]] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] = _add(out[i + j], _mul(a, b, k - 1), k - 1)
    return _trim(out)


def _exact_quo(p, q, k):
    """p / q when q (nonzero) divides p over the integers, else None."""
    if k == 0:
        quo, rem = divmod(p, q)
        return None if rem else quo
    if not p:
        return []
    shift = len(p) - len(q)
    if shift < 0:
        return None
    rem = list(p)
    quo = [0 if k == 1 else []] * (shift + 1)
    lead = q[-1]
    dq = len(q) - 1
    for i in range(shift, -1, -1):
        c = rem[i + dq]
        if not c:
            continue
        t = _exact_quo(c, lead, k - 1)
        if t is None:
            return None
        quo[i] = t
        if k == 1:
            for j in range(dq):
                rem[i + j] -= t * q[j]
        else:
            neg = _scale(t, -1, k - 1)
            for j in range(dq):
                if q[j]:
                    rem[i + j] = _add(rem[i + j], _mul(neg, q[j], k - 1), k - 1)
    if any(rem[:dq]):
        return None
    return quo


def _eval_last(p, x: int, k):
    """p with its outermost variable set to x (Horner)."""
    if k == 1:
        acc = 0
        for c in reversed(p):
            acc = acc * x + c
        return acc
    acc = []
    for c in reversed(p):
        acc = _add(_scale(acc, x, k - 1), c, k - 1)
    return acc


def _split_digit(g, x: int, half: int, k):
    """(r, s) with g = r + x*s and the coefficients of r in (-x/2, x/2]."""
    if k == 0:
        r = g % x
        if r > half:
            r -= x
        return r, (g - r) // x
    rs, ss = [], []
    for c in g:
        r, s = _split_digit(c, x, half, k - 1)
        rs.append(r)
        ss.append(s)
    return _trim(rs), _trim(ss)


def _interpolate(g, x: int, k):
    """The level-k polynomial whose value at x is g (level k-1), read off
    the symmetric x-adic digits of g."""
    half = x // 2
    out = []
    while g:
        r, g = _split_digit(g, x, half, k - 1)
        out.append(r)
    return out


def _heu_gcd(A, B, k):
    """(gcd, A/gcd, B/gcd) of nonzero level-k integer polynomials, or None
    when GCDHEU gives up.  The gcd is exact up to sign, integer content
    included, so an enclosing level can interpolate it."""
    if k == 0:
        g = math.gcd(A, B)
        return g, A // g, B // g
    cont = math.gcd(*_coeffs(A, k), *_coeffs(B, k))
    if cont != 1:
        A, B = _quo_int(A, cont, k), _quo_int(B, cont, k)
    norm = min(max(map(abs, _coeffs(A, k))), max(map(abs, _coeffs(B, k))))
    # above 2*norm + 1 a primitive candidate that divides both is the gcd
    x = 2 * norm + 2
    deg = max(len(A), len(B))
    for _ in range(HEU_GCD_MAX):
        if x.bit_length() * deg > HEU_MAX_BITS:
            return None
        a, b = _eval_last(A, x, k), _eval_last(B, x, k)
        found = _heu_gcd(a, b, k - 1) if a and b else None
        if found is not None:
            g, ca, cb = found
            h = _interpolate(g, x, k)
            h = _quo_int(h, math.gcd(*_coeffs(h, k)), k)
            qa = _exact_quo(A, h, k)
            qb = None if qa is None else _exact_quo(B, h, k)
            if qb is not None:
                return _scale(h, cont, k), qa, qb
            # the cofactor images give candidates of their own
            qa = _interpolate(ca, x, k)
            h = _exact_quo(A, qa, k)
            qb = None if h is None else _exact_quo(B, h, k)
            if qb is not None:
                return _scale(h, cont, k), qa, qb
            qb = _interpolate(cb, x, k)
            h = _exact_quo(B, qb, k)
            qa = None if h is None else _exact_quo(A, h, k)
            if qa is not None:
                return _scale(h, cont, k), qa, qb
        x = x * 73794 // 27011  # about 2.73, the growth of the reference algorithm
    return None


def _to_dense(terms: dict, k):
    """Level-k dense form of {exponent tuple of length k: int}."""
    if k == 0:
        return terms.get((), 0)
    by_last: dict = {}
    for e, c in terms.items():
        by_last.setdefault(e[-1], {})[e[:-1]] = c
    zero = 0 if k == 1 else []
    out = [zero] * (max(by_last) + 1)
    for p, sub in by_last.items():
        out[p] = _to_dense(sub, k - 1)
    return out


def _dense_terms(p, k, tail=()):
    """Inverse of _to_dense: yields (exponent tuple, int)."""
    if k == 0:
        if p:
            yield tail, p
        return
    for i, c in enumerate(p):
        yield from _dense_terms(c, k - 1, (i,) + tail)


def _integer_dense(f: MPoly, live: tuple):
    """f with denominators cleared, as a dense polynomial in the live
    variables (positions in f.vars)."""
    den = 1
    for c in f.terms.values():
        q = int(c.denominator)
        den = den // math.gcd(den, q) * q
    terms = {
        tuple(e[i] for i in live): int(c.numerator) * (den // int(c.denominator))
        for e, c in f.terms.items()
    }
    return _to_dense(terms, len(live))


def _heuristic_gcd(f: MPoly, g: MPoly):
    """GCDHEU on two non-constant polynomials over the same variables, or
    None."""
    vars = f.vars
    live = tuple(
        i for i, v in enumerate(vars) if f.degree_in(v) > 0 or g.degree_in(v) > 0
    )
    k = len(live)
    found = _heu_gcd(_integer_dense(f, live), _integer_dense(g, live), k)
    if found is None:
        return None
    terms = {}
    for e, c in _dense_terms(found[0], k):
        full = [0] * len(vars)
        for i, p in zip(live, e):
            full[i] = p
        terms[tuple(full)] = Rat(c)
    return MPoly(vars, terms).rational_content()[1]


def mpoly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Primitive, positive-leading gcd of two rational-coefficient MPolys."""
    f, g, done = _gcd_args(f, g)
    if done is not None:
        return done
    h = _heuristic_gcd(f, g)
    return h if h is not None else subresultant_gcd(f, g)


class RatFunc:
    """Canonical num/den pair: poly gcd cancelled, both parts integer
    primitive with coprime contents, denominator leading coefficient
    positive under graded lex."""

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
            self.num = num
            self.den = MPoly.constant(1, vars)
            return
        # constant numerator or denominator needs no polynomial gcd
        if not (num.is_constant() or den.is_constant()):
            g = mpoly_gcd(num, den)
            if not g.is_constant():
                num = num.exact_div(g)
                den = den.exact_div(g)
        cn, pn = num.rational_content()
        cd, pd = den.rational_content()
        ratio = cn / cd
        self.num = pn * Rat(ratio.numerator)
        self.den = pd * Rat(ratio.denominator)

    @classmethod
    def _raw(cls, num: MPoly, den: MPoly) -> "RatFunc":
        """Internal: wrap an already-canonical pair."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def as_rational(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        if self.num.is_zero():
            return Rat(0)
        return self.num.constant_value() / self.den.constant_value()

    @property
    def vars(self):
        return self.num.vars

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MPoly):
            return RatFunc(other)
        if is_rational(other):
            return RatFunc(MPoly.constant(rat(other), self.vars))
        return NotImplemented

    def _den_is_one(self) -> bool:
        return self.den.is_constant()

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return RatFunc(MPoly.constant(0, self.vars))
        # cross-cancel before multiplying to keep intermediates small
        a, b, c, d = self.num, self.den, o.num, o.den
        if not (a.is_constant() or d.is_constant()):
            g = mpoly_gcd(a, d)
            if not g.is_constant():
                a = a.exact_div(g)
                d = d.exact_div(g)
        if not (c.is_constant() or b.is_constant()):
            g = mpoly_gcd(c, b)
            if not g.is_constant():
                c = c.exact_div(g)
                b = b.exact_div(g)
        num = a * c
        den = b * d
        cn, pn = num.rational_content()
        cd, pd = den.rational_content()
        ratio = cn / cd
        return RatFunc._raw(pn * Rat(ratio.numerator), pd * Rat(ratio.denominator))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc._raw(o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("inverting zero")
            return RatFunc(self.den, self.num) ** (-n)
        if n == 0:
            return RatFunc(MPoly.constant(1, self.vars))
        # powers of a canonical pair are canonical (Gauss's lemma)
        return RatFunc._raw(self.num**n, self.den**n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- substitution -------------------------------------------------------

    def eval(self, assignment: dict):
        """Substitute rationals (or polynomials) for variables.

        A full rational assignment returns a Rat; otherwise a RatFunc in
        the remaining variables.
        """
        num = self.num.eval(assignment)
        den = self.den.eval(assignment)
        if isinstance(num, MPoly) or isinstance(den, MPoly):
            if not isinstance(num, MPoly):
                num = MPoly.constant(num)
            if not isinstance(den, MPoly):
                den = MPoly.constant(den)
            return RatFunc(num, den)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return num / den

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return self.num.to_str()
        num = self.num.to_str()
        den = self.den.to_str()
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({self.__str__()!r})"


class FracField:
    """Field descriptor for rational functions in a fixed variable set."""

    def __init__(self, vars):
        self.vars = canonical_vars(vars)
        self.zero = RatFunc(MPoly.constant(0, self.vars))
        self.one = RatFunc(MPoly.constant(1, self.vars))

    def coerce(self, x) -> RatFunc:
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, MPoly):
            return RatFunc(x)
        if is_rational(x):
            return RatFunc(MPoly.constant(rat(x), self.vars))
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def gen(self, name: str) -> RatFunc:
        return RatFunc(MPoly.variable(name, self.vars))

    @staticmethod
    def is_zero(x) -> bool:
        return x.is_zero()

    def __repr__(self):
        return f"QQ({', '.join(self.vars)})"

    def __eq__(self, other):
        return isinstance(other, FracField) and other.vars == self.vars

    def __hash__(self):
        return hash(("FracField", self.vars))
