"""Rational functions: the fraction field of the rational-coefficient
polynomial ring, normalized so equality is representational.

A RatFunc holds its numerator and denominator as polynomials over ZZ
(Python ints) with no common factor over the integers, content included,
and the denominator's leading coefficient positive.  That is the same
normal form as "polynomial gcd cancelled, both parts integer primitive
with coprime contents", so str, == and hash read as they would over QQ.
Values leave the integers only at the QQ boundary: eval returns Rats,
and the public mpoly_gcd takes and returns polynomials over QQ.

The gcd underneath is the heuristic gcd GCDHEU (Char, Geddes and Gonnet,
J. Symb. Comp. 7, 1989): the last live variable is evaluated at a large
integer xi, the gcd of the images is taken recursively down to an
integer gcd, and a candidate is rebuilt from its symmetric xi-adic
digits.  A candidate is accepted only once exact division shows that it
divides both inputs; with xi above twice the smaller coefficient norm,
such a candidate is the gcd.  That division yields both cofactors, and
RatFunc cancels with them directly: it never divides a polynomial by
the gcd itself.  Sums use Henrici's scheme, so the gcd taken is that of
the denominators and of a factor of it, not of the full numerator and
denominator.  When a few values of xi fail, the subresultant polynomial
remainder sequence on the last live variable (recursing through
contents variable by variable) computes the gcd over QQ instead, and
exact division gives the cofactors; that path also serves as the
reference in tests.  No factorization is ever needed.
"""

from __future__ import annotations

import math

from .mpoly import MPoly, canonical_vars
from .rat import QQ, ZZ, Rat, is_rational, rat


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


def _dense(f: MPoly, live: tuple):
    """The integer polynomial f as a dense polynomial in its live
    variables (positions in f.vars)."""
    if len(live) == len(f.vars):
        return _to_dense(f.terms, len(live))
    return _to_dense({tuple(e[i] for i in live): c for e, c in f.terms.items()}, len(live))


def _sparse(p, k: int, vars: tuple, live: tuple) -> MPoly:
    """Inverse of _dense: the MPoly over ZZ in vars."""
    if len(live) == len(vars):
        return MPoly._of(vars, dict(_dense_terms(p, k)), ZZ)
    terms = {}
    for e, c in _dense_terms(p, k):
        full = [0] * len(vars)
        for i, q in zip(live, e):
            full[i] = q
        terms[tuple(full)] = c
    return MPoly._of(vars, terms, ZZ)


def _heu_cofactors(f: MPoly, g: MPoly):
    """GCDHEU on two non-constant integer polynomials over the same
    variables: (h, f/h, g/h) over ZZ with h their gcd over the integers
    (content included, sign unspecified), or None when it gives up."""
    vars = f.vars
    live = tuple(
        i for i in range(len(vars))
        if any(e[i] for e in f.terms) or any(e[i] for e in g.terms)
    )
    k = len(live)
    found = _heu_gcd(_dense(f, live), _dense(g, live), k)
    if found is None:
        return None
    return tuple(_sparse(p, k, vars, live) for p in found)


def mpoly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Primitive, positive-leading gcd of two rational-coefficient MPolys."""
    f, g, done = _gcd_args(f, g)
    if done is not None:
        return done
    found = _heu_cofactors(f.rational_content()[1].over(ZZ), g.rational_content()[1].over(ZZ))
    if found is None:
        return subresultant_gcd(f, g)
    return found[0].integer_content()[1].over(QQ)


def _quo(f: MPoly, c: int) -> MPoly:
    return MPoly._of(f.vars, {e: v // c for e, v in f.terms.items()}, ZZ)


def _cofactors(a: MPoly, b: MPoly) -> tuple:
    """(h, a/h, b/h) for nonzero integer polynomials over the same
    variables, h their gcd over the integers (content included, sign
    unspecified): GCDHEU's own cofactors, or the subresultant gcd and
    exact division when GCDHEU gives up."""
    h = None
    if not (a.is_constant() or b.is_constant()):
        found = _heu_cofactors(a, b)
        if found is not None:
            return found
        a, b = a.over(QQ), b.over(QQ)
        h = subresultant_gcd(a, b)
        # h is primitive, so by Gauss's lemma the quotients are integral
        a, b, h = a.exact_div(h).over(ZZ), b.exact_div(h).over(ZZ), h.over(ZZ)
    c = math.gcd(*a.terms.values(), *b.terms.values())
    if c != 1:
        a, b = _quo(a, c), _quo(b, c)
    return (MPoly.constant(c, a.vars, ZZ) if h is None else h * c), a, b


def _integral(num: MPoly, den: MPoly) -> tuple:
    """num and den over ZZ, both multiplied by the least positive integer
    that clears their denominators."""
    if num.domain is ZZ and den.domain is ZZ:
        return num, den
    for p in (num, den):
        if p.domain is not QQ and p.domain is not ZZ:
            raise TypeError("rational functions take polynomials over QQ or ZZ")
    scale = math.lcm(*(int(c.denominator) for p in (num, den) for c in p.terms.values()))
    return tuple(
        MPoly._of(
            p.vars,
            {e: int(c.numerator) * (scale // int(c.denominator)) for e, c in p.terms.items()},
            ZZ,
        )
        for p in (num, den)
    )


class RatFunc:
    """Canonical num/den pair of polynomials over ZZ (Python ints) with
    no common factor over the integers, content included, and the
    denominator's leading coefficient positive under graded lex.

    Equivalently: the polynomial gcd cancelled, both parts integer
    primitive up to coprime integer contents.  Operands are cancelled
    with the cofactors GCDHEU returns along with the gcd, so no
    polynomial division is needed unless GCDHEU gives up."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, MPoly):
            num = MPoly.constant(rat(num))
        if den is None:
            den = MPoly.constant(1, num.vars, ZZ)
        elif not isinstance(den, MPoly):
            den = MPoly.constant(rat(den))
        vars = canonical_vars(num.vars + den.vars)
        num = num.with_vars(vars)
        den = den.with_vars(vars)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = MPoly._of(vars, {}, ZZ)
            self.den = MPoly.constant(1, vars, ZZ)
            return
        self.num, self.den = _signed(*_cofactors(*_integral(num, den))[1:])

    @classmethod
    def _raw(cls, num: MPoly, den: MPoly) -> "RatFunc":
        """Internal: wrap an already-canonical pair."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def _of_rational(cls, q, vars: tuple) -> "RatFunc":
        q = rat(q)
        return cls._raw(
            MPoly.constant(int(q.numerator), vars, ZZ),
            MPoly.constant(int(q.denominator), vars, ZZ),
        )

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

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
            return RatFunc._of_rational(other, self.vars)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.vars == o.vars:
            if not o.num:
                return self
            if not self.num:
                return o
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        # Henrici: with h = gcd(b, d), a/b + c/d = t/(h b' d') for
        # t = a d' + c b', and t is coprime to b' d'
        a, b, c, d = self.num, self.den, o.num, o.den
        if self.vars != o.vars:
            vars = canonical_vars(self.vars + o.vars)
            a, b, c, d = (p.with_vars(vars) for p in (a, b, c, d))
        h, b, d = _cofactors(b, d)
        t = a * d + c * b
        if not t:
            return RatFunc(t)
        _, t, h = _cofactors(t, h)
        return RatFunc._raw(*_signed(t, b * d * h))

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
        # cross-cancel before multiplying: with a/b and c/d in lowest
        # terms, a'c'/(b'd') is in lowest terms too
        _, a, d = _cofactors(*self.num._aligned(o.den))
        _, c, b = _cofactors(*o.num._aligned(self.den))
        return RatFunc._raw(*_signed(a * c, b * d))

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
            return RatFunc._raw(*_signed(self.den, self.num)) ** (-n)
        if n == 0:
            return RatFunc(MPoly.constant(1, self.vars))
        # powers of a coprime pair are coprime (Gauss's lemma)
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
        """Substitute rationals for variables.

        A full assignment returns a Rat; otherwise a RatFunc in the
        remaining variables.  The values are put over one common
        denominator q, v = p/q, and substituted into the integer
        numerator and denominator, both times q^m for m the larger of
        their degrees in the assigned variables: that keeps them integer
        polynomials and leaves their quotient unchanged.
        """
        vars = self.vars
        at = [i for i, v in enumerate(vars) if v in assignment]
        keep = [i for i, v in enumerate(vars) if v not in assignment]
        vals = [rat(assignment[vars[i]]) for i in at]
        q = math.lcm(*(int(v.denominator) for v in vals))
        ps = [int(v.numerator) * (q // int(v.denominator)) for v in vals]
        m = max(sum(e[i] for i in at) for p in (self.num, self.den) for e in p.terms)
        num = _substituted(self.num, at, ps, q, m, keep)
        den = _substituted(self.den, at, ps, q, m, keep)
        if keep:
            rest = tuple(vars[i] for i in keep)
            return RatFunc(MPoly._of(rest, num, ZZ), MPoly._of(rest, den, ZZ))
        if not den:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return Rat(num.get((), 0), den[()])

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


def _substituted(f: MPoly, at: list, ps: list, q: int, m: int, keep: list) -> dict:
    """q^m f over ZZ with the variables at positions at set to p/q, m at
    least f's degree in them: {exponents of the kept variables: int}."""
    out: dict = {}
    for e, c in f.terms.items():
        s = 0
        for i, p in zip(at, ps):
            k = e[i]
            if k:
                c *= p**k
                s += k
        if s != m and q != 1:
            c *= q ** (m - s)
        key = tuple(e[i] for i in keep)
        out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


def _signed(num: MPoly, den: MPoly) -> tuple:
    """(num, den), both negated when den's leading coefficient is negative."""
    return (-num, -den) if den.leading()[1] < 0 else (num, den)


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
            return RatFunc._of_rational(x, self.vars)
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
