"""Sparse multivariate polynomials, the reference the tests convert through.

Monomials are exponent tuples against a variable tuple, and leading
terms, str and the nonzero-terms invariant follow tautrel.mpoly's
canonical variable order and term printer.  Coefficients are exact
rationals by default.  The ``domain`` names another coefficient ring:
Python ints (the ring ZZ), or any field of the tower, as the reference
S solve uses over a rational function field.  Coefficients are tested
for zero by their truth value, which every domain in the tower supports.

tautrel.ratfunc.RatFunc used to read its numerator and denominator as
MPolys, and mpoly_gcd took and returned them.  The package now holds
every polynomial as a RatFunc's dense integer pair; the helpers at the
end convert between the two forms, so that the tests can compare the
package with this reference:

- ratfunc(num, den) is the RatFunc num/den of MPolys or rationals, made
  by FracField generators and RatFunc arithmetic alone;
- mpoly(p) reads a polynomial RatFunc back as an MPoly over ZZ, and
  num_den(r) reads r's numerator and denominator so;
- from_dense and to_dense convert between an MPoly over ZZ and the dense
  integer form of tautrel.ratfunc's private helpers;
- gcd(f, g) is mpoly_gcd on MPolys over QQ;
- ratfunc_hash(num, den) is the hash RatFunc had when it read its parts
  as MPolys.
"""

from __future__ import annotations

import math
from operator import add

from tautrel import ratfunc as _ratfunc
from tautrel.mpoly import canonical_vars, signed_term
from tautrel.rat import QQ, ZZ, Rat, is_rational, rat
from tautrel.ratfunc import FracField, RatFunc, mpoly_gcd


class ExactDivisionError(ArithmeticError):
    """Polynomial division was requested but the quotient is not exact."""


class MPoly:
    """Multivariate polynomial, immutable after construction."""

    __slots__ = ("vars", "terms", "domain")

    def __init__(self, vars, terms, domain=QQ):
        self.vars = tuple(vars)
        self.domain = domain
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def _of(cls, vars: tuple, terms: dict, domain=QQ) -> "MPoly":
        """Internal: wrap terms whose coefficients are known to be nonzero
        domain elements, without filtering or copying them."""
        out = cls.__new__(cls)
        out.vars = vars
        out.terms = terms
        out.domain = domain
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, vars=(), domain=QQ):
        vars = tuple(vars)
        value = domain.coerce(value)
        if not value:
            return cls._of(vars, {}, domain)
        return cls._of(vars, {(0,) * len(vars): value}, domain)

    @classmethod
    def variable(cls, name, vars=None, domain=QQ):
        if vars is None:
            vars = (name,)
        vars = canonical_vars(vars)
        if name not in vars:
            raise ValueError(f"variable {name!r} not among {vars}")
        exp = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exp: domain.one}, domain)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """The coefficient of the constant monomial (poly need not be constant)."""
        zero_exp = (0,) * len(self.vars)
        return self.terms.get(zero_exp, self.domain.zero)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def leading(self):
        """(exponent, coeff) maximal under graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda e: (sum(e), e))
        return e, self.terms[e]

    # -- variable handling ---------------------------------------------

    def with_vars(self, vars) -> "MPoly":
        vars = tuple(vars)
        if vars == self.vars:
            return self
        if not set(self.vars) <= set(vars):
            missing = set(self.vars) - set(vars)
            for name in missing:
                if self.degree_in(name) > 0:
                    raise ValueError(f"cannot drop live variable {name!r}")
        idx = [vars.index(v) if v in vars else None for v in self.vars]
        n = len(vars)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for i, p in enumerate(e):
                if p:
                    ne[idx[i]] = p
            terms[tuple(ne)] = c
        return MPoly._of(vars, terms, self.domain)

    def _aligned(self, other):
        if isinstance(other, MPoly):
            if other.vars == self.vars:
                return self, other
            union = canonical_vars(self.vars + other.vars)
            return self.with_vars(union), other.with_vars(union)
        return self, MPoly.constant(other, self.vars, self.domain)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return MPoly._of(a.vars, terms, a.domain)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._of(self.vars, {e: -c for e, c in self.terms.items()}, self.domain)

    def __sub__(self, other):
        a, b = self._aligned(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = self.domain.coerce(other)
            if not c:
                return MPoly._of(self.vars, {}, self.domain)
            # every domain in the tower is an integral domain
            return MPoly._of(self.vars, {e: v * c for e, v in self.terms.items()}, self.domain)
        a, b = self._aligned(other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        terms = {}
        for e2, c2 in b.terms.items():
            for e1, c1 in a.terms.items():
                e = tuple(map(add, e1, e2))
                p = c1 * c2
                s = terms.get(e)
                terms[e] = p if s is None else s + p
        return MPoly._of(a.vars, {e: c for e, c in terms.items() if c}, a.domain)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.constant(1, self.vars, self.domain)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, scalar):
        if isinstance(scalar, MPoly):
            if not scalar.is_constant():
                raise TypeError("division by a non-constant polynomial; use exact_div")
            scalar = scalar.constant_value()
        c = self.domain.coerce(scalar)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return MPoly(self.vars, {e: v / c for e, v in self.terms.items()}, self.domain)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            a, b = self._aligned(other)
            return a.terms == b.terms
        if is_rational(other):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # equal polynomials hash alike: a constant as its value, and each
        # term by the variables it involves, whatever the variable tuple
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(
            (frozenset((v, p) for v, p in zip(self.vars, e) if p), c)
            for e, c in self.terms.items()))

    # -- evaluation -----------------------------------------------------

    def eval(self, assignment: dict):
        """Substitute values (domain elements or MPolys) for variables.

        Full assignments return a domain element; partial ones return an
        MPoly in the remaining variables.
        """
        remaining = [v for v in self.vars if v not in assignment]
        if not remaining and not any(
            isinstance(assignment[v], MPoly) for v in self.vars
        ):
            total = self.domain.zero
            vals = [self.domain.coerce(assignment[v]) for v in self.vars]
            for e, c in self.terms.items():
                term = c
                for v, p in zip(vals, e):
                    if p:
                        term = term * v**p
                total = total + term
            return total
        acc = MPoly.constant(0, remaining, self.domain)
        for e, c in self.terms.items():
            term = MPoly.constant(c, remaining, self.domain)
            for name, p in zip(self.vars, e):
                if not p:
                    continue
                if name in assignment:
                    val = assignment[name]
                    if isinstance(val, MPoly):
                        term = term * val**p
                    else:
                        term = term * (self.domain.coerce(val) ** p)
                else:
                    term = term * MPoly.variable(name, remaining, self.domain) ** p
            acc = acc + term
        return acc

    # -- structure for gcd / content work (rational domain only) --------

    def as_univariate(self, name: str) -> dict:
        """View as polynomial in `name`: {power: MPoly in the other vars}."""
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        out: dict = {}
        for e, c in self.terms.items():
            p = e[i]
            re = e[:i] + e[i + 1 :]
            out.setdefault(p, {})[re] = c
        return {p: MPoly(rest, t, self.domain) for p, t in out.items()}

    def rational_content(self):
        """(content, primitive): content*primitive == self, primitive has
        coprime integer coefficients and positive leading coefficient."""
        if self.domain is not QQ:
            raise TypeError("content defined over the rational domain only")
        if not self.terms:
            return Rat(0), self
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, int(c.numerator))
            d = int(c.denominator)
            den_lcm = den_lcm // math.gcd(den_lcm, d) * d
        content = Rat(num_gcd, den_lcm)
        _, lead = self.leading()
        if lead < 0:
            content = -content
        prim = MPoly._of(self.vars, {e: c / content for e, c in self.terms.items()}, QQ)
        return content, prim

    def over(self, domain) -> "MPoly":
        """The same polynomial with its coefficients coerced into domain
        (ZZ.coerce refuses a non-integral coefficient)."""
        if domain is self.domain:
            return self
        conv = domain.coerce
        return MPoly._of(self.vars, {e: conv(c) for e, c in self.terms.items()}, domain)

    def exact_div(self, divisor: "MPoly") -> "MPoly":
        """Exact polynomial quotient; raises ExactDivisionError otherwise."""
        a, b = self._aligned(divisor)
        if b.is_zero():
            raise ZeroDivisionError("exact_div by zero")
        dom = a.domain
        if b.is_constant():
            c = b.constant_value()
            return MPoly(a.vars, {e: v / c for e, v in a.terms.items()}, dom)
        qterms: dict = {}
        rem = a
        ble, blc = b.leading()
        while rem.terms:
            rle, rlc = rem.leading()
            qe = tuple(x - y for x, y in zip(rle, ble))
            if any(p < 0 for p in qe):
                raise ExactDivisionError("not divisible")
            qc = rlc / blc
            qterms[qe] = qterms.get(qe, dom.zero) + qc
            mono = MPoly(a.vars, {qe: qc}, dom)
            rem = rem - mono * b
        return MPoly(a.vars, qterms, dom)

    # -- serialization ---------------------------------------------------

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"MPoly({self.to_str()!r})"

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
        parts = []
        for e, c in items:
            factors = [
                f"{v}^{p}" if p > 1 else v for v, p in zip(self.vars, e) if p
            ]
            parts.append(_term(c, "*".join(factors), bool(parts)))
        return "".join(parts)


def _term(coeff, body: str, follows: bool) -> str:
    """One printed term: through tautrel's term printer for a rational
    coefficient; a coefficient from a field of the tower has no sign and
    is printed whole."""
    if is_rational(coeff):
        return signed_term(coeff, body, follows)
    text = str(coeff)
    if body:
        text = body if text == "1" else f"{text}*{body}"
    return (" + " if follows else "") + text


# -- conversion to and from RatFunc ------------------------------------------------


def _polynomial(p, field: FracField) -> RatFunc:
    """The MPoly or rational p as a polynomial RatFunc in field, by its
    generators."""
    if not isinstance(p, MPoly):
        return field.coerce(rat(p))
    acc = field.zero
    for e, c in p.terms.items():
        term = field.coerce(rat(c))
        for name, n in zip(p.vars, e):
            if n:
                term = term * field.gen(name) ** n
        acc = acc + term
    return acc


def ratfunc(num, den=1) -> RatFunc:
    """num/den as a RatFunc in the canonical union of their variables, for
    MPolys over QQ or ZZ or rationals: what RatFunc(num, den) made before
    FracField became the one way to make a RatFunc.  A zero den raises
    ZeroDivisionError."""
    field = FracField(sum((p.vars for p in (num, den) if isinstance(p, MPoly)), ()))
    return _polynomial(num, field) / _polynomial(den, field)


def from_dense(p, vars: tuple) -> MPoly:
    """The dense integer polynomial p in vars as an MPoly over ZZ."""
    return MPoly._of(vars, dict(_ratfunc._dense_terms(p, len(vars))), ZZ)


def to_dense(f: MPoly):
    """The dense form of f, whose coefficients are integers."""
    return _ratfunc._to_dense({e: int(c) for e, c in f.terms.items()}, len(f.vars))


def num_den(r: RatFunc) -> tuple:
    """r's numerator and denominator as MPolys over ZZ in r.vars, as
    RatFunc.num and RatFunc.den read them before they became RatFuncs."""
    return mpoly(r.num), mpoly(r.den)


def mpoly(p: RatFunc) -> MPoly:
    """The polynomial RatFunc p, whose denominator is 1, as an MPoly over ZZ."""
    if p.den != 1:
        raise ValueError(f"{p} is not a polynomial over ZZ")
    return from_dense(p._num, p.vars)


def gcd(f: MPoly, g: MPoly) -> MPoly:
    """mpoly_gcd on MPolys over QQ: the primitive gcd with positive
    graded-lex leading coefficient, over QQ, in the union of the variables."""
    if f.domain is not QQ or g.domain is not QQ:
        raise TypeError("gcd is defined over the rational coefficient domain")
    return mpoly(mpoly_gcd(ratfunc(f), ratfunc(g))).over(QQ)


def ratfunc_hash(num: MPoly, den: MPoly) -> int:
    """The hash RatFunc had when it read its parts as MPolys, of the
    canonical pair num/den over ZZ: over a constant denominator k, that of
    the equal MPoly num/k over QQ (of the equal Rat when num is constant
    too), else that of the pair."""
    if den.is_constant():
        k = den.constant_value()
        return hash(MPoly._of(num.vars, {e: Rat(c, k) for e, c in num.terms.items()}))
    return hash((num, den))
