"""Rational functions: the fraction field of the rational-coefficient
polynomial ring, normalized so equality is representational.

A RatFunc holds its canonical variable tuple and its numerator and
denominator as dense integer polynomials in those variables (the form
below, level = number of variables), with no common factor over the
integers, content included, and the denominator's leading coefficient
positive under graded lex (total degree first, then the exponent tuple
in variable order; not the dense outermost-variable order).  That is
the same normal form as "polynomial gcd cancelled, both parts integer
primitive with coprime contents", so str, == and hash read as they
would over QQ.  This dense pair is the package's only polynomial
representation: a polynomial is a RatFunc over denominator 1, num and
den are such RatFuncs, and str, == and hash read the pair directly, the
last two alike across variable tuples.  FracField's gen and coerce make
every RatFunc the arithmetic starts from.  Values leave the integers
only at the QQ boundary: eval returns Rats.  The public mpoly_gcd takes
and returns polynomial RatFuncs.

The gcd underneath is the heuristic gcd GCDHEU (Char, Geddes and Gonnet,
J. Symb. Comp. 7, 1989): the outermost variable is evaluated at a large
integer xi, the gcd of the images is taken recursively down to an
integer gcd, and a candidate is rebuilt from its symmetric xi-adic
digits.  A candidate is accepted only once exact division shows that it
divides both inputs; with xi above twice the smaller coefficient norm,
such a candidate is the gcd.  That division yields both cofactors, and
RatFunc cancels with them directly: it never divides a polynomial by
the gcd itself.  When either side is constant the gcd is an integer
content and no GCDHEU is run.  Sums use Henrici's scheme, so the gcd
taken is that of the denominators and of a factor of it, not of the
full numerator and denominator.  When a few values of xi fail, the
subresultant polynomial remainder sequence (Collins; Brown and Traub) in
the outermost variable computes the gcd on the same dense integer form
instead, its contents taken one level down through the same gcd, and
exact division gives the cofactors.  The version of that fallback on
sparse polynomials over QQ is the reference in tests/ratfunc_oracle.py.
No factorization is ever needed.
"""

from __future__ import annotations

import math

from .mpoly import canonical_vars, signed_term
from .rat import Rat, is_rational, rat


# -- gcd over the integers: GCDHEU and its subresultant fallback --------------
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


def _pow(p, n: int, k):
    """The level-k p to the power n >= 0."""
    out = _constant_poly(1, k)
    for _ in range(n):
        out = _mul(out, p, k)
    return out


def _coeff_quo(p, q, k):
    """The level-k p with each coefficient in its outermost variable
    divided by the level-(k-1) q, which divides them all."""
    return [_exact_quo(c, q, k - 1) for c in p]


def _prem(A, B, k):
    """The pseudo-remainder lc(B)^(deg A - deg B + 1) A mod B of level-k A
    and B in their outermost variable, deg A >= deg B."""
    lead, dB = B[-1], len(B) - 1
    R, e = A, len(A) - dB
    while len(R) > dB:
        neg, shift = _scale(R[-1], -1, k - 1), len(R) - 1 - dB
        R = [_mul(c, lead, k - 1) for c in R[:-1]]
        for j in range(dB):
            if B[j]:
                R[j + shift] = _add(R[j + shift], _mul(neg, B[j], k - 1), k - 1)
        R = _trim(R)
        e -= 1
    if e and R:
        R = [_mul(c, _pow(lead, e, k - 1), k - 1) for c in R]
    return R


def _subresultant_tail(A, B, k):
    """The last nonzero element of the subresultant remainder sequence
    (Collins; Brown and Traub) of level-k A and B of positive degree in
    their outermost variable, or 1 when it ends in a constant: their gcd
    up to a factor in the other variables."""
    if len(A) < len(B):
        A, B = B, A
    g = h = _constant_poly(1, k - 1)
    while True:
        delta = len(A) - len(B)
        R = _prem(A, B, k)
        if not R:
            return B
        if len(R) == 1:
            return [_constant_poly(1, k - 1)]
        A, B = B, _coeff_quo(R, _mul(g, _pow(h, delta, k - 1), k - 1), k)
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact_quo(_pow(g, delta, k - 1), _pow(h, delta - 1, k - 1), k - 1)


def _content(p, k):
    """The gcd of the level-(k-1) coefficients of the nonzero level-k p."""
    g = None
    for c in p:
        if c:
            g = c if g is None else _cofactors(g, c, k - 1)[0]
    return g


def _subresultant_gcd(a, b, k):
    """The gcd of nonzero level-k integer polynomials, content included and
    sign unspecified, from the subresultant sequence of their primitive
    parts in the outermost variable: GCDHEU's fallback.  The contents are
    gcds one level down, through _cofactors."""
    ca, cb = _content(a, k), _content(b, k)
    cont = [_cofactors(ca, cb, k - 1)[0]]
    if len(a) == 1 or len(b) == 1:
        return cont
    tail = _subresultant_tail(_coeff_quo(a, ca, k), _coeff_quo(b, cb, k), k)
    # the tail's factor in the other variables is its content
    return _mul(_coeff_quo(tail, _content(tail, k), k), cont, k)


def _to_dense(terms: dict, k):
    """Level-k dense form of {exponent tuple of length k: nonzero int}."""
    if k == 0:
        return terms.get((), 0)
    by_last: dict = {}
    for e, c in terms.items():
        by_last.setdefault(e[-1], {})[e[:-1]] = c
    out = [0 if k == 1 else []] * (max(by_last, default=-1) + 1)
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


def _constant_poly(c: int, k):
    """The integer c as a level-k polynomial."""
    for _ in range(k):
        c = [c] if c else []
    return c


def _constant(p, k):
    """The value of the nonzero level-k p if it is constant, else None."""
    for _ in range(k):
        if len(p) > 1:
            return None
        p = p[0]
    return p


def _leading(p, k) -> tuple:
    """(total degree, exponents, coefficient) of the leading term of the
    nonzero level-k p in graded-lex order (the exponent tuple ends with
    the outermost variable's).  Terms differ in (degree, exponents), so
    max never compares coefficients."""
    if k == 0:
        return 0, (), p
    return max((deg + j, exps + (j,), c)
               for j, q in enumerate(p) if q for deg, exps, c in [_leading(q, k - 1)])


def _primitive(p, k):
    """The level-k p over the gcd of its coefficients, its graded-lex
    leading coefficient made positive; zero stays zero."""
    if not p:
        return p
    c = math.gcd(*_coeffs(p, k))
    return _quo_int(p, -c if _leading(p, k)[2] < 0 else c, k)


def _widened(p, vars: tuple, to: tuple):
    """The dense p in vars as a dense polynomial in to, which holds vars."""
    if vars == to:
        return p
    at = [to.index(name) for name in vars]
    terms = {}
    for e, c in _dense_terms(p, len(vars)):
        wide = [0] * len(to)
        for i, n in zip(at, e):
            wide[i] = n
        terms[tuple(wide)] = c
    return _to_dense(terms, len(to))


def _poly_str(p, vars: tuple) -> tuple:
    """(text, number of terms) of the dense p in vars: its terms in
    descending graded-lex order, each through signed_term, "0" for zero."""
    terms = sorted(_dense_terms(p, len(vars)), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
    parts = []
    for e, c in terms:
        body = "*".join(f"{v}^{n}" if n > 1 else v for v, n in zip(vars, e) if n)
        parts.append(signed_term(c, body, bool(parts)))
    return "".join(parts) or "0", len(terms)


def _hash_key(p, vars: tuple, den: int):
    """What the polynomial p/den, p dense in vars, hashes as: a constant
    as its Rat, else the set of its terms, each by the variables it
    involves and its coefficient, so that the key is the same whatever
    the variable tuple."""
    k = len(vars)
    c = _constant(p, k) if p else 0
    if c is not None:
        return Rat(c, den)
    return frozenset((frozenset((v, n) for v, n in zip(vars, e) if n), Rat(c, den))
                     for e, c in _dense_terms(p, k))


def mpoly_gcd(f: "RatFunc", g: "RatFunc") -> "RatFunc":
    """The gcd of two polynomial RatFuncs (constant denominators) as a
    polynomial RatFunc in the union of their variables: primitive over
    the integers, its graded-lex leading coefficient positive, and zero
    only when both are."""
    if any(_constant(p._den, len(p.vars)) is None for p in (f, g)):
        raise TypeError("gcd is defined for polynomials")
    vars = canonical_vars(f.vars + g.vars)
    k = len(vars)
    a, b = (_widened(p._num, p.vars, vars) for p in (f, g))
    h = _cofactors(a, b, k)[0] if a and b else a or b
    return RatFunc._raw(vars, _primitive(h, k), _constant_poly(1, k))


def _cofactors(a, b, k) -> tuple:
    """(h, a/h, b/h) for nonzero level-k integer polynomials, h their gcd
    over the integers (content included, sign unspecified): the integer
    content when either is constant, GCDHEU's gcd with its own cofactors,
    or the subresultant gcd and exact division when GCDHEU gives up."""
    ca, cb = _constant(a, k), _constant(b, k)
    if ca in (1, -1) or cb in (1, -1):
        return _constant_poly(1, k), a, b
    if ca is None and cb is None:
        found = _heu_gcd(a, b, k)
        if found is not None:
            return found
        h = _subresultant_gcd(a, b, k)
        return h, _exact_quo(a, h, k), _exact_quo(b, h, k)
    c = math.gcd(*_coeffs(a, k), *_coeffs(b, k))
    if c != 1:
        a, b = _quo_int(a, c, k), _quo_int(b, c, k)
    return _constant_poly(c, k), a, b


def _signed(vars: tuple, num, den) -> "RatFunc":
    """The RatFunc num/den, both negated when den's graded-lex leading
    coefficient is negative; num and den must be otherwise canonical."""
    k = len(vars)
    if _leading(den, k)[2] < 0:
        num, den = _scale(num, -1, k), _scale(den, -1, k)
    return RatFunc._raw(vars, num, den)


def _reduced(vars: tuple, num, den) -> "RatFunc":
    """The canonical RatFunc num/den of dense integer polynomials in vars."""
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return RatFunc._of_rational(0, vars)
    return _signed(vars, *_cofactors(num, den, len(vars))[1:])


class RatFunc:
    """Canonical num/den pair of polynomials over ZZ (Python ints) with
    no common factor over the integers, content included, and the
    denominator's leading coefficient positive under graded lex.

    Equivalently: the polynomial gcd cancelled, both parts integer
    primitive up to coprime integer contents.  Both are held densely in
    vars (see the module docstring); num and den read them as
    polynomial RatFuncs.  Operands are cancelled with the cofactors
    GCDHEU returns along with the gcd, so no polynomial division is
    needed unless GCDHEU gives up.  FracField makes the generators and
    the rational constants; every other RatFunc is computed from them."""

    __slots__ = ("vars", "_num", "_den")

    @classmethod
    def _raw(cls, vars: tuple, num, den) -> "RatFunc":
        """Internal: wrap an already-canonical dense pair in vars."""
        out = cls.__new__(cls)
        out.vars, out._num, out._den = vars, num, den
        return out

    @classmethod
    def _of_terms(cls, vars: tuple, num: dict, den: dict) -> "RatFunc":
        """Internal: wrap an already-canonical pair given as
        {exponent tuple: nonzero int} in vars."""
        return cls._raw(vars, _to_dense(num, len(vars)), _to_dense(den, len(vars)))

    @classmethod
    def _of_rational(cls, q, vars: tuple) -> "RatFunc":
        q = rat(q)
        num, den = (_constant_poly(int(c), len(vars)) for c in (q.numerator, q.denominator))
        return cls._raw(vars, num, den)

    # -- queries ---------------------------------------------------------

    @property
    def num(self) -> "RatFunc":
        """The numerator, a polynomial RatFunc in vars over denominator 1."""
        return RatFunc._raw(self.vars, self._num, _constant_poly(1, len(self.vars)))

    @property
    def den(self) -> "RatFunc":
        """The denominator, a polynomial RatFunc in vars over denominator 1."""
        return RatFunc._raw(self.vars, self._den, _constant_poly(1, len(self.vars)))

    def degree_in(self, name: str) -> int:
        """The larger of the degrees of num and den in name, -1 for zero."""
        if not self._num:
            return -1
        if name not in self.vars:
            return 0
        k, j = len(self.vars), self.vars.index(name)
        return max(_degree(self._num, k, j), _degree(self._den, k, j))

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if is_rational(other):
            return RatFunc._of_rational(other, self.vars)
        return NotImplemented

    def _aligned(self, o: "RatFunc") -> tuple:
        """(vars, a, b, c, d): self = a/b and o = c/d in the union vars."""
        if self.vars == o.vars:
            return self.vars, self._num, self._den, o._num, o._den
        vars = canonical_vars(self.vars + o.vars)
        return (vars, *(_widened(p, r.vars, vars)
                        for r in (self, o) for p in (r._num, r._den)))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.vars == o.vars:
            if not o._num:
                return self
            if not self._num:
                return o
        vars, a, b, c, d = self._aligned(o)
        k = len(vars)
        if b == d:
            return _reduced(vars, _add(a, c, k), b)
        # Henrici: with h = gcd(b, d), a/b + c/d = t/(h b' d') for
        # t = a d' + c b', and t is coprime to b' d'
        h, b, d = _cofactors(b, d, k)
        t = _add(_mul(a, d, k), _mul(c, b, k), k)
        if not t:
            return _reduced(vars, t, h)
        _, t, h = _cofactors(t, h, k)
        return _signed(vars, t, _mul(_mul(b, d, k), h, k))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(self.vars, _scale(self._num, -1, len(self.vars)), self._den)

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
        if not self._num or not o._num:
            return RatFunc._of_rational(0, self.vars)
        # cross-cancel before multiplying: with a/b and c/d in lowest
        # terms, a'c'/(b'd') is in lowest terms too
        vars, a, b, c, d = self._aligned(o)
        k = len(vars)
        _, a, d = _cofactors(a, d, k)
        _, c, b = _cofactors(c, b, k)
        return _signed(vars, _mul(a, c, k), _mul(b, d, k))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o._num:
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc._raw(o.vars, o._den, o._num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            if not self._num:
                raise ZeroDivisionError("inverting zero")
            return _signed(self.vars, self._den, self._num) ** (-n)
        k = len(self.vars)
        # powers of a coprime pair are coprime (Gauss's lemma)
        return RatFunc._raw(self.vars, _pow(self._num, n, k), _pow(self._den, n, k))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        _, a, b, c, d = self._aligned(o)
        return a == c and b == d

    def __hash__(self):
        # over a constant denominator k, the hash of the polynomial num/k
        # (of the equal Rat when num is constant too), else of the pair
        k = _constant(self._den, len(self.vars))
        if k is not None:
            return hash(_hash_key(self._num, self.vars, k))
        return hash((_hash_key(self._num, self.vars, 1), _hash_key(self._den, self.vars, 1)))

    # -- substitution -------------------------------------------------------

    def eval(self, assignment: dict):
        """Substitute rationals for variables: a Rat for a full
        assignment, else a RatFunc in the remaining variables.  Both parts
        are evaluated by Horner in each assigned variable, on plain ints;
        a value p/q with q > 1 also multiplies both by q^m, m the larger
        of their degrees in that variable, which leaves the quotient as is."""
        k = len(self.vars)
        vals = [None] * k
        for j, name in enumerate(self.vars):
            if name in assignment:
                x = rat(assignment[name])
                q = int(x.denominator)
                m = 0 if q == 1 else max(_degree(p, k, j) for p in (self._num, self._den))
                vals[j] = (int(x.numerator), q, m)
        num, den = (_substituted(p, k, vals) for p in (self._num, self._den))
        rest = tuple(name for name, v in zip(self.vars, vals) if v is None)
        if rest:
            return _reduced(rest, num, den)
        if not den:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return Rat(num, den)

    def __str__(self):
        num, num_terms = _poly_str(self._num, self.vars)
        if _constant(self._den, len(self.vars)) == 1:
            return num
        # a sum, or a product in the denominator, is parenthesized:
        # a/8*d would read as (a/8)*d
        den, den_terms = _poly_str(self._den, self.vars)
        if num_terms > 1:
            num = f"({num})"
        if den_terms > 1 or "*" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({self.__str__()!r})"


def _degree(p, k, j) -> int:
    """The degree of the level-k p in its variable j < k, -1 for zero."""
    if j == k - 1:
        return len(p) - 1
    return max((_degree(c, k - 1, j) for c in p if c), default=-1)


def _substituted(p, k, vals: list):
    """The level-k p with each variable j for which vals[j] = (x, q, m)
    set to x/q, times q^m (m at least p's degree in it when q > 1): a
    dense polynomial in the variables j with vals[j] None."""
    if k == 0:
        return p
    coeffs = [_substituted(c, k - 1, vals) for c in p]
    if vals[k - 1] is None:
        return _trim(coeffs)
    x, q, m = vals[k - 1]
    level = sum(v is None for v in vals[:k - 1])
    # q^m p(x/q) = q^(m-n) sum_i c_i x^i q^(n-i), n = len(cs) - 1, by
    # Horner; at x = 0 only c_0 is left (scaling by 0 leaves zeros untrimmed)
    cs = coeffs if x else coeffs[:1]
    acc, qpow = (0 if level == 0 else []), 1
    for c in reversed(cs):
        acc = _add(_scale(acc, x, level), c if qpow == 1 else _scale(c, qpow, level), level)
        qpow *= q
    return acc if q == 1 else _scale(acc, q ** (m - len(cs) + 1), level)


class FracField:
    """Field descriptor for rational functions in a fixed variable set."""

    def __init__(self, vars):
        self.vars = canonical_vars(vars)
        self.zero = RatFunc._of_rational(0, self.vars)
        self.one = RatFunc._of_rational(1, self.vars)

    def coerce(self, x) -> RatFunc:
        if isinstance(x, RatFunc):
            return x
        if is_rational(x):
            return RatFunc._of_rational(x, self.vars)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def gen(self, name: str) -> RatFunc:
        """The variable name, a generator of the field."""
        if name not in self.vars:
            raise ValueError(f"variable {name!r} not among {self.vars}")
        k = len(self.vars)
        exp = tuple(int(v == name) for v in self.vars)
        return RatFunc._raw(self.vars, _to_dense({exp: 1}, k), _constant_poly(1, k))

    @staticmethod
    def is_zero(x) -> bool:
        return x.is_zero()

    def __repr__(self):
        return f"QQ({', '.join(self.vars)})"

    def __eq__(self, other):
        return isinstance(other, FracField) and other.vars == self.vars

    def __hash__(self):
        return hash(("FracField", self.vars))
