"""The graded algebra on the generators c_k(j), kept as a test oracle.

GradedPoly is the free graded algebra over a pluggable coefficient
domain (TautContext), with tuple monomials; BetaClass the beta-nilpotent
extension b0 + b1 beta + b2 beta^2, beta^3 = 0; beta_pushforward the
pushforward along the dual-plane factor; project_block the coefficient
block of a GradedPoly on products of two bases.  relation_factor builds
the beta-twisted factor F_s term by term through these classes, as the
relation build did before it read tautalg.factor_table, and is the
reference for the table-driven factors.  factors_by_classes gives
F_1..F_upto of one n in the (b0, b1, b2) dict form that
relations._exp_series takes for each n.  as_poly and reduced_relations
unpack packed rows of a RelationSet into GradedPolys.  mono_mul,
_mono_insert and mono_degree multiply tuple monomials and take their
degree.
"""

from __future__ import annotations

from tautrel.linalg import ExactMatrix
from tautrel.rat import QQ, Rat
from tautrel.tautalg import DegreeMismatch, gen_degree, gen_key, mono_str


class FieldMismatch(TypeError):
    pass


class ZeroPolynomial(ValueError):
    pass


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Merge two monomials (tuples of generators sorted descending): the
    generators of the shorter inserted into the longer one by one."""
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    for gen in m2:
        m1 = _mono_insert(m1, gen)
    return m1


def _mono_insert(mono: tuple, gen) -> tuple:
    """mono * gen by one scan, gen_key compared inline: gen goes before
    the first generator not above it (an equal key is an equal generator)."""
    k, j = gen
    deg = k + j
    for i, (a, b) in enumerate(mono):
        e = a + b
        if e < deg or (e == deg and a <= k):
            return mono[:i] + (gen,) + mono[i:]
    return mono + (gen,)


def mono_degree(mono: tuple) -> int:
    return sum(gen_degree(g) for g in mono)


def mono_key(mono: tuple):
    """Sort key of the monomial order: generator by generator, by gen_key."""
    return tuple(gen_key(g) for g in mono)


class TautContext:
    """Coefficient domain plus the value of d used by degenerate symbols."""

    __slots__ = ("domain", "d")

    def __init__(self, domain, d):
        self.domain = domain
        self.d = domain.coerce(d)

    def __eq__(self, other):
        return (
            isinstance(other, TautContext)
            and other.domain == self.domain
            and other.d == self.d
        )

    def __hash__(self):
        return hash(("TautContext", id(self.domain)))

    def __repr__(self):
        return f"TautContext({self.domain!r}, d={self.d})"


class GradedPoly:
    """Element of the free graded algebra over a pluggable coefficient
    domain; terms map monomials to nonzero coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: TautContext, terms: dict):
        self.ctx = ctx
        self.terms = terms

    @classmethod
    def zero(cls, ctx) -> "GradedPoly":
        return cls(ctx, {})

    @classmethod
    def const(cls, ctx, value) -> "GradedPoly":
        value = ctx.domain.coerce(value)
        if ctx.domain.is_zero(value):
            return cls(ctx, {})
        return cls(ctx, {(): value})

    @classmethod
    def term(cls, ctx, coeff, gens) -> "GradedPoly":
        """coeff * product of c_k(j) symbols, degenerate ones resolved."""
        coeff = ctx.domain.coerce(coeff)
        if ctx.domain.is_zero(coeff):
            return cls(ctx, {})
        mono = []
        for k, j in gens:
            deg = k + j - 1
            if (k, j) == (0, 1):
                coeff = coeff * ctx.d
                continue
            if (k, j) in ((1, 0), (1, 1)) or deg <= 0:
                return cls(ctx, {})
            mono.append((k, j))
        mono.sort(key=gen_key, reverse=True)
        return cls(ctx, {tuple(mono): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, mono: tuple):
        return self.terms.get(tuple(mono), self.ctx.domain.zero)

    def degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        degs = {mono_degree(m) for m in self.terms}
        if len(degs) != 1:
            raise DegreeMismatch(f"inhomogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def leading_term(self):
        """(monomial, coefficient) maximal under the lexicographic
        extension of the generator ordering."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def monomials_desc(self) -> list:
        return sorted(self.terms, key=mono_key, reverse=True)

    def _check(self, other):
        if self.ctx != other.ctx:
            raise FieldMismatch("operands over different coefficient contexts")

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        is_zero = self.ctx.domain.is_zero
        for m, c in other.terms.items():
            s = terms.get(m)
            if s is None:
                terms[m] = c
            else:
                s = s + c
                if is_zero(s):
                    del terms[m]
                else:
                    terms[m] = s
        return GradedPoly(self.ctx, terms)

    def __neg__(self):
        return GradedPoly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GradedPoly):
            self._check(other)
            dom = self.ctx.domain
            a, b = self.terms, other.terms
            if len(a) < len(b):
                a, b = b, a
            terms: dict = {}
            for m2, c2 in b.items():
                for m1, c1 in a.items():
                    m = mono_mul(m1, m2)
                    p = c1 * c2
                    s = terms.get(m)
                    terms[m] = p if s is None else s + p
            return GradedPoly(
                self.ctx, {m: c for m, c in terms.items() if not dom.is_zero(c)}
            )
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "GradedPoly":
        c = self.ctx.domain.coerce(c)
        if self.ctx.domain.is_zero(c):
            return GradedPoly(self.ctx, {})
        return GradedPoly(self.ctx, {m: v * c for m, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        from tautrel.mpoly import signed_term

        parts = []
        for m in self.monomials_desc():
            parts.append(signed_term(self.terms[m], mono_str(m) if m else "", bool(parts)))
        return "".join(parts)

    def __repr__(self):
        return f"GradedPoly({self.__str__()!r})"


class BetaClass:
    """b0 + b1*beta + b2*beta^2 with beta^3 = 0."""

    __slots__ = ("b0", "b1", "b2")

    def __init__(self, b0: GradedPoly, b1: GradedPoly, b2: GradedPoly):
        self.b0 = b0
        self.b1 = b1
        self.b2 = b2

    @property
    def ctx(self):
        return self.b0.ctx

    def __add__(self, other):
        return BetaClass(self.b0 + other.b0, self.b1 + other.b1, self.b2 + other.b2)

    def __sub__(self, other):
        return BetaClass(self.b0 - other.b0, self.b1 - other.b1, self.b2 - other.b2)

    def __neg__(self):
        return BetaClass(-self.b0, -self.b1, -self.b2)

    def __mul__(self, other):
        if isinstance(other, BetaClass):
            b0 = self.b0 * other.b0
            b1 = self.b0 * other.b1 + self.b1 * other.b0
            b2 = self.b0 * other.b2 + self.b1 * other.b1 + self.b2 * other.b0
            return BetaClass(b0, b1, b2)
        return BetaClass(self.b0 * other, self.b1 * other, self.b2 * other)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative beta power")
        z = GradedPoly.zero(self.ctx)
        result = BetaClass(GradedPoly.const(self.ctx, 1), z, z)
        base = self
        while m:
            if m & 1:
                result = result * base
            if m > 1:
                base = base * base
            m >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, BetaClass):
            return NotImplemented
        return self.b0 == other.b0 and self.b1 == other.b1 and self.b2 == other.b2

    def __str__(self):
        return f"({self.b0}) + ({self.b1})*beta + ({self.b2})*beta^2"


def beta_pushforward(x: BetaClass, j: int) -> GradedPoly:
    """Pushforward along the dual-plane factor of x * beta^j: the
    coefficient of beta^2 survives and integrates to 1."""
    if j == 0:
        return x.b2
    if j == 1:
        return x.b1
    if j == 2:
        return x.b0
    raise ValueError("j must be 0, 1 or 2")


def project_block(p: GradedPoly, left_basis, right_basis, degree: int = None) -> ExactMatrix:
    """Matrix of coefficients of (left monomial)*(right monomial) in p.

    Basis entries may be generators (k, j) or full monomials; the
    degrees must tile the degree of p.  degree, when given, is that
    degree, p being known to be homogeneous of it; otherwise p.degree()
    checks p's terms.
    """
    left = [_as_mono(b) for b in left_basis]
    right = [_as_mono(b) for b in right_basis]
    if p.terms:
        deg = p.degree() if degree is None else degree
        for l in left:
            for r in right:
                if mono_degree(l) + mono_degree(r) != deg:
                    raise DegreeMismatch(
                        f"{mono_str(l)}*{mono_str(r)} does not match degree {deg}"
                    )
    rows = [[p.coeff(mono_mul(l, r)) for r in right] for l in left]
    return ExactMatrix(p.ctx.domain, rows)


def _as_mono(b) -> tuple:
    if b and isinstance(b[0], int):
        return (tuple(b),)
    return tuple(b)


# -- the factor through the classes ------------------------------------------


def _ctilde(ctx, coeff, k, j) -> GradedPoly:
    """coeff * (-1)^(k+1) c_k(j), degenerate symbols resolved."""
    if (k + 1) & 1:
        coeff = -coeff
    return GradedPoly.term(ctx, coeff, [(k, j)])


def _b_class(ctx, m: int, n: int, chi, d_inv) -> GradedPoly:
    """B_m = ct_{m+1}(0) + (2-n-chi/d) ct_m(1) + q ct_{m-1}(2)."""
    dom = ctx.domain
    one = dom.one
    c1 = dom.coerce(2 - n) - chi * d_inv
    half_a = dom.coerce(Rat(2 * n - 5, 2)) * ctx.d + chi
    half_b = dom.coerce(Rat(2 * n - 3, 2)) * ctx.d + chi
    q = half_a * half_b * d_inv * d_inv * dom.coerce(Rat(1, 2))
    out = _ctilde(ctx, one, m + 1, 0)
    out = out + _ctilde(ctx, c1, m, 1)
    out = out + _ctilde(ctx, q, m - 1, 2)
    return out


def relation_factor(s: int, n: int, d, chi, ctx: TautContext) -> BetaClass:
    """The beta-class factor attached to index s:
    (A_s - B_s) + B_{s-1}*beta - (1/2)B_{s-2}*beta^2."""
    if s < 1:
        raise ValueError("s must be >= 1")
    dom = ctx.domain
    chi = dom.coerce(chi)
    d_inv = dom.one / ctx.d
    half_a = dom.coerce(Rat(2 * n - 5, 2)) * ctx.d + chi
    diff = _ctilde(ctx, dom.one, s, 1) + _ctilde(ctx, -half_a * d_inv, s - 1, 2)
    b1 = _b_class(ctx, s - 1, n, chi, d_inv)
    b2 = _b_class(ctx, s - 2, n, chi, d_inv).scale(Rat(-1, 2))
    return BetaClass(diff, b1, b2)


def factors_by_classes(n: int, d: int, chi, upto: int) -> list:
    """F_1..F_upto at (n, d, chi) over QQ by relation_factor, each as its
    (b0, b1, b2) term dicts."""
    ctx = TautContext(QQ, d)
    return [tuple(part.terms for part in (f.b0, f.b1, f.b2))
            for f in (relation_factor(s, n, d, chi, ctx) for s in range(1, upto + 1))]


# -- packed rows as GradedPolys ----------------------------------------------


def as_poly(row: dict, den: int, packing, degree: int, ctx: TautContext) -> GradedPoly:
    """The packed integer row, of the given degree, divided by den over
    ctx, in descending monomial order."""
    unpack = packing.unpack
    return GradedPoly(ctx, {unpack(m, degree): Rat(c, den)
                            for m, c in sorted(row.items(), reverse=True)})


def reduced_relations(rel) -> list:
    """R1, R2, R3 of the relation set rel as GradedPolys over QQ."""
    ctx = TautContext(QQ, rel.d)
    return [as_poly(row, pivot, rel.packing, rel.d, ctx)
            for row, pivot in zip(rel.R_rows, rel.R_pivots)]
