"""Reference expansions of the generating identity for the tests.

expand_relation is the full degree-ell piece E_ell of the exponential
series, all three beta components, read from the packed integer
recurrence of tautrel.relations._exp_series run one step further (that
run computes only the beta^2 component of its last step).  expand_relation_by_partitions
is the literal sum over partition tuples of products of factor powers,
an expander independent of the recurrence.  dual_involution is the
algebra involution c_k(j) -> (-1)^k c_k(j) on the relations, and
beta_zero and beta_one the zero and unit beta classes.
"""

import math
from dataclasses import dataclass

from tautrel.rat import Rat
from tautrel.relations import _divided, _exp_series, relation_factor
from tautrel.tautalg import BetaClass, GradedPoly, TautContext


@dataclass(frozen=True)
class PartitionTuple:
    """Multiplicity vector (m_1, ..., m_ell) with sum s*m_s = ell."""

    m: tuple

    @property
    def ell(self) -> int:
        return sum((s + 1) * ms for s, ms in enumerate(self.m))

    def parts(self) -> tuple:
        out = []
        for s in range(len(self.m), 0, -1):
            out.extend([s] * self.m[s - 1])
        return tuple(out)

    def coefficient(self):
        """prod_s ((s-1)!)^{m_s} / (m_s)! as an exact rational."""
        num = 1
        den = 1
        for s, ms in enumerate(self.m, start=1):
            if ms:
                num *= math.factorial(s - 1) ** ms
                den *= math.factorial(ms)
        return Rat(num, den)


def enumerate_partitions(ell: int, predicate=None) -> list:
    """All partition tuples of ell, optionally filtered on their parts."""
    if ell < 1:
        raise ValueError("ell must be positive")
    out = []

    def descend(parts, largest, remaining):
        if remaining == 0:
            m = [0] * ell
            for p in parts:
                m[p - 1] += 1
            pt = PartitionTuple(tuple(m))
            if predicate is None or predicate(pt):
                out.append(pt)
            return
        for p in range(min(largest, remaining), 0, -1):
            parts.append(p)
            descend(parts, p, remaining - p)
            parts.pop()

    descend([], ell, ell)
    return out


def expand_relation(ell: int, n: int, d: int, chi, ctx: TautContext) -> BetaClass:
    """The full left-hand side of the generating identity in degree ell."""
    G, D, packing = _exp_series(n, d, chi, ctx, ell + 1)
    den = math.factorial(ell) * D**ell
    # the beta^i component of G_ell has degree ell - i
    return BetaClass(*(_divided(p, den, packing, ell - i, ctx) for i, p in enumerate(G[ell])))


def expand_relation_by_partitions(ell: int, n: int, d: int, chi, ctx: TautContext) -> BetaClass:
    """The literal sum over partition tuples of scaled factor powers."""
    total = beta_zero(ctx)
    factors: dict = {}
    for pt in enumerate_partitions(ell):
        term = beta_one(ctx)
        for s, ms in enumerate(pt.m, start=1):
            if not ms:
                continue
            f = factors.get(s)
            if f is None:
                f = relation_factor(s, n, d, chi, ctx)
                factors[s] = f
            term = term * f**ms
        total = total + term * pt.coefficient()
    return total


def beta_zero(ctx: TautContext) -> BetaClass:
    z = GradedPoly.zero(ctx)
    return BetaClass(z, z, z)


def beta_one(ctx: TautContext) -> BetaClass:
    z = GradedPoly.zero(ctx)
    return BetaClass(GradedPoly.const(ctx, 1), z, z)


def dual_involution(p: GradedPoly) -> GradedPoly:
    """The algebra involution c_k(j) -> (-1)^k c_k(j)."""
    out = {}
    for m, c in p.terms.items():
        sign = sum(k for k, _ in m) & 1
        out[m] = -c if sign else c
    return GradedPoly(p.ctx, out)
