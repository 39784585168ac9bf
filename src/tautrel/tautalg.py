"""The tautological generators c_k(j), their total ordering and monomials,
and the beta-twisted relation factor written once for every consumer.

Generators are (k, j) pairs with j in {0, 1, 2} and cohomological degree
k + j - 1.  A monomial is a tuple of generators sorted descending.

The layout of the truncated system, which relations, truncation and
symbolic read, is written here once.  R1, R2, R3 are read on the
degree-d monomials with one large generator c_{d+a}(j) of degree d - i,
named by its offset (a, j) in LARGE[i] (large_gen instantiates it),
times small generators of total degree i <= 2: DEG1 (the multipliers
of Ra^n too), DEG2 (the M_i columns) or SQUARES (the N_i columns); the
rows of M_i and N_i are LARGE[2].  Every list descends,
and for d >= 5 a large generator sorts above every small one, so a
product written large-first is a monomial and the layout lists them in
descending order: TRACKED, the 27 tracked columns, which tracked_monos
instantiates at a concrete d.

The factor F_s of the generating identity is written in the twisted
symbols ct_k(j) = (-1)^(k+1) c_k(j):

    F_s = (A_s - B_s) + B_{s-1} beta - (1/2) B_{s-2} beta^2,
    A_s - B_s = ct_s(1) - (ha/d) ct_{s-1}(2),
    B_m = ct_{m+1}(0) + c1 ct_m(1) + q ct_{m-1}(2),

with ha = ((2n-5)/2) d + chi, hb = ((2n-3)/2) d + chi, c1 = (2-n) -
chi/d and q = ha hb / (2 d^2).  factor_table lists its eight terms with
their coefficients as Laurent polynomials in (d, chi); the relation
build evaluates them at a concrete (d, chi), the symbolic pipeline keeps
them.  The degenerate symbols are resolved by twisted_symbol: c_0(1) is
the scalar d, c_1(0) and c_1(1) vanish, and so does every other symbol
of non-positive degree (such symbols only arise from out-of-range
indices in the factors, where the underlying pushforward vanishes).
"""

from __future__ import annotations

from .rat import Rat


class DegreeMismatch(ValueError):
    pass


# -- generators and monomials -------------------------------------------


def gen_degree(gen) -> int:
    k, j = gen
    return k + j - 1


def gen_key(gen):
    """Sort key realizing the total order: degree first, then Chern index."""
    k, j = gen
    return (k + j - 1, k)


def gen_str(gen) -> str:
    k, j = gen
    return f"c{k}({j})"


def mono_str(mono: tuple) -> str:
    if not mono:
        return "1"
    parts = []
    i = 0
    while i < len(mono):
        g = mono[i]
        run = 1
        while i + run < len(mono) and mono[i + run] == g:
            run += 1
        parts.append(gen_str(g) if run == 1 else f"{gen_str(g)}^{run}")
        i += run
    return "*".join(parts)


# -- the layout of the truncated system (see the module docstring) -------

LARGE = (((1, 0), (0, 1), (-1, 2)),
         ((0, 0), (-1, 1), (-2, 2)),
         ((-1, 0), (-2, 1), (-3, 2)))
DEG1 = ((2, 0), (0, 2))
DEG2 = ((3, 0), (2, 1), (1, 2))
SQUARES = tuple((u, v) for i, u in enumerate(DEG1) for v in DEG1[i:])
# the 27 tracked columns as (large offset, small monomial), in descending
# order: each large generator of degree d - i times each small monomial
# of degree i
TRACKED = tuple((o, small)
                for group, smalls in zip(LARGE, (((),), tuple((u,) for u in DEG1),
                                                 tuple((u,) for u in DEG2) + SQUARES))
                for o in group for small in smalls)


def large_gen(d: int, offset) -> tuple:
    """The generator c_{d+a}(j) of the offset (a, j) at a concrete d."""
    a, j = offset
    return (d + a, j)


def tracked_monos(d: int) -> list:
    """The 27 tracked degree-d monomials at a concrete d >= 5, in
    descending order: TRACKED instantiated.  The first twelve are the
    pivots of R1..R3's echelon form (relations)."""
    return [(large_gen(d, o),) + small for o, small in TRACKED]


# -- the beta-twisted factor ----------------------------------------------


def twisted_symbol(k: int, j: int):
    """ct_k(j) = (-1)^(k+1) c_k(j) with the degenerate symbols resolved:
    None when it vanishes, () when it is the scalar ct_0(1) = -d, and
    the generator (k, j) otherwise."""
    if (k, j) == (0, 1):
        return ()
    if (k, j) in ((1, 0), (1, 1)) or k + j <= 1:
        return None
    return (k, j)


def factor_table(n: int) -> tuple:
    """The eight terms of F_s at n as (beta, coefficient, offset, j): the
    term coefficient * beta^beta * ct_{s+offset}(j), the coefficient a
    Laurent polynomial {(e_d, e_chi): Rat} in (d, chi) (see the module
    docstring)."""
    a, b = Rat(2 * n - 5, 2), Rat(2 * n - 3, 2)
    one = {(0, 0): Rat(1)}
    ha = {(0, 0): a, (-1, 1): Rat(1)}  # ha/d
    c1 = {(0, 0): Rat(2 - n), (-1, 1): Rat(-1)}
    # q = (ha/d)(hb/d)/2, hb/d = b + chi/d
    q = {(0, 0): a * b / 2, (-1, 1): (a + b) / 2, (-2, 2): Rat(1, 2)}

    def times(lau, c):
        return {e: c * x for e, x in lau.items()}

    half = Rat(-1, 2)
    return (
        (0, one, 0, 1),
        (0, times(ha, -1), -1, 2),
        (1, one, 0, 0),
        (1, c1, -1, 1),
        (1, q, -2, 2),
        (2, times(one, half), -1, 0),
        (2, times(c1, half), -2, 1),
        (2, times(q, half), -3, 2),
    )
