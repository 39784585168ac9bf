"""The twelve degree-d relations at the 27 tracked columns, d symbolic.

The closed form.  The relations of degree ell = d+1 and d+2 are the
degree-ell pieces of exp(L), L = sum_s (s-1)! F_s, s = 1..d+2, over the
(d-3)! of the relations' normalization (relations).  Everything here
is written in the sign-twisted basis ct_k(j) = (-1)^(k+1) c_k(j), in
which each term of F_s (the eight terms of tautalg.factor_table, with
its degenerate symbols) is c beta^b times one generator ct_k(j),
k = s + offset, or the scalar ct_0(1) = -d.  So L is linear in the
generators, L = lam + sum_g ell_g g, with lam = lam_1 beta + lam_2 beta^2
its scalar part (the ct_0(1) terms of F_1 and F_2) and ell_g = sum
(s-1)! c beta^b over the terms c beta^b g of the F_s.  Its terms
commute, so exp(L) = exp(lam) prod_g exp(ell_g g), and mod beta^3 the
coefficient of prod_g g^(e_g) beta^i in exp(L) is

    [beta^i] (1 + lam_1 beta + (lam_2 + lam_1^2/2) beta^2) prod_g ell_g^(e_g) / e_g!.

A tracked column (tautalg's layout) is one large generator ct_{d+a}(j)
of degree d-2..d, named by its offset (a, j) in LARGE, times small
generators of total degree <= 2 (DEG1, DEG2).  For d >= 5 a large
generator has degree >= 3, so it is no small one, and its exponent in
the column is 1.  The weight (s-1)! of a small generator's term is a
constant (s <= 4), that of the large generator's, s = d + a - offset,
over (d-3)! is the polynomial (d+a-offset-1)!/(d-3)! (_large_ratio, as
a - offset >= -2 at every layout generator).  Over (d-3)!, the entries
of the twelve relations at a tracked column mu are [beta^2] of mu/g for
g Ra^n (0 where g does not divide mu), [beta^1] of mu for Rb^n and
-[beta^2] of mu for Rc^n (_laurent_rows).  The factorization holds at
every d, so no case of small d needs separate treatment.

The plain basis.  A monomial's coefficient in the c_k(j) basis is its
twisted one times (-1)^(k+1) for each of its generators.  Each tracked
column holds exactly one generator of symbolic index, the large one,
whose factor is (-1)^d (-1)^(a+1); _col_sign is the product of the
others, so the matrix here is (-1)^d times the twelve relations at the
tracked monomials in the plain basis (relations.tracked_block).  The
parity is the same for every entry, so it cancels in the echelon form
and the blocks read from it.

What checks the derivation.  relations.tracked_block, which verify,
emit --what matrices and each side of decide (obstruction.side_at)
read, evaluates this one matrix at a point, and symbolic_MN eliminates
it over QQ(d, chi1), its denominators kept as powers of linear forms
(below).  verify --mode symbolic compares symbolic_MN at a point with
the blocks of relations.build_relation_set, the full expansion by the
recurrence, which does not use this closed form.  In tier-1, the blocks
at every coprime point of d = 5..16 are compared with the recurrence,
and every entry of the matrix with the partition truncation over
RatFuncs (tests/symbolic_oracle.py), each by ==.

Laurent polynomials.  Every coefficient has a denominator that is a
power of d times an integer: the factor coefficients ha/d, c1 =
(2-n) - chi1/d, q = ha*hb/(2 d^2) and -1/2, the 1/e_g! and the 1/2 of
exp(lam).  So the closed form runs on Laurent polynomials in (d, chi1),
{(e_d, e_chi1): int} with e_d possibly negative, fraction-free: lam and
the ell_g of n over the lcm den of factor_table's denominators,
exp(lam) over 2 den^2, and a product over the product of the
denominators, with no gcd until each entry is made primitive.  The
12x27 matrix is made once per process (_laurent_rows, cached by
_laurent_matrix) as rows of plain ints: each row holds its 27 entries
over one positive integer den, the lcm of the entries' denominators,
their column and Rc signs folded into the coefficients, and the row's
k = max(0, -min e_d).  symbolic_MN writes each entry as an element
of ELIM_FIELD, (d^k lau) / (den d^k) with k its own max(0, -min e_d)
(below).  relations.tracked_block evaluates the same rows at (d, chi)
over the integers, each times den d^k, nonzero at d >= 5
(tracked_rows_at).

The elimination over QQ(d, chi1).  symbolic_MN runs the one elimination
loop, ExactMatrix.gauss_jordan, on the 12x27 matrix A over ELIM_FIELD
(ratfunc.FormField): an entry is num / (c prod l_i^e_i), num an integer
polynomial, c a positive integer and l_i the eight linear forms of
FORMS, d, chi1, d-1, d-2, d-chi1, d-2 chi1, 2d-chi1 and 3d-2 chi1.
Sums and products add, or take the larger of, the exponent vectors and
the integer parts, and cancel by exact division by a form only where
num vanishes on its line: no polynomial gcd is taken, where the
elimination in RatFunc arithmetic spent most of its time in GCDHEU.
Rows 9..11 are turned into canonical RatFuncs once, for read_blocks.
Where the forms come from: rows are visited top to bottom and the k-th
row pivots on column k-1 (checked below), so after k rows the pivot
rows are P_k^-1 times those rows, P_k the leading k x k block of the
pivot block P, and a later row reduced against them holds minors of A
over D_k = det P_k (Cramer's rule, Sylvester's identity); the k-th
pivot is D_k / D_(k-1).  So every denominator divides an input
denominator 2^a d^m times some D_k, and the irreducible factors of
D_1..D_12 are the eight forms: the six of D_12 = det P (below), 3d-2
chi1, which divides D_1..D_3, and 2d-chi1, which divides D_10.  A pivot
is inverted by dividing its numerator by the forms; a non-constant
cofactor left over is a factor the field cannot hold, and the division
raises ArithmeticError.  So a change to the closed form that brings a
new factor fails loudly, and never gives a wrong block; the tests check
that leaving out any one form makes symbolic_MN raise, and compare its
blocks with the elimination in RatFunc arithmetic
(tests/symbolic_oracle.py) by == and str.

Exact specialization.  The 12x27 matrix A over QQ(d, chi1) has its
pivots on columns 0..11 (symbolic_MN checks this), so its echelon form
is P^-1 A for the 12x12 submatrix P on those columns, and

    det P = d^4 chi1^2 (d-1)^5 (d-2)^14 (d-chi1)^2 (d-2 chi1)^2 / 4

(recomputed in the tests).  At a coprime 0 < chi < d with d >= 5 no
factor vanishes: d, d-1, d-2 >= 3; chi1 = chi > 0 and d - chi > 0; and
d = 2 chi would make chi a common divisor of d and chi, so chi = 1 and
d = 2.  The entries of A have denominators 2^a d^k, nonzero there too.
This closed form is why two things hold at every such point, not only
at the sampled ones:

- obstruction.side_at's pivot check never fails.  The rows of
  relations.tracked_block are those of A(d, chi) times nonzero
  integers, and P(d, chi) is invertible, so the echelon form of
  A(d, chi) has its pivots on columns 0..11 and equals
  P(d, chi)^-1 A(d, chi);
- the blocks of relations.tracked_block and symbolic_MN evaluated at
  (d, chi) agree.  Each entry of P^-1 A = adj(P) A / det P has a
  reduced denominator dividing det P times some 2^a d^k, so it is
  defined at (d, chi), and its value there is the entry of
  P(d, chi)^-1 A(d, chi).

The point elimination itself (relations.point_echelon:
int_gauss_jordan, whose rows 9..11 are kept as integers over their pivot
entries) is exact integer arithmetic; it makes every
relations.TrackedBlock.  The blocks M_i and N_i of any R1..R3, over
QQ(d, chi1) or at a point, are read by one reader, read_blocks, as rows
of tuples that no caller of the cached ones can change; at a point it
divides each entry it reads by its row's pivot entry, once.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .linalg import ExactMatrix
from .rat import Rat
from .ratfunc import FormField, FracField
from .tautalg import DEG1, DEG2, LARGE, SQUARES, TRACKED, factor_table

SYM_FIELD = FracField(("d", "chi1"))
_D, _CHI = SYM_FIELD.gen("d"), SYM_FIELD.gen("chi1")
# every denominator of the elimination of symbolic_MN is an integer times
# a product of powers of these (module docstring)
FORMS = (_D, _CHI, _D - 1, _D - 2, _D - _CHI, _D - 2 * _CHI, 2 * _D - _CHI, 3 * _D - 2 * _CHI)
ELIM_FIELD = FormField(SYM_FIELD.vars, FORMS)

# A Laurent polynomial is {(e_d, e_chi1): int} with e_d possibly
# negative; a beta-series is the triple of its beta^0..2 components.


# -- Laurent polynomials in (d, chi1) ------------------------------------


def _laurent_mul_into(out: dict, p: dict, q: dict) -> None:
    """out += p*q, exponents added; zero coefficients may be left in out."""
    for (a1, b1), x in p.items():
        for (a2, b2), y in q.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + x * y


def _laurent_add_into(out: dict, p: dict) -> None:
    """out += p; zero coefficients may be left in out."""
    for e, x in p.items():
        out[e] = out.get(e, 0) + x


def _nonzero(lau: dict) -> dict:
    return {e: x for e, x in lau.items() if x}


def _scaled(lau: dict, c) -> dict:
    return {e: c * x for e, x in lau.items()}


# -- the closed form of exp(L) at the tracked columns ----------------------


def _large_ratio(a: int) -> dict:
    """(d+a-1)! / (d-3)! as a polynomial in d, for a >= -2."""
    acc = {(0, 0): 1}
    for off in range(-2, a):
        nxt: dict = {}
        _laurent_mul_into(nxt, acc, {(1, 0): 1, (0, 0): off})
        acc = _nonzero(nxt)
    return acc


def _exponent(n: int) -> tuple:
    """(den, lam, ell, ell_large): the exponent L = sum_s (s-1)! F_s of n
    in the twisted basis, its coefficients Laurent polynomials over the
    integer den, the lcm of factor_table's denominators.  lam is its
    scalar part, ell[g] the coefficient of each small generator g of the
    layout, and ell_large[o] that of the large generator of offset o,
    over (d-3)!; each a beta-series (module docstring)."""
    table = factor_table(n)
    den = math.lcm(*(x.denominator for _, lau, _, _ in table for x in lau.values()))
    # ct_0(1), the scalar -d, is read as a generator until the end
    ell = {g: ({}, {}, {}) for g in ((0, 1),) + DEG1 + DEG2}
    ell_large = {o: ({}, {}, {}) for group in LARGE for o in group}
    ratios = {}  # _large_ratio of the 5 distinct values of a - offset, of 24 read
    for beta, lau, offset, j in table:
        c = {e: int(x * den) for e, x in lau.items()}
        # ct_k(j) is a term of F_s, s = k - offset, of weight (s-1)!
        for (k, jj), series in ell.items():
            if jj == j and k > offset:
                _laurent_add_into(series[beta], _scaled(c, math.factorial(k - offset - 1)))
        for (a, jj), series in ell_large.items():
            if jj == j:
                if a - offset not in ratios:
                    ratios[a - offset] = _large_ratio(a - offset)
                _laurent_mul_into(series[beta], c, ratios[a - offset])
    lam = tuple({(a + 1, b): -x for (a, b), x in p.items() if x} for p in ell.pop((0, 1)))
    if lam[0]:
        raise ValueError("the scalar part of L has a beta^0 term")
    return den, lam, ell, ell_large


def _exp_lambda(den: int, lam) -> tuple:
    """(den', series): exp(lam) mod beta^3, 1 + lam_1 beta + (lam_2 +
    lam_1^2/2) beta^2, over the integer den' = 2 den^2, for lam the
    beta-series (0, lam_1, lam_2) over den."""
    _, l1, l2 = lam
    b2 = _scaled(l2, 2 * den)
    _laurent_mul_into(b2, l1, l1)
    return 2 * den * den, ({(0, 0): 2 * den * den}, _scaled(l1, 2 * den), b2)


def _beta_product(p, q) -> tuple:
    """p q mod beta^3 for beta-series p and q."""
    out = ({}, {}, {})
    for i, x in enumerate(p):
        for j, y in enumerate(q[:3 - i]):
            _laurent_mul_into(out[i + j], x, y)
    return out


def _coefficient(scalar, form, large, small) -> tuple:
    """(den, series): the coefficient of ct_{d+a}(j) prod small in
    exp(L), over (d-3)!, for the large offset (a, j), as a beta-series
    over the integer den: exp(lam) ell_large prod_g ell_g^e_g / e_g!.
    form is the _exponent of n and scalar its _exp_lambda."""
    sden, series = scalar
    den, _, ell, ell_large = form
    series = _beta_product(series, ell_large[large])
    for g in small:
        series = _beta_product(series, ell[g])
    fact = math.prod(math.factorial(small.count(g)) for g in set(small))
    return sden * den ** (1 + len(small)) * fact, series


# -- the 12x27 matrix and the block matrices --------------------------------


def _col_sign(large, small) -> int:
    """Twisted-to-plain conversion sign, global parity factor dropped."""
    a, _j = large
    s = (a + 1) & 1
    for k, _ in small:
        s ^= (k + 1) & 1
    return -1 if s else 1


def _entry(coefficient, beta: int, sign: int) -> tuple:
    """(den, lau): sign times the beta^beta component of a _coefficient,
    lau/den made primitive, den > 0."""
    den, series = coefficient
    lau = _nonzero(series[beta])
    if not lau:
        return 1, {}
    g = math.gcd(den, *lau.values())
    return den // g, {e: sign * (c // g) for e, c in lau.items()}


def _row(entries) -> tuple:
    """(den, k, terms) of a row of _entry pairs: den the lcm of their
    denominators, k = max(0, -min e_d) over the row, and each entry
    times den as a tuple of (e_d, e_chi1, c)."""
    den = math.lcm(*(e for e, _ in entries))
    k = max(0, -min((a for _, lau in entries for a, _ in lau), default=0))
    return den, k, tuple(tuple((a, b, den // e * c) for (a, b), c in lau.items())
                         for e, lau in entries)


def _laurent_rows() -> tuple:
    """The 12x27 matrix whose echelon form holds the blocks, in the
    columns of tautalg.TRACKED, as rows (den, k, terms): terms holds the
    row's 27 entries, each the sum of c * d^e_d * chi1^e_chi1 over its
    tuple of (e_d, e_chi1, c), over the positive integer den, and no e_d
    of the row is below -k (_row).  The column sign and the Rc sign are
    folded into c.  Rows: c2(0)*Ra^n and c0(2)*Ra^n for n = 1, 2, 3, then
    Rb^1..Rb^3 and Rc^1..Rc^3, by the closed form (module docstring).
    Tuples of ints only, so no reader can change it.

    Each entry is made primitive before it is scaled to the row's den,
    so den is the lcm of the entries' reduced denominators, not of the
    far larger ones their products come with."""
    ra, rb, rc = [], [], []
    for n in (1, 2, 3):
        form = _exponent(n)
        scalar = _exp_lambda(*form[:2])
        ra_entries = {}  # the two rows read 18 columns over mult, 9 of them distinct
        for mult in DEG1:
            # mult Ra^n at a column is Ra^n at the column over mult
            row = []
            for large, small in TRACKED:
                if mult in small:
                    i = small.index(mult)
                    col = (large, small[:i] + small[i + 1:])
                    if col not in ra_entries:
                        ra_entries[col] = _entry(_coefficient(scalar, form, *col), 2,
                                                 _col_sign(*col))
                    row.append(ra_entries[col])
                else:
                    row.append((1, {}))
            ra.append(_row(row))
        b, c = [], []
        for large, small in TRACKED:
            coefficient, sign = _coefficient(scalar, form, large, small), _col_sign(large, small)
            b.append(_entry(coefficient, 1, sign))
            c.append(_entry(coefficient, 2, -sign))
        rb.append(_row(b))
        rc.append(_row(c))
    return tuple(ra + rb + rc)


# held for the life of the process: tracked_rows_at and symbolic_MN read it
_laurent_matrix = lru_cache(maxsize=1)(_laurent_rows)


def _block_columns(smalls) -> tuple:
    """The columns of TRACKED that a block reads: a tuple per large
    generator of LARGE[2], its rows, of a column per small monomial of
    smalls."""
    index = {col: i for i, col in enumerate(TRACKED)}
    return tuple(tuple(index[(large, small)] for small in smalls) for large in LARGE[2])


# the columns of M_i (LARGE[2] x DEG2) and of N_i (LARGE[2] x SQUARES)
M_COLS, N_COLS = _block_columns([(u,) for u in DEG2]), _block_columns(SQUARES)


def read_blocks(R, cols, field, dens=None) -> tuple:
    """The blocks of R1..R3 at cols, M_COLS or N_COLS, over field: R
    holds the echelon rows 9..11 at the 27 tracked columns, elements of
    field, and an entry at (large, small) is R_i's at the column large *
    small.  With dens, R holds integer rows, R_i over dens[i], and field
    is QQ: each entry read is divided once, into a Rat.  Tuples of blocks
    with tuple rows, so no reader can change them."""
    if dens is None:
        return tuple(ExactMatrix._of(field, tuple(tuple(row[j] for j in js) for js in cols))
                     for row in R)
    return tuple(ExactMatrix._of(field, tuple(tuple(Rat(row[j], den) for j in js) for js in cols))
                 for row, den in zip(R, dens))


@lru_cache(maxsize=1)
def symbolic_MN() -> tuple:
    """(M_1..M_3, N_1..N_3) as 3x3 matrices of rational functions in
    (d, chi1), from the elimination of the closed form over QQ(d, chi1),
    its denominators kept as powers of FORMS (module docstring)."""
    A = [[ELIM_FIELD.frac({(a, b): c for a, b, c in terms}, den) for terms in row]
         for den, _, row in _laurent_matrix()]
    found, _ = ExactMatrix._of(ELIM_FIELD, A).gauss_jordan()
    found.sort(key=lambda cr: cr[0])
    pivots = [col for col, _ in found]
    if pivots != list(range(12)):
        raise AssertionError(f"unexpected symbolic echelon pivots: {pivots}")
    R = [[x.to_ratfunc() for x in row] for _, row in found[9:12]]
    return read_blocks(R, M_COLS, SYM_FIELD), read_blocks(R, N_COLS, SYM_FIELD)


def tracked_rows_at(d: int, chi: int) -> tuple:
    """(rows, scales): the matrix of _laurent_matrix at (d, chi1 = chi),
    d != 0, as integer rows, each row (den, k, terms) evaluated times its
    scale den * d^k.  In the plain basis the twelve relations at the
    tracked monomials are (-1)^d rows[i] / scales[i] (module docstring).
    The powers of d and chi come from two tables, made once per call:
    an exponent past them, e_d + k > 9 or e_chi1 > 5, raises IndexError."""
    dp = [d ** e for e in range(10)]
    cp = [chi ** e for e in range(6)]
    rows, scales = [], []
    for den, k, row in _laurent_matrix():
        out = []
        for terms in row:
            acc = 0
            for a, b, c in terms:
                acc += c * dp[a + k] * cp[b]
            out.append(acc)
        rows.append(out)
        scales.append(den * dp[k])
    return rows, scales
