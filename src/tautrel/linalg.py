"""Exact dense linear algebra over any field in the coefficient tower.

All elimination but int_det's runs through one row-by-row Gauss-Jordan
loop, ExactMatrix.gauss_jordan, over any field, and its
fraction-free twin over the integers, int_gauss_jordan.  It
eliminates the twelve relations at the 27 tracked monomials, scaled to
integers, once per block, in relations.point_echelon: for the pivots
and R1..R3 of every relations.TrackedBlock, whose pivots give
verify_rank12 its rank and whose blocks every side of decide reads.
In relations.build_relation_set it eliminates the block's columns
0..11, the numerators of the full rows at their twelve leading
monomials, beside an identity, whose part records the integer
combinations of the rows that give R1..R3 over every monomial.  Over
each candidate's extension it eliminates the 27x18 (A, B) system of
obstruction.solve_AB, pivoting on every column but a33, and the (U, V)
block of obstruction.solve_UV.  Over QQ(d, chi1) it eliminates the same
12x27 matrix once per process, for symbolic.symbolic_MN, in the field
of ratfunc.FormField, whose denominators are powers of eight linear
forms.
The pivot rule:
rows are visited top to bottom, so a caller that wants another order
orders its rows; each is reduced against the pivot rows found so far,
then pivots on its first nonzero entry among the columns allowed to
hold a pivot, taken in a given order (all columns, left to right, by
default); a row with no such entry is set aside.  With the default
the pivot rows, sorted by column, are the unique reduced row echelon
form.  Rows are updated only where the row they subtract is nonzero, so
zero entries cost no arithmetic; entries are tested for zero by their
truth value.  Division is exact, so every result is deterministic.
int_det is a fraction-free forward elimination over the integers
(Bareiss 1968): it takes the minors of a block's integer rows, det1,
det2 and the Mon1 minor of relations.TrackedBlock, each divided once by
the product of its rows' scales.  No determinant or inverse over a
field is eliminated: each one the package takes is 3x3 and read off
cross products (cross), by cofactors.  They are the 27 determinants of
a pencil (obstruction.cubic_det), det(A) = det(B^-1) = 1 and
B = adj(B^-1) in obstruction.solve_AB, A^-T in the constraint, and the
inverse of an element of a cubic extension of a field of rational
functions (cubicext).
"""

from __future__ import annotations

from array import array
from math import gcd
from operator import add


def int_gauss_jordan(rows) -> list:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Rows are visited top to bottom, each pivoting on its first nonzero
    entry (the default rule of ExactMatrix.gauss_jordan), but none is
    scaled to 1: against a pivot row prow with pivot p, a row holding f
    in that column becomes (p/g) row - (f/g) prow, g = gcd(f, p), over
    its content, and a new pivot's column is cleared from the earlier
    pivot rows the same way.  Rows that reduce to zero are dropped; the
    input rows are not changed.

    Returns the pivot rows sorted by column, as (col, row), each
    primitive, positive at its pivot and zero at every other pivot:
    divided by its pivot entry, it is the row of the RREF over QQ.  So
    the output does not change when an input row is scaled by a nonzero
    integer, negative ones included.
    """
    pivots = []
    for row in rows:
        for col, prow in pivots:
            f = row[col]
            if f:
                row = _int_reduce(row, prow, f, prow[col])
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        c = gcd(*row)
        if row[lead] < 0:
            c = -c
        row = [x // c for x in row] if c != 1 else list(row)
        p = row[lead]
        for i, (col, prow) in enumerate(pivots):
            f = prow[lead]
            if f:
                pivots[i] = (col, _int_reduce(prow, row, f, p))
        pivots.append((lead, row))
    pivots.sort(key=lambda cr: cr[0])
    return pivots


def _int_reduce(row, prow, f, p) -> list:
    """(p/g) row - (f/g) prow over its content, g = gcd(f, p): the entry
    at prow's pivot, where row holds f and prow holds p, becomes zero."""
    g = gcd(f, p)
    a, b = p // g, f // g
    out = [a * x - b * y for x, y in zip(row, prow)]
    c = gcd(*out)  # 0 when row was a multiple of prow
    return [x // c for x in out] if c > 1 else out


def int_det(rows) -> int:
    """The determinant of a square matrix of ints, by fraction-free
    forward elimination (Bareiss 1968).

    Column by column, the first row at or below the diagonal with a
    nonzero entry there is swapped up, flipping the sign; below it each
    entry becomes (p a - f b) / q, for p the pivot, f the row's entry in
    the pivot column, a and b the entries of the row and the pivot row,
    and q the previous pivot (1 at the start).  The division is exact,
    since every entry is then a minor of the input, so the entries stay
    as small as the minors and no fraction is made.  The input rows are
    not changed.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NonSquareDet(f"{n}-row matrix is not square")
    M = [list(row) for row in rows]
    sign, q = 1, 1
    for k in range(n - 1):
        i = next((i for i in range(k, n) if M[i][k]), None)
        if i is None:
            return 0
        if i != k:
            M[k], M[i] = M[i], M[k]
            sign = -sign
        prow = M[k]
        p = prow[k]
        for row in M[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * prow[j]) // q
        q = p
    return sign * M[-1][-1] if n else 1


def cross(u, v) -> tuple:
    """The cross product u x v of two 3-vectors over any ring.

    w . (u x v) is the determinant of the 3x3 matrix with rows w, u, v;
    so for rows r0, r1, r2 the cross products r1 x r2, r2 x r0 and
    r0 x r1 are the rows of the cofactor matrix, the transpose of the
    adjugate, and r0 . (r1 x r2) is the determinant."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


class DimensionMismatch(ValueError):
    pass


class NonSquareDet(ValueError):
    pass


class ExactMatrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data):
        self.field = field
        self.data = [[field.coerce(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise DimensionMismatch("ragged rows")

    @classmethod
    def _of(cls, field, data):
        """Wrap rows that already hold elements of field, without coercion."""
        out = cls.__new__(cls)
        out.field = field
        out.data = data
        out.rows = len(data)
        out.cols = len(data[0]) if data else 0
        return out

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return ExactMatrix._of(
            self.field, [list(map(add, a, b)) for a, b in zip(self.data, other.data)])

    def __mul__(self, other):
        """The matrix product; a scalar multiple is scale."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        zero = self.field.zero
        right = other.data
        out = []
        for lrow in self.data:
            # zero left entries contribute nothing; each sum starts at
            # its first product
            support = [(x, right[k]) for k, x in enumerate(lrow) if x]
            row = []
            for j in range(other.cols):
                acc = None
                for x, rrow in support:
                    p = x * rrow[j]
                    acc = p if acc is None else acc + p
                row.append(zero if acc is None else acc)
            out.append(row)
        return ExactMatrix._of(self.field, out)

    def scale(self, c):
        c = self.field.coerce(c)
        return ExactMatrix._of(self.field, [[x * c for x in row] for row in self.data])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(self.field, [list(col) for col in zip(*self.data)])

    # -- elimination ------------------------------------------------------

    def gauss_jordan(self, pivot_cols=None, with_transform=False):
        """Row-by-row Gauss-Jordan elimination, the one elimination loop.

        The rows are visited top to bottom.  pivot_cols: the columns that
        may hold a pivot, in search order (default: all columns, left to
        right).  Each row is reduced against the pivot rows found so far
        and pivots on its first nonzero entry among pivot_cols; it is
        scaled to 1 there and its pivot column is cleared from the
        earlier pivot rows.  A row with no such entry is set aside.

        Returns (pivots, rest): pivots lists (column, row) in the order
        found, the rows reduced against each other; rest lists the rows
        set aside, each reduced against the pivots found before it.  With
        with_transform every row carries self.rows further entries: the
        combination of the rows of self that it equals.

        A row is updated only on the support (nonzero columns, transform
        ones included) of the row it subtracts.  Pivot rows keep theirs,
        recomputed on change, as index arrays: lists would hold an int each.
        """
        one = self.field.one
        cols = range(self.cols) if pivot_cols is None else pivot_cols
        pivots, supports, rest = [], [], []
        for k, row in enumerate(self.data):
            row = list(row)
            if with_transform:
                row += [self.field.zero] * self.rows
                row[self.cols + k] = one
            for (col, prow), supp in zip(pivots, supports):
                f = row[col]
                if f:
                    for j in supp:
                        row[j] = row[j] - f * prow[j]
            lead = next((c for c in cols if row[c]), None)
            if lead is None:
                rest.append(row)
                continue
            inv = one / row[lead]
            supp = array('l', [j for j, x in enumerate(row) if x])
            for j in supp:
                row[j] = row[j] * inv
            for i, (col, prow) in enumerate(pivots):
                f = prow[lead]
                if f:
                    for j in supp:
                        prow[j] = prow[j] - f * row[j]
                    supports[i] = array('l', [j for j, x in enumerate(prow) if x])
            pivots.append((lead, row))
            supports.append(supp)
        return pivots, rest

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.data
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"
