"""Reference linear algebra for the tests, on ExactMatrix.

copy, rref, det and inverse are the ExactMatrix methods of those names
before the package took its 3x3 determinants and inverses by cofactors
(linalg.cross): rref sorts gauss_jordan's pivot rows, det is a forward
elimination of its own and inverse reads the transform of rref.
det_cofactor is the cofactor expansion along the first row, a
determinant independent of det's forward elimination.
solve is the general solver the package used before each of its
systems got its own elimination: one gauss_jordan of [A | rhs] with a
transform, pivoting left of the bar.  kernel is the kernel basis
ExactMatrix.kernel gave before obstruction.solve_AB took its (A, B)
line from one elimination (tests/ab_oracle.py still uses it).  rank
and identity are the small helpers the tests need.
"""

from tautrel.linalg import ExactMatrix, NonSquareDet


def copy(M: ExactMatrix) -> ExactMatrix:
    return ExactMatrix._of(M.field, [row[:] for row in M.data])


def rref(M: ExactMatrix, with_transform: bool = False):
    """Reduced row echelon form.

    Returns (R, pivots) or (R, pivots, T) with T @ M == R.
    """
    found, rest = M.gauss_jordan(with_transform=with_transform)
    found.sort(key=lambda cr: cr[0])
    pivots = [col for col, _ in found]
    rows = [row for _, row in found] + rest
    if not with_transform:
        return ExactMatrix._of(M.field, rows), pivots
    R = ExactMatrix._of(M.field, [row[:M.cols] for row in rows])
    return R, pivots, ExactMatrix._of(M.field, [row[M.cols:] for row in rows])


def det(M: ExactMatrix):
    """The determinant by forward elimination with row swaps."""
    if M.rows != M.cols:
        raise NonSquareDet(f"{M.rows}x{M.cols} matrix has no determinant")
    data = copy(M).data
    n = M.rows
    out = M.field.one
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if data[i][col]), None)
        if pivot_row is None:
            return M.field.zero
        if pivot_row != col:
            data[col], data[pivot_row] = data[pivot_row], data[col]
            out = -out
        p = data[col][col]
        out = out * p
        inv = M.field.one / p
        for i in range(col + 1, n):
            f = data[i][col]
            if not f:
                continue
            f = f * inv
            data[i] = [a - f * b for a, b in zip(data[i], data[col])]
    return out


def inverse(M: ExactMatrix) -> ExactMatrix:
    if M.rows != M.cols:
        raise NonSquareDet("only square matrices invert")
    R, pivots, T = rref(M, with_transform=True)
    if len(pivots) != M.rows:
        raise ZeroDivisionError("singular matrix")
    return T


def rank(M: ExactMatrix) -> int:
    return len(M.gauss_jordan()[0])


def kernel(M: ExactMatrix) -> list:
    """Basis of the right kernel of M, as lists of field elements: read off
    the pivot rows of gauss_jordan, one vector per free column, in column
    order."""
    return _kernel(M.field, M.cols, M.gauss_jordan()[0])


def identity(field, n: int) -> ExactMatrix:
    return ExactMatrix(field, [[field.one if i == j else field.zero for j in range(n)]
                               for i in range(n)])


def det_cofactor(M: ExactMatrix):
    n = M.rows
    if n == 1:
        return M.data[0][0]
    acc = M.field.zero
    sign = M.field.one
    for j in range(n):
        c = M.data[0][j]
        if c:
            minor = ExactMatrix(
                M.field, [[M.data[i][k] for k in range(n) if k != j] for i in range(1, n)]
            )
            acc = acc + sign * c * det_cofactor(minor)
        sign = -sign
    return acc


def solve(A: ExactMatrix, rhs: list):
    """Solve A @ x = rhs.

    Returns (particular, kernel_basis, certificate): certificate is None
    when solvable, otherwise a row combination lam with lam @ A == 0 and
    lam @ rhs == 1 (and particular is None).  One elimination of
    [A | rhs], pivoting left of the bar, gives all three.
    """
    F, n = A.field, A.cols
    aug = ExactMatrix._of(F, [A.data[i] + [F.coerce(rhs[i])] for i in range(A.rows)])
    pivots, rest = aug.gauss_jordan(pivot_cols=range(n), with_transform=True)
    for row in rest:
        if row[n]:
            inv = F.one / row[n]
            return None, None, [x * inv for x in row[n + 1:]]
    x = [F.zero] * n
    for col, row in pivots:
        x[col] = row[n]
    return x, _kernel(F, n, pivots), None


def _kernel(F, n: int, pivots: list) -> list:
    """Kernel basis read off the pivot rows, one vector per free column."""
    taken = {col for col, _ in pivots}
    basis = []
    for f in range(n):
        if f not in taken:
            v = [F.zero] * n
            v[f] = F.one
            for col, row in pivots:
                v[col] = -row[f]
            basis.append(v)
    return basis
