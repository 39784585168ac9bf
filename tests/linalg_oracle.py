"""Reference linear algebra for the tests, on ExactMatrix.

det_cofactor is the cofactor expansion along the first row, a
determinant independent of ExactMatrix.det's forward elimination.
solve is the general solver the package used before each of its
systems got its own elimination: one gauss_jordan of [A | rhs] with a
transform, pivoting left of the bar.  kernel is the kernel basis
ExactMatrix.kernel gave before obstruction.solve_AB took its (A, B)
line from one elimination (tests/ab_oracle.py still uses it).  rank
and identity are the small helpers the tests need.
"""

from tautrel.linalg import ExactMatrix


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
