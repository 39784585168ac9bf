"""Reference (U, V) solve for the tests: the full 27x18 system, solved by
linalg_oracle.solve.

This is how tautrel.obstruction.solve_UV solved the system before it
eliminated the one 9x6 block the system repeats for each column of U and
V.  Status, U, V and the certificate row must agree with it exactly.
"""

from linalg_oracle import solve
from tautrel.linalg import ExactMatrix


def uv_system(E, AM: list, AN: list, Ps: list):
    """Row 9i + 3r + c: entry (r, c) of AM_i U + AN_i V = Ps_i, in the
    unknowns U[k, c] (column 3k + c) and V[k, c] (column 9 + 3k + c)."""
    rows, rhs = [], []
    for i in range(3):
        for r in range(3):
            for c in range(3):
                row = [E.zero] * 18
                for k in range(3):
                    row[3 * k + c] = AM[i][r, k]
                    row[9 + 3 * k + c] = AN[i][r, k]
                rows.append(row)
                rhs.append(Ps[i][r, c])
    return ExactMatrix(E, rows), rhs


def uv_oracle(E, AM: list, AN: list, Ps: list) -> tuple:
    """(status, U, V, certificate) of the 27x18 solve."""
    system, rhs = uv_system(E, AM, AN, Ps)
    x, _, certificate = solve(system, rhs)
    if certificate is not None:
        for col in range(18):
            acc = E.zero
            for lam, row in zip(certificate, system.data):
                acc = acc + lam * row[col]
            assert acc.is_zero()
        assert not sum((lam * b for lam, b in zip(certificate, rhs)), E.zero).is_zero()
        return "inconsistent", None, None, certificate
    U = ExactMatrix(E, [[x[3 * s + t] for t in range(3)] for s in range(3)])
    V = ExactMatrix(E, [[x[9 + 3 * s + t] for t in range(3)] for s in range(3)])
    for i in range(3):
        assert AM[i] * U + AN[i] * V == Ps[i]
    return "solvable", U, V, None
