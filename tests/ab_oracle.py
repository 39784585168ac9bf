"""The (A, B) solve as obstruction.solve_AB ran it before it became one
elimination, for the tests.

solve_AB here solves A^T M_i = P_i B^-1 in two steps.  M_1 is
invertible, so the i=1 equation gives A^T = P_1 B^-1 M_1^-1, and the
i=2, 3 equations leave an 18x9 homogeneous system in the entries of
B^-1 alone, with dense rows P_1 (M_1^-1 M_i); its kernel has the
dimension of the full 27x18 system's.  M_1^-1 and M_1^-1 M_i are
computed here, over the candidate's extension.  The line is normalized
so a11 = s22 and det(A) = det(B) = 1.  When the kernel is trivial, a
second elimination of the 27x18 system gives the a33 certificate
(a33_certificate).
"""

from itertools import product

from linalg_oracle import det, inverse, kernel
from tautrel.linalg import ExactMatrix
from tautrel.obstruction import ABResult


def solve_AB(cand) -> ABResult:
    E, Ms, Ps = cand.field, cand.M, cand.P
    M1_inv = inverse(Ms[0])
    rows = []
    for i in (1, 2):
        Q = (M1_inv * Ms[i]).data
        P0, Pi = Ps[0].data, Ps[i].data
        for r in range(3):
            for c in range(3):
                # entry 3k + l: P_1[r, k] Q[l, c], less P_i[r, k] if l = c
                row = []
                for k in range(3):
                    p = P0[r][k]
                    row += [p * Q[l][c] - Pi[r][k] if l == c else p * Q[l][c]
                            for l in range(3)]
                rows.append(row)
    basis = kernel(ExactMatrix(E, rows))
    dim = len(basis)
    if dim == 0:
        return ABResult("no_invertible", 0, certificate=a33_certificate(cand))
    if dim > 1:
        return ABResult("anomaly", dim,
                        certificate={"note": f"kernel dimension {dim} (expected 1)"})
    vec = basis[0]
    Binv = ExactMatrix(E, [[vec[3 * s + t] for t in range(3)] for s in range(3)])
    A = (Ps[0] * Binv * M1_inv).transpose()
    anchor = A[0, 0]
    if anchor.is_zero():
        return ABResult("anomaly", 1, certificate={"note": "kernel vector has a11 = 0"})
    mu = cand.S[1, 1] / anchor
    A, Binv = A.scale(mu), Binv.scale(mu)
    if det(A) != E.one or det(Binv) != E.one:
        return ABResult("anomaly", 1, certificate={
            "note": "normalized solution has det(A) or det(B^-1) != 1"})
    return ABResult("solution", 1, A=A, B=inverse(Binv))


def a33_certificate(cand) -> dict:
    """The 27x18 system, row (i, r, c) for entry (r, c) of equation i,
    A[k, r] at column 3k + r and B^-1[k, c] at column 9 + 3k + c: the
    row (i=1, r=0, c=1) held back, the other 26 eliminated in (r, c, i)
    order on the 17 columns other than a33, and the held-back row
    evaluated on the line a33 = 1 of the pivot rows."""
    E, Ms, Ps = cand.field, cand.M, cand.P
    rows = []
    for r, c, i in product(range(3), repeat=3):
        row = [E.zero] * 18
        for k in range(3):
            row[3 * k + r] = Ms[i][k, c]
            row[9 + 3 * k + c] = -Ps[i][r, k]
        if (i, r, c) == (0, 0, 1):
            held_back = row
        else:
            rows.append(row)
    not_a33 = [c for c in range(18) if c != 8]
    pivots, _ = ExactMatrix(E, rows).gauss_jordan(pivot_cols=not_a33)
    if len(pivots) != 17:
        return {"note": f"only {len(pivots)} pivots found (expected 17)"}
    vec = [E.zero] * 18
    vec[8] = E.one
    for col, prow in pivots:
        vec[col] = -prow[8]
    residual = E.zero
    for coeff, val in zip(held_back, vec):
        residual = residual + coeff * val
    return {"forcing_coefficient": residual, "normalized_unknown": "a33"}
