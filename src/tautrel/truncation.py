"""Projection of the canonical relations to the two coefficient blocks:
the 3x3 matrices M_i on (degree-2 generator) x (degree-(d-2) generator)
monomials and N_i on (squares of degree-1 generators) x (degree-(d-2)
generator) monomials.

The bases of both blocks are the layout of the truncated system in
tautalg: rows LARGE[2] at d, columns DEG2 and SQUARES.  Both blocks are
read from R1, R2, R3 of a relations.TrackedBlock, rows 9-11 of the
echelon form of the twelve relations at the 27 tracked monomials, by
symbolic.read_blocks, the one reader of the blocks, which symbolic_MN
and obstruction.pencil use too: the entry at (left, right) is R_i's
coefficient of the product monomial, the block's integer numerator
divided once by R_i's pivot entry.  Every consumer here reads a block,
whichever path gave its rows; each block is made by one elimination
(relations._block): relations.tracked_block (the closed form, which
verify, emit --what matrices and each side of decide, through
obstruction.side_at, read) or the block a RelationSet keeps,
RelationSet.block (the full expansion's, made once by the build, which
verify --mode symbolic and the tests read).  The M_i
have known closed forms which are kept here as templates, one code path
at a point and over QQ(d, chi1) (one division per entry), and checked
entry by entry; the N_i are produced by the pipeline itself and
validated by an independent elimination path plus their downstream
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import ExactMatrix
from .rat import QQ
from .relations import TrackedBlock
from .symbolic import M_COLS, N_COLS, read_blocks


class CheckpointMismatch(AssertionError):
    pass


def matrices_M(block: TrackedBlock) -> tuple:
    """Rows indexed by the degree-(d-2) generators, columns by the
    degree-2 ones: M_i[s][t] = [c_{d-1-s}(s) c_{3-t}(t)] R_i.  This is
    the orientation under which the change-of-relations equation reads
    A^T M_i B = sum_j s_ij M'_j."""
    return read_blocks(block.R, M_COLS, QQ, block.R_dens)


def matrices_N(block: TrackedBlock) -> tuple:
    return read_blocks(block.R, N_COLS, QQ, block.R_dens)


@dataclass
class TruncationBlock:
    d: int
    chi: object
    M: tuple
    N: tuple

    def to_json(self) -> dict:
        return {
            "schema": "tautrel/matrices/1",
            "d": self.d,
            "chi": str(self.chi),
            "M": [[[str(x) for x in row] for row in Mi.data] for Mi in self.M],
            "N": [[[str(x) for x in row] for row in Ni.data] for Ni in self.N],
        }


def truncation_block(block: TrackedBlock) -> TruncationBlock:
    return TruncationBlock(block.d, block.chi, matrices_M(block), matrices_N(block))


# -- reference templates -------------------------------------------------------


def reference_M_templates(d, chi, field=QQ):
    """The known closed forms of M_1, M_2, M_3 as field elements.

    d and chi are ints (over QQ) or the generators of field (the
    symbolic check).  Each entry is a numerator over a denominator,
    polynomials in d and chi computed in their own ring (the integers at
    a point), divided once in field.
    """
    x = chi
    one, zero = field.one, field.zero

    def q(num, den):
        return field.coerce(num) / den

    M1 = [
        [one, zero, zero],
        # (x - d) orientation, matching entry [2][1]: forced by the
        # x1*x2*x3 coefficient of det(sum x_i M_i)
        [zero, zero, q((d - 2) * (d - 2 * x) * x * (x - d), 8 * d**3)],
        [q(d - 4, 8 * d - 16),
         q((d - 2 * x) * x * (x - d), 2 * (d - 2) * d**3),
         q((-6 * x - 1) * d**5 + (6 * x**2 + 6 * x + 3) * d**4 + 18 * x**2 * d**3
           - (48 * x**3 + 48 * x**2) * d**2 + (24 * x**4 + 96 * x**3) * d - 48 * x**4,
           32 * (d - 2) * d**4)],
    ]
    M2 = [
        [zero, one, zero],
        [one, zero, q((-6 * x - 1) * d**2 + (6 * x**2 + 12 * x) * d - 12 * x**2, 8 * d**2)],
        [zero,
         q(24 * x**2 - 24 * x * d - d**3 + 2 * d**2, 8 * (d - 2) * d**2),
         q(x * (d**2 + 8 * d - 16) * (2 * x - d) * (d - x), 8 * (d - 2) * d**3)],
    ]
    M3 = [
        [zero, zero, one],
        [zero, zero, zero],
        [q(2, d - 2), zero, q(12 * x**2 - 12 * x * d - d**2, 8 * (d - 2) * d)],
    ]
    return [ExactMatrix._of(field, M) for M in (M1, M2, M3)]


def checkpoint_reference_M(block: TrackedBlock) -> dict:
    """Compare block's M_i with the reference templates at (block.d, block.chi).

    Returns a report dict; raises CheckpointMismatch on any differing
    entry, identifying (i, s, t) and both values.
    """
    d, chi = block.d, block.chi
    computed = matrices_M(block)
    templates = reference_M_templates(d, chi)
    checked = 0
    for i in range(3):
        for s in range(3):
            for t in range(3):
                a = computed[i][s, t]
                b = templates[i][s, t]
                if a != b:
                    raise CheckpointMismatch(
                        f"M{i+1}[{s}][{t}] at (d,chi)=({d},{chi}): "
                        f"computed {a}, reference {b}"
                    )
                checked += 1
    return {"d": d, "chi": chi, "entries_checked": checked, "status": "pass"}
