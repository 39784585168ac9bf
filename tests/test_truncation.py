import dataclasses
import math

import pytest

from linalg_oracle import det
from tautrel.rat import QQ, Rat
from tautrel.relations import build_relation_set
from tautrel.tautalg import tracked_monos
from tautrel.truncation import (
    CheckpointMismatch,
    checkpoint_reference_M,
    matrices_M,
    matrices_N,
    reference_M_templates,
    truncation_block,
)


def test_reference_entries_at_5_1():
    rel = build_relation_set(5, 1)
    M = matrices_M(rel.block)
    assert M[2][2, 0] == Rat(2, 3)
    assert M[2][2, 2] == Rat(-73, 120)
    assert M[2][0, 2] == 1 and M[2][0, 0] == 0 and M[2][0, 1] == 0
    assert M[1][2, 1] == Rat(-57, 200)
    assert all(M[2][1, t] == 0 for t in range(3))


def test_echelon_first_rows():
    rel = build_relation_set(6, 1)
    M = matrices_M(rel.block)
    for i in range(3):
        for t in range(3):
            assert M[i][0, t] == (1 if t == i else 0)


def test_checkpoint_reference_M_range():
    for d in (5, 6, 7):
        for chi in range(1, d):
            if math.gcd(d, chi) != 1:
                continue
            rep = checkpoint_reference_M(build_relation_set(d, chi).block)
            assert rep["status"] == "pass" and rep["entries_checked"] == 27


def test_checkpoint_detects_mutation():
    blk = build_relation_set(5, 1).block
    # M1[0][1], the coefficient of c4(0)*c2(1) in R1, moved by 1: R1 is
    # integers over R_dens[0]
    j = tracked_monos(5).index(((4, 0), (2, 1)))
    R1 = list(blk.R[0])
    R1[j] += blk.R_dens[0]
    broken = dataclasses.replace(blk, R=(tuple(R1),) + blk.R[1:])
    with pytest.raises(CheckpointMismatch):
        checkpoint_reference_M(broken)


def test_dets_nonzero_and_values():
    for (d, chi) in [(5, 1), (6, 1), (7, 3), (8, 5)]:
        rel = build_relation_set(d, chi)
        M = matrices_M(rel.block)
        X = Rat(chi * (d - chi) * (d - 2 * chi))
        assert det(M[0]) == -(X * X) / Rat(16 * d**6)
        assert det(M[1]) == X * Rat(d * d + 8 * d - 16) / Rat(8 * (d - 2) * d**3)
        assert det(M[2]) == 0


def test_matrices_N_zero_poly():
    # zero relations read as zero blocks
    blk = build_relation_set(5, 1).block
    broken = dataclasses.replace(blk, R=((0,) * 27,) * 3)
    for m in matrices_N(broken):
        assert all(m[i, j] == 0 for i in range(3) for j in range(3))


def test_block_json_serialization():
    blk = truncation_block(build_relation_set(5, 1).block)
    js = blk.to_json()
    assert js["M"][2][2][0] == "2/3"
    assert js["schema"] == "tautrel/matrices/1"
    assert len(js["N"]) == 3 and len(js["N"][0]) == 3


def test_templates_match_symbolically():
    from tautrel.symbolic import SYM_FIELD, symbolic_MN

    M, _ = symbolic_MN()
    T = reference_M_templates(SYM_FIELD.gen("d"), SYM_FIELD.gen("chi1"), SYM_FIELD)
    for i in range(3):
        for s in range(3):
            for t in range(3):
                assert M[i][s, t] == T[i][s, t]


def test_templates_at_a_point_match_the_symbolic_ones():
    # one code path for both: at every coprime point of d = 5..40 the
    # templates made from ints, one division per entry, are Rats equal to
    # the templates over QQ(d, chi1) evaluated there
    from tautrel.symbolic import SYM_FIELD

    T = reference_M_templates(SYM_FIELD.gen("d"), SYM_FIELD.gen("chi1"), SYM_FIELD)
    for d in range(5, 41):
        for chi in range(1, d):
            if math.gcd(d, chi) != 1:
                continue
            at = {"d": d, "chi1": chi}
            got = reference_M_templates(d, chi)
            for i in range(3):
                for s in range(3):
                    for t in range(3):
                        x = got[i][s, t]
                        assert type(x) is type(Rat(0)), (d, chi, i, s, t)
                        assert x == T[i][s, t].eval(at), (d, chi, i, s, t)
