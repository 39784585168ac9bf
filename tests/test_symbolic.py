import math

from tautrel.relations import build_relation_set
from tautrel.symbolic import (
    symbolic_matrices_at,
    truncated_partition_parts,
)
from tautrel.truncation import matrices_M, matrices_N


def test_truncated_partitions_dplus1():
    parts = truncated_partition_parts(1)
    assert len(parts) == 7
    assert (("d", 1),) in parts
    assert (("d", 0), 1) in parts
    assert (("d", -1), 1, 1) in parts
    assert (("d", -1), 2) in parts
    assert (("d", -2), 2, 1) in parts
    assert (("d", -2), 3) in parts
    assert (("d", -2), 1, 1, 1) in parts


def test_truncated_partitions_dplus2():
    parts = truncated_partition_parts(2)
    assert len(parts) == 12
    assert (("d", 2),) in parts
    assert (("d", -2), 4) in parts
    assert (("d", -2), 1, 1, 1, 1) in parts


def test_symbolic_blocks_specialize_to_concrete():
    for (d, chi) in [(5, 1), (6, 5), (7, 2)]:
        rel = build_relation_set(d, chi)
        Mc, Nc = matrices_M(rel), matrices_N(rel)
        Me, Ne = symbolic_matrices_at(d, chi)
        for i in range(3):
            for s in range(3):
                for t in range(3):
                    assert Me[i][s, t] == Mc[i][s, t]
                    assert Ne[i][s, t] == Nc[i][s, t]


def test_symbolic_chi_slice_matches_symbolic_chi_mode():
    # the blocks symbolic in chi at concrete d, evaluated at each coprime
    # chi, equal the blocks of the relation set built at that chi
    d = 5
    Me, Ne = symbolic_matrices_at(d, None)
    for chi in (1, 2, 3, 4):
        if math.gcd(chi, d) != 1:
            continue
        rel = build_relation_set(d, chi)
        Mc, Nc = matrices_M(rel), matrices_N(rel)
        for i in range(3):
            for s in range(3):
                for t in range(3):
                    assert Me[i][s, t].eval({"chi1": chi}) == Mc[i][s, t]
                    assert Ne[i][s, t].eval({"chi1": chi}) == Nc[i][s, t]
