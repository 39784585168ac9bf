import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import constraint_oracle
import symbolic_oracle
from mpoly_oracle import mpoly
from tautrel import symbolic
from tautrel.linalg import ExactMatrix
from tautrel.obstruction import coprime_pairs, decide
from tautrel.rat import QQ, Rat
from tautrel.ratfunc import RatFunc
from tautrel.tautalg import TRACKED
from tautrel.relations import build_relation_set, tracked_block
from tautrel.symbolic import SYM_FIELD, symbolic_MN, symbolic_matrices_at
from tautrel.truncation import matrices_M, matrices_N


def test_printed_entries_evaluate_to_their_values():
    # each block entry's printed form, read with ^ as ** and its integers
    # as Rats, evaluates to .eval at a point: a one-term denominator that
    # is a product prints in parentheses, not as num/8*d^3
    Ms, Ns = symbolic_MN()
    entries = [x for m in Ms + Ns for row in m.data for x in row]
    assert any(len(mpoly(x.den).terms) == 1 and "*" in str(x.den) for x in entries)
    for d, chi in [(7, 2), (11, 4)]:
        at = {"d": Rat(d), "chi1": Rat(chi)}
        for x in entries:
            text = re.sub(r"\b(\d+)\b", r"Rat(\1)", str(x)).replace("^", "**")
            assert eval(text, {"Rat": Rat}, dict(at)) == x.eval(at), str(x)


def test_truncated_partitions_dplus1():
    parts = symbolic_oracle.truncated_partition_parts(1)
    assert len(parts) == 7
    assert (("d", 1),) in parts
    assert (("d", 0), 1) in parts
    assert (("d", -1), 1, 1) in parts
    assert (("d", -1), 2) in parts
    assert (("d", -2), 2, 1) in parts
    assert (("d", -2), 3) in parts
    assert (("d", -2), 1, 1, 1) in parts


def test_truncated_partitions_dplus2():
    parts = symbolic_oracle.truncated_partition_parts(2)
    assert len(parts) == 12
    assert (("d", 2),) in parts
    assert (("d", -2), 4) in parts
    assert (("d", -2), 1, 1, 1, 1) in parts


def test_symbolic_blocks_specialize_to_concrete():
    # the blocks decide reads, against those of the relation expansion
    points = [(d, chi) for d in (5, 6, 7, 13) for chi in range(1, d)
              if math.gcd(d, chi) == 1] + [(9, 1), (16, 3), (20, 3)]
    for (d, chi) in points:
        rel = build_relation_set(d, chi)
        blk = rel.block
        Mc, Nc = matrices_M(blk), matrices_N(blk)
        Me, Ne = symbolic_matrices_at(d, chi)
        for i in range(3):
            for s in range(3):
                for t in range(3):
                    assert Me[i][s, t] == Mc[i][s, t], (d, chi)
                    assert Ne[i][s, t] == Nc[i][s, t], (d, chi)
                    assert str(Me[i][s, t]) == str(Mc[i][s, t]), (d, chi)
                    assert str(Ne[i][s, t]) == str(Nc[i][s, t]), (d, chi)


def _entries(blocks) -> list:
    return [x for mats in blocks for m in mats for row in m.data for x in row]


def test_point_blocks_equal_symbolic_MN_at_the_point():
    # the integer elimination at the point against the symbolic
    # elimination evaluated there, the oracle
    M, N = symbolic_MN()
    for d in list(range(5, 17)) + [20, 30, 101]:
        for chi in range(1, d):
            if math.gcd(d, chi) != 1:
                continue
            at = {"d": d, "chi1": chi}
            want = tuple(tuple(ExactMatrix(QQ, [[x.eval(at) for x in row] for row in m.data])
                               for m in mats) for mats in (M, N))
            got = symbolic_matrices_at(d, chi)
            assert got == want, (d, chi)
            assert [str(x) for x in _entries(got)] == [str(x) for x in _entries(want)], (d, chi)


def test_decide_runs_no_symbolic_elimination(monkeypatch):
    # decide reads the point blocks: no symbolic_MN and no RatFunc
    built = []
    real_init, real_raw = RatFunc.__init__, RatFunc._raw.__func__

    def init(self, *args, **kwargs):
        built.append("__init__")
        real_init(self, *args, **kwargs)

    def raw(cls, *args, **kwargs):
        built.append("_raw")
        return real_raw(cls, *args, **kwargs)

    symbolic_MN.cache_clear()
    monkeypatch.setattr(RatFunc, "__init__", init)
    monkeypatch.setattr(RatFunc, "_raw", classmethod(raw))
    pairs = coprime_pairs(5)
    assert len(pairs) == 10
    for a, b in pairs:
        assert decide(5, a, b).agrees, (a, b)
    assert symbolic_MN.cache_info().currsize == 0
    assert built == []


def test_returned_blocks_are_fresh():
    # no reader can change a returned block, so none changes a later answer
    first = symbolic_matrices_at(7, 2)
    want = [str(x) for x in _entries(first)]
    for mats in first:
        for m in mats:
            with pytest.raises(TypeError):
                m.data[0][0] = m.field.coerce(99)
            with pytest.raises(TypeError):
                m.data[1] = m.data[2]
    assert [str(x) for x in _entries(symbolic_matrices_at(7, 2))] == want


def test_symbolic_blocks_refuse_points_outside_the_exactness_argument():
    # below d = 5 the truncation, and at a non-coprime or out-of-range
    # chi the pivot minor, no longer covers the point
    for (d, chi) in [(4, 1), (3, 1), (6, 2), (5, 7), (6, 3), (5, 0), (5, -1)]:
        with pytest.raises(ValueError):
            symbolic_matrices_at(d, chi)
    # chi left symbolic is no point either: the constraint evaluates closed
    # forms, and the blocks over Q(chi1) are an oracle's
    for d in (4, 5, 6):
        with pytest.raises(ValueError):
            symbolic_matrices_at(d, None)
    M, N = constraint_oracle.uni_blocks(6)
    assert M[0].field == N[0].field == constraint_oracle.UNI_FIELD


def test_symbolic_chi_slice_matches_symbolic_chi_mode():
    # the blocks symbolic in chi at concrete d, evaluated at each coprime
    # chi, equal the blocks of the relation set built at that chi
    d = 5
    Me, Ne = constraint_oracle.uni_blocks(d)
    for chi in (1, 2, 3, 4):
        if math.gcd(chi, d) != 1:
            continue
        rel = build_relation_set(d, chi)
        blk = rel.block
        Mc, Nc = matrices_M(blk), matrices_N(blk)
        for i in range(3):
            for s in range(3):
                for t in range(3):
                    assert Me[i][s, t].eval({"chi1": chi}) == Mc[i][s, t]
                    assert Ne[i][s, t].eval({"chi1": chi}) == Nc[i][s, t]


# -- the Laurent expansion against the RatFunc oracle ----------------------

D, CHI = SYM_FIELD.gen("d"), SYM_FIELD.gen("chi1")


def _as_ratfunc_by_field(lau: dict, den: int):
    """lau/den built with RatFunc arithmetic, the reference for the
    conversion."""
    acc = SYM_FIELD.zero
    for (a, b), c in lau.items():
        acc = acc + SYM_FIELD.coerce(c) * D**a * CHI**b
    return acc / den


def test_laurent_rows_match_ratfunc_oracle():
    # all 324 entries of the closed form, each turned into a RatFunc,
    # against the partition truncation over RatFuncs
    rows = symbolic._laurent_rows()
    assert len(rows) == 12 and all(len(row) == 27 for _, _, row in rows)
    for den, k, row in rows:
        # _laurent_rows' docstring: plain ints over a positive den, no
        # e_d below -k, and k is the least such
        assert den > 0 and k >= 0
        assert all(type(x) is int for terms in row for term in terms for x in term)
        assert k == max(0, -min((a for terms in row for a, _, _ in terms), default=0))
    assert symbolic_oracle.differences(rows) == []


def test_tracked_rows_at_equal_the_oracle_at_every_point():
    # the raw rows over their scales, the column and Rc signs and the
    # power of d folded in, against the partition truncation evaluated
    want = symbolic_oracle.laurent_matrix()
    for d in range(5, 13):
        for chi in range(1, d):
            if math.gcd(d, chi) != 1:
                continue
            rows, scales = symbolic.tracked_rows_at(d, chi)
            at = {"d": d, "chi1": chi}
            for row, scale, want_row in zip(rows, scales, want, strict=True):
                assert all(type(x) is int for x in row) and type(scale) is int
                assert [Rat(x, scale) for x in row] == [x.eval(at) for x in want_row], (d, chi)


def test_one_expansion_per_process(monkeypatch):
    # symbolic_MN and the point path read the one cached Laurent matrix
    made = []
    exponent = symbolic._exponent
    monkeypatch.setattr(symbolic, "_exponent", lambda n: made.append(n) or exponent(n))
    symbolic_MN.cache_clear()
    symbolic._laurent_matrix.cache_clear()
    symbolic_MN()
    tracked_block(9, 2)
    symbolic_matrices_at(9, 2)
    assert made == [1, 2, 3]


laurents = st.dictionaries(
    st.tuples(st.integers(-3, 2), st.integers(0, 2)), st.integers(-9, 9), max_size=4
)


@settings(max_examples=150, deadline=None)
@given(laurents, laurents, st.integers(1, 12), st.sampled_from([1, -1]))
@example({(-2, 1): 6, (0, 0): -4}, {(1, 0): 3, (-1, 2): -2}, 4, -1)
@example({(2, 0): 2, (1, 1): 4}, {(-3, 0): 1}, 6, 1)
def test_laurent_helpers_match_ratfunc(p, q, den, sign):
    rp, rq = _as_ratfunc_by_field(p, 1), _as_ratfunc_by_field(q, 1)
    conv = symbolic._laurent_ratfunc(dict(p), den * sign)
    assert conv == _as_ratfunc_by_field(p, den * sign)
    assert str(conv) == str(_as_ratfunc_by_field(p, den * sign))
    prod: dict = {}
    symbolic._laurent_mul_into(prod, p, q)
    assert symbolic._laurent_ratfunc(prod, den) == rp * rq / den
    total = dict(p)
    symbolic._laurent_add_into(total, q)
    assert symbolic._laurent_ratfunc(total, den) == (rp + rq) / den


def test_symbolic_cold_and_warm_agree():
    def entries():
        M, N = symbolic_MN()
        return [str(x) for mat in M + N for row in mat.data for x in row]

    warm = entries()
    # the blocks again from nothing: a cache that handed out an object its
    # reader changed would show here
    symbolic_MN.cache_clear()
    cold = entries()
    assert len(cold) == 54 and cold == warm


# -- exact specialization: the pivot minor -----------------------------------


def test_pivot_minor_has_no_zero_at_coprime_points():
    mat = symbolic._sym_matrix()
    assert (mat.rows, mat.cols) == (12, 27) and len(TRACKED) == 27
    # the input denominators are 2^a d^k
    for row in mat.data:
        for x in row:
            ((k, j), c), = mpoly(x.den).terms.items()
            assert j == 0 and c & (c - 1) == 0
    # symbolic_MN's pivot check (twelve pivots, the last three on columns
    # 9..11) puts the pivots on columns 0..11
    minor = ExactMatrix(SYM_FIELD, [row[:12] for row in mat.data]).det()
    factors = (D**4 * CHI**2 * (D - 1) ** 5 * (D - 2) ** 14
               * (D - CHI) ** 2 * (D - 2 * CHI) ** 2)
    assert minor / factors == SYM_FIELD.coerce(Rat(1, 4))
    for d in range(5, 21):
        for chi in range(1, d):
            if math.gcd(d, chi) == 1:
                assert minor.eval({"d": d, "chi1": chi}) != 0
