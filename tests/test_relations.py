import dataclasses
import json
import math
import random

from fractions import Fraction

import pytest

import symbolic_oracle
from linalg_oracle import det, rank, rref
from relations_oracle import (
    PartitionTuple,
    beta_one,
    beta_zero,
    block_of_rows,
    coeff_matrix,
    dual_involution,
    eliminate_dense,
    entries,
    enumerate_partitions,
    expand_relation,
    expand_relation_by_partitions,
    exp_series_one,
    expansion,
    oracle_relation_set,
    packed_series,
    rat_rows,
    sym2_basis,
    t2_basis,
    tk_basis,
    twelve_relations,
)
from tautalg_oracle import (
    BetaClass,
    GradedPoly,
    TautContext,
    as_poly,
    factors_by_classes,
    mono_key,
    project_block,
    reduced_relations,
    relation_factor,
)
from tautrel.rat import QQ, ZZ, Rat
from tautrel.relations import (
    SingularCheckpoint,
    build_relation_set,
    det1_formula,
    det2_formula,
    mon1,
    mon2,
    tracked_block,
    verify_rank12,
    _block,
    _exp_series,
    _factors,
    _generators,
    _numerators,
    _Packing,
)
from tautrel import symbolic
from tautrel.linalg import ExactMatrix
from tautrel.tautalg import DegreeMismatch, tracked_monos, twisted_symbol
from tautrel.truncation import matrices_M, matrices_N


def partition_count(ell: int) -> int:
    return len(enumerate_partitions(ell))


def truncation_filter(d: int, ell: int):
    """Parts filter keeping partitions that can reach monomials with one
    generator of degree >= d-2 and small rest: a largest part >= d-2
    with the remaining parts summing to at most ell - (d-2)."""

    def keep(pt: PartitionTuple) -> bool:
        parts = pt.parts()
        return bool(parts) and parts[0] >= d - 2 and sum(parts[1:]) <= ell - (d - 2)

    return keep


def exp_series_oracle(n, d, chi, ctx, upto):
    """E_0..E_upto by m*E_m = sum_k k!*F_k*E_{m-k} over the field itself:
    the recurrence as it ran before the integer-scaled one."""
    E = [beta_one(ctx)]
    kfact_F = [None]
    for k in range(1, upto + 1):
        kfact_F.append(relation_factor(k, n, d, chi, ctx) * Rat(math.factorial(k)))
    for m in range(1, upto + 1):
        acc = beta_zero(ctx)
        for k in range(1, m + 1):
            acc = acc + kfact_F[k] * E[m - k]
        E.append(acc * Rat(1, m))
    return E


def assert_same_expansion(n, d, chi, ctx):
    oracle = exp_series_oracle(n, d, chi, ctx, d + 2)
    for ell in (d + 1, d + 2):
        fast, slow = expand_relation(ell, n, d, chi, ctx), oracle[ell]
        for a, b in ((fast.b0, slow.b0), (fast.b1, slow.b1), (fast.b2, slow.b2)):
            assert a == b
            assert str(a) == str(b)


@pytest.mark.parametrize("d", range(5, 11))
def test_scaled_recurrence_matches_field_oracle(d):
    chi = random.Random(d).choice([c for c in range(1, d) if math.gcd(c, d) == 1])
    for n in (1, 2, 3):
        assert_same_expansion(n, d, Rat(chi), TautContext(QQ, d))


@pytest.mark.parametrize("d", range(5, 11))
def test_build_top_step_b2_matches_field_oracle(d):
    # build_relation_set's recurrence computes only the beta^2 component
    # of G_{d+2}; divided by (d+2)! D^(d+2) it is the oracle's E_{d+2}.b2
    chi = Rat(random.Random(d).choice([c for c in range(1, d) if math.gcd(c, d) == 1]))
    ctx = TautContext(QQ, d)
    for n in (1, 2, 3):
        G, D, packing = packed_series(n, d, chi, d + 2)
        assert G[d + 2].b0 is G[d + 2].b1 is G[d + 1].b0 is None
        b2 = as_poly(G[d + 2].b2, math.factorial(d + 2) * D ** (d + 2), packing, d, ctx)
        slow = exp_series_oracle(n, d, chi, ctx, d + 2)[d + 2].b2
        assert b2 == slow
        assert str(b2) == str(slow)


def test_integer_ring_refuses_non_integral_values():
    assert ZZ.coerce(Rat(6, 3)) == 2 and type(ZZ.coerce(Rat(6, 3))) is int
    with pytest.raises(ValueError):
        ZZ.coerce(Rat(1, 2))


def test_integer_scalars_stay_ints():
    # an int scalar must not come back as a Rat through domain.coerce
    ctx = TautContext(ZZ, 5)
    p = GradedPoly.term(ctx, 3, [(2, 0)]) + GradedPoly.term(ctx, -2, [(0, 2)])
    x = BetaClass(p, p * p, p) * 7
    for part in (x.b0, x.b1, x.b2):
        assert part.terms and all(type(c) is int for c in part.terms.values())


def test_enumerate_partitions_small():
    parts = {p.parts() for p in enumerate_partitions(3)}
    assert parts == {(3,), (2, 1), (1, 1, 1)}
    for p in enumerate_partitions(6):
        assert p.ell == 6


def test_partition_count_oracle():
    # independent brute-force counter
    def brute(n, largest):
        if n == 0:
            return 1
        return sum(brute(n - p, p) for p in range(min(largest, n), 0, -1))

    assert partition_count(7) == brute(7, 7) == 15


def test_partition_coefficient():
    pt = PartitionTuple((0, 0, 0, 0, 0, 1))  # single part of size 6
    assert pt.coefficient() == Rat(math.factorial(5))
    pt = PartitionTuple((2, 2, 0, 0, 0, 0))  # 1+1+2+2
    assert pt.coefficient() == Rat(1, 2) * Rat(1, 2)


def test_truncation_filter_seven_partitions():
    d = 5
    kept = {
        p.parts() for p in enumerate_partitions(d + 1, truncation_filter(d, d + 1))
    }
    expected = {
        (6,),
        (5, 1),
        (4, 1, 1),
        (4, 2),
        (3, 2, 1),
        (3, 3),
        (3, 1, 1, 1),
    }
    assert kept == expected
    assert len(kept) == 7


def test_relation_factor_coefficients():
    # coefficient of c_s(1) in the beta^0 part carries the (-1)^(s+1) twist
    ctx = TautContext(QQ, 5)
    f = relation_factor(1, 1, 5, 1, ctx)
    # s=1: c_1(1) resolves to zero, so only the c_0(2) term survives
    assert list(f.b0.terms) == [((0, 2),)]
    # beta^1 part at s=1 is the constant (n-2)d + chi = -4
    assert f.b1 == GradedPoly.const(ctx, -4)
    assert f.b2.is_zero()
    # the c_{s-1}(2) coefficient of B_s at (n,d,chi)=(1,5,1) is 39/200;
    # in B_1 it multiplies ct_0(2) = -c_0(2)
    f2 = relation_factor(2, 1, 5, 1, ctx)
    assert f2.b1.coeff(((0, 2),)) == -Rat(39, 200)


def test_factor_reassembles_top_coefficient():
    # the beta^0 part plus the next factor's beta^1 part reassembles the
    # full top combination: its c_2(1)-coefficient at (n,d,chi)=(1,5,1)
    # is -(3 - n - chi/d) = -9/5 in the sign-twisted convention
    ctx = TautContext(QQ, 5)
    a2 = relation_factor(2, 1, 5, 1, ctx).b0 + relation_factor(3, 1, 5, 1, ctx).b1
    assert a2.coeff(((2, 1),)) == -Rat(9, 5)


def test_single_generator_term_comes_from_one_partition():
    # the lone degree-ell generator in the beta^1 component can only
    # arise from the single-part partition, with coefficient (ell-1)!
    d, ell = 5, 6
    ctx = TautContext(QQ, d)
    x = expand_relation(ell, 1, d, 1, ctx)
    sign = Rat(-1) ** (ell + 1)
    assert x.b1.coeff(((ell, 0),)) == sign * Rat(math.factorial(ell - 1))


@pytest.mark.parametrize("d,ell", [(5, 6), (5, 7), (6, 7), (6, 8)])
def test_expand_relation_matches_partition_sum_oracle(d, ell):
    ctx = TautContext(QQ, d)
    for n in (1, 2, 3):
        fast = expand_relation(ell, n, d, 1, ctx)
        naive = expand_relation_by_partitions(ell, n, d, 1, ctx)
        assert fast == naive


def test_beta2_component_degree():
    d = 5
    ctx = TautContext(QQ, d)
    x = expand_relation(d + 1, 1, d, 1, ctx)
    assert x.b2.degree() == d - 1
    assert x.b1.degree() == d
    assert x.b0.degree() == d + 1


def test_det_checkpoints_examples():
    rel = build_relation_set(5, 1)
    assert rel.block.det1 == -972
    assert rel.block.det2 == 116640000
    assert build_relation_set(5, 2).block.det1 == -486
    assert det2_formula(5) == 116640000


def test_relations_echelon_structure():
    d = 5
    rel = build_relation_set(d, 1)
    relations = reduced_relations(rel)
    leads = [R.leading_term() for R in relations]
    assert leads[0] == (((d - 1, 0), (3, 0)), Rat(1))
    assert leads[1] == (((d - 1, 0), (2, 1)), Rat(1))
    assert leads[2] == (((d - 1, 0), (1, 2)), Rat(1))
    assert rel.block.leading_monos() == [m for m, _ in leads]
    for R in relations:
        assert R.degree() == d
        # eliminated monomials are gone
        for m in mon1(d) + mon2(d)[:3]:
            assert R.coeff(m) == 0


def test_build_relation_set_validation():
    with pytest.raises(ValueError):
        build_relation_set(4, 1)
    with pytest.raises(ValueError):
        build_relation_set(6, 2)
    with pytest.raises(ValueError):
        build_relation_set(5, 7)
    # a non-integer chi is refused, not truncated to int(chi)
    for chi in (1.5, Fraction(7, 2)):
        with pytest.raises(TypeError):
            build_relation_set(5, chi)
    assert build_relation_set(5, 1).chi == 1 and build_relation_set(5, 1).block.det1 == -972


def test_verify_rank12():
    ok, trace = verify_rank12(build_relation_set(5, 1).block)
    assert ok
    assert trace["rank"] == 12
    assert trace["mon1_minor_det"] == Rat(-972) ** 2 == Rat(944784)
    assert trace["mon2_minor_det"] != 0


def test_verify_rank12_requires_the_mon2_minor_to_be_det2(monkeypatch, capsys):
    # a block's Mon2 minor and its det2 are one computation, so a
    # changed numerator of Rb^1 at a Mon2 column changes det2 itself: the
    # rank stays 12 and verify_rank12 passes, but verify's check of det2
    # against det2_formula fails on that block
    from tautrel import cli

    rel = build_relation_set(5, 1)
    packing, rows, _ = expansion(5, 1)
    key = packing.pack(mon2(5)[0])
    row = dict(rows[6])
    row[key] = row.get(key, 0) + 1
    broken = block_of_rows(5, 1, rows[:6] + (row,) + rows[7:])
    ok, trace = verify_rank12(broken)
    assert ok and trace["rank"] == 12 and trace["mon1_minor_det"] == rel.block.det1 ** 2
    assert trace["mon2_minor_det"] == broken.det2 not in (0, rel.block.det2)
    assert broken.det2 != det2_formula(5)
    monkeypatch.setattr(cli, "tracked_block", lambda d, chi: broken)
    assert cli.main(["verify", "--d", "5", "--chi", "1", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert "det2_formula" in [c["name"] for c in checks if c["status"] == "fail"]
    assert verify_rank12(rel.block)[0]


def test_verify_rank12_zero_relations_guard():
    # c2(0) Ra^n and c0(2) Ra^n zeroed
    broken = block_of_rows(5, 1, ({},) * 6 + expansion(5, 1)[1][6:])
    ok, trace = verify_rank12(broken)
    assert not ok
    assert trace["rank"] < 12


def test_verify_rank12_runs_no_second_elimination(monkeypatch):
    # the rank is the number of the block's pivots: tracked_block makes its
    # block by one int_gauss_jordan and takes no minor (det1 and det2 are
    # made on their first read), the build keeps the block it made
    # (test_build_makes_its_block_once), and verify_rank12 runs none, takes
    # no determinant over QQ (each is a cofactor one, by linalg.cross) and
    # no int_det larger than the 6x6 Mon1 minor
    from tautrel import constraint, cubicext, linalg, obstruction, relations

    rel = build_relation_set(7, 3)
    eliminations, dets, crosses = [], [], []
    int_gauss_jordan, int_det, cross = linalg.int_gauss_jordan, linalg.int_det, linalg.cross

    def counted(rows):
        eliminations.append(len(rows))
        return int_gauss_jordan(rows)

    def sized(rows):
        dets.append(len(rows))
        return int_det(rows)

    def counted_cross(u, v):
        crosses.append(len(u))
        return cross(u, v)

    def no_elimination(self, *args, **kwargs):
        raise AssertionError("verify_rank12 eliminated the 12xN matrix again")

    for module in (linalg, relations):
        monkeypatch.setattr(module, "int_gauss_jordan", counted)
    for module in (linalg, relations):
        monkeypatch.setattr(module, "int_det", sized)
    for module in (linalg, obstruction, constraint, cubicext):
        monkeypatch.setattr(module, "cross", counted_cross)
    monkeypatch.setattr(ExactMatrix, "gauss_jordan", no_elimination)
    blocks = [tracked_block(7, 3)]
    assert eliminations == [12] and dets == []
    blocks.append(build_relation_set(7, 3).block)
    assert blocks[1] is rel.block
    eliminations.clear()
    dets.clear()
    for blk in blocks:
        ok, trace = verify_rank12(blk)
        assert ok
        assert trace["rank"] == 12
    assert eliminations == [] and dets and max(dets) <= 6
    assert crosses == []


@pytest.mark.parametrize("d", range(5, 17))
def test_integer_checkpoints_match_the_fraction_ones(d):
    # det1, det2, the Mon1 minor, R1..R3 and the M blocks, each from
    # integers divided once, against the same values computed from the
    # block's rows as Rats: minors by linalg_oracle.det and R1..R3 by rref
    # over QQ (the pencil: test_point_pencil_matches_cubic_det)
    from tautrel.symbolic import M_COLS, read_blocks

    index = {m: j for j, m in enumerate(tracked_monos(d))}

    def minor(rows, monos):
        return det(ExactMatrix(QQ, [[row[index[m]] for m in monos] for row in rows]))

    for chi in range(1, d):
        if math.gcd(d, chi) != 1:
            continue
        blk = tracked_block(d, chi)
        rows = rat_rows(blk.rows, blk.scales)
        assert blk.det1 == minor(rows[0:6:2], mon1(d)[0::2]), (d, chi)
        assert blk.det2 == minor(rows[6:12], mon2(d)), (d, chi)
        assert verify_rank12(blk)[1]["mon1_minor_det"] == minor(rows[0:6], mon1(d)), (d, chi)
        R = rref(ExactMatrix(QQ, rows))[0].data[9:12]
        assert rat_rows(blk.R, blk.R_dens) == R, (d, chi)
        assert matrices_M(blk) == read_blocks(R, M_COLS, QQ), (d, chi)


def test_point_pencil_matches_cubic_det():
    # the pencil verify and every side at a point read, cubic_det of the
    # integer numerators divided once, against cubic_det of the Rat
    # blocks, values and key order, at every coprime point of d = 5..40
    from tautrel.obstruction import cubic_det, pencil

    points = 0
    for d in range(5, 41):
        for chi in range(1, d):
            if math.gcd(d, chi) != 1:
                continue
            blk = tracked_block(d, chi)
            got, want = pencil(blk), cubic_det(matrices_M(blk))
            assert list(got.items()) == list(want.items()), (d, chi)
            points += 1
    assert points == 484


def test_build_makes_its_block_once(monkeypatch):
    # one build takes det1 (3x3) and det2 (6x6) once each, for its
    # refusal of a singular point, eliminates its block once (12x27) and
    # eliminates the block's columns 0..11 beside the 12x12 identity once
    # (12x24) for R1..R3; its block is _block of the expansion's
    # numerators at the 27 tracked monomials
    from tautrel import linalg, relations

    monkeypatch.setattr(relations, "_REL_CACHE", {})
    shapes, dets = [], []
    int_gauss_jordan, int_det = linalg.int_gauss_jordan, linalg.int_det

    def counted(rows):
        shapes.append((len(rows), len(rows[0])))
        return int_gauss_jordan(rows)

    def counted_dets(rows):
        dets.append(len(rows))
        return int_det(rows)

    def no_elimination(self, *args, **kwargs):
        raise AssertionError("the build eliminated over the field")

    for module in (linalg, relations):
        monkeypatch.setattr(module, "int_gauss_jordan", counted)
    monkeypatch.setattr(relations, "int_det", counted_dets)
    monkeypatch.setattr(ExactMatrix, "gauss_jordan", no_elimination)
    rel = build_relation_set(7, 3)
    assert sorted(dets) == [3, 6]
    assert rel.to_json()["det1"] == str(rel.block.det1) and sorted(dets) == [3, 6]
    assert sorted(shapes) == [(12, 24), (12, 27)]
    packing, rows, dens = expansion(7, 3)
    assert rel.block == _block(7, 3, _numerators(packing, rows, tracked_monos(7)), dens)


@pytest.mark.parametrize("zeroed, broken", [(range(6), "det1"), ((10,), "rank")],
                         ids=["Ra", "Rc2"])
def test_build_refuses_a_singular_checkpoint(monkeypatch, zeroed, broken):
    # the expansion's rows with Ra^n zeroed (det1 = 0), or Rc^2 zeroed
    # (rank 11): the build raises and caches nothing
    from tautrel import relations

    packing, rows, dens = expansion(5, 2)
    rows = tuple({} if i in zeroed else row for i, row in enumerate(rows))
    blk = block_of_rows(5, 2, rows)
    assert blk.det1 == 0 if broken == "det1" else len(blk.pivots) == 11
    monkeypatch.setattr(relations, "_REL_CACHE", {})
    monkeypatch.setattr(relations, "_expansion", lambda d, chi: (packing, rows, dens))
    with pytest.raises(SingularCheckpoint):
        build_relation_set(5, 2)
    assert relations._REL_CACHE == {}


def test_verify_rank12_zeroed_relation_falls_back_to_rank():
    rel = build_relation_set(5, 2)
    rows = expansion(5, 2)[1]
    for n in (1, 2, 3):
        # Rc^n zeroed
        broken = block_of_rows(5, 2, rows[:8 + n] + ({},) + rows[9 + n:])
        ok, trace = verify_rank12(broken)
        assert not ok
        assert trace["rank"] == 11
    assert verify_rank12(rel.block)[0]


def test_rank12_full_matrix_rank():
    rel = build_relation_set(5, 1)
    rows = twelve_relations(rel)
    monos = sorted({m for p in rows for m in p.terms}, key=mono_key, reverse=True)
    assert rank(coeff_matrix(rows, monos)) == 12


@pytest.mark.parametrize("d, chi", [(5, 1), (9, 8), (13, 2), (16, 3)])
def test_packed_rows_build_matches_reference_build(d, chi):
    # the build on packed integer rows against the reference build over
    # tuple monomials and Rats (relations_oracle.oracle_relation_set)
    rel = build_relation_set(d, chi)
    ref = oracle_relation_set(d, chi)
    assert twelve_relations(rel) == ref.rows
    for got, want in zip(reduced_relations(rel), (ref.R1, ref.R2, ref.R3)):
        assert list(got.terms.items()) == list(want.terms.items())
        assert str(got) == str(want)
    assert (rel.block.det1, rel.block.det2) == (ref.det1, ref.det2)
    assert rel.block.pivots == tuple(range(12))
    assert tuple(tracked_monos(d)[:12]) == ref.pivot_monos


@pytest.mark.parametrize("d, chi", [(5, 1), (9, 2), (11, 4), (13, 5)])
def test_build_matches_field_rref(d, chi):
    # the fraction-free build against linalg_oracle.rref over Fraction
    rel = build_relation_set(d, chi)
    rows = twelve_relations(rel)
    monos = sorted({m for p in rows for m in p.terms}, key=mono_key, reverse=True)
    R, pivots = rref(coeff_matrix(rows, monos))
    assert tracked_monos(d)[:12] == [monos[p] for p in pivots]
    for i, got in zip(range(9, 12), reduced_relations(rel)):
        want = GradedPoly(got.ctx, {m: c for m, c in zip(monos, R.data[i]) if c})
        assert str(got) == str(want)


def test_cold_build_runs_no_field_elimination(monkeypatch):
    # over QQ the build and the block it reads (whose pivots give
    # verify_rank12 its rank) eliminate fraction-free;
    # ExactMatrix.gauss_jordan is not called
    from tautrel import relations

    monkeypatch.setattr(relations, "_REL_CACHE", {})

    def no_elimination(self, *args, **kwargs):
        raise AssertionError("the 12xN matrix was eliminated over the field")

    monkeypatch.setattr(ExactMatrix, "gauss_jordan", no_elimination)
    rel = build_relation_set(7, 3)
    assert rel.block.pivots == tuple(range(12))
    assert verify_rank12(rel.block)[0]
    rows = expansion(7, 3)[1]
    broken = block_of_rows(7, 3, rows[:10] + ({},) + rows[11:])  # Rc^2 zeroed
    ok, trace = verify_rank12(broken)
    assert not ok and trace["rank"] == 11


def test_duality_covariance_of_relation_span():
    for (d, chi) in [(5, 1), (5, 2), (7, 2), (8, 3)]:
        rel = build_relation_set(d, chi)
        rel2 = build_relation_set(d, d - chi)
        rows = [dual_involution(R) for R in reduced_relations(rel)] + reduced_relations(rel2)
        monos = sorted({m for p in rows for m in p.terms}, key=mono_key, reverse=True)
        assert rank(coeff_matrix(rows, monos)) == 3


def test_det1_formula_range():
    for d in range(5, 9):
        for chi in range(1, d):
            if math.gcd(d, chi) != 1:
                continue
            rel = build_relation_set(d, chi)
            assert rel.block.det1 == det1_formula(d, chi)
            assert rel.block.det2 == det2_formula(d)


@pytest.mark.parametrize("d, chi", [(5, 1), (9, 2), (11, 4), (13, 5)])
def test_twelve_entries_match_the_products(d, chi):
    # the entries verify_rank12 reads from the packed rows against the
    # rows unpacked into tuple monomials
    rel = build_relation_set(d, chi)
    rows = twelve_relations(rel)
    every = sorted({m for p in rows for m in p.terms}, key=mono_key, reverse=True)
    for monos in (tracked_monos(d), mon1(d), mon2(d), every):
        got = entries(*expansion(d, chi), monos)
        assert got == [[p.coeff(m) for m in monos] for p in rows]
    assert (rat_rows(rel.block.rows, rel.block.scales)
            == entries(*expansion(d, chi), tracked_monos(d)))


def test_verify_rank12_forms_no_products(monkeypatch):
    from tautrel import relations

    def no_rows(*args):
        raise AssertionError("the twelve relations were formed")

    rel = build_relation_set(9, 2)
    monkeypatch.setattr(relations, "_expansion", no_rows)
    ok, trace = verify_rank12(rel.block)
    assert ok and trace["rank"] == 12 and trace["mon1_minor_det"] == rel.block.det1 ** 2


def test_build_checks_relation_degree(monkeypatch):
    # every monomial the build unpacks, of the twelve pivots and of R1..R3,
    # is checked to have degree d, which lets the block projections compare
    # their bases with d alone
    from tautrel import relations

    rel = build_relation_set(5, 1)
    assert {R.degree() for R in reduced_relations(rel)} == {5}
    packing, rows, dens = expansion(5, 1)
    c2 = packing.pack(((2, 0),))
    # every row homogeneous of degree d + 1, or every other row: the
    # twelve largest monomials, the pivots, have degree 6
    altered = [[{m + c2: c for m, c in row.items()} if i % k == 0 else row
                for i, row in enumerate(rows)] for k in (1, 2)]
    # c2(0) itself in every row, below the pivots: R1..R3 hold degree 1
    altered.append([{**row, c2: i + 1} for i, row in enumerate(rows)])
    for new, degree in zip(altered, (6, 6, 1)):
        monkeypatch.setattr(relations, "_REL_CACHE", {})
        monkeypatch.setattr(relations, "_expansion", lambda d, chi: (packing, new, dens))
        with pytest.raises(DegreeMismatch, match=f"degree {degree} != 5"):
            build_relation_set(5, 1)


# -- the factor table and the packed R1..R3 against the graded-algebra oracle --


def test_twisted_symbol_resolves_the_degenerate_symbols():
    assert twisted_symbol(0, 1) == ()  # the scalar ct_0(1) = -d
    for k, j in [(1, 0), (1, 1), (0, 0), (-1, 2), (-2, 1)]:
        assert twisted_symbol(k, j) is None
    assert twisted_symbol(0, 2) == (0, 2) and twisted_symbol(2, 0) == (2, 0)


@pytest.mark.parametrize("d", range(5, 21))
def test_table_factors_match_the_graded_algebra_factors(d):
    # relations._factors evaluates tautalg.factor_table at (d, chi) and
    # signs it into the c_k(j) basis; relation_factor builds the same
    # factor through GradedPoly and BetaClass
    chis = [c for c in range(1, d) if math.gcd(c, d) == 1][:3]
    for chi in chis:
        for n in (1, 2, 3):
            got = _factors(n, d, chi, d + 2)
            want = factors_by_classes(n, d, chi, d + 2)
            assert got == [tuple(part) for part in want]


BLOCK_POINTS = [(5, 1), (9, 8), (13, 2), (16, 3)]


@pytest.mark.parametrize("d, chi", BLOCK_POINTS)
def test_point_read_blocks_match_projection_of_reference_relations(d, chi):
    rel = build_relation_set(d, chi)
    ref = oracle_relation_set(d, chi)
    blk = rel.block
    M, N = matrices_M(blk), matrices_N(blk)
    for i, R in enumerate((ref.R1, ref.R2, ref.R3)):
        assert M[i] == project_block(R, tk_basis(d - 2), t2_basis())
        assert N[i] == project_block(R, tk_basis(d - 2), sym2_basis())


@pytest.mark.parametrize("d, chi", BLOCK_POINTS)
def test_packed_relations_render_as_reference_relations(d, chi):
    rel = build_relation_set(d, chi)
    ref = oracle_relation_set(d, chi)
    js = rel.to_json()
    refs = (ref.R1, ref.R2, ref.R3)
    assert [js["R1"], js["R2"], js["R3"]] == [str(R) for R in refs]
    assert rel.block.leading_monos() == [R.leading_term()[0] for R in refs]


# -- the one-pass expansion and the leading-column elimination against the
# -- algorithms they replaced (relations_oracle.exp_series_one, eliminate_dense)


def dense_echelon(rows) -> tuple:
    """(pivots, echelon rows) of eliminate_dense: the pivots as packed
    monomials, each echelon row {packed monomial: int}, primitive and
    positive at its pivot, with descending keys."""
    found, columns = eliminate_dense(rows)
    return ([columns[col] for col, _ in found],
            [{columns[j]: x for j, x in enumerate(row) if x} for _, row in found])


@pytest.mark.parametrize("d, chi", [(5, 1), (9, 8), (13, 2), (16, 3), (20, 3)])
def test_eliminate_matches_dense_oracle(d, chi):
    # the build's R1..R3, combinations of the rows found by eliminating
    # the block's columns 0..11, against the elimination of every column
    rel = build_relation_set(d, chi)
    pivots, echelon = dense_echelon(expansion(d, chi)[1])
    assert [rel.packing.unpack(m, d) for m in pivots] == tracked_monos(d)[:12]
    assert rel.block.pivots == tuple(range(12))
    # the same rows with the same keys in the same (descending) order
    assert [list(row.items()) for row in rel.R_rows] == [list(row.items()) for row in echelon[9:12]]
    assert rel.R_pivots == tuple(row[m] for row, m in zip(echelon[9:12], pivots[9:12]))


@pytest.mark.parametrize("d", range(5, 14))
def test_one_pass_series_matches_one_n_oracle(d):
    # every component the pass computes, read at each n, is the one-n
    # recurrence's; a monomial is kept only where some n's coefficient is
    # nonzero
    chi = random.Random(d).choice([c for c in range(1, d) if math.gcd(c, d) == 1])
    Fs = [_factors(n, d, chi, d + 2) for n in (1, 2, 3)]
    packing = _Packing(_generators(Fs[0]), d + 2)
    G, Ds = _exp_series(Fs, packing)
    ones = [exp_series_one(F, packing) for F in Fs]
    assert Ds == [D for _, D in ones]
    for m in range(d + 3):
        for i in range(3):
            part = G[m][i]
            if m == d + 2:
                want = [one[m] if i == 2 else None for one, _ in ones]
            elif m == d + 1 and i == 0:
                want = [None] * 3
            else:
                want = [one[m][i] for one, _ in ones]
            if part is None:
                assert want == [None] * 3, (m, i)
                continue
            for n in range(3):
                assert {k: t[n] for k, t in part.items() if t[n]} == want[n], (m, i, n)
            assert set(part) == set().union(*want)


def test_cached_relation_set_is_immutable(monkeypatch):
    from tautrel import relations

    monkeypatch.setattr(relations, "_REL_CACHE", {})
    rel = build_relation_set(7, 2)
    want = (rel.to_json(), verify_rank12(rel.block), matrices_M(rel.block))
    rows = rel.R_rows
    key = next(iter(rows[0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rel.block = tracked_block(7, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rel.block.det1 = Rat(0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rel.R_rows = ({}, {}, {})
    with pytest.raises(TypeError):
        rel.block.rows[0][0] = 0
    # a read-only mapping refuses item assignment and deletion: by
    # TypeError, or IndexError for an int key too large for an index
    with pytest.raises((TypeError, IndexError)):
        rows[0][key] = 0
    with pytest.raises(TypeError):
        rows[0][1] = 0
    with pytest.raises((TypeError, IndexError)):
        del rows[-1][next(iter(rows[-1]))]
    with pytest.raises(TypeError):
        rows[0] = {}
    assert not hasattr(rows[0], "pop") and not hasattr(rows[0], "update")
    again = build_relation_set(7, 2)
    assert again is rel
    assert (again.to_json(), verify_rank12(again.block), matrices_M(again.block)) == want
    monkeypatch.setattr(relations, "_REL_CACHE", {})
    fresh = build_relation_set(7, 2)
    assert fresh is not rel
    assert (fresh.to_json(), verify_rank12(fresh.block), matrices_M(fresh.block)) == want


# -- the closed form of exp(L) at the 27 tracked columns against the recurrence --


def coprime_points(dmin: int, dmax: int) -> list:
    return [(d, chi) for d in range(dmin, dmax + 1) for chi in range(1, d)
            if math.gcd(d, chi) == 1]


def block_differences(d: int, chi: int) -> list:
    """What of tracked_block(d, chi) differs, by ==, from the block the
    build at (d, chi) made of its rows: each of the twelve rows at the 27
    columns, det1 and det2, and the leading monomials (the largest key of
    each of the build's packed R_i); and what of either block differs
    from the build's own packed R1..R3 (the combinations of its rows) at
    the 27 columns, or has pivots other than columns 0..11."""
    rel = build_relation_set(d, chi)
    blk, own = tracked_block(d, chi), rel.block
    rows = [rat_rows(b.rows, b.scales) for b in (blk, own)]
    out = [f"row {i}" for i, (got, want) in enumerate(zip(*rows)) if got != want]
    out += [name for name in ("det1", "det2") if getattr(blk, name) != getattr(own, name)]
    out += [name for name, b in (("pivots", blk), ("build pivots", own))
            if b.pivots != tuple(range(12))]
    R = entries(rel.packing, rel.R_rows, rel.R_pivots, tracked_monos(d))
    for name, b in (("R", blk), ("build R", own)):
        out += [f"{name}{i + 1}" for i, (got, want) in enumerate(zip(rat_rows(b.R, b.R_dens), R))
                if got != want]
    if blk.leading_monos() != [rel.packing.unpack(max(row), d) for row in rel.R_rows]:
        out.append("leading monomials")
    return out


@pytest.mark.parametrize("d", range(5, 17))
def test_tracked_block_matches_the_recurrence(d):
    # every coprime chi at d
    for chi in range(1, d):
        if math.gcd(d, chi) == 1:
            assert block_differences(d, chi) == [], (d, chi)


def _no_factorials(real):
    # the coefficient times prod_g e_g!, as if 1/e_g! were dropped
    def mutant(scalar, form, large, small):
        den, series = real(scalar, form, large, small)
        f = math.prod(math.factorial(small.count(g)) for g in set(small))
        return den, tuple({e: f * x for e, x in p.items()} for p in series)
    return mutant


def _no_square_term(real):
    return lambda den, lam: (den, ({(0, 0): den}, lam[1], lam[2]))


def _n2_reads_the_ell_of_n1(real):
    def mutant(n):
        den, lam, ell, ell_large = real(n)
        if n == 2:
            den1, _, ell, ell_large = real(1)
            assert den1 == den
        return den, lam, ell, ell_large
    return mutant


def _every_n_reads_n3(real):
    return lambda n: real(3)


def _mutants():
    """name -> (attribute of symbolic, its mutant made from the original)."""
    return {
        "no 1/e_g!": ("_coefficient", _no_factorials),
        "no lam_1^2/2": ("_exp_lambda", _no_square_term),
        "n = 2 reads the ell of n = 1": ("_exponent", _n2_reads_the_ell_of_n1),
        "every n reads n = 3": ("_exponent", _every_n_reads_n3),
    }


@pytest.mark.parametrize("name", sorted(_mutants()))
def test_tracked_block_mutants_fail_the_differential_test(monkeypatch, uncached_laurent_matrix,
                                                          name):
    # each mutant of the one closed form fails against the recurrence and
    # against the partition oracle
    attr, mutant = _mutants()[name]
    monkeypatch.setattr(symbolic, attr, mutant(getattr(symbolic, attr)))
    for d, chi in ((7, 3), (9, 2)):
        diff = block_differences(d, chi)
        assert diff, (name, d, chi)
        if name == "every n reads n = 3":
            # a late-bound per-n closure: only n = 3's rows 4, 5, 8 and 11
            # match, so the test must compare all twelve
            rows = {f"row {i}" for i in range(12)} - {"row 4", "row 5", "row 8", "row 11"}
            assert rows <= set(diff)
    assert symbolic_oracle.differences(symbolic._laurent_rows()), name


def test_verify_rank12_takes_the_rank_of_a_broken_block(rc2_zeroed):
    # the block's det2 is the Mon2 minor of its own rows, so with Rc^2
    # zeroed both read 0 and agree, and only the rank can fail: it must
    # be the rank of the block's rows, not 12
    blk = tracked_block(7, 3)
    assert [i for i, row in enumerate(blk.rows) if not any(row)] == [10]
    ok, trace = verify_rank12(blk)
    assert trace["mon2_minor_det"] == trace["det2"] == 0
    assert trace["mon1_minor_det"] == trace["det1_squared"] != 0
    assert not ok and trace["rank"] == 11


@pytest.mark.parametrize("d", range(5, 13))
def test_the_twelve_largest_columns_are_the_pivots(d):
    # the pivot argument of the relations docstring: the twelve largest
    # degree-d monomials of the build are its echelon pivots, and they are
    # the layout pivots, mon1 and mon2, the first twelve tracked columns
    for chi in range(1, d):
        if math.gcd(d, chi) != 1:
            continue
        packing, rows, _ = expansion(d, chi)
        top = sorted(set().union(*rows), reverse=True)[:12]
        assert [packing.unpack(m, d) for m in top] == tracked_monos(d)[:12]
        assert set(tracked_monos(d)[:12]) == set(mon1(d) + mon2(d))
        assert build_relation_set(d, chi).block.pivots == tuple(range(12))


def test_tracked_block_refuses_the_points_the_build_refuses():
    for d, chi in ((4, 1), (6, 2), (5, 7), (5, 0)):
        with pytest.raises(ValueError):
            tracked_block(d, chi)
    for chi in (1.5, Fraction(7, 2)):
        with pytest.raises(TypeError):
            tracked_block(5, chi)
