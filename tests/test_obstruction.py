import json
import math
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from tautrel import obstruction, relations
from tautrel.constraint import BI_FIELD
from tautrel.cubicext import factor_t3_minus_r
from tautrel.linalg import ExactMatrix
from tautrel.obstruction import (
    NoCandidate,
    NotCoprime,
    NotNodal,
    a33_coefficient_formula,
    analyze_node,
    congruent,
    coprime_pairs,
    cubic_det,
    decide,
    side,
    side_at,
    solve_AB,
    solve_S,
    solve_UV,
    _s_combination,
    _solve_uv_block,
)
from tautrel.rat import QQ, Rat
from tautrel.symbolic import symbolic_MN, symbolic_matrices_at
import ab_oracle
from constraint_oracle import GEN_FIELD, generic_sides, lifted, uni_blocks
from linalg_oracle import identity
from mpoly_oracle import MPoly
import pencil_oracle
from pencil_oracle import S_VARS, _coeff_equations_table, _partial, _pencil_rhs_poly
from uv_oracle import uv_oracle
from tautrel.relations import build_relation_set
from tautrel.truncation import matrices_M, matrices_N


def blocks(d, chi):
    blk = build_relation_set(d, chi).block
    return matrices_M(blk), matrices_N(blk)


def block_side(d, chi):
    """The side of the blocks of the relation set at (d, chi)."""
    return side(*blocks(d, chi))


def leibniz_cubic(Ms, field):
    """det(x1 M1 + x2 M2 + x3 M3) as a Leibniz sum over the permutations,
    for each choice of the block that gives each row."""
    oracle = {}
    for rows in product(range(3), repeat=3):
        term = field.zero
        for perm in permutations(range(3)):
            # permutation parity
            swaps = 0
            p = list(perm)
            for i in range(3):
                while p[i] != i:
                    j = p[i]
                    p[i], p[j] = p[j], p[i]
                    swaps += 1
            prod = field.coerce(Rat(-1) ** swaps)
            for r in range(3):
                prod = prod * Ms[rows[r]][r, perm[r]]
            term = term + prod
        key = (rows.count(0), rows.count(1), rows.count(2))
        oracle[key] = oracle.get(key, field.zero) + term
    return {k: v for k, v in oracle.items() if v}


def generic_blocks(d):
    """The chi and chi' blocks of the per-d constraint oracle: the Q(chi1)
    blocks at d over Q(chi1, chi2), the chi' side with chi1 renamed to
    chi2."""
    M, N = uni_blocks(d)
    return ((lifted(M, BI_FIELD, False), lifted(N, BI_FIELD, False)),
            (lifted(M, BI_FIELD, True), lifted(N, BI_FIELD, True)))


def test_cubic_det_two_algorithms_agree():
    # cubic_det shares nine cross products among the 27 determinants
    for d in range(5, 9):
        for chi in range(1, d):
            if math.gcd(d, chi) == 1:
                M, _ = blocks(d, chi)
                assert cubic_det(M) == leibniz_cubic(M, QQ)
    for (M, _) in generic_blocks(5):
        fast, oracle = cubic_det(M), leibniz_cubic(M, BI_FIELD)
        assert fast == oracle
        assert {k: str(v) for k, v in fast.items()} == {k: str(v) for k, v in oracle.items()}


def test_nodal_coefficient_examples():
    for (d, chi, want) in [(5, 1, Rat(-1, 25)), (7, 3, Rat(-3, 245))]:
        M, _ = blocks(d, chi)
        rep = analyze_node(cubic_det(M), QQ)
        assert rep["coefficient"] == want
        assert rep["coefficient"] == -Rat(chi * (d - chi) * (d - 2 * chi)) / Rat(
            4 * (d - 2) * d * d
        )


def test_not_nodal_guard():
    # the cubic x1^3 alone
    with pytest.raises(NotNodal):
        analyze_node({(3, 0, 0): Rat(1)}, QQ)


def test_coeff_equation_triples():
    M, _ = blocks(5, 1)
    Mp, _ = blocks(5, 2)
    C, Cp = cubic_det(M), cubic_det(Mp)
    eqs = _coeff_equations_table(C, Cp, QQ)
    # one equation per degree-3 exponent triple
    assert sorted(eqs) == sorted((u, v, 3 - u - v) for u in range(4) for v in range(4 - u))
    eq = eqs[(0, 2, 1)]
    reduced = eq.eval({"s31": 0, "s32": 0})
    exps = {
        tuple(sorted(v for v, p in zip(reduced.vars, e) for _ in range(p)))
        for e in reduced.terms
    }
    assert exps == {("s21", "s22", "s33")}


def nested_split_equations(C, Cp, field):
    """The ten coefficient equations as _coeff_equations_table found them
    before it grouped the terms in one pass: the pencil polynomial split
    by x1, then x2, then x3, each piece moved to the s variables."""
    poly = _pencil_rhs_poly(Cp, field)
    table = {}
    for u, pu in poly.as_univariate("x1").items():
        for v, pv in pu.as_univariate("x2").items():
            for w, pw in pv.as_univariate("x3").items():
                table[(u, v, w)] = pw
    out = {}
    for u in range(4):
        for v in range(4 - u):
            key = (u, v, 3 - u - v)
            rhs = table.get(key, MPoly.constant(0, S_VARS, field))
            out[key] = MPoly.constant(C.get(key, field.zero), S_VARS, field) - rhs.with_vars(S_VARS)
    return out


def test_coeff_equations_match_the_nested_split():
    cases = [(symbolic_matrices_at(5, a)[0], symbolic_matrices_at(5, b)[0], QQ)
             for a, b in coprime_pairs(5)]
    (M, _), (Mp, _) = generic_blocks(5)
    cases.append((M, Mp, BI_FIELD))
    for M, Mp, field in cases:
        C, Cp = cubic_det(M), cubic_det(Mp)
        got = _coeff_equations_table(C, Cp, field)
        want = nested_split_equations(C, Cp, field)
        assert list(got) == list(want)
        for key in want:
            assert got[key] == want[key] and str(got[key]) == str(want[key])


def test_pencil_rhs_matches_power_by_power_oracle():
    # the pencil polynomial built from shared powers y_j^0..y_j^3 equals
    # the one built with fresh powers per monomial
    vars = ("x1", "x2", "x3") + S_VARS
    y = []
    for j in range(3):
        terms = {}
        for i in range(3):
            e = [0] * len(vars)
            e[i] = e[3 + 3 * i + j] = 1
            terms[tuple(e)] = Rat(1)
        y.append(MPoly(vars, terms))
    for chi in (1, 2):
        Cp = cubic_det(blocks(5, chi)[0])
        want = MPoly.constant(0, vars)
        for (p, q, r), c in Cp.items():
            want = want + (y[0] ** p) * (y[1] ** q) * (y[2] ** r) * c
        got = _pencil_rhs_poly(Cp, QQ)
        assert got == want and str(got) == str(want)


def regrouped_eval(eq, zeros):
    """The substitution _cube_value and assert_type_split made before
    they called _partial: MPoly.eval, then each remaining monomial keyed
    by its sorted variables, one per unit of exponent."""
    reduced = eq.eval(zeros)
    return {
        tuple(sorted(v for v, p in zip(reduced.vars, e) for _ in range(p))): c
        for e, c in reduced.terms.items()
    }


ZERO_PATTERNS = [
    {"s31": 0, "s32": 0, "s11": 0, "s22": 0},  # Type I
    {"s31": 0, "s32": 0, "s12": 0, "s21": 0},  # Type II
]


def test_partial_matches_the_regrouped_eval():
    cases = [(symbolic_matrices_at(d, a)[0], symbolic_matrices_at(d, b)[0], QQ)
             for d in range(5, 8) for a, b in coprime_pairs(d)]
    (M, _), (Mp, _) = generic_blocks(5)
    cases.append((M, Mp, BI_FIELD))
    for M, Mp, field in cases:
        eqs = pencil_oracle._pencil(M, Mp, field)[2]
        for eq in eqs.values():
            for zeros in ZERO_PATTERNS:
                got, want = _partial(eq, zeros, field), regrouped_eval(eq, zeros)
                assert got == want
                assert {k: str(v) for k, v in got.items()} == {k: str(v) for k, v in want.items()}


def summed_combination(S, mats):
    """P_i = sum_j s_ij mats_j as _s_combination built it before it went
    entry by entry: a zero matrix plus the three scaled lifted blocks."""
    E = S.field
    lifted = [ExactMatrix(E, m.data) for m in mats]
    out = []
    for i in range(3):
        acc = ExactMatrix(E, [[E.zero] * 3 for _ in range(3)])
        for j in range(3):
            acc = acc + lifted[j].scale(S[i, j])
        out.append(acc)
    return out


def test_s_combination_matches_the_summed_blocks():
    count = 0
    for d in (5, 7):
        for a, b in coprime_pairs(d):
            side_p = side_at(d, b)
            Mp, Np = side_p.M, side_p.N
            for stype in ("I", "II"):
                for cand in solve_S(stype, side_at(d, a), side_p):
                    for mats, kept in ((Mp, cand.P), (Np, cand.Q)):
                        got = _s_combination(cand.S, mats)
                        want = summed_combination(cand.S, mats)
                        assert got == want == kept
                        assert [repr(P) for P in got] == [repr(P) for P in want]
                        assert [repr(P) for P in kept] == [repr(P) for P in want]
                    count += 1
    assert count == 81  # every candidate of both types at the 31 pairs


def test_solve_S_type_II_witness_values():
    s = block_side(5, 1)
    # chi = chi': rational candidate is the identity
    cands = solve_S("II", s, s)
    assert len(cands) == 2
    ident = cands[0]
    assert ident.r == 1
    E = ident.field
    assert ident.S == identity(E, 3)
    # chi + chi' = d: the sign matrix
    cands = solve_S("II", s, block_side(5, 4))
    sign = cands[0]
    assert sign.r == -1
    E = sign.field
    want = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    assert sign.S == __import__("tautrel.linalg", fromlist=["ExactMatrix"]).ExactMatrix(E, want)


def test_solve_S_irreducible_case():
    cands = solve_S("II", block_side(5, 1), block_side(5, 2))
    assert len(cands) == 1
    assert cands[0].r == 2
    assert cands[0].field.deg == 3


def test_solve_AB_type_II_witnesses():
    from tautrel.linalg import ExactMatrix

    s = block_side(5, 1)
    cands = solve_S("II", s, s)
    ab = solve_AB(cands[0])
    assert ab.status == "solution" and ab.kernel_dim == 1
    E = cands[0].field
    assert ab.A == identity(E, 3)
    assert ab.B == identity(E, 3)
    cands = solve_S("II", s, block_side(5, 4))
    ab = solve_AB(cands[0])
    E = cands[0].field
    want = ExactMatrix(E, [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert ab.A == want and ab.B == want


def test_solve_AB_type_I_contradiction():
    for cand in solve_S("I", block_side(5, 1), block_side(5, 2)):
        ab = solve_AB(cand)
        assert ab.status == "no_invertible" and ab.kernel_dim == 0
        want = a33_coefficient_formula(5, 1, 2) * Rat(2, 1)  # 2/(d-4) at d=5
        assert ab.certificate["forcing_coefficient"] == want


def _ab_outcome(ab):
    """What the tests compare of an (A, B) result."""
    return (ab.status, ab.kernel_dim, ab.A, ab.B,
            (ab.certificate or {}).get("forcing_coefficient"))


def test_solve_AB_matches_the_two_step_oracle():
    # the one elimination gives what the 18x9 kernel solve in B^-1 and the
    # separate a33 certificate gave, by ==, for every candidate at every
    # coprime pair of d = 5..12 and over Q(chi1, chi2) at d = 5 and 8
    cases = [(side_at(d, a), side_at(d, b)) for d in range(5, 13) for a, b in coprime_pairs(d)]
    cases += [tuple(side(*pair) for pair in generic_blocks(d)) for d in (5, 8)]
    statuses = []
    for s, s_p in cases:
        for stype in ("I", "II"):
            for cand in solve_S(stype, s, s_p):
                got, want = _ab_outcome(solve_AB(cand)), _ab_outcome(ab_oracle.solve_AB(cand))
                assert got == want
                statuses.append(got[0])
    assert len(cases) == 142
    assert (statuses.count("solution"), statuses.count("no_invertible")) == (206, 142)


def test_type_I_has_no_AB_over_the_function_field():
    # Type I over Q(d, chi1, chi2), from the blocks of symbolic_MN: one
    # candidate, a trivial (A, B) kernel, and the forcing coefficient
    # 2/(d-4) a33_coefficient_formula, identically in (d, chi1, chi2)
    cands = solve_S("I", *generic_sides(symbolic_MN(), GEN_FIELD))
    assert len(cands) == 1
    ab = solve_AB(cands[0])
    assert (ab.status, ab.kernel_dim) == ("no_invertible", 0)
    fc = ab.certificate["forcing_coefficient"]
    d, chi, chi_p = (GEN_FIELD.gen(v) for v in ("d", "chi1", "chi2"))
    formula = -2 * chi * (d - 4) * (d - chi) * (d - 2 * chi) / (
        d * ((d - 2) * d * d + 24 * d * chi_p - 24 * chi_p * chi_p))
    assert fc == GEN_FIELD.coerce(2) / (d - 4) * formula


def test_solve_UV_identity_and_inconsistent():
    from tautrel.linalg import ExactMatrix

    s = block_side(5, 1)
    cands = solve_S("II", s, s)
    ab = solve_AB(cands[0])
    uv = solve_UV(cands[0], ab.A)
    assert uv.status == "solvable"
    # U = 0, V = Id is among the solutions: verify directly
    At = ab.A.transpose()
    for i in range(3):
        assert (At * cands[0].N[i]) == cands[0].Q[i]
    # inconsistent case
    cand = solve_S("II", s, block_side(5, 2))[0]
    ab = solve_AB(cand)
    uv = solve_UV(cand, ab.A)
    assert uv.status == "inconsistent"
    assert uv.certificate is not None


def test_decide_examples():
    assert decide(5, 1, 6).verdict == "NoObstruction"  # 6 = 1 mod 5
    assert decide(5, 2, 3).verdict == "NoObstruction"  # 2 + 3 = 5
    assert decide(7, 1, 2).verdict == "ObstructionFound"
    assert decide(5, 1, 2).verdict == "ObstructionFound"
    v = decide(3, 1, 2)
    assert v.verdict == "NoObstruction" and v.note


def test_decide_not_coprime():
    with pytest.raises(NotCoprime):
        decide(6, 2, 1)


def test_decide_is_symmetric():
    for (d, a, b) in [(5, 1, 2), (5, 1, 4), (7, 2, 3)]:
        assert decide(d, a, b).verdict == decide(d, b, a).verdict


def test_congruence_predicate():
    assert congruent(5, 1, 6) and congruent(5, 1, 4) and not congruent(5, 1, 2)


def test_kernel_dims_recorded():
    v = decide(5, 1, 1)
    assert any(k.startswith("type_II") and dim == 1 for k, dim in v.kernel_dims.items())
    assert any(k.startswith("type_I") and dim == 0 for k, dim in v.kernel_dims.items())


@pytest.fixture
def cold_sides():
    """An empty side cache before and after the test, for tests that
    count how often a side is made."""
    side_at.cache_clear()
    yield
    side_at.cache_clear()


def test_decide_computes_the_pencil_once(monkeypatch, cold_sides):
    # each side's pencil cubic is made and node-checked once per process:
    # a cold decide makes one per distinct side, a warm one none, and
    # solve_S none
    calls = []

    def counted(cubic, field):
        calls.append(field)
        return analyze_node(cubic, field)

    monkeypatch.setattr(obstruction, "analyze_node", counted)
    for pair, cold in [((1, 2), 2), ((1, 1), 1), ((1, 4), 2)]:
        side_at.cache_clear()
        calls.clear()
        assert decide(5, *pair).agrees and len(calls) == cold
        calls.clear()
        assert decide(5, *pair).agrees and not calls
    calls.clear()
    s = block_side(5, 1)
    assert len(solve_S("II", s, s)) == 2 and len(calls) == 1


def test_decide_builds_each_candidate_system_once(monkeypatch, cold_sides):
    # solve_S lifts each chi-side block to the candidate's extension once
    # and forms P and Q once; solve_AB and solve_UV read them from the
    # candidate.  A cold cache per pair makes decide
    # evaluate each distinct side once: twice for (1, 2), once for (1, 1)
    sides, lifted, combined = [], [], []

    def recorded(d, chi):
        sides.append(symbolic_matrices_at(d, chi))
        return sides[-1]

    class Counted(ExactMatrix):
        __slots__ = ()

        def __init__(self, field, data):
            lifted.append(data)
            super().__init__(field, data)

    def counted(S, mats):
        combined.append(mats)
        return _s_combination(S, mats)

    monkeypatch.setattr(obstruction, "symbolic_matrices_at", recorded)
    monkeypatch.setattr(obstruction, "ExactMatrix", Counted)
    monkeypatch.setattr(obstruction, "_s_combination", counted)
    for pair in [(1, 2), (1, 1), (1, 4), (2, 3)]:
        side_at.cache_clear()
        sides.clear(), lifted.clear(), combined.clear()
        v = decide(5, *pair)
        n = len(v.kernel_dims)
        # both the a33 certificate (kernel 0) and a solution that reached
        # solve_UV (kernel 1)
        assert v.agrees and {0, 1} <= set(v.kernel_dims.values())
        if pair[0] == pair[1]:
            (M, N), = sides
            Mp, Np = M, N
        else:
            (M, N), (Mp, Np) = sides
            for m in Mp + Np:
                assert not any(data is m.data for data in lifted)
        for m in M + N:
            assert sum(data is m.data for data in lifted) == n
        assert len(combined) == 2 * n
        assert sum(mats is Mp for mats in combined) == sum(mats is Np for mats in combined) == n


def _side_snapshot(s):
    """Every value a side holds, as text."""
    return (repr(s.M), repr(s.N), sorted((k, str(v)) for k, v in s.cubic.items()))


@pytest.mark.parametrize("d, a, b", [(5, 1, 2), (7, 1, 2), (9, 4, 5)])
def test_decide_json_is_the_same_cold_and_warm(d, a, b, cold_sides):
    cold = json.dumps(decide(d, a, b).to_json(), sort_keys=True)
    info = side_at.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    warm = json.dumps(decide(d, a, b).to_json(), sort_keys=True)
    assert side_at.cache_info().hits == 2
    assert warm == cold
    # each side, cached once, serves as the chi' side of the swapped pair
    swapped = decide(d, b, a).to_json()
    assert side_at.cache_info().misses == 2
    side_at.cache_clear()
    assert json.dumps(decide(d, b, a).to_json(), sort_keys=True) == json.dumps(
        swapped, sort_keys=True)


def test_cached_side_is_unchanged_by_decide(cold_sides):
    for d, a, b in [(5, 1, 2), (5, 1, 4), (7, 1, 2), (7, 3, 3), (9, 4, 5)]:
        sides = [side_at(d, c) for c in (a, b)]
        before = [_side_snapshot(s) for s in sides]
        assert decide(d, a, b).agrees
        assert all(side_at(d, c) is s for c, s in zip((a, b), sides))
        assert [_side_snapshot(s) for s in sides] == before
        # and equal to a side made afresh from the blocks
        assert _side_snapshot(side(*symbolic_matrices_at(d, a))) == before[0]
    with pytest.raises(AttributeError):
        sides[0].cubic = None


def test_cached_blocks_and_sides_refuse_changes():
    # symbolic_MN and side_at hand every caller the same objects: a write
    # into any of them raises, and a later decide reads what it read before
    want = json.dumps(decide(7, 1, 2).to_json(), sort_keys=True)
    M, N = symbolic_MN()
    s = side_at(7, 1)
    for m in M + N + s.M + s.N:
        with pytest.raises(TypeError):
            m.data[0][0] = m[0, 1]
        with pytest.raises(TypeError):
            m.data[0] = m.data[1]
    for mats in (M, N, s.M, s.N):
        with pytest.raises(TypeError):
            mats[0] = mats[1]
    with pytest.raises(TypeError):
        s.cubic[(3, 0, 0)] = s.cubic[(0, 3, 0)]
    assert json.dumps(decide(7, 1, 2).to_json(), sort_keys=True) == want


def _candidate_strs(cands):
    return [(c.root_label, str(c.r), [str(x) for row in c.S.data for x in row])
            for c in cands]


def test_solve_S_matches_the_equation_oracle():
    # the candidates read from the five coefficients are the ones the ten
    # coefficient equations give, entry by entry and in the same order
    cases = [(symbolic_matrices_at(d, a), symbolic_matrices_at(d, b))
             for d in range(5, 11) for a, b in coprime_pairs(d)]
    cases += [generic_blocks(5), generic_blocks(8)]
    count = 0
    for pair, pair_p in cases:
        for stype in ("I", "II"):
            got = solve_S(stype, side(*pair), side(*pair_p))
            want = pencil_oracle.solve_S(stype, pair[0], pair_p[0])
            assert _candidate_strs(got) == _candidate_strs(want)
            count += len(got)
    assert len(cases) == 77 and count == 197


def test_solve_S_rejects_a_broken_pencil():
    # a side made by hand with a broken cubic stands for a broken pencil
    s, s_p = block_side(5, 1), block_side(5, 2)
    M, Mp, C, Cp = s.M, s_p.M, s.cubic, s_p.cubic
    assert len(solve_S("II", s, s_p)) == 1

    def broken(one_side, cubic):
        return one_side._replace(cubic=cubic)

    # a wrong c'120 only moves s23: the identity, with C' computed again
    # from Mp, catches it; the equations built from the same broken
    # pencil did not
    bad = dict(Cp)
    bad[(1, 2, 0)] = bad.get((1, 2, 0), QQ.zero) + 1
    with pytest.raises(NoCandidate, match="pencil identity violated"):
        solve_S("II", s, broken(s_p, bad))
    eqs = _coeff_equations_table(C, bad, QQ)
    assert len(pencil_oracle.solve_S("II", M, Mp, pencil=(C, bad, eqs))) == 1
    bad = {k: v for k, v in Cp.items() if k != (3, 0, 0)}
    with pytest.raises(NoCandidate, match="cube equation for s21 degenerate"):
        solve_S("I", s, broken(s_p, bad))
    bad = {k: v for k, v in C.items() if k != (3, 0, 0)}
    with pytest.raises(NoCandidate, match="cube consistency broken"):
        solve_S("I", broken(s, bad), s_p)
    with pytest.raises(NoCandidate, match=r"s11\^3 != \(s22\^3\)\^2"):
        solve_S("II", broken(s, bad), s_p)


def test_pencil_requires_both_cube_coefficients(monkeypatch):
    # without x1^3 the cubic has a second singular point on the line
    # x2 = 0, and S^T need not fix [0:0:1]
    M, N = blocks(5, 1)
    exact = obstruction.cubic_det
    monkeypatch.setattr(obstruction, "cubic_det",
                        lambda Ms: {k: v for k, v in exact(Ms).items() if k != (3, 0, 0)})
    with pytest.raises(NoCandidate, match="x1\\^3 or x2\\^3 coefficient vanishes"):
        side(M, N)


def _same_uv(got, want):
    status, U, V, certificate = want
    assert got.status == status
    if status == "solvable":
        assert got.U == U and got.V == V
        assert [str(x) for row in got.U.data + got.V.data for x in row] == [
            str(x) for row in U.data + V.data for x in row]
    else:
        assert got.certificate == certificate
        assert [str(x) for x in got.certificate] == [str(x) for x in certificate]


def test_solve_UV_matches_full_system_oracle():
    # every candidate that reaches solve_UV in the sweep d = 5..8
    seen = []
    for d in range(5, 9):
        for a, b in coprime_pairs(d):
            s, s_p = block_side(d, a), block_side(d, b)
            for stype in ("I", "II"):
                for cand in solve_S(stype, s, s_p):
                    ab = solve_AB(cand)
                    if ab.status != "solution":
                        continue
                    At = ab.A.transpose()
                    AM = [At * m for m in cand.M]
                    AN = [At * n for n in cand.N]
                    want = uv_oracle(cand.field, AM, AN, cand.Q)
                    got = solve_UV(cand, ab.A)
                    _same_uv(got, want)
                    seen.append(got.status)
    # one solvable candidate per congruent pair, the others inconsistent
    assert len(seen) == 72 and seen.count("solvable") == 24


UV_FIELDS = factor_t3_minus_r(Rat(5, 3), QQ) + factor_t3_minus_r(Rat(-8, 27), QQ)


@st.composite
def uv_block_systems(draw):
    """AM_i, AN_i, Ps_i over an extension: block rows drawn at random, as
    zero, or as combinations of earlier rows, a column possibly zeroed or
    repeated; Ps_i = AM_i U0 + AN_i V0 (solvable) or drawn freely, with
    some right-hand-side columns kept consistent."""
    E = draw(st.sampled_from(UV_FIELDS))
    small = st.fractions(-3, 3, max_denominator=3).map(lambda f: Rat(f.numerator, f.denominator))

    def elem():
        if draw(st.booleans()):
            return E.zero
        return E.from_coeffs([draw(small) for _ in range(E.deg)])

    rows = []
    for _ in range(9):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([E.zero] * 6)
        elif kind == "random":
            rows.append([elem() for _ in range(6)])
        else:
            p, q = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = elem(), elem()
            rows.append([a * x + b * y for x, y in zip(p, q)])
    col_op = draw(st.sampled_from(["none", "zero", "repeat"]))
    j, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    for row in rows:
        if col_op == "zero":
            row[j] = E.zero
        elif col_op == "repeat":
            row[j] = row[k]
    AM = [ExactMatrix(E, [rows[3 * i + r][:3] for r in range(3)]) for i in range(3)]
    AN = [ExactMatrix(E, [rows[3 * i + r][3:] for r in range(3)]) for i in range(3)]
    U0 = ExactMatrix(E, [[elem() for _ in range(3)] for _ in range(3)])
    V0 = ExactMatrix(E, [[elem() for _ in range(3)] for _ in range(3)])
    consistent = [AM[i] * U0 + AN[i] * V0 for i in range(3)]
    free = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    Ps = [ExactMatrix(E, [[elem() if free[c] else consistent[i][r, c] for c in range(3)]
                          for r in range(3)]) for i in range(3)]
    return E, AM, AN, Ps


@settings(max_examples=50, deadline=None)
@given(uv_block_systems())
def test_uv_block_solve_matches_full_system_oracle(system):
    E, AM, AN, Ps = system
    _same_uv(_solve_uv_block(E, AM, AN, Ps), uv_oracle(E, AM, AN, Ps))


def test_uv_block_solve_covers_both_outcomes():
    E = UV_FIELDS[0]
    t = E.t
    I3 = identity(E, 3)
    Z = ExactMatrix(E, [[0] * 3 for _ in range(3)])
    T = ExactMatrix(E, [[t, 0, 1], [0, t * t, 0], [1, 0, 0]])
    # U = T, V = I solves it, and only it: the i = 0 equation pins U
    Ps = [T, T * T + I3, I3]
    got = _solve_uv_block(E, [I3, T, Z], [Z, I3, I3], Ps)
    assert got.status == "solvable" and got.U == T and got.V == I3
    _same_uv(got, uv_oracle(E, [I3, T, Z], [Z, I3, I3], Ps))
    # the same unknowns twice with different right-hand sides
    got = _solve_uv_block(E, [I3, I3, Z], [Z, Z, Z], [I3, T, Z])
    assert got.status == "inconsistent"
    _same_uv(got, uv_oracle(E, [I3, I3, Z], [Z, Z, Z], [I3, T, Z]))


def test_decide_runs_no_relation_expansion(monkeypatch):
    # decide reads its blocks from the symbolic pipeline: at d = 20 an
    # expansion would take seconds and leave two entries in the cache
    monkeypatch.setattr(relations, "_REL_CACHE", {})
    v = decide(20, 1, 3)
    assert v.verdict == "ObstructionFound" and v.agrees
    assert relations._REL_CACHE == {}
