import dataclasses
import json
import math
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from tautrel import linalg, obstruction, relations
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
    _check_uv_certificate,
    _s_combination,
    _solve_uv_block,
)
from tautrel.rat import QQ, Rat
from tautrel.symbolic import symbolic_MN
import ab_oracle
from constraint_oracle import GEN_FIELD, field_side, generic_sides, lifted, uni_blocks
from linalg_oracle import identity, inverse
from mpoly_oracle import MPoly
import pencil_oracle
from pencil_oracle import S_VARS, _coeff_equations_table, _partial, _pencil_rhs_poly
from uv_oracle import uv_oracle
from tautrel.relations import build_relation_set, tracked_block
from tautrel.truncation import matrices_M, matrices_N


def blocks(d, chi):
    blk = build_relation_set(d, chi).block
    return matrices_M(blk), matrices_N(blk)


def block_side(d, chi):
    """The side of the blocks of the relation set at (d, chi)."""
    return field_side(*blocks(d, chi))


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
    cases = [(side_at(5, a).M, side_at(5, b).M, QQ) for a, b in coprime_pairs(5)]
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
    cases = [(side_at(d, a).M, side_at(d, b).M, QQ)
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
    cases += [tuple(field_side(*pair) for pair in generic_blocks(d)) for d in (5, 8)]
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


def _witness_candidate(d, chi1, chi2):
    """The candidate of a congruent pair that has an (A, B) witness, and
    its solve_AB result."""
    for stype in ("I", "II"):
        for cand in solve_S(stype, side_at(d, chi1), side_at(d, chi2)):
            ab = solve_AB(cand)
            if ab.status == "solution":
                return cand, ab
    raise AssertionError(f"no (A, B) witness at {(d, chi1, chi2)}")


# Each re-check of the verifier fires on a planted fault: a doctored
# input, or one solver's output patched; the package itself is unchanged.

def test_solve_AB_det_check_fires():
    # S[1, 1] doubled doubles the scale a11 = s22 puts on the kernel line,
    # so det(A) = 8: the det(A) = det(B^-1) = 1 check refuses the solution
    cand, _ = _witness_candidate(7, 2, 5)
    S = [list(row) for row in cand.S.data]
    S[1][1] = S[1][1] + S[1][1]
    ab = solve_AB(dataclasses.replace(cand, S=ExactMatrix(cand.field, S)))
    assert (ab.status, ab.kernel_dim, ab.A, ab.B) == ("anomaly", 1, None, None)
    assert "det(A)" in ab.certificate["note"]


def test_solve_AB_witness_check_fires(monkeypatch):
    # B is the transpose of B^-1's cofactor rows; a cross product that gets
    # the row r2 x r0 wrong, which neither determinant reads, passes the
    # det check and leaves A^T M_i B != P_i
    cand, ab = _witness_candidate(7, 2, 5)
    r0, _, r2 = inverse(ab.B).data
    cross, wrong = linalg.cross, []

    def perturbed(u, v):
        out = cross(u, v)
        if list(u) == list(r2) and list(v) == list(r0):
            wrong.append(out)
            return (out[0] + cand.field.one,) + out[1:]
        return out

    monkeypatch.setattr(obstruction, "cross", perturbed)
    with pytest.raises(AssertionError, match="witness unsound"):
        solve_AB(cand)
    assert len(wrong) == 1


def test_solve_UV_witness_check_fires(monkeypatch):
    # the (U, V) block's first pivot row with its first right-hand-side
    # entry changed gives U or V a wrong entry at its pivot unknown
    cand, ab = _witness_candidate(7, 2, 5)
    assert solve_UV(cand, ab.A).status == "solvable"
    gauss_jordan = ExactMatrix.gauss_jordan

    def perturbed(self, *args, **kwargs):
        pivots, rest = gauss_jordan(self, *args, **kwargs)
        row = pivots[0][1]
        row[6] = row[6] + self.field.one
        return pivots, rest

    monkeypatch.setattr(ExactMatrix, "gauss_jordan", perturbed)
    with pytest.raises(AssertionError, match="U, V verification failed"):
        solve_UV(cand, ab.A)


def test_uv_certificate_check_fires():
    # the inconsistency certificate of a non-congruent pair passes the
    # check; with any one entry changed whose row of the 27x18 system is
    # nonzero left of the bar, it does not, nor does the zero row, which
    # annihilates the right-hand side too
    cand = solve_S("II", side_at(7, 1), side_at(7, 3))[0]
    ab = solve_AB(cand)
    assert ab.status == "solution"
    E, At = cand.field, ab.A.transpose()
    AM, AN = [At * m for m in cand.M], [At * n for n in cand.N]
    lam = _solve_uv_block(E, AM, AN, cand.Q).certificate
    _check_uv_certificate(E, AM, AN, cand.Q, lam)
    changed = 0
    for q in range(27):
        i, r = divmod(q // 3, 3)
        if not any(AM[i].data[r]) and not any(AN[i].data[r]):
            continue
        bad = lam[:q] + [lam[q] + E.one] + lam[q + 1:]
        with pytest.raises(AssertionError, match="certificate unsound"):
            _check_uv_certificate(E, AM, AN, cand.Q, bad)
        changed += 1
    assert changed
    with pytest.raises(AssertionError, match=r"unsound \(rhs\)"):
        _check_uv_certificate(E, AM, AN, cand.Q, [E.zero] * 27)


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


def test_side_takes_no_minor(monkeypatch):
    # a side reads the block's pivots, R1..R3 and pencil, never det1 or
    # det2, so making one at a point calls int_det 0 times
    from tautrel import linalg

    dets, int_det = [], linalg.int_det

    def counted(rows):
        dets.append(len(rows))
        return int_det(rows)

    for module in (linalg, relations):
        monkeypatch.setattr(module, "int_det", counted)
    assert side_at.__wrapped__(11, 4).cubic and dets == []


def test_side_cache_holds_every_side_of_a_sweep(monkeypatch, cold_sides):
    # decide's pairs at d visit the phi(d) sides in a cycle of phi(d), so
    # the side cache must hold them all: at d = 131, phi = 130, one block
    # per side in decide's pair order, as a sweep reads them
    built = []

    def counted(d, chi):
        built.append(chi)
        return tracked_block(d, chi)

    monkeypatch.setattr(obstruction, "tracked_block", counted)
    for pair in coprime_pairs(131):
        for chi in pair:
            side_at(131, chi)
    assert len(built) == len(set(built)) == 130


def test_decide_builds_each_candidate_system_once(monkeypatch, cold_sides):
    # solve_S lifts each chi-side block to the candidate's extension once
    # and forms P and Q once; solve_AB and solve_UV read them from the
    # candidate.  A cold cache per pair makes decide
    # evaluate each distinct side once: twice for (1, 2), once for (1, 1)
    made, lifted, combined = [], [], []

    def recorded(d, chi):
        made.append(chi)
        return tracked_block(d, chi)

    class Counted(ExactMatrix):
        __slots__ = ()

        def __init__(self, field, data):
            lifted.append(data)
            super().__init__(field, data)

    def counted(S, mats):
        combined.append(mats)
        return _s_combination(S, mats)

    monkeypatch.setattr(obstruction, "tracked_block", recorded)
    monkeypatch.setattr(obstruction, "ExactMatrix", Counted)
    monkeypatch.setattr(obstruction, "_s_combination", counted)
    for pair in [(1, 2), (1, 1), (1, 4), (2, 3)]:
        side_at.cache_clear()
        made.clear(), lifted.clear(), combined.clear()
        v = decide(5, *pair)
        n = len(v.kernel_dims)
        # both the a33 certificate (kernel 0) and a solution that reached
        # solve_UV (kernel 1)
        assert v.agrees and {0, 1} <= set(v.kernel_dims.values())
        assert made == list(dict.fromkeys(pair))
        # the sides decide read, from the cache it filled
        (M, N), (Mp, Np) = ((side_at(5, c).M, side_at(5, c).N) for c in pair)
        if pair[0] != pair[1]:
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
        # and equal to a side made afresh, past the cache
        assert _side_snapshot(side_at.__wrapped__(d, a)) == before[0]
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
    cases = [(side_at(d, a), side_at(d, b)) for d in range(5, 11) for a, b in coprime_pairs(d)]
    cases += [tuple(field_side(*pair) for pair in generic_blocks(d)) for d in (5, 8)]
    count = 0
    for s, s_p in cases:
        for stype in ("I", "II"):
            got = solve_S(stype, s, s_p)
            want = pencil_oracle.solve_S(stype, s.M, s_p.M)
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


def test_pencil_requires_both_cube_coefficients():
    # without x1^3 the cubic has a second singular point on the line
    # x2 = 0, and S^T need not fix [0:0:1]
    M, N = blocks(5, 1)
    cubic = {k: v for k, v in cubic_det(M).items() if k != (3, 0, 0)}
    with pytest.raises(NoCandidate, match="x1\\^3 or x2\\^3 coefficient vanishes"):
        side(M, N, cubic)


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
