"""Seeded inputs of the three benchmark workloads.

This module does not import tautrel: the inputs are plain (d, chi)
tuples, so they can be drawn, printed and compared without the program.
Every operation is one of

    ("decide", d, chi1, chi2)        obstruction.decide, sweep order
    ("verify", d, chi)               tautrel verify --format json
    ("verify_symbolic", d, chi)      tautrel verify --mode symbolic
    ("constraint", d)                constraint_analysis(d)
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep", "verify", "p1")

# sweep stops at d = 9 rather than 10: the relation builds at d = 10
# (1.5-2.5 s each) would make it a build benchmark, and a comparison of
# two commits (every workload 22 times, p1 alone about 85 s a run) must
# finish within 57 minutes.
SWEEP_DS = range(5, 10)
SWEEP_OPS = 25  # of the 65 pairs the full sweep decides at d = 5..9
# The pairs drawn at d touch exactly this many chis, the fewest that can
# hold them: every seed pays the same relation builds (about 0.1 s at
# d = 5 up to 0.9 s at d = 9), and the relation cache is read as often as
# the sample allows (15 builds for 50 calls; a full sweep makes 22 for 130).
SWEEP_CHIS = {5: 3, 6: 1, 7: 4, 8: 3, 9: 4}
VERIFY_DS = range(9, 14)
P1_VERIFY_DS = range(5, 9)
# constraint_analysis(D) is not seeded: D = 5, 6, 7 take about 32, 28 and
# 38 s, and with D drawn per seed that alone spread p1's wall time over
# seeds by about 10%, on top of the host's run-to-run noise.
P1_CONSTRAINT_D = 5

# Nominal cost of one operation at the commit that defined the benchmark
# (2-core x86 box, Python 3.11, Rat = fractions.Fraction).  It turns
# --seconds into an operation count for sweep and verify; p1 always runs
# its two operations, because one cold symbolic_MN cannot be split.
NOMINAL_OP_S = {"sweep": 0.8, "verify": 3.0}


def coprime_chis(d: int) -> list:
    return [c for c in range(1, d) if math.gcd(c, d) == 1]


def coprime_pairs(d: int) -> list:
    """The pairs tautrel sweep decides at d, in its order (as
    obstruction.coprime_pairs)."""
    chis = coprime_chis(d)
    return [(a, b) for a in chis for b in chis if a <= b]


def congruent(d: int, chi1: int, chi2: int) -> bool:
    """chi1 = +-chi2 (mod d), as obstruction.congruent."""
    return (chi1 - chi2) % d == 0 or (chi1 + chi2) % d == 0


def apportion(total: int, sizes: dict) -> dict:
    """total shared over the keys of sizes in proportion to their values
    (largest remainder; ties go to the earlier key)."""
    whole = sum(sizes.values())
    quota = {k: total * n / whole for k, n in sizes.items()}
    share = {k: int(q) for k, q in quota.items()}
    for k in sorted(quota, key=lambda k: share[k] - quota[k])[:total - sum(share.values())]:
        share[k] += 1
    return share


def sweep_allocation() -> dict:
    """d: (decides, congruent decides).  SWEEP_OPS decides shared over d in
    proportion to the pairs the full sweep decides at d, and the congruent
    share of the full sweep (33 of 65) shared over d in proportion to the
    congruent pairs of each d's draw."""
    pairs = {d: coprime_pairs(d) for d in SWEEP_DS}
    ops = apportion(SWEEP_OPS, {d: len(p) for d, p in pairs.items()})
    cong = {d: [p for p in pairs[d] if congruent(d, *p)] for d in SWEEP_DS}
    n_cong = round(SWEEP_OPS * sum(map(len, cong.values())) / sum(map(len, pairs.values())))
    per_d = apportion(n_cong, {d: ops[d] * len(cong[d]) / len(pairs[d]) for d in SWEEP_DS})
    return {d: (ops[d], per_d[d]) for d in SWEEP_DS}


def _sweep_sample(rng: random.Random) -> list:
    # A sample of the full sweep over SWEEP_DS, stratified by d and by
    # congruence: every seed decides the same number of congruent pairs
    # (which reach solve_UV, where another pair can stop at solve_AB) and
    # of the others at each d, in the full sweep's proportions.  Each d's pairs are drawn uniformly
    # within the two classes, redrawn until they touch SWEEP_CHIS[d] chis.
    ops = []
    for d, (k, c) in sweep_allocation().items():
        cong = [p for p in coprime_pairs(d) if congruent(d, *p)]
        other = [p for p in coprime_pairs(d) if not congruent(d, *p)]
        while True:
            pairs = rng.sample(cong, c) + rng.sample(other, k - c)
            touched = len({chi for pair in pairs for chi in pair})
            if touched == SWEEP_CHIS[d]:
                break
        ops += [("decide", d, a, b) for a, b in pairs]
    return sorted(ops)


def _verify_sample(rng: random.Random) -> list:
    # One chi per d: every seed pays the same ladder of cold expansions.
    return [("verify", d, rng.choice(coprime_chis(d))) for d in VERIFY_DS]


def _p1_sample(rng: random.Random) -> list:
    d = rng.choice(list(P1_VERIFY_DS))
    return [("verify_symbolic", d, rng.choice(coprime_chis(d))),
            ("constraint", P1_CONSTRAINT_D)]


def operations(workload: str, seed: int, seconds: float) -> list:
    """The operations of one run, in the order they are issued."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "p1":
        return _p1_sample(rng)
    ops = _sweep_sample(rng) if workload == "sweep" else _verify_sample(rng)
    n = max(1, round(seconds / NOMINAL_OP_S[workload]))
    return ops[:n]


def universe(workload: str) -> list:
    """Every operation some seed can draw (the digest table covers them)."""
    if workload == "sweep":
        return [("decide", d, a, b) for d in SWEEP_DS for a, b in coprime_pairs(d)]
    if workload == "verify":
        return [("verify", d, c) for d in VERIFY_DS for c in coprime_chis(d)]
    return [("verify_symbolic", d, c) for d in P1_VERIFY_DS
            for c in coprime_chis(d)] + [("constraint", P1_CONSTRAINT_D)]


def op_key(op: tuple) -> str:
    return " ".join(str(x) for x in op)
