"""Reference S solve for the tests: the pencil identity expanded as a
polynomial in x1, x2, x3 and the nine s_ij, split into its ten
coefficient equations, and solved by substituting into them.

This is how tautrel.obstruction.solve_S found its candidates before it
read them from the five nonzero coefficients of each nodal cubic.  The
candidates (root label, r and every entry of S) must agree with it
exactly.  Here the last row of S is assumed to be (0, 0, s33);
tautrel.obstruction proves it from the node.
"""

from collections import namedtuple

from mpoly_oracle import MPoly
from tautrel.cubicext import CubicField, factor_t3_minus_r
from tautrel.linalg import ExactMatrix
from tautrel.obstruction import NoCandidate, analyze_node, cubic_det

# the parts of obstruction.CandidateS that the comparison reads
Candidate = namedtuple("Candidate", "field S r root_label")


S_VARS = tuple(f"s{i}{j}" for i in range(1, 4) for j in range(1, 4))


def svar(i: int, j: int) -> str:
    """Variable name of the S-entry at 0-based (i, j)."""
    return f"s{i+1}{j+1}"


def _pencil_rhs_poly(Cp: dict, field) -> MPoly:
    """det(sum_ij x_i s_ij M'_j) as a polynomial in x and s variables."""
    vars = ("x1", "x2", "x3") + S_VARS
    y = []
    for j in range(3):
        terms = {}
        for i in range(3):
            e = [0] * len(vars)
            e[i] = 1
            e[3 + 3 * i + j] = 1
            terms[tuple(e)] = field.one
        y.append(MPoly(vars, terms, field))
    # powers[j][e] = y_j^e, e = 0..3, shared by the ten monomials
    powers = []
    for yj in y:
        pw = [MPoly.constant(1, vars, field)]
        for _ in range(3):
            pw.append(pw[-1] * yj)
        powers.append(pw)
    acc = MPoly.constant(0, vars, field)
    for (p, q, r), c in Cp.items():
        acc = acc + powers[0][p] * powers[1][q] * powers[2][r] * c
    return acc


def _coeff_equations_table(C: dict, Cp: dict, field) -> dict:
    """All ten coefficient equations at once: the terms of the pencil
    polynomial grouped by their (x1, x2, x3) exponent in one pass."""
    table: dict = {}
    for e, c in _pencil_rhs_poly(Cp, field).terms.items():
        table.setdefault(e[:3], {})[e[3:]] = -c
    out = {}
    for u in range(4):
        for v in range(4 - u):
            key = (u, v, 3 - u - v)
            terms = {(0,) * 9: C[key]} if key in C else {}
            terms.update(table.get(key, {}))  # every rhs term has degree 3 in s
            out[key] = MPoly._of(S_VARS, terms, field)
    return out


def assert_type_split(eqs: dict, field) -> None:
    """The completeness of the Type I / Type II case split, read from the
    ten coefficient equations eqs of a pencil pair: after the
    node forces the last row to (0, 0, s33), the (0,2,1) and (2,0,1)
    equations are nonzero multiples of s21*s22*s33 and s12*s11*s33, and
    the (1,1,1) equation pins s33*(s11*s22 + s12*s21) to a nonzero
    value, so s33 != 0 and one of the two off/diagonal pairs vanishes."""
    zeros = {svar(2, 0): 0, svar(2, 1): 0}
    sup = _partial(eqs[(0, 2, 1)], zeros, field)
    if set(sup) != {("s21", "s22", "s33")}:
        raise NoCandidate(f"(0,2,1) support {set(sup)} != s21*s22*s33")
    sup = _partial(eqs[(2, 0, 1)], zeros, field)
    if set(sup) != {("s11", "s12", "s33")}:
        raise NoCandidate(f"(2,0,1) support {set(sup)} != s11*s12*s33")
    sup = _partial(eqs[(1, 1, 1)], zeros, field)
    keys = set(sup) - {()}
    if keys != {("s11", "s22", "s33"), ("s12", "s21", "s33")}:
        raise NoCandidate(f"(1,1,1) support {keys} unexpected")
    if sup[("s11", "s22", "s33")] != sup[("s12", "s21", "s33")]:
        raise NoCandidate("(1,1,1) cubic coefficients differ")
    if () not in sup:
        raise NoCandidate("(1,1,1) has no constant part: node coefficient vanished")


def _partial(eq: MPoly, assignment: dict, field) -> dict:
    """Evaluate all assigned variables, keeping unassigned exponents:
    {reduced exponent key: nonzero value in field}, empty when eq
    vanishes.  The key lists the unassigned variables of a monomial,
    sorted, each as often as its exponent.  field is any field of the
    tower holding the coefficients and the assigned values.  Each power
    of an assigned value is built once per call (exponents are at most
    3), and a term with a variable assigned zero is skipped."""
    powers = []  # per variable: None if unassigned, [] if zero, else its powers
    for name, top in zip(eq.vars, map(max, zip(*eq.terms))):
        val = assignment.get(name)
        if val is None or not val:
            powers.append(None if val is None else [])
        else:
            powers.append([None, val] + [val**p for p in range(2, top + 1)])
    out: dict = {}
    for e, c in eq.terms.items():
        key, factors = [], []
        for name, p, pw in zip(eq.vars, e, powers):
            if not p:
                continue
            if pw is None:
                key.extend([name] * p)
            elif not pw:
                break
            else:
                factors.append(pw[p])
        else:
            term = field.coerce(c)
            for f in factors:
                term = term * f
            key = tuple(sorted(key))
            prev = out.get(key)
            out[key] = term if prev is None else prev + term
    return {k: v for k, v in out.items() if v}


def _solve_linear(eq: MPoly, assignment: dict, unknown: str, E: CubicField):
    parts = _partial(eq, assignment, E)
    bad = [k for k in parts if k not in ((), (unknown,))]
    if bad:
        raise NoCandidate(f"equation not linear in {unknown}: extra monomials {bad}")
    a = parts.get((unknown,), E.zero)
    b = parts.get((), E.zero)
    if a.is_zero():
        if b.is_zero():
            return None
        raise NoCandidate(f"inconsistent linear equation for {unknown}")
    return -b / a


def _cube_value(eq: MPoly, zeros: dict, unknown: str, field):
    """From an equation of the shape a*unknown^3 + b (after substituting
    the vanishing pattern), return the pinned cube -b/a in the field."""
    parts = _partial(eq, zeros, field)
    cube = (unknown,) * 3
    bad = [k for k in parts if k not in ((), cube)]
    if bad:
        raise NoCandidate(f"cube equation for {unknown} has extra monomials {bad}")
    if cube not in parts:
        raise NoCandidate(f"cube equation for {unknown} degenerate")
    return -parts.get((), field.zero) / parts[cube]


def _pencil(M: list, Mp: list, field) -> tuple:
    """(C, Cp, eqs): the pencil cubics det(sum x_i M_i) and det(sum x_j
    M'_j), both checked nodal, and their ten coefficient equations in
    the s_ij, checked to split into Type I and Type II."""
    C = cubic_det(M)
    Cp = cubic_det(Mp)
    analyze_node(C, field)
    analyze_node(Cp, field)
    eqs = _coeff_equations_table(C, Cp, field)
    assert_type_split(eqs, field)
    return C, Cp, eqs


def solve_S(stype: str, M: list, Mp: list, pencil: tuple = None) -> list:
    """All candidates of the given type ('I' or 'II'), one per
    irreducible factor of the relevant t^3 - r, over the field of the
    blocks.  pencil, when given, is _pencil(M, Mp, M[0].field): a caller
    solving both types computes it once."""
    field = M[0].field
    C, Cp, eqs = _pencil(M, Mp, field) if pencil is None else pencil
    tau = C[(1, 1, 1)] / Cp[(1, 1, 1)]

    zeros = {svar(2, 0): 0, svar(2, 1): 0}
    if stype == "I":
        zeros.update({svar(0, 0): 0, svar(1, 1): 0})
        r_main = _cube_value(eqs[(0, 3, 0)], zeros, "s21", field)  # s21^3
        r_other = _cube_value(eqs[(3, 0, 0)], zeros, "s12", field)  # s12^3
        if tau**3 != r_main * r_other:
            raise NoCandidate("s33^3 != 1 for Type I: cube consistency broken")
    elif stype == "II":
        zeros.update({svar(0, 1): 0, svar(1, 0): 0})
        r_main = _cube_value(eqs[(0, 3, 0)], zeros, "s22", field)  # s22^3
        r_other = _cube_value(eqs[(3, 0, 0)], zeros, "s11", field)  # s11^3
        if r_other != r_main * r_main:
            raise NoCandidate("s11^3 != (s22^3)^2 for Type II")
        if tau != r_main:
            raise NoCandidate("s33 != 1 normalization impossible: tau != r")
    else:
        raise ValueError("stype must be 'I' or 'II'")

    candidates = []
    for E in factor_t3_minus_r(r_main, field):
        assignment = {name: E.zero for name in zeros}
        assignment["s33"] = E.one
        root = E.t
        if stype == "I":
            assignment["s21"] = root
            assignment["s12"] = E.coerce(tau) / root
        else:
            assignment["s22"] = root
            assignment["s11"] = root * root
        # the two remaining entries come from the (2,1,0) and (1,2,0)
        # equations, each linear once everything else is known
        s13 = _solve_linear(eqs[(2, 1, 0)], assignment, "s13", E)
        assignment["s13"] = s13 if s13 is not None else E.zero
        s23 = _solve_linear(eqs[(1, 2, 0)], assignment, "s23", E)
        assignment["s23"] = s23 if s23 is not None else E.zero
        for key, eq in eqs.items():
            if _partial(eq, assignment, E):  # every variable is assigned
                raise NoCandidate(f"pencil equation {key} violated for type {stype}")
        S = ExactMatrix(
            E, [[assignment[svar(i, j)] for j in range(3)] for i in range(3)]
        )
        candidates.append(Candidate(E, S, r_main, E.modulus_str()))
    return candidates
