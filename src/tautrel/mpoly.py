"""The shared term format of printed polynomials.

Every polynomial of the package is held as a RatFunc's dense integer
pair (ratfunc).  This module holds what all printed polynomials share:
the canonical variable order (d, chi1, chi2, x1, x2, x3, t, then any
other name alphabetically), which fixes the variable tuple of a RatFunc
and so the graded-lexicographic order of leading and printed terms, and
the printer of one signed term.  RatFunc's str, and so P1, and the text
form of a RelationSet print their terms through signed_term.

The module keeps its name, tautrel.mpoly, from the sparse polynomial
type it held before: perfbench's tracer looks it up by that name.
"""

from __future__ import annotations

_FIXED_VAR_ORDER = ("d", "chi1", "chi2", "x1", "x2", "x3", "t")
_VAR_RANK = {name: i for i, name in enumerate(_FIXED_VAR_ORDER)}


def var_sort_key(name: str):
    return (0, _VAR_RANK[name]) if name in _VAR_RANK else (1, name)


def canonical_vars(names) -> tuple:
    return tuple(sorted(set(names), key=var_sort_key))


def signed_term(coeff, body: str, follows: bool) -> str:
    """The rational coeff times the monomial text body ("" for 1) as one
    term of a printed sum: "c*body", or "body" when |coeff| is 1, signed
    as a leading term ("-c*body") or as a following one (" - c*body")."""
    neg = coeff < 0
    mag = str(-coeff if neg else coeff)
    if body:
        text = body if mag == "1" else f"{mag}*{body}"
    else:
        text = mag
    if follows:
        return (" - " if neg else " + ") + text
    return ("-" if neg else "") + text
