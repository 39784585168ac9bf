"""tautrel: exact-arithmetic verification of the degree-d tautological
relation obstruction for moduli of one-dimensional plane sheaves."""

__version__ = "0.1.0"

from .rat import QQ, Rat
from .mpoly import MPoly
from .ratfunc import FracField, RatFunc, mpoly_gcd
from .cubicext import CubicExt, CubicField, NotInvertible, factor_t3_minus_r
from .linalg import DimensionMismatch, ExactMatrix, NonSquareDet
from .relations import RelationSet, TrackedBlock, build_relation_set, tracked_block, verify_rank12
from .truncation import checkpoint_reference_M, matrices_M, matrices_N, truncation_block
from .obstruction import Verdict, congruent, decide, side, side_at, solve_AB, solve_S, solve_UV
from .constraint import constraint_analysis

__all__ = [
    "QQ",
    "Rat",
    "MPoly",
    "FracField",
    "RatFunc",
    "mpoly_gcd",
    "CubicExt",
    "CubicField",
    "NotInvertible",
    "factor_t3_minus_r",
    "DimensionMismatch",
    "ExactMatrix",
    "NonSquareDet",
    "RelationSet",
    "build_relation_set",
    "TrackedBlock",
    "tracked_block",
    "verify_rank12",
    "checkpoint_reference_M",
    "matrices_M",
    "matrices_N",
    "truncation_block",
    "Verdict",
    "congruent",
    "decide",
    "side",
    "side_at",
    "solve_AB",
    "solve_S",
    "solve_UV",
    "constraint_analysis",
]
