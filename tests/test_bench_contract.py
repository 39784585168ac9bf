"""The names of the package that perfbench reads, checked without running it.

perfbench's tracer looks up every tautrel.<m> of tracer.MODULES in
sys.modules, and its worker reads the caches, entry points and report
fields below.  Removing one of them makes every perfbench operation
fail, so their presence is part of the tier-1 suite.
"""

import dataclasses
import importlib
import os
import sys

from conftest import CACHES, clear_caches

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _perfbench(name: str):
    """perfbench's module name, imported with sys.path left as it was."""
    saved = sys.path[:]
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = saved


def _tracer():
    return _perfbench("tracer")


def test_every_traced_module_imports():
    modules = _tracer().MODULES
    assert "relations" in modules and "tautalg" in modules
    for name in modules:
        importlib.import_module(f"tautrel.{name}")


def test_worker_reads_exist():
    from tautrel import cli, constraint, obstruction, relations, symbolic

    assert isinstance(relations._REL_CACHE, dict)
    assert isinstance(constraint._SLICE_CACHE, dict)
    assert isinstance(constraint._REPORT_CACHE, dict)
    assert callable(symbolic.symbolic_MN.cache_info)
    for fn in (obstruction.decide, constraint.constraint_analysis, cli.main):
        assert callable(fn)
    fields = {f.name for f in dataclasses.fields(constraint.ConstraintReport)}
    assert {"P1", "P1_checks", "structure_checks"} <= fields
    assert callable(constraint.ConstraintReport.ok)


# GROUPS names that no longer resolve in src/, so their metrics read 0 on
# working code; each is recorded in CHANGES.md or ROADMAP.md and waits for
# the next benchmark change
STALE_GROUP_NAMES = {
    # CHANGES.md FOUND: GROUPS still maps cubicext.ext_invert
    "cubicext.ext_invert",
    # ROADMAP.md item 4 and CHANGES.md FOUND: linalg.solve.* reads 0
    "linalg.ExactMatrix.solve",
    # CHANGES.md FOUND: tautalg.beta_pushforward.* and tautalg.mul.* read 0
    "tautalg.beta_pushforward",
    "tautalg.GradedPoly.__mul__",
    "tautalg.GradedPoly.__rmul__",
    "tautalg.BetaClass.__mul__",
    "tautalg.BetaClass.__rmul__",
    # CHANGES.md FOUND: constraint.slice.* and constraint.solve_AB_reduced.*
    # read 0
    "constraint.constraint_slice",
    "constraint.solve_AB_reduced",
    # CHANGES.md FOUND: linalg.kernel.calls reads 0 since solve_AB reads
    # its line off one elimination
    "linalg.ExactMatrix.kernel",
    # CHANGES.md FOUND: mpoly.arith.calls reads 0 since the sparse MPoly
    # left src/ and every polynomial is a RatFunc; tautrel.mpoly keeps its
    # name only for tracer.MODULES
    "mpoly.MPoly.__add__",
    "mpoly.MPoly.__radd__",
    "mpoly.MPoly.__sub__",
    "mpoly.MPoly.__rsub__",
    "mpoly.MPoly.__mul__",
    "mpoly.MPoly.__rmul__",
    "mpoly.MPoly.exact_div",
}


def _resolves(qual: str) -> bool:
    """A GROUPS name as the tracer finds it: a module-level function, or
    a method the class defines itself (vars(), not inherited)."""
    mod, *path = qual.split(".")
    obj = importlib.import_module(f"tautrel.{mod}")
    for name in path:
        obj = vars(obj).get(name)
        if obj is None:
            return False
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    return callable(obj)


def test_traced_names_exist():
    """The tracer wraps only the names a module or class defines itself:
    a missing one leaves its per-layer metric reading 0 on working code,
    with no error.  Every GROUPS name resolves, but the stale ones."""
    from tautrel import ratfunc

    tracer = _tracer()
    assert callable(vars(ratfunc)["mpoly_gcd"])
    for op in tracer.ARITH:
        assert callable(vars(ratfunc.RatFunc).get(op)), op
    missing = {qual for qual in tracer.GROUPS if not _resolves(qual)}
    assert missing == STALE_GROUP_NAMES


# caches of conftest.CACHES that perfbench's worker.assert_cold does not
# read, so a worker that started with one of them warm would pass its
# check (CHANGES.md FOUND on assert_cold); the next benchmark change
# closes the gap and then meets this test
UNCHECKED_CACHE_NAMES = {"obstruction.side_at", "symbolic._laurent_matrix"}


def _cache_name(cache) -> str:
    """module.name of a cache, in the module that defines it."""
    from tautrel import constraint, obstruction, relations, symbolic

    return next(f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
                for mod in (constraint, obstruction, relations, symbolic)
                for name, obj in vars(mod).items()
                if obj is cache and getattr(obj, "__module__", mod.__name__) == mod.__name__)


def test_assert_cold_notices_each_cache():
    # each cache warmed alone, an lru_cache by a call and a dict by an entry
    worker = _perfbench("worker")
    unnoticed = set()
    try:
        for cache in CACHES:
            name = _cache_name(cache)
            clear_caches()
            if hasattr(cache, "cache_clear"):
                cache(*{"obstruction.side_at": (5, 1)}.get(name, ()))
            else:
                cache["warm"] = None
            clear_caches(keep=cache)
            try:
                worker.assert_cold()
            except AssertionError:
                continue
            unnoticed.add(name)
    finally:
        clear_caches()
    assert unnoticed == UNCHECKED_CACHE_NAMES
