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

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return tracer


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


def test_traced_kernel_names_exist():
    """The tracer wraps only the names a class or module defines itself
    (vars(), not inherited ones): a missing one leaves its per-layer
    metric reading 0 on working code, with no error."""
    from tautrel import cubicext, mpoly, ratfunc

    tracer = _tracer()
    assert callable(vars(ratfunc)["mpoly_gcd"])
    for op in tracer.ARITH:
        assert callable(vars(ratfunc.RatFunc).get(op)), op
    # and every kernel method that feeds a metric (*.arith, cubicext.inverse)
    modules = {"mpoly": mpoly, "ratfunc": ratfunc, "cubicext": cubicext}
    for qual in tracer.GROUPS:
        mod, *path = qual.split(".")
        if mod in modules and len(path) == 2:
            cls, op = path
            assert callable(vars(vars(modules[mod])[cls]).get(op)), qual
