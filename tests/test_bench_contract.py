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


def _tracer_modules() -> tuple:
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return tracer.MODULES


def test_every_traced_module_imports():
    modules = _tracer_modules()
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
