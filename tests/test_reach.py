"""Reach guard: every function of src/tautrel runs under one of the CLI
commands of COMMANDS, or an entry of its own says why it does not.

A function is each def of the package: a module-level function, a
method (dunders, properties and static methods included) and a closure;
a lambda and a comprehension are not.  The commands run in process,
with --jobs 1 so that no process starts, under a call tracer
(sys.settrace) that is set only while they run and then gives the
earlier trace function back.  Every cache of conftest.CACHES is emptied
first, so that a value an earlier test left cached hides no function
under it, and the guard does not depend on the order of the tests.

A function that no command runs must be on ALLOWED, whose entry gives
its reason and names a test of tests/ that runs it, or on AT_IMPORT:
those run only while the package is imported, before any command, and
the guard checks in the source that a module-level statement of the
package calls each of them.  An entry whose function ran under the
commands, or is no longer in the package, is stale and fails the guard,
and so does a named test that is not a test function of tests/.  What
neither a command nor a test runs leaves src/.
"""

import ast
import contextlib
import io
import os
import shutil
import sys

import pytest

import tautrel
from conftest import clear_caches
from tautrel import cli

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(tautrel.__file__)
UNWRITABLE = "/nonexistent-dir/reach.json"

# (argv, exit code): each subcommand in each format, --chi all, --chi2,
# --mode symbolic, the split pair (7, 1, 2), whose Type II modulus
# t^3 - 1 splits into t - 1 and t^2 + t + 1, a mismatch-free sweep at
# --jobs 1, and the usage errors, an --out that cannot be written among
# them
COMMANDS = (
    ("verify --d 5 --chi 1", 0),
    ("verify --d 5 --dmax 6 --chi all --format json", 0),
    ("verify --d 7 --chi 1 --chi2 2 --format json", 0),
    ("verify --d 5 --chi 1 --mode symbolic", 0),
    ("decide --d 7 --chi1 1 --chi2 2", 0),
    ("decide --d 5 --chi1 1 --chi2 4 --format json", 0),
    ("sweep --dmin 5 --dmax 5 --jobs 1", 0),
    ("sweep --dmin 5 --dmax 5 --jobs 1 --format json", 0),
    ("constraint --d 5", 0),
    ("constraint --d 5 --format json", 0),
    ("emit --what relations --d 5 --chi 1", 0),
    ("emit --what relations --d 5 --chi 1 --format text", 0),
    ("emit --what matrices --d 5 --chi 1 --format text", 0),
    ("emit --what verdicts --d 5 --chi 1 --chi2 2 --format text", 0),
    ("verify --d 5 --chi 5", 2),
    ("verify --d 5 --chi x", 2),
    ("decide --d 6 --chi1 1 --chi2 2", 2),
    ("sweep --dmin 5 --dmax 5 --jobs 0", 2),
    ("constraint --d 4", 2),
    ("emit --what relations --d 5", 2),
    (f"verify --d 5 --chi 1 --out {UNWRITABLE}", 2),
    ("bogus", 2),
)

_CONTRACT = "the hash, equality and repr contract of a value type"
_PROTOCOL = "the field protocol: every field descriptor has is_zero"
_ARITH = ("perfbench's tracer wraps it (tracer.ARITH, tracer.GROUPS), so "
          "test_bench_contract.py::test_traced_names_exist pins it, and "
          "perfbench/ does not change with the package")
_GENERIC = ("the generic-base path of the extension: the runs over "
            "Q(d, chi1, chi2) check the code that decide runs over QQ")
_GCDHEU = ("the subresultant fallback when GCDHEU gives up, which no "
           "command's input makes it do")
_PARALLEL = ("a parallel sweep, and the error row of a pair that raises: "
             "the guard runs --jobs 1 and starts no process")
_READ_ONLY = "refuses a write into a packing, which is read-only"
_DEAD = "test_cli.py::test_sweep_survives_a_dead_worker"
_FALLBACK = "test_exact_arith.py::test_gcd_fallback_when_heuristic_gives_up"
_FUNCTION_FIELD = "test_obstruction.py::test_type_I_has_no_AB_over_the_function_field"
_HASH = "test_exact_arith.py::test_equal_values_hash_alike"
_REPRS = "test_exact_arith.py::test_reprs"
_CUBIC_ARITH = "test_cubicext.py::test_integer_arith_matches_coefficient_oracle"

# qualified name -> (reason, a test of tests/ that runs it, as
# file::function)
ALLOWED = {
    "cli._error_row": (_PARALLEL, _DEAD),
    "cli._pool": (_PARALLEL, _DEAD),
    "cli._pooled_rows": (_PARALLEL, _DEAD),
    "cubicext.CubicField.__eq__": (_CONTRACT, _HASH),
    "cubicext.CubicField.__hash__": (_CONTRACT, _CUBIC_ARITH),
    "cubicext.CubicField.__repr__": (_CONTRACT, _REPRS),
    "cubicext.CubicExt.__hash__": (_CONTRACT, _HASH),
    "cubicext.CubicExt.__pow__": (_ARITH, _CUBIC_ARITH),
    "cubicext.CubicExt.__repr__": (_CONTRACT, _REPRS),
    "cubicext.CubicExt.__rtruediv__": (_ARITH, _CUBIC_ARITH),
    "cubicext._adjugate_column": (_GENERIC, _FUNCTION_FIELD),
    "cubicext._fold_mul": (_GENERIC, _FUNCTION_FIELD),
    "linalg.ExactMatrix.__repr__": (_CONTRACT, _REPRS),
    "rat.IntegerRing.is_zero": (_PROTOCOL, "test_relations.py::test_integer_scalars_stay_ints"),
    "rat.RationalField.__repr__": (_CONTRACT, _REPRS),
    "ratfunc.FracField.__eq__": (_CONTRACT, _HASH),
    "ratfunc.FracField.__hash__": (_CONTRACT, "test_exact_arith.py::test_equal_values_hash_alike_examples"),
    "ratfunc.FracField.__repr__": (_CONTRACT, _REPRS),
    "ratfunc.FracField.is_zero": (_PROTOCOL, _FUNCTION_FIELD),
    "ratfunc.RatFunc.__hash__": (_CONTRACT, _HASH),
    "ratfunc.RatFunc.__repr__": (_CONTRACT, _REPRS),
    "ratfunc.RatFunc.__rtruediv__": (_ARITH, "test_ratfunc.py::test_qq_boundary_of_slices_and_gcd"),
    "ratfunc.RatFunc.is_zero": (_PROTOCOL, _FUNCTION_FIELD),
    "ratfunc._coeff_quo": (_GCDHEU, _FALLBACK),
    "ratfunc._content": (_GCDHEU, _FALLBACK),
    "ratfunc._hash_key": (_CONTRACT, _HASH),
    "ratfunc._prem": (_GCDHEU, _FALLBACK),
    "ratfunc._subresultant_gcd": (_GCDHEU, _FALLBACK),
    "ratfunc._subresultant_tail": (_GCDHEU, _FALLBACK),
    "relations._Packing.__delattr__": (_READ_ONLY, "test_packing.py::test_cached_packing_is_read_only"),
    "relations._Packing.__setattr__": (_READ_ONLY, "test_packing.py::test_cached_packing_is_read_only"),
}

# qualified name -> reason, for the functions that run only while the
# package is imported: a module-level statement calls each
AT_IMPORT = {
    "ratfunc.FracField.__init__": "SYM_FIELD and BI_FIELD, the fields of the "
                                  "symbolic and the constraint path",
    "ratfunc.FormField.__init__": "ELIM_FIELD, the field of symbolic_MN's elimination",
    "symbolic._block_columns": "M_COLS and N_COLS, the columns of the M and N blocks",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defs(mod: str, node, prefix: str, out: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS + (ast.ClassDef,)):
            qual = f"{prefix}.{child.name}"
            if isinstance(child, _DEFS):
                # a code object's first line is that of its first decorator
                out[mod, min([child.lineno] + [d.lineno for d in child.decorator_list])] = qual
            _defs(mod, child, qual, out)
        else:
            _defs(mod, child, prefix, out)


def _functions(src) -> dict:
    """{(module, first line): qualified name} of every def in the modules of src."""
    out = {}
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                _defs(fname[:-3], ast.parse(fh.read()), fname[:-3], out)
    return out


def _ran(commands) -> set:
    """(module, first line) of each function of the package that the
    commands run, every cache emptied before them; each must exit with
    its code."""
    files = {os.path.join(SRC, f): f[:-3] for f in os.listdir(SRC) if f.endswith(".py")}
    ran = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        mod = files.get(code.co_filename)
        if mod is not None:
            ran.add((mod, code.co_firstlineno))
        # returns None: no events inside the frame, only the next call

    clear_caches()
    codes = []
    earlier = sys.gettrace()
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv, _ in commands:
                codes.append(cli.main(argv.split()))
    finally:
        sys.settrace(earlier)
    assert codes == [code for _, code in commands]
    return ran


def _unlisted(functions: dict, ran: set, allowed=ALLOWED, at_import=AT_IMPORT) -> list:
    return [qual for key, qual in functions.items()
            if key not in ran and qual not in allowed and qual not in at_import]


def _stale(functions: dict, ran: set, allowed=ALLOWED, at_import=AT_IMPORT) -> list:
    """The entries whose function ran or is not in the package."""
    present = {qual for key, qual in functions.items() if key not in ran}
    return [qual for qual in list(allowed) + list(at_import) if qual not in present]


def _test_functions() -> set:
    """file::name of each module-level test function of tests/."""
    out = set()
    for fname in os.listdir(TESTS):
        if fname.startswith("test_") and fname.endswith(".py"):
            with open(os.path.join(TESTS, fname), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            out |= {f"{fname}::{node.name}" for node in tree.body
                    if isinstance(node, _DEFS) and node.name.startswith("test")}
    return out


def _unresolved(allowed=ALLOWED) -> list:
    """The entries whose named test is not a test function of tests/."""
    tests = _test_functions()
    return [qual for qual, (_, test) in allowed.items() if test not in tests]


def _called_at_import(src) -> set:
    """module.name of each function or class of src that a module-level
    statement calls, by its bare name in the module that defines it or
    imports it."""
    called = set()
    for fname in os.listdir(src):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        where = {node.name: fname[:-3] for node in tree.body
                 if isinstance(node, _DEFS + (ast.ClassDef,))}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                where.update((a.asname or a.name, node.module) for a in node.names)
        for stmt in tree.body:
            if isinstance(stmt, _DEFS + (ast.ClassDef,)):
                continue
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in where):
                    called.add(f"{where[node.func.id]}.{node.func.id}")
    return called


@pytest.fixture(scope="module")
def ran():
    return _ran(COMMANDS)


def test_every_function_runs_under_a_command_or_is_listed(ran):
    unlisted = _unlisted(_functions(SRC), ran)
    assert not unlisted, "functions no command runs: " + ", ".join(unlisted)


def test_no_stale_entries(ran):
    stale = _stale(_functions(SRC), ran)
    assert not stale, "entries whose function ran or is gone: " + ", ".join(stale)


def test_every_entry_has_a_reason_and_a_test():
    assert all(reason for reason, _ in ALLOWED.values()) and all(AT_IMPORT.values())
    unresolved = _unresolved()
    assert not unresolved, "entries naming no test of tests/: " + ", ".join(unresolved)


def test_import_time_functions_are_called_at_module_level():
    called = _called_at_import(SRC)
    for qual in AT_IMPORT:
        mod, *names = qual.split(".")
        # a class's __init__ runs when the class is called
        target = f"{mod}.{names[0]}" if names[-1] == "__init__" else qual
        assert target in called, qual


def test_guard_flags_a_planted_function(tmp_path, ran):
    src = tmp_path / "tautrel"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "report.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _planted(x):\n    def inner():\n        return x\n\n"
                 "    return inner\n\n\nclass _Planted:\n    @property\n"
                 "    def value(self):\n        return self\n")
    assert _unlisted(_functions(str(src)), ran) == [
        "report._planted", "report._planted.inner", "report._Planted.value"]


def test_guard_flags_stale_entries(ran):
    functions = _functions(SRC)
    entry = ("a reason", "test_reach.py::test_guard_flags_stale_entries")
    allowed = {"cli.main": entry, "cli._no_such_function": entry, **ALLOWED}
    assert _stale(functions, ran, allowed) == ["cli.main", "cli._no_such_function"]
    assert _stale(functions, ran, {}, {"symbolic.symbolic_MN": "a reason"}) == [
        "symbolic.symbolic_MN"]


def test_guard_flags_an_unresolvable_test():
    allowed = {"a": ("a reason", "test_cli.py::test_no_such_test"),
               "b": ("a reason", "test_no_such_file.py::test_decide_exit_codes"),
               "c": ("a reason", "test_cli.py::run_cli"),  # a helper, not a test
               "d": ("a reason", "test_cli.py::test_decide_exit_codes")}
    assert _unresolved(allowed) == ["a", "b", "c"]


def test_guard_empties_the_caches_and_restores_the_tracer():
    def earlier(frame, event, arg):
        return None

    cli.build_parser()  # a warm parser: the guard must see it built again
    before = sys.gettrace()
    sys.settrace(earlier)
    try:
        ran = _ran((("bogus", 2),))
        assert sys.gettrace() is earlier
    finally:
        sys.settrace(before)
    names = {_functions(SRC)[key] for key in ran}
    assert {"cli.main", "cli.build_parser"} <= names
