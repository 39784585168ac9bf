"""Layout guard: every public name in src/tautrel has a caller in src/.

A public module-level function or class counts as used when some other
place in src/tautrel names it (as a name, or as a module attribute); a
public non-dunder method when some other place reads `.name`.  The
package's __init__.py is not read, and references inside the definition
itself (recursion, a method calling itself) do not count.  Docstrings and
comments are not code and are not searched.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tautrel")

# Python entry points that callers outside src/ use, each with its reason
ALLOWED = {
    "constraint.constraint_analysis": "the P1 entry point that perfbench calls",
    "constraint.ConstraintReport.ok": "the verdict perfbench reads from constraint_analysis",
}


def _modules():
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                yield fname[:-3], ast.parse(fh.read())


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(mod: str, tree: ast.Module):
    """(qualified name, kind, bare name, first line, last line) of each
    public module-level function or class and each public method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or not _public(node.name):
            continue
        yield f"{mod}.{node.name}", "name", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and _public(item.name):
                    yield (f"{mod}.{node.name}.{item.name}", "attr", item.name,
                           item.lineno, item.end_lineno)


def _references(tree: ast.Module):
    """(kind, name, line) of each use of a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "name", node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield "attr", node.attr, node.lineno


def test_every_public_name_has_a_caller_in_src():
    trees = dict(_modules())
    refs = [(mod, ref) for mod, tree in trees.items() for ref in _references(tree)]
    defined, missing = set(), []
    for mod, tree in trees.items():
        for qual, kind, name, first, last in _definitions(mod, tree):
            defined.add(qual)
            kinds = ("name", "attr") if kind == "name" else ("attr",)
            used = any(
                k in kinds and n == name and not (m == mod and first <= line <= last)
                for m, (k, n, line) in refs
            )
            if not used and qual not in ALLOWED:
                missing.append(qual)
    assert not missing, "public names with no caller in src/: " + ", ".join(missing)
    assert set(ALLOWED) <= defined, "stale allow-list entries"
