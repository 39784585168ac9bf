"""Layout guard: every name in src/tautrel has a caller in src/, and no
module imports another module's private name but those PRIVATE_IMPORTS
lists.

Public and private names alike: a module-level function or class, a
method other than a dunder, and a name bound by a module-level
assignment (a constant, a cache, an alias), also one inside a
module-level if or try.  So a helper or constant that only tests read
lives in tests/, not in the package.

A module-level function, class or constant counts as used when some
other place in src/tautrel reads it (as a name, or as a module
attribute); an assignment to the name does not count.  A
non-dunder method C.name counts as used when some other place
reads `.name` from a receiver whose class resolves to C: the class itself
(`C.name`), `self` or `cls` inside C's methods, or a module-level
instance of C (`QQ.name`), a subclass inheriting the method included.

A read from a receiver of unknown class (a local, an argument, a call's
result) counts for C only when no other src class owns an attribute
called `name` (a method, a class attribute, a slot, a dataclass field or
a `self.name` assignment) and no builtin type has one.  Such a name is
shared: a read of `.zero` may be QQ.zero, CubicField.zero or
FracField.zero.  SHARED lists, for each shared name that is read from
receivers of unknown class, the classes whose method those reads reach.
A class that is not listed needs a resolved reference.

The package's __init__.py is not read, and references inside the
definition itself (recursion, a method calling itself) do not count.
Docstrings and comments are not code and are not searched.

The cache guard: conftest.CACHES, the caches --cold-caches empties
before each test, holds every cache of the package, each module-level
attribute with a cache_clear (an lru_cache) and each module-level dict
named *_CACHE, and nothing else.
"""

import ast
import functools
import importlib
import os
import pkgutil
import shutil
from fractions import Fraction

import tautrel
from conftest import CACHES

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tautrel")

# Python entry points that callers outside src/ use, each with its reason
ALLOWED = {}

# importer -> the single-underscore names of other modules it may import,
# each with its reason; no other cross-module import of a private name
PRIVATE_IMPORTS = {}

# shared method name -> the classes whose method is read through receivers
# of unknown class
SHARED = {
    "add": {"Report"},
    "coerce": {"RationalField", "IntegerRing", "FracField", "CubicField"},
    "den": {"RatFunc"},
    "is_zero": {"RationalField", "IntegerRing", "RatFunc", "FracField", "CubicExt"},
    "num": {"RatFunc"},
    "to_json": {"Check", "Report", "RelationSet", "TruncationBlock", "Verdict"},
}

BUILTIN_ATTRS = frozenset().union(
    *(dir(t) for t in (int, Fraction, dict, list, tuple, str, set, frozenset)))


def _modules(src):
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                yield fname[:-3], ast.parse(fh.read())


def _public(name: str) -> bool:
    return not name.startswith("_")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _assignments(body):
    """(name, statement) of each name a module-level assignment binds,
    the bodies of module-level if and try statements included."""
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and not _dunder(n.id):
                        yield n.id, node
        elif isinstance(node, (ast.If, ast.Try)):
            handlers = [stmt for h in getattr(node, "handlers", ()) for stmt in h.body]
            yield from _assignments(node.body + node.orelse + handlers
                                    + getattr(node, "finalbody", []))


def _definitions(mod: str, tree: ast.Module):
    """(qualified name, class or None, bare name, first line, last line) of
    each module-level function, class or assigned name and each method but
    the dunders."""
    for name, node in _assignments(tree.body):
        yield f"{mod}.{name}", None, name, node.lineno, node.end_lineno
    for node in tree.body:
        if not isinstance(node, _FUNCS + (ast.ClassDef,)):
            continue
        yield f"{mod}.{node.name}", None, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCS) and not _dunder(item.name):
                    yield (f"{mod}.{node.name}.{item.name}", node.name, item.name,
                           item.lineno, item.end_lineno)


def _owned(cls: ast.ClassDef):
    """The attribute names a class owns: its methods, class attributes and
    fields, slots, and the attributes its methods assign on self."""
    for item in cls.body:
        if isinstance(item, _FUNCS):
            yield item.name
        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id
                    if t.id == "__slots__":
                        for c in ast.walk(item.value):
                            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                                yield c.value
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr


class _Layout:
    def __init__(self, src):
        self.trees = dict(_modules(src))
        self.classes = {}  # class name -> ClassDef
        self.instances = {}  # module-level instance name -> class name
        self.modules = set()  # names bound to imported modules
        for tree in self.trees.values():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = node
                elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                      and isinstance(node.value.func, ast.Name)):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            self.instances[t.id] = node.value.func.id
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    self.modules.update((a.asname or a.name).split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module is None:
                    self.modules.update(a.asname or a.name for a in node.names)
        self.owners = {}  # attribute name -> classes owning it
        for name, cls in self.classes.items():
            for attr in _owned(cls):
                self.owners.setdefault(attr, set()).add(name)

    def methods(self, cls: str) -> set:
        return {i.name for i in self.classes[cls].body if isinstance(i, _FUNCS)}

    def resolve(self, cls: str, attr: str):
        """The class, cls or a base, whose method attr cls reaches."""
        seen = set()
        while cls in self.classes and cls not in seen:
            seen.add(cls)
            if attr in self.methods(cls):
                return cls
            bases = [b.id for b in self.classes[cls].bases if isinstance(b, ast.Name)]
            cls = next((b for b in bases if b in self.classes), None)
        return None

    def shared(self, attr: str) -> bool:
        return len(self.owners.get(attr, ())) > 1 or attr in BUILTIN_ATTRS

    def references(self):
        """(module, kind, name, receiver class or None, line) of each use
        of a name ("name") or an attribute ("attr" of a class's instance,
        "module" of a module, "unknown" of anything else)."""
        for mod, tree in self.trees.items():
            yield from self._visit(mod, tree, None)

    def _visit(self, mod, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from self._visit(mod, child, child.name)
                continue
            if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
                yield mod, "name", child.id, None, child.lineno
            elif isinstance(child, ast.Attribute):
                recv = child.value
                kind, cls = "unknown", None
                if isinstance(recv, ast.Name):
                    if recv.id in ("self", "cls") and owner is not None:
                        kind, cls = "attr", owner
                    elif recv.id in self.classes:
                        kind, cls = "attr", recv.id
                    elif self.instances.get(recv.id) in self.classes:
                        kind, cls = "attr", self.instances[recv.id]
                    elif recv.id in self.modules:
                        kind = "module"
                yield mod, kind, child.attr, cls, child.lineno
            yield from self._visit(mod, child, owner)

    def missing(self, allowed=ALLOWED, shared=SHARED) -> list:
        """The public names with no caller in src/, allow-listed ones aside."""
        refs = list(self.references())
        out = []
        for mod, tree in self.trees.items():
            for qual, cls, name, first, last in _definitions(mod, tree):
                def counts(ref):
                    m, kind, n, rcls, line = ref
                    if n != name or (m == mod and first <= line <= last):
                        return False
                    if cls is None:
                        return kind in ("name", "module")
                    if kind == "attr":
                        return self.resolve(rcls, name) == cls
                    if kind == "unknown":
                        if self.shared(name):
                            return cls in shared.get(name, ())
                        return True
                    return False
                if qual not in allowed and not any(map(counts, refs)):
                    out.append(qual)
        return out

    def defined(self) -> set:
        return {q for mod, tree in self.trees.items() for q, *_ in _definitions(mod, tree)}


def _private(qual: str) -> bool:
    return not _public(qual.rsplit(".", 1)[1])


def test_every_public_name_has_a_caller_in_src():
    layout = _Layout(SRC)
    missing = [q for q in layout.missing() if not _private(q)]
    assert not missing, "public names with no caller in src/: " + ", ".join(missing)
    assert set(ALLOWED) <= layout.defined(), "stale allow-list entries"


def test_every_private_name_has_a_caller_in_src():
    layout = _Layout(SRC)
    assert any(map(_private, layout.defined()))
    missing = [q for q in layout.missing() if _private(q)]
    assert not missing, "private names with no caller in src/: " + ", ".join(missing)


def test_shared_names_are_shared_and_owned():
    layout = _Layout(SRC)
    for name, classes in SHARED.items():
        assert layout.shared(name), f"{name} is not shared"
        for cls in classes:
            assert name in layout.methods(cls), f"{cls} has no method {name}"


def _with_method(tmp_path, mod: str, cls: str, method: str) -> str:
    """A copy of src/tautrel with method added to cls (in module mod)."""
    src = tmp_path / "tautrel"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / f"{mod}.py"
    text = path.read_text()
    head = f"class {cls}:\n"
    assert text.count(head) == 1
    path.write_text(text.replace(head, head + method, 1))
    return str(src)


def test_guard_flags_an_uncalled_method_whose_name_is_read_elsewhere(tmp_path):
    # .zero is read from QQ and the other field descriptors; none of these reads
    # reaches Report
    src = _with_method(tmp_path, "report", "Report", (
        "    @classmethod\n"
        "    def zero(cls, command):\n"
        "        return cls(command, {})\n\n"))
    assert _Layout(src).missing() == ["report.Report.zero"]


def test_guard_counts_a_call_through_the_class(tmp_path):
    src = _with_method(tmp_path, "report", "Report", (
        "    @classmethod\n"
        "    def zero(cls, command):\n"
        "        return cls(command, {})\n\n"
        "    def cleared(self):\n"
        "        return Report.zero(self.command)\n\n"))
    assert _Layout(src).missing() == ["report.Report.cleared"]


def test_guard_flags_uncalled_private_names(tmp_path):
    src = _with_method(tmp_path, "report", "Report", (
        "    def _helper(self):\n"
        "        return self\n\n"))
    path = os.path.join(src, "report.py")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _helper(x):\n    return _helper(x)\n\n\n"
                 "class _Unused:\n    pass\n")
    assert _Layout(src).missing() == [
        "report.Report._helper", "report._helper", "report._Unused"]


def test_module_constants_are_scanned():
    defined = _Layout(SRC).defined()
    assert {"tautalg.LARGE", "tautalg.DEG1", "tautalg.DEG2", "tautalg.SQUARES",
            "relations._REL_CACHE", "rat.Rat", "cli.USAGE_ERROR"} <= defined


def test_guard_flags_unread_module_constants(tmp_path):
    src = tmp_path / "tautrel"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "report.py", "a", encoding="utf-8") as fh:
        fh.write("\n\n_UNREAD = 1\nUNREAD_TOO: int = 2\n_WRITTEN = {}\n"
                 "try:\n    _TRIED = 3\nexcept ImportError:\n    _TRIED = 4\n\n\n"
                 "def _writer():\n    _WRITTEN[1] = _writer\n\n\n"
                 "_writer()\n")
    assert _Layout(str(src)).missing() == [
        "report._UNREAD", "report.UNREAD_TOO", "report._TRIED", "report._TRIED"]


def _private_imports(src) -> list:
    """(importer, module.name) of each import of another module's
    single-underscore name in src; dunders such as __version__ aside."""
    out = []
    for mod, tree in _modules(src):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                out += [(mod, f"{node.module}.{a.name}") for a in node.names
                        if not _public(a.name) and not _dunder(a.name)]
    return out


def test_no_private_names_imported_across_modules():
    found = _private_imports(SRC)
    unlisted = [f"{mod} <- {name}" for mod, name in found
                if name not in PRIVATE_IMPORTS.get(mod, ())]
    assert not unlisted, "private names imported from another module: " + ", ".join(unlisted)
    listed = {(mod, name) for mod, names in PRIVATE_IMPORTS.items() for name in names}
    assert listed == set(found), "stale PRIVATE_IMPORTS entries"


def test_one_polynomial_representation():
    """Every polynomial of the package is a RatFunc: no module defines or
    imports the sparse MPoly, which is the tests' reference now
    (tests/mpoly_oracle.py), and the package does not export it."""
    for mod, tree in _modules(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                assert node.name != "MPoly", mod
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                assert "MPoly" not in {a.name for a in node.names}, mod
    assert "MPoly" not in tautrel.__all__ and not hasattr(tautrel, "MPoly")


def test_guard_flags_a_private_import(tmp_path):
    src = tmp_path / "tautrel"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "report.py", "a", encoding="utf-8") as fh:
        fh.write("\nfrom .obstruction import _pencil, decide\nfrom . import __version__\n")
    assert [name for mod, name in _private_imports(str(src)) if mod == "report"] == [
        "obstruction._pencil"]


def _caches() -> list:
    """(module.name, object) of each lru_cache and each *_CACHE dict bound
    at module level in tautrel's modules, a name imported from another
    module included."""
    out = []
    for info in pkgutil.iter_modules(tautrel.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"tautrel.{info.name}")
        for name, value in vars(mod).items():
            if hasattr(value, "cache_clear") or (name.endswith("_CACHE")
                                                 and isinstance(value, dict)):
                out.append((f"{info.name}.{name}", value))
    return out


def _unlisted() -> list:
    return [name for name, cache in _caches() if not any(cache is c for c in CACHES)]


def test_cold_caches_empty_every_cache():
    assert not _unlisted(), "caches --cold-caches leaves warm: " + ", ".join(_unlisted())
    found = [cache for _, cache in _caches()]
    assert all(any(c is cache for cache in found) for c in CACHES), "stale CACHES entries"


def test_cache_guard_flags_a_new_cache(monkeypatch):
    from tautrel import symbolic

    monkeypatch.setattr(symbolic, "_PLANTED_CACHE", {}, raising=False)
    monkeypatch.setattr(symbolic, "planted", functools.lru_cache(abs), raising=False)
    assert _unlisted() == ["symbolic._PLANTED_CACHE", "symbolic.planted"]
