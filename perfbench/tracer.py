"""Call tracing for the traced benchmark run.

install() wraps tautrel's public functions and methods in every module
namespace that bound them (mpoly_gcd is bound in ratfunc, constraint and
the package; build_relation_set in relations, obstruction, truncation and
cli), so that a call made through any import path is seen.  Every public
name of the pipeline modules is wrapped.  In the arithmetic kernel
(mpoly, ratfunc, cubicext) and in tautalg only the names that feed a
metric are: their other public helpers (gen_key, mono_mul, upoly_mul,
CubicField.coerce, ...) run hundreds of thousands of times per operation;
wrapping them slowed a traced sweep by about 80% and added no metric.
Their time shows as self time of the traced caller.  rat is not
wrapped: Rat is a builtin class (fractions.Fraction or gmpy2.mpq).

Each wrapped name belongs to a group: the layer metric it feeds (for
example "cubicext.arith" or "linalg.rref.cubic"), or its own qualified
name.  Per group the tracer keeps

  calls   outermost calls only (a group calling itself, as CubicExt.__sub__
          calling __add__, counts once),
  s       inclusive seconds of those outermost calls,
  self_s  seconds not covered by traced child calls.

The pipeline's metric-bearing calls and the CLI entry points are also
kept in memory as spans (id, name, start, end, parent, op) and written out
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter

MODULES = ("mpoly", "ratfunc", "cubicext", "linalg", "tautalg", "relations",
           "truncation", "symbolic", "obstruction", "constraint", "report", "cli")
METRIC_ONLY_MODULES = ("mpoly", "ratfunc", "cubicext", "tautalg")
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__pow__")
FIELD_KINDS = ("qq", "ratfunc", "cubic", "cubic_ratfunc")
CALLS, INCL, SELF, DEPTH = range(4)


class Tracer:
    def __init__(self):
        self.stats = {}  # group -> [calls, inclusive s, self s, open depth]
        self.counts = {}
        self.built = set()  # ids of the relation sets returned so far
        self.spans = []
        self.top_level_s = 0.0  # time in outermost traced calls
        self.top_level_child_s = 0.0  # time in traced calls directly below them
        self.op = None
        self._children = [0.0]  # child seconds of each open call; [0] is the root
        self._span = None  # id of the innermost open span

    def stat(self, group: str) -> list:
        st = self.stats.get(group)
        if st is None:
            st = self.stats[group] = [0, 0.0, 0.0, 0]
        return st

    def count(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, fn, st, args, kwargs):
        depth = st[DEPTH]
        st[DEPTH] = depth + 1
        children = self._children
        children.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            st[DEPTH] = depth
            if depth == 0:
                st[CALLS] += 1
                st[INCL] += dur
            child = children.pop()
            st[SELF] += dur - child
            children[-1] += dur
            if len(children) == 1:
                self.top_level_s += dur
                self.top_level_child_s += child

    def call_span(self, fn, st, name, args, kwargs):
        parent = self._span
        span_id = self._span = len(self.spans)
        self.spans.append(None)
        t0 = perf_counter()
        try:
            return self.call(fn, st, args, kwargs)
        finally:
            self.spans[span_id] = (span_id, name, t0, perf_counter(), parent, self.op)
            self._span = parent


def field_kind(field) -> str:
    from tautrel.cubicext import CubicField
    from tautrel.rat import RationalField
    from tautrel.ratfunc import FracField

    if isinstance(field, CubicField):
        return "cubic" if isinstance(field.base, RationalField) else "cubic_ratfunc"
    if isinstance(field, FracField):
        return "ratfunc"
    if isinstance(field, RationalField):
        return "qq"
    return "other"


# Wrapped names that feed a layer metric: qualified name -> group.  The
# rref and det groups also carry the matrix's field kind, known per call.
GROUPS = {
    "ratfunc.mpoly_gcd": "ratfunc.mpoly_gcd",
    "cubicext.CubicExt.inverse": "cubicext.inverse",
    "cubicext.ext_invert": "cubicext.inverse",
    "linalg.ExactMatrix.rref": "linalg.rref",
    "linalg.ExactMatrix.det": "linalg.det",
    "linalg.ExactMatrix.solve": "linalg.solve",
    "linalg.ExactMatrix.kernel": "linalg.kernel",
    "linalg.ExactMatrix.inverse": "linalg.inverse",
    "tautalg.beta_pushforward": "tautalg.beta_pushforward",
    "tautalg.GradedPoly.__mul__": "tautalg.mul",
    "tautalg.GradedPoly.__rmul__": "tautalg.mul",
    "tautalg.BetaClass.__mul__": "tautalg.mul",
    "tautalg.BetaClass.__rmul__": "tautalg.mul",
    "relations.build_relation_set": "relations.build",
    "relations.verify_rank12": "relations.verify_rank12",
    "truncation.matrices_M": "truncation.blocks",
    "truncation.matrices_N": "truncation.blocks",
    "truncation.checkpoint_reference_M": "truncation.checkpoint",
    "symbolic.symbolic_MN": "symbolic.symbolic_MN",
    "symbolic.symbolic_matrices_at": "symbolic.matrices_at",
    "obstruction.decide": "obstruction.decide",
    "obstruction.cubic_det": "obstruction.cubic_det",
    "obstruction.analyze_node": "obstruction.analyze_node",
    "obstruction.solve_S": "obstruction.solve_S",
    "obstruction.solve_AB": "obstruction.solve_AB",
    "obstruction.solve_UV": "obstruction.solve_UV",
    "constraint.constraint_analysis": "constraint.analysis",
    "constraint.constraint_slice": "constraint.slice",
    "constraint.solve_AB_reduced": "constraint.solve_AB_reduced",
    "report.Report.render": "report.render",
}
for _cls, _layer, _ops in (("MPoly", "mpoly", ARITH[:6] + ("exact_div",)),
                           ("RatFunc", "ratfunc", ARITH),
                           ("CubicExt", "cubicext", ARITH)):
    for _op in _ops:
        GROUPS[f"{_layer}.{_cls}.{_op}"] = f"{_layer}.arith"
BY_FIELD = ("linalg.rref", "linalg.det")
# no spans for the kernel and for tautalg products: millions of calls
NO_SPANS = ("mpoly.", "ratfunc.", "cubicext.", "tautalg.mul")
AFTER = ("linalg.rref", "relations.build", "obstruction.solve_S", "obstruction.solve_UV")


def _after_call(tracer, group, args, result):
    """Counters that need the call's arguments or result."""
    if group.startswith("linalg.rref."):
        tracer.count(f"{group}.cells", args[0].rows * args[0].cols)
    elif group == "relations.build":
        # a miss returns an object no earlier call returned
        if id(result) not in tracer.built:
            tracer.built.add(id(result))
            tracer.count("relations.build.misses")
    elif group == "obstruction.solve_S":
        tracer.count("obstruction.solve_S.candidates", len(result))
    elif group == "obstruction.solve_UV" and result.status == "solvable":
        tracer.count("obstruction.solve_UV.solvable")


def _wrap(tracer, fn, qualname):
    group = GROUPS.get(qualname, qualname)
    by_field, after = group in BY_FIELD, group in AFTER
    if by_field or qualname.startswith("cli.") or (
            qualname in GROUPS and not group.startswith(NO_SPANS)):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            g = f"{group}.{field_kind(args[0].field)}" if by_field else group
            result = tracer.call_span(fn, tracer.stat(g), g, args, kwargs)
            if after:
                _after_call(tracer, g, args, result)
            return result
        return wrapper
    st = tracer.stat(group)
    call = tracer.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return call(fn, st, args, kwargs)
    return wrapper


def _methods(cls, metric_only: bool):
    for name, attr in list(vars(cls).items()):
        qual = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{name}"
        if metric_only and qual not in GROUPS:
            continue
        if name.startswith("_") and name not in ARITH:
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            yield qual, name, attr.__func__, type(attr)
        elif inspect.isfunction(attr):
            yield qual, name, attr, None


def install(tracer: Tracer) -> list:
    """Wrap tautrel's public names; returns the qualified names wrapped."""
    import tautrel

    modules = {m: sys.modules[f"tautrel.{m}"] for m in MODULES}
    wrappers = {}  # id(original function) -> (original, wrapper)
    wrapped = []
    for mod_name, mod in modules.items():
        metric_only = mod_name in METRIC_ONLY_MODULES
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for qual, mname, fn, kind in _methods(obj, metric_only):
                    w = _wrap(tracer, fn, qual)
                    setattr(obj, mname, kind(w) if kind else w)
                    wrapped.append(qual)
            elif callable(obj):
                qual = f"{mod_name}.{name}"
                if not metric_only or qual in GROUPS:
                    wrappers[id(obj)] = (obj, _wrap(tracer, obj, qual))
                    wrapped.append(qual)
    # rebind the function in every namespace that imported it
    for ns in list(modules.values()) + [tautrel]:
        for name, obj in list(vars(ns).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, name, hit[1])
    return sorted(wrapped)


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(t: Tracer, top_s: float, child_s: float, wall_s: float) -> tuple:
    """(metrics, bases): every per-layer metric, by name: value (units in
    BENCHMARK.json), and the base of each ratio or order statistic, by name.

    top_s is the time of the outermost traced calls (the entry points)
    inside the operations, whose traced wall time is wall_s; child_s is
    the time of the traced calls directly below those entry points."""
    def get(group, field):
        st = t.stats.get(group)
        return st[field] if st else (0 if field == CALLS else 0.0)

    m, bases = {}, {}

    def calls_s(group):
        m[f"{group}.calls"] = get(group, CALLS)
        m[f"{group}.s"] = get(group, INCL)

    m["mpoly.arith.calls"] = get("mpoly.arith", CALLS)
    calls_s("ratfunc.mpoly_gcd")
    calls_s("ratfunc.arith")
    calls_s("cubicext.arith")
    m["cubicext.inverse.calls"] = get("cubicext.inverse", CALLS)
    for f in FIELD_KINDS:
        calls_s(f"linalg.rref.{f}")
        m[f"linalg.rref.{f}.cells"] = t.counts.get(f"linalg.rref.{f}.cells", 0)
        calls_s(f"linalg.det.{f}")
    calls_s("linalg.solve")
    m["linalg.kernel.calls"] = get("linalg.kernel", CALLS)
    m["linalg.inverse.calls"] = get("linalg.inverse", CALLS)
    calls_s("tautalg.beta_pushforward")
    calls_s("tautalg.mul")
    calls_s("relations.build")
    builds = m["relations.build.calls"]
    misses = t.counts.get("relations.build.misses", 0)
    m["relations.build.misses"] = misses
    m["relations.build.hit_ratio"] = (builds - misses) / builds if builds else 0.0
    bases["relations.build.hit_ratio"] = f"{builds} relations.build calls"
    m["relations.build.self_s"] = get("relations.build", SELF)
    m["relations.verify_rank12.s"] = get("relations.verify_rank12", INCL)
    m["truncation.blocks.s"] = get("truncation.blocks", INCL)
    m["truncation.checkpoint.s"] = get("truncation.checkpoint", INCL)
    m["symbolic.symbolic_MN.s"] = get("symbolic.symbolic_MN", INCL)
    m["symbolic.symbolic_MN.self_s"] = get("symbolic.symbolic_MN", SELF)
    calls_s("symbolic.matrices_at")
    calls_s("obstruction.decide")
    times = sorted(end - start for _, name, start, end, _, _ in t.spans
                   if name == "obstruction.decide")
    m["obstruction.decide.p50_s"] = statistics.median(times) if times else 0.0
    m["obstruction.decide.max_s"] = times[-1] if times else 0.0
    # a sweep run has too few decides (25) for a tail percentile: the
    # highest with ten samples beyond it is the 60th, so the maximum stands
    # for the tail
    bases["obstruction.decide.p50_s"] = bases["obstruction.decide.max_s"] = f"{len(times)} decides"
    for g in ("cubic_det", "analyze_node", "solve_S"):
        m[f"obstruction.{g}.s"] = get(f"obstruction.{g}", INCL)
    m["obstruction.solve_S.candidates"] = t.counts.get("obstruction.solve_S.candidates", 0)
    calls_s("obstruction.solve_AB")
    calls_s("obstruction.solve_UV")
    uv = m["obstruction.solve_UV.calls"]
    solvable = t.counts.get("obstruction.solve_UV.solvable", 0)
    m["obstruction.solve_UV.solvable_ratio"] = solvable / uv if uv else 0.0
    bases["obstruction.solve_UV.solvable_ratio"] = f"{uv} solve_UV calls"
    m["constraint.analysis.s"] = get("constraint.analysis", INCL)
    calls_s("constraint.slice")
    calls_s("constraint.solve_AB_reduced")
    m["report.render.s"] = get("report.render", INCL)
    m["trace.coverage"] = top_s / wall_s if wall_s else 0.0
    bases["trace.coverage"] = f"{wall_s:.6g} s traced wall time"
    m["trace.child_coverage"] = child_s / top_s if top_s else 0.0
    bases["trace.child_coverage"] = f"{top_s:.6g} s in entry points"
    return m, bases
