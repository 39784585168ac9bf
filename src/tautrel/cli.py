"""Command-line front end.

    tautrel verify --d 5 --chi 1 [--chi2 2] [--mode symbolic]
    tautrel decide --d 5 --chi1 1 --chi2 2
    tautrel sweep --dmin 5 --dmax 8 [--jobs N]
    tautrel constraint --d 5
    tautrel emit --what {relations,matrices,verdicts} --d 5 --chi 1 \
                 [--chi2 2] --out PATH [--format {json,text}]

emit reads --chi2 for verdicts only, where --chi and --chi2 name one
pair and neither gives all of d's pairs.

verify, emit --what matrices, decide and sweep read the twelve
degree-d relations at the 27 tracked monomials from one
relations.tracked_block per point (decide and sweep through
obstruction.side_at): the closed form of exp(L) (symbolic) evaluated
and eliminated at the point, at about the same cost for every d,
without building a full relation set.  verify and side_at take the
block's pencil cubic from one function, obstruction.pencil.  The full
expansion by the recurrence, build_relation_set, serves emit --what
relations and verify --mode symbolic, which checks the symbolic blocks
against it.

Exit codes: 0 all checks pass, 1 mathematical mismatch, 2 usage or IO
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

from .constraint import constraint_analysis
from .obstruction import (
    NotNodal,
    a33_coefficient_formula,
    analyze_node,
    congruent,
    coprime_chis,
    coprime_pairs,
    decide,
    pencil,
)
from .rat import QQ, Rat
from .relations import (
    build_relation_set,
    det1_formula,
    det2_formula,
    mon2,
    tracked_block,
    verify_rank12,
)
from .report import Report
from .symbolic import SYM_FIELD, symbolic_MN
from .truncation import (
    CheckpointMismatch,
    checkpoint_reference_M,
    matrices_M,
    matrices_N,
    reference_M_templates,
    truncation_block,
)

USAGE_ERROR = 2
MATH_ERROR = 1


def _verify_pair(report: Report, d: int, chi: int) -> None:
    """The checkpoints at (d, chi), every one read from the twelve
    relations at the 27 tracked monomials (relations.tracked_block)."""
    block = tracked_block(d, chi)
    loc = f"d={d},chi={chi}"
    for name, want, got in (("det1_formula", det1_formula(d, chi), block.det1),
                            ("det2_formula", det2_formula(d), block.det2)):
        report.add(name, got == want, want, got, loc)
    try:
        rep = checkpoint_reference_M(block)
        report.add("reference_matrices", rep["entries_checked"] == 27, 27,
                   rep["entries_checked"], loc)
    except CheckpointMismatch as e:
        report.add("reference_matrices", False, "27/27 entries", str(e), loc)
    ok, trace = verify_rank12(block)
    report.add("rank12", ok, 12, trace["rank"], loc)
    leads = block.leading_monos()
    expected = mon2(d)[3:]
    report.add("echelon_leading_terms", leads == expected, expected, leads, loc)
    cubic = pencil(block)
    try:
        node = analyze_node(cubic, QQ)
        coeff = node["coefficient"]
        want = -Rat(chi * (d - chi) * (d - 2 * chi)) / Rat(4 * (d - 2) * d * d)
        report.add("nodal_coefficient", coeff == want, want, coeff, loc)
    except NotNodal as e:
        report.add("nodal_coefficient", False, "node at [0:0:1]", str(e), loc)
    # det M_1 and det M_2 are the x1^3 and x2^3 coefficients of the cubic
    for i, key in enumerate(((3, 0, 0), (0, 3, 0))):
        det = cubic.get(key, QQ.zero)
        report.add(f"detM{i + 1}_nonzero", det != 0, "nonzero", det, loc)


def _verify_triple(report: Report, d: int, chi1: int, chi2: int) -> None:
    """The Type I checks and the verdict, all read from decide's verdict:
    each Type I candidate has no (A, B) (kernel dimension 0), and its a33
    forcing coefficient is 2/(d-4) times a33_coefficient_formula."""
    loc = f"d={d},chi1={chi1},chi2={chi2}"
    v = decide(d, chi1, chi2)
    forcing = {c["candidate"]: c["a33_forcing_coefficient"]
               for c in v.certificates if c["stage"] == "AB"}
    want = a33_coefficient_formula(d, chi1, chi2) * Rat(2, d - 4)
    for label, dim in v.kernel_dims.items():
        if not label.startswith("type_I["):
            continue
        root = label[len("type_I["):-1]
        status = "no_invertible" if dim == 0 else "solution"
        report.add(f"type_I_no_solution[{root}]", dim == 0, "no_invertible", status, loc)
        # a Rat prints canonically, and an element off the base prints a t
        got = forcing.get(label)
        report.add(f"type_I_a33_certificate[{root}]", got == str(want), want, got, loc)
    report.add("verdict_matches_congruence", v.agrees,
               congruent(d, chi1, chi2), v.verdict, loc)


def _symbolic_templates_match() -> bool:
    """symbolic_MN's M blocks are the reference templates over QQ(d, chi1):
    free of (d, chi), so verify checks it once and reports it per point."""
    Msym = symbolic_MN()[0]
    T = reference_M_templates(SYM_FIELD.gen("d"), SYM_FIELD.gen("chi1"), SYM_FIELD)
    return all(Msym[i][s, t] == T[i][s, t] for i in range(3) for s in range(3) for t in range(3))


def _verify_symbolic(report: Report, d: int, chi: int, ok: bool) -> None:
    report.add("symbolic_reference_matrices", ok, "27/27 rational functions", ok)
    # the symbolic elimination itself, evaluated at the point
    Msym, Nsym = symbolic_MN()
    at = {"d": d, "chi1": chi}
    # the full expansion, so the symbolic pipeline is checked against an
    # independent derivation
    block = build_relation_set(d, chi).block
    Mc, Nc = matrices_M(block), matrices_N(block)
    okM = all(Msym[i][s, t].eval(at) == Mc[i][s, t]
              for i in range(3) for s in range(3) for t in range(3))
    okN = all(Nsym[i][s, t].eval(at) == Nc[i][s, t]
              for i in range(3) for s in range(3) for t in range(3))
    report.add("symbolic_evaluation_matches_concrete_M", okM, True, okM)
    report.add("symbolic_evaluation_matches_concrete_N", okN, True, okN)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _chi_error(name: str, chi: int, d: int):
    """Why verify cannot take chi at d, or None."""
    if math.gcd(d, chi) != 1:
        return f"NotCoprime: {name}={chi}, d={d}"
    if not 0 < chi < d:
        return f"0 < {name} < d required ({name}={chi}, d={d})"
    return None


def cmd_verify(args) -> int:
    try:
        fixed = None if args.chi in (None, "all") else int(args.chi)
    except ValueError:
        return _usage_error(f"--chi takes an integer or 'all' (got {args.chi!r})")
    dmax = args.d if args.dmax is None else args.dmax
    if dmax < args.d:
        return _usage_error(f"need d <= dmax (got d={args.d}, dmax={dmax})")
    pairs = []
    for d in range(args.d, dmax + 1):
        if d < 5:
            return _usage_error(f"d >= 5 required for relation checkpoints (got {d})")
        for chi in coprime_chis(d) if fixed is None else [fixed]:
            err = _chi_error("chi", chi, d)
            if err is None and args.chi2 is not None:
                err = _chi_error("chi2", args.chi2, d)
            if err:
                return _usage_error(err)
            pairs.append((d, chi))
    config = {"d": args.d, "dmax": args.dmax, "chi": args.chi,
              "chi2": args.chi2, "mode": args.mode}
    report = Report("verify", config)
    templates_ok = _symbolic_templates_match() if args.mode == "symbolic" else None
    for d, chi in pairs:
        if args.mode == "symbolic":
            _verify_symbolic(report, d, chi, templates_ok)
        else:
            _verify_pair(report, d, chi)
        if args.chi2 is not None:
            _verify_triple(report, d, chi, args.chi2)
    return _write_output(report.render(args.format), args.out,
                         0 if report.passed else MATH_ERROR)


def cmd_decide(args) -> int:
    config = {"d": args.d, "chi1": args.chi1, "chi2": args.chi2}
    report = Report("decide", config)
    try:
        v = decide(args.d, args.chi1, args.chi2)
    except ValueError as e:  # NotCoprime included
        return _usage_error(str(e))
    report.results.append(v.to_json())
    report.add("verdict_matches_congruence", v.agrees,
               "NoObstruction" if v.expected_isomorphic else "ObstructionFound",
               v.verdict)
    return _write_output(report.render(args.format), args.out,
                         0 if v.agrees else MATH_ERROR)


def _error_row(task, error: str, message: str, tb) -> dict:
    """The row of a pair that has no verdict: the pair, the error, its
    message and the frame of the traceback entry tb."""
    d, c1, c2 = task
    code = tb.tb_frame.f_code
    return {"d": d, "chi1": c1, "chi2": c2, "error": error, "message": message,
            "raised_at": f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} "
                         f"in {code.co_name}"}


def _sweep_worker(task):
    """The verdict row of one pair, or an error row that names the pair,
    the exception type and the frame that raised it, so that one failing
    pair keeps the others."""
    d, c1, c2 = task
    try:
        return decide(d, c1, c2).to_json()
    except Exception as e:  # reported as a failed check, never dropped
        tb = e.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        return _error_row(task, type(e).__name__, str(e), tb)


def _pool(workers: int):
    """A pool of worker processes started fresh (spawn), not forked from
    this process, whose pool runs a thread of its own."""
    # loaded here, for a parallel sweep only: no other command starts a process
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))


def _pooled_rows(tasks: list, jobs: int) -> list:
    """The rows of tasks, in their order, from pools of jobs worker
    processes, each pool given at most jobs pairs at a time.  A worker
    that dies, by a crash or a kill, breaks its pool and loses only the
    pairs then given out, so the sweep never waits on a dead worker: each
    lost pair is decided once more by a fresh worker of its own, and gets
    a WorkerDied error row if that one dies too, and the rest go on in a
    fresh pool.  A pool found broken when given a pair loses none."""
    # loaded here, with the logging they import, for a parallel sweep only
    from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

    rows, todo = {}, tasks[::-1]
    while todo:
        lost, out, broken = [], {}, False
        with _pool(jobs) as pool:
            while (todo or out) and not broken:
                while todo and len(out) < jobs and not broken:
                    task = todo.pop()
                    try:
                        out[pool.submit(_sweep_worker, task)] = task
                    except BrokenExecutor:  # a worker died between two pairs
                        todo.append(task)
                        broken = True
                done, _ = wait(out, return_when=FIRST_COMPLETED)
                if broken or any(isinstance(f.exception(), BrokenExecutor) for f in done):
                    broken = True
                    done, _ = wait(out)  # the pool is broken: every pair out ends
                for fut in done:
                    task = out.pop(fut)
                    if isinstance(fut.exception(), BrokenExecutor):
                        lost.append(task)
                    else:
                        rows[task] = fut.result()
        for task in lost:
            with _pool(1) as pool:
                try:
                    rows[task] = pool.submit(_sweep_worker, task).result()
                except BrokenExecutor as e:
                    rows[task] = _error_row(task, "WorkerDied",
                                            f"its worker process died twice: {e}",
                                            e.__traceback__)
    return [rows[t] for t in tasks]


def cmd_sweep(args) -> int:
    if not (5 <= args.dmin <= args.dmax):
        return _usage_error("need 5 <= dmin <= dmax")
    if args.jobs is not None and args.jobs < 1:
        return _usage_error(f"--jobs must be at least 1 (got {args.jobs})")
    config = {"dmin": args.dmin, "dmax": args.dmax, "jobs": args.jobs}
    report = Report("sweep", config)
    tasks = [
        (d, c1, c2)
        for d in range(args.dmin, args.dmax + 1)
        for (c1, c2) in coprime_pairs(d)
    ]
    # no more workers than pairs or CPUs; the config keeps the --jobs given
    cpus = os.cpu_count() or 1
    jobs = min(args.jobs or cpus, cpus, len(tasks))
    if jobs > 1:
        rows = _pooled_rows(tasks, jobs)
    else:
        rows = [_sweep_worker(t) for t in tasks]
    report.results = rows
    agree = sum(1 for r in rows if r.get("agrees"))
    report.add("agreement", agree == len(rows), f"{len(rows)}/{len(rows)}",
               f"{agree}/{len(rows)}")
    for r in rows:
        if "error" in r:
            report.add("decide_error", False, "a verdict",
                       f"{r['error']}: {r['message']} (raised at {r['raised_at']})",
                       f"d={r['d']},chi1={r['chi1']},chi2={r['chi2']}")
    return _write_output(report.render(args.format), args.out,
                         0 if report.passed else MATH_ERROR)


def cmd_constraint(args) -> int:
    """The constraint analysis at d: P1, its checks, the structure checks
    and one check per congruent pair, whose branch rows go in the results."""
    if args.d < 5:
        return _usage_error(f"d >= 5 required (got {args.d})")
    rep = constraint_analysis(args.d)
    report = Report("constraint", {"d": args.d})
    report.results.append({"P1": str(rep.P1), "pair_agreement": rep.pair_agreement})
    for name, ok in {**rep.P1_checks, **rep.structure_checks}.items():
        report.add(name, ok)
    for row in rep.pair_agreement:
        report.add("pair_agreement", row["agrees"], location=f"chi1={row['chi1']},chi2={row['chi2']}")
    return _write_output(report.render(args.format), args.out,
                         0 if rep.ok() else MATH_ERROR)


def cmd_emit(args) -> int:
    d, chi = args.d, args.chi
    try:
        if args.what == "relations":
            payload = build_relation_set(d, chi).to_json()
        elif args.what == "matrices":
            payload = truncation_block(tracked_block(d, chi)).to_json()
        else:
            if args.chi2 is not None:
                payload = decide(d, chi, args.chi2).to_json()
            else:
                payload = {
                    "schema": "tautrel/verdicts/1",
                    "d": d,
                    "verdicts": [
                        decide(d, c1, c2).to_json()
                        for (c1, c2) in coprime_pairs(d)
                    ],
                }
    except ValueError as e:  # NotCoprime included
        return _usage_error(str(e))
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    else:
        text = _render_payload_text(payload)
    return _write_output(text, args.out, 0)


def _render_payload_text(payload: dict) -> str:
    lines = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}{k}.", v) if isinstance(v, (dict, list)) else lines.append(
                    f"{prefix}{k} = {v}"
                )
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}{i}.", v) if isinstance(v, (dict, list)) else lines.append(
                    f"{prefix}{i} = {v}"
                )

    walk("", payload)
    return "\n".join(lines) + "\n"


def _write_output(text: str, out, code: int) -> int:
    """Write text to out (None or "-": stdout); code, or 2 if out cannot be written."""
    if out is None or out == "-":
        sys.stdout.write(text)
        return code
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        return _usage_error(f"cannot write {out}: {e}")
    return code


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and kept for
    the life of the process: parsing changes no state of it, and each
    command's function reads the module's names when it runs."""
    p = argparse.ArgumentParser(prog="tautrel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run checkpoint suites")
    v.add_argument("--d", type=int, required=True)
    v.add_argument("--dmax", type=int)
    v.add_argument("--chi", default=None)
    v.add_argument("--chi2", type=int)
    v.add_argument("--mode", choices=["concrete", "symbolic"], default="concrete")
    v.add_argument("--format", choices=["json", "text"], default="text")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    dd = sub.add_parser("decide", help="decide one (d, chi1, chi2) triple")
    dd.add_argument("--d", type=int, required=True)
    dd.add_argument("--chi1", type=int, required=True)
    dd.add_argument("--chi2", type=int, required=True)
    dd.add_argument("--format", choices=["json", "text"], default="text")
    dd.add_argument("--out")
    dd.set_defaults(fn=cmd_decide)

    s = sub.add_parser("sweep", help="decide all coprime pairs in a d range")
    s.add_argument("--dmin", type=int, required=True)
    s.add_argument("--dmax", type=int, required=True)
    s.add_argument("--jobs", type=int, default=None,
                   help="worker processes, at most one per pair and per CPU "
                        "(default: one per CPU)")
    s.add_argument("--format", choices=["json", "text"], default="text")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("constraint", help="the compatibility constraint and P1 at d")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--format", choices=["json", "text"], default="text")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_constraint)

    e = sub.add_parser("emit", help="write canonical artifacts")
    e.add_argument("--what", choices=["relations", "matrices", "verdicts"],
                   required=True)
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--chi", type=int)
    e.add_argument("--chi2", type=int)
    e.add_argument("--out", default="-")
    e.add_argument("--format", choices=["json", "text"], default="json")
    e.set_defaults(fn=cmd_emit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    if args.command == "emit" and args.what == "verdicts":
        # the verdict of one pair, or all of d's, never half a pair
        if (args.chi is None) != (args.chi2 is None):
            return _usage_error("--chi2 needs --chi" if args.chi is None else "--chi needs --chi2")
    elif args.command == "emit":
        if args.chi is None:
            return _usage_error("--chi required")
        if args.chi2 is not None:
            return _usage_error(f"--what {args.what} takes no --chi2")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
