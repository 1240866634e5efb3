"""Command-line surface: solve instances, compare root relaxations, run the
branching-rule study, and generate instance corpora.

Subcommands
    solve <instance>         branch-and-bound run, SolveResult as JSON on stdout
    root-gaps <dir>          CSV `instance,relaxation,bound,gap_percent,time_ms`
                             for EIG/GEIG/EIGZ/MCCORMICK/SEPARABLE root bounds
    branch-study             CSV `sample,rule,gap_percent` for the approx vs
                             GCT branching comparison, plus median summary rows
    gen <family>             write random instances as JSON files

Exit codes: 0 optimal / normal completion, 2 time or node limit, 3 infeasible,
1 any error, including command-line usage errors.  Set SPECTRAL_MIQP_LOG to
error|info|debug to control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import statistics
import sys
import time

import numpy as np

from . import qpsolve
from .bnb import MODES, RULES, SolverConfig, relative_gap, solve
from .branching import (
    branching_gap_metric,
    spectral_branch_approx,
    spectral_branch_gct,
)
from .oracle import MAX_BINARY_N, MAX_BOX_N, enumerate_binary, enumerate_box_kkt
from .problem import (
    GeneratorSpec,
    ProblemFormatError,
    ProblemInstance,
    _random_symmetric,
    emit_json,
    generate_random,
    parse_json,
    parse_qplib,
)
from .relaxation import (
    build_mccormick_relaxation,
    build_separable_relaxation,
    build_spectral_relaxation,
    compute_shift_eig,
    shift_for_mode,
    restrict,
)

log = logging.getLogger("spectralqp.cli")

RELAXATION_COLUMNS = ("EIG", "GEIG", "EIGZ", "MCCORMICK", "SEPARABLE")
UPPER_BOUND_BUDGET_S = 10.0

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LIMIT = 2
EXIT_INFEASIBLE = 3


def _setup_logging():
    level = os.environ.get("SPECTRAL_MIQP_LOG", "error").lower()
    chosen = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level, logging.ERROR
    )
    logging.basicConfig(level=chosen, format="%(levelname)s %(name)s: %(message)s")


def _jsonify(obj):
    """JSON-safe copy: numpy scalars/arrays to python, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _load_instance(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    if path.lower().endswith(".json"):
        return parse_json(text, name=name)
    return parse_qplib(text, name=name)


# ------------------------------------------------------------- root bounds


def root_relaxation_bound(problem: ProblemInstance, method: str) -> float:
    """Root-node lower bound from one relaxation: the certified `bound` of
    its solve (finite for every QP, and for every LP HiGHS returns
    multipliers for), +inf when it certifies infeasibility (the separable
    builder's None, when a direction LP does), nan when it certifies
    nothing."""
    R = restrict(problem, problem.lb, problem.ub)
    method = method.lower()
    if method in ("eig", "geig", "eigz"):
        model = build_spectral_relaxation(R, shift_for_mode(method, R.Q, R.A))
        sol = qpsolve.solve_convex_qp(model)
    elif method == "mccormick":
        model = build_mccormick_relaxation(R)
        sol = qpsolve.solve_lp(model)
    elif method == "separable":
        model = build_separable_relaxation(R, qpsolve.solve_lps)
        if model is None:
            return math.inf
        sol = qpsolve.solve_convex_qp(model)
    else:
        raise ValueError(f"unknown relaxation {method!r}")
    return math.nan if sol.bound == -math.inf else sol.bound


def _upper_bound_for(problem: ProblemInstance, budget_s: float):
    """(value, source) where source notes how f_UBD was obtained: the exact
    oracle when the instance is within the enumeration guards, otherwise the
    best incumbent of a budgeted solve.  value is None when nothing feasible
    was found."""
    if problem.is_pure_binary() and problem.n <= MAX_BINARY_N:
        ref = enumerate_binary(problem)
        if math.isfinite(ref.value):
            return ref.value, "oracle"
        return None, "oracle-infeasible"
    if (
        not problem.integers
        and problem.m == 0
        and problem.p == 0
        and problem.n <= MAX_BOX_N
    ):
        ref = enumerate_box_kkt(problem)
        if math.isfinite(ref.value):
            return ref.value, "oracle"
        return None, "oracle-infeasible"
    res = solve(problem, SolverConfig(time_limit=budget_s, keep_trace=False))
    if res.x is not None:
        return res.f_ubd, "incumbent"
    return None, "none"


# --------------------------------------------------------------- commands


def cmd_solve(args) -> int:
    problem = _load_instance(args.instance)
    cfg = SolverConfig(
        relaxation=args.relax,
        branch_rule=args.branch,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        time_limit=args.time_limit,
        node_limit=args.node_limit,
        keep_trace=True,
    )
    log.info("solving %s with relax=%s branch=%s", problem.name, args.relax, args.branch)
    res = solve(problem, cfg)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for rec in res.trace:
                fh.write(json.dumps(_jsonify(rec)) + "\n")
    report = {
        "instance": problem.name,
        "status": res.status,
        "objective": res.f_ubd,
        "lower_bound": res.f_lbd,
        "gap_percent": res.gap_percent,
        "x": res.x,
        "nodes": res.nodes,
        "wall_time_s": res.wall_time_s,
        "stats": res.stats,
    }
    print(json.dumps(_jsonify(report), indent=2))
    if res.status == "optimal":
        return EXIT_OK
    if res.status == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_LIMIT


def _format_float(v: float) -> str:
    if v == 0.0:
        v = 0.0     # avoid "-0" rows
    return f"{v:.10g}"


def _root_gap_rows(path: str, budget_s: float):
    problem = _load_instance(path)
    ub, source = _upper_bound_for(problem, budget_s)
    meta = f"# upper_bound,{problem.name},{'' if ub is None else _format_float(ub)},{source}"
    rows = []
    for column in RELAXATION_COLUMNS:
        t0 = time.monotonic()
        bound = root_relaxation_bound(problem, column.lower())
        ms = 1000.0 * (time.monotonic() - t0)
        if ub is None or not math.isfinite(bound):
            gap = ""
        else:
            gap = _format_float(relative_gap(ub, bound))
        bound_txt = "" if math.isnan(bound) else _format_float(bound)
        rows.append(f"{problem.name},{column},{bound_txt},{gap},{ms:.3f}")
    return meta, rows


def cmd_root_gaps(args) -> int:
    paths = sorted(
        os.path.join(args.corpus, f)
        for f in os.listdir(args.corpus)
        if f.lower().endswith((".json", ".qplib"))
    )
    if not paths:
        print(f"error: no instances found in {args.corpus}", file=sys.stderr)
        return EXIT_ERROR
    results = [_root_gap_rows(p, args.budget) for p in paths]
    lines = []
    for meta, _ in results:
        lines.append(meta)
    lines.append("instance,relaxation,bound,gap_percent,time_ms")
    for _, rows in results:
        lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_branch_study(args) -> int:
    if args.n < 3:
        print("error: branch-study needs n >= 3", file=sys.stderr)
        return EXIT_ERROR
    if args.samples < 1:
        print("error: branch-study needs samples >= 1", file=sys.stderr)
        return EXIT_ERROR
    rng = np.random.default_rng(args.seed)
    B = tuple(range(args.n))
    lines = ["sample,rule,gap_percent"]
    gaps = {"approx": [], "gct": []}
    for s in range(args.samples):
        Q = _random_symmetric(rng, args.n, args.density, -10.0, 10.0)
        shift = compute_shift_eig(Q)
        i_approx = spectral_branch_approx(shift, B)
        i_gct = spectral_branch_gct(Q, B)
        for rule, idx in (("approx", i_approx), ("gct", i_gct)):
            g = branching_gap_metric(Q, idx)
            gaps[rule].append(g)
            lines.append(f"{s},{rule},{_format_float(g)}")
    for rule in ("approx", "gct"):
        lines.append(f"median,{rule},{_format_float(statistics.median(gaps[rule]))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_generate(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    written = []
    for i in range(args.count):
        spec = GeneratorSpec(
            family=args.family,
            n=args.n,
            density=args.density,
            k=args.k,
            m=args.m,
            seed=args.seed + i,
            int_bound=args.int_bound,
        )
        problem = generate_random(spec)
        path = os.path.join(args.out, problem.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_json(problem))
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting with argparse's code 2, which
    is EXIT_LIMIT here; main() reports them with EXIT_ERROR."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectralqp",
        description="Spectral branch-and-bound for nonconvex QP/MIQP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("instance", help="path to a .json or QPLIB instance")
    p_solve.add_argument(
        "--relax",
        default="auto",
        choices=MODES,
        help="relaxation mode (separable is a root-gaps column only)",
    )
    p_solve.add_argument("--branch", default="auto", choices=RULES)
    p_solve.add_argument("--rel-tol", type=float, default=1e-6)
    p_solve.add_argument("--abs-tol", type=float, default=1e-6)
    p_solve.add_argument("--time-limit", type=float, default=None)
    p_solve.add_argument("--node-limit", type=int, default=None)
    p_solve.add_argument("--trace", default=None, help="write node trace (JSON lines)")
    p_solve.set_defaults(func=cmd_solve)

    p_gaps = sub.add_parser("root-gaps", help="root relaxation comparison CSV")
    p_gaps.add_argument("corpus", help="directory of instance files")
    p_gaps.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_gaps.add_argument(
        "--budget",
        type=float,
        default=UPPER_BOUND_BUDGET_S,
        help="seconds for the incumbent run when the oracle is out of reach",
    )
    p_gaps.set_defaults(func=cmd_root_gaps)

    p_study = sub.add_parser("branch-study", help="approx vs GCT branching gaps CSV")
    p_study.add_argument("--n", type=int, default=50)
    p_study.add_argument("--density", type=float, default=0.5)
    p_study.add_argument("--samples", type=int, default=100)
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_study.set_defaults(func=cmd_branch_study)

    p_gen = sub.add_parser("gen", help="generate random instances")
    p_gen.add_argument("family", choices=("cbqp", "boxqp", "eiqp"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--k", type=int, default=None, help="cardinality (cbqp)")
    p_gen.add_argument("--m", type=int, default=0, help="equality rows (eiqp)")
    p_gen.add_argument("--int-bound", type=int, default=5, help="upper bound (eiqp)")
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
