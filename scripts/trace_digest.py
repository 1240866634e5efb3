#!/usr/bin/env python3
"""Print a digest of every B&B solve and root bound on a fixed instance set.

Three CSV tables:

* `instance,mode,status,nodes,f_ubd,trace_sha256`: one row per (instance,
  mode) solve with default settings, hashing its trace;
* `instance,root_method,bound`: one row per (instance, root relaxation)
  with `repr` of `cli.root_relaxation_bound`;
* `instance,root_method,max_iter,bound`: one row per (instance, spectral
  mode) with `repr` of the bound of its root QP cut off after `max_iter`
  active-set iterations (most root QPs converge within that many, so
  these rows mostly repeat the converged bound).

The instances are the criterion-1 CBQP grid (one per (n, density) cell), a
few BoxQP and integer-with-equality (eiqp) instances, and one CBQP whose
cardinality row is written as two inequality rows, since no generated family
has any: its QPs are the ones whose active-set phase 1 is a HiGHS LP.  The
auto and mccormick modes also reach McCormick LPs (HiGHS).  Two revisions
compute the same traces and bounds exactly when their outputs are identical:

    python3 scripts/trace_digest.py > new.csv && diff old.csv new.csv

With `--reverse` each table solves its instances in reverse order and
prints its rows in the usual order, so the output is the same unless a
result depends on what the process solved before it (HiGHS keeps one
instance per thread):

    python3 scripts/trace_digest.py --reverse | cmp new.csv -
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spectralqp import qpsolve
from spectralqp.bnb import MODES, SolverConfig, solve
from spectralqp.cli import RELAXATION_COLUMNS, _jsonify, root_relaxation_bound
from spectralqp.problem import GeneratorSpec, generate_random, validate
from spectralqp.relaxation import (
    build_spectral_relaxation,
    restrict,
    shift_for_mode,
)

SPECS = [
    GeneratorSpec(family="cbqp", n=n, density=rho, k=max(1, n // 4), seed=s)
    for s, (n, rho) in enumerate((n, rho) for n in (8, 10, 12) for rho in (0.25, 0.5, 1.0))
]
SPECS += [GeneratorSpec(family="boxqp", n=n, seed=s) for s, n in enumerate((4, 5, 6))]
SPECS += [GeneratorSpec(family="eiqp", n=n, m=1, seed=s) for s, n in enumerate((4, 5, 6))]
# the one instance whose McCormick LPs ended in a successful ADMM polish when
# LPs still ran on ADMM (the QP engine before the active-set method); kept so
# digests of older revisions stay comparable
SPECS.append(GeneratorSpec(family="eiqp", n=4, m=1, seed=303))

TRUNCATED_MAX_ITER = 50


def cardinality_as_inequalities(spec: GeneratorSpec):
    """The cbqp instance of `spec` with sum(x) = k written as the two rows
    sum(x) <= k and -sum(x) <= -k."""
    p = generate_random(spec)
    row = np.ones((1, p.n))
    return validate(
        n=p.n, Q=p.Q, q=p.q, C=np.vstack([row, -row]), d=[spec.k, -spec.k],
        lb=p.lb, ub=p.ub, integers=p.integers, name=p.name + "_ineq",
    )


def instances():
    problems = [generate_random(spec) for spec in SPECS]
    problems.append(cardinality_as_inequalities(SPECS[0]))
    return problems


def truncated_root_bound(problem, mode: str) -> float:
    """The bound of the root QP of a spectral mode after at most
    TRUNCATED_MAX_ITER active-set iterations."""
    R = restrict(problem, problem.lb, problem.ub)
    model = build_spectral_relaxation(R, shift_for_mode(mode, R.Q, R.A))
    return qpsolve.solve_convex_qp(model, max_iter=TRUNCATED_MAX_ITER).bound


def solve_rows(problem):
    rows = []
    for mode in MODES:
        res = solve(problem, SolverConfig(relaxation=mode))
        text = "".join(json.dumps(_jsonify(rec)) + "\n" for rec in res.trace)
        digest = hashlib.sha256(text.encode()).hexdigest()
        rows.append(f"{problem.name},{mode},{res.status},{res.nodes},{res.f_ubd!r},{digest}")
    return rows


def root_rows(problem):
    return [
        f"{problem.name},{method.lower()},{root_relaxation_bound(problem, method.lower())!r}"
        for method in RELAXATION_COLUMNS
    ]


def truncated_rows(problem):
    return [
        f"{problem.name},{mode},{TRUNCATED_MAX_ITER},{truncated_root_bound(problem, mode)!r}"
        for mode in ("eig", "geig", "eigz")
    ]


# each table's header and the function that makes its rows for one instance
TABLES = (
    ("instance,mode,status,nodes,f_ubd,trace_sha256", solve_rows),
    ("instance,root_method,bound", root_rows),
    ("instance,root_method,max_iter,bound", truncated_rows),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--reverse", action="store_true",
        help="solve the instances of each table in reverse order; the rows print in the usual order",
    )
    args = parser.parse_args()
    problems = instances()
    indices = range(len(problems))
    for header, rows_of in TABLES:
        rows = {i: rows_of(problems[i]) for i in (indices[::-1] if args.reverse else indices)}
        print(header)
        for i in indices:
            print("\n".join(rows[i]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
