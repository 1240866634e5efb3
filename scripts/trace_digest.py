#!/usr/bin/env python3
"""Print one CSV row per (instance, mode) solve with a digest of its trace.

Columns: instance,mode,status,nodes,f_ubd,trace_sha256.  The instances are
the criterion-1 CBQP grid (one per (n, density) cell) plus a few BoxQP and
integer-with-equality (eiqp) instances; every relaxation mode is run with
default settings.  Two revisions produce the same traces exactly when their
outputs are identical:

    python3 scripts/trace_digest.py > new.csv && diff old.csv new.csv
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spectralqp.bnb import MODES, SolverConfig, solve
from spectralqp.cli import _jsonify
from spectralqp.problem import GeneratorSpec, generate_random

SPECS = [
    GeneratorSpec(family="cbqp", n=n, density=rho, k=max(1, n // 4), seed=s)
    for s, (n, rho) in enumerate((n, rho) for n in (8, 10, 12) for rho in (0.25, 0.5, 1.0))
]
SPECS += [GeneratorSpec(family="boxqp", n=n, seed=s) for s, n in enumerate((4, 5, 6))]
SPECS += [GeneratorSpec(family="eiqp", n=n, m=1, seed=s) for s, n in enumerate((4, 5, 6))]


def main() -> int:
    print("instance,mode,status,nodes,f_ubd,trace_sha256")
    for spec in SPECS:
        problem = generate_random(spec)
        for mode in MODES:
            res = solve(problem, SolverConfig(relaxation=mode))
            text = "".join(json.dumps(_jsonify(rec)) + "\n" for rec in res.trace)
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{problem.name},{mode},{res.status},{res.nodes},{res.f_ubd!r},{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
