"""Workload definitions: the instance corpus, the op list, and the references.

Every workload draws its instances with `generate_random` from a corpus seed
(0 by default; corpus seed 1 is held out for re-checking claims), so the work
of a run does not swing with instance hardness: B&B times spread over two
orders of magnitude between random instances of one size, and even relabeling
the variables changes node counts.  The run's `--seed` sets the op order.
Instances reach the solver the way the CLI reads them: `emit_json` then
`parse_json`.

An op is one `solve(...)` ("solve", mode) or one
`cli.root_relaxation_bound(...)` ("root", method).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Stratum:
    family: str
    n: int
    count: int
    k: int | None = None
    m: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "solve" or "root"
    modes: tuple
    strata: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bnb-spectral",
            "solve",
            ("eig", "eigz"),
            (
                Stratum("cbqp", 20, 8, k=5),
                Stratum("cbqp", 16, 8, k=4),
                Stratum("boxqp", 10, 8),
                Stratum("eiqp", 8, 8, m=1),
            ),
        ),
        Workload(
            "bnb-auto",
            "solve",
            ("auto",),
            (
                Stratum("cbqp", 8, 18, k=2),
                Stratum("cbqp", 10, 14, k=3),
                Stratum("boxqp", 4, 6),
                Stratum("eiqp", 4, 8, m=1),
                Stratum("eiqp", 5, 6, m=1),
            ),
        ),
        Workload(
            "root-bounds",
            "root",
            ("eig", "geig", "eigz", "mccormick", "separable"),
            (
                Stratum("cbqp", 12, 12, k=3),
                Stratum("boxqp", 6, 10),
                Stratum("eiqp", 6, 12, m=1),
            ),
        ),
    )
}


def instance_texts(sqp, workload: Workload, corpus_seed: int = 0):
    """[(name, json_text)] for the workload's corpus."""
    out = []
    for s, stratum in enumerate(workload.strata):
        for j in range(stratum.count):
            spec = sqp.GeneratorSpec(
                family=stratum.family,
                n=stratum.n,
                density=0.5,
                k=stratum.k,
                m=stratum.m,
                seed=10_000 * corpus_seed + 100 * s + j,
            )
            p = sqp.generate_random(spec)
            out.append((p.name, sqp.emit_json(p)))
    return out


def load(sqp, texts):
    return [sqp.parse_json(text, name=name) for name, text in texts]


def op_list(workload: Workload, n_instances: int, seed: int):
    """[(instance index, mode)] in a seeded order; the modes of one instance
    stay together so a pass interleaves the strata."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_instances)
    return [(int(i), mode) for i in order for mode in workload.modes]


def warmup_instance(sqp):
    """A fixed tiny instance for the untimed warm-up (it has an equality row,
    so the geig/eigz pencils run too)."""
    return sqp.generate_random(sqp.GeneratorSpec(family="eiqp", n=4, m=1, seed=0))


def reference(sqp, oracle, p):
    """(value, source): the exact optimum from an oracle where the instance
    is small enough, else None (the modes must then agree with each other,
    or an untimed eig solve supplies the value)."""
    if p.is_pure_binary() and p.n <= oracle.MAX_BINARY_N:
        return oracle.enumerate_binary(p).value, "enumerate_binary"
    if not p.integers and p.m == 0 and p.p == 0 and p.n <= oracle.MAX_BOX_N:
        return oracle.enumerate_box_kkt(p).value, "enumerate_box_kkt"
    return None, None


def tol(ref: float) -> float:
    return 1e-5 * (1.0 + abs(ref))

