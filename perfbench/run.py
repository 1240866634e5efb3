"""Solver benchmark: time to certified optimum and root-bound quality.

Run from the repository root; the solver is imported from ./src:

    python3 perfbench/run.py --workload bnb-spectral --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see corpus.py): `bnb-spectral` (solve in eig and eigz mode),
`bnb-auto` (solve in the default auto mode) and `root-bounds` (one
`cli.root_relaxation_bound` per instance and relaxation).  One client issues
the ops back to back (closed loop, no think time) in a single process with
BLAS pinned to one thread.  A pass runs every op of the workload once; passes
repeat while the next one is expected to end within `--seconds`.

Every output is checked: status optimal, x feasible with objective f_ubd,
f_lbd <= reference <= f_ubd against the exhaustive oracles (or, past their
size, agreement across modes or an untimed eig solve), root bounds below the
reference and ordered eig <= geig <= eigz, and identical per-op fingerprints
(node count and sha256 of the JSON trace) on every pass.  A violation counts
as a failed op.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs every op untraced
and then with every public solver function wrapped (tracer.py), and prints
the per-layer metrics.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; `--workload all` runs each
workload in a fresh process and prints one row per workload.  Details,
fingerprints and spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".bench_out"
SETUP_REPS = 3
TAIL_BEYOND = 10
MAX_SHOWN_FAILURES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
    "root_gap_pct": "%",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--corpus-seed",
        type=int,
        default=0,
        help="instance draw seed; 1 is held out for re-checking claims",
    )
    return ap.parse_args(argv)


class Bench:
    """One workload in one process: set-up, references, timed passes,
    checks and metrics."""

    def __init__(self, args, t_import):
        import corpus
        import spectralqp as sqp
        from spectralqp import cli, oracle

        self.args = args
        self.corpus, self.sqp, self.cli, self.oracle = corpus, sqp, cli, oracle
        self.workload = corpus.WORKLOADS[args.workload]
        self.import_s = t_import
        self.problems = None

    # ------------------------------------------------------------ set-up

    def _run_op(self, problem, mode):
        if self.workload.kind == "solve":
            return self.sqp.solve(problem, self.sqp.SolverConfig(relaxation=mode))
        return self.cli.root_relaxation_bound(problem, mode)

    def load_corpus(self):
        c = self.corpus
        texts = c.instance_texts(self.sqp, self.workload, self.args.corpus_seed)
        self.problems = c.load(self.sqp, texts)

    def setup(self):
        """Corpus load plus one untimed warm-up op per mode, SETUP_REPS
        times; set-up time is the import time plus the median repetition."""
        warm = self.corpus.warmup_instance(self.sqp)
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.load_corpus()
            for mode in self.workload.modes:
                self._run_op(warm, mode)
            reps.append(time.perf_counter() - t0)
        self.setup_s = self.import_s + statistics.median(reps)
        self.ops = self.corpus.op_list(self.workload, len(self.problems), self.args.seed)

    def references(self):
        """Oracle optimum per instance where one applies; single-mode
        workloads get an untimed eig solve for the rest."""
        refs = []
        for p in self.problems:
            value, source = self.corpus.reference(self.sqp, self.oracle, p)
            if value is None and (self.workload.kind == "root" or len(self.workload.modes) == 1):
                res = self.sqp.solve(p, self.sqp.SolverConfig(relaxation="eig"))
                if res.status == "optimal":
                    value, source = res.f_ubd, "eig_solve"
            refs.append((value, source))
        self.refs = refs

    # ------------------------------------------------------------ passes

    def _fingerprint(self, out):
        if isinstance(out, Exception):
            return ("error", repr(out))
        if self.workload.kind == "root":
            return (repr(float(out)),)
        h = hashlib.sha256()
        for rec in out.trace:
            h.update((json.dumps(self.cli._jsonify(rec)) + "\n").encode())
        return (out.nodes, h.hexdigest(), repr(out.f_ubd), repr(out.f_lbd))

    def _timed(self, i, mode):
        gc.collect()   # untimed: no op pays for the garbage of the one before
        t0 = time.perf_counter()
        try:
            out = self._run_op(self.problems[i], mode)
        except Exception as exc:  # a failed op is counted, not fatal
            traceback.print_exc()
            out = exc
        return time.perf_counter() - t0, out

    def passes(self, budget_s, tracer=None):
        """Run whole passes while the next is expected to end within
        budget_s (at least one).  Returns (untraced passes, traced passes,
        outputs of the first pass), a pass being (pass_s, [op_s],
        [fingerprint]); an op that raises yields its exception as output.
        With a tracer every op also runs traced, right after its untraced
        run, so both timings see the same host state."""
        done, traced = [], []
        first = None
        t_start = time.perf_counter()
        while True:
            rows = {False: ([], []), True: ([], [])}
            outs = []
            for j, (i, mode) in enumerate(self.ops):
                for with_trace in (False, True) if tracer is not None else (False,):
                    if with_trace:
                        tracer.install()
                        tracer.op = j
                    try:
                        t, out = self._timed(i, mode)
                    finally:
                        if with_trace:
                            tracer.op = -1
                            tracer.uninstall()
                    rows[with_trace][0].append(t)
                    rows[with_trace][1].append(self._fingerprint(out))
                    if not with_trace:
                        outs.append(out)
            if first is None:
                first = outs
            for target, (times, prints) in ((done, rows[False]), (traced, rows[True])):
                if times:
                    target.append((sum(times), times, prints))
            elapsed = time.perf_counter() - t_start
            per_pass = statistics.median(d[0] for d in done)
            per_pass += statistics.median(d[0] for d in traced) if traced else 0.0
            if elapsed + per_pass > budget_s:
                return done, traced, first

    # ------------------------------------------------------------ checks

    def check(self, outs):
        """Errors per op of one pass, and the root bound each op reached.
        Instances without an oracle or eig reference take the best f_ubd
        over the modes, which must agree."""
        errors = [[] for _ in self.ops]
        roots = [None] * len(self.ops)
        by_inst: dict = {}
        for j, (i, mode) in enumerate(self.ops):
            if isinstance(outs[j], Exception):
                errors[j].append(f"raised {outs[j]!r}")
            else:
                by_inst.setdefault(i, {})[mode] = j
        check_one = self._check_solves if self.workload.kind == "solve" else self._check_roots
        for i, modes in by_inst.items():
            check_one(i, modes, outs, errors, roots)
        return errors, roots

    def _check_solves(self, i, modes, outs, errors, roots):
        sqp, p = self.sqp, self.problems[i]
        ref = self.refs[i][0]
        if ref is None:
            ref = min(outs[j].f_ubd for j in modes.values())
            self.refs[i] = (ref, "cross_mode")
        t = self.corpus.tol(ref)
        for j in modes.values():
            res, e = outs[j], errors[j]
            if res.trace and res.trace[0]["bound"] is not None:
                roots[j] = res.trace[0]["bound"]
            if res.status != "optimal" or res.x is None:
                e.append(f"status {res.status}")
                continue
            if not sqp.check_feasibility(p, res.x).feasible:
                e.append("x infeasible")
            if abs(sqp.evaluate_objective(p, res.x) - res.f_ubd) > t:
                e.append("objective(x) != f_ubd")
            if not (res.f_lbd <= ref + t and ref <= res.f_ubd + t):
                e.append(f"not f_lbd {res.f_lbd} <= ref {ref} <= f_ubd {res.f_ubd}")
            if res.f_ubd > ref + t:
                e.append(f"f_ubd {res.f_ubd} above reference {ref}")

    def _check_roots(self, i, modes, outs, errors, roots):
        ref = self.refs[i][0]
        for j in modes.values():
            b = roots[j] = float(outs[j])
            if ref is None:
                errors[j].append("no reference optimum")
            elif not math.isfinite(b):
                errors[j].append(f"bound {b} not finite")
            elif b > ref + self.corpus.tol(ref):
                errors[j].append(f"bound {b} above reference {ref}")
        # the paper's alpha_z <= alpha_g <= alpha_e: eig <= geig <= eigz
        for lo, hi in (("eig", "geig"), ("geig", "eigz")):
            if lo in modes and hi in modes:
                blo, bhi = roots[modes[lo]], roots[modes[hi]]
                if not blo <= bhi + self.corpus.tol(bhi):
                    errors[modes[hi]].append(f"{lo} {blo} > {hi} {bhi}")

    # ------------------------------------------------------------ metrics

    def end_to_end(self, done, roots):
        per_op = [statistics.median([d[1][j] for d in done]) for j in range(len(self.ops))]
        s = sorted(per_op)
        n = len(s)
        tail_idx = max(0, n - TAIL_BEYOND - 1)
        self.tail_pct = 100.0 * tail_idx / n if n else 0.0
        gap = self.sqp.bnb.relative_gap    # the CLI's root-gap formula
        gaps = [
            gap(self.refs[i][0], r)
            for (i, _), r in zip(self.ops, roots)
            if r is not None and self.refs[i][0] is not None
        ]
        self.per_mode_gap = {}
        for mode in self.workload.modes:
            g = [
                gap(self.refs[i][0], r)
                for (i, m), r in zip(self.ops, roots)
                if m == mode and r is not None and self.refs[i][0] is not None
            ]
            if g:
                self.per_mode_gap[mode] = sum(g) / len(g)
        return {
            "setup_s": self.setup_s,
            "wall_s": statistics.median([d[0] for d in done]),
            "op_s.p50": statistics.median(per_op),
            "op_s.tail": s[tail_idx],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "root_gap_pct": sum(gaps) / len(gaps) if gaps else float("nan"),
        }


def _environment(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
    }


def run_workload(args, root) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (import time is part of set-up)

    import spectralqp
    from spectralqp import bnb, branching, cli, linalg, qpsolve, relaxation  # noqa: F401

    t_import = time.perf_counter() - t0
    if not os.path.abspath(spectralqp.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"error: spectralqp imported from {spectralqp.__file__}", file=sys.stderr)
        return 2
    import corpus
    import tracer as tracing

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    bench = Bench(args, t_import)
    bench.setup()
    bench.references()
    gc.collect()
    gc.freeze()     # keeps the per-op gc.collect() from rescanning the imported modules
    wl = bench.workload
    layer = {}
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            bench.load_corpus()     # spans of the set-up work (op -1)
        finally:
            tr.uninstall()
    done, traced, outs = bench.passes(args.seconds, tracer=tr)

    errors, roots = bench.check(outs)
    base = done[0][2]
    attempted = failed = 0
    mismatches = 0
    for d in done + traced:
        for j, fp in enumerate(d[2]):
            attempted += 1
            bad = bool(errors[j]) or fp != base[j]
            mismatches += fp != base[j]
            failed += bad
    e2e = bench.end_to_end(done, roots)

    if args.trace:
        nodes = 0
        stats: dict = {}
        if wl.kind == "solve":
            for res in outs:
                if isinstance(res, Exception):
                    continue
                nodes += res.nodes
                for key in ("qp_solves", "lp_solves", "kkt_discards", "heuristic_hits"):
                    stats[key] = stats.get(key, 0) + res.stats[key]
        traced_wall = statistics.median([d[0] for d in traced])
        layer = tracing.layer_metrics(tr.spans, len(traced), traced_wall, nodes, stats)
        layer["problem.parse_json.s"] = tracing.setup_parse_seconds(tr.spans)
        layer["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1.0
        layer["trace.wall_s"] = traced_wall

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tr.write(stem + "-spans.jsonl")
    record = {
        "workload": wl.name,
        "environment": _environment(args),
        "passes": len(done),
        "traced_passes": len(traced),
        "ops": [
            {
                "instance": bench.problems[i].name,
                "mode": mode,
                "reference": bench.refs[i][0],
                "reference_source": bench.refs[i][1],
                "root_bound": roots[j],
                "fingerprint": list(base[j]),
                "op_s": [d[1][j] for d in done],
                "errors": errors[j],
            }
            for j, (i, mode) in enumerate(bench.ops)
        ],
        "fingerprint_mismatches": mismatches,
        "end_to_end": e2e,
        "op_s.tail_percentile": bench.tail_pct,
        "root_gap_pct_by_mode": bench.per_mode_gap,
        "per_layer": layer,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    fail_frac = failed / attempted
    print(
        f"{wl.name}: ops/pass={len(bench.ops)} passes={len(done)}+{len(traced)}traced "
        f"fail_frac={fail_frac:.4g} ({failed}/{attempted}) "
        f"op_s.tail=p{bench.tail_pct:.1f} of {len(bench.ops)} ops "
        f"fingerprint_mismatches={mismatches}"
    )
    failures = sorted({m for errs in errors for m in errs})
    for e in failures[:MAX_SHOWN_FAILURES]:
        print(f"  check failed: {e}")
    if len(failures) > MAX_SHOWN_FAILURES:
        print(f"  ... {len(failures) - MAX_SHOWN_FAILURES} more in {stem}.json")
    for k, v in e2e.items():
        print(f"  {k} = {v:.6g} {END_TO_END_UNITS[k]}")
    for mode, g in bench.per_mode_gap.items():
        print(f"  root_gap_pct.{mode} = {g:.6g} %")
    metrics = layer if args.trace else e2e
    unit = tracing.layer_unit if args.trace else END_TO_END_UNITS.get
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0


def run_all(args, root) -> int:
    """Each workload in a fresh process; one row per workload."""
    import corpus

    rows = []
    status = 0
    for name in corpus.WORKLOADS:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--corpus-seed", str(args.corpus_seed),
        ]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        row["fail_frac"] = result["failed"] / result["attempted"]
        if name == "root-bounds":
            path = os.path.join(root, OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, encoding="utf-8") as fh:
                gaps = json.load(fh)["root_gap_pct_by_mode"]
            row.update({f"root_gap_pct.{mode}": g for mode, g in gaps.items()})
        rows.append((name, row, result["metrics"]))
    cols = []
    for _, row, _ in rows:
        cols += [k for k in row if k not in cols]
    units = {"fail_frac": "ratio"}
    for _, _, m in rows:
        units.update({k: v["unit"] for k, v in m.items()})
    print("workload," + ",".join(f"{k} [{units.get(k, '%')}]" for k in cols))
    for name, row, _ in rows:
        print(name + "," + ",".join(f"{row[k]:.6g}" if k in row else "-" for k in cols))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"      # before numpy loads
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spectralqp", "__init__.py")):
        print("error: run from the repository root (src/spectralqp not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
