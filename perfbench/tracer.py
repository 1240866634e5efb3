"""Span tracer for the traced benchmark run.

`Tracer.install()` replaces every public function of the solver's modules by
a timing wrapper, in every `spectralqp` namespace that holds a reference to it
(so `from .relaxation import restrict` inside `bnb` is wrapped too), and
`uninstall()` puts the originals back.  Each call records one span
(name, start, end, parent, op, note) in memory; `note` keeps what the layer
metrics need from the return value (QP/LP status and iterations, the KKT
verdict).  `layer_metrics()` turns the spans of the timed passes into the
per-layer metrics, self time being a span's duration minus its direct
children.  The oracle module is never wrapped: it only serves as the
benchmark's reference.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("problem", "linalg", "relaxation", "qpsolve", "branching", "bnb", "cli")

BRANCH_RULES = tuple(
    f"branching.{fn}"
    for fn in (
        "spectral_branch_exact",
        "spectral_branch_gct",
        "spectral_branch_approx",
        "most_fractional_branch",
        "spatial_branch",
    )
)

NAME, START, END, PARENT, OP, NOTE = range(6)


def _qp_note(sol):
    return (sol.status, sol.iterations)


def _kkt_note(rep):
    return bool(rep.passed)


NOTES = {
    "qpsolve.solve_convex_qp": _qp_note,
    "qpsolve.solve_lp": _qp_note,
    "qpsolve.verify_kkt": _kkt_note,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self.stack, NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            k = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(k)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # a tuple of atomic values, which the garbage collector untracks
                spans[k] = (name, start, end, parent, self.op, None)
            if note is not None:
                spans[k] = (name, start, end, parent, self.op, note(out))
            return out

        return traced

    def _plan(self, package):
        """[(namespace, attribute, original, wrapper)] for every place a
        public layer function is looked up."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        plan = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    plan.append((mod, attr, value, wrappers[id(value)]))
        return plan

    def install(self, package: str = "spectralqp"):
        if not self._patched:
            self._patched = self._plan(package)
        for mod, attr, _, wrapper in self._patched:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patched:
            setattr(mod, attr, original)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _self_times(spans):
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def layer_metrics(spans, passes: int, wall_s: float, nodes: int, solve_stats: dict) -> dict:
    """Per-layer metrics per pass from the spans of `passes` timed passes
    (op >= 0).  `wall_s` is the traced pass time, `nodes` and `solve_stats`
    the per-pass sums taken from the SolveResults."""
    selfs = _self_times(spans)
    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    lp = {"calls": 0, "s": 0.0, "iters": 0, "maxiter": 0}
    qp = dict(lp)
    kkt_pass = 0
    for rec, st in zip(spans, selfs):
        if rec[OP] < 0:
            continue
        name = rec[NAME]
        dur = rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + st
        if name == "qpsolve.solve_lp" or (
            name == "qpsolve.solve_convex_qp"
            and not (rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "qpsolve.solve_lp")
        ):
            # an LP runs solve_convex_qp inside solve_lp: that span is LP work
            cls = lp if name == "qpsolve.solve_lp" else qp
            cls["calls"] += 1
            cls["s"] += dur
            if rec[NOTE] is not None:      # None: the solve raised
                status, iters = rec[NOTE]
                cls["iters"] += iters
                cls["maxiter"] += status == "max_iter"
        elif name == "qpsolve.verify_kkt":
            kkt_pass += bool(rec[NOTE])

    def per_pass(v):
        return v / passes

    def group(prefix, names, use_self=False):
        src = self_s if use_self else total
        return {
            f"{prefix}.calls": per_pass(sum(calls.get(n, 0) for n in names)),
            f"{prefix}.s": per_pass(sum(src.get(n, 0.0) for n in names)),
        }

    out: dict = {}
    for tag, cls in (("lp", lp), ("qp", qp)):
        out[f"qpsolve.{tag}.calls"] = per_pass(cls["calls"])
        out[f"qpsolve.{tag}.s"] = per_pass(cls["s"])
        out[f"qpsolve.{tag}.iters"] = per_pass(cls["iters"])
        out[f"qpsolve.{tag}.maxiter_frac"] = cls["maxiter"] / cls["calls"] if cls["calls"] else 0.0
        out[f"qpsolve.{tag}.wall_share"] = per_pass(cls["s"]) / wall_s
    out.update(group("qpsolve.verify_kkt", ["qpsolve.verify_kkt"]))
    n_kkt = calls.get("qpsolve.verify_kkt", 0)
    out["qpsolve.kkt_pass_frac"] = kkt_pass / n_kkt if n_kkt else 0.0

    for fn in ("sym_eig_min", "gen_eig_min", "nullspace_basis"):
        out.update(group(f"linalg.{fn}", [f"linalg.{fn}"]))
    eig_calls = out["linalg.sym_eig_min.calls"] + out["linalg.gen_eig_min.calls"]
    out["linalg.eig_calls_per_node"] = eig_calls / nodes if nodes else 0.0

    # relaxation work is self time: the separable builder's direction LPs
    # and the eigz shift's pencil solves are counted in their own layers
    out.update(group("relaxation.restrict", ["relaxation.restrict"]))
    shifts = [n for n in calls if n.startswith("relaxation.compute_shift_")]
    out.update(group("relaxation.shift", shifts, use_self=True))
    for kind in ("spectral", "mccormick", "separable"):
        name = f"relaxation.build_{kind}_relaxation"
        out.update(group(name, [name], use_self=True))

    out["bnb.solve.self_s"] = per_pass(self_s.get("bnb.solve", 0.0))
    out["bnb.nodes"] = per_pass(nodes)
    solve_s = per_pass(total.get("bnb.solve", 0.0))
    out["bnb.nodes_per_s"] = out["bnb.nodes"] / solve_s if solve_s else 0.0
    out.update(group("bnb.upper_bound_heuristic", ["bnb.upper_bound_heuristic"]))
    for key in ("qp_solves", "lp_solves", "kkt_discards", "heuristic_hits"):
        out[f"bnb.{key}"] = per_pass(solve_stats.get(key, 0))

    out.update(group("branching.select", BRANCH_RULES))
    out.update(group("problem.check_feasibility", ["problem.check_feasibility"]))
    out.update(group("cli.root_relaxation_bound", ["cli.root_relaxation_bound"]))

    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = per_pass(sum(self_s[n] for n in names))
        out[f"{layer}.self_share"] = out[f"{layer}.self_s"] / wall_s
    return out


def layer_unit(name: str) -> str:
    if name.endswith("per_node"):
        return "calls/node"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith((".s", "self_s", ".wall_s")):
        return "s"
    if name.endswith((".calls", ".iters", "nodes", "_solves", "_discards", "_hits")):
        return "count"
    return "ratio"


def setup_parse_seconds(spans) -> float:
    """Time spent in problem.parse_json during set-up (op < 0)."""
    return sum(
        rec[END] - rec[START]
        for rec in spans
        if rec[OP] < 0 and rec[NAME] == "problem.parse_json"
    )
