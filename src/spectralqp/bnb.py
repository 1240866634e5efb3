"""Branch-and-bound engine for nonconvex (MI)QP over boxes with linear rows.

A node is its box, two arrays lb and ub over all n variables; a variable
whose range is a point is fixed (`relaxation.free_indices`).  Nodes live on
a best-bound heap (ties by creation order).  Each popped node is restricted
to its model (`relaxation.restrict`), bounded by the configured relaxation
of that model, and fathomed when its bound cannot beat the incumbent minus
abs_tol.  A surviving node searches its relaxation point for an incumbent,
is tested again when that improved the incumbent, and is otherwise branched
into copies of its box with one variable's range edited: binary variables
fixed (their range made a point) through the spectral rules, general
integers split by most-fractional, continuous nonconvex variables narrowed
by envelope-violation spatial splits.  A rule with no candidate returns
None and a fallback decides (most-fractional, then the first free integer;
a bisection of the widest range after the spatial rule); no exception is
caught.  One eigendecomposition of the node's Q decides its shift: convex
nodes (Q restricted PSD, or PSD on the equality nullspace) skip the shift
and solve the plain relaxation, and every other node takes its mode's
shift.  The nullspace test runs only where Cauchy interlacing,
lambda_min(Z'QZ) <= lambda_{1+m}(Q) for m rows, leaves it open.  The eigz pencils (Q, I + delta A'A), also the QP class of AUTO, share
one delta per run, found by the geometric search on the root's data before
the first node.

In AUTO mode the engine arbitrates between the spectral QP and the McCormick
LP with per-class solve intervals omega: a relaxation runs when at least
omega nodes passed since it last ran, whichever bound proves stronger at a
node where both ran gets its interval shrunk and the other grown
(dynamic_selection_update).  A node's bound is the certified `bound` of its
relaxation solve (qpsolve owns the certificate, finite for every solve that
does not prove the node empty): spectral QPs are solved by the active-set
method of qpsolve, McCormick LPs exactly by HiGHS dual simplex.  Every
optimal node solve is checked by qpsolve.verify_kkt; stats["kkt_discards"]
counts the failures and stats["max_accepted_kkt"] the worst residual that
passed.  A bound of +inf proves the node empty and closes it; a node whose
solve certifies nothing (a NaN bound, or no LP past the deadline) keeps its
parent bound.  Relaxation solves stop at the time limit too (the QP at its
next active-set iteration, the LP through HiGHS's own time limit),
returning whatever bound they have certified by then, and no LP starts
past it.

Once an incumbent exists, a branched node's children inherit the box that
reduced-cost tightening proves (Ryoo and Sahinidis, JOGO 1996): from the
slope of each certified solve of the node (qpsolve.tightened_box), no point
of the node outside it beats the incumbent.  Integer bounds round inward,
so an integer whose range closes to a point is fixed, and a child whose box
empties is dropped; stats["reduced_cost_fixings"] counts both.

Every run is single-threaded and deterministic for a fixed (problem, config):
the trace (one record per node) and result are bit-reproducible.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import branching, linalg, qpsolve
from .problem import ProblemInstance, check_feasibility, evaluate_objective
from .relaxation import (
    CONVEX_TOL,
    KIND_NONE,
    ConvexQpModel,
    SpectralShift,
    build_mccormick_relaxation,
    build_spectral_relaxation,
    compute_shift_eigz_approx,
    compute_shift_eigz_exact,
    free_indices,
    shift_for_mode,
    restrict,
)

MODE_EIG = "eig"
MODE_GEIG = "geig"
MODE_EIGZ = "eigz"
MODE_MCCORMICK = "mccormick"
MODE_AUTO = "auto"
MODES = (MODE_EIG, MODE_GEIG, MODE_EIGZ, MODE_MCCORMICK, MODE_AUTO)

RULES = ("approx", "gct", "exact", "fractional", "auto")

STATUS_OPTIMAL = "optimal"
STATUS_TIME_LIMIT = "time_limit"
STATUS_NODE_LIMIT = "node_limit"
STATUS_INFEASIBLE = "infeasible"

TINY_BOX = 1e-9
GAP_FLOOR = 1e-3
PG_STEPS = 100

# dynamic_selection_update: the margin that makes a QP bound decisive, the
# interval growth/shrink factors, and the interval ceilings
SEL_ABS_TOL = 1e-3
SEL_SIGMA_LP = 10.0
SEL_SIGMA_QP = 2.0
OMEGA_LP_MAX = 1000.0
OMEGA_QP_MAX = 10.0


@dataclass
class SolverConfig:
    relaxation: str = MODE_AUTO
    branch_rule: str = "auto"
    rel_tol: float = 1e-6
    abs_tol: float = 1e-6
    time_limit: float | None = None
    node_limit: int | None = None
    keep_trace: bool = True

    def __post_init__(self):
        if self.relaxation not in MODES:
            raise ValueError(f"unknown relaxation mode {self.relaxation!r}")
        if self.branch_rule not in RULES:
            raise ValueError(f"unknown branch rule {self.branch_rule!r}")
        # `not > 0` and `not >= 0` also reject NaN: a NaN tolerance fathoms
        # no node, and a NaN time limit passes every deadline test
        if not self.rel_tol > 0 or not self.abs_tol > 0:
            raise ValueError("tolerances must be positive")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"time_limit must be nonnegative, got {self.time_limit!r}")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node_limit must be nonnegative, got {self.node_limit!r}")


@dataclass(frozen=True)
class SelectionState:
    """Solve intervals (in nodes) for the LP and QP relaxation classes, plus
    nodes-elapsed counters; a class is due when its counter reaches omega."""

    omega_lp: float = 1.0
    omega_qp: float = 1.0
    since_lp: int = 10**9     # start due: the root solves whatever it needs
    since_qp: int = 10**9


def dynamic_selection_update(state: SelectionState, f_lp: float, f_qp: float) -> SelectionState:
    """Rebalance the solve intervals after a node where both bounds exist:
    a decisively stronger QP bound makes the LP rarer and the QP (at least as)
    frequent; otherwise the LP gets more frequent and the QP rarer."""
    if f_qp - f_lp >= SEL_ABS_TOL:
        omega_qp = max(1.0, state.omega_qp / SEL_SIGMA_QP)
        omega_lp = min(OMEGA_LP_MAX, state.omega_lp * SEL_SIGMA_LP)
    else:
        omega_lp = max(1.0, state.omega_lp / SEL_SIGMA_LP)
        omega_qp = min(OMEGA_QP_MAX, state.omega_qp * SEL_SIGMA_QP)
    return replace(state, omega_lp=omega_lp, omega_qp=omega_qp)


def relative_gap(f_ubd: float, f_lbd: float) -> float:
    """100 (f_UBD - f_LBD) / max(|f_LBD|, 1e-3)."""
    if not math.isfinite(f_ubd) or not math.isfinite(f_lbd):
        return math.inf
    return 100.0 * (f_ubd - f_lbd) / max(abs(f_lbd), GAP_FLOOR)


@dataclass(eq=False)
class SolveResult:
    status: str
    x: np.ndarray | None
    f_ubd: float
    f_lbd: float
    gap_percent: float
    nodes: int
    wall_time_s: float
    trace: list | None
    stats: dict


@dataclass(eq=False)
class _Node:
    lb: np.ndarray     # the node's box over all n variables
    ub: np.ndarray
    bound: float       # inherited from the parent's computed bound
    depth: int
    order: int


def _cardinality_row(problem: ProblemInstance):
    """Detects the CBQP structure sum(x) = k; returns k or None."""
    if problem.m != 1 or not problem.is_pure_binary():
        return None
    if not np.all(problem.A[0] == 1.0):
        return None
    k = float(problem.b[0])
    if abs(k - round(k)) > 1e-9:
        return None
    return int(round(k))


@dataclass(frozen=True, eq=False)
class _Structure:
    """What the node loop reads of the problem, computed once per solve."""

    ints: np.ndarray          # mask of the integer variables
    integers: np.ndarray      # their indices, ascending
    binary: bool              # problem.is_pure_binary()
    cardinality: int | None   # k of a cardinality row sum(x) = k, or None
    pg_step: float            # 1 / (2 ||Q||_2): the gradient's inverse Lipschitz constant


def _structure(problem: ProblemInstance) -> _Structure:
    ints = np.zeros(problem.n, dtype=bool)
    ints[list(problem.integers)] = True
    return _Structure(
        ints=ints,
        integers=np.flatnonzero(ints),
        binary=problem.is_pure_binary(),
        cardinality=_cardinality_row(problem),
        pg_step=1.0 / (2.0 * float(np.linalg.norm(problem.Q, ord=2)) + 1e-12),
    )


def upper_bound_heuristic(
    problem: ProblemInstance,
    x0: np.ndarray,
    free: np.ndarray,
    f_ubd: float,
    structure: _Structure,
):
    """Cheap incumbent candidates from a relaxation point x0 over all n
    variables (the node's fixed values filled in, `free` its free
    variables): top-k rounding for cardinality-constrained binaries,
    threshold rounding otherwise, nearest rounding for general integers, and
    <= 100 projected-gradient steps of length `structure.pg_step` on the box
    for purely continuous problems.  Returns (value, x) for the best
    feasible improving candidate, else None."""
    candidates = []
    if problem.integers:
        k = structure.cardinality
        if k is not None:
            xc = x0.copy()
            xc[free] = 0.0
            k_eff = k - int(np.count_nonzero(xc > 0.5))   # less the fixed ones
            if 0 <= k_eff <= free.size:
                order = np.argsort(-x0[free], kind="stable")
                xc[free[order[:k_eff]]] = 1.0
                candidates.append(xc)
        xr = x0.copy()
        idx = structure.integers
        if structure.binary:
            xr[idx] = np.where(xr[idx] >= 0.5, 1.0, 0.0)
        else:
            xr[idx] = np.clip(np.round(xr[idx]), problem.lb[idx], problem.ub[idx])
        candidates.append(xr)
    elif problem.m == 0 and problem.p == 0:
        xg, pg_step = np.clip(x0, problem.lb, problem.ub), structure.pg_step
        for _ in range(PG_STEPS):
            grad = 2.0 * (problem.Q @ xg) + problem.q
            nxt = np.minimum(np.maximum(xg - pg_step * grad, problem.lb), problem.ub)
            if float(np.abs(nxt - xg).max()) <= 1e-12:
                break
            xg = nxt
        candidates.append(xg)
        candidates.append(np.clip(x0, problem.lb, problem.ub))
    else:
        candidates.append(np.clip(x0, problem.lb, problem.ub))

    best = None
    for xc in candidates:
        if not check_feasibility(problem, xc).feasible:
            continue
        val = evaluate_objective(problem, xc)
        if val < f_ubd - 1e-12 and (best is None or val < best[0]):
            best = (val, xc)
    return best


class _Engine:
    def __init__(self, problem: ProblemInstance, config: SolverConfig, deadline: float | None):
        self.config = config
        self.deadline = deadline      # time.monotonic() value ending every solve
        self.selection = SelectionState()
        # delta of the eigz pencils, searched once on the root's data
        self.root_delta: float | None = None
        self.delta_trace: list = []
        if config.relaxation in (MODE_EIGZ, MODE_AUTO) and problem.m:
            shift, self.delta_trace = compute_shift_eigz_approx(problem.Q, problem.A)
            self.root_delta = shift.delta
        self.certified: list = []     # the current node's solves with a finite bound
        self.structure = _structure(problem)
        self.stats = {
            "qp_solves": 0,
            "lp_solves": 0,
            "qp_iterations": 0,
            "lp_iterations": 0,
            "kkt_discards": 0,
            "max_accepted_kkt": 0.0,
            "heuristic_hits": 0,
            "convex_nodes": 0,
            "reduced_cost_fixings": 0,
        }

    # ------------------------------------------------------------- relaxation

    def _shift(self, R: ConvexQpModel) -> SpectralShift | None:
        """The node's shift, from one eigendecomposition of R.Q: zero
        (KIND_NONE) when R.Q is PSD, or PSD on the nullspace of the node's
        equality rows; else None in mccormick mode and the mode's shift
        otherwise, eigz and auto at the run's delta.  The nullspace test
        runs only where the spectrum of R.Q leaves it open."""
        pair = linalg.sym_eig_min(R.Q)
        m = R.A.shape[0]
        convex = pair.value >= -CONVEX_TOL
        if not convex and m:
            # Cauchy interlacing: lambda_min(Z'QZ) <= lambda_{1+m}(Q) for the
            # nullspace Z of m rows, so the spectrum at hand settles most
            # nonconvex nodes without the exact test
            convex = (m >= R.nvar or pair.values[m] >= -CONVEX_TOL) and (
                compute_shift_eigz_exact(R.Q, R.A).lam >= -CONVEX_TOL
            )
        if convex:
            self.stats["convex_nodes"] += 1
            return SpectralShift(KIND_NONE, 0.0, pair.value, pair.vector)
        if self.config.relaxation == MODE_MCCORMICK:
            return None
        return shift_for_mode(self.config.relaxation, R.Q, R.A, self.root_delta, pair)

    def _accept(self, model, sol):
        """The certified bound of a relaxation solve of `model` (+inf for an
        empty node, None when it has none) and its point over the node's
        free variables.  A solve with a finite bound joins `certified`,
        whose slopes tighten the node's children.  stats["kkt_discards"]
        counts optimal solves whose `verify_kkt` failed; their bound is
        still used, since it is certified without the KKT check."""
        if sol.bound == math.inf:
            return math.inf, None
        if sol.status == qpsolve.STATUS_OPTIMAL:
            rep = qpsolve.verify_kkt(model, sol)
            if rep.passed:
                worst = max(rep.stationarity, rep.primal, rep.complementarity, rep.dual_violation)
                self.stats["max_accepted_kkt"] = max(self.stats["max_accepted_kkt"], worst)
            else:
                self.stats["kkt_discards"] += 1
        bound = sol.bound if math.isfinite(sol.bound) else None
        if sol.slope is not None:
            self.certified.append(sol)
        return bound, sol.x

    def _solve_qp(self, R, shift):
        """Bound the node model R by its spectral QP under `shift` (from
        _shift)."""
        model = build_spectral_relaxation(R, shift)
        self.stats["qp_solves"] += 1
        sol = qpsolve.solve_convex_qp(model, deadline=self.deadline)
        self.stats["qp_iterations"] += sol.iterations
        bound, x = self._accept(model, sol)
        return bound, x, shift, model.kind

    def _solve_lp(self, R):
        """Bound the node model R by its McCormick LP; no bound once the
        deadline has passed, so the node keeps its parent bound."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            return None, None
        model = build_mccormick_relaxation(R)
        self.stats["lp_solves"] += 1
        sol = qpsolve.solve_lp(model, deadline=self.deadline)
        self.stats["lp_iterations"] += sol.iterations
        bound, x = self._accept(model, sol)
        return bound, (x[: R.nvar] if x is not None else None)

    def lower_bound(self, R: ConvexQpModel):
        """Bound one node, given its model R from `restrict`.  Returns
        (bound, x_relax, shift, kind_used): bound is +inf when a relaxation
        certifies the node empty, None when none certifies anything."""
        cfg = self.config
        self.certified = []
        if cfg.relaxation != MODE_AUTO:
            shift = self._shift(R)
            if shift is not None:
                return self._solve_qp(R, shift)
            bound, x = self._solve_lp(R)
            return bound, x, None, "mccormick"

        # AUTO: counters advance at every node not proved empty; solve
        # whatever is due
        sel = self.selection
        since_lp, since_qp = sel.since_lp + 1, sel.since_qp + 1
        due_lp = since_lp >= sel.omega_lp
        due_qp = since_qp >= sel.omega_qp
        if not due_lp and not due_qp:
            due_qp = True       # a node must always receive a bound
        f_qp = x_qp = shift = kind = None
        f_lp = x_lp = None
        if due_qp:
            f_qp, x_qp, shift, kind = self._solve_qp(R, self._shift(R))
            since_qp = 0
        if due_lp and f_qp != math.inf:
            f_lp, x_lp = self._solve_lp(R)
            since_lp = 0
        if math.inf in (f_qp, f_lp):    # empty: the selection stays as it was
            return math.inf, None, shift, kind
        if f_qp is not None and f_lp is not None:
            sel = dynamic_selection_update(sel, f_lp, f_qp)
        self.selection = replace(sel, since_lp=since_lp, since_qp=since_qp)
        if f_qp is None and f_lp is None:
            return None, x_qp if x_qp is not None else x_lp, shift, kind or "none"
        if f_lp is None or (f_qp is not None and f_qp >= f_lp):
            return f_qp, x_qp, shift, kind
        return f_lp, x_lp if x_lp is not None else x_qp, shift, "mccormick"


def _child(lb, ub, i, lo, hi):
    """A copy of the box [lb, ub] with variable i's range set to [lo, hi]."""
    lb, ub = lb.copy(), ub.copy()
    lb[i], ub[i] = lo, hi
    return lb, ub


def _tighten_children(ints, lb, ub, free, children, certified, cutoff):
    """(children, fixings): the child boxes of the node [lb, ub] cut to the
    box outside which no point of the node has objective below `cutoff`, by
    the slopes of the node's certified solves (qpsolve.tightened_box over
    its free variables), integer bounds rounded inward; a child whose box
    empties is dropped.  `fixings` counts the children dropped and the
    integers (mask `ints`) whose range closed to a point."""
    lo, hi = lb[free], ub[free]
    for sol in certified:
        lo_s, hi_s = qpsolve.tightened_box(sol, lb[free], ub[free], cutoff)
        lo, hi = np.maximum(lo, lo_s), np.minimum(hi, hi_s)
    box_lo, box_hi = lb.copy(), ub.copy()
    box_lo[free] = np.where(ints[free], np.ceil(lo - 1e-9), lo)
    box_hi[free] = np.where(ints[free], np.floor(hi + 1e-9), hi)
    kept, fixings = [], 0
    for c_lb, c_ub in children:
        new_lb, new_ub = np.maximum(c_lb, box_lo), np.minimum(c_ub, box_hi)
        if (new_lb > new_ub + 1e-12).any():
            fixings += 1
            continue
        new_ub = np.maximum(new_ub, new_lb)
        fixings += int(np.count_nonzero(ints & (new_lb == new_ub) & (c_lb < c_ub)))
        kept.append((new_lb, new_ub))
    return kept, fixings


def _branch_children(problem, config, structure, entry, free, R, x_rel, shift):
    """The child boxes of the node `entry`, whose free variables are `free`
    and whose model is R; returns (children, branch_index)."""
    lb, ub = entry.lb, entry.ub
    x_rel = np.asarray(x_rel, dtype=float)
    free_int = free[structure.ints[free]]
    rule = config.branch_rule

    if free_int.size:
        idx = None
        binary = structure.binary
        if binary and free.size >= 2 and rule != "fractional":
            if rule == "exact":
                idx = branching.spectral_branch_exact(R.Q, free)
            elif rule == "gct":
                idx = branching.spectral_branch_gct(R.Q, free)
            elif shift is not None and shift.alpha > 0:
                idx = branching.spectral_branch_approx(shift, free)
        if idx is None:
            idx = branching.most_fractional_branch(free, x_rel, problem.integers)
        if idx is None:
            idx = free_int[0]
        idx = int(idx)
        lo, up = lb[idx], ub[idx]
        if binary or (lo == 0.0 and up == 1.0):
            return [_child(lb, ub, idx, v, v) for v in (0.0, 1.0)], idx   # 0-child first
        v = float(np.clip(x_rel[np.searchsorted(free, idx)], lo, up))
        split = math.floor(v + 1e-9)
        split = int(np.clip(split, math.ceil(lo), math.floor(up) - 1))
        ranges = ((lo, float(split)), (float(split + 1), up))
        # a range of one value fixes the integer
        return [_child(lb, ub, idx, a, b) for a, b in ranges if a <= b + 1e-12], idx

    # continuous: spatial split at the relaxation point
    alpha = shift.alpha if shift is not None else 0.0
    pick = branching.spatial_branch(R.lb, R.ub, x_rel, R.Q, alpha=alpha)
    if pick is None:
        # no envelope slack at x_rel (a box vertex, say) says nothing about
        # the bound: bisect the widest variable
        t = int(np.argmax(R.ub - R.lb))
        pick = t, 0.5 * (R.lb[t] + R.ub[t])
    t, split = pick
    i = int(free[t])
    return [_child(lb, ub, i, lb[i], split), _child(lb, ub, i, split, ub[i])], i


def solve(problem: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Globally minimize the instance by spectral branch-and-bound."""
    cfg = config if config is not None else SolverConfig()
    t0 = time.monotonic()
    eng = _Engine(problem, cfg, None if cfg.time_limit is None else t0 + cfg.time_limit)

    f_ubd = math.inf
    x_best = None
    lbd_closed = math.inf      # lowest bound over the nodes closed so far
    trace = [] if cfg.keep_trace else None
    order = 0
    heap = []
    ints = eng.structure.ints
    root = _Node(lb=problem.lb, ub=problem.ub, bound=-math.inf, depth=0, order=0)
    heapq.heappush(heap, (root.bound, root.order, root))
    nodes_done = 0
    status = None

    def record(entry, bound, kind, branch_var, action):
        if trace is not None:
            trace.append(
                {
                    "id": entry.order,
                    "depth": entry.depth,
                    "bound": None if bound is None or not math.isfinite(bound) else bound,
                    "relaxation": kind,
                    "branch_variable": branch_var,
                    "action": action,
                }
            )

    def close(entry, bound, kind, action):
        """End the node; `bound` (None for an empty node) bounds its subtree."""
        nonlocal lbd_closed
        if bound is not None:
            lbd_closed = min(lbd_closed, bound)
        record(entry, bound, kind, None, action)

    def fathom(entry, bound, kind, action) -> bool:
        """Close the node when its bound cannot beat the incumbent by more
        than abs_tol or rel_tol."""
        if bound >= f_ubd - cfg.abs_tol or (
            math.isfinite(f_ubd) and relative_gap(f_ubd, bound) <= 100.0 * cfg.rel_tol
        ):
            close(entry, bound, kind, action)
            return True
        return False

    def try_incumbent(val, x):
        nonlocal f_ubd, x_best
        if val < f_ubd - 1e-12:
            f_ubd = val
            x_best = x
            return True
        return False

    while heap:
        if eng.deadline is not None and time.monotonic() > eng.deadline:
            status = STATUS_TIME_LIMIT
            break
        if cfg.node_limit is not None and nodes_done >= cfg.node_limit:
            status = STATUS_NODE_LIMIT
            break
        _, _, entry = heapq.heappop(heap)
        nodes_done += 1

        if fathom(entry, entry.bound, None, "fathom_inherited"):
            continue

        lb, ub = entry.lb, entry.ub
        free = free_indices(lb, ub)
        # leaf: everything fixed
        if not free.size:
            x = lb.copy()
            if check_feasibility(problem, x).feasible:
                val = evaluate_objective(problem, x)
                if try_incumbent(val, x):
                    eng.stats["heuristic_hits"] += 1
                close(entry, val, None, "leaf")
            else:
                close(entry, None, None, "fathom_infeasible")
            continue

        R = restrict(problem, lb, ub)
        if not ints[free].any() and float(np.max(R.ub - R.lb)) <= TINY_BOX:
            # a collapsed box: its center is the only candidate
            x = 0.5 * (lb + ub)
            if check_feasibility(problem, x).feasible:
                try_incumbent(evaluate_objective(problem, x), x)
            close(entry, entry.bound, None, "fathom_tiny_box")
            continue

        bound, x_rel, shift, kind = eng.lower_bound(R)
        if bound == math.inf:
            close(entry, None, None, "fathom_infeasible")
            continue
        node_bound = entry.bound if bound is None else max(entry.bound, bound)

        if fathom(entry, node_bound, kind, "fathom_bound"):
            continue
        # no heuristic at a fathomed node: no point in it beats its bound,
        # so an incumbent found there would gain less than the tolerances
        if x_rel is not None:
            x = lb.copy()
            x[free] = x_rel
            cand = upper_bound_heuristic(problem, x, free, f_ubd, eng.structure)
            if cand is not None:
                try_incumbent(*cand)
                eng.stats["heuristic_hits"] += 1
                if fathom(entry, node_bound, kind, "fathom_bound"):
                    continue

        if x_rel is None:
            x_rel = 0.5 * (R.lb + R.ub)
        children, branch_var = _branch_children(
            problem, cfg, eng.structure, entry, free, R, x_rel, shift
        )
        record(entry, node_bound, kind, branch_var, "branch")
        if math.isfinite(f_ubd) and eng.certified:
            children, fixings = _tighten_children(
                ints, lb, ub, free, children, eng.certified, f_ubd
            )
            eng.stats["reduced_cost_fixings"] += fixings
        for c_lb, c_ub in children:
            order += 1
            kid = _Node(c_lb, c_ub, bound=node_bound, depth=entry.depth + 1, order=order)
            heapq.heappush(heap, (kid.bound, kid.order, kid))

    if status is None:
        status = STATUS_OPTIMAL if x_best is not None else STATUS_INFEASIBLE
    if status == STATUS_INFEASIBLE:
        f_lbd = gap = math.inf       # nothing to bound
    else:
        # open nodes and every closed subtree bound the optimum from below
        f_lbd = min(min((b for b, _, _ in heap), default=math.inf), lbd_closed, f_ubd)
        gap = relative_gap(f_ubd, f_lbd)

    stats = dict(eng.stats)
    stats["selection_omega_lp"] = eng.selection.omega_lp
    stats["selection_omega_qp"] = eng.selection.omega_qp
    if eng.root_delta is not None:
        stats["root_delta"] = eng.root_delta
        stats["delta_trace"] = list(eng.delta_trace)
    return SolveResult(
        status=status,
        x=x_best,
        f_ubd=f_ubd,
        f_lbd=f_lbd,
        gap_percent=gap,
        nodes=nodes_done,
        wall_time_s=time.monotonic() - t0,
        trace=trace,
        stats=stats,
    )
