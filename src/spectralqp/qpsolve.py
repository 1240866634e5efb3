"""Convex QP and LP solvers for relaxation subproblems.

Two engines, one per problem class.  Linear models go to HiGHS dual
simplex (Huangfu and Hall, Math. Prog. Comp. 2018), whose compiled
extension is loaded from scipy's folder on the first LP solve
(linalg.load_scipy_extension), without importing scipy.  Each thread keeps
one HiGHS instance, its options set once and HiGHS presolve off (on node
LPs of a few dozen columns it cost more than it saved), and every run
clears that instance and passes it the whole LP as arrays (passModel's
array form), so that no basis or factor of an earlier run is left behind
and each result is bitwise that of a fresh solve on a new instance.
solve_lps solves one model for a list of costs (the separable direction
LPs of a node); solve_lp is its one-cost case (the McCormick node LPs).  A
claimed infeasibility counts only once its dual ray passes the Farkas test.

Quadratic models go to solve_convex_qp, a primal active-set method in
bounded-variable form (Nocedal and Wright, Numerical Optimization, 2006,
Alg. 16.3) on

    min 1/2 x'Px + c'x   s.t.  A x = b,  C x <= d,  lb <= x <= ub.

Its working set holds the equality rows, the variables at a bound and the
active C rows; each iteration solves the KKT system of the free variables
and the working rows, steps to the minimizer along it or to the first
blocking constraint, and at a stationary point drops the constraint with
the most negative multiplier.  Phase 1 is an exact breakpoint projection
onto {a'x = b} within the box for a model with at most one equality row and
no C rows (the eig, eigz and separable QPs of every generated family, so
that those solves stay clear of HiGHS), and a HiGHS feasibility LP through
solve_lp otherwise.  Infeasibility is certified only by _interval_presolve
or by that LP's Farkas ray.  A model whose Q is absent or zero goes to solve_lp.

A model with equality rows whose Q is indefinite, lambda_min(Q) < -PSD_SLACK
(curvature nonnegative only on the equality manifold, as an eigz shift can
leave it), needs no other coordinates: every working-set face lies in the
rows' nullspace, where Q is PSD.  Only its certificate differs: _bound uses
the curvature lambda_min(Z'QZ) over an orthonormal nullspace basis Z, and
the equality multipliers are refit by least squares on the stationarity
residual.

A solution holds the status, x, objective, multipliers and iteration count
(active-set or simplex iterations) and its one certified lower bound on the
model optimum, `bound`.  Both engines hand their point and multipliers to
one post-solve pass, _solution, which sets the objective and the bound.
verify_kkt computes the scaled KKT residuals of a solution for a caller
that reads them (bnb checks every optimal node solve).  Callers read `bound`
rather than the status.  It comes from one formula, _bound: the rows
dualized at the returned multipliers, the box kept primal, and the
Lagrangian linearized at the returned point, so it holds for a truncated
solve and a KKT-failed one alike; with Q absent it is the weak-duality value
of the multipliers.  The slope of that linearization comes back with it,
`slope`, and tightened_box turns it into the box outside which no feasible
point beats a given cutoff.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .relaxation import ConvexQpModel, relaxed_objective_at

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAXITER = "max_iter"

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1_000    # active-set iterations; node QPs take a few dozen at most
KKT_TOL = 1e-6         # pass threshold of verify_kkt's scaled residuals
BOUND_GUARD = 1e-9     # relative rounding guard of _bound
PSD_SLACK = 1e-8       # lambda_min(Q) below -PSD_SLACK: certify on the rows' nullspace

_REG = 1e-12           # diagonal on P inside the KKT solves, relative to max |P|
_EPS_PINF = 1e-7       # infeasibility certificate threshold (relative)

_HIGHS_CORE = "scipy.optimize._highspy._core"
_highs_core = None     # the extension module, once _highs() has loaded it
_highs_lock = threading.Lock()
_highs_local = threading.local()   # per thread: .core, the module, and .highs, its instance
# fixed for every run; HiGHS presolve costs more than it saves on node LPs
# of a few dozen columns
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("threads", 1),
    ("solver", "simplex"),
    ("simplex_strategy", 1),       # dual simplex
    ("presolve", "off"),
)


@dataclass(eq=False)
class QpSolution:
    status: str
    x: np.ndarray | None
    objective: float
    nu: np.ndarray          # equality multipliers (free sign)
    mu: np.ndarray          # inequality multipliers, >= 0
    pi_l: np.ndarray        # lower-bound multipliers, >= 0
    pi_u: np.ndarray        # upper-bound multipliers, >= 0
    iterations: int
    bound: float = -math.inf        # certified lower bound on the model optimum
    slope: np.ndarray | None = None  # g of the bound's linearization; None unless bound is finite


@dataclass(frozen=True)
class KktReport:
    """Scaled KKT residuals of a candidate solution.  Every field is divided
    by (1 + max magnitude over the model data, point and multipliers), so the
    pass threshold is dimensionless."""

    stationarity: float
    primal: float
    complementarity: float
    dual_violation: float
    passed: bool


def _interval_presolve(model: ConvexQpModel) -> bool:
    """Cheap emptiness certificate: row ranges of Az over the box.  Returns
    True when the model is provably infeasible."""
    lb, ub = model.lb, model.ub
    if (lb > ub + 1e-12).any():
        return True
    # C rows have no lower requirement
    for rows, lo_req, hi_req in ((model.A, model.b, model.b), (model.C, None, model.d)):
        if rows.shape[0] == 0:
            continue
        lo_range = np.minimum(rows * lb, rows * ub).sum(axis=1)
        hi_range = np.maximum(rows * lb, rows * ub).sum(axis=1)
        slack = 1e-9 * (1.0 + np.abs(rows).max(initial=0.0)) * (
            1.0 + np.abs(ub).max(initial=0.0) + np.abs(lb).max(initial=0.0)
        )
        if (lo_req is not None and (hi_range < lo_req - slack).any()) or (
            lo_range > hi_req + slack
        ).any():
            return True
    return False


def _farkas(A, lo, hi, y) -> bool:
    """True when y certifies {x : lo <= A x <= hi} empty: A'y vanishes while
    the support of y over [lo, hi] is negative (both relative to max |y|)."""
    nrm = float(np.max(np.abs(y), initial=0.0))
    if nrm <= 1e-14:
        return False
    dyn = y / nrm
    atd = float(np.max(np.abs(A.T @ dyn), initial=0.0))
    pos, neg = np.maximum(dyn, 0.0), np.minimum(dyn, 0.0)
    bad_sup = np.any(pos[~np.isfinite(hi)] > _EPS_PINF) or np.any(
        -neg[~np.isfinite(lo)] > _EPS_PINF
    )
    if bad_sup or not atd <= _EPS_PINF * (1.0 + np.max(np.abs(A))):
        return False
    support = float(
        np.sum(hi[np.isfinite(hi)] * pos[np.isfinite(hi)])
        + np.sum(lo[np.isfinite(lo)] * neg[np.isfinite(lo)])
    )
    return support < -_EPS_PINF * (1.0 + abs(support))


def _kkt_solve(K, rhs):
    """The solution of K s = rhs, by least squares where K is singular: the
    working set is kept independent, so only rounding can make it so."""
    if not rhs.size:
        return rhs
    s, info = linalg.flapack.dgesv(K, rhs)[2:]
    return s if info == 0 else np.linalg.lstsq(K, rhs, rcond=None)[0]


def _independent_rows(A) -> np.ndarray:
    """Ascending indices of a largest linearly independent set of A's rows,
    by QR with column pivoting of A', rank counted as in
    linalg.nullspace_basis (diagonal magnitudes of R above linalg.RANK_TOL
    relative to the largest)."""
    if A.shape[0] <= 1:
        return np.flatnonzero(np.any(A != 0.0, axis=1))
    qr, _, piv = linalg.pivoted_qr(A.T)
    diag = np.abs(np.diag(qr))
    rank = int(np.sum(diag > linalg.RANK_TOL * diag.max(initial=0.0))) if diag.size else 0
    return np.sort(piv[:rank])


def _projection_start(model: ConvexQpModel, P, c):
    """Phase 1 for a model with at most one equality row and no C rows: the
    box point minimizing each separable term 1/2 P_ii x_i^2 + c_i x_i,
    projected onto {a'x = b} by a breakpoint search along x - t a, the
    clipped path whose a'x falls piecewise linearly in t, with the residual
    of the interpolated point moved onto the free variable of largest |a_i|."""
    lb, ub = model.lb, model.ub
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = np.minimum(np.maximum(-c / np.maximum(np.diag(P), 1e-300), lb), ub)
    if not model.A.shape[0]:
        return x
    a, b = model.A[0], float(model.b[0])
    nz = a != 0.0
    ts = np.sort(np.concatenate([(x - lb)[nz] / a[nz], (x - ub)[nz] / a[nz], [0.0]]))
    X = np.minimum(np.maximum(x - ts[:, None] * a, lb), ub)
    phi = X @ a
    k = int(np.searchsorted(-phi, -b))      # first breakpoint with a'x <= b
    if k == 0 or k == ts.size:
        x = X[min(k, ts.size - 1)]          # b at (or, within the presolve slack, past) an end
    else:
        t = ts[k - 1] + (phi[k - 1] - b) / (phi[k - 1] - phi[k]) * (ts[k] - ts[k - 1])
        x = np.clip(x - t * a, lb, ub)
    inside = nz & (x > lb) & (x < ub)
    if np.any(inside):
        j = int(np.argmax(np.where(inside, np.abs(a), 0.0)))
        x[j] = min(max(x[j] + (b - float(a @ x)) / a[j], lb[j]), ub[j])
    return x


def _start(model: ConvexQpModel, P, c, deadline):
    """(x, at, feasible): the start of the active-set iteration.  `at` marks
    the variables that start in the working set (-1 at the lower bound, +1 at
    the upper; a pinned variable, lb == ub, stays there), and `feasible` is
    False when phase 1 stopped at the deadline, its x then being only a box
    point.  None when phase 1 certified the model empty.  Models with at most
    one equality row and no C rows start at _projection_start, every
    variable it leaves on a bound in the working set unless that empties the
    row's free part; the others at a HiGHS vertex of their rows and box
    (solve_lp on a zero objective, whose infeasibility needs a Farkas ray),
    with only the pinned variables in the working set."""
    lb, ub = model.lb, model.ub
    pinned = lb == ub
    if model.A.shape[0] <= 1 and not model.C.shape[0]:
        x = _projection_start(model, P, c)
        at = np.where(x <= lb, -1, np.where(x >= ub, 1, 0))
        if model.A.shape[0]:
            a = np.abs(model.A[0])
            if not a[at == 0].any() and a[~pinned].any():
                at[int(np.argmax(np.where(pinned, 0.0, a)))] = 0
        return x, at, True
    phase1 = solve_lp(replace(model, Q=None, q=np.zeros(model.nvar)), deadline)
    if phase1.status == STATUS_INFEASIBLE:
        return None
    at = np.where(pinned, -1, 0)
    if phase1.status != STATUS_OPTIMAL:
        x = phase1.x if phase1.x is not None else np.clip(np.zeros(model.nvar), lb, ub)
        return x, at, False
    return phase1.x, at, True


def _active_set(model: ConvexQpModel, P, c, x, at, tol, max_iter, deadline):
    """Primal active-set iteration (Nocedal and Wright, Numerical
    Optimization, 2006, Alg. 16.3, in bounded-variable form) on
    min 1/2 x'Px + c'x over the model's rows and box from the feasible point
    x.  The working set holds the equality rows, the variables marked in
    `at` and the C rows flagged in `on`.  Every iteration solves the KKT
    system of the free variables and the working rows, with P + reg I in
    place of P so that a face where P is singular, or PSD only on the rows'
    nullspace, still yields a descent step, and moves along that step to its
    exact minimizer or to the first blocking constraint, which joins the
    working set (the smallest index on ties).  Where nothing blocks, the new
    point is stationary on its face once its reduced gradient is below tol
    relative to |Px| and |c|: the working constraint with the most negative
    multiplier then leaves (the smallest index on ties), or, when none is
    below -tol, x is optimal.  Each KKT solve counts as one iteration; past
    `deadline` the run stops before its next solve.  Returns (status, x, nu,
    mu, z, iterations): the multipliers of the equality rows, the C rows and
    the box, z_i = -(Px + c + A'nu + C'mu)_i on a variable at a bound and
    zero elsewhere."""
    n, m, p = model.nvar, model.A.shape[0], model.C.shape[0]
    lb, ub, C, d = model.lb, model.ub, model.C, model.d
    # C-ordered as a stack would be, so that rows.T @ lam rounds the same
    rows = np.vstack([model.A, C]) if p else np.ascontiguousarray(model.A)
    pinned = lb == ub
    x, at = x.copy(), at.copy()
    on = np.zeros(p, dtype=bool)
    lam = np.zeros(m + p)
    Preg = P + _REG * (1.0 + float(np.abs(P).max())) * np.eye(n)
    cmax = float(np.abs(c).max())
    xmax = 1.0 + float(np.maximum(np.abs(lb), np.abs(ub)).max())
    # the equality rows of the working set: dependent ones (over the
    # variables not pinned) are left out, their multipliers kept at zero
    eq = _independent_rows(model.A[:, ~pinned])
    work, rows_w = eq, rows.take(eq, 0)     # the working rows change only with C rows
    status, it = STATUS_MAXITER, 0
    g = P @ x + c
    while it < max_iter and (deadline is None or time.monotonic() <= deadline):
        it += 1
        free = (at == 0).nonzero()[0]
        if p:
            work = np.concatenate([eq, m + on.nonzero()[0]])
            rows_w = rows.take(work, 0)
        k, r = free.size, work.size
        if r:
            E = rows_w.take(free, 1)
            K = np.zeros((k + r, k + r))
            K[:k, :k] = Preg.take(free, 0).take(free, 1)
            K[:k, k:] = E.T
            K[k:, :k] = E
            rhs = np.zeros(k + r)
            rhs[:k] = -g.take(free)
        else:
            K, rhs = Preg.take(free, 0).take(free, 1), -g.take(free)
        s = _kkt_solve(K, rhs)
        lam[:] = 0.0
        lam[work] = s[k:]
        sF = s[:k]
        size = float(np.abs(sF).max(initial=0.0))
        # a step is null where the face is a point, or where it is rounding
        # error, whose direction means nothing
        if k > r and size > 1e-13 * xmax:
            if r == 1:
                # back onto the rows' nullspace, which the solve leaves by rounding
                e = E[0]
                sF = sF - e * (float(e @ sF) / max(float(e @ e), 1e-300))
            elif r:
                sF = sF - E.T @ _kkt_solve(E @ E.T, E @ sF)
            Ps = P.take(free, 1) @ sF           # P times the step
            slope, curv = float(g.take(free) @ sF), float(sF @ Ps.take(free))
            if slope > 0.0:
                sF, Ps, slope = -sF, -Ps, -slope
            # the exact minimizer along the step, unbounded where the face has
            # no positive curvature along it, cut by the first blocking constraint
            reach = -slope / curv if curv > 0.0 else math.inf
            tiny = 1e-12 * size
            xF, lF, uF = x.take(free), lb.take(free), ub.take(free)
            ratio = np.divide(
                np.where(sF < 0.0, lF - xF, uF - xF), sF,
                out=np.full(k, math.inf), where=np.abs(sF) > tiny,
            )
            if p:
                Cs = C.take(free, 1) @ sF
                ratio = np.concatenate([ratio, np.divide(
                    np.maximum(d - C @ x, 0.0), Cs,
                    out=np.full(p, math.inf), where=~on & (Cs > tiny),
                )])
            j = int(np.argmin(ratio))
            alpha = max(float(ratio[j]), 0.0)
            if alpha <= reach and math.isfinite(alpha):
                x[free] = np.minimum(np.maximum(xF + alpha * sF, lF), uF)
                g += alpha * Ps
                if j < k:
                    i = free[j]
                    at[i] = 1 if sF[j] > 0.0 else -1
                    x[i] = ub[i] if sF[j] > 0.0 else lb[i]
                else:
                    on[j - k] = True
                continue
            if math.isfinite(reach):
                x[free] = np.minimum(np.maximum(xF + reach * sF, lF), uF)
                g += reach * Ps
        # nothing blocks: test the new point for stationarity on its face
        # (without rows z is g: the test reads only magnitudes and signs)
        z = g + rows.T @ lam if m + p else g
        gap = tol * (1.0 + max(float(np.abs(g - c).max()), cmax))
        if float(np.abs(z.take(free)).max(initial=0.0)) > gap:
            continue
        mult = np.where((at == 0) | pinned, math.inf, np.where(at > 0, -z, z))
        if p:
            mult = np.concatenate([mult, np.where(on, lam[m:], math.inf)])
        j = int(np.argmin(mult))
        if mult[j] >= -gap:
            status = STATUS_OPTIMAL
            break
        if j < n:
            at[j] = 0
        else:
            on[j - n] = False
    z = P @ x + c + rows.T @ lam
    return status, x, lam[:m], lam[m:], np.where(at != 0, -z, 0.0), it


def _row_lagrangian(model: ConvexQpModel, nu, mu) -> np.ndarray:
    """q + A'nu + C'mu, the gradient of q'x + nu'(Ax - b) + mu'(Cx - d): the
    part of the Lagrangian gradient that _bound, verify_kkt and the reduced
    path's multiplier refit share."""
    lin = model.q.copy()
    if model.A.shape[0]:
        lin += model.A.T @ nu
    if model.C.shape[0]:
        lin += model.C.T @ mu
    return lin


def _box_min(model: ConvexQpModel, lin) -> np.ndarray:
    """Termwise minimum of lin_i x_i over l_i <= x_i <= u_i."""
    return np.where(lin > 0.0, lin * model.lb, np.where(lin < 0.0, lin * model.ub, 0.0))


def _bound(model: ConvexQpModel, x, nu, mu, curvature: float, reduced: bool):
    """(bound, g): a safe lower bound on the model optimum from any point x
    (Neumaier and Shcherbina, Math. Prog. 2004), and its slope g.  With the
    rows dualized at (nu, mu clamped to >= 0) and the box kept primal, the
    Lagrangian L obeys

        L(x') >= L(x) + g'(x' - x) + min(curvature, 0) |x' - x|^2,  g = grad L(x),

    for every feasible x'; its minimum over the box, less BOUND_GUARD
    relative to the magnitude of its terms (the scale of its rounding error),
    is the bound, and g goes with it to tightened_box.  `curvature` is
    lambda_min(Q), or lambda_min(Z'QZ) when x comes from the reduced path
    (`reduced`), whose equality rows keep x' - x in the nullspace Z of A up
    to the residual of A x - b; that residual's share of the quadratic is
    subtracted too.  Q is left out when x is None, which only solve_lp
    passes, for a model whose Q is absent or zero."""
    mu = np.maximum(mu, 0.0)
    lin = _row_lagrangian(model, nu, mu)
    base = model.offset - float(nu @ model.b) - float(mu @ model.d)
    quad = reach = 0.0
    if model.Q is not None and x is not None:
        Qx = model.Q @ x
        lin = lin + 2.0 * Qx
        quad = float(x @ Qx)
        far = np.maximum(model.ub - x, x - model.lb)
        reach = min(curvature, 0.0) * float(far @ far)
        if reduced and model.A.shape[0]:
            # x' - x = Z w - v with v the row-space solution of A v = A x - b
            v, _, _, _ = np.linalg.lstsq(model.A, model.A @ x - model.b, rcond=None)
            reach -= float(np.linalg.norm(model.Q @ v)) * (
                2.0 * float(np.linalg.norm(far)) + float(np.linalg.norm(v))
            )
    contrib = _box_min(model, lin)
    magnitude = (
        abs(model.offset)
        + float(np.abs(nu) @ np.abs(model.b))
        + float(mu @ np.abs(model.d))
        + float(np.abs(contrib).sum())
        + abs(quad)
        + abs(reach)
    )
    bound = base + float(contrib.sum()) - quad + reach - BOUND_GUARD * (1.0 + magnitude)
    return bound, lin


def _infeasible(model: ConvexQpModel) -> QpSolution:
    return QpSolution(
        status=STATUS_INFEASIBLE,
        x=None,
        objective=math.inf,
        nu=np.zeros(model.A.shape[0]),
        mu=np.zeros(model.C.shape[0]),
        pi_l=np.zeros(model.nvar),
        pi_u=np.zeros(model.nvar),
        iterations=0,
        bound=math.inf,
    )


def _solution(model: ConvexQpModel, status, x, nu, mu, z, iterations, curvature=0.0) -> QpSolution:
    """The solution at x (None when the solver has no point; the objective
    is then nan), its bound +inf when `status` is infeasible, else _bound at
    x with its slope.  `mu` holds the inequality multipliers and `z` the box
    ones (pi_u = max(z, 0), pi_l = max(-z, 0)); `nu` holds the equality
    multipliers, or is None to fit them by least squares on the stationarity
    residual, which only the reduced path asks for: its x then certifies
    with curvature lambda_min(Z'QZ)."""
    mu, pi_l, pi_u = np.maximum(mu, 0.0), np.maximum(-z, 0.0), np.maximum(z, 0.0)
    reduced = nu is None
    if reduced:
        grad = _row_lagrangian(model, np.zeros(model.A.shape[0]), mu) + 2.0 * (model.Q @ x)
        grad = grad - pi_l + pi_u
        nu, _, _, _ = np.linalg.lstsq(model.A.T, -grad, rcond=None)
    objective = relaxed_objective_at(model, x) if x is not None else math.nan
    bound, slope = math.inf, None
    if status != STATUS_INFEASIBLE:
        bound, slope = _bound(model, x, nu, mu, curvature, reduced)
        if not math.isfinite(bound):
            slope = None
    return QpSolution(status, x, objective, nu, mu, pi_l, pi_u, iterations, bound, slope=slope)


def solve_convex_qp(
    model: ConvexQpModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    deadline: float | None = None,
) -> QpSolution:
    """Solve a convex model by the active-set iteration, to tolerance `tol`
    on the reduced gradient and the multiplier signs (relative to the data);
    a model whose Q is absent or zero goes to solve_lp.  Statuses: optimal,
    infeasible (certified by _interval_presolve or by phase 1's Farkas ray),
    max_iter (out of active-set iterations, or past `deadline`, a
    time.monotonic() value; x is then the last iterate).  `bound` certifies
    the model optimum from below: +inf for an infeasible model, else _bound
    at the returned point, whatever the status.  A model with equality rows
    whose Q is indefinite, lambda_min(Q) < -PSD_SLACK (convex only on the
    rows' nullspace, as an eigz shift can leave it), certifies with
    curvature lambda_min(Z'QZ) over an orthonormal nullspace basis Z, its
    equality multipliers refit by least squares."""
    if model.Q is None or not np.any(model.Q):
        return solve_lp(model, deadline)
    if _interval_presolve(model):
        return _infeasible(model)
    P, c = 2.0 * model.Q, model.q
    start = _start(model, P, c, deadline)
    if start is None:
        return _infeasible(model)
    x, at, feasible = start
    status, it = STATUS_MAXITER, 0
    nu, mu, z = np.zeros(model.A.shape[0]), np.zeros(model.C.shape[0]), np.zeros(model.nvar)
    if feasible:
        status, x, nu, mu, z, it = _active_set(model, P, c, x, at, tol, max_iter, deadline)
    curvature = float(np.linalg.eigvalsh(model.Q)[0])
    if curvature < -PSD_SLACK and model.A.shape[0]:
        Z = linalg.nullspace_basis(model.A)
        curvature = float(np.linalg.eigvalsh(Z.T @ model.Q @ Z)[0]) if Z.shape[1] else 0.0
        nu = None
    return _solution(model, status, x, nu, mu, z, it, curvature)


def _highs():
    """HiGHS's compiled extension as shipped inside scipy, loaded by itself
    on the first LP solve (reused when scipy.optimize has already imported
    it): importing scipy.optimize around it would add about 19 MB and 0.3 s
    to every process that solves an LP.  The lock makes that first load
    happen once when a caller's threads race for it."""
    global _highs_core
    with _highs_lock:
        if _highs_core is None:
            _highs_core = linalg.load_scipy_extension(_HIGHS_CORE)
    return _highs_core


def _instance(hc):
    """This thread's HiGHS instance of the extension module hc, made with
    _HIGHS_OPTIONS on the thread's first LP solve, and made anew when _highs()
    hands over another module."""
    if getattr(_highs_local, "core", None) is not hc:
        highs = hc._Highs()
        for name, value in _HIGHS_OPTIONS:
            highs.setOptionValue(name, value)
        _highs_local.core, _highs_local.highs = hc, highs
    return _highs_local.highs


def solve_lp(model: ConvexQpModel, deadline: float | None = None) -> QpSolution:
    """Solve a linear model (model.Q absent or zero) with HiGHS dual simplex:
    solve_lps with the model's own cost."""
    return solve_lps(model, [model.q], deadline)[0]


def solve_lps(model: ConvexQpModel, costs, deadline: float | None = None) -> list[QpSolution]:
    """Solve the linear model (model.Q absent or zero) once for each cost
    vector in `costs`, in order, with HiGHS dual simplex: one interval
    presolve and one set of LP arrays, which each run passes whole, with
    that run's cost, to the thread's cleared instance (a pass HiGHS rejects
    raises RuntimeError), so that every run is cold and its result bitwise
    that of a fresh solve of replace(model, q=cost) on a new instance.
    `deadline` (a time.monotonic() value) becomes HiGHS's time limit for
    each run and `iterations` counts simplex iterations.  Statuses:
    optimal, infeasible (certified by _interval_presolve, or by HiGHS's dual
    ray passing the Farkas test, after which the remaining costs need no
    run: the region is the same), else max_iter.  `bound` is +inf for an
    infeasible model, -inf for an infeasibility HiGHS claims but cannot
    certify, else _bound at HiGHS's multipliers, which with Q absent is
    their weak-duality value."""
    if model.Q is not None and np.any(model.Q):
        raise ValueError("an LP solve requires a linear objective")
    models = [model if cost is model.q else replace(model, q=cost) for cost in costs]
    if not models or _interval_presolve(model):
        return [_infeasible(sub) for sub in models]
    hc = _highs()
    n, m, p = model.nvar, model.A.shape[0], model.C.shape[0]
    M = np.vstack([model.A, model.C])
    row_lo = np.concatenate([model.b, np.full(p, -math.inf)])
    row_hi = np.concatenate([model.b, model.d])
    # the column-wise matrix; HiGHS takes its start and index arrays as int32,
    # and an integrality array of any other length than n as an error
    cols, rows = np.nonzero(M.T)
    start = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))]).astype(np.int32)
    index, value = rows.astype(np.int32), M[rows, cols]
    integrality = np.zeros(n, dtype=np.int32)
    highs = _instance(hc)
    sols: list[QpSolution] = []
    for sub in models:
        if sols and sols[-1].status == STATUS_INFEASIBLE:
            sols.append(_infeasible(sub))
            continue
        # the whole model passed to a cleared instance leaves nothing of an
        # earlier run behind; without HiGHS presolve, a cost change and a
        # cleared solver on the kept model do not give a fresh solve's pivots
        highs.clearModel()
        passed = highs.passModel(
            n, m + p, index.size, int(hc.MatrixFormat.kColwise), int(hc.ObjSense.kMinimize), 0.0,
            sub.q, model.lb, model.ub, row_lo, row_hi, start, index, value, integrality,
        )
        if passed == hc.HighsStatus.kError:
            # the instance is left empty and would "solve" to kModelEmpty
            raise RuntimeError("HiGHS rejected the LP passed to it")
        # options persist between runs, and HiGHS measures its time limit
        # on a run clock that adds up over the runs of one instance
        highs.setOptionValue(
            "time_limit",
            math.inf if deadline is None
            else highs.getRunTime() + max(deadline - time.monotonic(), 0.0),
        )
        highs.run()
        sols.append(_lp_solution(hc, highs, sub, M, row_lo, row_hi))
    return sols


def _lp_solution(hc, highs, model: ConvexQpModel, M, row_lo, row_hi) -> QpSolution:
    """The solution of the run `highs` has just made on the model, whose
    rows M hold the equality rows first and then the C rows, with ranges
    [row_lo, row_hi]."""
    n, m, p = model.nvar, model.A.shape[0], model.C.shape[0]
    status = highs.getModelStatus()
    iterations = int(highs.getInfo().simplex_iteration_count)

    if status == hc.HighsModelStatus.kInfeasible:
        _, has_ray, ray = highs.getDualRay()
        # HiGHS's row duals carry the opposite sign to nu and mu; box rows
        # absorbing -M'y make the Farkas test keep the box primal
        y = -np.asarray(ray, dtype=float)
        if has_ray and y.shape == (m + p,) and _farkas(
            np.vstack([M, np.eye(n)]),
            np.concatenate([row_lo, model.lb]),
            np.concatenate([row_hi, model.ub]),
            np.concatenate([y, -(M.T @ y)]),
        ):
            sol = _infeasible(model)
            sol.iterations = iterations
            return sol
    found = highs.getSolution()
    x = np.asarray(found.col_value, dtype=float)
    x = np.clip(x, model.lb, model.ub) if found.value_valid and x.shape == (n,) else None
    row_dual = np.asarray(found.row_dual, dtype=float)
    col_dual = np.asarray(found.col_dual, dtype=float)
    has_duals = row_dual.shape == (m + p,) and col_dual.shape == (n,)
    if not has_duals:
        row_dual, col_dual = np.zeros(m + p), np.zeros(n)
    optimal = status == hc.HighsModelStatus.kOptimal and x is not None
    sol = _solution(
        model,
        STATUS_OPTIMAL if optimal else STATUS_MAXITER,
        x,
        -row_dual[:m],
        -row_dual[m:],
        -col_dual,
        iterations,
    )
    if not has_duals or status == hc.HighsModelStatus.kInfeasible:
        sol.bound, sol.slope = -math.inf, None      # no multipliers to certify with
    return sol


def tightened_box(sol: QpSolution, lb, ub, cutoff: float):
    """The part (lb', ub') of the box lb <= x <= ub over the model's first
    len(lb) variables that holds every feasible point whose objective is
    below `cutoff`, from the certificate of `sol` (reduced-cost tightening,
    Ryoo and Sahinidis, JOGO 1996).  With g = sol.slope, _bound gives

        objective(x') >= bound + sum_i (g_i x'_i - min(g_i l_i, g_i u_i))

    for every feasible x' in the model's box, each term of the sum being
    nonnegative, so no term may exceed room = cutoff - bound (plus a
    rounding margin relative to both): x'_i <= l_i + room/g_i where g_i > 0,
    x'_i >= u_i + room/g_i where g_i < 0.  `sol.bound` must be finite."""
    g = sol.slope[: len(lb)]
    room = cutoff - sol.bound + 1e-9 * (1.0 + abs(cutoff) + abs(sol.bound))
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = room / g
    return (
        np.where(g < 0.0, np.maximum(lb, ub + reach), lb),
        np.where(g > 0.0, np.minimum(ub, lb + reach), ub),
    )


def verify_kkt(model: ConvexQpModel, solution: QpSolution) -> KktReport:
    """First-order optimality check of a candidate solution: stationarity
    2Qx + q + A'nu + C'mu - pi_l + pi_u = 0, primal feasibility,
    complementary slackness and multiplier nonnegativity.  Residuals are
    scaled by the largest magnitude among data, point and multipliers, and
    pass at KKT_TOL."""
    x = solution.x
    if x is None:
        return KktReport(math.inf, math.inf, math.inf, math.inf, False)
    nu, mu, pi_l, pi_u = solution.nu, solution.mu, solution.pi_l, solution.pi_u
    grad = _row_lagrangian(model, nu, mu)
    if model.Q is not None:
        grad = grad + 2.0 * (model.Q @ x)
    stationarity = float(np.abs(grad - pi_l + pi_u).max(initial=0.0))

    primal = max(
        float(np.abs(model.A @ x - model.b).max(initial=0.0)) if model.A.shape[0] else 0.0,
        float((model.lb - x).max(initial=0.0)),
        float((x - model.ub).max(initial=0.0)),
    )
    comp = max(
        float(np.abs(pi_l * (x - model.lb)).max(initial=0.0)),
        float(np.abs(pi_u * (model.ub - x)).max(initial=0.0)),
    )
    if model.C.shape[0]:
        slack = model.d - model.C @ x
        primal = max(primal, float((-slack).max()))
        comp = max(comp, float(np.abs(mu * slack).max()))

    dual_viol = max(
        float((-mu).max(initial=0.0)),
        float((-pi_l).max(initial=0.0)),
        float((-pi_u).max(initial=0.0)),
    )

    data = (model.q, model.A, model.b, model.C, model.d, model.lb, model.ub,
            x, nu, mu, pi_l, pi_u) + (() if model.Q is None else (model.Q,))
    scale = 1.0 + max(float(np.abs(a).max()) for a in data if a.size)
    s, p_, c_, d_ = (v / scale for v in (stationarity, primal, comp, dual_viol))
    passed = s <= KKT_TOL and p_ <= KKT_TOL and c_ <= KKT_TOL and d_ <= KKT_TOL
    return KktReport(s, p_, c_, d_, passed)
