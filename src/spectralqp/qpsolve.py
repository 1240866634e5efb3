"""Convex QP and LP solvers for relaxation subproblems.

Two engines, one per problem class.  Linear models (the McCormick node LPs
and the separable direction LPs) go to solve_lp: HiGHS dual simplex, whose
compiled extension is loaded from scipy on the first LP solve without
importing scipy.optimize.  A claimed infeasibility counts only once its
dual ray passes the Farkas test.

Quadratic models go to solve_convex_qp, an operator-splitting (ADMM)
iteration on

    min 1/2 x'Px + c'x   s.t.  lo <= A_s x <= hi

with all model constraints (equalities, inequalities, box) stacked into A_s.
Equality rows carry a boosted penalty, data is equilibrated in one pass, and
the step size adapts to the primal/dual residual ratio.  Each iteration is
one affine map of the state [x; z + y/rho; z] followed by a clip onto the
row bounds; the map is built from the Cholesky factor of the x-update
matrix, again whenever the step size changes.  Near convergence the iterate
is polished by solving the KKT system of the active constraints, which
typically lands the solution at machine precision; a polish reruns only when
the active set (the dual signs) has changed since the last failed one.
Termination tests the unscaled residuals against tol * (1 + data scale).

A model with equality rows whose Q is indefinite, lambda_min(Q) < -PSD_SLACK
(curvature nonnegative only on the equality manifold, as an eigz shift can
leave it), is solved in reduced coordinates x = x0 + Z z, where x0 is a least
squares particular solution and Z an orthonormal nullspace basis; equality
multipliers are then recovered by least squares on the stationarity residual.

A solution holds the status, x, objective, multipliers and iteration count
(ADMM or simplex iterations), its one certified lower bound on the model
optimum, `bound`, and for an optimal solve the scaled residuals of
verify_kkt, `kkt`, its only residual record.  Callers read `bound` rather
than the status.  Both engines set it by one formula, _bound: the rows
dualized at the returned multipliers, the box kept primal, and the
Lagrangian linearized at the returned point, so it holds for a truncated
solve and a KKT-failed one alike; with Q absent it is the weak-duality value
of the multipliers.  The slope of that linearization comes back with it,
`slope`, and tightened_box turns it into the box outside which no feasible
point beats a given cutoff.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .relaxation import ConvexQpModel

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAXITER = "max_iter"

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50_000
DEFAULT_KKT_TOL = 1e-6
BOUND_GUARD = 1e-9     # relative rounding guard of _bound
PSD_SLACK = 1e-8       # lambda_min(Q) below -PSD_SLACK: solve in reduced coordinates

_SIGMA = 1e-6          # proximal regularization
_ALPHA = 1.6           # over-relaxation
_RHO0 = 0.1            # base penalty
_RHO_EQ_BOOST = 1e3    # extra penalty on equality rows
_CHECK_EVERY = 25      # iterations between convergence checks
_EPS_PINF = 1e-7       # infeasibility certificate threshold (relative)

_HIGHS_CORE = "scipy.optimize._highspy._core"
_highs_core = None     # the extension module, once _highs() has loaded it
_highs_lock = threading.Lock()


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
    kkt: KktReport | None = None    # verify_kkt report of an optimal solve
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
    if np.any(lb > ub + 1e-12):
        return True
    for rows, lo_req, hi_req in (
        (model.A, model.b, model.b),
        (model.C, np.full(model.d.shape, -math.inf), model.d),
    ):
        if rows.shape[0] == 0:
            continue
        lo_range = np.minimum(rows * lb, rows * ub).sum(axis=1)
        hi_range = np.maximum(rows * lb, rows * ub).sum(axis=1)
        slack = 1e-9 * (1.0 + np.max(np.abs(rows), initial=0.0)) * (
            1.0 + np.max(np.abs(ub), initial=0.0) + np.max(np.abs(lb), initial=0.0)
        )
        if np.any(hi_range < lo_req - slack) or np.any(lo_range > hi_req + slack):
            return True
    return False


@dataclass(eq=False)
class _Raw:
    status: str
    x: np.ndarray
    y: np.ndarray
    iterations: int


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


def _polish(P, c, A, lo, hi, y):
    """Direct KKT solve on the constraints the duals mark active.  Returns
    (x, y) or None when the linear solve fails outright."""
    m, n = A.shape
    eq = np.isfinite(lo) & np.isfinite(hi) & (lo == hi)
    low = (y < 0.0) & np.isfinite(lo) & ~eq
    upp = (y > 0.0) & np.isfinite(hi) & ~eq
    act = np.where(eq | low | upp)[0]
    bnd = np.where(eq[act] | low[act], lo[act], hi[act])
    Aa = A[act]
    k = act.size
    K = np.zeros((n + k, n + k))
    K[:n, :n] = P + 1e-9 * np.eye(n)
    K[:n, n:] = Aa.T
    K[n:, :n] = Aa
    K[n:, n:] = -1e-9 * np.eye(k)
    rhs = np.concatenate([-c, bnd])
    try:
        sol = np.linalg.solve(K, rhs)
        # one step of iterative refinement against the unregularized system
        K0 = K.copy()
        K0[:n, :n] -= 1e-9 * np.eye(n)
        K0[n:, n:] += 1e-9 * np.eye(k)
        sol = sol + np.linalg.solve(K, rhs - K0 @ sol)
    except np.linalg.LinAlgError:
        return None
    xp = sol[:n]
    yp = np.zeros(m)
    yp[act] = sol[n:]
    # clamp multipliers to their cone
    yp[low & np.isfinite(lo)] = np.minimum(yp[low & np.isfinite(lo)], 0.0)
    yp[upp] = np.maximum(yp[upp], 0.0)
    return xp, yp


def _admm(P, c, A, lo, hi, tol, max_iter, deadline):
    """Operator-splitting core; all arrays dense, dimensions desk scale.  Past
    `deadline` (a time.monotonic() value) the run returns its best iterate."""
    m, n = A.shape

    # one-pass equilibration
    colmax = np.maximum(
        np.max(np.abs(P), axis=0, initial=0.0),
        np.max(np.abs(A), axis=0, initial=0.0) if m else 0.0,
    )
    D = 1.0 / np.sqrt(np.clip(colmax, 1e-8, 1e8))
    D[colmax == 0.0] = 1.0
    AD = A * D[None, :] if m else A
    rowmax = np.max(np.abs(AD), axis=1, initial=0.0) if m else np.zeros(0)
    E = 1.0 / np.sqrt(np.clip(rowmax, 1e-8, 1e8))
    if m:
        E[rowmax == 0.0] = 1.0
    Ps = (P * D[None, :]) * D[:, None]
    cs = c * D
    cost = 1.0 / max(
        1.0,
        float(np.mean(np.max(np.abs(Ps), axis=0, initial=0.0))),
        float(np.max(np.abs(cs), initial=0.0)),
    )
    Ps *= cost
    cs *= cost
    As = AD * E[:, None] if m else AD
    los = lo * E
    his = hi * E

    eq_row = np.isfinite(lo) & np.isfinite(hi) & (lo == hi)
    rho = np.full(m, _RHO0)
    rho[eq_row] *= _RHO_EQ_BOOST

    def factor(rho_vec):
        M = Ps + _SIGMA * np.eye(n)
        if m:
            M = M + (As.T * rho_vec[None, :]) @ As
        # scaling can push a marginally PSD block a hair negative; a larger
        # proximal term keeps the splitting valid
        for jitter in (0.0, 1e-10, 1e-7, 1e-4, 1e-1):
            try:
                return scipy.linalg.cho_factor(
                    M + jitter * np.eye(n), lower=True, check_finite=False
                )[0]
            except np.linalg.LinAlgError:
                continue
        raise np.linalg.LinAlgError("x-update matrix is not positive definite")

    def step_map(rho_vec):
        """One iteration as an affine map: (T, t) with X[:n+m] <- T X + t,
        then z <- clip(s), over the state X = [x; s; z] with s = z + y/rho,
        so y = rho (s - z).  With xh = K^-1 (sigma x - cs + A'R(2z - s)),
        K = Ps + sigma I + A'RA and R = diag(rho), the step is
        x <- alpha xh + (1 - alpha) x and s <- alpha A xh + (1 - alpha) z +
        s - z.  K^-1 A'R and K^-1 cs come from triangular solves with the
        factor on those columns: a product with an explicit inverse loses
        the accuracy that the boosted equality penalty needs."""
        chol = factor(rho_vec)
        cols = scipy.linalg.cho_solve(
            (chol, True), np.hstack([np.eye(n), As.T * rho_vec, cs[:, None]]),
            check_finite=False,
        )
        L, G, Lc = cols[:, :n], cols[:, n:n + m], cols[:, n + m]
        H = As @ G
        T = np.empty((n + m, n + 2 * m))
        T[:n, :n] = (1.0 - _ALPHA) * np.eye(n) + _ALPHA * _SIGMA * L
        T[:n, n:n + m] = -_ALPHA * G
        T[:n, n + m:] = 2.0 * _ALPHA * G
        T[n:, :n] = _ALPHA * _SIGMA * (As @ L)
        T[n:, n:n + m] = np.eye(m) - _ALPHA * H
        T[n:, n + m:] = 2.0 * _ALPHA * H - _ALPHA * np.eye(m)
        t = -_ALPHA * np.concatenate([Lc, As @ Lc])
        return T, t

    T, t = step_map(rho)
    X = np.zeros(n + 2 * m)
    x, s, z = X[:n], X[n:n + m], X[n + m:]
    head = X[: n + m]
    buf = np.empty(n + m)
    z[:] = s[:] = np.clip(np.zeros(m), los, his)
    y_mark = np.zeros(m)

    def unscaled(xs, ys, zs):
        xu = D * xs
        yu = (E * ys) / cost
        zu = zs / E if m else zs
        return xu, yu, zu

    def residuals(xu, yu, zu):
        Ax = A @ xu if m else np.zeros(0)
        rp = float(np.max(np.abs(Ax - zu), initial=0.0))
        sp = max(
            float(np.max(np.abs(Ax), initial=0.0)),
            float(np.max(np.abs(zu), initial=0.0)),
        )
        grad = P @ xu + c + (A.T @ yu if m else 0.0)
        rd = float(np.max(np.abs(grad), initial=0.0))
        sd = max(
            float(np.max(np.abs(P @ xu), initial=0.0)),
            float(np.max(np.abs(A.T @ yu), initial=0.0)) if m else 0.0,
            float(np.max(np.abs(c), initial=0.0)),
        )
        return rp, sp, rd, sd

    failed_signs = None

    def polished(yu, it):
        """The optimal result of polishing on the duals yu, or None when the
        polished point misses the tolerance.  _polish reads yu only through
        its signs, so a sign pattern that failed before fails again and is
        not re-solved."""
        nonlocal failed_signs
        if not m:
            return None
        signs = np.sign(yu).tobytes()
        if signs == failed_signs:
            return None
        pol = _polish(P, c, A, lo, hi, yu)
        if pol is not None:
            xp, yp = pol
            rpp, spp, rdp, sdp = residuals(xp, yp, np.clip(A @ xp, lo, hi))
            if rpp <= tol * (1.0 + spp) and rdp <= tol * (1.0 + sdp):
                return _Raw(STATUS_OPTIMAL, xp, yp, it)
        failed_signs = signs
        return None

    best = None
    it = 0
    while it < max_iter:
        inner = min(_CHECK_EVERY, max_iter - it)
        for _ in range(inner):
            np.dot(T, X, out=buf)
            np.add(buf, t, out=head)
            np.maximum(s, los, out=z)
            np.minimum(z, his, out=z)
        it += inner

        y = rho * (s - z)
        xu, yu, zu = unscaled(x, y, z)
        rp, sp, rd, sd = residuals(xu, yu, zu)
        tol_p = tol * (1.0 + sp)
        tol_d = tol * (1.0 + sd)
        if best is None or max(rp / tol_p, rd / tol_d) < best[0]:
            best = (max(rp / tol_p, rd / tol_d), xu.copy(), yu.copy())

        near = rp <= 1e4 * tol_p and rd <= 1e4 * tol_d
        if (rp <= tol_p and rd <= tol_d) or near:
            pol = polished(yu, it)
            if pol is not None:
                return pol
            if rp <= tol_p and rd <= tol_d:
                return _Raw(STATUS_OPTIMAL, xu, yu, it)

        # primal infeasibility certificate from the dual increment
        if m:
            if _farkas(A, lo, hi, yu - y_mark):
                return _Raw(STATUS_INFEASIBLE, xu, yu, it)
            y_mark = yu.copy()

        if deadline is not None and time.monotonic() > deadline:
            break

        # adapt the penalty to the residual balance
        if m:
            ratio = (rp / (1.0 + sp)) / max(rd / (1.0 + sd), 1e-16)
            scale_fac = math.sqrt(max(ratio, 1e-12))
            if scale_fac > 5.0 or scale_fac < 0.2:
                rho = np.clip(rho * scale_fac, 1e-6, 1e6)
                s[:] = z + y / rho      # the same duals at the new step size
                T, t = step_map(rho)

    if best is None:
        xu, yu, _ = unscaled(x, rho * (s - z), z)
        best = (math.inf, xu, yu)
    # out of iterations: last chance polish, then best iterate; out of time:
    # best iterate only, as the polish is one dense KKT solve
    pol = polished(best[2], it) if it >= max_iter else None
    if pol is not None:
        return pol
    return _Raw(STATUS_MAXITER, best[1], best[2], it)


def _stack(model: ConvexQpModel):
    """Stacked constraint system [A; C; I] with two-sided bounds."""
    n = model.nvar
    mats, lons, hins = [], [], []
    if model.A.shape[0]:
        mats.append(model.A)
        lons.append(model.b)
        hins.append(model.b)
    if model.C.shape[0]:
        mats.append(model.C)
        lons.append(np.full(model.C.shape[0], -math.inf))
        hins.append(model.d)
    mats.append(np.eye(n))
    lons.append(model.lb)
    hins.append(model.ub)
    return np.vstack(mats), np.concatenate(lons), np.concatenate(hins)


def _objective(model: ConvexQpModel, x: np.ndarray) -> float:
    val = float(model.q @ x) + model.offset
    if model.Q is not None:
        val += float(x @ model.Q @ x)
    return val


def _row_lagrangian(model: ConvexQpModel, nu, mu):
    """(lin, base) with q'x + nu'(Ax - b) + mu'(Cx - d) + offset = lin'x + base."""
    lin = model.q.copy()
    if model.A.shape[0]:
        lin += model.A.T @ nu
    if model.C.shape[0]:
        lin += model.C.T @ mu
    base = model.offset
    if model.A.shape[0]:
        base -= float(nu @ model.b)
    if model.C.shape[0]:
        base -= float(mu @ model.d)
    return lin, base


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
    lin, base = _row_lagrangian(model, nu, mu)
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
        + float(np.sum(np.abs(contrib)))
        + abs(quad)
        + abs(reach)
    )
    bound = base + float(np.sum(contrib)) - quad + reach - BOUND_GUARD * (1.0 + magnitude)
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


def _lagrangian_grad(model: ConvexQpModel, x, nu, mu, pi_l, pi_u) -> np.ndarray:
    """2Qx + q + A'nu + C'mu - pi_l + pi_u, leaving out A'nu when nu is None."""
    grad = model.q.copy()
    if model.Q is not None:
        grad = grad + 2.0 * (model.Q @ x)
    if nu is not None and model.A.shape[0]:
        grad = grad + model.A.T @ nu
    if model.C.shape[0]:
        grad = grad + model.C.T @ mu
    return grad - pi_l + pi_u


def _solution(model: ConvexQpModel, status, x, nu, y, iterations, curvature=0.0) -> QpSolution:
    """The solution at x (None when the solver has no point; the objective
    is then nan), its bound +inf when `status` is infeasible, else _bound at
    x with its slope.  `y` stacks the multipliers of the rows [C; I] (the inequalities, then
    the box); `nu` holds the equality multipliers, or is None to fit them by
    least squares on the stationarity residual, which only the reduced path
    asks for: its x then certifies with curvature lambda_min(Z'QZ)."""
    p = model.C.shape[0]
    ybox = y[p:]
    mu, pi_l, pi_u = np.maximum(y[:p], 0.0), np.maximum(-ybox, 0.0), np.maximum(ybox, 0.0)
    reduced = nu is None
    if reduced:
        grad = _lagrangian_grad(model, x, None, mu, pi_l, pi_u)
        nu, _, _, _ = np.linalg.lstsq(model.A.T, -grad, rcond=None)
    objective = _objective(model, x) if x is not None else math.nan
    bound, slope = math.inf, None
    if status != STATUS_INFEASIBLE:
        bound, slope = _bound(model, x, nu, mu, curvature, reduced)
        if not math.isfinite(bound):
            slope = None
    return QpSolution(status, x, objective, nu, mu, pi_l, pi_u, iterations, bound, slope=slope)


def _solve_full(model: ConvexQpModel, tol, max_iter, deadline, curvature) -> QpSolution:
    """Solve in the model's own coordinates; `curvature` is lambda_min(Q)."""
    n = model.nvar
    P = 2.0 * model.Q if model.Q is not None else np.zeros((n, n))
    A_s, lo, hi = _stack(model)
    raw = _admm(P, model.q, A_s, lo, hi, tol, max_iter, deadline)
    m = model.A.shape[0]
    return _solution(model, raw.status, raw.x, raw.y[:m], raw.y[m:], raw.iterations, curvature)


def _solve_reduced(model: ConvexQpModel, tol, max_iter, deadline) -> QpSolution:
    """Solve in x = x0 + Z z coordinates for models convex only on the
    nullspace of their equality system."""
    A, b = model.A, model.b
    x0, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    if float(np.max(np.abs(A @ x0 - b), initial=0.0)) > 1e-8 * (
        1.0 + float(np.max(np.abs(b), initial=0.0))
    ):
        return _infeasible(model)
    Z = linalg.nullspace_basis(A)
    k = Z.shape[1]
    Q, n, p = model.Q, model.nvar, model.C.shape[0]

    if k == 0:
        # the equality system pins x completely
        viol = max(
            float(np.max(model.lb - x0, initial=0.0)),
            float(np.max(x0 - model.ub, initial=0.0)),
            float(np.max(model.C @ x0 - model.d, initial=0.0)) if p else 0.0,
        )
        if viol > 1e-8 * (1.0 + float(np.max(np.abs(x0)))):
            return _infeasible(model)
        x = np.clip(x0, model.lb, model.ub)
        return _solution(model, STATUS_OPTIMAL, x, None, np.zeros(p + n), 0)

    Pz = Z.T @ (2.0 * Q) @ Z
    Pz = 0.5 * (Pz + Pz.T)
    cz = Z.T @ (2.0 * (Q @ x0) + model.q)
    rows = [Z]
    lons = [model.lb - x0]
    hins = [model.ub - x0]
    if p:
        rows.insert(0, model.C @ Z)
        lons.insert(0, np.full(p, -math.inf))
        hins.insert(0, model.d - model.C @ x0)
    A_s = np.vstack(rows)
    raw = _admm(
        Pz, cz, A_s, np.concatenate(lons), np.concatenate(hins), tol, max_iter, deadline
    )
    curvature = 0.5 * float(np.linalg.eigvalsh(Pz)[0])
    return _solution(model, raw.status, x0 + Z @ raw.x, None, raw.y, raw.iterations, curvature)


def solve_convex_qp(
    model: ConvexQpModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    deadline: float | None = None,
) -> QpSolution:
    """Solve a convex model to tolerance `tol` on the mixed absolute/relative
    primal and dual residuals.  Statuses: optimal, infeasible, max_iter (out
    of iterations, or past `deadline`, a time.monotonic() value; x is then
    the best iterate).  `bound` certifies the model optimum from below: +inf
    for an infeasible model, else _bound at the returned point, whatever the
    status.  An optimal solve also carries its verify_kkt report, `kkt`."""
    if _interval_presolve(model):
        return _infeasible(model)
    curvature = float(np.linalg.eigvalsh(model.Q)[0]) if model.Q is not None else 0.0
    if curvature < -PSD_SLACK and model.A.shape[0]:
        sol = _solve_reduced(model, tol, max_iter, deadline)
    else:
        sol = _solve_full(model, tol, max_iter, deadline, curvature)
    if sol.status == STATUS_OPTIMAL:
        sol.kkt = verify_kkt(model, sol)
    return sol


def _load_highs():
    """HiGHS's compiled extension as shipped inside scipy, loaded by itself:
    importing scipy.optimize around it would add about 19 MB and 0.3 s to
    every process that solves an LP."""
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(f"the HiGHS extension of scipy is missing from {folder}")
    loader = importlib.machinery.ExtensionFileLoader(_HIGHS_CORE, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_HIGHS_CORE, loader))
    loader.exec_module(module)
    return module


def _highs():
    """The HiGHS extension, loaded on the first LP solve (reused when
    scipy.optimize has already imported it); the lock makes that first load
    happen once when a caller's threads race for it."""
    global _highs_core
    with _highs_lock:
        if _highs_core is None:
            _highs_core = sys.modules.get(_HIGHS_CORE) or _load_highs()
    return _highs_core


def solve_lp(model: ConvexQpModel, deadline: float | None = None) -> QpSolution:
    """Solve a linear model (model.Q absent or zero) with HiGHS dual simplex;
    `deadline` (a time.monotonic() value) becomes HiGHS's time limit and
    `iterations` counts simplex iterations.  Statuses: optimal, infeasible
    (certified by _interval_presolve, or by HiGHS's dual ray passing the
    Farkas test), else max_iter.  `bound` is +inf for an infeasible model,
    -inf for an infeasibility HiGHS claims but cannot certify, else _bound at
    HiGHS's multipliers, which with Q absent is their weak-duality value."""
    if model.Q is not None and np.any(model.Q):
        raise ValueError("solve_lp requires a linear objective")
    if _interval_presolve(model):
        return _infeasible(model)
    hc = _highs()
    n, m, p = model.nvar, model.A.shape[0], model.C.shape[0]
    M = np.vstack([model.A, model.C])
    row_lo = np.concatenate([model.b, np.full(p, -math.inf)])
    row_hi = np.concatenate([model.b, model.d])
    cols, rows = np.nonzero(M.T)
    # a fresh matrix assigned whole: edits to the fields of lp.a_matrix_ are
    # lost, and the LP then solves without rows
    mat = hc.HighsSparseMatrix()
    mat.format_ = hc.MatrixFormat.kColwise
    mat.num_col_, mat.num_row_ = n, m + p
    mat.start_ = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    mat.index_ = rows
    mat.value_ = M[rows, cols]
    lp = hc.HighsLp()
    lp.num_col_, lp.num_row_ = n, m + p
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = model.q, model.lb, model.ub
    lp.row_lower_, lp.row_upper_ = row_lo, row_hi
    lp.a_matrix_ = mat
    highs = hc._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("threads", 1)
    highs.setOptionValue("solver", "simplex")
    highs.setOptionValue("simplex_strategy", 1)        # dual simplex
    if deadline is not None:
        highs.setOptionValue("time_limit", max(deadline - time.monotonic(), 0.0))
    highs.passModel(lp)
    highs.run()
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
        -np.concatenate([row_dual[m:], col_dual]),
        iterations,
    )
    if optimal:
        sol.kkt = verify_kkt(model, sol)
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


def verify_kkt(
    model: ConvexQpModel,
    solution: QpSolution,
    kkt_tol: float = DEFAULT_KKT_TOL,
) -> KktReport:
    """First-order optimality check of a candidate solution: stationarity
    2Qx + q + A'nu + C'mu - pi_l + pi_u = 0, primal feasibility,
    complementary slackness and multiplier nonnegativity.  Residuals are
    scaled by the largest magnitude among data, point and multipliers."""
    x = solution.x
    if x is None:
        return KktReport(math.inf, math.inf, math.inf, math.inf, False)
    nu, mu, pi_l, pi_u = solution.nu, solution.mu, solution.pi_l, solution.pi_u
    grad = _lagrangian_grad(model, x, nu, mu, pi_l, pi_u)
    stationarity = float(np.max(np.abs(grad), initial=0.0))

    primal = max(
        float(np.max(np.abs(model.A @ x - model.b), initial=0.0)) if model.A.shape[0] else 0.0,
        float(np.max(model.C @ x - model.d, initial=0.0)) if model.C.shape[0] else 0.0,
        float(np.max(model.lb - x, initial=0.0)),
        float(np.max(x - model.ub, initial=0.0)),
        0.0,
    )

    comp = 0.0
    if model.C.shape[0]:
        comp = float(np.max(np.abs(mu * (model.d - model.C @ x)), initial=0.0))
    comp = max(
        comp,
        float(np.max(np.abs(pi_l * (x - model.lb)), initial=0.0)),
        float(np.max(np.abs(pi_u * (model.ub - x)), initial=0.0)),
    )

    dual_viol = max(
        float(np.max(-mu, initial=0.0)),
        float(np.max(-pi_l, initial=0.0)),
        float(np.max(-pi_u, initial=0.0)),
        0.0,
    )

    scale = 1.0 + max(
        float(np.max(np.abs(a), initial=0.0))
        for a in (model.q, model.A, model.b, model.C, model.d, model.lb, model.ub,
                  x, nu, mu, pi_l, pi_u, 0.0 if model.Q is None else model.Q)
    )
    s, p_, c_, d_ = (v / scale for v in (stationarity, primal, comp, dual_viol))
    passed = s <= kkt_tol and p_ <= kkt_tol and c_ <= kkt_tol and d_ <= kkt_tol
    return KktReport(s, p_, c_, d_, passed)
