"""Convex relaxations of restricted MIQP nodes.

A node is its box [lb, ub] over all n variables: a variable whose range
is a single point (lb[i] == ub[i], `free_indices` being the one place
that says so) is fixed there, every other one is free.  `restrict` turns
that box into the node's own model, a `ConvexQpModel` of kind "node" over
the free variables, whose Q (the free block of the problem's Q) is
generally indefinite.  Each relaxation maps that model to a model that
bounds min x'Qx + q'x over the node's feasible set from below:

* spectral: shift Q by alpha*I (or alpha*(I + A'A) in the generalized form)
  until convex, compensating on the box via the concave envelope of x^2,
  i.e. adding alpha * (x'x - (l+u)'x + l'u) <= 0 on [l, u];
* a lifted McCormick linear program over products X_ij = x_i x_j;
* a separable eigen-decomposed QP over the node's own variables: the PSD
  part of Q plus a secant underestimator along each negative
  eigendirection.

Shift variants: alpha_e from the plain spectrum of Q, alpha_g from the pencil
(Q, I + A'A), alpha_z from the nullspace-restricted spectrum Z'QZ, and an
approximation alpha(delta) from the pencil (Q, I + delta A'A) whose delta is
chosen once at the root by a geometric search.  The shifts always satisfy
alpha_z <= alpha_g <= alpha_e, so the matching bounds tighten in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .problem import ProblemInstance

CONVEX_TOL = 1e-10
ZERO_EIG_TOL = 1e-12

KIND_EIG = "eig"
KIND_GEIG = "geig"
KIND_EIGZ_EXACT = "eigz_exact"
KIND_EIGZ = "eigz"
KIND_NONE = "none"          # node already convex, no shift applied


@dataclass(eq=False)
class ConvexQpModel:
    """min z' Q z + q' z + offset s.t. A z = b, C z <= d, lb <= z <= ub.

    Despite the name, Q may be indefinite: a node model from `restrict`,
    an eigz model, or a "none"-kind model that is convex only on the
    nullspace of its equality rows.  Q may be None for a linear program.
    z is the node's free variables, except in the McCormick LP, which
    appends one column per product after them, each bounded only by its
    own four envelope rows of C."""

    kind: str
    Q: np.ndarray | None
    q: np.ndarray
    offset: float
    A: np.ndarray
    b: np.ndarray
    C: np.ndarray
    d: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @property
    def nvar(self) -> int:
        return self.q.shape[0]


def free_indices(lb, ub) -> np.ndarray:
    """The free variables of the box [lb, ub], ascending: those whose range
    is more than a point.  A variable with lb[i] == ub[i] is fixed there."""
    return np.flatnonzero(lb < ub)


def restrict(problem: ProblemInstance, lb, ub) -> ConvexQpModel:
    """The model of the node whose box over all n variables is [lb, ub]:
    over its free variables, the fixed values substituted, Q the free block
    of the problem's Q, the constant they leave in `offset`."""
    B = free_indices(lb, ub)
    fixed = np.ones(problem.n, dtype=bool)
    fixed[B] = False
    F = np.flatnonzero(fixed)
    Q, q = problem.Q, problem.q
    QB = Q.take(B, 0)
    qb, const = q[B], 0.0
    bb, db = problem.b, problem.d
    if F.size:
        xf = lb[F]
        qb = qb + 2.0 * (QB.take(F, 1) @ xf)
        const = float(xf @ Q.take(F, 0).take(F, 1) @ xf + q[F] @ xf)
        if problem.m:
            bb = problem.b - problem.A[:, F] @ xf
        if problem.p:
            db = problem.d - problem.C[:, F] @ xf
    return ConvexQpModel(
        kind="node",
        Q=QB.take(B, 1),
        q=qb,
        offset=const,
        A=problem.A[:, B],
        b=bb,
        C=problem.C[:, B],
        d=db,
        lb=lb[B],
        ub=ub[B],
    )


@dataclass(frozen=True, eq=False)
class SpectralShift:
    """A diagonal (or pencil) shift making the node convex.  `lam` is the raw
    minimum (pencil) eigenvalue before clamping, `alpha = max(0, -lam)`, and
    `eigvec` the associated direction in the free-variable space."""

    kind: str
    alpha: float
    lam: float
    eigvec: np.ndarray
    delta: float = 1.0


def compute_shift_eig(Qb, pair: linalg.EigenPair | None = None) -> SpectralShift:
    """alpha_e = max(0, -lambda_min(Q)); `pair`, when given, is the smallest
    eigenpair of Qb and spares the eigensolve."""
    if pair is None:
        pair = linalg.sym_eig_min(Qb)
    return SpectralShift(KIND_EIG, max(0.0, -pair.value), pair.value, pair.vector)


def compute_shift_geig(Qb, Ab) -> SpectralShift:
    """alpha_g = max(0, -lambda_min(Q, I + A'A)), the tightest uniform shift
    that stays convex after adding the squared equality residual: the shift
    at delta = 1."""
    return replace(compute_shift_at_delta(Qb, Ab, 1.0), kind=KIND_GEIG)


def compute_shift_eigz_exact(Qb, Ab) -> SpectralShift:
    """alpha_z = max(0, -lambda_min(Z'QZ)) with Z an orthonormal nullspace
    basis of A; the smallest shift that is convex on the equality manifold."""
    Qb = np.asarray(Qb, dtype=float)
    n = Qb.shape[0]
    Z = linalg.nullspace_basis(np.asarray(Ab, dtype=float).reshape(-1, n))
    if Z.shape[1] == 0:
        return SpectralShift(KIND_EIGZ_EXACT, 0.0, 0.0, np.zeros(n))
    pair = linalg.sym_eig_min(Z.T @ Qb @ Z)
    vec = Z @ pair.vector
    nrm = np.linalg.norm(vec)
    if nrm > 0:
        vec = vec / nrm
    return SpectralShift(KIND_EIGZ_EXACT, max(0.0, -pair.value), pair.value, vec)


def compute_shift_at_delta(Qb, Ab, delta: float) -> SpectralShift:
    """alpha(delta) = max(0, -lambda_min(Q, I + delta A'A)) for a fixed delta."""
    Qb = np.asarray(Qb, dtype=float)
    Ab = np.asarray(Ab, dtype=float)
    N = np.eye(Qb.shape[0]) + (delta * (Ab.T @ Ab) if Ab.size else 0.0)
    pair = linalg.gen_eig_min(Qb, N)
    return SpectralShift(KIND_EIGZ, max(0.0, -pair.value), pair.value, pair.vector, delta)


def compute_shift_eigz_approx(
    Qb,
    Ab,
    sigma: float = 10.0,
    max_iter: int = 5,
    rel_tol: float = 1e-3,
) -> tuple[SpectralShift, list]:
    """Geometric search for delta: starting from delta = 1, multiply by sigma
    until lambda(delta) stalls (relative change <= rel_tol) or max_iter
    eigenvalues have been computed.  lambda(delta) increases toward
    min(0, lambda_min(Z'QZ)), so larger delta only tightens.  Returns the
    final shift and the [(delta, lambda)] trace."""
    delta = 1.0
    shift = compute_shift_at_delta(Qb, Ab, delta)
    trace = [(delta, shift.lam)]
    while len(trace) < max_iter:
        delta *= sigma
        nxt = compute_shift_at_delta(Qb, Ab, delta)
        prev_lam = shift.lam
        shift = nxt
        trace.append((delta, nxt.lam))
        if abs(nxt.lam - prev_lam) / max(abs(prev_lam), 1e-12) <= rel_tol:
            break
    return shift, trace


def shift_for_mode(
    mode: str,
    Qb,
    Ab,
    delta: float | None = None,
    pair: linalg.EigenPair | None = None,
) -> SpectralShift:
    """The node shift of a spectral relaxation mode: 'eig' gives alpha_e,
    'geig' alpha_g, and 'eigz' (also the QP class of 'auto') alpha(delta) at
    the given delta, or at the delta of the geometric search when delta is
    None.  Without equality rows 'eigz' and 'auto' fall back to alpha_e.
    `pair` is the smallest eigenpair of Qb when the caller already has it."""
    if mode == "geig":
        return compute_shift_geig(Qb, Ab)
    if mode in ("eigz", "auto") and np.size(Ab):
        if delta is None:
            return compute_shift_eigz_approx(Qb, Ab)[0]
        return compute_shift_at_delta(Qb, Ab, delta)
    if mode in ("eig", "eigz", "auto"):
        return compute_shift_eig(Qb, pair)
    raise ValueError(f"no spectral shift for mode {mode!r}")


def build_spectral_relaxation(R: ConvexQpModel, shift: SpectralShift) -> ConvexQpModel:
    """Map the node model R to the convex QP of a spectral shift.  The
    generalized (geig) kind keeps its equality-residual quadratic
    alpha*(x'A'Ax - 2 b'Ax + b'b); every other kind uses the plain diagonal
    form, where delta influences the model only through alpha.  An eigz
    shift, or a zero shift on a node that is convex only on its equality
    nullspace, can leave Q indefinite; qpsolve reads that from Q itself."""
    nb = R.Q.shape[0]
    a = shift.alpha
    l, u = R.lb, R.ub
    if shift.kind == KIND_GEIG and R.A.size:
        Qhat = R.Q + a * (np.eye(nb) + R.A.T @ R.A)
        qhat = R.q - a * (l + u) - 2.0 * a * (R.A.T @ R.b)
        offset = a * (float(l @ u) + float(R.b @ R.b)) + R.offset
    else:
        Qhat = R.Q + a * np.eye(nb)
        qhat = R.q - a * (l + u)
        offset = a * float(l @ u) + R.offset
    return replace(R, kind=shift.kind, Q=Qhat, q=qhat, offset=offset)


def build_mccormick_relaxation(R: ConvexQpModel) -> ConvexQpModel:
    """Map the node model R to its lifted McCormick LP: one column X_ij per
    diagonal entry and per off-diagonal pair with Q_ij != 0, with the four
    envelope rows

        X_ij >= l_i x_j + l_j x_i - l_i l_j
        X_ij >= u_i x_j + u_j x_i - u_i u_j
        X_ij <= l_i x_j + u_j x_i - l_i u_j
        X_ij <= u_i x_j + l_j x_i - u_i l_j

    written in <= orientation; objective sum c_ij X_ij + q' x + offset with
    c_ii = Q_ii and c_ij = 2 Q_ij for i < j."""
    nb = R.Q.shape[0]
    l, u = R.lb, R.ub
    iu, ju = np.triu_indices(nb, 1)
    off = R.Q[iu, ju] != 0.0
    I = np.concatenate([np.arange(nb), iu[off]])
    J = np.concatenate([np.arange(nb), ju[off]])
    ncol = I.size
    nvar = nb + ncol
    coeffs = np.where(I == J, 1.0, 2.0) * R.Q[I, J]
    q = np.concatenate([R.q, coeffs])

    # rows p + 4t .. p + 4t + 3: the four envelopes of column t in the order
    # above; += leaves the sum of both coefficients where i == j
    li, ui, lj, uj = l[I], u[I], l[J], u[J]
    p = R.C.shape[0]
    C = np.zeros((p + 4 * ncol, nvar))
    C[:p, :nb] = R.C
    env = (p + np.arange(4 * ncol)).reshape(ncol, 4)
    C[env, I[:, None]] += np.stack([lj, uj, -uj, -lj], axis=1)
    C[env, J[:, None]] += np.stack([li, ui, -li, -ui], axis=1)
    C[env, (nb + np.arange(ncol))[:, None]] = [-1.0, -1.0, 1.0, 1.0]
    d = np.concatenate([R.d, np.stack([li * lj, ui * uj, -li * uj, -ui * lj], axis=1).ravel()])
    corners = np.stack([li * lj, li * uj, ui * lj, ui * uj])
    xlb = np.concatenate([l, corners.min(axis=0)])
    xub = np.concatenate([u, corners.max(axis=0)])
    A = np.zeros((R.A.shape[0], nvar))
    A[:, :nb] = R.A
    return replace(R, kind="mccormick", Q=None, q=q, A=A, C=C, d=d, lb=xlb, ub=xub)


def build_separable_relaxation(R: ConvexQpModel, lp_solve) -> ConvexQpModel | None:
    """Map the node model R to its separable relaxation (Pardalos, Glick
    and Rosen, 1987): with Q = V diag(lambda) V', keep lambda_t (v_t'x)^2
    for positive eigenvalues, their sum being the PSD part of Q, and
    replace each negative one by its secant
    lambda_t ((L_t + U_t) v_t'x - L_t U_t) over direction bounds
    [L_t, U_t], which is linear in x; zero eigendirections are dropped.
    The result is a convex QP with R's rows and box.  Each [L_t, U_t]
    starts as the interval-arithmetic range of v_t'x over the box.  When R
    has rows, one call lp_solve(model, costs) (as qpsolve.solve_lps) bounds
    v_1'x, -v_1'x, v_2'x, -v_2'x, ... from below over R's feasible set, and
    each certified `bound` tightens its end of the range.  Without rows no
    LP is solved: a certified bound lies below the box minimum, so it would
    leave the range as it is.  Returns None when a direction LP certifies
    the node empty (a `bound` of +inf): there is nothing left to relax."""
    w, V = linalg.sym_eig_all(R.Q)
    pos = w > ZERO_EIG_TOL
    neg = np.where(w < -ZERO_EIG_TOL)[0]
    lam = w[neg]
    Vn = V[:, neg]

    costs = [sign_ * Vn[:, t] for t in range(neg.size) for sign_ in (1.0, -1.0)]
    bounds = [-math.inf] * len(costs)
    if costs and (R.A.shape[0] or R.C.shape[0]):
        lp = replace(R, kind="direction_lp", Q=None, q=costs[0], offset=0.0)
        bounds = [sol.bound for sol in lp_solve(lp, costs)]
        if math.inf in bounds:
            return None
    L = np.empty(neg.size)
    U = np.empty(neg.size)
    for t in range(neg.size):
        v = Vn[:, t]
        lo_iv = float(np.minimum(v * R.lb, v * R.ub).sum())
        hi_iv = float(np.maximum(v * R.lb, v * R.ub).sum())
        # min v'x >= bound and max v'x <= -bound; -inf keeps the interval
        lo = max(lo_iv, min(bounds[2 * t], hi_iv))
        hi = min(hi_iv, max(-bounds[2 * t + 1], lo_iv))
        margin = 1e-7 * (1.0 + abs(lo) + abs(hi))
        L[t] = lo - margin
        U[t] = hi + margin

    Qhat = (V[:, pos] * w[pos]) @ V[:, pos].T
    return replace(
        R,
        kind="separable",
        Q=0.5 * (Qhat + Qhat.T),
        q=R.q + Vn @ (lam * (L + U)),
        offset=R.offset - float(lam @ (L * U)),
    )


def relaxed_objective_at(model: ConvexQpModel, x) -> float:
    """Value of the model at a point x: z'Qz + q'z + offset at z = x, or,
    when x is shorter than the model (a point of a McCormick LP's node
    variables), with each product column past x at the end of the range its
    envelope rows allow that minimizes its cost: the tightest
    envelope-consistent lifting.  For feasible x of the node this never
    exceeds the true restricted objective."""
    x = np.asarray(x, dtype=float)
    k = x.size
    val = float(model.q[:k] @ x) + model.offset
    if model.Q is not None:
        val += float(x @ model.Q @ x)
    if model.nvar > k:
        # Y y <= r over the product columns y: a row with Y < 0 bounds its
        # column below by r/Y, one with Y > 0 above; the problem's own rows
        # have Y = 0 and drop out
        Y = model.C[:, k:]
        r = model.d - model.C[:, :k] @ x
        ratio = np.divide(r[:, None], Y, out=np.zeros_like(Y), where=Y != 0.0)
        lo = np.where(Y < 0.0, ratio, -np.inf).max(axis=0)
        hi = np.where(Y > 0.0, ratio, np.inf).min(axis=0)
        c = model.q[k:]
        val += float(np.sum(np.where(c > 0.0, c * lo, np.where(c < 0.0, c * hi, 0.0))))
    return val
