"""Branching-variable selection.

Binary problems use spectral rules that score a candidate i by (an estimate
of) the smallest eigenvalue of Q with row/column i deleted -- the less
indefinite the children, the better:

* exact: full enumeration of deleted eigenvalues, Omega(|B|^3);
* gct: Gershgorin circle lower bound of each deleted matrix, assembled from
  row sums without materializing submatrices, O(|B|^2);
* approx: largest |component| of the shift eigenvector already computed for
  the node bound, O(|B|).

The %gap metric grades any choice between the enumerated best (0%) and worst
(100%).  Continuous nonconvex variables use an envelope-violation score and
integers fall back to most-fractional.  All ties break to the lowest original
index so runs are deterministic.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .relaxation import SpectralShift

SPLIT_CLAMP = 0.2      # spatial split point forced this deep into the box
FRACTIONAL_TOL = 1e-6


def _check_candidates(Qb: np.ndarray, B) -> np.ndarray:
    Qb = np.asarray(Qb, dtype=float)
    if Qb.shape[0] != len(B):
        raise ValueError(f"Q is {Qb.shape[0]}x{Qb.shape[0]} but |B| = {len(B)}")
    if len(B) < 2:
        raise ValueError("need at least two unfixed variables to branch")
    return Qb


def deleted_min_eigenvalues(Qb) -> np.ndarray:
    """lambda_min of Q with row/column i deleted, for every i."""
    Qb = np.asarray(Qb, dtype=float)
    return np.array(
        [
            linalg.sym_eig_min(linalg.submatrix_delete(Qb, i)).value
            for i in range(Qb.shape[0])
        ]
    )


def spectral_branch_exact(Qb, B) -> int:
    """Enumerate lambda_min of every deleted submatrix and pick the variable
    whose removal leaves the least indefinite block."""
    Qb = _check_candidates(Qb, B)
    lams = deleted_min_eigenvalues(Qb)
    return B[int(np.argmax(lams))]     # argmax takes the first = lowest index


def gct_deleted_bounds(Qb) -> np.ndarray:
    """Gershgorin lower bound of each deleted submatrix: for candidate i,
    min over k != i of Q_kk - sum_{l != k, i} |Q_kl|, using only row sums."""
    Qb = np.asarray(Qb, dtype=float)
    nb = Qb.shape[0]
    diag = np.diag(Qb)
    rowabs = np.sum(np.abs(Qb), axis=1) - np.abs(diag)
    bounds = np.empty(nb)
    for i in range(nb):
        vals = diag - (rowabs - np.abs(Qb[:, i]))
        vals[i] = np.inf
        bounds[i] = float(np.min(vals))
    return bounds


def spectral_branch_gct(Qb, B) -> int:
    Qb = _check_candidates(Qb, B)
    return B[int(np.argmax(gct_deleted_bounds(Qb)))]


def spectral_branch_approx(shift: SpectralShift, B) -> int:
    """Largest |component| of the node's shift eigenvector; the direction the
    nonconvexity lives in is the one worth fixing."""
    v = np.abs(np.asarray(shift.eigvec, dtype=float))
    if v.shape[0] != len(B):
        raise ValueError(f"eigvec has {v.shape[0]} entries but |B| = {len(B)}")
    if len(B) < 1:
        raise ValueError("no candidates")
    if float(np.max(v)) == 0.0:
        raise ValueError("zero shift eigenvector: node needs no spectral branch")
    return B[int(np.argmax(v))]


def branching_gap_metric(Qb, i_x: int) -> float:
    """Effectiveness of choice i_x in percent: 0 matches the enumerated best
    deletion, 100 the worst; degenerate spreads (< 1e-12) report 0."""
    Qb = np.asarray(Qb, dtype=float)
    nb = Qb.shape[0]
    if nb < 3:
        raise ValueError("gap metric needs n >= 3")
    if not 0 <= i_x < nb:
        raise ValueError(f"candidate {i_x} out of range")
    lams = deleted_min_eigenvalues(Qb)
    best = float(np.max(lams))
    worst = float(np.min(lams))
    denom = worst - best
    if abs(denom) < 1e-12:
        return 0.0
    return float(np.clip(100.0 * (float(lams[i_x]) - best) / denom, 0.0, 100.0))


def spatial_branch(lb, ub, x_relax, Qb, alpha: float = 0.0) -> tuple[int, float] | None:
    """Continuous branching over the node's free variables, whose box is
    [lb, ub]: pick the variable with the largest weighted envelope violation
    |Q_ii + alpha| * ((l+u)x - lu - x^2) at the relaxation point, split
    there, clamped 20% inside its range.  Returns (local index, split), or
    None when no variable has envelope slack at the point (a box vertex,
    say), which leaves the choice to the caller."""
    x = np.asarray(x_relax, dtype=float)
    Qb = np.asarray(Qb, dtype=float)
    viol = (lb + ub) * x - lb * ub - x * x
    scores = np.abs(np.diag(Qb) + alpha) * viol
    i = int(np.argmax(scores))
    if scores[i] <= 0.0:
        return None
    w = ub[i] - lb[i]
    return i, float(np.clip(x[i], lb[i] + SPLIT_CLAMP * w, ub[i] - SPLIT_CLAMP * w))


def most_fractional_branch(free, x_relax, integers) -> int | None:
    """Fallback integer rule: of the free variables `free` (original
    indices, x_relax over them in that order), the integer one whose
    relaxation value sits deepest between its neighboring integers; None
    when every free integer is within FRACTIONAL_TOL of an integer."""
    x = np.asarray(x_relax, dtype=float)
    best_i = None
    best_frac = FRACTIONAL_TOL
    for local, orig in enumerate(free):
        if orig not in integers:
            continue
        frac = min(x[local] - np.floor(x[local]), np.ceil(x[local]) - x[local])
        if frac > best_frac:
            best_frac = frac
            best_i = orig
    return best_i
