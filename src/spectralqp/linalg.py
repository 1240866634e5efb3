"""Dense symmetric linear algebra used by the relaxations and branching rules:
minimum eigenpairs, symmetric-definite pencils, orthonormal nullspace bases,
and Gershgorin-style lower bounds.

Instances here are desk scale (n up to a few hundred), so everything is dense
and every factorization and eigensolve is a LAPACK call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

EIG_TOL = 1e-10        # residual guarantee for eigenpairs
RANK_TOL = 1e-10       # relative rank threshold for nullspace bases
SYM_TOL = 1e-8         # relative asymmetry check_symmetric accepts


class NotPositiveDefinite(ArithmeticError):
    """The right-hand matrix of a pencil is not positive definite."""


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray   # unit 2-norm, first nonzero component positive
    values: np.ndarray | None = None   # the whole spectrum, ascending, when computed


def check_symmetric(M, what: str = "matrix") -> np.ndarray:
    """Validate a square symmetric array and return it as float64, exactly
    symmetrized to protect downstream factorizations from roundoff drift."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{what} contains non-finite entries")
    if M.shape[0] > 1:
        dev = float(np.max(np.abs(M - M.T)))
        scale = 1.0 + float(np.max(np.abs(M)))
        if dev > SYM_TOL * scale:
            raise ValueError(f"{what} is not symmetric (max deviation {dev:.3e})")
    return 0.5 * (M + M.T)


def _fix_column_signs(V: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector orientation, for every column of V at once:
    the first entry of magnitude above 1e-12 is made positive."""
    big = np.abs(V) > 1e-12
    first = big.argmax(axis=0)      # 0 in a column without such an entry
    cols = np.arange(V.shape[1])
    return np.where(big[first, cols] & (V[first, cols] < 0.0), -V, V)


def sym_eig_min(M) -> EigenPair:
    """Smallest eigenvalue of a symmetric matrix with a unit eigenvector, and
    the whole spectrum (`values`) that the same eigensolve computes."""
    M = check_symmetric(M, what="M")
    w, V = np.linalg.eigh(M)
    v = _fix_column_signs(V[:, :1])[:, 0]
    return EigenPair(float(w[0]), v / np.linalg.norm(v), w)


def sym_eig_all(M) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition, eigenvalues ascending, columns sign-fixed."""
    M = check_symmetric(M, what="M")
    w, V = np.linalg.eigh(M)
    return w, _fix_column_signs(V)


def gen_eig_min(M, N) -> EigenPair:
    """Smallest eigenvalue lambda of the pencil M v = lambda N v with N
    positive definite, by one LAPACK symmetric-definite eigensolve.  The
    eigenvector is renormalized to unit 2-norm.  Raises NotPositiveDefinite
    when N is not positive definite."""
    M = check_symmetric(M, what="M")
    N = check_symmetric(N, what="N")
    try:
        w, V = scipy.linalg.eigh(M, N, subset_by_index=[0, 0])
    except np.linalg.LinAlgError as exc:
        if "not positive definite" not in str(exc):
            raise       # a convergence failure, not a property of N
        raise NotPositiveDefinite(str(exc)) from None
    return EigenPair(float(w[0]), _fix_column_signs(V / np.linalg.norm(V))[:, 0])


def nullspace_basis(A) -> np.ndarray:
    """Orthonormal basis Z (columns) of the nullspace of A, from a
    column-pivoted orthogonal factorization of A'.  Rank is counted by
    diagonal magnitudes of the triangular factor relative to the largest;
    returns an (n, n - rank) array, possibly with zero columns."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    n = A.shape[1]
    if A.shape[0] == 0 or not np.any(A):
        return np.eye(n)
    Qf, R, _ = scipy.linalg.qr(A.T, mode="full", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > RANK_TOL * diag[0]))
    return _fix_column_signs(Qf[:, rank:])


def gct_lower_bound(T) -> float:
    """Gershgorin circle lower bound on the smallest eigenvalue:
    min_k (T_kk - sum_{l != k} |T_kl|)."""
    T = check_symmetric(T, what="T")
    radii = np.sum(np.abs(T), axis=1) - np.abs(np.diag(T))
    return float(np.min(np.diag(T) - radii))


def submatrix_delete(T, k: int) -> np.ndarray:
    """Principal submatrix of T with (0-based) row and column k removed."""
    T = np.asarray(T, dtype=float)
    t = T.shape[0]
    if not (0 <= k < t):
        raise ValueError(f"index {k} out of range for order {t}")
    keep = [i for i in range(t) if i != k]
    return T[np.ix_(keep, keep)]
