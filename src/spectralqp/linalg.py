"""Dense symmetric linear algebra used by the relaxations and branching rules:
minimum eigenpairs, symmetric-definite pencils, orthonormal nullspace bases,
and Gershgorin-style lower bounds.

Instances here are desk scale (n up to a few hundred), so everything is dense
and every factorization and eigensolve is a LAPACK call: numpy's, or a routine
of `flapack`, scipy's compiled LAPACK extension loaded by itself.  Each
flapack routine is called with the arguments scipy's eigh and qr pass it, so
results keep scipy's bits without importing scipy's linalg package (about
0.2 s and 25 MB per process).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

EIG_TOL = 1e-10        # residual guarantee for eigenpairs
RANK_TOL = 1e-10       # relative rank threshold for nullspace bases
SYM_TOL = 1e-8         # relative asymmetry check_symmetric accepts


class NotPositiveDefinite(ArithmeticError):
    """The right-hand matrix of a pencil is not positive definite."""


def load_scipy_extension(name: str):
    """The compiled extension module `name` of scipy (a dotted name such as
    "scipy.linalg._flapack"): the one in sys.modules when scipy has imported
    it, else its file in scipy's folder, loaded by itself.  Finding the
    folder runs no scipy __init__, so the packages around the extension
    stay unimported.  The entry the load itself puts in sys.modules under
    `name` is taken out again: the import system binds a submodule to its
    package only when it loads the submodule, so a later import of the
    package loads it once more (from the interpreter's cache of extension
    modules, with the same routines) and sets the package attribute."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    *packages, stem = name.split(".")[1:]
    folder = os.path.join(spec.submodule_search_locations[0], *packages)
    paths = [os.path.join(folder, stem + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(f"the extension {name} is missing from {folder}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


# scipy's LAPACK routines (f2py wrappers), loaded once at import (a few ms)
flapack = load_scipy_extension("scipy.linalg._flapack")


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
    if not np.isfinite(M).all():
        raise ValueError(f"{what} contains non-finite entries")
    if M.shape[0] > 1:
        dev = float(np.abs(M - M.T).max())
        scale = 1.0 + float(np.abs(M).max())
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
    positive definite, by one LAPACK symmetric-definite eigensolve (dsygvx,
    called as scipy's eigh(M, N, subset_by_index=[0, 0]) calls it).  The
    eigenvector is renormalized to unit 2-norm.  Raises NotPositiveDefinite
    when N is not positive definite."""
    M = check_symmetric(M, what="M")
    N = check_symmetric(N, what="N")
    n = M.shape[0]
    lwork = flapack.dsygvx_lwork(n, uplo="L")[0]
    w, V, m, _, info = flapack.dsygvx(
        M, N, itype=1, jobz="V", range="I", il=1, iu=1, uplo="L", lwork=int(lwork)
    )
    if info > n:
        raise NotPositiveDefinite(f"leading minor {info - n} of N is not positive definite")
    if info:
        raise np.linalg.LinAlgError(f"dsygvx failed: info = {info}")
    w, V = w[:m], V[:, :m]
    return EigenPair(float(w[0]), _fix_column_signs(V / np.linalg.norm(V))[:, 0])


def pivoted_qr(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(qr, tau, piv): the QR factorization with column pivoting of the
    matrix a by LAPACK dgeqp3, called as scipy's qr(a, pivoting=True) calls
    it.  R is np.triu(qr), the Householder vectors sit below its
    diagonal with their scalars in tau, and piv holds the 0-based column
    order.  Non-finite entries raise ValueError."""
    a = np.asarray_chkfinite(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if not a.size:
        return np.empty_like(a), np.zeros(0), np.arange(a.shape[1], dtype=np.int32)
    lwork = int(flapack.dgeqp3(a, lwork=-1)[3][0])
    qr, piv, tau, _, info = flapack.dgeqp3(a, lwork=lwork)
    if info:
        raise ValueError(f"dgeqp3 rejected argument {-info}")
    piv -= 1
    return qr, tau, piv


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
    qr, tau, _ = pivoted_qr(A.T)
    diag = np.abs(np.diag(qr))      # R's diagonal, read before dorgqr overwrites qr
    # the full Q of A', formed as scipy's qr(mode="full") forms it
    m = A.shape[0]
    if n < m:
        F = qr[:, :n]
    else:
        F = np.empty((n, n))
        F[:, :m] = qr
    lwork = int(flapack.dorgqr(F, tau, lwork=-1)[1][0])
    Qf, _, info = flapack.dorgqr(F, tau, lwork=lwork, overwrite_a=1)
    if info:
        raise ValueError(f"dorgqr rejected argument {-info}")
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
