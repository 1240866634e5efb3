import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spectralqp import linalg
from spectralqp.linalg import (
    EIG_TOL,
    NotPositiveDefinite,
    gct_lower_bound,
    gen_eig_min,
    nullspace_basis,
    sym_eig_all,
    sym_eig_min,
    submatrix_delete,
)
from spectralqp.oracle import rayleigh_probe_min


def random_symmetric(rng, n, scale=1.0):
    B = rng.standard_normal((n, n)) * scale
    return 0.5 * (B + B.T)


class TestSymEigMin:
    def test_diagonal(self):
        pair = sym_eig_min(np.diag([3.0, -1.0, 2.0]))
        assert pair.value == pytest.approx(-1.0)
        np.testing.assert_allclose(pair.vector, [0.0, 1.0, 0.0], atol=1e-12)

    def test_two_by_two_exchange(self):
        # eigenvalues of [[0,1],[1,0]] are +-1
        pair = sym_eig_min([[0.0, 1.0], [1.0, 0.0]])
        assert pair.value == pytest.approx(-1.0)
        np.testing.assert_allclose(pair.vector, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)

    def test_residual_and_unit_norm(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 17, 40):
            M = random_symmetric(rng, n, scale=10.0)
            pair = sym_eig_min(M)
            scale = 1.0 + float(np.max(np.abs(M)))
            resid = np.max(np.abs(M @ pair.vector - pair.value * pair.vector))
            assert resid <= EIG_TOL * scale * 10
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0)

    def test_sign_convention(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = random_symmetric(rng, 6)
            v = sym_eig_min(M).vector
            nz = v[np.abs(v) > 1e-12]
            assert nz[0] > 0

    def test_rayleigh_probe_upper_bounds(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            M = random_symmetric(rng, 5, scale=3.0)
            lam = sym_eig_min(M).value
            probe = rayleigh_probe_min(M, trials=2000, seed=trial)
            assert lam <= probe + 1e-12
            assert probe - lam < 1.0  # probes get reasonably close on small n

    def test_values_are_the_whole_spectrum(self):
        M = random_symmetric(np.random.default_rng(3), 6)
        pair = sym_eig_min(M)
        assert np.array_equal(pair.values, np.linalg.eigh(M)[0])
        assert pair.value == pair.values[0]

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig_min([[0.0, 1.0], [0.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig_min([[np.nan, 0.0], [0.0, 1.0]])


class TestGenEigMin:
    def test_diagonal_pencil(self):
        # det(M - lam N) with M=diag(1,-1), N=diag(1,2): roots 1 and -1/2
        pair = gen_eig_min(np.diag([1.0, -1.0]), np.diag([1.0, 2.0]))
        assert pair.value == pytest.approx(-0.5)
        np.testing.assert_allclose(pair.vector, [0.0, 1.0], atol=1e-12)

    def test_exchange_pencil(self):
        # M=[[0,1],[1,0]], N=[[2,1],[1,2]]: (3 lam - 1)(lam + 1) = 0
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        N = np.array([[2.0, 1.0], [1.0, 2.0]])
        pair = gen_eig_min(M, N)
        assert pair.value == pytest.approx(-1.0)
        v = pair.vector
        np.testing.assert_allclose(v / np.linalg.norm(v), [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_identity_reduces_to_standard(self):
        rng = np.random.default_rng(4)
        M = random_symmetric(rng, 7)
        a = gen_eig_min(M, np.eye(7))
        b = sym_eig_min(M)
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_pencil_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            M = random_symmetric(rng, 6, scale=5.0)
            B = rng.standard_normal((6, 6))
            N = B @ B.T + 6 * np.eye(6)
            pair = gen_eig_min(M, N)
            resid = np.max(np.abs(M @ pair.vector - pair.value * (N @ pair.vector)))
            scale = 1.0 + max(np.max(np.abs(M)), np.max(np.abs(N)))
            assert resid <= 1e-8 * scale
            probe = rayleigh_probe_min(M, N, trials=2000, seed=11)
            assert pair.value <= probe + 1e-10

    def test_indefinite_n_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            gen_eig_min(np.eye(2), [[1.0, 2.0], [2.0, 1.0]])

    def test_negative_n_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            gen_eig_min([[1.0]], [[-1.0]])

    def test_semidefinite_n_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            gen_eig_min(np.eye(2), [[1.0, 1.0], [1.0, 1.0]])


class TestNullspace:
    def test_single_row(self):
        Z = nullspace_basis(np.array([[0.0, 1.0]]))
        assert Z.shape == (2, 1)
        np.testing.assert_allclose(Z[:, 0], [1.0, 0.0], atol=1e-12)

    def test_orthonormal_and_annihilating(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m, n = int(rng.integers(1, 4)), int(rng.integers(4, 9))
            A = rng.standard_normal((m, n))
            Z = nullspace_basis(A)
            assert Z.shape == (n, n - np.linalg.matrix_rank(A))
            np.testing.assert_allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-10)
            assert np.max(np.abs(A @ Z)) <= 1e-10 * (1.0 + np.max(np.abs(A)))

    def test_rank_deficient_rows(self):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        Z = nullspace_basis(A)
        assert Z.shape == (3, 2)
        assert np.max(np.abs(A @ Z)) <= 1e-10

    def test_zero_and_empty_rows(self):
        np.testing.assert_array_equal(nullspace_basis(np.zeros((0, 4))), np.eye(4))
        np.testing.assert_array_equal(nullspace_basis(np.zeros((2, 4))), np.eye(4))

    def test_full_rank_square(self):
        Z = nullspace_basis(np.eye(3))
        assert Z.shape == (3, 0)


class TestGct:
    def test_all_ones_offdiagonal(self):
        # eigenvalues of ones(3) - I are {2, -1, -1}; bound 0 - 2 = -2
        T = np.ones((3, 3)) - np.eye(3)
        assert gct_lower_bound(T) == pytest.approx(-2.0)
        assert sym_eig_min(T).value == pytest.approx(-1.0)

    def test_diagonal_is_exact(self):
        T = np.diag([4.0, -2.0, 7.0])
        assert gct_lower_bound(T) == pytest.approx(-2.0)

    def test_soundness_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            T = random_symmetric(rng, n, scale=4.0)
            assert gct_lower_bound(T) <= sym_eig_min(T).value + 1e-9

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 6).map(lambda k: (k, k)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_soundness_property(self, B):
        T = 0.5 * (B + B.T)
        assert gct_lower_bound(T) <= sym_eig_min(T).value + 1e-9


class TestSubmatrixDelete:
    def test_small(self):
        T = np.array([[1.0, 2.0], [2.0, 5.0]])
        np.testing.assert_array_equal(submatrix_delete(T, 1), [[1.0]])
        np.testing.assert_array_equal(submatrix_delete(T, 0), [[5.0]])

    def test_middle(self):
        T = np.arange(9.0).reshape(3, 3)
        out = submatrix_delete(T, 1)
        np.testing.assert_array_equal(out, [[0.0, 2.0], [6.0, 8.0]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            submatrix_delete(np.eye(2), 2)

    def test_cauchy_interlacing(self):
        # deleting a row/column never lowers the minimum eigenvalue
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            T = random_symmetric(rng, n, scale=3.0)
            lam = sym_eig_min(T).value
            for k in range(n):
                assert sym_eig_min(submatrix_delete(T, k)).value >= lam - 1e-10


class TestSymEigAll:
    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        M = random_symmetric(rng, 8)
        w, V = sym_eig_all(M)
        np.testing.assert_allclose(V @ np.diag(w) @ V.T, M, atol=1e-10)
        assert np.all(np.diff(w) >= -1e-14)
        np.testing.assert_allclose(V.T @ V, np.eye(8), atol=1e-10)


# ---------------------------------------------------- column sign convention


def _fix_sign_per_column(V):
    """Reference sign fix, one column at a time: the first entry above 1e-12
    in magnitude is made positive, by negating the whole column."""
    out = V.copy()
    for k in range(V.shape[1]):
        for x in V[:, k]:
            if abs(x) > 1e-12:
                if x < 0:
                    out[:, k] = -V[:, k]
                break
    return out


def _assert_same_bits(X, Y):
    assert np.array_equal(X, Y)
    assert np.array_equal(np.signbit(X), np.signbit(Y))


class TestColumnSigns:
    def test_matches_the_column_loop_on_edge_columns(self):
        V = np.array([
            [1e-12, -1e-13, 0.0, -0.0, 2.0, -3.0],
            [-1e-12, 1e-14, -0.0, 0.0, -1.0, 1.0],
            [-0.5, -1e-13, -2.0, 0.0, 0.0, -0.0],
            [0.25, 0.0, 1.0, -1e-15, -0.0, 0.0],
        ])
        # columns: leading entries at most 1e-12 then negative, tiny
        # throughout, signed zeros ahead of a negative entry, all (signed)
        # zeros, a positive and a negative leading entry
        fixed = linalg._fix_column_signs(V)
        _assert_same_bits(fixed, _fix_sign_per_column(V))
        assert np.array_equal(fixed[:, 1], V[:, 1])     # tiny: left alone
        assert fixed[2, 0] == 0.5 and fixed[2, 2] == 2.0

    def test_sym_eig_all_matches_the_column_loop(self):
        rng = np.random.default_rng(12)
        # block diagonal: eigenvectors with exact zeros in their leading entries
        M = scipy.linalg.block_diag(random_symmetric(rng, 3), random_symmetric(rng, 4))
        for M in (M, random_symmetric(rng, 7), -np.eye(5)):
            w, V = np.linalg.eigh(0.5 * (M + M.T))
            got_w, got_V = sym_eig_all(M)
            assert np.array_equal(got_w, w)
            _assert_same_bits(got_V, _fix_sign_per_column(V))

    def test_min_eigenvectors_match_the_column_loop(self):
        rng = np.random.default_rng(14)
        # block diagonal: the smallest eigenvector of one block has exact
        # zeros where the other block sits, ahead of or behind its entries
        M = scipy.linalg.block_diag(random_symmetric(rng, 3), random_symmetric(rng, 4))
        B = rng.standard_normal((4, 4))
        N = scipy.linalg.block_diag(np.diag([1.0, 2.0, 0.5]), np.eye(4) + B @ B.T)
        cases = ((M, N), (-M, N), (random_symmetric(rng, 7), np.eye(7)), (-np.eye(5), np.eye(5)))
        for M, N in cases:
            V = np.linalg.eigh(M)[1][:, :1]
            v = _fix_sign_per_column(V)[:, 0]
            _assert_same_bits(sym_eig_min(M).vector, v / np.linalg.norm(v))
            V = scipy.linalg.eigh(M, N, subset_by_index=[0, 0])[1]
            ref = _fix_sign_per_column(V / np.linalg.norm(V[:, 0]))[:, 0]
            _assert_same_bits(gen_eig_min(M, N).vector, ref)

    def test_nullspace_basis_matches_the_column_loop(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((2, 7))
        A[:, :3] = 0.0     # e1, e2, e3 lie in the nullspace
        for A in (A, rng.standard_normal((3, 6)), np.array([[1.0, -1.0, 0.0, 0.0]])):
            Z = nullspace_basis(A)
            Qf = scipy.linalg.qr(A.T, mode="full", pivoting=True)[0]
            _assert_same_bits(Z, _fix_sign_per_column(Qf[:, A.shape[1] - Z.shape[1]:]))


# -------------------------------- scipy.linalg parity: the same LAPACK calls


class TestScipyParity:
    """gen_eig_min, pivoted_qr and nullspace_basis call scipy's LAPACK
    extension directly; their results keep the bits of the scipy.linalg
    calls they replace."""

    def test_gen_eig_min_matches_eigh(self):
        rng = np.random.default_rng(24)
        for n in range(1, 13):
            for scale in (1.0, 1e-3, 1e3):
                M = random_symmetric(rng, n, scale)
                B = rng.standard_normal((n, n))
                for N in (np.eye(n) + B @ B.T, np.diag(rng.uniform(0.1, 10.0, n))):
                    S, T = 0.5 * (M + M.T), 0.5 * (N + N.T)
                    w, V = scipy.linalg.eigh(S, T, subset_by_index=[0, 0])
                    ref = linalg._fix_column_signs(V / np.linalg.norm(V))[:, 0]
                    pair = gen_eig_min(M, N)
                    assert pair.value == float(w[0])
                    _assert_same_bits(pair.vector, ref)

    def test_indefinite_n_of_any_order_rejected(self):
        # the failing leading minor is the last one
        for n in (1, 3, 8):
            N = np.eye(n)
            N[-1, -1] = -1e-3
            with pytest.raises(NotPositiveDefinite):
                gen_eig_min(np.eye(n), N)
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                scipy.linalg.eigh(np.eye(n), N, subset_by_index=[0, 0])

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(25)
        wide = rng.standard_normal((2, 7))
        wide[:, :3] = 0.0
        deficient = rng.standard_normal((4, 6))
        deficient[3] = deficient[0] - 2.0 * deficient[1]
        tall_deficient = rng.standard_normal((7, 4))
        tall_deficient[:, 2] = tall_deficient[:, 0]
        return [
            ("tall", rng.standard_normal((7, 4))),
            ("tall rank-deficient", tall_deficient),
            ("square", rng.standard_normal((5, 5))),
            ("wide", wide),
            ("one row", rng.standard_normal((1, 5))),
            ("one sparse row", np.array([[1.0, -1.0, 0.0, 0.0]])),
            ("rank-deficient", deficient),
            ("repeated rows", np.tile(rng.standard_normal(3), (3, 1))),
        ]

    def test_pivoted_qr_matches_qr(self):
        for what, A in self._matrices():
            (qr, tau), _, piv = scipy.linalg.qr(A.T, mode="raw", pivoting=True)
            R = scipy.linalg.qr(A.T, mode="r", pivoting=True)[0]
            got_qr, got_tau, got_piv = linalg.pivoted_qr(A.T)
            assert np.array_equal(got_qr, qr), what
            assert np.array_equal(got_tau, tau), what
            assert np.array_equal(got_piv, piv) and got_piv.dtype == piv.dtype, what
            assert np.array_equal(np.triu(got_qr), R), what

    def test_nullspace_basis_matches_full_qr(self):
        for what, A in self._matrices():
            Qf, R, _ = scipy.linalg.qr(A.T, mode="full", pivoting=True)
            diag = np.abs(np.diag(R))
            rank = int(np.sum(diag > linalg.RANK_TOL * diag[0]))
            _assert_same_bits(nullspace_basis(A), linalg._fix_column_signs(Qf[:, rank:]))

    def test_size_zero_qr_matches_qr(self):
        for shape in ((0, 3), (3, 0), (0, 0)):
            a = np.zeros(shape)
            R, piv = scipy.linalg.qr(a, mode="r", pivoting=True)
            qr, tau, got_piv = linalg.pivoted_qr(a)
            assert np.triu(qr).shape == R.shape and tau.size == 0
            assert np.array_equal(got_piv, piv) and got_piv.dtype == piv.dtype

    def test_non_finite_input_rejected(self):
        for bad in (np.nan, np.inf):
            A = np.ones((2, 3))
            A[1, 2] = bad
            with pytest.raises(ValueError):
                nullspace_basis(A)
            with pytest.raises(ValueError):
                linalg.pivoted_qr(A.T)
            with pytest.raises(ValueError):
                scipy.linalg.qr(A.T, mode="full", pivoting=True)
