"""Branching rules: worked selections, tie-breaks, the %gap metric, and the
Gershgorin/interlacing consistency properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralqp import bnb, linalg, problem
from spectralqp.branching import (
    branching_gap_metric,
    deleted_min_eigenvalues,
    gct_deleted_bounds,
    most_fractional_branch,
    spatial_branch,
    spectral_branch_approx,
    spectral_branch_exact,
    spectral_branch_gct,
)
from spectralqp.relaxation import SpectralShift, compute_shift_eig, free_indices, restrict

Q_BLOCK = np.array([[-4.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
Q_TIE = np.array([[-1.0, 2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 5.0]])


def rand_sym(rng, n, scale=5.0):
    M = rng.uniform(-scale, scale, size=(n, n))
    return 0.5 * (M + M.T)


# ----------------------------------------------------------------- exact rule


def test_exact_worked_block():
    # deleting var 0 leaves [[0,1],[1,0]] (lambda -1); the others leave -4
    assert np.allclose(deleted_min_eigenvalues(Q_BLOCK), [-1.0, -4.0, -4.0])
    assert spectral_branch_exact(Q_BLOCK, (0, 1, 2)) == 0


def test_exact_maps_to_original_indices():
    assert spectral_branch_exact(Q_BLOCK, (3, 5, 7)) == 3


def test_exact_tie_lowest_index():
    # deletions of 0 and 1 both leave lambda -1; 2 leaves -3ish
    assert spectral_branch_exact(Q_TIE, (0, 1, 2)) == 0


def test_exact_diagonal_drops_most_negative():
    assert spectral_branch_exact(np.diag([-3.0, -2.0, -1.0]), (0, 1, 2)) == 0


def test_exact_needs_two_candidates():
    with pytest.raises(ValueError):
        spectral_branch_exact(np.array([[1.0]]), (0,))


# ------------------------------------------------------------------- gct rule


def test_gct_worked_bounds():
    assert np.allclose(gct_deleted_bounds(Q_TIE), [-1.0, -1.0, -3.0])
    assert spectral_branch_gct(Q_TIE, (0, 1, 2)) == 0


def test_gct_bilinear_tie():
    assert spectral_branch_gct(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1)) == 0


def test_gct_matches_exact_on_diagonals():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        Q = np.diag(rng.uniform(-5, 5, n))
        B = tuple(range(n))
        assert spectral_branch_gct(Q, B) == spectral_branch_exact(Q, B)


def test_gct_bounds_below_deleted_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        Q = rand_sym(rng, n)
        assert np.all(gct_deleted_bounds(Q) <= deleted_min_eigenvalues(Q) + 1e-9)


# ----------------------------------------------------------------- approx rule


def test_approx_picks_largest_component():
    shift = SpectralShift("eig", 1.0, -1.0, np.array([0.8, -0.5, 0.33]))
    assert spectral_branch_approx(shift, (0, 1, 2)) == 0


def test_approx_tie_lowest_index():
    r = 1.0 / np.sqrt(2.0)
    shift = SpectralShift("eig", 1.0, -1.0, np.array([r, -r]))
    assert spectral_branch_approx(shift, (0, 1)) == 0


def test_approx_agrees_with_exact_on_block():
    shift = compute_shift_eig(Q_BLOCK)
    # lambda_min(Q_BLOCK) = -4 with eigenvector e1
    assert spectral_branch_approx(shift, (0, 1, 2)) == 0
    assert spectral_branch_approx(shift, (0, 1, 2)) == spectral_branch_exact(
        Q_BLOCK, (0, 1, 2)
    )


def test_approx_rejects_zero_vector():
    shift = SpectralShift("eig", 0.0, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        spectral_branch_approx(shift, (0, 1, 2))


# ----------------------------------------------------------------- gap metric


def test_gap_metric_worked():
    assert branching_gap_metric(Q_BLOCK, 0) == 0.0
    assert branching_gap_metric(Q_BLOCK, 1) == pytest.approx(100.0)
    assert branching_gap_metric(Q_BLOCK, 2) == pytest.approx(100.0)


def test_gap_metric_degenerate_spread():
    # every deletion of the identity looks identical
    assert branching_gap_metric(np.eye(3), 1) == 0.0


def test_gap_metric_requires_three():
    with pytest.raises(ValueError):
        branching_gap_metric(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)


def test_gap_metric_in_range_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        Q = rand_sym(rng, n)
        for i in range(n):
            g = branching_gap_metric(Q, i)
            assert 0.0 <= g <= 100.0


# --------------------------------------------------------------- spatial rule


def test_spatial_splits_at_relaxation_point():
    i, split = spatial_branch(np.zeros(1), np.ones(1), [0.5], np.array([[-1.0]]))
    assert i == 0
    assert split == pytest.approx(0.5)


def test_spatial_clamps_near_bound():
    lb, ub = np.zeros(1), np.ones(1)
    _, split = spatial_branch(lb, ub, [0.02], np.array([[-1.0]]))
    assert split == pytest.approx(0.2)
    _, split = spatial_branch(lb, ub, [0.99], np.array([[-1.0]]))
    assert split == pytest.approx(0.8)


def test_spatial_picks_largest_weighted_violation():
    # violations x - x^2: 0.09 vs 0.25
    i, _ = spatial_branch(np.zeros(2), np.ones(2), [0.1, 0.5], np.diag([-1.0, -1.0]))
    assert i == 1


def test_spatial_uses_original_numbering():
    # spatial_branch answers in the node's local numbering; bnb maps it back
    # to the original one, as a Python int for the trace
    prob = problem.validate(
        n=5, Q=np.diag([1.0, 1.0, 1.0, 1.0, -2.0]), q=np.zeros(5),
        lb=np.zeros(5), ub=np.ones(5),
    )
    lb, ub = np.array([0.0, 1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    free = free_indices(lb, ub)
    R = restrict(prob, lb, ub)
    entry = bnb._Node(lb, ub, bound=-np.inf, depth=0, order=0)
    children, idx = bnb._branch_children(
        prob, bnb.SolverConfig(), bnb._structure(prob), entry, free, R, [0.5], None
    )
    assert idx == 4 and type(idx) is int
    assert [(c_lb[4], c_ub[4]) for c_lb, c_ub in children] == [(0.0, 0.5), (0.5, 1.0)]


def test_spatial_alpha_enters_weight():
    # diag -1 and +0.6 with alpha 1: weights |0| and |1.6|
    i, _ = spatial_branch(
        np.zeros(2), np.ones(2), [0.5, 0.4], np.diag([-1.0, 0.6]), alpha=1.0
    )
    assert i == 1


def test_spatial_rejects_cornered_point():
    assert spatial_branch(np.zeros(2), np.ones(2), [0.0, 1.0], np.diag([-1.0, -1.0])) is None


def test_spatial_split_strictly_interior_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        lb = rng.uniform(-2, 0, n)
        ub = lb + rng.uniform(0.1, 3, n)
        x = rng.uniform(lb, ub)
        pick = spatial_branch(lb, ub, x, rand_sym(rng, n))
        if pick is None:
            continue
        i, split = pick
        assert lb[i] < split < ub[i]


# ------------------------------------------------------------ most fractional


def test_most_fractional_worked():
    assert most_fractional_branch((0, 1), [0.5, 0.9], {0, 1}) == 0
    assert most_fractional_branch((0, 1), [1.0, 0.3], {0, 1}) == 1


def test_most_fractional_skips_continuous():
    assert most_fractional_branch((0, 1), [0.5, 0.4], {1}) == 1


def test_most_fractional_integral_returns_none():
    assert most_fractional_branch((0, 1), [1.0, 2.0], {0, 1}) is None


def test_most_fractional_respects_free_set():
    # variable 0 is fixed: only variable 1 is a candidate
    assert most_fractional_branch((1,), [0.4], {0, 1}) == 1


# ------------------------------------------------------------------ properties


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10_000))
def test_exact_rule_dominates_property(n, seed):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    lams = deleted_min_eigenvalues(Q)
    B = tuple(range(n))
    best = spectral_branch_exact(Q, B)
    assert lams[best] >= np.max(lams) - 1e-12
    # Cauchy interlacing: every deletion can only raise the bottom eigenvalue
    assert np.all(lams >= linalg.sym_eig_min(Q).value - 1e-9)
