"""Relaxation layer: restriction algebra, spectral shifts, delta search, and
the three bounding models, checked against hand-worked values."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralqp import cli, linalg, problem, qpsolve
from spectralqp.relaxation import (
    ZERO_EIG_TOL,
    KIND_EIG,
    KIND_EIGZ,
    KIND_EIGZ_EXACT,
    KIND_GEIG,
    KIND_NONE,
    SpectralShift,
    build_mccormick_relaxation,
    build_separable_relaxation,
    build_spectral_relaxation,
    compute_shift_at_delta,
    compute_shift_eig,
    compute_shift_eigz_approx,
    compute_shift_eigz_exact,
    compute_shift_geig,
    relaxed_objective_at,
    free_indices,
    restrict,
)


def box_problem(Q, q=None, lb=None, ub=None, **kw):
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    return problem.validate(
        n=n,
        Q=Q,
        q=q if q is not None else np.zeros(n),
        lb=lb if lb is not None else -np.ones(n),
        ub=ub if ub is not None else np.ones(n),
        **kw,
    )


# the running worked example: min x1^2 - x2^2 on [-1,1]^2 with x2 = 0
def worked_instance():
    return box_problem(np.diag([1.0, -1.0]), A=[[0.0, 1.0]], b=[0.0])


def rand_sym(rng, n, scale=5.0):
    M = rng.uniform(-scale, scale, size=(n, n))
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------- restriction


def test_restrict_root_is_identity():
    prob = worked_instance()
    R = restrict(prob, prob.lb, prob.ub)
    assert R.kind == "node"
    assert np.array_equal(R.Q, prob.Q)
    assert np.array_equal(R.q, prob.q)
    assert np.array_equal(R.A, prob.A)
    assert np.array_equal(R.b, prob.b)
    assert np.array_equal(R.C, prob.C) and np.array_equal(R.d, prob.d)
    assert R.offset == 0.0


def test_restrict_fixed_value_worked():
    # Q = [[2,-3],[-3,2]], fix x2 = 1: Q = [2], q = q1 + 2*Q12 = -6, offset = 2
    prob = box_problem([[2.0, -3.0], [-3.0, 2.0]], lb=[0.0, 0.0], ub=[1.0, 1.0])
    R = restrict(prob, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    assert R.Q.shape == (1, 1) and R.Q[0, 0] == 2.0
    assert R.q[0] == -6.0
    assert R.offset == 2.0
    # the node model's objective must agree with the full one on the fixed slice
    for t in np.linspace(0, 1, 7):
        full = problem.evaluate_objective(prob, [t, 1.0])
        assert relaxed_objective_at(R, [t]) == pytest.approx(full)


def test_restrict_updates_rows():
    prob = box_problem(
        np.eye(3),
        q=[1.0, 0.0, 0.0],
        A=[[1.0, 1.0, 1.0]],
        b=[1.0],
        C=[[0.0, 1.0, 2.0]],
        d=[2.0],
        lb=np.zeros(3),
        ub=np.ones(3),
    )
    R = restrict(prob, np.array([0.0, 0.25, 0.0]), np.array([1.0, 0.25, 1.0]))
    assert np.allclose(R.A, [[1.0, 1.0]])
    assert np.allclose(R.b, [0.75])
    assert np.allclose(R.C, [[0.0, 2.0]])
    assert np.allclose(R.d, [1.75])
    assert R.offset == pytest.approx(0.0625)


def test_a_point_range_fixes_the_variable():
    lb, ub = np.array([0.0, 1.0, -2.0, 3.0]), np.array([1.0, 1.0, -1.5, 3.0])
    assert free_indices(lb, ub).tolist() == [0, 2]
    prob = box_problem(np.eye(4), lb=[0.0, 0.0, -2.0, 0.0], ub=[1.0, 1.0, 0.0, 3.0])
    R = restrict(prob, lb, ub)
    assert R.nvar == 2 and R.offset == 10.0
    assert np.array_equal(R.lb, [0.0, -2.0]) and np.array_equal(R.ub, [1.0, -1.5])


# --------------------------------------------------------------------- shifts


def test_shift_eig_worked():
    s = compute_shift_eig(np.diag([1.0, -1.0]))
    assert s.kind == KIND_EIG
    assert s.alpha == pytest.approx(1.0)
    assert s.lam == pytest.approx(-1.0)
    assert np.allclose(np.abs(s.eigvec), [0.0, 1.0], atol=1e-12)


def test_shift_eig_psd_is_zero():
    s = compute_shift_eig(np.diag([0.5, 2.0]))
    assert s.alpha == 0.0
    assert s.lam == pytest.approx(0.5)


def test_shift_geig_worked():
    # pencil (diag(1,-1), diag(1,2)): eigenvalues 1 and -1/2
    s = compute_shift_geig(np.diag([1.0, -1.0]), np.array([[0.0, 1.0]]))
    assert s.kind == KIND_GEIG
    assert s.alpha == pytest.approx(0.5)
    assert s.lam == pytest.approx(-0.5)


def test_shift_eigz_exact_worked():
    # nullspace of [0 1] is span(e1), Z'QZ = [1] is already convex
    s = compute_shift_eigz_exact(np.diag([1.0, -1.0]), np.array([[0.0, 1.0]]))
    assert s.kind == KIND_EIGZ_EXACT
    assert s.alpha == 0.0
    assert s.lam == pytest.approx(1.0)
    assert np.allclose(s.eigvec, [1.0, 0.0], atol=1e-12)


def test_shift_eigz_exact_full_row_rank_square():
    # square nonsingular A pins x: empty nullspace, zero shift
    s = compute_shift_eigz_exact(np.diag([-3.0, -4.0]), np.eye(2))
    assert s.alpha == 0.0 and s.lam == 0.0


def test_shift_ordering_worked():
    prob = worked_instance()
    R = restrict(prob, prob.lb, prob.ub)
    a_e = compute_shift_eig(R.Q).alpha
    a_g = compute_shift_geig(R.Q, R.A).alpha
    a_z = compute_shift_eigz_exact(R.Q, R.A).alpha
    assert (a_z, a_g, a_e) == pytest.approx((0.0, 0.5, 1.0))
    assert a_z <= a_g <= a_e


def test_shift_ordering_random():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(n, 3)))
        Q = rand_sym(rng, n)
        A = rng.uniform(-2, 2, size=(m, n))
        a_e = compute_shift_eig(Q).alpha
        a_g = compute_shift_geig(Q, A).alpha
        a_z = compute_shift_eigz_exact(Q, A).alpha
        assert a_z <= a_g + 1e-8
        assert a_g <= a_e + 1e-8


# --------------------------------------------------------------- delta search


def test_delta_curve_worked():
    # pencil (diag(1,-1), diag(1, 1+delta)) has lambda_min = -1/(1+delta)
    Q = np.diag([1.0, -1.0])
    A = np.array([[0.0, 1.0]])
    for delta in (1.0, 10.0, 100.0, 1e4, 1e6):
        s = compute_shift_at_delta(Q, A, delta)
        assert s.lam == pytest.approx(-1.0 / (1.0 + delta), abs=1e-12)
        assert s.delta == delta


def test_delta_search_worked_trace():
    Q = np.diag([1.0, -1.0])
    A = np.array([[0.0, 1.0]])
    shift, trace = compute_shift_eigz_approx(Q, A)
    # geometric schedule never stalls on this curve: all 5 evaluations spent
    assert [d for d, _ in trace] == [1.0, 10.0, 100.0, 1000.0, 10000.0]
    for d, lam in trace:
        assert lam == pytest.approx(-1.0 / (1.0 + d), abs=1e-9)
    assert shift.kind == KIND_EIGZ
    assert shift.delta == 10000.0
    assert shift.alpha == pytest.approx(1.0 / 10001.0, rel=1e-9)


def test_delta_search_stalls_without_rows():
    # no equalities: lambda(delta) is constant, so the search stops after two
    shift, trace = compute_shift_eigz_approx(np.diag([1.0, -2.0]), np.zeros((0, 2)))
    assert len(trace) == 2
    assert shift.delta == 10.0
    assert shift.alpha == pytest.approx(2.0)


def test_delta_search_respects_rel_tol():
    Q = np.diag([1.0, -1.0])
    A = np.array([[0.0, 1.0]])
    _, trace = compute_shift_eigz_approx(Q, A, rel_tol=0.9)
    # first relative change is 9/11 <= 0.9, so it stops right away
    assert len(trace) == 2


def test_delta_monotone_random():
    # for indefinite Q the pencil minimum stays negative and can only move up
    rng = np.random.default_rng(11)
    done = 0
    while done < 25:
        n = int(rng.integers(2, 6))
        Q = rand_sym(rng, n)
        if linalg.sym_eig_min(Q).value >= -1e-6:
            continue
        done += 1
        A = rng.uniform(-2, 2, size=(1, n))
        lams = [compute_shift_at_delta(Q, A, d).lam for d in (1.0, 10.0, 100.0, 1e3, 1e4)]
        assert all(lam < 0 for lam in lams)
        for lo, hi in zip(lams, lams[1:]):
            assert lo <= hi + 1e-10
        # and the limit is the nullspace eigenvalue, clipped at zero
        target = compute_shift_eigz_exact(Q, A).lam
        lim = compute_shift_at_delta(Q, A, 1e6).lam
        assert abs(lim - min(0.0, target)) <= 1e-3 * (1.0 + abs(lim))


def test_alpha_delta_never_increases():
    # the usable quantity is the shift alpha(delta) = max(0, -lambda); that is
    # nonincreasing in delta regardless of definiteness
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        Q = rand_sym(rng, n)
        A = rng.uniform(-2, 2, size=(1, n))
        alphas = [
            compute_shift_at_delta(Q, A, d).alpha for d in (1.0, 10.0, 100.0, 1e4)
        ]
        for hi, lo in zip(alphas, alphas[1:]):
            assert lo <= hi + 1e-10


# ------------------------------------------------------------ spectral models


def test_eig_model_worked_bound():
    prob = worked_instance()
    model = build_spectral_relaxation(restrict(prob, prob.lb, prob.ub), compute_shift_eig(prob.Q))
    assert np.allclose(model.Q, np.diag([2.0, 0.0]))
    assert np.allclose(model.q, np.zeros(2))
    assert model.offset == pytest.approx(-2.0)
    assert np.linalg.eigvalsh(model.Q)[0] >= -1e-12
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-2.0, abs=1e-7)


def test_geig_model_worked_bound():
    prob = worked_instance()
    R = restrict(prob, prob.lb, prob.ub)
    model = build_spectral_relaxation(R, compute_shift_geig(R.Q, R.A))
    assert np.allclose(model.Q, np.diag([1.5, 0.0]))
    assert np.allclose(model.q, np.zeros(2))
    assert model.offset == pytest.approx(-1.0)
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-7)


def test_eigz_model_worked_bound():
    prob = worked_instance()
    R = restrict(prob, prob.lb, prob.ub)
    model = build_spectral_relaxation(R, compute_shift_eigz_exact(R.Q, R.A))
    # zero shift keeps Q indefinite, so the model is only nullspace convex
    assert np.allclose(model.Q, prob.Q)
    assert np.linalg.eigvalsh(model.Q)[0] < -qpsolve.PSD_SLACK
    Z = linalg.nullspace_basis(model.A)
    assert np.linalg.eigvalsh(Z.T @ model.Q @ Z)[0] >= -1e-12
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-7)


def test_delta_model_worked_bound():
    prob = worked_instance()
    R = restrict(prob, prob.lb, prob.ub)
    shift, _ = compute_shift_eigz_approx(R.Q, R.A)
    model = build_spectral_relaxation(R, shift)
    # diagonal form only: delta enters through alpha, never through A'A
    assert np.allclose(model.Q, prob.Q + shift.alpha * np.eye(2))
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert -2e-4 <= sol.objective <= 0.0


def test_bound_ordering_worked():
    # eig <= geig <= eigz on the worked instance: -2 <= -1 <= 0
    prob = worked_instance()
    R = restrict(prob, prob.lb, prob.ub)
    vals = []
    for shift in (
        compute_shift_eig(R.Q),
        compute_shift_geig(R.Q, R.A),
        compute_shift_eigz_exact(R.Q, R.A),
    ):
        model = build_spectral_relaxation(R, shift)
        vals.append(qpsolve.solve_convex_qp(model).objective)
    assert vals == pytest.approx([-2.0, -1.0, 0.0], abs=1e-7)
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


def test_eig_bound_bilinear_quarter():
    # min 2 x1 x2 on [0,1]^2: eig relaxation value is -1/4
    prob = box_problem([[0.0, 1.0], [1.0, 0.0]], lb=[0.0, 0.0], ub=[1.0, 1.0])
    model = build_spectral_relaxation(restrict(prob, prob.lb, prob.ub), compute_shift_eig(prob.Q))
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-0.25, abs=1e-7)


def test_child_node_model_convex_restriction():
    # fixing x2 = 1 on Q = [[2,-3],[-3,2]] leaves a convex 1d subproblem
    prob = box_problem([[2.0, -3.0], [-3.0, 2.0]], lb=[0.0, 0.0], ub=[1.0, 1.0])
    R = restrict(prob, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    shift = compute_shift_eig(R.Q)
    assert shift.alpha == 0.0
    model = build_spectral_relaxation(R, shift)
    assert model.offset == pytest.approx(2.0)
    sol = qpsolve.solve_convex_qp(model)
    # min 2t^2 - 6t + 2 on [0,1] is -2 at t = 1
    assert sol.objective == pytest.approx(-2.0, abs=1e-7)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)


def test_none_kind_keeps_data():
    prob = box_problem(np.eye(2), q=[1.0, -1.0])
    shift = SpectralShift(KIND_NONE, 0.0, 1.0, np.zeros(2))
    model = build_spectral_relaxation(restrict(prob, prob.lb, prob.ub), shift)
    assert np.allclose(model.Q, prob.Q)
    assert np.allclose(model.q, prob.q)
    assert model.offset == 0.0


def test_spectral_underestimates_on_box():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        prob = box_problem(rand_sym(rng, n), q=rng.uniform(-2, 2, n))
        R = restrict(prob, prob.lb, prob.ub)
        model = build_spectral_relaxation(R, compute_shift_eig(prob.Q))
        for _ in range(20):
            x = rng.uniform(prob.lb, prob.ub)
            assert relaxed_objective_at(model, x) <= problem.evaluate_objective(
                prob, x
            ) + 1e-9


def test_spectral_alpha_bb_identity():
    # the shifted objective is x'Qx + q'x - sum alpha (x-l)(u-x), term by term
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        prob = box_problem(rand_sym(rng, n), q=rng.uniform(-2, 2, n))
        shift = compute_shift_eig(prob.Q)
        model = build_spectral_relaxation(restrict(prob, prob.lb, prob.ub), shift)
        for _ in range(10):
            x = rng.uniform(prob.lb - 0.5, prob.ub + 0.5)
            expect = problem.evaluate_objective(prob, x) - shift.alpha * float(
                np.sum((x - prob.lb) * (prob.ub - x))
            )
            assert relaxed_objective_at(model, x) == pytest.approx(expect, abs=1e-9)


def test_spectral_exact_at_binary_points():
    # on [0,1] boxes the penalty x(1-x) vanishes at binary points
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        prob = box_problem(rand_sym(rng, n), lb=np.zeros(n), ub=np.ones(n))
        R = restrict(prob, prob.lb, prob.ub)
        model = build_spectral_relaxation(R, compute_shift_eig(prob.Q))
        for _ in range(8):
            x = rng.integers(0, 2, n).astype(float)
            assert relaxed_objective_at(model, x) == pytest.approx(
                problem.evaluate_objective(prob, x), abs=1e-10
            )


def test_geig_underestimates_on_manifold():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        Q = rand_sym(rng, n)
        A = rng.uniform(-1, 1, size=(1, n))
        prob = box_problem(Q, A=A, b=[0.0])
        R = restrict(prob, prob.lb, prob.ub)
        model = build_spectral_relaxation(R, compute_shift_geig(R.Q, R.A))
        Z = linalg.nullspace_basis(A)
        for _ in range(20):
            x = Z @ rng.uniform(-0.3, 0.3, Z.shape[1])
            x = np.clip(x, prob.lb, prob.ub)
            if np.max(np.abs(A @ x)) > 1e-12:
                continue
            assert relaxed_objective_at(model, x) <= problem.evaluate_objective(
                prob, x
            ) + 1e-9


# ------------------------------------------------------------------ McCormick


def mccormick_pairs(model, nb):
    """The (i, j) product of each lifted column past the nb node variables,
    read from the model's rows: the column sits in exactly four rows, its
    envelopes, whose nonzero node columns are i and j."""
    pairs = []
    for t in range(model.nvar - nb):
        rows = np.flatnonzero(model.C[:, nb + t])
        assert rows.size == 4
        cols = np.flatnonzero(np.any(model.C[rows, :nb] != 0.0, axis=0))
        assert cols.size in (1, 2)
        pairs.append((int(cols[0]), int(cols[-1])))
    return pairs


def test_mccormick_bilinear_structure_and_bound():
    prob = box_problem([[0.0, 1.0], [1.0, 0.0]], lb=[0.0, 0.0], ub=[1.0, 1.0])
    model = build_mccormick_relaxation(restrict(prob, prob.lb, prob.ub))
    assert mccormick_pairs(model, 2) == [(0, 0), (1, 1), (0, 1)]
    assert np.allclose(model.q[2:], [0.0, 0.0, 2.0])
    assert model.nvar == 5
    assert np.array_equal(model.lb[:2], prob.lb) and np.array_equal(model.ub[:2], prob.ub)
    assert model.C.shape[0] == 12      # four envelope rows per lifted column
    sol = qpsolve.solve_lp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-7)


def test_mccormick_negative_square_bound():
    prob = box_problem([[-1.0]], lb=[0.0], ub=[1.0])
    model = build_mccormick_relaxation(restrict(prob, prob.lb, prob.ub))
    sol = qpsolve.solve_lp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-7)
    # envelope evaluation: upper secant x at the argmax
    assert relaxed_objective_at(model, [1.0]) == pytest.approx(-1.0)
    assert relaxed_objective_at(model, [0.5]) == pytest.approx(-0.5)


def test_mccormick_skips_zero_offdiagonals():
    prob = box_problem(np.diag([1.0, -2.0, 3.0]))
    model = build_mccormick_relaxation(restrict(prob, prob.lb, prob.ub))
    assert mccormick_pairs(model, 3) == [(0, 0), (1, 1), (2, 2)]


def test_mccormick_underestimates():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        prob = box_problem(rand_sym(rng, n), q=rng.uniform(-2, 2, n))
        model = build_mccormick_relaxation(restrict(prob, prob.lb, prob.ub))
        for _ in range(20):
            x = rng.uniform(prob.lb, prob.ub)
            assert relaxed_objective_at(model, x) <= problem.evaluate_objective(
                prob, x
            ) + 1e-9


def test_mccormick_keeps_problem_rows():
    prob = box_problem(
        [[0.0, 1.0], [1.0, 0.0]],
        A=[[1.0, 1.0]],
        b=[1.0],
        C=[[1.0, 0.0]],
        d=[0.5],
        lb=[0.0, 0.0],
        ub=[1.0, 1.0],
    )
    model = build_mccormick_relaxation(restrict(prob, prob.lb, prob.ub))
    assert model.A.shape == (1, model.nvar)
    assert np.allclose(model.A[0, : 2], [1.0, 1.0])
    assert np.allclose(model.A[0, 2:], 0.0)
    assert model.C.shape[0] == 1 + 4 * len(mccormick_pairs(model, 2))
    assert np.array_equal(model.C[0, :2], [1.0, 0.0])
    assert np.all(model.C[0, 2:] == 0.0)     # problem rows skip the products


def envelope_value(R, x):
    """(value, scale) of the McCormick LP of the node model R at x, by the
    pairwise envelopes: one product per diagonal entry and per nonzero
    off-diagonal pair, each at the end of its envelope range that minimizes
    its cost; scale is the magnitude of the terms summed."""
    l, u = R.lb, R.ub
    value = float(R.q @ x) + R.offset
    scale = 1.0 + abs(R.offset) + float(np.abs(R.q * x).sum())
    for i in range(x.size):
        for j in range(i, x.size):
            c = R.Q[i, j] * (1.0 if i == j else 2.0)
            if c == 0.0:
                continue
            li, ui, lj, uj = l[i], u[i], l[j], u[j]
            lo = max(li * x[j] + lj * x[i] - li * lj, ui * x[j] + uj * x[i] - ui * uj)
            hi = min(li * x[j] + uj * x[i] - li * uj, ui * x[j] + lj * x[i] - ui * lj)
            value += c * lo if c > 0 else c * hi
            scale += abs(c) * max(abs(lo), abs(hi))
    return value, scale


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 10_000))
def test_mccormick_value_from_rows_matches_the_envelopes(n, p, seed):
    # random problems with zero off-diagonals and inequality rows, on a
    # sub-box that fixes some variables: the model's value at a point of
    # the node's variables, each product read from its own envelope rows,
    # is the pairwise envelope value; it never exceeds the true objective
    # on the node's box, and meets it at the box's vertices
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    gap = np.triu(rng.random((n, n)) < 0.4, 1)
    Q[gap | gap.T] = 0.0
    lb0 = rng.choice([0.0, -1.0, -2.5], n)
    ub0 = lb0 + rng.choice([1.0, 2.0, 3.5], n)
    prob = box_problem(
        Q, q=rng.uniform(-2, 2, n), C=rng.uniform(-1, 1, (p, n)), d=rng.uniform(0, 2, p),
        lb=lb0, ub=ub0,
    )
    lb = lb0 + (ub0 - lb0) * rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.5)
    ub = ub0 - (ub0 - lb) * rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.5)
    fix = rng.random(n) < 0.3
    lb[fix] = ub[fix] = rng.uniform(lb[fix], ub[fix])
    R = restrict(prob, lb, ub)
    model = build_mccormick_relaxation(R)
    free = free_indices(lb, ub)
    for corner in (False,) * 10 + (True,) * 3:
        x = rng.uniform(R.lb, R.ub)
        if corner:
            x = np.where(rng.random(x.size) < 0.5, R.lb, R.ub)
        got = relaxed_objective_at(model, x)
        ref, scale = envelope_value(R, x)
        assert abs(got - ref) <= 1e-12 * scale
        full = lb.copy()
        full[free] = x
        true = problem.evaluate_objective(prob, full)
        assert got <= true + 1e-9 * scale
        if corner:
            assert got == pytest.approx(true, abs=1e-9 * scale)


# ------------------------------------------------------------------ separable


def secant_range(R, model):
    """The eigenvalue and range [L, U] of the one secant direction v of a
    separable model of R, read back from the model's own terms:
    q_hat - q = lam (L + U) v and offset_hat - offset = -lam L U."""
    w, V = linalg.sym_eig_all(R.Q)
    neg = np.flatnonzero(w < -ZERO_EIG_TOL)
    assert neg.size == 1
    lam, v = w[neg[0]], V[:, neg[0]]
    total = float(v @ (model.q - R.q)) / lam
    product = (R.offset - model.offset) / lam
    half = 0.5 * math.sqrt(max(total * total - 4.0 * product, 0.0))
    return lam, 0.5 * total - half, 0.5 * total + half


def test_separable_bilinear_half():
    prob = box_problem([[0.0, 1.0], [1.0, 0.0]], lb=[0.0, 0.0], ub=[1.0, 1.0])
    R = restrict(prob, prob.lb, prob.ub)
    model = build_separable_relaxation(R, qpsolve.solve_lps)
    lam, L, U = secant_range(R, model)
    assert lam == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(model.Q, 0.5 * np.ones((2, 2)), atol=1e-12)   # the PSD part
    r = 1.0 / np.sqrt(2.0)
    assert L == pytest.approx(-r, abs=1e-6)
    assert U == pytest.approx(r, abs=1e-6)
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-0.5, abs=1e-6)


def test_separable_drops_zero_eigendirections():
    # PSD Q (eigenvalues 0 and 2): no secant direction, so no direction LP,
    # and the model is Q itself over the node's own variables and rows
    prob = box_problem([[1.0, 1.0], [1.0, 1.0]], lb=[0.0, 0.0], ub=[1.0, 1.0])
    lps = []

    def record(lp, costs):
        lps.append(lp)
        return qpsolve.solve_lps(lp, costs)

    R = restrict(prob, prob.lb, prob.ub)
    model = build_separable_relaxation(R, record)
    assert lps == []
    assert np.array_equal(model.q, R.q) and model.offset == R.offset   # no secant
    assert np.allclose(model.Q, prob.Q, atol=1e-12)
    assert model.nvar == prob.n
    assert model.A.shape == (0, 2) and model.C.shape == (0, 2)


def test_separable_solves_all_directions_in_one_call():
    # one lp_solve call per node, on one direction model, with the costs
    # v_1, -v_1, v_2, -v_2, ... of the negative eigendirections
    rng = np.random.default_rng(43)
    n = 5
    B = rand_sym(rng, n)
    prob = box_problem(
        -B @ B - np.eye(n), A=[rng.uniform(0.5, 1.5, n)], b=[1.5], lb=np.zeros(n), ub=np.ones(n),
    )
    R = restrict(prob, prob.lb, prob.ub)
    calls = []

    def record(lp, costs):
        calls.append((lp, costs))
        return qpsolve.solve_lps(lp, costs)

    build_separable_relaxation(R, record)
    w, V = linalg.sym_eig_all(R.Q)
    Vn = V[:, w < -ZERO_EIG_TOL]
    assert Vn.shape[1] == n and len(calls) == 1
    lp, costs = calls[0]
    assert lp.kind == "direction_lp" and lp.Q is None and lp.offset == 0.0
    assert np.array_equal(lp.q, costs[0])
    assert np.array_equal(lp.A, R.A) and np.array_equal(lp.lb, R.lb) and np.array_equal(lp.ub, R.ub)
    assert len(costs) == 2 * n
    for t in range(n):
        assert np.array_equal(costs[2 * t], Vn[:, t])
        assert np.array_equal(costs[2 * t + 1], -Vn[:, t])


def test_separable_without_rows_solves_no_lp():
    # over a bare box no LP beats interval arithmetic: none is solved, and
    # the secant spans the direction's box range (plus the margin)
    rng = np.random.default_rng(44)
    n = 4
    B = rand_sym(rng, n)
    prob = box_problem(-B @ B - np.eye(n), lb=-np.ones(n), ub=np.ones(n))
    R = restrict(prob, prob.lb, prob.ub)
    calls = []

    def record(lp, costs):
        calls.append(costs)
        return qpsolve.solve_lps(lp, costs)

    model = build_separable_relaxation(R, record)
    assert calls == []
    w, V = linalg.sym_eig_all(R.Q)
    neg = np.flatnonzero(w < -ZERO_EIG_TOL)
    assert neg.size == n
    L, U = np.empty(n), np.empty(n)
    for t in range(n):
        v = V[:, neg[t]]
        lo = float(np.minimum(v * R.lb, v * R.ub).sum())
        hi = float(np.maximum(v * R.lb, v * R.ub).sum())
        margin = 1e-7 * (1.0 + abs(lo) + abs(hi))
        L[t], U[t] = lo - margin, hi + margin
    lam = w[neg]
    assert np.array_equal(model.q, R.q + V[:, neg] @ (lam * (L + U)))
    assert model.offset == R.offset - float(lam @ (L * U))


def test_separable_objective_is_the_secant_formula():
    # an equality row and a fixed variable (so const != 0): the model's
    # objective at any point is the separable formula written out per
    # eigendirection
    rng = np.random.default_rng(41)
    n = 4
    prob = box_problem(
        rand_sym(rng, n), q=rng.uniform(-2, 2, n),
        A=[rng.uniform(0.5, 1.5, n)], b=[1.5], lb=np.zeros(n), ub=np.ones(n),
    )
    R = restrict(prob, np.array([0.0, 0.0, 0.5, 0.0]), np.array([1.0, 1.0, 0.5, 1.0]))
    lps = []

    def record(lp, costs):
        sols = qpsolve.solve_lps(lp, costs)
        lps.extend((q, sol.bound) for q, sol in zip(costs, sols))
        return sols

    model = build_separable_relaxation(R, record)
    assert model.nvar == 3 and model.A.shape == (1, 3)
    # the secant directions are the negative eigenvectors, each bounded by
    # a minimizing and a maximizing LP
    wa, Va = linalg.sym_eig_all(R.Q)
    neg = np.flatnonzero(wa < -ZERO_EIG_TOL)
    lam, Vn = wa[neg], Va[:, neg]
    assert R.offset != 0.0 and lam.size >= 1 and len(lps) == 2 * lam.size
    L, U = np.empty(lam.size), np.empty(lam.size)
    for t in range(lam.size):
        (q_lo, b_lo), (q_hi, b_hi) = lps[2 * t], lps[2 * t + 1]
        v = Vn[:, t]
        assert np.array_equal(q_lo, v) and np.array_equal(q_hi, -v)
        # the range of v'x: interval arithmetic clamped by the LP bounds,
        # then widened by the margin
        lo_iv = float(np.minimum(v * R.lb, v * R.ub).sum())
        hi_iv = float(np.maximum(v * R.lb, v * R.ub).sum())
        lo = max(lo_iv, min(b_lo, hi_iv))
        hi = min(hi_iv, max(-b_hi, lo_iv))
        margin = 1e-7 * (1.0 + abs(lo) + abs(hi))
        L[t], U[t] = lo - margin, hi + margin
    for _ in range(20):
        x = rng.uniform(R.lb, R.ub)
        ref = float(R.q @ x) + R.offset
        ref += sum(wt * float(Va[:, t] @ x) ** 2 for t, wt in enumerate(wa) if wt > 0)
        y = Vn.T @ x
        ref += float(np.sum(lam * ((L + U) * y - L * U)))
        assert relaxed_objective_at(model, x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_separable_underestimates():
    rng = np.random.default_rng(37)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        prob = box_problem(rand_sym(rng, n), q=rng.uniform(-2, 2, n))
        model = build_separable_relaxation(restrict(prob, prob.lb, prob.ub), qpsolve.solve_lps)
        for _ in range(20):
            x = rng.uniform(prob.lb, prob.ub)
            assert relaxed_objective_at(model, x) <= problem.evaluate_objective(
                prob, x
            ) + 1e-7


def test_separable_infeasible_node_returns_none():
    prob = box_problem(
        [[0.0, 1.0], [1.0, 0.0]], A=[[1.0, 1.0]], b=[3.0], lb=[0.0, 0.0], ub=[1.0, 1.0]
    )
    assert build_separable_relaxation(restrict(prob, prob.lb, prob.ub), qpsolve.solve_lps) is None
    assert cli.root_relaxation_bound(prob, "separable") == math.inf


def test_separable_tighter_than_interval_arithmetic():
    # with an equality row the LP direction bounds must beat the box bounds
    prob = box_problem(
        [[0.0, 1.0], [1.0, 0.0]],
        A=[[1.0, 0.0]],
        b=[0.25],
        lb=[0.0, 0.0],
        ub=[1.0, 1.0],
    )
    R = restrict(prob, prob.lb, prob.ub)
    _, L, U = secant_range(R, build_separable_relaxation(R, qpsolve.solve_lps))
    # direction (1,-1)/sqrt(2): over x1 = 0.25, range is [(0.25-1), 0.25]/sqrt(2)
    r = 1.0 / np.sqrt(2.0)
    assert L == pytest.approx(-0.75 * r, abs=1e-6)
    assert U == pytest.approx(0.25 * r, abs=1e-6)


def test_separable_direction_bounds_come_from_certified_bound():
    # a truncated LP (no usable point) still tightens through its bound; an
    # LP certifying nothing keeps the interval-arithmetic range
    prob = box_problem(
        [[0.0, 1.0], [1.0, 0.0]], A=[[1.0, 0.0]], b=[0.25], lb=[0.0, 0.0], ub=[1.0, 1.0]
    )
    R = restrict(prob, prob.lb, prob.ub)
    r = 1.0 / np.sqrt(2.0)

    def truncated(lp, costs):
        return [
            dataclasses.replace(sol, status=qpsolve.STATUS_MAXITER, x=None)
            for sol in qpsolve.solve_lps(lp, costs)
        ]

    _, L, U = secant_range(R, build_separable_relaxation(R, truncated))
    assert L == pytest.approx(-0.75 * r, abs=1e-6)
    assert U == pytest.approx(0.25 * r, abs=1e-6)

    def uncertified(lp, costs):
        return [dataclasses.replace(sol, bound=-math.inf) for sol in qpsolve.solve_lps(lp, costs)]

    _, L, U = secant_range(R, build_separable_relaxation(R, uncertified))
    assert L == pytest.approx(-r, abs=1e-6)
    assert U == pytest.approx(r, abs=1e-6)


# --------------------------------------------------------- property invariants


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(0, 10_000),
)
def test_shift_ordering_property(n, seed):
    rng = np.random.default_rng(seed)
    Q = rand_sym(rng, n)
    A = rng.uniform(-3, 3, size=(1, n))
    a_e = compute_shift_eig(Q).alpha
    a_g = compute_shift_geig(Q, A).alpha
    a_z = compute_shift_eigz_exact(Q, A).alpha
    assert a_z <= a_g + 1e-8 <= a_e + 2e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_eig_shift_makes_model_convex(n, seed):
    rng = np.random.default_rng(seed)
    prob = box_problem(rand_sym(rng, n), q=rng.uniform(-2, 2, n))
    model = build_spectral_relaxation(restrict(prob, prob.lb, prob.ub), compute_shift_eig(prob.Q))
    assert linalg.sym_eig_min(model.Q).value >= -1e-8


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.data())
def test_nullspace_curvature_interlaces_the_spectrum(n, data):
    # Cauchy interlacing, which lets bnb skip the exact nullspace test:
    # lambda_min(Z'QZ) <= lambda_{1+m}(Q) for m < n rows, zero and dependent
    # rows included
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    m = data.draw(st.integers(0, n - 1))
    Q = rand_sym(rng, n)
    A = rng.uniform(-3, 3, size=(m, n))
    if m and data.draw(st.booleans()):
        A[rng.integers(m)] = 0.0
    if m >= 2 and data.draw(st.booleans()):
        A[-1] = 2.0 * A[0] - A[-2]
    lam = compute_shift_eigz_exact(Q, A).lam
    assert lam <= np.linalg.eigvalsh(Q)[m] + 1e-9 * (1.0 + np.abs(Q).max())
