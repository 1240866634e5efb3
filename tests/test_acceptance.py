"""Acceptance suite: one test per criterion, at the pinned tolerances.

Each criterion is a single test function so the -v report shows one pass/fail
line per criterion.  Shared heavy runs (the criterion-1 sweep) are module
fixtures reused by the KKT-certification and determinism criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from spectralqp import qpsolve
from spectralqp.bnb import SelectionState, SolverConfig, dynamic_selection_update, solve
from spectralqp.branching import (
    branching_gap_metric,
    deleted_min_eigenvalues,
    spectral_branch_exact,
)
from spectralqp.cli import main as cli_main
from spectralqp.linalg import gct_lower_bound, nullspace_basis, sym_eig_min
from spectralqp.oracle import enumerate_binary, enumerate_box_kkt
from spectralqp.problem import GeneratorSpec, generate_random, validate
from spectralqp.relaxation import (
    build_mccormick_relaxation,
    build_separable_relaxation,
    build_spectral_relaxation,
    compute_shift_at_delta,
    compute_shift_eig,
    compute_shift_eigz_approx,
    compute_shift_geig,
    relaxed_objective_at,
    restrict,
)

pytestmark = pytest.mark.acceptance

WORKED = validate(
    n=2,
    Q=np.diag([1.0, -1.0]),
    q=np.zeros(2),
    A=np.array([[0.0, 1.0]]),
    b=np.array([0.0]),
    lb=np.array([-1.0, -1.0]),
    ub=np.array([1.0, 1.0]),
)


def _indefinite_symmetric(rng, n):
    while True:
        M = rng.normal(size=(n, n))
        Q = (M + M.T) / 2
        if sym_eig_min(Q).value < -1e-6:
            return Q


def _equality_instance(rng, n, m):
    Q = _indefinite_symmetric(rng, n)
    q = rng.normal(size=n)
    lb, ub = -np.ones(n), np.ones(n)
    x0 = rng.uniform(lb, ub)
    A = rng.normal(size=(m, n))
    return (
        validate(n=n, Q=Q, q=q, A=A, b=A @ x0, lb=lb, ub=ub),
        x0,
    )


def _spectral_root_bound(problem, method):
    """Root bound from one spectral relaxation plus its worst KKT residual."""
    R = restrict(problem, problem.lb, problem.ub)
    if method == "eig":
        shift = compute_shift_eig(R.Q)
    elif method == "geig":
        shift = compute_shift_geig(R.Q, R.A)
    else:
        shift, _ = compute_shift_eigz_approx(R.Q, R.A)
    model = build_spectral_relaxation(R, shift)
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL, f"{method} root relaxation not solved"
    rep = qpsolve.verify_kkt(model, sol)
    # np.max propagates a NaN residual, so this is exactly `passed` at 1e-5
    worst = float(np.max([rep.stationarity, rep.primal, rep.complementarity, rep.dual_violation]))
    assert worst <= 1e-5, f"{method} root solution fails verify_kkt at 1e-5"
    return sol.objective, shift.alpha, worst


# --------------------------------------------------------------- criterion 1


CRIT1_MODES = ("eig", "geig", "eigz", "auto")


def _criterion1_suite():
    grid = [(n, rho) for n in (8, 10, 12) for rho in (0.25, 0.5, 1.0)]
    rows = []
    traces = {}
    max_kkt = 0.0
    failures = []
    for s in range(200):
        n, rho = grid[s % len(grid)]
        prob = generate_random(
            GeneratorSpec(family="cbqp", n=n, density=rho, k=max(1, n // 4), seed=s)
        )
        ref = enumerate_binary(prob).value
        for mode in CRIT1_MODES:
            res = solve(prob, SolverConfig(relaxation=mode, branch_rule="approx"))
            if res.status != "optimal" or abs(res.f_ubd - ref) > 1e-6:
                failures.append((prob.name, mode, res.status, res.f_ubd, ref))
            rows.append(
                f"{prob.name},{mode},{res.status},{res.f_ubd:.12g},{res.nodes}"
            )
            traces[(prob.name, mode)] = json.dumps(res.trace)
            max_kkt = max(max_kkt, res.stats["max_accepted_kkt"])
    csv = "\n".join(["instance,mode,status,objective,nodes"] + rows) + "\n"
    return csv, traces, max_kkt, failures


@pytest.fixture(scope="module")
def crit1():
    t0 = time.monotonic()
    csv, traces, max_kkt, failures = _criterion1_suite()
    return {
        "csv": csv,
        "traces": traces,
        "max_kkt": max_kkt,
        "failures": failures,
        "seconds": time.monotonic() - t0,
    }


def test_criterion_01_binary_oracle_equivalence(crit1):
    assert not crit1["failures"], f"mismatches: {crit1['failures'][:5]}"
    assert crit1["seconds"] < 300.0, f"criterion 1 took {crit1['seconds']:.1f}s"
    print(
        f"CRITERION 1: PASS - 200 CBQP x 4 modes match enumerate_binary "
        f"within 1e-6 in {crit1['seconds']:.1f}s"
    )


# --------------------------------------------------------------- criterion 2


@pytest.fixture(scope="module")
def crit2():
    t0 = time.monotonic()
    max_kkt = 0.0
    failures = []
    densities = (0.25, 0.5, 1.0)
    for s in range(100):
        n = 3 + s % 4
        prob = generate_random(
            GeneratorSpec(family="boxqp", n=n, density=densities[s % 3], seed=s)
        )
        ref = enumerate_box_kkt(prob).value
        res = solve(prob, SolverConfig())
        if res.status != "optimal" or abs(res.f_ubd - ref) > 1e-6:
            failures.append((prob.name, res.status, res.f_ubd, ref))
        max_kkt = max(max_kkt, res.stats["max_accepted_kkt"])
    return {"max_kkt": max_kkt, "failures": failures, "seconds": time.monotonic() - t0}


def test_criterion_02_box_oracle_equivalence(crit2):
    assert not crit2["failures"], f"mismatches: {crit2['failures'][:5]}"
    assert crit2["seconds"] < 300.0, f"criterion 2 took {crit2['seconds']:.1f}s"
    print(
        f"CRITERION 2: PASS - 100 BoxQP match enumerate_box_kkt within 1e-6 "
        f"in {crit2['seconds']:.1f}s"
    )


# --------------------------------------------------------------- criterion 3


@pytest.fixture(scope="module")
def crit3():
    rng = np.random.default_rng(2024)
    max_kkt = 0.0
    for trial in range(100):
        n = 4 + trial % 5
        m = 1 + trial % 2
        prob, _ = _equality_instance(rng, n, m)
        mu_e, a_e, k1 = _spectral_root_bound(prob, "eig")
        mu_g, a_g, k2 = _spectral_root_bound(prob, "geig")
        mu_z, a_z, k3 = _spectral_root_bound(prob, "eigz")
        max_kkt = max(max_kkt, k1, k2, k3)
        scale = 1.0 + max(abs(mu_e), abs(mu_g), abs(mu_z))
        assert mu_e <= mu_g + 1e-6 * scale, f"trial {trial}: EIG > GEIG"
        assert mu_g <= mu_z + 1e-6 * scale, f"trial {trial}: GEIG > EIGZ"
        assert a_z <= a_g + 1e-8, f"trial {trial}: alpha_z > alpha_g"
        assert a_g <= a_e + 1e-8, f"trial {trial}: alpha_g > alpha_e"
    # the worked instance reproduces the derived bounds
    w_e, _, _ = _spectral_root_bound(WORKED, "eig")
    w_g, _, _ = _spectral_root_bound(WORKED, "geig")
    w_z, _, _ = _spectral_root_bound(WORKED, "eigz")
    assert w_e == pytest.approx(-2.0, abs=1e-6)
    assert w_g == pytest.approx(-1.0, abs=1e-6)
    assert -2e-4 - 1e-9 <= w_z <= 1e-9
    return {"max_kkt": max_kkt}


def test_criterion_03_bound_ordering(crit3):
    print(
        "CRITERION 3: PASS - 100 equality-constrained instances keep "
        "EIG <= GEIG <= EIGZ bounds and alpha_z <= alpha_g <= alpha_e; "
        "worked instance gives (-2, -1, [-2e-4, 0])"
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_04_delta_procedure():
    shift, trace = compute_shift_eigz_approx(WORKED.Q, WORKED.A)
    assert len(trace) == 5, "delta search must stop at maxIter = 5"
    for step, (delta, lam) in enumerate(trace):
        assert delta == pytest.approx(10.0 ** step)
        assert lam == pytest.approx(-1.0 / (1.0 + delta), abs=1e-9)

    rng = np.random.default_rng(404)
    deltas = [10.0 ** k for k in range(7)]        # 1 ... 1e6
    for trial in range(50):
        n = 4 + trial % 5
        m = 1 + trial % 2
        Q = _indefinite_symmetric(rng, n)
        A = rng.normal(size=(m, n))
        lams = [compute_shift_at_delta(Q, A, d).lam for d in deltas]
        for a, b in zip(lams, lams[1:]):
            assert b >= a - 1e-10, f"trial {trial}: lambda(delta) decreased"
        Z = nullspace_basis(A)
        lam_z = sym_eig_min(Z.T @ Q @ Z).value if Z.shape[1] else 0.0
        target = min(0.0, lam_z)
        assert abs(lams[-1] - target) <= 1e-3 * (1.0 + abs(lams[-1])), (
            f"trial {trial}: lambda(1e6) = {lams[-1]} vs {target}"
        )
    print(
        "CRITERION 4: PASS - worked delta trace matches -1/(1+delta) within "
        "1e-9 and stops at 5; lambda(delta) nondecreasing with the correct "
        "limit on 50 random instances"
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_05_branching_study(tmp_path):
    t0 = time.monotonic()
    wins = 0
    for rho in ("0.25", "0.5", "1.0"):
        out = tmp_path / f"study_{rho}.csv"
        code = cli_main(
            [
                "branch-study", "--n", "50", "--density", rho,
                "--samples", "100", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        data = lines[1:-2]
        assert len(data) == 200
        for ln in data:
            gap = float(ln.split(",")[2])
            assert 0.0 <= gap <= 100.0, f"gap {gap} outside [0, 100]"
        med = {ln.split(",")[1]: float(ln.split(",")[2]) for ln in lines[-2:]}
        if med["approx"] <= med["gct"]:
            wins += 1
    assert wins >= 2, f"approx beat GCT in only {wins}/3 densities"

    rng = np.random.default_rng(55)
    B = tuple(range(8))
    for _ in range(50):
        M = rng.normal(size=(8, 8))
        Q = (M + M.T) / 2
        i_x = spectral_branch_exact(Q, B)
        lams = deleted_min_eigenvalues(Q)
        assert lams[i_x] >= np.max(lams) - 1e-12, "exact rule not dominant"
        assert branching_gap_metric(Q, i_x) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0, f"criterion 5 took {elapsed:.1f}s"
    print(
        f"CRITERION 5: PASS - approx median <= GCT median in {wins}/3 "
        f"densities, all gaps in [0,100], exact rule dominant, {elapsed:.1f}s"
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_06_gct_soundness():
    rng = np.random.default_rng(66)
    for trial in range(1000):
        n = 1 + trial % 30
        M = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
        T = (M + M.T) / 2
        assert gct_lower_bound(T) <= sym_eig_min(T).value + 1e-9, f"trial {trial}"
    for trial in range(100):
        d = rng.normal(size=1 + trial % 30) * 10.0
        D = np.diag(d)
        assert gct_lower_bound(D) == sym_eig_min(D).value, "diagonal equality"
    print(
        "CRITERION 6: PASS - GCT bound below lambda_min on 1000 matrices, "
        "exact on 100 diagonal matrices"
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_07_kkt_certification(crit1, crit2, crit3):
    worst = max(crit1["max_kkt"], crit2["max_kkt"], crit3["max_kkt"])
    assert worst <= 1e-5, f"worst accepted KKT residual {worst:.2e} exceeds 1e-5"
    print(
        f"CRITERION 7: PASS - every accepted Optimal solution across "
        f"criteria 1-3 passes verify_kkt at 1e-5 (worst residual {worst:.2e})"
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_08_dynamic_selection():
    s = SelectionState()
    s1 = dynamic_selection_update(s, f_lp=0.0, f_qp=0.5)
    assert (s1.omega_lp, s1.omega_qp) == (10.0, 1.0), "(1,1) -> (10,1)"
    s2 = dynamic_selection_update(s1, f_lp=0.0, f_qp=0.5)
    assert (s2.omega_lp, s2.omega_qp) == (100.0, 1.0), "(10,1) -> (100,1)"
    s3 = dynamic_selection_update(SelectionState(), f_lp=0.0, f_qp=0.0)
    assert (s3.omega_lp, s3.omega_qp) == (1.0, 2.0), "(1,1) -> (1,2)"

    rng = np.random.default_rng(88)
    state = SelectionState()
    for _ in range(500):
        state = dynamic_selection_update(state, float(rng.normal()), float(rng.normal()))
        assert 1.0 <= state.omega_lp <= 1000.0
        assert 1.0 <= state.omega_qp <= 10.0
    print(
        "CRITERION 8: PASS - scripted transitions (1,1)->(10,1)->(100,1) and "
        "(1,1)->(1,2) exact; omega stays in [1, omega_max] over 500 updates"
    )


# --------------------------------------------------------------- criterion 9


def _feasible_point(rng, problem, x0):
    if problem.m == 0:
        return rng.uniform(problem.lb, problem.ub)
    Z = nullspace_basis(problem.A)
    if Z.shape[1] == 0:
        return x0.copy()
    tau = 1.0
    z = rng.normal(size=Z.shape[1])
    for _ in range(60):
        x = x0 + tau * (Z @ z)
        if np.all(x >= problem.lb - 1e-12) and np.all(x <= problem.ub + 1e-12):
            return np.clip(x, problem.lb, problem.ub)
        tau *= 0.5
    return x0.copy()


def test_criterion_09_underestimation_and_envelope():
    rng = np.random.default_rng(99)
    pairs = 0
    for inst in range(200):
        n = 3 + inst % 4
        if inst % 2 == 0:
            Q = _indefinite_symmetric(rng, n)
            q = rng.normal(size=n)
            prob = validate(n=n, Q=Q, q=q, lb=-np.ones(n), ub=np.ones(n))
            x0 = np.zeros(n)
        else:
            prob, x0 = _equality_instance(rng, n, 1 + inst % 2)
        R = restrict(prob, prob.lb, prob.ub)
        models = [
            build_spectral_relaxation(R, compute_shift_eig(R.Q)),
            build_spectral_relaxation(R, compute_shift_geig(R.Q, R.A)),
            build_spectral_relaxation(R, compute_shift_eigz_approx(R.Q, R.A)[0]),
            build_mccormick_relaxation(R),
            build_separable_relaxation(R, qpsolve.solve_lps),
        ]
        for _ in range(5):
            x = _feasible_point(rng, prob, x0)
            true = float(x @ prob.Q @ x + prob.q @ x)
            scale = 1.0 + abs(true) + float(np.max(np.abs(x)))
            for model in models:
                val = relaxed_objective_at(model, x)
                assert val <= true + 1e-9 * scale, (
                    f"instance {inst}: {model.kind} relaxation above true value "
                    f"({val} > {true})"
                )
            pairs += 1
    assert pairs == 1000

    lo = rng.uniform(-5.0, 4.0, size=1000)
    hi = lo + rng.uniform(0.01, 5.0, size=1000)
    x = lo + (hi - lo) * rng.random(1000)
    env = -(x - lo) * (x - hi)
    assert np.all(env >= 0.0), "envelope term negative inside the box"
    print(
        "CRITERION 9: PASS - all relaxations underestimate on 1000 "
        "(instance, point) pairs; envelope nonnegative on 1000 samples"
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(crit1):
    csv2, traces2, _, failures2 = _criterion1_suite()
    assert not failures2
    assert crit1["csv"] == csv2, "criterion-1 CSV bytes differ between runs"
    assert crit1["traces"].keys() == traces2.keys()
    diff = [k for k in traces2 if crit1["traces"][k] != traces2[k]]
    assert not diff, f"node traces differ for {diff[:5]}"
    print(
        "CRITERION 10: PASS - criterion-1 suite rerun reproduces identical "
        "node traces and CSV bytes"
    )
