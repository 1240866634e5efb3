"""Branch-and-bound engine tests: worked instances, oracle agreement,
selection-state dynamics, limits, and determinism."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralqp import bnb, linalg, qpsolve
from spectralqp.bnb import (
    SelectionState,
    SolverConfig,
    SolveResult,
    dynamic_selection_update,
    relative_gap,
    solve,
)
from spectralqp.oracle import enumerate_binary, enumerate_box_kkt
from spectralqp.problem import GeneratorSpec, generate_random, validate
from spectralqp.relaxation import restrict

ALL_MODES = ("eig", "geig", "eigz", "mccormick", "auto")


def binary_problem(Q, q=None, A=None, b=None, C=None, d=None):
    n = len(Q)
    return validate(
        n,
        np.asarray(Q, dtype=float),
        np.zeros(n) if q is None else np.asarray(q, dtype=float),
        A=A,
        b=b,
        C=C,
        d=d,
        lb=np.zeros(n),
        ub=np.ones(n),
        integers=tuple(range(n)),
    )


def box_problem(Q, q, lb, ub):
    return validate(
        len(Q),
        np.asarray(Q, dtype=float),
        np.asarray(q, dtype=float),
        lb=np.asarray(lb, dtype=float),
        ub=np.asarray(ub, dtype=float),
    )


# ----------------------------------------------------------- worked instances


@pytest.mark.parametrize("mode", ALL_MODES)
def test_binary_offdiagonal_optimum(mode):
    prob = binary_problem([[2.0, -3.0], [-3.0, 2.0]])
    res = solve(prob, SolverConfig(relaxation=mode))
    assert res.status == "optimal"
    assert res.f_ubd == pytest.approx(-2.0, abs=1e-6)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)
    assert res.f_lbd <= res.f_ubd + 1e-12


@pytest.mark.parametrize("mode", ("eig", "eigz", "auto"))
def test_binary_bilinear_cardinality(mode):
    prob = binary_problem(
        [[0.0, 1.0], [1.0, 0.0]], A=np.array([[1.0, 1.0]]), b=np.array([1.0])
    )
    res = solve(prob, SolverConfig(relaxation=mode))
    assert res.status == "optimal"
    assert res.f_ubd == pytest.approx(0.0, abs=1e-6)
    assert abs(res.x[0] + res.x[1] - 1.0) <= 1e-9


def test_boxqp_concave_scalar():
    prob = box_problem([[-1.0]], [0.0], [-1.0], [2.0])
    res = solve(prob, SolverConfig(relaxation="eig"))
    assert res.status == "optimal"
    assert res.f_ubd == pytest.approx(-4.0, abs=1e-6)
    assert res.x[0] == pytest.approx(2.0, abs=1e-6)


def test_boxqp_bilinear_spatial_split():
    # true minimum 2*x1*x2 = -2 at (-1, 1) or (1, -1)
    prob = box_problem([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
    res = solve(prob, SolverConfig(relaxation="eig"))
    assert res.status == "optimal"
    assert res.f_ubd == pytest.approx(-2.0, abs=1e-6)
    assert res.f_lbd >= -2.0 - 1e-6


def test_convex_problem_solves_at_root():
    prob = box_problem(np.eye(3), [-2.0, 0.0, 1.0], [0.0] * 3, [1.0] * 3)
    res = solve(prob, SolverConfig(relaxation="auto"))
    assert res.status == "optimal"
    assert res.nodes == 1
    assert res.stats["convex_nodes"] >= 1
    # min (x1-1)^2 - 1 + x3 over the box, at (1, 0, 0)
    assert res.f_ubd == pytest.approx(-1.0, abs=1e-6)


def test_general_integer_box():
    # min x1^2 - x2^2 with x in {0..3}^2: optimum -9 at (0, 3)
    prob = validate(
        2,
        np.diag([1.0, -1.0]),
        np.zeros(2),
        lb=np.zeros(2),
        ub=np.full(2, 3.0),
        integers=(0, 1),
    )
    res = solve(prob, SolverConfig(relaxation="eig"))
    assert res.status == "optimal"
    assert res.f_ubd == pytest.approx(-9.0, abs=1e-6)
    assert np.allclose(res.x, [0.0, 3.0], atol=1e-6)


def test_infeasible_rows_detected():
    prob = binary_problem(
        [[1.0, 0.0], [0.0, 1.0]], A=np.array([[1.0, 1.0]]), b=np.array([5.0])
    )
    res = solve(prob, SolverConfig())
    assert res.status == "infeasible"
    assert res.x is None
    assert math.isinf(res.f_ubd)


def test_inequality_rows_respected():
    # x1 + x2 <= 1 forbids the unconstrained optimum (1, 1)
    prob = binary_problem(
        [[2.0, -3.0], [-3.0, 2.0]], C=np.array([[1.0, 1.0]]), d=np.array([1.0])
    )
    res = solve(prob, SolverConfig(relaxation="eig"))
    assert res.status == "optimal"
    assert res.f_ubd == pytest.approx(0.0, abs=1e-6)
    assert res.x[0] + res.x[1] <= 1.0 + 1e-9


# --------------------------------------------------------- oracle agreement


@pytest.mark.parametrize("mode", ("eig", "geig", "eigz", "auto"))
def test_matches_binary_oracle(mode):
    rng = np.random.default_rng(7)
    for trial in range(6):
        n = int(rng.integers(4, 9))
        M = rng.normal(size=(n, n))
        Q = (M + M.T) / 2
        q = rng.normal(size=n)
        prob = binary_problem(Q, q)
        ref = enumerate_binary(prob)
        res = solve(prob, SolverConfig(relaxation=mode, branch_rule="approx"))
        assert res.status == "optimal"
        assert res.f_ubd == pytest.approx(ref.value, abs=1e-6)
        assert res.f_lbd <= ref.value + 1e-6


def test_matches_binary_oracle_with_cardinality():
    rng = np.random.default_rng(21)
    for trial in range(4):
        n = 8
        spec = GeneratorSpec(family="cbqp", n=n, density=0.5, k=n // 2, seed=trial)
        prob = generate_random(spec)
        ref = enumerate_binary(prob)
        res = solve(prob, SolverConfig(relaxation="auto"))
        assert res.status == "optimal"
        assert res.f_ubd == pytest.approx(ref.value, abs=1e-6)


@pytest.mark.parametrize("rule", ("approx", "gct", "exact", "fractional"))
def test_branch_rules_all_reach_optimum(rule):
    rng = np.random.default_rng(11)
    M = rng.normal(size=(6, 6))
    prob = binary_problem((M + M.T) / 2, rng.normal(size=6))
    ref = enumerate_binary(prob)
    res = solve(prob, SolverConfig(relaxation="eig", branch_rule=rule))
    assert res.status == "optimal"
    assert res.f_ubd == pytest.approx(ref.value, abs=1e-6)


def test_matches_box_oracle():
    rng = np.random.default_rng(3)
    for trial in range(5):
        n = int(rng.integers(2, 5))
        M = rng.normal(size=(n, n))
        Q = (M + M.T) / 2
        q = rng.normal(size=n)
        lb = -1.0 - rng.random(n)
        ub = 1.0 + rng.random(n)
        prob = box_problem(Q, q, lb, ub)
        ref = enumerate_box_kkt(prob)
        res = solve(prob, SolverConfig(relaxation="eig"))
        assert res.status == "optimal", f"trial {trial}"
        assert res.f_ubd == pytest.approx(ref.value, abs=1e-5)
        assert res.f_lbd <= ref.value + 1e-6


def test_boxqp_generator_family():
    for seed in range(3):
        prob = generate_random(GeneratorSpec(family="boxqp", n=4, density=0.8, seed=seed))
        ref = enumerate_box_kkt(prob)
        res = solve(prob, SolverConfig(relaxation="eig"))
        assert res.status == "optimal"
        assert res.f_ubd == pytest.approx(ref.value, abs=1e-5)


# ------------------------------------------------------------- bound algebra


def test_bounds_bracket_optimum():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(7, 7))
    prob = binary_problem((M + M.T) / 2, rng.normal(size=7))
    ref = enumerate_binary(prob)
    res = solve(prob, SolverConfig(relaxation="eig"))
    assert res.f_lbd <= ref.value + 1e-9
    assert res.f_ubd >= ref.value - 1e-9
    assert res.gap_percent <= 100.0 * 1e-6 + relative_gap(res.f_ubd, res.f_lbd) + 1e-12


@pytest.mark.parametrize("mode", ("eig", "auto"))
@pytest.mark.parametrize("family", ("cbqp", "eiqp", "boxqp"))
def test_trace_one_record_per_node(family, mode):
    # between them these runs branch by every rule: spectral and fractional
    # (cbqp), integer splits (eiqp) and spatial splits (boxqp); each must
    # record its branch variable as a plain int
    kw = {"cbqp": {"k": 2}, "eiqp": {"m": 1}, "boxqp": {}}[family]
    prob = generate_random(GeneratorSpec(family=family, n=6, seed=0, **kw))
    res = solve(prob, SolverConfig(relaxation=mode))
    assert res.trace is not None
    assert len(res.trace) == res.nodes
    branched = [rec["branch_variable"] for rec in res.trace if rec["action"] == "branch"]
    assert branched and all(type(i) is int for i in branched)
    for rec in res.trace:
        assert set(rec) == {"id", "depth", "bound", "relaxation", "branch_variable", "action"}
    json.dumps(res.trace)   # line-serializable


def test_lower_bound_below_every_closed_node():
    # a 1e5 scale makes rel_tol fathom nodes far below f_ubd - abs_tol; the
    # reported bound must stay under each of them, at optimality and at a limit
    base = generate_random(GeneratorSpec(family="boxqp", n=6, density=0.5, seed=1))
    prob = box_problem(1e5 * base.Q, 1e5 * base.q, base.lb, base.ub)
    for cfg in (SolverConfig(relaxation="eig"), SolverConfig(relaxation="eig", node_limit=40)):
        res = solve(prob, cfg)
        closed = [
            rec["bound"]
            for rec in res.trace
            if rec["action"] != "branch" and rec["bound"] is not None
        ]
        assert closed
        assert res.f_lbd <= min(closed)
        assert res.f_lbd <= res.f_ubd


def _eig_calls_per_bound(monkeypatch, problem, mode):
    """(sym_eig_min, gen_eig_min) calls made while bounding each node."""
    counts = {"sym_eig_min": 0, "gen_eig_min": 0}
    for name in counts:
        def counted(*args, _fn=getattr(linalg, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(linalg, name, counted)
    per_node = []
    lower_bound = bnb._Engine.lower_bound

    def counted_bound(self, R):
        before = dict(counts)
        try:
            return lower_bound(self, R)
        finally:
            per_node.append(tuple(counts[k] - before[k] for k in counts))

    monkeypatch.setattr(bnb._Engine, "lower_bound", counted_bound)
    res = solve(problem, SolverConfig(relaxation=mode))
    assert res.status == "optimal"
    assert len(per_node) > 1
    return per_node


def test_one_eigensolve_per_node_in_eig_mode(monkeypatch):
    prob = generate_random(GeneratorSpec(family="boxqp", n=5, density=0.5, seed=1))
    assert set(_eig_calls_per_bound(monkeypatch, prob, "eig")) == {(1, 0)}


def test_eigz_node_eigen_work_bounded(monkeypatch):
    prob = generate_random(GeneratorSpec(family="cbqp", n=8, density=0.5, k=2, seed=1))
    per_node = _eig_calls_per_bound(monkeypatch, prob, "eigz")
    # convexity test, nullspace test, one pencil at the run's delta; the
    # delta search runs before the first node, so the root is no exception
    for sym, gen in per_node:
        assert sym <= 2 and gen <= 1


def _shift_run(monkeypatch, problem, mode, force_exact):
    """(result, node shift kinds, nodes with rows, exact nullspace tests) of
    one solve; `force_exact` hides the spectrum beyond lambda_min from
    `_shift`, so that every nonconvex node with rows takes the exact test."""
    kinds, counts = [], {"rows": 0, "exact": 0}
    eig_min, exact, shift = linalg.sym_eig_min, bnb.compute_shift_eigz_exact, bnb._Engine._shift

    def hidden_spectrum(M):
        pair = eig_min(M)
        return dataclasses.replace(pair, values=np.full_like(pair.values, np.inf))

    def counted_exact(*args):
        counts["exact"] += 1
        return exact(*args)

    def recorded_shift(self, R):
        counts["rows"] += bool(R.A.shape[0])
        out = shift(self, R)
        kinds.append(None if out is None else out.kind)
        return out

    with monkeypatch.context() as mp:
        if force_exact:
            mp.setattr(linalg, "sym_eig_min", hidden_spectrum)
        mp.setattr(bnb, "compute_shift_eigz_exact", counted_exact)
        mp.setattr(bnb._Engine, "_shift", recorded_shift)
        res = solve(problem, SolverConfig(relaxation=mode))
    return res, kinds, counts["rows"], counts["exact"]


@pytest.mark.parametrize("mode", ("eig", "eigz", "auto"))
@pytest.mark.parametrize(
    "spec",
    (
        GeneratorSpec(family="cbqp", n=10, density=0.5, k=3, seed=0),
        GeneratorSpec(family="eiqp", n=6, density=0.5, m=2, seed=1),
    ),
    ids=("cbqp", "eiqp"),
)
def test_interlacing_skips_only_nullspace_tests_it_settles(mode, spec, monkeypatch):
    # the spectrum _shift already has proves most nodes nonconvex on their
    # rows' nullspace; every node must decide as the exact test does
    prob = generate_random(spec)
    res, kinds, rows, exact = _shift_run(monkeypatch, prob, mode, force_exact=False)
    ref, ref_kinds, ref_rows, ref_exact = _shift_run(monkeypatch, prob, mode, force_exact=True)
    assert res.status == ref.status == "optimal"
    assert res.trace == ref.trace and res.nodes == ref.nodes
    assert res.stats["convex_nodes"] == ref.stats["convex_nodes"]
    assert kinds == ref_kinds and rows == ref_rows > 0
    assert exact < ref_exact <= rows


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("rows", (0, 1))
def test_delta_searched_once_per_run(mode, rows, monkeypatch):
    search = bnb.compute_shift_eigz_approx
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(bnb, "compute_shift_eigz_approx", counted)
    if rows:
        spec = GeneratorSpec(family="cbqp", n=8, density=0.5, k=2, seed=1)
    else:
        spec = GeneratorSpec(family="boxqp", n=5, density=0.5, seed=1)
    res = solve(generate_random(spec), SolverConfig(relaxation=mode))
    assert res.status == "optimal" and res.nodes > 1
    searched = rows == 1 and mode in ("eigz", "auto")
    assert len(calls) == int(searched)
    assert ("root_delta" in res.stats) == searched


@pytest.mark.parametrize("mode", ALL_MODES)
def test_node_convex_on_row_nullspace_needs_no_shift(mode):
    # lambda_min(Q) = -1, but Q is PSD on the nullspace of x1 - x2 = 0,
    # where the objective is 2 x1^2
    prob = validate(
        2,
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.zeros(2),
        A=np.array([[1.0, -1.0]]),
        b=np.zeros(1),
        lb=-np.ones(2),
        ub=np.ones(2),
    )
    res = solve(prob, SolverConfig(relaxation=mode))
    assert res.status == "optimal"
    assert res.nodes == 1
    assert res.f_ubd == pytest.approx(0.0, abs=1e-9)
    assert res.trace[0]["relaxation"] == "none"
    assert res.stats["convex_nodes"] == 1
    # the delta search runs even though no node is shifted
    assert ("root_delta" in res.stats) == (mode in ("eigz", "auto"))


def test_trace_disabled():
    prob = binary_problem([[2.0, -3.0], [-3.0, 2.0]])
    res = solve(prob, SolverConfig(keep_trace=False))
    assert res.trace is None


def test_child_bounds_dominate_parent():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(6, 6))
    prob = binary_problem((M + M.T) / 2, rng.normal(size=6))
    res = solve(prob, SolverConfig(relaxation="eig", branch_rule="approx"))
    # reconstruct parent bounds from the trace: children are pushed with the
    # parent's recorded bound, so each processed node's bound must dominate
    by_id = {rec["id"]: rec for rec in res.trace}
    bounds = [rec["bound"] for rec in res.trace if rec["action"] == "branch"]
    assert all(b is not None for b in bounds)
    scale = 1.0 + max(abs(b) for b in bounds)
    # every branched node except the root beats (or matches) some earlier bound
    for rec in res.trace[1:]:
        if rec["bound"] is None:
            continue
        assert rec["bound"] >= res.trace[0]["bound"] - 1e-9 * scale


def test_determinism_bitwise():
    rng = np.random.default_rng(17)
    M = rng.normal(size=(7, 7))
    Q = (M + M.T) / 2
    q = rng.normal(size=7)
    prob = binary_problem(Q, q)
    cfg = SolverConfig(relaxation="auto")
    r1 = solve(prob, cfg)
    r2 = solve(prob, cfg)
    assert json.dumps(r1.trace) == json.dumps(r2.trace)
    assert r1.f_ubd == r2.f_ubd and r1.f_lbd == r2.f_lbd
    assert r1.nodes == r2.nodes
    assert np.array_equal(r1.x, r2.x)


# ------------------------------------------------------------------- limits


def test_node_limit_reported():
    rng = np.random.default_rng(19)
    M = rng.normal(size=(10, 10))
    prob = binary_problem((M + M.T) / 2, rng.normal(size=10))
    res = solve(prob, SolverConfig(relaxation="eig", node_limit=2))
    assert res.status == "node_limit"
    assert res.nodes <= 2
    ref = enumerate_binary(prob)
    assert res.f_lbd <= ref.value + 1e-9


def test_time_limit_reported():
    rng = np.random.default_rng(23)
    M = rng.normal(size=(12, 12))
    prob = binary_problem((M + M.T) / 2)
    res = solve(prob, SolverConfig(relaxation="eig", time_limit=0.0))
    assert res.status == "time_limit"


@pytest.mark.parametrize("mode", ["auto", "mccormick"])
def test_time_limit_holds_inside_a_node(mode):
    # the root McCormick LP alone runs for about a second; the deadline must
    # cut it short
    prob = generate_random(GeneratorSpec(family="cbqp", n=24, k=6, seed=3))
    t0 = time.monotonic()
    res = solve(prob, SolverConfig(relaxation=mode, time_limit=0.05))
    assert res.status == "time_limit"
    assert time.monotonic() - t0 <= 0.05 + 0.25


@pytest.mark.parametrize("mode", ["eigz", "auto"])
def test_no_lp_after_deadline(mode, monkeypatch):
    # a QP that certifies nothing and ends past the time limit must not be
    # followed by the McCormick LP fallback
    real_qp = qpsolve.solve_convex_qp
    lp_calls = []

    def slow_uncertified_qp(model, **kwargs):
        sol = real_qp(model, **kwargs)
        time.sleep(0.1)
        return dataclasses.replace(sol, bound=-math.inf)

    def counting_lp(*args, **kwargs):
        lp_calls.append(args)
        return real_lp(*args, **kwargs)

    real_lp = qpsolve.solve_lp
    monkeypatch.setattr(qpsolve, "solve_convex_qp", slow_uncertified_qp)
    monkeypatch.setattr(qpsolve, "solve_lp", counting_lp)
    prob = generate_random(GeneratorSpec(family="cbqp", n=8, k=2, seed=0))
    res = solve(prob, SolverConfig(relaxation=mode, time_limit=0.05))
    assert lp_calls == []
    assert res.status == "time_limit"


def test_optimal_only_when_the_gap_closes(monkeypatch):
    # a QP stand-in whose point is a box vertex: no variable has envelope
    # slack there, yet the bound is far from the incumbent
    prob = generate_random(GeneratorSpec(family="boxqp", n=10, seed=2))
    ref = solve(prob, SolverConfig(relaxation="eig", keep_trace=False)).f_ubd
    assert ref == pytest.approx(-61.15, abs=5e-3)
    real_qp = qpsolve.solve_convex_qp

    def vertex_qp(model, **kwargs):
        sol = real_qp(model, **kwargs)
        return dataclasses.replace(sol, x=model.lb.copy())

    monkeypatch.setattr(qpsolve, "solve_convex_qp", vertex_qp)
    cfg = SolverConfig(relaxation="eig", node_limit=2000)
    res = solve(prob, cfg)
    if res.status == "optimal":
        assert res.f_ubd == pytest.approx(ref, abs=1e-6)
        assert res.f_lbd >= res.f_ubd - cfg.abs_tol or res.gap_percent <= 100.0 * cfg.rel_tol
    else:
        assert res.status == "node_limit"
    assert res.f_lbd <= ref + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["boxqp", "cbqp"]),
    st.integers(2, 8),
    st.integers(0, 10_000),
    st.sampled_from([1e-3, 1.0, 1e5]),
    st.sampled_from(["eig", "eigz", "auto"]),
)
def test_bounds_bracket_optimum_under_scaling(family, n, seed, scale, mode):
    if family == "boxqp":
        spec = GeneratorSpec(family="boxqp", n=min(n, 5), seed=seed)
    else:
        spec = GeneratorSpec(family="cbqp", n=n, k=max(1, n // 3), seed=seed)
    base = generate_random(spec)
    prob = validate(
        base.n, scale * base.Q, scale * base.q, A=base.A, b=base.b,
        lb=base.lb, ub=base.ub, integers=base.integers,
    )
    ref = (enumerate_binary(prob) if prob.integers else enumerate_box_kkt(prob)).value
    res = solve(prob, SolverConfig(relaxation=mode, keep_trace=False))
    tol = 1e-9 * (1.0 + abs(ref))
    assert res.f_lbd <= ref + tol
    assert ref <= res.f_ubd + tol


# -------------------------------------------------------- selection dynamics


def test_selection_transition_qp_stronger():
    s = SelectionState()
    s2 = dynamic_selection_update(s, f_lp=0.0, f_qp=0.5)
    assert (s2.omega_lp, s2.omega_qp) == (10.0, 1.0)
    s3 = dynamic_selection_update(s2, f_lp=-1.0, f_qp=-0.5)
    assert (s3.omega_lp, s3.omega_qp) == (100.0, 1.0)


def test_selection_transition_lp_competitive():
    s = SelectionState()
    s2 = dynamic_selection_update(s, f_lp=0.0, f_qp=0.0)
    assert (s2.omega_lp, s2.omega_qp) == (1.0, 2.0)


def test_selection_respects_ceilings_and_floors():
    s = SelectionState(omega_lp=1000.0, omega_qp=1.0)
    s2 = dynamic_selection_update(s, f_lp=0.0, f_qp=1.0)
    assert (s2.omega_lp, s2.omega_qp) == (1000.0, 1.0)
    s3 = SelectionState(omega_lp=1.0, omega_qp=10.0)
    s4 = dynamic_selection_update(s3, f_lp=0.0, f_qp=0.0)
    assert (s4.omega_lp, s4.omega_qp) == (1.0, 10.0)


def test_selection_interval_invariant_random():
    rng = np.random.default_rng(31)
    s = SelectionState()
    for _ in range(200):
        s = dynamic_selection_update(s, float(rng.normal()), float(rng.normal()))
        assert 1.0 <= s.omega_lp <= 1000.0
        assert 1.0 <= s.omega_qp <= 10.0


def test_auto_mode_runs_both_relaxations():
    rng = np.random.default_rng(37)
    M = rng.normal(size=(8, 8))
    prob = binary_problem((M + M.T) / 2, rng.normal(size=8))
    res = solve(prob, SolverConfig(relaxation="auto"))
    assert res.status == "optimal"
    assert res.stats["qp_solves"] >= 1
    assert res.stats["lp_solves"] >= 1
    assert 1.0 <= res.stats["selection_omega_lp"] <= 1000.0
    assert 1.0 <= res.stats["selection_omega_qp"] <= 10.0


def test_empty_node_bound_is_inf_and_leaves_selection():
    # more variables fixed to 1 than the cardinality row allows: the AUTO
    # QP proves the node empty, so its LP never runs and the selection
    # counters stay where they were
    prob = generate_random(GeneratorSpec(family="cbqp", n=8, density=0.5, k=2, seed=1))
    eng = bnb._Engine(prob, SolverConfig(), None)
    lb, ub = prob.lb.copy(), prob.ub.copy()
    lb[:3] = 1.0
    before = eng.selection
    assert eng.lower_bound(restrict(prob, lb, ub))[0] == math.inf
    assert eng.stats["qp_solves"] == 1 and eng.stats["lp_solves"] == 0
    assert eng.selection is before


def test_branching_rule_failure_is_not_swallowed(monkeypatch):
    # LinAlgError is a ValueError; a failing spectral rule must end the
    # solve, not fall back to most-fractional
    def broken(shift, free):
        raise np.linalg.LinAlgError("eigenvector unavailable")

    monkeypatch.setattr(bnb.branching, "spectral_branch_approx", broken)
    prob = generate_random(GeneratorSpec(family="cbqp", n=8, density=0.5, k=2, seed=1))
    with pytest.raises(np.linalg.LinAlgError):
        solve(prob, SolverConfig(relaxation="eig"))


def test_iteration_counters_sum_relaxation_solves(monkeypatch):
    calls = {"qp": [], "lp": []}

    def recording(kind, fn):
        def wrapped(model, *args, **kwargs):
            sol = fn(model, *args, **kwargs)
            calls[kind].append((model, sol.iterations))
            return sol
        return wrapped

    monkeypatch.setattr(qpsolve, "solve_convex_qp", recording("qp", qpsolve.solve_convex_qp))
    monkeypatch.setattr(qpsolve, "solve_lp", recording("lp", qpsolve.solve_lp))
    prob = generate_random(GeneratorSpec(family="cbqp", n=8, k=2, seed=0))
    res = solve(prob, SolverConfig(relaxation="auto"))
    # LPs run on HiGHS: lp_iterations counts its simplex iterations
    lp_total = sum(it for _, it in calls["lp"])
    qp_total = sum(it for _, it in calls["qp"])
    assert not {id(m) for m, _ in calls["lp"]} & {id(m) for m, _ in calls["qp"]}
    assert res.stats["lp_iterations"] == lp_total > 0
    assert res.stats["qp_iterations"] == qp_total > 0


def test_heuristic_runs_only_at_nodes_that_survive_the_bound_test(monkeypatch):
    heuristic = bnb.upper_bound_heuristic
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return heuristic(*args, **kwargs)

    monkeypatch.setattr(bnb, "upper_bound_heuristic", counted)
    prob = generate_random(GeneratorSpec(family="cbqp", n=16, k=4, seed=0))
    res = solve(prob, SolverConfig(relaxation="eig"))
    assert res.status == "optimal"
    branched = sum(1 for r in res.trace if r["action"] == "branch")
    # each call either branches its node or finds an incumbent
    assert 0 < len(calls) <= branched + res.stats["heuristic_hits"]


# ------------------------------------------------------ reduced-cost tightening


@pytest.mark.parametrize("mode", ("eig", "eigz"))
def test_reduced_cost_tightening_fixes_binaries(mode):
    prob = generate_random(GeneratorSpec(family="cbqp", n=12, k=3, seed=0))
    res = solve(prob, SolverConfig(relaxation=mode))
    assert res.status == "optimal"
    assert res.stats["reduced_cost_fixings"] > 0
    assert res.f_ubd == pytest.approx(enumerate_binary(prob).value, abs=1e-6)


def test_tighten_children_on_a_hand_built_box():
    # x0 integer in [0, 3], x1 continuous in [0, 1], x2 an integer fixed at 1;
    # slopes (2, 1.25) and room 1 cut the free box to x0 <= 0.5, x1 <= 0.8
    lb, ub = np.array([0.0, 0.0, 1.0]), np.array([3.0, 1.0, 1.0])
    free = bnb.free_indices(lb, ub)
    ints = np.array([True, False, True])
    children = [bnb._child(lb, ub, 0, 0.0, 1.0), bnb._child(lb, ub, 0, 2.0, 3.0)]
    sol = qpsolve.QpSolution(
        "optimal", None, 0.0, np.zeros(0), np.zeros(0), np.zeros(2), np.zeros(2), 0,
        bound=0.0, slope=np.array([2.0, 1.25]),
    )
    kept, fixings = bnb._tighten_children(ints, lb, ub, free, children, [sol], 1.0)
    # the first child's x0 closes to the point 0 (one fixing), the second
    # child's range [2, 3] empties (dropped, one fixing)
    assert fixings == 2 and len(kept) == 1
    c_lb, c_ub = kept[0]
    assert c_lb[0] == c_ub[0] == 0.0
    assert c_lb[1] == 0.0 and c_ub[1] == pytest.approx(0.8)
    assert c_lb[2] == c_ub[2] == 1.0
    assert bnb.free_indices(c_lb, c_ub).tolist() == [1]


@pytest.mark.parametrize("mode", ("eig", "eigz", "auto"))
def test_no_tightening_without_an_incumbent(mode, monkeypatch):
    # even coefficients and an odd right-hand side: the relaxations are
    # feasible, no integer point is, so f_ubd stays +inf all run long
    base = generate_random(GeneratorSpec(family="eiqp", n=4, m=1, seed=0, int_bound=3))
    prob = validate(
        base.n, base.Q, base.q, A=2.0 * base.A, b=2.0 * base.b + 1.0,
        lb=base.lb, ub=base.ub, integers=base.integers,
    )

    def refuse(*args):
        raise AssertionError("tightened without an incumbent")

    monkeypatch.setattr(qpsolve, "tightened_box", refuse)
    res = solve(prob, SolverConfig(relaxation=mode))
    assert res.status == "infeasible"
    assert res.nodes > 1
    assert res.stats["reduced_cost_fixings"] == 0


# ------------------------------------------------------------- relative gap


def test_relative_gap_worked_values():
    assert relative_gap(-5.0, -6.0) == pytest.approx(100.0 / 6.0)
    assert relative_gap(3.0, 3.0) == 0.0
    assert relative_gap(1.0, 0.0) == pytest.approx(100000.0)
    assert math.isinf(relative_gap(math.inf, -1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(relaxation="sdp")
    with pytest.raises(ValueError):
        SolverConfig(branch_rule="random")
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=0.0)
    # a NaN tolerance fathoms no node by its bound
    for tol in ({"rel_tol": math.nan}, {"abs_tol": math.nan}):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            SolverConfig(**tol)
    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError):
            SolverConfig(time_limit=bad)
    with pytest.raises(ValueError):
        SolverConfig(node_limit=-1)
    for limits in ({"time_limit": 0.0}, {"time_limit": math.inf}, {"node_limit": 0}):
        SolverConfig(**limits)


def test_eigz_records_root_delta():
    prob = binary_problem(
        [[0.0, 1.0], [1.0, 0.0]], A=np.array([[1.0, 1.0]]), b=np.array([1.0])
    )
    res = solve(prob, SolverConfig(relaxation="eigz"))
    assert res.status == "optimal"
    assert "root_delta" in res.stats
    assert res.stats["root_delta"] >= 1.0


def test_kkt_residual_stat_tracked():
    rng = np.random.default_rng(41)
    M = rng.normal(size=(6, 6))
    prob = binary_problem((M + M.T) / 2)
    res = solve(prob, SolverConfig(relaxation="eig"))
    assert res.stats["max_accepted_kkt"] <= 1e-5
