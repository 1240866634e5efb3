"""Convex QP/LP solver: worked solutions, status handling, duals, the KKT
verifier, the reduced nullspace path, and the validity of every bound."""

import dataclasses
import itertools
import math
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectralqp import bnb, linalg, oracle, problem, qpsolve
from spectralqp.relaxation import ConvexQpModel, relaxed_objective_at


def make_model(Q, q, offset=0.0, A=None, b=None, C=None, d=None, lb=None, ub=None, **kw):
    q = np.asarray(q, dtype=float)
    n = q.size
    def rows(M, v):
        if M is None:
            return np.zeros((0, n)), np.zeros(0)
        M = np.asarray(M, dtype=float).reshape(-1, n)
        return M, np.asarray(v, dtype=float).reshape(M.shape[0])
    A, b = rows(A, b)
    C, d = rows(C, d)
    return ConvexQpModel(
        kind=kw.pop("kind", "eig"),
        Q=None if Q is None else np.asarray(Q, dtype=float),
        q=q,
        offset=offset,
        A=A,
        b=b,
        C=C,
        d=d,
        lb=np.asarray(lb, dtype=float) if lb is not None else -np.ones(n),
        ub=np.asarray(ub, dtype=float) if ub is not None else np.ones(n),
        **kw,
    )


def rand_psd(rng, n, ridge=0.1):
    B = rng.standard_normal((n, n))
    return B.T @ B + ridge * np.eye(n)


# -------------------------------------------------------------- worked solves


def test_scalar_parabola():
    # min (x-1)^2 on [0,2], written as x^2 - 2x + 1
    model = make_model([[1.0]], [-2.0], offset=1.0, lb=[0.0], ub=[2.0])
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert qpsolve.verify_kkt(model, sol).passed


def test_equality_projection():
    model = make_model(
        np.eye(2), np.zeros(2), A=[[1.0, 1.0]], b=[1.0], lb=[-5.0, -5.0], ub=[5.0, 5.0]
    )
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-7)
    assert sol.objective == pytest.approx(0.5, abs=1e-8)
    # stationarity pins the equality multiplier: 2x + nu * 1 = 0
    assert sol.nu[0] == pytest.approx(-1.0, abs=1e-6)


def test_lp_minimum_at_vertex():
    model = make_model(None, [1.0], lb=[-1.0], ub=[1.0], kind="lp")
    sol = qpsolve.solve_lp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.x[0] == pytest.approx(-1.0, abs=1e-8)
    assert sol.objective == pytest.approx(-1.0, abs=1e-8)
    # lower bound active: pi_l = 1 restores stationarity
    assert sol.pi_l[0] == pytest.approx(1.0, abs=1e-6)
    assert qpsolve.verify_kkt(model, sol).passed


def test_lp_with_coupling_row():
    model = make_model(
        None, [-1.0, -2.0], C=[[1.0, 1.0]], d=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0],
        kind="lp",
    )
    sol = qpsolve.solve_lp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-2.0, abs=1e-8)
    assert np.allclose(sol.x, [0.0, 1.0], atol=1e-7)


def test_box_active_duals():
    model = make_model(np.zeros((3, 3)), -np.ones(3), lb=np.zeros(3), ub=np.ones(3))
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert np.allclose(sol.x, np.ones(3), atol=1e-7)
    assert np.allclose(sol.pi_u, np.ones(3), atol=1e-6)
    assert np.allclose(sol.pi_l, np.zeros(3), atol=1e-8)
    assert qpsolve.verify_kkt(model, sol).passed


def test_duplicate_rows_still_solved():
    # a rank-deficient row set must not break the simplex
    model = make_model(
        None, [-1.0, 0.0], C=[[1.0, 0.0], [1.0, 0.0]], d=[0.5, 0.5],
        lb=[0.0, 0.0], ub=[1.0, 1.0], kind="lp",
    )
    sol = qpsolve.solve_lp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-0.5, abs=1e-7)


def test_lp_engine_loads_highs_alone():
    # the extension is loaded by itself: importing scipy.optimize would cost
    # every process ~19 MB; eig and eigz solves make no LP, and the phase 1
    # of their QPs (one equality row at most) is a projection, so they load
    # nothing; the eiqp eigz QPs are the ones convex only on the nullspace
    script = """
import sys
from spectralqp import qpsolve
from spectralqp.bnb import SolverConfig, solve
from spectralqp.problem import GeneratorSpec, generate_random
prob = generate_random(GeneratorSpec(family="cbqp", n=8, k=2, seed=0))
res = solve(prob, SolverConfig(relaxation="eig"))
assert res.stats["lp_solves"] == 0
eiqp = generate_random(GeneratorSpec(family="eiqp", n=6, m=1, seed=0))
res = solve(eiqp, SolverConfig(relaxation="eigz"))
assert res.status == "optimal" and res.stats["lp_solves"] == 0
print(qpsolve._highs_core is None, qpsolve._HIGHS_CORE in sys.modules)
res = solve(prob, SolverConfig(relaxation="auto"))
assert res.stats["lp_solves"] > 0 and res.stats["lp_iterations"] > 0
print(qpsolve._highs_core is None, "scipy.optimize" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["True", "False", "False", "False"]


def test_solver_never_imports_scipy():
    # scipy's LAPACK and HiGHS extensions are loaded by themselves, from
    # scipy's folder: importing the scipy.linalg package would cost every
    # process about 0.2 s and 25 MB.  The eiqp eigz run (two equality rows)
    # reaches the pencil eigensolve, the nullspace basis and the pivoted QR
    # of _independent_rows; auto reaches HiGHS
    script = """
import sys
import spectralqp.cli
from spectralqp.bnb import SolverConfig, solve
from spectralqp.problem import GeneratorSpec, generate_random
cbqp = generate_random(GeneratorSpec(family="cbqp", n=8, k=2, seed=0))
eiqp = generate_random(GeneratorSpec(family="eiqp", n=6, m=2, seed=0))
for prob, mode in ((cbqp, "eig"), (eiqp, "eigz"), (cbqp, "auto")):
    assert solve(prob, SolverConfig(relaxation=mode)).status == "optimal"
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    mods = proc.stdout.split()
    # only HiGHS's extension registers its own submodules; no scipy
    # package, scipy itself included, is ever imported
    assert [m for m in mods if not m.startswith(qpsolve._HIGHS_CORE + ".")] == []


def test_extensions_already_imported_by_scipy_are_reused():
    script = """
import sys
import scipy.linalg, scipy.optimize
from spectralqp import linalg, qpsolve
print(linalg.flapack is sys.modules["scipy.linalg._flapack"],
      qpsolve._highs() is sys.modules[qpsolve._HIGHS_CORE])
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["True", "True"]


def test_scipy_imported_after_the_solver_binds_its_extensions():
    # the solver's own loads leave no entry that keeps scipy's import from
    # setting its package attributes; the extension cache hands scipy the
    # same routines
    script = """
import numpy as np
import spectralqp.cli
from spectralqp import linalg, qpsolve
highs = qpsolve._highs()
import scipy.linalg, scipy.optimize
print(scipy.linalg._flapack.dsygvx is linalg.flapack.dsygvx,
      scipy.optimize._highspy._core is highs,
      bool(np.allclose(scipy.linalg.eigh(np.diag([2.0, 1.0]))[0], [1.0, 2.0])),
      scipy.optimize.linprog([1.0], bounds=[(0.5, 1.0)], method="highs").fun)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["True", "True", "True", "0.5"]


def test_independent_rows_match_pivoted_qr():
    # the rows _independent_rows keeps are those of scipy.linalg.qr's pivots
    rng = np.random.default_rng(24)
    deficient = rng.standard_normal((4, 6))
    deficient[3] = deficient[0] - 2.0 * deficient[1]
    tall_deficient = rng.standard_normal((3, 7))
    tall_deficient[:, 2] = 0.0
    cases = [
        rng.standard_normal((7, 4)),            # more rows than columns
        rng.standard_normal((3, 7)),
        tall_deficient,
        rng.standard_normal((1, 5)),
        deficient,
        np.tile(rng.standard_normal(4), (3, 1)),
        np.zeros((3, 0)),                       # every column pinned
    ]
    for A in cases:
        got = qpsolve._independent_rows(A)
        if A.shape[0] <= 1:
            assert np.array_equal(got, np.flatnonzero(A.any(axis=1)))
            continue
        R, piv = scipy.linalg.qr(A.T, mode="r", pivoting=True)
        diag = np.abs(np.diag(R))
        rank = int(np.sum(diag > linalg.RANK_TOL * diag.max(initial=0.0))) if diag.size else 0
        ref = np.sort(piv[:rank])
        assert np.array_equal(got, ref) and got.dtype == ref.dtype
    A = np.ones((2, 3))
    A[0, 1] = np.nan
    with pytest.raises(ValueError):
        qpsolve._independent_rows(A)


def test_kkt_solve_matches_scipy_dgesv():
    rng = np.random.default_rng(25)
    for n in (1, 4, 9):
        K = rng.standard_normal((n, n)) + n * np.eye(n)
        rhs = rng.standard_normal(n)
        ref = scipy.linalg.lapack.dgesv(K, rhs)[2]
        assert np.array_equal(qpsolve._kkt_solve(K, rhs), ref)


def test_highs_first_load_runs_once_under_threads():
    # more threads than cores race for the first load; a lost update would
    # load the extension twice or hand threads different modules
    script = """
import importlib.machinery, sys, threading
from spectralqp import qpsolve
loads = []
Loader = importlib.machinery.ExtensionFileLoader
exec_module = Loader.exec_module
def counting(self, module):
    if self.name == qpsolve._HIGHS_CORE:
        loads.append(module)
    exec_module(self, module)
Loader.exec_module = counting
barrier = threading.Barrier(8)
got = []
def worker():
    barrier.wait(timeout=30)
    got.append(qpsolve._highs())
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=worker) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
print(len(loads), len(got), len({id(m) for m in got}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
    )
    assert proc.stdout.split() == ["1", "8", "1"]


def test_solve_lp_rejects_quadratic():
    model = make_model(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        qpsolve.solve_lp(model)


# -------------------------------------------------------------- infeasibility


def test_infeasible_equality_out_of_range():
    model = make_model(
        np.eye(2), np.zeros(2), A=[[1.0, 1.0]], b=[3.0], lb=[0.0, 0.0], ub=[1.0, 1.0]
    )
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_INFEASIBLE
    assert sol.x is None
    assert sol.bound == math.inf


def test_infeasible_inequality_out_of_range():
    model = make_model(
        np.eye(1), np.zeros(1), C=[[-1.0]], d=[-3.0], lb=[0.0], ub=[1.0]
    )
    assert qpsolve.solve_convex_qp(model).status == qpsolve.STATUS_INFEASIBLE


def test_infeasible_crossed_box():
    model = make_model(np.eye(1), np.zeros(1), lb=[1.0], ub=[0.0])
    assert qpsolve.solve_convex_qp(model).status == qpsolve.STATUS_INFEASIBLE


def test_infeasible_joint_rows_certificate():
    # every row passes the interval test; only their combination is empty
    model = make_model(
        np.eye(3),
        np.zeros(3),
        A=[[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]],
        b=[1.5, 0.2],
        lb=np.zeros(3),
        ub=np.ones(3),
    )
    sol = qpsolve.solve_convex_qp(model, max_iter=20_000)
    assert sol.status == qpsolve.STATUS_INFEASIBLE
    assert sol.bound == math.inf


def test_lp_infeasible_joint_rows_certified_by_dual_ray():
    # every row passes the interval test; HiGHS's dual ray proves the rest
    model = make_model(
        None,
        [1.0, -1.0, 0.5],
        A=[[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]],
        b=[1.5, 0.2],
        lb=np.zeros(3),
        ub=np.ones(3),
        kind="lp",
    )
    assert not qpsolve._interval_presolve(model)
    sol = qpsolve.solve_lp(model)
    assert sol.status == qpsolve.STATUS_INFEASIBLE
    assert sol.bound == math.inf


def test_lp_bogus_infeasibility_certifies_nothing(monkeypatch):
    model = make_model(
        None, [-1.0, -2.0], C=[[1.0, 1.0]], d=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0],
        kind="lp",
    )
    core = qpsolve._highs()

    class ClaimsInfeasible:
        def __init__(self):
            self._highs = core._Highs()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def getModelStatus(self):
            return core.HighsModelStatus.kInfeasible

        def getDualRay(self):
            return core.HighsStatus.kOk, True, np.array([1.0])

    fake = types.ModuleType("fake_highs")
    fake.__dict__.update(vars(core))
    fake._Highs = ClaimsInfeasible
    monkeypatch.setattr(qpsolve, "_highs", lambda: fake)
    sol = qpsolve.solve_lp(model)
    assert sol.status != qpsolve.STATUS_INFEASIBLE
    assert sol.bound == -math.inf


def test_lp_rejected_by_highs_raises(monkeypatch):
    # a rejected pass leaves the instance empty, which would "solve" to
    # kModelEmpty; the LP must not come back as if it had been solved
    model = make_model(None, [-1.0, -2.0], C=[[1.0, 1.0]], d=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0])
    core = qpsolve._highs()

    class Rejects:
        def __init__(self):
            self._highs = core._Highs()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def passModel(self, *args):
            return core.HighsStatus.kError

    fake = types.ModuleType("fake_highs")
    fake.__dict__.update(vars(core))
    fake._Highs = Rejects
    monkeypatch.setattr(qpsolve, "_highs", lambda: fake)
    with pytest.raises(RuntimeError, match="rejected"):
        qpsolve.solve_lp(model)


def test_lp_past_deadline_stops_with_a_valid_bound():
    from spectralqp.relaxation import build_mccormick_relaxation, restrict

    prob = problem.generate_random(problem.GeneratorSpec(family="cbqp", n=20, k=5, seed=0))
    model = build_mccormick_relaxation(restrict(prob, prob.lb, prob.ub))
    ref = qpsolve.solve_lp(model)
    assert ref.status == qpsolve.STATUS_OPTIMAL and ref.iterations > 0
    sol = qpsolve.solve_lp(model, deadline=time.monotonic() - 1.0)
    assert sol.status == qpsolve.STATUS_MAXITER
    assert sol.iterations < ref.iterations
    assert sol.bound <= ref.objective


def _small_lps(family, n, seed, shrink):
    """[(model, costs)]: the root McCormick LP of a small generated
    instance with its own cost, and the direction LP of the separable
    relaxation with v_1, -v_1, v_2, -v_2, ... over the negative
    eigendirections of the node's Q (when it has any), the box shrunk
    toward a random point by `shrink`."""
    from spectralqp.relaxation import ZERO_EIG_TOL, build_mccormick_relaxation, restrict

    kw = {"k": max(1, n // 3)} if family == "cbqp" else {"m": 1} if family == "eiqp" else {}
    prob = problem.generate_random(problem.GeneratorSpec(family=family, n=n, seed=seed, **kw))
    rng = np.random.default_rng(seed)
    mid = rng.uniform(prob.lb, prob.ub)
    R = restrict(prob, prob.lb + shrink * (mid - prob.lb), prob.ub - shrink * (prob.ub - mid))
    mccormick = build_mccormick_relaxation(R)
    lps = [(mccormick, [mccormick.q])]
    w, V = linalg.sym_eig_all(R.Q)
    costs = [s * V[:, t] for t in np.flatnonzero(w < -ZERO_EIG_TOL) for s in (1.0, -1.0)]
    if costs:
        lp = dataclasses.replace(R, kind="direction_lp", Q=None, q=costs[0], offset=0.0)
        lps.append((lp, costs))
    return lps


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["cbqp", "boxqp", "eiqp"]),
    st.integers(2, 5),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.3]),
)
@example("eiqp", 2, 208, 0.0)     # root LPs that the former ADMM QP engine
@example("eiqp", 4, 5015, 0.3)    # ran to max_iter on
def test_lp_bound_is_certified_and_exact(family, n, seed, shrink):
    for lp, costs in _small_lps(family, n, seed, shrink):
        for cost in costs:
            model = dataclasses.replace(lp, q=cost)
            sol = qpsolve.solve_lp(model)
            if sol.status == qpsolve.STATUS_INFEASIBLE:
                continue
            assert sol.status == qpsolve.STATUS_OPTIMAL
            # weak duality at a feasible point, with no gap left
            assert sol.bound <= sol.objective
            assert sol.objective - sol.bound <= 1e-6 * (1.0 + abs(sol.bound))
            # the QP entry point hands a linear model to HiGHS: optimal, with
            # the same certificate
            ref = qpsolve.solve_convex_qp(model)
            assert ref.status == qpsolve.STATUS_OPTIMAL
            assert ref.bound <= sol.objective
            assert abs(sol.bound - ref.bound) <= 1e-6 * (1.0 + abs(ref.bound))


def _assert_same_bits(sol, ref):
    """Two solutions agree bit for bit in every field."""
    assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
    assert repr(sol.objective) == repr(ref.objective) and repr(sol.bound) == repr(ref.bound)
    for name in ("x", "nu", "mu", "pi_l", "pi_u", "slope"):
        a, b = getattr(sol, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["cbqp", "boxqp", "eiqp"]),
    st.integers(2, 6),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.3]),
    st.booleans(),
)
def test_solve_lps_is_one_fresh_solve_per_cost(family, n, seed, shrink, c_rows):
    # each cost's run is cold: the cleared solver gives the bits of a fresh
    # solve_lp of the model with that cost, multipliers, bound and
    # iteration count included, with or without the model's C rows
    rng = np.random.default_rng(seed)
    for lp, costs in _small_lps(family, n, seed, shrink):
        if not c_rows:
            lp = dataclasses.replace(lp, C=np.zeros((0, lp.nvar)), d=np.zeros(0))
        costs = costs + [-lp.q, rng.uniform(-1.0, 1.0, lp.nvar)]
        sols = qpsolve.solve_lps(lp, costs)
        assert len(sols) == len(costs)
        for cost, sol in zip(costs, sols):
            _assert_same_bits(sol, qpsolve.solve_lp(dataclasses.replace(lp, q=cost)))


def test_solve_lps_jointly_empty_rows_certify_every_cost():
    # the dual ray of the first run certifies the region empty; the other
    # costs share the region and need no run
    model = make_model(
        None,
        [1.0, -1.0, 0.5],
        A=[[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]],
        b=[1.5, 0.2],
        lb=np.zeros(3),
        ub=np.ones(3),
        kind="lp",
    )
    assert not qpsolve._interval_presolve(model)
    costs = [model.q, -model.q, np.array([0.0, 2.0, -1.0])]
    sols = qpsolve.solve_lps(model, costs)
    assert [sol.status for sol in sols] == [qpsolve.STATUS_INFEASIBLE] * 3
    assert [sol.bound for sol in sols] == [math.inf] * 3
    assert [sol.iterations for sol in sols[1:]] == [0, 0]
    # an empty box is certified by the presolve, with no run at all
    empty = dataclasses.replace(model, lb=np.array([0.0, 0.6, 0.0]), ub=np.array([1.0, 0.5, 1.0]))
    assert [sol.bound for sol in qpsolve.solve_lps(empty, costs)] == [math.inf] * 3
    assert qpsolve.solve_lps(model, []) == []


def _root_mccormick(n=20, k=5):
    from spectralqp.relaxation import build_mccormick_relaxation, restrict

    prob = problem.generate_random(problem.GeneratorSpec(family="cbqp", n=n, k=k, seed=0))
    return build_mccormick_relaxation(restrict(prob, prob.lb, prob.ub))


def test_solve_lps_past_deadline_stops_every_cost_with_a_valid_bound():
    model = _root_mccormick()
    costs = [model.q, -model.q, np.random.default_rng(3).uniform(-1.0, 1.0, model.nvar)]
    refs = qpsolve.solve_lps(model, costs)
    sols = qpsolve.solve_lps(model, costs, deadline=time.monotonic() - 1.0)
    for sol, ref in zip(sols, refs):
        assert ref.status == qpsolve.STATUS_OPTIMAL and ref.iterations > 0
        assert sol.status == qpsolve.STATUS_MAXITER
        assert sol.iterations < ref.iterations
        assert sol.bound <= ref.objective


def test_solve_lps_time_limit_counts_from_each_run(monkeypatch):
    # HiGHS's run clock adds up over the runs of one instance, so each run's
    # limit is the time already run plus what is left to the deadline
    core = qpsolve._highs()
    seen = []

    class Recording:
        def __init__(self):
            self._highs = core._Highs()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def setOptionValue(self, name, value):
            if name == "time_limit":
                seen.append((self._highs.getRunTime(), value, time.monotonic()))
            return self._highs.setOptionValue(name, value)

    fake = types.ModuleType("fake_highs")
    fake.__dict__.update(vars(core))
    fake._Highs = Recording
    monkeypatch.setattr(qpsolve, "_highs", lambda: fake)
    model = _root_mccormick()
    deadline = time.monotonic() + 60.0
    sols = qpsolve.solve_lps(model, [model.q, -model.q, model.q], deadline=deadline)
    assert [sol.status for sol in sols] == [qpsolve.STATUS_OPTIMAL] * 3
    assert len(seen) == 3 and seen[0][0] == 0.0 < seen[1][0] < seen[2][0]
    for ran, limit, after in seen:
        assert deadline - after <= limit - ran <= 60.0


def _fresh_highs(monkeypatch):
    """Hand the next LP solves a brand-new HiGHS instance: _highs() returns
    a module of its own, for which the thread has no instance yet."""
    core = qpsolve._highs()
    fake = types.ModuleType("fresh_highs")
    fake.__dict__.update(vars(core))
    monkeypatch.setattr(qpsolve, "_highs", lambda: fake)


def test_lp_results_do_not_depend_on_what_the_instance_solved_before(monkeypatch):
    # the thread's instance first solves an LP of other dimensions, an
    # infeasible one and one cut off by a past deadline; the fixed model
    # then gets the bits of a brand-new instance, for one cost and for many
    model = _root_mccormick(n=12, k=3)
    costs = [model.q, -model.q, np.random.default_rng(7).uniform(-1.0, 1.0, model.nvar)]
    core = qpsolve._highs()
    other = _root_mccormick()
    assert other.nvar != model.nvar
    assert qpsolve.solve_lp(other).status == qpsolve.STATUS_OPTIMAL
    # rows that each pass the interval test; only HiGHS's dual ray proves them empty
    empty = make_model(
        None, [1.0, -1.0, 0.5], A=[[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]], b=[1.5, 0.2],
        lb=np.zeros(3), ub=np.ones(3), kind="lp",
    )
    assert qpsolve.solve_lp(empty).status == qpsolve.STATUS_INFEASIBLE
    assert qpsolve.solve_lp(other, deadline=time.monotonic() - 1.0).status == qpsolve.STATUS_MAXITER
    instance = qpsolve._instance(core)
    one = qpsolve.solve_lp(model)
    many = qpsolve.solve_lps(model, costs)
    assert qpsolve._instance(core) is instance
    refs = []
    for cost in costs:
        _fresh_highs(monkeypatch)
        refs.append(qpsolve.solve_lp(dataclasses.replace(model, q=cost)))
    assert refs[0].status == qpsolve.STATUS_OPTIMAL
    _assert_same_bits(one, refs[0])
    for sol, ref in zip(many, refs):
        _assert_same_bits(sol, ref)


def test_lp_deadline_does_not_outlive_its_solve(monkeypatch):
    # options persist on the thread's instance: a solve without a deadline
    # after one past its deadline must run to the end, as a fresh one does
    model = _root_mccormick()
    assert qpsolve.solve_lp(model, deadline=time.monotonic() - 1.0).status == qpsolve.STATUS_MAXITER
    sol = qpsolve.solve_lp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    _fresh_highs(monkeypatch)
    _assert_same_bits(sol, qpsolve.solve_lp(model))


def test_threads_solving_at_once_get_the_serial_bits(monkeypatch):
    # each thread runs its LPs on its own instance: threads (more than
    # cores) that have all passed their LP before any runs (each run waits
    # for the others') get the bits of one thread solving alone
    lps = [
        lp_costs
        for family, n, seed in (("cbqp", 6, 1), ("boxqp", 5, 2), ("eiqp", 4, 3), ("cbqp", 8, 4))
        for lp_costs in _small_lps(family, n, seed, 0.0)
    ]
    serial = [qpsolve.solve_lps(lp, costs) for lp, costs in lps]
    core = qpsolve._highs()
    all_passed = threading.Barrier(3, timeout=30)
    one_run_at_a_time = threading.Lock()

    class Rendezvous:
        def __init__(self):
            self._highs = core._Highs()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def run(self):
            all_passed.wait()
            with one_run_at_a_time:
                return self._highs.run()

    fake = types.ModuleType("rendezvous_highs")
    fake.__dict__.update(vars(core))
    fake._Highs = Rendezvous
    monkeypatch.setattr(qpsolve, "_highs", lambda: fake)
    got: list[dict] = [{}, {}, {}]
    errors = []

    def worker(slot, order):
        # every order holds every LP, so the threads make as many runs
        try:
            for i in order:
                got[slot][i] = qpsolve.solve_lps(*lps[i])
        except Exception as exc:    # noqa: BLE001 - reported below
            errors.append(exc)
            all_passed.abort()

    order = list(range(len(lps)))
    orders = (order, order[::-1], order[3:] + order[:3])
    threads = [threading.Thread(target=worker, args=arg) for arg in enumerate(orders)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not errors and not any(t.is_alive() for t in threads)
    for results in got:
        assert sorted(results) == order
        for i, sols in results.items():
            assert len(sols) == len(serial[i])
            for sol, ref in zip(sols, serial[i]):
                _assert_same_bits(sol, ref)


def test_reduced_inconsistent_equalities():
    model = make_model(
        np.diag([1.0, -1.0]),
        np.zeros(2),
        A=[[1.0, 0.0], [1.0, 0.0]],
        b=[0.0, 1.0],
    )
    assert qpsolve.solve_convex_qp(model).status == qpsolve.STATUS_INFEASIBLE


def test_reduced_pinned_point():
    # square nonsingular equality system leaves nothing to optimize
    model = make_model(
        np.diag([1.0, -1.0]), np.zeros(2), A=np.eye(2), b=[0.5, 0.25],
        lb=[0.0, 0.0], ub=[1.0, 1.0],
    )
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert np.allclose(sol.x, [0.5, 0.25], atol=1e-10)
    assert sol.objective == pytest.approx(0.25 - 0.0625)


def test_reduced_pinned_point_outside_box():
    model = make_model(
        np.diag([1.0, -1.0]), np.zeros(2), A=np.eye(2), b=[2.0, 0.25],
        lb=[0.0, 0.0], ub=[1.0, 1.0],
    )
    assert qpsolve.solve_convex_qp(model).status == qpsolve.STATUS_INFEASIBLE


# ------------------------------------------------------------ solution quality


def test_matches_box_oracle_on_convex_instances():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        Q = 0.5 * rand_psd(rng, n)
        q = rng.uniform(-3, 3, n)
        prob = problem.validate(n=n, Q=Q, q=q, lb=-np.ones(n), ub=np.ones(n))
        best = oracle.enumerate_box_kkt(prob)
        model = make_model(Q, q)
        sol = qpsolve.solve_convex_qp(model)
        assert sol.status == qpsolve.STATUS_OPTIMAL
        assert sol.objective == pytest.approx(best.value, abs=1e-6)


def test_nullspace_convex_qp_matches_a_full_dimensional_reference():
    # Q is indefinite but PSD on the nullspace of the equality row, as an
    # eigz shift leaves it: the active set solves it in full coordinates, and
    # its optimum and bound match the face enumeration of _model_optimum
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(3, 7))
        A = rng.uniform(-1, 1, size=(1, n))
        a = A[0] / np.linalg.norm(A[0])
        Q = 0.5 * rand_psd(rng, n) - 3.0 * np.outer(a, a)
        Z = np.linalg.svd(A)[2][1:].T
        Q += max(0.0, -float(np.linalg.eigvalsh(Z.T @ Q @ Z)[0])) * (Z @ Z.T)
        assert np.linalg.eigvalsh(Q)[0] < -qpsolve.PSD_SLACK
        q = rng.uniform(-2, 2, n)
        model = make_model(Q, q, A=A, b=A @ rng.uniform(-0.5, 0.5, n))
        sol = qpsolve.solve_convex_qp(model)
        assert sol.status == qpsolve.STATUS_OPTIMAL
        assert qpsolve.verify_kkt(model, sol).passed
        best = _model_optimum(model)
        assert sol.objective == pytest.approx(best, abs=1e-6)
        assert best - 1e-6 * (1.0 + abs(best)) <= sol.bound <= best


def test_solution_bounds_feasible_points():
    rng = np.random.default_rng(19)
    n = 4
    Q = 0.5 * rand_psd(rng, n)
    q = rng.uniform(-2, 2, n)
    model = make_model(Q, q)
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    for _ in range(200):
        x = rng.uniform(model.lb, model.ub)
        val = float(x @ model.Q @ x + model.q @ x) + model.offset
        assert sol.objective <= val + 1e-7 * (1.0 + abs(val))


def test_multiplier_signs():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        model = make_model(
            0.5 * rand_psd(rng, n),
            rng.uniform(-2, 2, n),
            C=rng.uniform(-1, 1, size=(1, n)),
            d=[1.0],
        )
        sol = qpsolve.solve_convex_qp(model)
        assert sol.status == qpsolve.STATUS_OPTIMAL
        assert np.all(sol.mu >= 0) and np.all(sol.pi_l >= 0) and np.all(sol.pi_u >= 0)


# ----------------------------------------------------------------- kkt checks


def test_kkt_rejects_nonstationary_interior_point():
    model = make_model([[1.0]], [-2.0], offset=1.0, lb=[0.0], ub=[2.0])
    fake = qpsolve.QpSolution(
        status=qpsolve.STATUS_OPTIMAL,
        x=np.array([0.5]),
        objective=0.25,
        nu=np.zeros(0),
        mu=np.zeros(0),
        pi_l=np.zeros(1),
        pi_u=np.zeros(1),
        iterations=0,
    )
    rep = qpsolve.verify_kkt(model, fake)
    assert not rep.passed
    assert rep.stationarity > 1e-2


def test_kkt_boundary_optimum_with_exact_multiplier():
    model = make_model(None, [1.0], lb=[0.0], ub=[1.0], kind="lp")
    sol = qpsolve.QpSolution(
        status=qpsolve.STATUS_OPTIMAL,
        x=np.array([0.0]),
        objective=0.0,
        nu=np.zeros(0),
        mu=np.zeros(0),
        pi_l=np.array([1.0]),
        pi_u=np.zeros(1),
        iterations=0,
    )
    rep = qpsolve.verify_kkt(model, sol)
    assert rep.passed
    assert rep.stationarity == 0.0 and rep.complementarity == 0.0


def test_kkt_flags_negative_multiplier():
    model = make_model(None, [1.0], lb=[0.0], ub=[1.0], kind="lp")
    sol = qpsolve.QpSolution(
        status=qpsolve.STATUS_OPTIMAL,
        x=np.array([0.0]),
        objective=0.0,
        nu=np.zeros(0),
        mu=np.zeros(0),
        pi_l=np.array([1.0]),
        pi_u=np.array([-0.5]),
        iterations=0,
    )
    rep = qpsolve.verify_kkt(model, sol)
    assert not rep.passed
    assert rep.dual_violation > 0


def test_kkt_flags_primal_violation():
    model = make_model(np.eye(2), np.zeros(2), A=[[1.0, 1.0]], b=[1.0])
    sol = qpsolve.solve_convex_qp(model)
    shifted = dataclasses.replace(sol, x=sol.x + 0.1)
    rep = qpsolve.verify_kkt(model, shifted)
    assert not rep.passed
    assert rep.primal > 1e-3


def test_kkt_stationarity_with_every_row_kind():
    # Q, an equality row, a violated C row and multipliers on both bounds
    Q, q = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])
    A, b, C, d = np.array([[1.0, 1.0]]), np.array([1.0]), np.array([[1.0, -1.0]]), np.array([-0.6])
    model = make_model(Q, q, A=A, b=b, C=C, d=d, lb=[0.0, 0.0], ub=[1.0, 1.0])
    x, nu, mu = np.array([0.25, 0.75]), np.array([0.3]), np.array([2.0])
    pi_l, pi_u = np.array([0.1, 0.0]), np.array([0.0, 0.4])
    sol = qpsolve.QpSolution(qpsolve.STATUS_OPTIMAL, x, 0.0, nu, mu, pi_l, pi_u, 0)
    rep = qpsolve.verify_kkt(model, sol)
    scale = 1.0 + 2.0       # the largest magnitude: Q_11 and mu
    grad = 2.0 * Q @ x + q + A.T @ nu + C.T @ mu - pi_l + pi_u
    assert abs(rep.stationarity - float(np.max(np.abs(grad))) / scale) <= 1e-12
    assert rep.primal == pytest.approx(0.1 / scale, abs=1e-12)             # Cx - d
    assert rep.complementarity == pytest.approx(0.2 / scale, abs=1e-12)    # mu (d - Cx)
    assert not rep.passed


# -------------------------------------------------------- max_iter and bounds


def test_max_iter_bound_is_lagrangian_bound():
    # coefficients chosen so float stationarity cannot cancel to exactly zero,
    # making an impossible tolerance unreachable even at the exact optimum
    model = make_model(
        np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([0.7, -1.3]),
        A=[[1.1, 3.3]], b=[1.0], lb=[-5.0, -5.0], ub=[5.0, 5.0],
    )
    ref = qpsolve.solve_convex_qp(model)
    assert ref.status == qpsolve.STATUS_OPTIMAL
    starved = qpsolve.solve_convex_qp(model, tol=1e-30, max_iter=25)
    assert starved.status == qpsolve.STATUS_MAXITER
    # weak duality: the Lagrangian bound never exceeds the optimum
    assert starved.bound <= ref.objective + 1e-9


def test_max_iter_bound_validity_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        Q = 0.5 * rand_psd(rng, n)
        q = rng.uniform(-2, 2, n)
        A = rng.uniform(-1, 1, size=(1, n))
        model = make_model(Q, q, A=A, b=A @ rng.uniform(-0.5, 0.5, n))
        ref = qpsolve.solve_convex_qp(model)
        assert ref.status == qpsolve.STATUS_OPTIMAL
        starved = qpsolve.solve_convex_qp(model, tol=1e-20, max_iter=25)
        if starved.status == qpsolve.STATUS_MAXITER and np.isfinite(starved.bound):
            assert starved.bound <= ref.objective + 1e-7


def test_optimal_bound_is_guarded_objective():
    model = make_model([[1.0]], [-2.0], offset=5.0, lb=[0.0], ub=[2.0])
    sol = qpsolve.solve_convex_qp(model)
    rep = qpsolve.verify_kkt(model, sol)
    assert rep.passed
    # the bound at a KKT point sits below the objective by at most the
    # rounding guard plus what the residuals leave open
    slack = max(rep.stationarity, rep.primal, rep.complementarity, rep.dual_violation)
    assert sol.bound <= sol.objective
    assert sol.objective - sol.bound <= (10.0 * qpsolve.BOUND_GUARD + slack) * (
        1.0 + abs(sol.objective)
    )


def test_kkt_failed_optimal_keeps_its_bound(monkeypatch):
    # bnb checks the KKT report of every optimal node solve: a failed one
    # counts as a discard, and the node still uses its certified bound
    prob = problem.generate_random(problem.GeneratorSpec(family="cbqp", n=8, k=2, seed=0))
    cfg = bnb.SolverConfig(relaxation="eig")
    ref = bnb.solve(prob, cfg)
    assert ref.stats["kkt_discards"] == 0 and ref.stats["max_accepted_kkt"] > 0.0
    checked = []

    def failed(model, sol):
        checked.append(sol.status)
        return qpsolve.KktReport(1.0, 0.0, 0.0, 0.0, False)

    monkeypatch.setattr(qpsolve, "verify_kkt", failed)
    res = bnb.solve(prob, cfg)
    assert set(checked) == {qpsolve.STATUS_OPTIMAL}
    assert res.stats["kkt_discards"] == len(checked) > 0
    assert res.stats["max_accepted_kkt"] == 0.0
    assert res.trace == ref.trace
    assert (res.nodes, res.f_ubd, res.f_lbd) == (ref.nodes, ref.f_ubd, ref.f_lbd)


def test_indefinite_q_with_equality_rows_takes_the_reduced_path():
    # Q is indefinite in full space but convex on the nullspace of A; the
    # optimum is x = (0, 0.5), value -0.25.  Solved in full space, the bound
    # would pay for the negative curvature across the whole box.
    model = make_model(np.diag([1.0, -1.0]), np.zeros(2), A=[[0.0, 1.0]], b=[0.5])
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.bound == pytest.approx(-0.25, abs=1e-6)


def test_kkt_failed_reduced_solve_keeps_a_valid_bound(monkeypatch):
    # Q is indefinite in full space but convex on the nullspace of A; the
    # optimum is x = (0, 0.5), value -0.25
    model = make_model(np.diag([1.0, -1.0]), np.zeros(2), A=[[0.0, 1.0]], b=[0.5])
    assert qpsolve.verify_kkt(model, qpsolve.solve_convex_qp(model)).passed
    monkeypatch.setattr(
        qpsolve, "verify_kkt", lambda model, sol: qpsolve.KktReport(1.0, 0.0, 0.0, 0.0, False)
    )
    bound = qpsolve.solve_convex_qp(model).bound
    assert math.isfinite(bound) and bound <= -0.25


def _root_qp(family, n, seed, mode, **kw):
    from spectralqp.relaxation import build_spectral_relaxation, restrict, shift_for_mode

    prob = problem.generate_random(problem.GeneratorSpec(family=family, n=n, seed=seed, **kw))
    R = restrict(prob, prob.lb, prob.ub)
    return build_spectral_relaxation(R, shift_for_mode(mode, R.Q, R.A))


def test_truncated_solve_of_a_singular_qp_bounds_the_optimum():
    # the eig shift leaves Q singular; one active-set iteration stops short
    # of optimal, its bound still loose
    model = _root_qp("boxqp", 6, 14, "eig")
    sol = qpsolve.solve_convex_qp(model, tol=1e-16, max_iter=1)
    assert sol.status == qpsolve.STATUS_MAXITER
    # the optimum, by active-set enumeration (see _face_min)
    assert sol.bound <= -28.58583897090549


def test_separable_root_qp_converges():
    # a cbqp whose cardinality row is written as two C rows: phase 1 is a
    # HiGHS LP, and the eig shift leaves Q singular along its eigenvector, so
    # the regularized KKT solves must still make progress on singular faces
    from spectralqp.relaxation import (
        build_separable_relaxation, build_spectral_relaxation, compute_shift_eig, restrict,
    )

    spec = problem.GeneratorSpec(family="cbqp", n=8, density=0.25, k=2, seed=0)
    prob = problem.generate_random(spec)
    row = np.ones((1, prob.n))
    prob = problem.validate(
        n=prob.n, Q=prob.Q, q=prob.q, C=np.vstack([row, -row]), d=[spec.k, -spec.k],
        lb=prob.lb, ub=prob.ub, integers=prob.integers,
    )
    R = restrict(prob, prob.lb, prob.ub)
    model = build_spectral_relaxation(R, compute_shift_eig(R.Q))
    assert model.C.shape[0] == 2
    assert np.linalg.eigvalsh(model.Q)[0] <= 1e-9 * np.abs(model.Q).max()
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    assert sol.iterations <= 5_000

    # the separable model lives over the node's own variables
    prob = problem.generate_random(problem.GeneratorSpec(family="eiqp", n=6, m=1, seed=209))
    model = build_separable_relaxation(restrict(prob, prob.lb, prob.ub), qpsolve.solve_lps)
    assert model.nvar == 6
    assert qpsolve.solve_convex_qp(model).status == qpsolve.STATUS_OPTIMAL


def _face_min(model, fixed, rows):
    """The minimizer of the model over the face where the variables in
    `fixed` (index -> value) sit on that bound and the C rows `rows` hold
    with equality, the equality rows kept: the face's KKT system solved by
    least squares.  None when the system is inconsistent or its point leaves
    the model's feasible set (to 1e-11 relative)."""
    n = model.nvar
    Q = model.Q if model.Q is not None else np.zeros((n, n))
    fix = np.array(sorted(fixed), dtype=int)
    free = np.array([i for i in range(n) if i not in fixed], dtype=int)
    x = np.zeros(n)
    x[fix] = [fixed[i] for i in fix]
    E = np.vstack([model.A, model.C[rows]])
    e = np.concatenate([model.b, model.d[rows]]) - E[:, fix] @ x[fix]
    E = E[:, free]
    k = E.shape[0]
    K = np.block([[2.0 * Q[np.ix_(free, free)], E.T], [E, np.zeros((k, k))]])
    rhs = np.concatenate([-(model.q[free] + 2.0 * Q[np.ix_(free, fix)] @ x[fix]), e])
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    scale = 1.0 + float(np.max(np.abs(rhs), initial=0.0))
    if float(np.max(np.abs(K @ sol - rhs), initial=0.0)) > 1e-9 * scale:
        return None
    x[free] = sol[: free.size]
    tol = 1e-11 * (1.0 + float(np.max(np.abs(x))))
    feasible = (
        np.all(x >= model.lb - tol) and np.all(x <= model.ub + tol)
        and np.all(np.abs(model.A @ x - model.b) <= tol)
        and np.all(model.C @ x <= model.d + tol)
    )
    return x if feasible else None


def _model_optimum(model):
    """The model optimum by active-set enumeration: the least objective over
    the feasible face minimizers.  Models without C rows enumerate every box
    face (3^n); for a linear model the face is the set of constraints active
    at HiGHS's optimal vertex, recomputed in float64."""
    if model.C.shape[0] == 0:
        faces = []
        for pick in itertools.product((None, "l", "u"), repeat=model.nvar):
            faces.append(
                {i: (model.lb[i] if s == "l" else model.ub[i]) for i, s in enumerate(pick) if s}
            )
        rows = np.zeros(0, dtype=int)
        points = [_face_min(model, f, rows) for f in faces]
    else:
        x = qpsolve.solve_lp(model).x
        tol = 1e-7 * (1.0 + float(np.max(np.abs(x))))
        fixed = {i: model.lb[i] for i in np.flatnonzero(x - model.lb <= tol)}
        fixed.update({i: model.ub[i] for i in np.flatnonzero(model.ub - x <= tol)})
        points = [_face_min(model, fixed, np.flatnonzero(model.C @ x >= model.d - tol))]
    values = [relaxed_objective_at(model, x) for x in points if x is not None]
    assert values, "no feasible face minimizer"
    return min(values)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["cbqp", "boxqp", "eiqp"]),
    st.integers(2, 6),
    st.integers(0, 10_000),
)
def test_bound_never_exceeds_the_model_optimum(family, n, seed):
    from spectralqp.relaxation import build_mccormick_relaxation, restrict

    kw = {"k": max(1, n // 3)} if family == "cbqp" else {"m": 1} if family == "eiqp" else {}
    prob = problem.generate_random(problem.GeneratorSpec(family=family, n=n, seed=seed, **kw))
    lp = build_mccormick_relaxation(restrict(prob, prob.lb, prob.ub))
    models = [_root_qp(family, n, seed, mode, **kw) for mode in ("eig", "geig", "eigz")]
    for model in models + [lp]:
        best = _model_optimum(model)
        sols = [
            qpsolve.solve_convex_qp(model, max_iter=max_iter)
            for max_iter in (10, 50, 200, qpsolve.DEFAULT_MAX_ITER)
        ]
        if model is lp:
            sols.append(qpsolve.solve_lp(lp))
        for sol in sols:
            assert sol.status != qpsolve.STATUS_INFEASIBLE
            assert sol.bound <= best, (model.kind, sol.iterations)


def _candidate_points(prob, seed):
    """Every feasible point of a small integer instance, by enumeration; for
    a boxqp its box vertices and 200 random box points."""
    if prob.integers:
        grids = [np.arange(prob.lb[i], prob.ub[i] + 1.0) for i in range(prob.n)]
        X = np.array(list(itertools.product(*grids)), dtype=float)
        ok = np.ones(len(X), dtype=bool)
        if prob.m:
            ok &= np.max(np.abs(X @ prob.A.T - prob.b), axis=1) <= 1e-9
        return X[ok]
    rng = np.random.default_rng(seed)
    vertices = np.array(list(itertools.product(*zip(prob.lb, prob.ub))), dtype=float)
    return np.vstack([vertices, rng.uniform(prob.lb, prob.ub, size=(200, prob.n))])


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["cbqp", "boxqp", "eiqp"]),
    st.integers(2, 6),
    st.integers(0, 10_000),
)
@example("eiqp", 4, 0)     # its eigz root QP takes the reduced path
def test_slope_certifies_every_better_point(family, n, seed):
    # objective(x') >= bound + sum_i (g_i x'_i - min(g_i l_i, g_i u_i)) at
    # every feasible x', for root QPs (eigz ones mostly on the reduced path),
    # truncated or not, and McCormick LPs; tightened_box keeps every point
    # whose objective is below the cutoff
    from spectralqp.relaxation import build_mccormick_relaxation, restrict

    kw = (
        {"k": max(1, n // 3)} if family == "cbqp"
        else {"m": 1, "int_bound": 3} if family == "eiqp" else {}
    )
    prob = problem.generate_random(problem.GeneratorSpec(family=family, n=n, seed=seed, **kw))
    X = _candidate_points(prob, seed)
    if not len(X):
        return
    f = np.einsum("ij,jk,ik->i", X, prob.Q, X) + X @ prob.q
    cutoff = float(np.median(f))
    sols = [
        qpsolve.solve_convex_qp(_root_qp(family, n, seed, mode, **kw), max_iter=max_iter)
        for mode in ("eig", "geig", "eigz")
        for max_iter in (10, 50, qpsolve.DEFAULT_MAX_ITER)
    ]
    R = restrict(prob, prob.lb, prob.ub)
    sols.append(qpsolve.solve_lp(build_mccormick_relaxation(R)))
    for sol in sols:
        assert sol.status != qpsolve.STATUS_INFEASIBLE
        assert (sol.slope is not None) == math.isfinite(sol.bound)
        if sol.slope is None:
            continue
        g = sol.slope[:n]
        terms = X * g - np.minimum(g * prob.lb, g * prob.ub)
        lifted = sol.bound + terms.sum(axis=1)
        tol = 1e-9 * (1.0 + np.abs(f) + abs(sol.bound) + np.abs(terms).sum(axis=1))
        assert np.all(f >= lifted - tol), (sol.iterations, float(np.max(lifted - f)))
        lo, hi = qpsolve.tightened_box(sol, prob.lb, prob.ub, cutoff)
        better = X[f < cutoff]
        assert np.all((better >= lo) & (better <= hi))


def test_past_deadline_stops_at_first_check():
    rng = np.random.default_rng(43)
    n = 6
    A = rng.uniform(-1, 1, size=(2, n))
    model = make_model(0.5 * rand_psd(rng, n), rng.uniform(-2, 2, n), A=A, b=A @ np.zeros(n))
    sol = qpsolve.solve_convex_qp(model, tol=1e-30, deadline=time.monotonic() - 1.0)
    assert sol.status == qpsolve.STATUS_MAXITER
    # the deadline is checked before every iteration: at most one runs
    assert sol.iterations <= 1


def _node_qps(family, n, seed, shrink, m):
    """The eig, geig, eigz and separable QPs of a generated instance's node
    whose box is shrunk toward a random point by `shrink`; a cbqp writes its
    cardinality row as two C rows, so that its QPs carry inequality rows."""
    from spectralqp.relaxation import (
        build_separable_relaxation, build_spectral_relaxation, restrict, shift_for_mode,
    )

    kw = {"k": max(1, n // 3)} if family == "cbqp" else {"m": m} if family == "eiqp" else {}
    prob = problem.generate_random(problem.GeneratorSpec(family=family, n=n, seed=seed, **kw))
    if family == "cbqp":
        row = np.ones((1, n))
        prob = problem.validate(
            n=n, Q=prob.Q, q=prob.q, C=np.vstack([row, -row]), d=[kw["k"], -kw["k"]],
            lb=prob.lb, ub=prob.ub, integers=prob.integers,
        )
    rng = np.random.default_rng(seed)
    mid = rng.uniform(prob.lb, prob.ub)
    R = restrict(prob, prob.lb + shrink * (mid - prob.lb), prob.ub - shrink * (prob.ub - mid))
    models = [
        build_spectral_relaxation(R, shift_for_mode(mode, R.Q, R.A))
        for mode in ("eig", "geig", "eigz")
    ]
    models.append(build_separable_relaxation(R, qpsolve.solve_lps))
    return [model for model in models if model is not None]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["cbqp", "boxqp", "eiqp"]),
    st.integers(2, 6),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.3]),
    st.sampled_from([1, 2]),
)
@example("eiqp", 5, 7, 0.0, 2)    # two equality rows: phase 1 is a HiGHS LP
@example("cbqp", 6, 3, 0.3, 1)    # C rows
@example("eiqp", 6, 28, 0.3, 2)   # a geig bound 5e-6 below the objective, relative to it
def test_active_set_solves_every_relaxation_qp(family, n, seed, shrink, m):
    for model in _node_qps(family, n, seed, shrink, m):
        sol = qpsolve.solve_convex_qp(model)
        assert sol.status != qpsolve.STATUS_MAXITER, (model.kind, sol.iterations)
        if sol.status == qpsolve.STATUS_OPTIMAL:
            rep = qpsolve.verify_kkt(model, sol)
            assert rep.passed, (model.kind, rep)
            # no gap beyond rounding: relative to the objective and to the
            # multiplier terms, whose magnitude sets the bound's own guard
            scale = 1.0 + abs(sol.objective) + np.abs(sol.nu) @ np.abs(model.b) + sol.mu @ np.abs(model.d)
            assert sol.objective - sol.bound <= 1e-6 * scale, model.kind


@pytest.mark.parametrize("rows", ["inequality", "equality"])
def test_degenerate_vertex_with_tied_multipliers(rows):
    # min 1/2 |x|^2 - 3 sum(x) over [0, 1]^3 x {0.5}: every upper bound binds
    # with the same multiplier, the pinned variable sits on both its bounds,
    # and the rows (one a copy of a bound) bind at the same vertex
    kw = (
        {"C": [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]],
         "d": [1.0, 2.0, 2.0]}
        if rows == "inequality" else {"A": [[1.0, 1.0, 1.0, 1.0]], "b": [3.5]}
    )
    model = make_model(
        0.5 * np.eye(4), -3.0 * np.ones(4), lb=[0.0, 0.0, 0.0, 0.5], ub=[1.0, 1.0, 1.0, 0.5], **kw
    )
    sol = qpsolve.solve_convex_qp(model)
    assert sol.status == qpsolve.STATUS_OPTIMAL and qpsolve.verify_kkt(model, sol).passed
    assert sol.iterations <= 10
    assert np.allclose(sol.x, [1.0, 1.0, 1.0, 0.5], atol=1e-9)
    assert sol.objective == pytest.approx(-8.875, abs=1e-9)
    assert sol.bound <= sol.objective


def test_optimal_status_meets_residual_contract():
    rng = np.random.default_rng(37)
    tol = 1e-8
    for _ in range(10):
        n = int(rng.integers(2, 6))
        model = make_model(0.5 * rand_psd(rng, n), rng.uniform(-2, 2, n))
        sol = qpsolve.solve_convex_qp(model, tol=tol)
        assert sol.status == qpsolve.STATUS_OPTIMAL
        x = sol.x
        primal = max(float(np.max(model.lb - x)), float(np.max(x - model.ub)), 0.0)
        grad = 2.0 * (model.Q @ x) + model.q - sol.pi_l + sol.pi_u
        assert primal <= tol * (1.0 + 10.0)
        assert float(np.max(np.abs(grad))) <= tol * (1.0 + 100.0)


# ------------------------------------------------------- property: kkt at 10x


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10_000))
def test_optimal_implies_kkt_at_ten_tol(n, seed):
    rng = np.random.default_rng(seed)
    Q = 0.5 * rand_psd(rng, n)
    q = rng.uniform(-5, 5, n)
    model = make_model(Q, q, lb=rng.uniform(-2, -0.5, n), ub=rng.uniform(0.5, 2, n))
    sol = qpsolve.solve_convex_qp(model, tol=1e-8)
    assert sol.status == qpsolve.STATUS_OPTIMAL
    rep = qpsolve.verify_kkt(model, sol)
    # np.max propagates a NaN residual, so this is exactly `passed` at 1e-7
    assert np.max([rep.stationarity, rep.primal, rep.complementarity, rep.dual_violation]) <= 1e-7
