"""CLI tests: exit codes, JSON reports, CSV schemas, and byte determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spectralqp.cli import main, root_relaxation_bound
from spectralqp.problem import emit_json, parse_json, validate


def write_instance(tmp_path, name, **kwargs):
    prob = validate(**kwargs)
    path = tmp_path / f"{name}.json"
    path.write_text(emit_json(prob), encoding="utf-8")
    return path


def binary_kwargs(Q, **extra):
    n = len(Q)
    base = dict(
        n=n,
        Q=np.asarray(Q, dtype=float),
        q=np.zeros(n),
        lb=np.zeros(n),
        ub=np.ones(n),
        integers=tuple(range(n)),
    )
    base.update(extra)
    return base


WORKED = dict(
    n=2,
    Q=np.diag([1.0, -1.0]),
    q=np.zeros(2),
    A=np.array([[0.0, 1.0]]),
    b=np.array([0.0]),
    lb=np.array([-1.0, -1.0]),
    ub=np.array([1.0, 1.0]),
)


# ------------------------------------------------------------------- solve


def test_solve_reports_optimum(tmp_path, capsys):
    path = write_instance(tmp_path, "inst", **binary_kwargs([[2.0, -3.0], [-3.0, 2.0]]))
    code = main(["solve", str(path), "--relax", "eig", "--branch", "approx"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "optimal"
    assert report["objective"] == pytest.approx(-2.0, abs=1e-6)
    assert report["x"] == [1.0, 1.0]
    assert report["nodes"] >= 1
    assert report["stats"]["qp_iterations"] > 0
    assert report["stats"]["lp_iterations"] >= 0
    assert report["stats"]["reduced_cost_fixings"] >= 0


def test_solve_missing_file_exits_1(capsys):
    code = main(["solve", "/nonexistent/inst.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_bad_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["solve", str(path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 2, "Q": 5, "l": [0, 0], "u": [1, 1]}',
        '{"n": 2, "Q": [[1, 2, 1.0]], "l": [0, 0], "u": [1, 1], "integers": "ab"}',
        '{"n": 2, "Q": [[1, 2, 1.0]], "l": {"a": 1}, "u": [1, 1]}',
    ],
)
def test_solve_wrongly_typed_field_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "typed.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_solve_short_qplib_entry_exits_1(tmp_path, capsys):
    path = tmp_path / "short.qplib"
    path.write_text("SHORT\nQCN\nminimize\n1\n1\n1 1\n0.0\n0\n0.0\n1.0E+20\n0.0\n0\n1.0\n0\n",
                    encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "Q0 entry" in err


def test_solve_rejects_separable(tmp_path, capsys):
    path = write_instance(tmp_path, "inst", **binary_kwargs([[0.0, 1.0], [1.0, 0.0]]))
    code = main(["solve", str(path), "--relax", "separable"])
    assert code == 1
    assert "separable" in capsys.readouterr().err


def test_solve_infeasible_exits_3(tmp_path, capsys):
    kwargs = binary_kwargs(
        np.eye(2), A=np.array([[1.0, 1.0]]), b=np.array([5.0])
    )
    path = write_instance(tmp_path, "bad", **kwargs)
    code = main(["solve", str(path)])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


def test_solve_node_limit_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(2)
    M = rng.normal(size=(8, 8))
    path = write_instance(tmp_path, "hard", **binary_kwargs((M + M.T) / 2))
    code = main(["solve", str(path), "--relax", "eig", "--node-limit", "1"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["status"] == "node_limit"


def test_usage_errors_exit_1(tmp_path, capsys):
    # argparse's own code 2 would read as EXIT_LIMIT
    assert main(["solve", "x.json", "--node-limit", "abc"]) == 1
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    path = write_instance(tmp_path, "inst", **binary_kwargs([[2.0, -3.0], [-3.0, 2.0]]))
    assert main(["solve", str(path), "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    # NaN passes every deadline test, so each relaxation solve would stop at once
    assert main(["solve", str(path), "--time-limit", "nan"]) == 1
    assert "time_limit must be nonnegative" in capsys.readouterr().err
    assert main(["solve", str(path), "--rel-tol", "nan"]) == 1
    assert "tolerances must be positive" in capsys.readouterr().err


def test_solve_writes_trace(tmp_path, capsys):
    path = write_instance(tmp_path, "inst", **binary_kwargs([[2.0, -3.0], [-3.0, 2.0]]))
    trace_path = tmp_path / "trace.jsonl"
    code = main(["solve", str(path), "--trace", str(trace_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    lines = trace_path.read_text().splitlines()
    assert len(lines) == report["nodes"]
    rec = json.loads(lines[0])
    assert {"id", "depth", "bound", "relaxation", "branch_variable", "action"} <= set(rec)


def test_solve_json_nulls_infinities(tmp_path, capsys):
    kwargs = binary_kwargs(np.eye(2), A=np.array([[1.0, 1.0]]), b=np.array([5.0]))
    path = write_instance(tmp_path, "bad", **kwargs)
    main(["solve", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert report["objective"] is None          # +inf upper bound
    assert report["x"] is None


# ----------------------------------------------------------------- root-gaps


def test_root_gaps_worked_instance(tmp_path, capsys):
    write_instance(tmp_path, "worked", **WORKED)
    code = main(["root-gaps", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(meta) == 1 and "worked" in meta[0]
    assert data[0] == "instance,relaxation,bound,gap_percent,time_ms"
    rows = {ln.split(",")[1]: ln.split(",") for ln in data[1:]}
    assert set(rows) == {"EIG", "GEIG", "EIGZ", "MCCORMICK", "SEPARABLE"}
    assert float(rows["EIG"][2]) == pytest.approx(-2.0, abs=1e-6)
    assert float(rows["GEIG"][2]) == pytest.approx(-1.0, abs=1e-6)
    assert -2e-4 - 1e-6 <= float(rows["EIGZ"][2]) <= 1e-6
    # gap ordering follows the bound ordering on this instance
    gaps = {k: float(v[3]) for k, v in rows.items() if v[3]}
    assert gaps["EIG"] >= gaps["GEIG"] >= gaps["EIGZ"]


def test_root_gaps_row_count_and_determinism(tmp_path, capsys):
    rng = np.random.default_rng(4)
    for seed in range(2):
        M = rng.normal(size=(4, 4))
        write_instance(tmp_path, f"r{seed}", **binary_kwargs((M + M.T) / 2))
    out1_path, out2_path = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["root-gaps", str(tmp_path), "--out", str(out1_path)]) == 0
    assert main(["root-gaps", str(tmp_path), "--out", str(out2_path)]) == 0
    strip = lambda text: [
        ",".join(ln.split(",")[:4]) for ln in text.strip().splitlines()
    ]
    t1, t2 = out1_path.read_text(), out2_path.read_text()
    assert strip(t1) == strip(t2)       # identical modulo the timing column
    data = [ln for ln in t1.strip().splitlines() if not ln.startswith("#")]
    assert len(data) == 1 + 2 * 5       # header + instances x relaxations


def test_root_gaps_empty_dir_errors(tmp_path, capsys):
    code = main(["root-gaps", str(tmp_path)])
    assert code == 1


def test_root_relaxation_bound_orders_worked():
    prob = validate(**WORKED)
    b_eig = root_relaxation_bound(prob, "eig")
    b_geig = root_relaxation_bound(prob, "geig")
    b_eigz = root_relaxation_bound(prob, "eigz")
    assert b_eig == pytest.approx(-2.0, abs=1e-6)
    assert b_geig == pytest.approx(-1.0, abs=1e-6)
    assert b_eig <= b_geig <= b_eigz + 1e-9


# -------------------------------------------------------------- branch-study


def test_branch_study_schema_and_range(tmp_path):
    out = tmp_path / "study.csv"
    code = main(
        ["branch-study", "--n", "10", "--samples", "25", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample,rule,gap_percent"
    data = lines[1:-2]
    medians = lines[-2:]
    assert len(data) == 25 * 2
    for ln in data:
        sample, rule, gap = ln.split(",")
        assert rule in ("approx", "gct")
        assert 0.0 <= float(gap) <= 100.0
    assert medians[0].startswith("median,approx,")
    assert medians[1].startswith("median,gct,")


def test_branch_study_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["branch-study", "--n", "8", "--samples", "10", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_branch_study_rejects_tiny_n(capsys):
    assert main(["branch-study", "--n", "2", "--samples", "1"]) == 1


# ---------------------------------------------------------------------- gen


def test_gen_writes_named_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    code = main(
        [
            "gen", "cbqp", "--n", "6", "--density", "0.5", "--k", "2",
            "--count", "2", "--seed", "5", "--out", str(out),
        ]
    )
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["cbqp_n6_d0.5_s5.json", "cbqp_n6_d0.5_s6.json"]
    prob = parse_json((out / names[0]).read_text())
    assert prob.n == 6
    assert prob.is_pure_binary()
    assert float(prob.b[0]) == 2.0


def test_gen_regeneration_identical_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    args = ["gen", "boxqp", "--n", "5", "--density", "1", "--count", "3", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_invalid_spec_errors(tmp_path, capsys):
    code = main(["gen", "cbqp", "--n", "5", "--k", "6", "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------- entry point


def test_module_entry_point(tmp_path):
    path = write_instance(tmp_path, "inst", **binary_kwargs([[2.0, -3.0], [-3.0, 2.0]]))
    proc = subprocess.run(
        [sys.executable, "-m", "spectralqp.cli", "solve", str(path), "--relax", "eig"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "optimal"
