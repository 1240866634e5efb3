"""MIQP instance data: validation, objective/feasibility checks, file formats,
and reproducible random instance families.

The canonical form is

    min  x'Qx + q'x
    s.t. A x = b,  C x <= d,  l <= x <= u,  x_i integer for i in `integers`,

with Q symmetric (symmetrized here if not) and all box bounds finite.  Note
the quadratic carries no 1/2 factor; formats that use one (QPLIB) are
converted on ingestion.  All in-memory indices are 0-based; file-level
indices are 1-based.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_WARN_TOL = 1e-12
FEAS_TOL = 1e-8        # check_feasibility: row and bound violations
INT_TOL = 1e-6         # check_feasibility: integrality deviation


class ProblemFormatError(ValueError):
    """Malformed instance document or schema violation."""


@dataclass(frozen=True)
class ProblemInstance:
    """A validated MIQP instance in canonical minimization form."""

    n: int
    Q: np.ndarray          # (n, n) symmetric
    q: np.ndarray          # (n,)
    A: np.ndarray          # (m, n) equality lhs
    b: np.ndarray          # (m,)
    C: np.ndarray          # (p, n) inequality lhs, C x <= d
    d: np.ndarray          # (p,)
    lb: np.ndarray         # (n,) finite
    ub: np.ndarray         # (n,) finite, lb < ub
    integers: frozenset = frozenset()   # 0-based indices required integral
    name: str = ""

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def is_pure_binary(self) -> bool:
        """All variables integral with bounds exactly [0, 1]."""
        return (
            len(self.integers) == self.n
            and np.all(self.lb == 0.0)
            and np.all(self.ub == 1.0)
        )


@dataclass(frozen=True)
class FeasibilityReport:
    eq_residual: float
    ineq_violation: float
    bound_violation: float
    integrality_deviation: float
    feasible: bool


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random instance; (spec, seed) fixes the instance exactly."""

    family: str                       # 'cbqp' | 'boxqp' | 'eiqp'
    n: int
    density: float = 0.5              # probability an off-diagonal pair of Q is nonzero
    coeff_range: tuple = (-10.0, 10.0)
    k: int | None = None              # cardinality rhs (cbqp)
    m: int = 0                        # equality row count (eiqp)
    seed: int = 0
    int_bound: int = 5                # upper bound of integer variables (eiqp)


def _as_floats(a, what: str) -> np.ndarray:
    """Coerce to a float array, raising ProblemFormatError on anything that
    is not a (nested) list of numbers."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{what} must be numeric, got {a!r:.60}") from exc


def _as_rows(a, cols: int, what: str) -> np.ndarray:
    """Coerce to a (k, cols) float matrix; None or empty input gives k = 0."""
    if a is None:
        return np.zeros((0, cols))
    out = _as_floats(a, what)
    if out.size == 0:
        return np.zeros((0, cols))
    if out.ndim != 2 or out.shape[1] != cols:
        raise ProblemFormatError(f"{what} must have {cols} columns, got shape {out.shape}")
    return out


def _as_vector(a, size, what: str) -> np.ndarray:
    out = _as_floats(a, what).reshape(-1)
    if out.shape != (size,):
        raise ProblemFormatError(f"{what} must have length {size}, got {out.shape[0]}")
    return out


def validate(
    n: int,
    Q,
    q,
    A=None,
    b=None,
    C=None,
    d=None,
    lb=None,
    ub=None,
    integers=(),
    name: str = "",
) -> ProblemInstance:
    """Normalize raw arrays into a ProblemInstance, enforcing every shape and
    bound rule.  Q is symmetrized, with a warning when the asymmetry exceeds
    SYMMETRY_WARN_TOL.  Raises ProblemFormatError on any violation."""
    if n <= 0:
        raise ProblemFormatError(f"need at least one variable, got n={n}")
    Q = _as_floats(Q, "Q")
    if Q.shape != (n, n):
        raise ProblemFormatError(f"Q must be ({n}, {n}), got {Q.shape}")
    if not np.all(np.isfinite(Q)):
        raise ProblemFormatError("Q contains non-finite entries")
    asym = float(np.max(np.abs(Q - Q.T))) if n > 1 else 0.0
    if asym > SYMMETRY_WARN_TOL:
        warnings.warn(
            f"asymmetric Q symmetrized (max deviation {asym:.3e})", stacklevel=2
        )
    Q = 0.5 * (Q + Q.T)

    q = _as_vector(q if q is not None else np.zeros(n), n, "q")
    if not np.all(np.isfinite(q)):
        raise ProblemFormatError("q contains non-finite entries")

    A = _as_rows(A, n, "A")
    b = _as_vector(b if b is not None else np.zeros(A.shape[0]), A.shape[0], "b")
    C = _as_rows(C, n, "C")
    d = _as_vector(d if d is not None else np.zeros(C.shape[0]), C.shape[0], "d")
    for mat, vec, what in ((A, b, "A/b"), (C, d, "C/d")):
        if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(vec))):
            raise ProblemFormatError(f"{what} contains non-finite entries")

    if lb is None or ub is None:
        raise ProblemFormatError("finite bounds l and u are required")
    lb = _as_vector(lb, n, "l")
    ub = _as_vector(ub, n, "u")
    for name_, vec in (("l", lb), ("u", ub)):
        bad = np.where(~np.isfinite(vec))[0]
        if bad.size:
            raise ProblemFormatError(
                f"non-finite bound at index {bad[0] + 1} in {name_}"
            )
    bad = np.where(lb >= ub)[0]
    if bad.size:
        raise ProblemFormatError(
            f"l[{bad[0] + 1}] >= u[{bad[0] + 1}] ({lb[bad[0]]} >= {ub[bad[0]]})"
        )

    try:
        integers = frozenset(int(i) for i in integers)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"integer indices must be integers, got {integers!r:.60}") from exc
    if integers and (min(integers) < 0 or max(integers) >= n):
        raise ProblemFormatError("integer index out of range")

    for arr in (Q, q, A, b, C, d, lb, ub):
        arr.flags.writeable = False
    return ProblemInstance(
        n=n, Q=Q, q=q, A=A, b=b, C=C, d=d, lb=lb, ub=ub,
        integers=integers, name=name,
    )


def evaluate_objective(problem: ProblemInstance, x) -> float:
    """x'Qx + q'x, exactly as written (no 1/2 convention)."""
    x = np.asarray(x, dtype=float)
    return float(x @ problem.Q @ x + problem.q @ x)


def check_feasibility(problem: ProblemInstance, x) -> FeasibilityReport:
    """Residual report for a candidate point.  `feasible` holds iff the
    equality residual, inequality violation and bound violation are all
    within FEAS_TOL and the integrality deviation is within INT_TOL."""
    x = np.asarray(x, dtype=float)
    eq = float(np.max(np.abs(problem.A @ x - problem.b))) if problem.m else 0.0
    ineq = float(np.max(problem.C @ x - problem.d)) if problem.p else 0.0
    ineq = max(ineq, 0.0)
    bound = float(np.max(np.maximum(problem.lb - x, x - problem.ub)))
    bound = max(bound, 0.0)
    if problem.integers:
        idx = sorted(problem.integers)
        xi = x[idx]
        integ = float(np.max(np.abs(xi - np.round(xi))))
    else:
        integ = 0.0
    feasible = eq <= FEAS_TOL and ineq <= FEAS_TOL and bound <= FEAS_TOL and integ <= INT_TOL
    return FeasibilityReport(eq, ineq, bound, integ, feasible)


# ---------------------------------------------------------------------------
# JSON format
#
# {"n": int, "Q": [[i, j, v], ...], "q": [...], "A": [[...], ...], "b": [...],
#  "C": [[...], ...], "d": [...], "l": [...], "u": [...], "integers": [...]}
#
# Q is given as sparse upper-triangle triplets with 1-based indices i <= j and
# v the materialized entry Q[i][j] (= Q[j][i]).  Duplicate (i, j) pairs are an
# error.  A/b, C/d and integers are optional.
# ---------------------------------------------------------------------------

def parse_json(text: str, name: str = "") -> ProblemInstance:
    """Parse the JSON instance document described above."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("top-level JSON value must be an object")
    for key in ("n", "Q", "l", "u"):
        if key not in doc:
            raise ProblemFormatError(f"missing required key {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or n <= 0:
        raise ProblemFormatError(f"n must be a positive integer, got {n!r}")
    if not isinstance(doc["Q"], list):
        raise ProblemFormatError(f"Q must be a list of [i, j, v] triplets, got {doc['Q']!r:.60}")
    Q = np.zeros((n, n))
    seen = set()
    for entry in doc["Q"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ProblemFormatError(f"Q entries must be [i, j, v] triplets, got {entry!r}")
        i, j, v = entry
        if not (isinstance(i, int) and isinstance(j, int)):
            raise ProblemFormatError(f"Q indices must be integers, got {entry!r}")
        if not isinstance(v, (int, float)):
            raise ProblemFormatError(f"Q values must be numbers, got {entry!r}")
        if not (1 <= i <= j <= n):
            raise ProblemFormatError(
                f"Q entry ({i}, {j}) violates 1 <= i <= j <= {n}"
            )
        if (i, j) in seen:
            raise ProblemFormatError(f"duplicate Q entry ({i}, {j})")
        seen.add((i, j))
        Q[i - 1, j - 1] = v
        Q[j - 1, i - 1] = v
    integers = doc.get("integers", [])
    if not isinstance(integers, list) or any(
        not isinstance(i, int) or not (1 <= i <= n) for i in integers
    ):
        raise ProblemFormatError("integers must be a list of 1-based variable indices")
    return validate(
        n=n,
        Q=Q,
        q=doc.get("q"),
        A=doc.get("A"),
        b=doc.get("b"),
        C=doc.get("C"),
        d=doc.get("d"),
        lb=doc["l"],
        ub=doc["u"],
        integers=[i - 1 for i in integers],
        name=name,
    )


def emit_json(problem: ProblemInstance) -> str:
    """Serialize to the JSON document format; parse_json(emit_json(p)) is an
    identity on validated instances."""
    triplets = []
    for i in range(problem.n):
        for j in range(i, problem.n):
            v = problem.Q[i, j]
            if v != 0.0:
                triplets.append([i + 1, j + 1, float(v)])
    doc = {
        "n": problem.n,
        "Q": triplets,
        "q": [float(v) for v in problem.q],
        "l": [float(v) for v in problem.lb],
        "u": [float(v) for v in problem.ub],
    }
    if problem.m:
        doc["A"] = [[float(v) for v in row] for row in problem.A]
        doc["b"] = [float(v) for v in problem.b]
    if problem.p:
        doc["C"] = [[float(v) for v in row] for row in problem.C]
        doc["d"] = [float(v) for v in problem.d]
    if problem.integers:
        doc["integers"] = [i + 1 for i in sorted(problem.integers)]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# QPLIB subset reader
#
# Supported classes: quadratic objective (first type char D/C/Q), variables
# C/B/M/I/G, constraints N/B (none) or L (linear).  Quadratic constraints are
# rejected.  QPLIB's objective is (1/2) x'Q0 x + b0'x, so internally
# Q = Q0 / 2.  Constraint rows with cl == cu become one equality row; each
# finite side otherwise becomes one <= row.  Objective constants are dropped
# with a warning (the canonical form has none); `maximize` is converted by
# negating the objective.
# ---------------------------------------------------------------------------

class _Lines:
    def __init__(self, text: str):
        self._rows = []
        for raw in text.splitlines():
            s = raw.strip()
            if not s or s.startswith("!") or s.startswith("#"):
                continue
            self._rows.append(s.split())
        self._pos = 0

    def next(self, what: str):
        if self._pos >= len(self._rows):
            raise ProblemFormatError(f"unexpected end of file while reading {what}")
        row = self._rows[self._pos]
        self._pos += 1
        return row

    def next_int(self, what: str) -> int:
        tok = self.next(what)[0]
        try:
            return int(tok)
        except ValueError as exc:
            raise ProblemFormatError(f"expected integer for {what}, got {tok!r}") from exc

    def next_float(self, what: str) -> float:
        tok = self.next(what)[0]
        try:
            return float(tok)
        except ValueError as exc:
            raise ProblemFormatError(f"expected number for {what}, got {tok!r}") from exc

    def next_entry(self, what: str, sizes: tuple, value=float) -> tuple:
        """One entry line of section `what`: a 1-based index in 1..size for
        each of `sizes`, then a value parsed by `value`.  Returns the 0-based
        indices followed by the value."""
        row = self.next(f"{what} entry")
        k = len(sizes)
        text = " ".join(row)
        if len(row) < k + 1:
            raise ProblemFormatError(f"{what} entry {text!r} needs {k + 1} fields")
        try:
            idx = [int(tok) for tok in row[:k]]
            val = value(row[k])
        except ValueError as exc:
            raise ProblemFormatError(f"{what} entry {text!r} is not numeric") from exc
        for i, size in zip(idx, sizes):
            if not 1 <= i <= size:
                raise ProblemFormatError(f"{what} entry {text!r}: index {i} out of range 1..{size}")
        return (*(i - 1 for i in idx), val)


def _read_sparse_vector(lines: _Lines, size: int, what: str) -> np.ndarray:
    default = lines.next_float(f"{what} default")
    out = np.full(size, default)
    for _ in range(lines.next_int(f"{what} non-default count")):
        i, v = lines.next_entry(what, (size,))
        out[i] = v
    return out


def parse_qplib(text: str, name: str = "") -> ProblemInstance:
    """Parse a QPLIB-format instance from the linear-constraint QP/MIQP subset."""
    lines = _Lines(text)
    fname = lines.next("problem name")[0]
    ptype = lines.next("problem type")[0].upper()
    if len(ptype) != 3:
        raise ProblemFormatError(f"problem type must be 3 characters, got {ptype!r}")
    obj_c, var_c, con_c = ptype
    if obj_c not in "DCQ":
        raise ProblemFormatError(f"unsupported objective class {obj_c!r} (need quadratic)")
    if var_c not in "CBMIG":
        raise ProblemFormatError(f"unsupported variable class {var_c!r}")
    if con_c not in "NBL":
        raise ProblemFormatError(
            f"unsupported constraint class {con_c!r} (quadratic constraints not handled)"
        )
    sense = lines.next("objective sense")[0].lower()
    if sense not in ("minimize", "maximize"):
        raise ProblemFormatError(f"unknown objective sense {sense!r}")
    sign = 1.0 if sense == "minimize" else -1.0

    n = lines.next_int("variable count")
    if n <= 0:
        raise ProblemFormatError(f"variable count must be positive, got {n}")
    m_rows = lines.next_int("constraint count") if con_c == "L" else 0

    Q0 = np.zeros((n, n))
    for _ in range(lines.next_int("Q0 nonzero count")):
        i, j, v = lines.next_entry("Q0", (n, n))
        Q0[i, j] += v
        if i != j:
            Q0[j, i] += v
    b0 = _read_sparse_vector(lines, n, "b0")
    q0 = lines.next_float("objective constant")
    if q0 != 0.0:
        warnings.warn(
            f"dropping objective constant {q0} (canonical form has none)",
            stacklevel=2,
        )

    A_full = np.zeros((m_rows, n))
    if con_c == "L":
        for _ in range(lines.next_int("constraint nonzero count")):
            i, j, v = lines.next_entry("constraint", (m_rows, n))
            A_full[i, j] = v

    infinity = lines.next_float("infinity value")

    if con_c == "L":
        cl = _read_sparse_vector(lines, m_rows, "cl")
        cu = _read_sparse_vector(lines, m_rows, "cu")
    else:
        cl = cu = np.zeros(0)

    if var_c == "B":
        lb = np.zeros(n)
        ub = np.ones(n)
    else:
        lb = _read_sparse_vector(lines, n, "l")
        ub = _read_sparse_vector(lines, n, "u")
        bad = np.where((np.abs(lb) >= infinity) | (np.abs(ub) >= infinity))[0]
        if bad.size:
            raise ProblemFormatError(f"infinite variable bound at index {bad[0] + 1}")

    if var_c in ("C",):
        integers: list[int] = []
    elif var_c in ("B", "I"):
        integers = list(range(n))
    else:  # M or G: explicit variable-type section, 1 marks integral
        tdefault = lines.next_int("variable type default")
        types = np.full(n, tdefault)
        for _ in range(lines.next_int("variable type non-default count")):
            i, t = lines.next_entry("variable type", (n,), int)
            types[i] = t
        integers = [i for i in range(n) if types[i] != 0]

    eq_rows, eq_rhs, ineq_rows, ineq_rhs = [], [], [], []
    for r in range(m_rows):
        lo, hi = cl[r], cu[r]
        if lo > hi:
            raise ProblemFormatError(f"constraint {r + 1} has cl > cu")
        if lo == hi:
            eq_rows.append(A_full[r])
            eq_rhs.append(lo)
            continue
        if hi < infinity:
            ineq_rows.append(A_full[r])
            ineq_rhs.append(hi)
        if lo > -infinity:
            ineq_rows.append(-A_full[r])
            ineq_rhs.append(-lo)

    return validate(
        n=n,
        Q=sign * 0.5 * Q0,
        q=sign * b0,
        A=np.array(eq_rows) if eq_rows else None,
        b=np.array(eq_rhs) if eq_rhs else None,
        C=np.array(ineq_rows) if ineq_rows else None,
        d=np.array(ineq_rhs) if ineq_rhs else None,
        lb=lb,
        ub=ub,
        integers=integers,
        name=name or fname,
    )


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------

def _random_symmetric(rng: np.random.Generator, n: int, density: float, lo: float, hi: float) -> np.ndarray:
    """Symmetric Q: dense uniform diagonal, each off-diagonal pair nonzero
    with probability `density`, uniform values in [lo, hi]."""
    Q = np.zeros((n, n))
    np.fill_diagonal(Q, rng.uniform(lo, hi, size=n))
    iu, ju = np.triu_indices(n, k=1)
    if iu.size:
        vals = rng.uniform(lo, hi, size=iu.size)
        keep = rng.random(iu.size) < density
        vals = vals * keep
        Q[iu, ju] = vals
        Q[ju, iu] = vals
    return Q


def generate_random(spec: GeneratorSpec) -> ProblemInstance:
    """Draw one instance of the requested family.  The same (spec, seed)
    always reproduces the identical instance."""
    if spec.n <= 0:
        raise ProblemFormatError(f"n must be positive, got {spec.n}")
    if not (0.0 <= spec.density <= 1.0):
        raise ProblemFormatError(f"density must lie in [0, 1], got {spec.density}")
    lo, hi = spec.coeff_range
    if not lo < hi:
        raise ProblemFormatError(f"empty coefficient range {spec.coeff_range}")
    rng = np.random.default_rng(spec.seed)
    family = spec.family.lower()
    tag = f"{family}_n{spec.n}_d{spec.density:g}_s{spec.seed}"

    if family == "cbqp":
        if spec.k is None or not (0 < spec.k < spec.n):
            raise ProblemFormatError(
                f"cbqp needs a cardinality 0 < k < n, got k={spec.k}"
            )
        Q = _random_symmetric(rng, spec.n, spec.density, lo, hi)
        return validate(
            n=spec.n,
            Q=Q,
            q=np.zeros(spec.n),
            A=np.ones((1, spec.n)),
            b=[float(spec.k)],
            lb=np.zeros(spec.n),
            ub=np.ones(spec.n),
            integers=range(spec.n),
            name=tag,
        )

    if family == "boxqp":
        Q = _random_symmetric(rng, spec.n, spec.density, lo, hi)
        q = rng.uniform(lo, hi, size=spec.n)
        return validate(
            n=spec.n,
            Q=Q,
            q=q,
            lb=np.zeros(spec.n),
            ub=np.ones(spec.n),
            name=tag,
        )

    if family == "eiqp":
        if spec.m <= 0:
            raise ProblemFormatError(f"eiqp needs m >= 1 equality rows, got {spec.m}")
        Q = _random_symmetric(rng, spec.n, spec.density, lo, hi)
        q = rng.uniform(lo, hi, size=spec.n)
        x_star = rng.integers(0, spec.int_bound + 1, size=spec.n).astype(float)
        A = rng.integers(-3, 4, size=(spec.m, spec.n)).astype(float)
        b = A @ x_star
        return validate(
            n=spec.n,
            Q=Q,
            q=q,
            A=A,
            b=b,
            lb=np.zeros(spec.n),
            ub=np.full(spec.n, float(spec.int_bound)),
            integers=range(spec.n),
            name=tag,
        )

    raise ProblemFormatError(f"unknown family {spec.family!r}")
