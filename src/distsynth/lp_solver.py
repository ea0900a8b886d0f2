"""Deterministic linear-program interface used by the synthesizer and verifier.

Problems are carried as a cost vector, sparse inequality/equality blocks and
per-variable bounds.  Solving is delegated to scipy's HiGHS backend, which is
deterministic for a fixed input; outcomes carry the status, primal solution,
scaled feasibility residual and a dual objective for weak-duality checks.
A line-oriented textual dump (LP interchange format) is provided for
cross-checking individual programs with external tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"
FAILED = "failed"

_STATUS_MAP = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: FAILED}

_MAX_ITER = 1_000_000

# tight feasibility keeps certificate margins within the 1e-8 contract
PRIMAL_TOL = 1e-9
_TOLERANCES = {
    "primal_feasibility_tolerance": PRIMAL_TOL,
    "dual_feasibility_tolerance": 1e-9,
}
_OPTIONS_PRESOLVE = {"maxiter": _MAX_ITER, "presolve": True, **_TOLERANCES}
_OPTIONS_DIRECT = {"maxiter": _MAX_ITER, "presolve": False, **_TOLERANCES}


@dataclass(frozen=True)
class LpProblem:
    """min c@x  s.t.  a_ub@x <= b_ub,  a_eq@x = b_eq,  lb <= x <= ub."""

    c: np.ndarray
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ValueError("cost vector must be finite")
        object.__setattr__(self, "c", c)
        n = c.size
        for name in ("a_ub", "a_eq"):
            mat = getattr(self, name)
            if mat is not None:
                mat = sp.csr_matrix(mat)
                if mat.shape[1] != n:
                    raise ValueError(f"{name} has {mat.shape[1]} columns, expected {n}")
                object.__setattr__(self, name, mat)
        for mname, vname in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
            mat, vec = getattr(self, mname), getattr(self, vname)
            if (mat is None) != (vec is None):
                raise ValueError(f"{mname} and {vname} must be given together")
            if vec is not None:
                vec = np.asarray(vec, dtype=float)
                if vec.size != mat.shape[0]:
                    raise ValueError(f"{vname} length mismatch")
                object.__setattr__(self, vname, vec)
        lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if lb.size != n or ub.size != n:
            raise ValueError("bound length mismatch")
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpOutcome:
    status: str
    x: np.ndarray | None
    objective: float | None
    dual_objective: float | None
    residual: float | None
    ineq_marginals: np.ndarray | None
    eq_marginals: np.ndarray | None
    message: str = ""

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _scaled_residual(p: LpProblem, x: np.ndarray) -> float:
    worst = 0.0
    if p.a_ub is not None:
        viol = p.a_ub @ x - p.b_ub
        scale = np.maximum(1.0, np.abs(p.a_ub).max(axis=1).toarray().ravel())
        worst = max(worst, float(np.max(viol / scale, initial=0.0)))
    if p.a_eq is not None:
        viol = np.abs(p.a_eq @ x - p.b_eq)
        scale = np.maximum(1.0, np.abs(p.a_eq).max(axis=1).toarray().ravel())
        worst = max(worst, float(np.max(viol / scale, initial=0.0)))
    worst = max(worst, float(np.max(p.lb - x, initial=0.0)))
    worst = max(worst, float(np.max(x - p.ub, initial=0.0)))
    return worst


def _dual_objective(p: LpProblem, res) -> float:
    total = 0.0
    if p.b_ub is not None:
        total += float(p.b_ub @ res.ineqlin.marginals)
    if p.b_eq is not None:
        total += float(p.b_eq @ res.eqlin.marginals)
    finite_lb = np.isfinite(p.lb)
    finite_ub = np.isfinite(p.ub)
    total += float(p.lb[finite_lb] @ res.lower.marginals[finite_lb])
    total += float(p.ub[finite_ub] @ res.upper.marginals[finite_ub])
    return total


def solve_lp(problem: LpProblem) -> LpOutcome:
    """Solve an LP; all failure modes are reported via the status field.

    The occasional presolve misreport of the HiGHS backend is retried once
    without presolve; the retry is triggered by the first result alone, so
    outcomes stay deterministic.
    """
    bounds = list(zip(problem.lb, problem.ub))
    res = linprog(
        problem.c,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=bounds,
        method="highs",
        options=_OPTIONS_PRESOLVE,
    )
    if res.status == 4:
        res = linprog(
            problem.c,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=bounds,
            method="highs",
            options=_OPTIONS_DIRECT,
        )
    status = _STATUS_MAP.get(res.status, FAILED)
    if status != OPTIMAL:
        return LpOutcome(status, None, None, None, None, None, None, res.message)
    x = np.asarray(res.x, dtype=float)
    return LpOutcome(
        status=OPTIMAL,
        x=x,
        objective=float(res.fun),
        dual_objective=_dual_objective(problem, res),
        residual=_scaled_residual(problem, x),
        ineq_marginals=None if problem.a_ub is None else np.asarray(res.ineqlin.marginals),
        eq_marginals=None if problem.a_eq is None else np.asarray(res.eqlin.marginals),
        message=res.message,
    )


def _term(coef: float, j: int) -> str:
    coef = float(coef)
    return f"{'+' if coef >= 0 else '-'} {abs(coef)!r} x{j} "


def _row_text(mat: sp.csr_matrix, i: int) -> str:
    start, end = mat.indptr[i], mat.indptr[i + 1]
    cols, vals = mat.indices[start:end], mat.data[start:end]
    if len(cols) == 0:
        return "+ 0 x0 "
    return "".join(_term(v, j) for j, v in zip(cols, vals))


def write_lp(problem: LpProblem, path) -> None:
    """Write a deterministic LP-format dump of the problem to ``path``."""
    lines = ["Minimize", " obj: " + "".join(_term(c, j) for j, c in enumerate(problem.c) if c != 0.0)]
    if lines[1] == " obj: ":
        lines[1] = " obj: + 0 x0 "
    lines.append("Subject To")
    if problem.a_ub is not None:
        for i in range(problem.a_ub.shape[0]):
            lines.append(f" r{i}: {_row_text(problem.a_ub, i)}<= {float(problem.b_ub[i])!r}")
    if problem.a_eq is not None:
        for i in range(problem.a_eq.shape[0]):
            lines.append(f" e{i}: {_row_text(problem.a_eq, i)}= {float(problem.b_eq[i])!r}")
    lines.append("Bounds")
    for j in range(problem.n_vars):
        lo, hi = float(problem.lb[j]), float(problem.ub[j])
        if np.isinf(lo) and np.isinf(hi):
            lines.append(f" x{j} free")
        elif np.isinf(hi):
            lines.append(f" x{j} >= {lo!r}")
        elif np.isinf(lo):
            lines.append(f" x{j} <= {hi!r}")
        else:
            lines.append(f" {lo!r} <= x{j} <= {hi!r}")
    lines.append("End")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
