"""Deterministic linear-program interface used by the synthesizer and verifier.

Problems are carried as a cost vector, sparse inequality/equality blocks and
per-variable bounds.  Solving goes straight to the HiGHS bindings that scipy
bundles, with the options ``scipy.optimize.linprog(method="highs")`` would
pass, so a cold solve returns what ``linprog`` returns, bit for bit, without
its front end.  HiGHS is deterministic for a fixed input; outcomes carry the
status, primal solution, scaled feasibility residual, a dual objective for
weak-duality checks and the final basis, from which a related program (same
matrix, other bounds) can start.  A line-oriented textual dump (LP
interchange format) is provided for cross-checking individual programs with
external tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog  # noqa: F401  kept in this namespace; perfbench/tracer.py wraps lp_solver.linprog
from scipy.optimize._highspy import _core as _highs

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"
FAILED = "failed"

_MS = _highs.HighsModelStatus
# linprog's reading of the HiGHS model status; every other status is a failure
_STATUS_MAP = {
    _MS.kOptimal: OPTIMAL,
    _MS.kTimeLimit: ITERATION_LIMIT,
    _MS.kIterationLimit: ITERATION_LIMIT,
    _MS.kInfeasible: INFEASIBLE,
    _MS.kModelError: INFEASIBLE,
    _MS.kUnbounded: UNBOUNDED,
}

_MAX_ITER = 1_000_000

# tight feasibility keeps certificate margins within the 1e-8 contract
PRIMAL_TOL = 1e-9
# the verifier's residual contract; a warm start must meet it or is redone cold
RESIDUAL_TOL = 1e-8
# linprog's check of an "optimal" answer: sqrt(1e-9) * 10, unscaled
_LINPROG_FEAS_TOL = float(np.sqrt(1e-9) * 10)
_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "simplex_strategy": _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
    "simplex_iteration_limit": _MAX_ITER,
    "ipm_iteration_limit": _MAX_ITER,
    "primal_feasibility_tolerance": PRIMAL_TOL,
    "dual_feasibility_tolerance": 1e-9,
}


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
    # HiGHS's final basis; pass it as ``solve_lp(..., basis=)`` to start a
    # program with the same matrix from it
    basis: _highs.HighsBasis | None = None

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


def _rhs(p: LpProblem) -> tuple[np.ndarray, np.ndarray]:
    b_ub = p.b_ub if p.b_ub is not None else np.zeros(0)
    b_eq = p.b_eq if p.b_eq is not None else np.zeros(0)
    return b_ub, b_eq


def _highs_lp(p: LpProblem) -> _highs.HighsLp:
    """The program as HiGHS's ``lhs <= A x <= rhs`` with A stacked [a_ub; a_eq]
    column-wise, exactly as linprog hands it over (HiGHS's infinity is inf)."""
    n = p.n_vars
    b_ub, b_eq = _rhs(p)
    blocks = [m if m is not None else sp.csr_matrix((0, n)) for m in (p.a_ub, p.a_eq)]
    a = sp.csc_array(sp.vstack(blocks))
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    lp.col_cost_ = p.c
    lp.col_lower_ = p.lb
    lp.col_upper_ = p.ub
    lp.row_lower_ = np.concatenate((np.full(b_ub.size, -np.inf), b_eq))
    lp.row_upper_ = np.concatenate((b_ub, b_eq))
    return lp


def _run(lp: _highs.HighsLp, presolve: bool, basis: _highs.HighsBasis | None = None) -> _highs._Highs | None:
    """One HiGHS solve; None when the basis does not fit the program."""
    highs = _highs._Highs()
    for key, value in _OPTIONS.items():
        highs.setOptionValue(key, value)
    highs.setOptionValue("presolve", "on" if presolve else "off")
    highs.passModel(lp)
    if basis is not None and highs.setBasis(basis) != _highs.HighsStatus.kOk:
        return None
    highs.run()
    return highs


def _linprog_accepts(p: LpProblem, x: np.ndarray, rows: np.ndarray, objective: float) -> bool:
    """linprog's acceptance of an optimal answer: nothing NaN, and bounds,
    inequality rows and equality rows met to its unscaled tolerance."""
    tol = _LINPROG_FEAS_TOL
    b_ub, b_eq = _rhs(p)
    if np.isnan(objective) or np.isnan(x).any() or np.isnan(rows).any():
        return False
    return bool(
        np.all((x >= p.lb - tol) & (x <= p.ub + tol))
        and np.all(rows[: b_ub.size] - b_ub <= tol)
        and np.all(np.abs(rows[b_ub.size :] - b_eq) <= tol)
    )


def _outcome(p: LpProblem, highs: _highs._Highs) -> LpOutcome:
    model_status = highs.getModelStatus()
    status = _STATUS_MAP.get(model_status, FAILED)
    message = highs.modelStatusToString(model_status)
    if status != OPTIMAL:
        return LpOutcome(status, None, None, None, None, None, None, message)
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    objective = float(highs.getInfo().objective_function_value)
    if not _linprog_accepts(p, x, np.array(sol.row_value), objective):
        return LpOutcome(FAILED, None, None, None, None, None, None, "optimal answer violates the constraints")
    # bound marginals are the column duals of columns nonbasic at that bound
    basis = highs.getBasis()
    col_status = np.fromiter(map(int, basis.col_status), np.int8, p.n_vars)
    col_dual = np.array(sol.col_dual)
    lower = np.where(col_status == int(_highs.HighsBasisStatus.kLower), col_dual, 0.0)
    upper = np.where(col_status == int(_highs.HighsBasisStatus.kUpper), col_dual, 0.0)
    b_ub, b_eq = _rhs(p)
    row_dual = np.array(sol.row_dual)
    ineq, eq = row_dual[: b_ub.size], row_dual[b_ub.size :]
    finite_lb, finite_ub = np.isfinite(p.lb), np.isfinite(p.ub)
    dual = (
        float(b_ub @ ineq)
        + float(b_eq @ eq)
        + float(p.lb[finite_lb] @ lower[finite_lb])
        + float(p.ub[finite_ub] @ upper[finite_ub])
    )
    return LpOutcome(
        status=OPTIMAL,
        x=x,
        objective=objective,
        dual_objective=dual,
        residual=_scaled_residual(p, x),
        ineq_marginals=None if p.a_ub is None else ineq,
        eq_marginals=None if p.a_eq is None else eq,
        message=message,
        basis=basis,
    )


def solve_lp(problem: LpProblem, basis: _highs.HighsBasis | None = None) -> LpOutcome:
    """Solve an LP; all failure modes are reported via the status field.

    A cold solve runs HiGHS with presolve and, on a failure, once more
    without; the retry is triggered by the first result alone, so outcomes
    stay deterministic.  With ``basis`` (an earlier outcome's, for a program
    with the same matrix) HiGHS starts from it; a warm solve that does not end
    optimal with a scaled residual of at most ``RESIDUAL_TOL`` is discarded
    and the program solved cold, so a warm start never returns an answer the
    cold solve would not meet.
    """
    lp = _highs_lp(problem)
    if basis is not None:
        highs = _run(lp, presolve=False, basis=basis)
        if highs is not None:
            out = _outcome(problem, highs)
            if out.optimal and out.residual <= RESIDUAL_TOL:
                return out
    out = _outcome(problem, _run(lp, presolve=True))
    if out.status == FAILED:
        out = _outcome(problem, _run(lp, presolve=False))
    return out


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
