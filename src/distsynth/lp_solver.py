"""Deterministic linear-program interface used by the synthesizer and verifier.

Problems are carried as a cost vector, sparse inequality/equality blocks and
per-variable lower bounds; each ``LpProblem`` also stacks [a_ub; a_eq]
column-wise once, with its row bounds, as ``linprog`` would stack them.
Solving goes straight to the HiGHS bindings that scipy bundles: those arrays
reach HiGHS through the array overload of ``passModel``, with no element-wise
copy, under the options ``scipy.optimize.linprog(method="highs")`` would
pass, so an accepted cold dual-simplex answer is what ``linprog`` returns,
bit for bit, without its front end, unless the caller asks for primal simplex
(``primal=True``: the verifier's programs over a fixed W, whose optimal value
is unique and which it always solves cold; not the synthesis programs, where
the degenerate optimum HiGHS returns steers the alternation).  HiGHS is
deterministic for a fixed input; outcomes carry the status, primal solution,
scaled feasibility residual, dual objective, simplex iteration count and final
basis, from which a program of the same shape can start warm (the
synthesizer's P-steps and Q-steps do).  ``solve_lp`` checks every answer by one rule
(residual and duality gap) and walks one fallback ladder until an answer meets
it.  ``write_lp`` dumps a program in LP format for cross-checks elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog  # noqa: F401  perfbench/tracer.py wraps it; drop with ROADMAP item F
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
# the verifier's residual contract; every accepted answer meets it
RESIDUAL_TOL = 1e-8
# the gap contract: |objective - dual objective| <= GAP_TOL * max(1, |objective|)
GAP_TOL = 1e-7
# a cold rung ending in one of these ends the ladder; as with linprog, only a
# failed or rejected answer goes on to the next rung
_FINAL = (INFEASIBLE, UNBOUNDED, ITERATION_LIMIT)
_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "simplex_strategy": _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
    "simplex_iteration_limit": _MAX_ITER,
    "ipm_iteration_limit": _MAX_ITER,
    "primal_feasibility_tolerance": PRIMAL_TOL,
    "dual_feasibility_tolerance": 1e-9,
}
# warm starts price with Devex, which starts from unit edge weights; steepest
# edge (HiGHS's choice otherwise) computes exact weights for the given basis,
# which can cost more than the few iterations that follow
_DEVEX = _highs.simplex_constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex
_PRIMAL = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


class LpFailure(RuntimeError):
    """A program without an accepted answer; ``lp`` is that program, when known,
    so it can be written out (``write_lp``) and solved elsewhere."""

    def __init__(self, message: str, lp: "LpProblem | None" = None):
        super().__init__(message)
        self.lp = lp


@dataclass(frozen=True, eq=False)  # compared by identity: the blocks are sparse
class LpProblem:
    """min c@x  s.t.  a_ub@x <= b_ub,  a_eq@x = b_eq,  lb <= x; an absent
    block is stored as an empty 0 x n matrix with an empty right-hand side.

    ``a`` is [a_ub; a_eq] column-wise, with ``row_lower <= a@x <= row_upper``:
    the program as HiGHS takes it, stacked once, as linprog stacks it."""

    c: np.ndarray
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    a: sp.csc_array = field(init=False, repr=False)
    row_lower: np.ndarray = field(init=False, repr=False)
    row_upper: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if not np.all(np.isfinite(c)):
            raise ValueError("cost vector must be finite")
        object.__setattr__(self, "c", c)
        n = c.size
        for mname, vname in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
            mat, vec = getattr(self, mname), getattr(self, vname)
            if (mat is None) != (vec is None):
                raise ValueError(f"{mname} and {vname} must be given together")
            mat = sp.csr_matrix((0, n)) if mat is None else sp.csr_matrix(mat)
            vec = np.zeros(0) if vec is None else np.asarray(vec, dtype=float)
            if mat.shape[1] != n:
                raise ValueError(f"{mname} has {mat.shape[1]} columns, expected {n}")
            if not np.all(np.isfinite(mat.data)):
                raise ValueError(f"{mname} must be finite")
            if vec.size != mat.shape[0]:
                raise ValueError(f"{vname} length mismatch")
            # b_ub may be infinite, as bounds may; NaN and an infinite b_eq may not
            if np.isnan(vec).any() or (vname == "b_eq" and np.isinf(vec).any()):
                raise ValueError(f"{vname} holds NaN or an infinite equality")
            object.__setattr__(self, mname, mat)
            object.__setattr__(self, vname, vec)
        lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        if lb.size != n:
            raise ValueError("bound length mismatch")
        if np.isnan(lb).any() or (lb == np.inf).any():
            raise ValueError("bounds must not be NaN or +inf")
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "a", sp.csc_array(sp.vstack((self.a_ub, self.a_eq))))
        object.__setattr__(self, "row_lower", np.concatenate((np.full(self.b_ub.size, -np.inf), self.b_eq)))
        object.__setattr__(self, "row_upper", np.concatenate((self.b_ub, self.b_eq)))

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpOutcome:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    dual_objective: float | None = None
    residual: float | None = None
    # HiGHS's final basis; pass it as ``solve_lp(..., basis=)`` to start a
    # program of the same shape from it
    basis: _highs.HighsBasis | None = None
    # simplex iterations of every HiGHS run that led to this outcome
    nit: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _row_scale(mat: sp.csr_matrix) -> np.ndarray:
    """Each row's largest |coefficient|, at least 1 (1 for an empty row)."""
    scale = np.ones(mat.shape[0])
    filled = np.diff(mat.indptr) > 0
    if filled.any():
        # the empty rows between two filled ones add nothing to the first's span
        largest = np.maximum.reduceat(np.abs(mat.data), mat.indptr[:-1][filled])
        scale[filled] = np.maximum(1.0, largest)
    return scale


def _scaled_residual(p: LpProblem, x: np.ndarray) -> float:
    """Worst bound or row violation, each row scaled by its largest coefficient
    (at least 1); inf when ``x`` is not finite, so it meets no tolerance."""
    if not np.isfinite(x).all():
        return np.inf
    ub = (p.a_ub @ x - p.b_ub) / _row_scale(p.a_ub)
    eq = np.abs(p.a_eq @ x - p.b_eq) / _row_scale(p.a_eq)
    return float(np.max(np.concatenate((p.lb - x, ub, eq)), initial=0.0))


def _run(p: LpProblem, presolve: bool, basis=None, primal: bool = False) -> _highs._Highs | None:
    """One HiGHS solve of ``p``, Devex-priced when warm from ``basis``, by
    primal simplex when ``primal``; None if the basis does not fit."""
    highs = _highs._Highs()
    for key, value in _OPTIONS.items():
        highs.setOptionValue(key, value)
    highs.setOptionValue("presolve", "on" if presolve else "off")
    if basis is not None:
        highs.setOptionValue("simplex_dual_edge_weight_strategy", _DEVEX)
    if primal:
        highs.setOptionValue("simplex_strategy", _PRIMAL)
    n, a = p.n_vars, p.a
    highs.passModel(
        n, a.shape[0], a.nnz, _COLWISE, _MINIMIZE, 0.0, p.c, p.lb, np.full(n, np.inf),
        p.row_lower, p.row_upper, a.indptr, a.indices, a.data, np.zeros(n, np.int32),
    )  # every column continuous: an empty integrality array is an error
    if basis is not None and highs.setBasis(basis) != _highs.HighsStatus.kOk:
        return None
    highs.run()
    return highs


def _outcome(p: LpProblem, highs: _highs._Highs) -> LpOutcome:
    model_status = highs.getModelStatus()
    status = _STATUS_MAP.get(model_status, FAILED)
    nit = int(highs.getInfo().simplex_iteration_count)
    if status != OPTIMAL:
        return LpOutcome(status, nit=nit)
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    objective = float(highs.getInfo().objective_function_value)
    # bound marginals are the column duals of columns nonbasic at that bound
    basis = highs.getBasis()
    col_status = np.array(basis.col_status, dtype=np.int8)
    col_dual = np.array(sol.col_dual)
    lower = np.where(col_status == int(_highs.HighsBasisStatus.kLower), col_dual, 0.0)
    row_dual = np.array(sol.row_dual)
    ineq, eq = row_dual[: p.b_ub.size], row_dual[p.b_ub.size :]
    # an infinite right-hand side or bound has a zero dual and adds nothing
    finite_row, finite_lb = np.isfinite(p.b_ub), np.isfinite(p.lb)
    dual = (
        float(p.b_ub[finite_row] @ ineq[finite_row])
        + float(p.b_eq @ eq)
        + float(p.lb[finite_lb] @ lower[finite_lb])
    )
    return LpOutcome(
        status=OPTIMAL,
        x=x,
        objective=objective,
        dual_objective=dual,
        residual=_scaled_residual(p, x),
        basis=basis,
        nit=nit,
    )


def _solve(p: LpProblem, presolve: bool, basis=None, primal: bool = False) -> LpOutcome:
    """One HiGHS run read into an outcome; the instance is freed on return."""
    highs = _run(p, presolve, basis, primal)
    if highs is None:
        return LpOutcome(FAILED)  # the basis does not fit the program
    return _outcome(p, highs)


def _accepted(out: LpOutcome) -> bool:
    """The one acceptance rule: optimal, finite and within the residual and gap
    contracts (a NaN meets neither; the residual is inf when ``x`` is not finite)."""
    return (
        out.optimal and np.isfinite(out.objective) and out.residual <= RESIDUAL_TOL
        and abs(out.objective - out.dual_objective) <= GAP_TOL * max(1.0, abs(out.objective))
    )


def solve_lp(problem: LpProblem, basis: _highs.HighsBasis | None = None, primal: bool = False) -> LpOutcome:
    """Solve an LP; all failure modes are reported via the status field.

    The program goes down one ladder of rungs until an answer is accepted:
    from ``basis`` when one is given (an earlier outcome's, for a program of
    the same shape; no presolve, Devex pricing), then cold with presolve,
    then cold without; with ``primal`` the cold rungs run primal simplex, the
    others dual simplex either way.  An answer is accepted when HiGHS reports
    it optimal, every number in it is finite, its scaled residual is at most
    ``RESIDUAL_TOL`` and its duality gap at most ``GAP_TOL`` (relative).  An
    optimal answer that misses that is solved once more from its own final
    basis in a fresh instance (no presolve, usually no pivot) before the ladder
    moves on.  A cold rung that ends infeasible, unbounded or at the iteration
    limit ends the ladder with that status; an answer the last rung cannot
    accept either is ``FAILED``.  Which rung runs depends on the answers alone,
    so outcomes stay deterministic, and ``nit`` counts the iterations of every
    run.
    """
    rungs = [(False, basis)] if basis is not None else []
    rungs += [(True, None), (False, None)]
    spent = 0
    for presolve, start in rungs:
        out = _solve(problem, presolve, start, primal and start is None)
        if out.optimal and not _accepted(out):
            spent += out.nit
            out = _solve(problem, False, out.basis)
        spent += out.nit
        if _accepted(out) or (start is None and out.status in _FINAL):
            return replace(out, nit=spent)
    if out.optimal:
        out = LpOutcome(FAILED)  # no rung met the residual and gap contracts
    return replace(out, nit=spent)


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
    for tag, sense, mat, rhs in (("r", "<=", problem.a_ub, problem.b_ub), ("e", "=", problem.a_eq, problem.b_eq)):
        lines += [f" {tag}{i}: {_row_text(mat, i)}{sense} {float(rhs[i])!r}" for i in range(mat.shape[0])]
    lines.append("Bounds")
    for j, lo in enumerate(map(float, problem.lb)):
        lines.append(f" x{j} free" if np.isinf(lo) else f" x{j} >= {lo!r}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
