"""Deterministic linear-program interface used by the synthesizer and verifier.

A problem is one form: a cost vector, one ``Csr`` matrix whose leading rows are
inequalities and whose last ``n_eq`` rows are equalities, its right-hand side
and per-variable lower bounds.  Solving goes straight to the HiGHS bindings
that scipy bundles: the CSR arrays reach HiGHS row-wise, as they are, through
the array overload of ``passModel``, with no element-wise copy and no
conversion in Python; HiGHS turns them column-wise itself, into the arrays
``linprog`` would pass.  The options are those
``scipy.optimize.linprog(method="highs")`` would pass, so an accepted cold
dual-simplex answer is what ``linprog`` returns, bit for bit, without its
front end, unless the caller asks for primal simplex
(``primal=True``: the verifier's programs over a fixed W, whose optimal value
is unique and which it starts warm from a primal-feasible basis of its own;
not the synthesis programs, where the degenerate optimum HiGHS returns
steers the alternation).  HiGHS is deterministic for a fixed input; outcomes
carry the status, primal solution, scaled feasibility residual, dual
objective, simplex iteration count and final basis, from which a program of
the same shape can start warm (the synthesizer's P-steps and Q-steps do);
``start_basis`` makes a basis from status codes, so a caller that knows a
program's structure can start it warm without touching the bindings.
``solve_lp`` checks every answer by one rule
(residual and duality gap) and walks one fallback ladder until an answer meets
it.  ``write_lp`` dumps a program in LP format for cross-checks elsewhere.
Blocks are ``Coo`` triplets (``kron``, ``stack``) until ``csr`` sorts them once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
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
# the status codes of ``start_basis``: nonbasic at the lower bound, basic,
# nonbasic at the upper bound (a row's bounds are those of its activity a@x)
LOWER, BASIC, UPPER = 0, 1, 2
# indexed by code, so one lookup maps a whole status array
_STATUS = np.array([_highs.HighsBasisStatus(code) for code in (LOWER, BASIC, UPPER)], dtype=object)
_ROWWISE = int(_highs.MatrixFormat.kRowwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


class LpFailure(RuntimeError):
    """A program without an accepted answer; ``lp`` is that program, when known,
    so it can be written out (``write_lp``) and solved elsewhere."""

    def __init__(self, message: str, lp: "LpProblem | None" = None):
        super().__init__(message)
        self.lp = lp


@dataclass(frozen=True, eq=False)  # compared by identity: the matrix is sparse
class LpProblem:
    """min c@x  s.t.  a@x <= b on the leading ``n_ub`` rows,  a@x = b on the
    last ``n_eq`` rows,  lb <= x.

    ``a`` is one ``Csr`` matrix, the inequality rows first, and HiGHS takes it
    row-wise as it is; a bound of -inf leaves its column free."""

    c: np.ndarray
    a: Csr
    b: np.ndarray
    n_eq: int
    lb: np.ndarray

    def __post_init__(self):
        a = self.a
        c, b, lb = (np.asarray(v, dtype=float) for v in (self.c, self.b, self.lb))
        if not np.all(np.isfinite(c)):
            raise ValueError("cost vector must be finite")
        n = c.size
        if a.shape[1] != n:
            raise ValueError(f"a has {a.shape[1]} columns, expected {n}")
        if len(a.indptr) != a.shape[0] + 1 or a.indptr[0] != 0 or not a.indptr[-1] == len(a.indices) == len(a.data):
            raise ValueError("a must hold rows + 1 row pointers from 0 to its count of column indices and values")
        if not np.all(np.isfinite(a.data)):
            raise ValueError("a must be finite")
        if b.size != a.shape[0]:
            raise ValueError("b length mismatch")
        if not 0 <= self.n_eq <= b.size:
            raise ValueError(f"n_eq must lie in 0..{b.size}")
        # an inequality's right-hand side may be infinite, as bounds may; NaN
        # and an infinite equality right-hand side may not
        if np.isnan(b).any() or np.isinf(b[b.size - self.n_eq :]).any():
            raise ValueError("b holds NaN or an infinite equality")
        if lb.size != n:
            raise ValueError("bound length mismatch")
        if np.isnan(lb).any() or (lb == np.inf).any():
            raise ValueError("bounds must not be NaN or +inf")
        for name, value in (("c", c), ("b", b), ("lb", lb)):
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_ub(self) -> int:
        return self.b.size - self.n_eq

    @property
    def a_ub(self) -> Csr:  # perfbench/tracer.py reads it; drop with ROADMAP item F
        return self.a.rows(0, self.n_ub)

    @property
    def a_eq(self) -> Csr:  # perfbench/tracer.py reads it; drop with ROADMAP item F
        return self.a.rows(self.n_ub, self.a.shape[0])


class Csr(NamedTuple):
    """A sparse matrix by rows: row i holds ``data[k]`` at column ``indices[k]`` for k in ``indptr[i]:indptr[i + 1]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def rows(self, start: int, stop: int) -> Csr:
        """Rows ``start`` to ``stop`` (exclusive) as a matrix of their own."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return Csr(self.indptr[start : stop + 1] - lo, self.indices[lo:hi], self.data[lo:hi], (stop - start, self.shape[1]))


class Coo(NamedTuple):
    """A sparse block as triplets: entry k is ``val[k]`` at (``row[k]``, ``col[k]``)."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]


def _entries(f) -> Coo:
    """The identity I_f for an int ``f``, else the nonzero entries of the dense ``f``."""
    if isinstance(f, (int, np.integer)):
        return Coo(np.arange(f), np.arange(f), np.ones(f), (f, f))
    row, col = np.nonzero(f := np.asarray(f, dtype=float))
    return Coo(row, col, f[row, col], f.shape)


def kron(a, b) -> Coo:
    """kron(a, b) as triplets, an int factor standing for the identity of that size; each entry is
    a_ij * b_kl and, as in scipy's "coo" kron, the exact zeros of a dense factor are left out."""
    (ar, ac, av, (p, q)), (br, bc, bv, (m, n)) = _entries(a), _entries(b)
    return Coo((ar[:, None] * m + br).ravel(), (ac[:, None] * n + bc).ravel(), (av[:, None] * bv).ravel(), (p * m, q * n))


def stack(grid, widths) -> Coo:
    """The block matrix of ``grid``, a list of block rows, each holding one block or None per
    column group of ``widths``.  A block (triplets, or a dense array whose zeros are left out)
    starts at its group's first column and may be narrower; a block row is as tall as its blocks."""
    left, parts, top = np.concatenate(([0], np.cumsum(widths))), [], 0
    for blocks in grid:
        for block, col in ((block, col) for block, col in zip(blocks, left) if block is not None):
            block = block if isinstance(block, Coo) else kron(1, block)  # dense
            parts.append((block.row + top, block.col + col, block.val))
        top += block.shape[0]
    row, col, val = (np.concatenate(part) for part in zip(*parts))
    return Coo(row, col, val, (top, int(left[-1])))


def csr(block: Coo) -> Csr:
    """``block`` (no position twice) as a CSR matrix with int32 indices, entries sorted by (row, column):
    the same matrix from any order of the triplets.  The sort is stable, so runs already in order merge."""
    order = np.argsort(block.row * block.shape[1] + block.col, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(block.row, minlength=block.shape[0])))).astype(np.int32)
    return Csr(indptr, block.col[order].astype(np.int32), block.val[order], block.shape)


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


def start_basis(col_status: np.ndarray, row_status: np.ndarray) -> _highs.HighsBasis:
    """The basis whose columns and rows hold the status codes ``col_status``
    and ``row_status`` (``LOWER``, ``BASIC`` or ``UPPER``), to pass as
    ``solve_lp(..., basis=)``; one code per column and per row, as many
    ``BASIC`` as rows, and those columns and rows must form a nonsingular basis."""
    basis = _highs.HighsBasis()
    basis.col_status = _STATUS[col_status].tolist()
    basis.row_status = _STATUS[row_status].tolist()
    basis.valid, basis.alien = True, False
    return basis


def _row_scale(mat: Csr) -> np.ndarray:
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
    # a @ x summed row by row in entry order, as scipy's csr_matvec sums it
    ax = np.bincount(np.repeat(np.arange(p.b.size), np.diff(p.a.indptr)), p.a.data * x[p.a.indices], p.b.size)
    rows = (ax - p.b) / _row_scale(p.a)
    rows[p.n_ub :] = np.abs(rows[p.n_ub :])  # an equality is violated either way
    return float(np.max(np.concatenate((p.lb - x, rows)), initial=0.0))


def _run(p: LpProblem, presolve: bool, basis=None, primal: bool = False) -> _highs._Highs | None:
    """One HiGHS solve of ``p``, Devex-priced when warm from ``basis``, by
    primal simplex when ``primal``; None if HiGHS rejects the program (a
    warning is no rejection) or the basis does not fit."""
    highs = _highs._Highs()
    for key, value in _OPTIONS.items():
        highs.setOptionValue(key, value)
    highs.setOptionValue("presolve", "on" if presolve else "off")
    if basis is not None:
        highs.setOptionValue("simplex_dual_edge_weight_strategy", _DEVEX)
    if primal:
        highs.setOptionValue("simplex_strategy", _PRIMAL)
    n, a = p.n_vars, p.a
    row_lower = np.concatenate((np.full(p.n_ub, -np.inf), p.b[p.n_ub :]))
    passed = highs.passModel(
        n, a.shape[0], a.nnz, _ROWWISE, _MINIMIZE, 0.0, p.c, p.lb, np.full(n, np.inf),
        row_lower, p.b, a.indptr, a.indices, a.data, np.zeros(n, np.int32),
    )  # every column continuous: an empty integrality array is an error
    if passed == _highs.HighsStatus.kError or (basis is not None and highs.setBasis(basis) != _highs.HighsStatus.kOk):
        return None
    highs.run()
    return highs


def _outcome(p: LpProblem, highs: _highs._Highs) -> LpOutcome:
    model_status = highs.getModelStatus()
    status = _STATUS_MAP.get(model_status, FAILED)
    info = highs.getInfo()
    nit = int(info.simplex_iteration_count)
    if status != OPTIMAL:
        return LpOutcome(status, nit=nit)
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    objective = float(info.objective_function_value)
    # bound marginals are the column duals: every upper bound is +inf, so a
    # nonbasic column with a finite lower bound sits at it, and HiGHS gives a
    # basic column a dual of exactly 0
    lower = np.array(sol.col_dual)
    row_dual = np.array(sol.row_dual)
    b_ub, b_eq, ineq, eq = p.b[: p.n_ub], p.b[p.n_ub :], row_dual[: p.n_ub], row_dual[p.n_ub :]
    # an infinite right-hand side or bound has a zero dual and adds nothing
    finite_row, finite_lb = np.isfinite(b_ub), np.isfinite(p.lb)
    dual = (
        float(b_ub[finite_row] @ ineq[finite_row])
        + float(b_eq @ eq)
        + float(p.lb[finite_lb] @ lower[finite_lb])
    )
    return LpOutcome(
        status=OPTIMAL,
        x=x,
        objective=objective,
        dual_objective=dual,
        residual=_scaled_residual(p, x),
        basis=highs.getBasis(),
        nit=nit,
    )


def _solve(p: LpProblem, presolve: bool, basis=None, primal: bool = False) -> LpOutcome:
    """One HiGHS run read into an outcome; the instance is freed on return."""
    highs = _run(p, presolve, basis, primal)
    if highs is None:
        return LpOutcome(FAILED)  # HiGHS rejects the program or the basis
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
    the same shape, or one of ``start_basis``; no presolve, Devex pricing),
    then cold with presolve, then cold without; every rung runs primal
    simplex with ``primal`` and dual simplex without, and a re-solve from an
    answer's own basis runs dual simplex either way.  An answer is accepted when HiGHS reports
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
        out = _solve(problem, presolve, start, primal)
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


def _row_text(mat: Csr, i: int) -> str:
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
    n_ub = problem.n_ub
    for i, rhs in enumerate(map(float, problem.b)):
        name, sense = (f"r{i}", "<=") if i < n_ub else (f"e{i - n_ub}", "=")
        lines.append(f" {name}: {_row_text(problem.a, i)}{sense} {rhs!r}")
    lines.append("Bounds")
    for j, lo in enumerate(map(float, problem.lb)):
        lines.append(f" x{j} free" if np.isinf(lo) else f" x{j} >= {lo!r}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
