"""Reference computations that tests compare the package against."""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space
from scipy.sparse.linalg import spsolve

from distsynth import BoxHullSet
from distsynth.encoder import (
    EncodingError,
    VariableLayout,
    build_gbar,
    encode_gamma_bound,
    encode_origin,
    encode_output_inclusion,
    encode_vertex_reach,
)
from distsynth.lp_solver import BASIC, LOWER, UPPER, Csr, LpFailure, LpProblem, csr, solve_lp
from distsynth.rpi_params import RpiConstants, horizon_constants
from distsynth.setgeom import (
    _MAX_DIM,
    _MAX_ROWS,
    _VERTEX_TOL,
    GeometryError,
    HPolytope,
    box_points,
    dead_points,
    fields_equal,
    merge_vertices,
    reach_coefficients,
    rollout,
    sample_batch,
    stacked_identity,
    support_rows,
)
from distsynth.synthesizer import _boxes
from distsynth.verifier import CHECK_TOL, Certificate, CheckResult, MonteCarloReport, _reach_lp


def as_csr(a) -> Csr:
    """A dense array, nested list or scipy matrix as the package's ``Csr``,
    converted by ``scipy.sparse.csr_matrix`` (which leaves out a dense input's zeros)."""
    a = sp.csr_matrix(a, dtype=float)
    return Csr(a.indptr, a.indices, a.data, a.shape)


def no_rows(n: int) -> Csr:
    """The empty 0 x n matrix of a program without constraint rows."""
    return Csr(np.zeros(1, np.int32), np.zeros(0, np.int32), np.zeros(0), (0, n))


def to_scipy(a: Csr) -> sp.csr_matrix:
    """The package's ``Csr`` as a scipy CSR matrix over the same arrays."""
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def reach_reference(sys, l: int) -> np.ndarray:
    """(l + 1, n_y, n_w): C A^(l-1-t) B for slot t < l, then D, each power
    taken afresh by ``np.linalg.matrix_power``."""
    return np.stack([sys.C @ np.linalg.matrix_power(sys.A, l - 1 - t) @ sys.B for t in range(l)] + [sys.D])


# The per-term forms of the horizon stacks: one product per term in a Python
# loop, summed term by term.  The package takes each stack in one batched
# product and its sums over axis 0, which equal these bit for bit.


def reach_loop(sys, l: int) -> np.ndarray:
    """``reach_coefficients`` slot by slot: (C @ A^k) @ B for each power of a
    list A^0 .. A^(l-1) of repeated products, then D."""
    powers = list(itertools.accumulate([sys.A] * (l - 1), np.matmul, initial=np.eye(sys.n_x)))
    return np.stack([sys.C @ P @ sys.B for P in powers[::-1]] + [sys.D])


def gbar_loop(sys, Y, params) -> list:
    """``build_gbar`` as a list of maps M_t = M_(t-1) A, each its own array."""
    out, M = [], (1.0 / (1.0 - params.alpha)) * (Y.G @ sys.C)
    for _ in range(params.s):
        out.append(M.copy())
        M = M @ sys.A
    return out


def output_rhs_loop(gbar, Y, params) -> np.ndarray:
    """``output_rhs`` with the row sums of |Gbar_t| added term by term."""
    return Y.g - params.lam * sum(np.abs(G).sum(axis=1) for G in gbar)


def tail_charge_loop(gbar, sys, layout: VariableLayout) -> np.ndarray:
    """``tail_charge`` with the terms |Gbar_t B|, t >= t0, added one by one."""
    return sum((np.abs(G @ sys.B) for G in gbar[layout.t0 :]), np.zeros((layout.m_y, layout.n_rho)))


def budget_sums_loop(gbar, sys) -> np.ndarray:
    """The entrywise sums |Gbar_t B| that ``budget_tail`` reads, one per term."""
    return np.array([np.abs(G @ sys.B).sum() for G in gbar])


def term_rows_loop(gbar, sys, t0: int) -> np.ndarray:
    """The term rows Gbar_t B, t < t0, of ``encode_output_inclusion``, row t * m_y + i."""
    return np.vstack([G @ sys.B for G in gbar[:t0]])


def horizon_constants_loop(sys, Y):
    """``horizon_constants`` one horizon at a time: each item adds the term
    |G C A^t| 1 to L and |A^t| 1 to the row sums, with G C A^t and A^t the
    chains of one product per term."""
    GC_pow, A_pow = Y.G @ sys.C, np.eye(sys.n_x)
    L, row_sums = np.zeros(Y.n_rows), np.zeros(sys.n_x)
    for s in itertools.count(1):
        L = L + np.abs(GC_pow).sum(axis=1)
        row_sums = row_sums + np.abs(A_pow).sum(axis=1)
        GC_pow, A_pow = GC_pow @ sys.A, A_pow @ sys.A
        active = L > 0
        theta = float(np.min(Y.g[active] / L[active])) if active.any() else np.inf
        zeta = float(np.abs(A_pow).sum(axis=1).max())
        yield RpiConstants(s=s, L_s=L, theta_s=theta, M_s=float(row_sums.max()), zeta_s=zeta)


def uniform_beta(layout: VariableLayout) -> np.ndarray:
    return np.full(layout.dim_beta, 1.0 / layout.n_boxes)


def constants_at(sys, Y, s: int):
    """The item of ``horizon_constants`` at horizon s."""
    return next(itertools.islice(horizon_constants(sys, Y), s - 1, None))


def scaled(W: BoxHullSet, factor: float) -> BoxHullSet:
    """The image of W under w -> factor * w."""
    return BoxHullSet(factor * W.centers, abs(factor) * W.halfwidths)


def matrix_power_constants(sys, Y, s: int) -> RpiConstants:
    """The verifier's horizon constants at horizon s from one
    ``np.linalg.matrix_power`` call per power A^0 .. A^s."""
    powers = np.stack([np.linalg.matrix_power(sys.A, t) for t in range(s)])
    L = np.abs(Y.G @ sys.C @ powers).sum(axis=(0, 2))
    active = L > 0
    theta = float(np.min(Y.g[active] / L[active])) if active.any() else np.inf
    M = float(np.abs(powers).sum(axis=(0, 2)).max())
    zeta = float(np.abs(np.linalg.matrix_power(sys.A, s)).sum(axis=1).max())
    return RpiConstants(s=s, L_s=L, theta_s=theta, M_s=M, zeta_s=zeta)


def output_inclusion_loop(sys, Y, params, W: BoxHullSet) -> Certificate:
    """The output-inclusion check term by term: one ``support_rows`` call per
    map M_t = M_(t-1) A, each added into the running sums."""
    scale = 1.0 / (1.0 - params.alpha)
    lhs = np.zeros(Y.n_rows)
    tail = np.zeros(Y.n_rows)
    M = scale * (Y.G @ sys.C)
    for _ in range(params.s):
        lhs += support_rows(sys.B, M, W)
        tail += np.abs(M).sum(axis=1)
        M = M @ sys.A
    lhs += support_rows(sys.D, Y.G, W)
    slack = Y.g - params.lam * tail - lhs
    i = int(np.argmin(slack))
    check = CheckResult("output-inclusion", bool(slack[i] >= -CHECK_TOL), float(slack[i]), f"row {i}")
    return Certificate((check,))


def sample_batch_blend(W: BoxHullSet, count: int, rng) -> np.ndarray:
    """The draws of ``sample_batch`` as ``exponential()`` and
    ``uniform(-1, 1)`` calls, the weights normalized by a row sum, the box
    points formed into a new array, c + u e, and blended by one ``einsum``."""
    e = rng.exponential(size=(count, W.n_boxes))
    beta = e / e.sum(axis=1, keepdims=True)
    u = rng.uniform(-1.0, 1.0, size=(count, W.n_boxes, W.dim))
    pts = W.centers[None, :, :] + u * W.halfwidths[None, :, :]
    return np.einsum("tn,tnd->td", beta, pts)


def monte_carlo_last_axis(sys, W: BoxHullSet, Y, T: int, runs: int, rng) -> MonteCarloReport:
    """Monte-Carlo with the same draws and ``rollout`` outputs, each run's
    excess folded over the rows of G as a short last axis."""
    w_seq = np.stack([sample_batch(W, T, rng) for _ in range(runs)])
    violations, worst = 0, 0.0
    for y in rollout(sys, np.zeros((runs, sys.n_x)), w_seq):
        excess = (y @ Y.G.T - Y.g).max(axis=1)
        worst = max(worst, float(excess.max()))
        violations += int(np.count_nonzero(excess > CHECK_TOL))
    return MonteCarloReport(violations, max(0.0, worst), T * runs)


@dataclass(frozen=True, eq=False)  # compared by identity: the blocks are sparse
class SynthBlocks:
    """The constraint blocks ``assemble`` builds the P-step and Q-step
    programs from (see ``encoder``), over one layout."""

    layout: VariableLayout
    cost_z: np.ndarray
    a_x: sp.csr_matrix
    b: np.ndarray
    c_w: sp.csr_matrix
    c_z: sp.csr_matrix
    h: np.ndarray
    e_z: sp.csr_matrix
    t_beta: sp.csr_matrix


def synth_blocks(sys, Y, Y_vertices, params, H, layout: VariableLayout) -> SynthBlocks:
    """The blocks of an assembled problem's ``layout``, built by encoder's
    ``encode_*`` functions as ``assemble`` calls them, each read as a scipy
    CSR matrix."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    a1, b1 = encode_output_inclusion(build_gbar(sys, Y, params), sys, Y, params, layout)
    a2, b2 = encode_gamma_bound(sys, params.gamma, layout)
    a3, b3 = encode_origin(layout)
    cost_z = np.zeros(layout.dim_z)
    cost_z[layout.z_eps()] = 1.0
    a_x, b = sp.vstack([to_scipy(csr(a)) for a in (a1, a2, a3)], format="csr"), np.concatenate([b1, b2, b3])
    reach = reach_coefficients(sys, layout.horizon)
    c_w, c_z, h, e_z, t_beta = encode_vertex_reach(merge_vertices(Y_vertices), reach, layout, H)
    c_w, c_z, e_z, t_beta = (to_scipy(csr(m)) for m in (c_w, c_z, e_z, t_beta))
    return SynthBlocks(layout, cost_z, a_x, b, c_w, c_z, h, e_z, t_beta)


def membership_blocks(layout: VariableLayout):
    """(d_x, d_wbar): rows S wbar_gj - S c_j - |S| e_j <= 0 with S = [I; -I],
    keeping every per-group point in its own box, by (group, box, sign,
    coordinate) over the columns of x and of wbar."""
    S = stacked_identity(layout.n_w)
    box = sp.kron(sp.eye(layout.n_boxes), np.hstack([S, np.abs(S)]), "coo")
    d_x = -sp.kron(np.ones((layout.n_groups, 1)), box, "csr")
    d_x.resize(d_x.shape[0], layout.dim_x)  # the budget columns of x stay empty
    return d_x, sp.kron(sp.eye(layout.n_groups * layout.n_boxes), S, "csr")


def program_residual(blocks: SynthBlocks, point: dict) -> float:
    """Largest violation of any block of the synthesis program by an
    (x, w, wbar, beta, z) point, a dict of those five arrays."""
    x, w, wbar = point["x"], point["w"], point["wbar"]
    beta, z = point["beta"], point["z"]
    worst = float(np.max(blocks.a_x @ x - blocks.b, initial=-np.inf))
    d_x, d_wbar = membership_blocks(blocks.layout)
    worst = max(worst, float(np.max(d_x @ x + d_wbar @ wbar, initial=-np.inf)))
    worst = max(worst, float(np.max(np.abs(blocks.c_w @ w + blocks.c_z @ z - blocks.h), initial=-np.inf)))
    worst = max(worst, float(np.max(blocks.e_z @ z, initial=-np.inf)))
    worst = max(worst, float(np.max(np.abs(blocks.t_beta @ beta - 1.0), initial=-np.inf)))
    worst = max(worst, float(np.max(-beta, initial=-np.inf)))
    lay = blocks.layout
    weights = beta.reshape(lay.n_groups, lay.n_boxes)
    recon = np.einsum("gj,gjk->gk", weights, wbar.reshape(*weights.shape, lay.n_w))
    worst = max(worst, float(np.max(np.abs(w.reshape(lay.n_groups, lay.n_w) - recon))))
    return worst


@dataclass(frozen=True, eq=False)
class Membership:
    """Result of a hull membership test with the decomposition witness."""

    inside: bool
    residual: float
    weights: np.ndarray | None = None
    points: np.ndarray | None = None
    __eq__ = fields_equal

    def __bool__(self) -> bool:
        return self.inside


def contains_point(W: BoxHullSet, w, tol: float = 1e-9) -> Membership:
    """Exact hull membership via the reach program with the identity map.

    Minimizes the infinity-norm residual of reconstructing w as a point p of
    the blended box sum_j beta_j box_j with sum_j beta_j = 1; the point is
    inside iff the optimal residual is at most tol.  Returns the weights and
    the per-box points of p by ``box_points``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    w = np.asarray(w, dtype=float).ravel()
    n = W.dim
    if w.size != n:
        raise GeometryError("point dimension mismatch")
    coeff, slack = np.eye(n)[None], -np.ones((2 * n, 1))
    lp = _reach_lp(coeff, w[None], W, stacked_identity(n), slack, 0.0, np.zeros(2 * n), dead_points(coeff, 1))
    out = solve_lp(lp)
    if not out.optimal:
        raise LpFailure(f"membership LP failed with status {out.status}", lp)
    residual = float(out.objective)
    # the columns lead with the point p, then the box weights
    weights = out.x[n : n + W.n_boxes]
    points = box_points(W.centers, W.halfwidths, weights[None], out.x[None, :n])[0]
    return Membership(residual <= tol, residual, weights, points)


def basis_point(lp: LpProblem, basis) -> np.ndarray:
    """The columns of the basic solution of ``basis``: each nonbasic column at
    its lower bound and each nonbasic row at its right-hand side, the basic
    columns and row activities solved from a@x = activity by a sparse LU."""
    col, row = (np.array([int(s) for s in status]) for status in (basis.col_status, basis.row_status))
    n, m = lp.n_vars, lp.b.size
    assert col.size == n and row.size == m and np.count_nonzero(col == BASIC) + np.count_nonzero(row == BASIC) == m
    assert np.isin(col, (LOWER, BASIC)).all() and np.isin(row, (LOWER, BASIC, UPPER)).all()
    # a nonbasic inequality sits at its upper bound, its only finite one
    assert (row[: lp.n_ub] != LOWER).all()
    fixed = np.concatenate((np.where(col == BASIC, 0.0, lp.lb), np.where(row == BASIC, 0.0, lp.b)))
    assert np.isfinite(fixed).all()
    # unknowns (x, activity): [a, -I] (x, activity) = 0
    system = sp.hstack([to_scipy(lp.a), -sp.identity(m)]).tocsc()
    basic = np.flatnonzero(np.concatenate((col, row)) == BASIC)
    z = fixed.copy()
    z[basic] = spsolve(system[:, basic], -(system @ fixed))
    return z[:n]


def zeroed_dual_objective(p: LpProblem, highs) -> float:
    """The dual objective of an optimal HiGHS run of ``p`` with the duals of
    the basic columns set to 0 before they are summed (``getBasicVariables``
    names them), as ``lp_solver._outcome`` formed it before it relied on
    HiGHS's own zeros."""
    sol = highs.getSolution()
    basic = highs.getBasicVariables()[1]
    lower = np.array(sol.col_dual)
    lower[basic[basic >= 0]] = 0.0
    row_dual = np.array(sol.row_dual)
    b_ub, b_eq, ineq, eq = p.b[: p.n_ub], p.b[p.n_ub :], row_dual[: p.n_ub], row_dual[p.n_ub :]
    finite_row, finite_lb = np.isfinite(b_ub), np.isfinite(p.lb)
    return (
        float(b_ub[finite_row] @ ineq[finite_row])
        + float(b_eq @ eq)
        + float(p.lb[finite_lb] @ lower[finite_lb])
    )


def inflation_margins(sys, vertices, W: BoxHullSet, horizon: int, H, epsilon) -> np.ndarray:
    """-t per vertex, t the least uniform inflation of the widths under which
    the horizon-reachable outputs reach the vertex: one cold LP each."""
    coeff = reach_reference(sys, horizon)
    slack, dead = -np.ones((H.shape[0], 1)), dead_points(coeff, 1)
    margins = []
    for y in vertices:
        out = solve_lp(_reach_lp(coeff, y[None], W, H, slack, -np.inf, epsilon, dead))
        assert out.optimal
        margins.append(-out.objective)
    return np.array(margins)


def vertices_hpoly_loop(P: HPolytope) -> np.ndarray:
    """Reference for ``vertices_hpoly``: one rank test and one solve per
    subset of n rows, then one ``null_space`` per subset of n - 1 rows."""
    m, n = P.G.shape
    if m > _MAX_ROWS or n > _MAX_DIM:
        raise GeometryError(
            f"enumeration limited to {_MAX_ROWS} rows and dimension {_MAX_DIM}; supply vertices"
        )
    if m < n + 1:
        raise GeometryError("a bounded nonempty polytope needs at least n+1 rows")
    found: list[np.ndarray] = []
    for idx in itertools.combinations(range(m), n):
        sub = P.G[list(idx)]
        if np.linalg.matrix_rank(sub, tol=1e-10) < n:
            continue
        y = np.linalg.solve(sub, P.g[list(idx)])
        if P.contains(y):
            found.append(y)
    if not found:
        raise GeometryError("no vertices found; polytope may be empty or degenerate")
    for idx in itertools.combinations(range(m), n - 1):
        d = null_space(P.G[list(idx)])
        if d.shape[1] == 1 and (np.all(P.G @ d <= _VERTEX_TOL) or np.all(P.G @ d >= -_VERTEX_TOL)):
            raise GeometryError("polytope is unbounded")
    V = merge_vertices(found)
    return V[np.lexsort(V.T[::-1])]


_SIGNS = np.array([[1.0], [-1.0]])


def _block_diag(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal matrix of a (count, rows, cols) stack, built as BSR."""
    count, rows, cols = blocks.shape
    diag = np.arange(count + 1)
    return sp.bsr_matrix((blocks, diag[:-1], diag), shape=(count * rows, count * cols)).tocsr()


def p_step_lp(blocks: SynthBlocks, beta: np.ndarray) -> LpProblem:
    """Reference for the P-step program over (x, w, z), built block by block
    with ``sp.bmat``: the membership rows +-(w_g - sum_j beta_gj c_j) - sum_j
    beta_gj e_j <= 0 by (group, coordinate, sign) are -kron(beta, [S, |S|])
    with S = kron(I, [1; -1]), where zero weights add no entries."""
    lay = blocks.layout
    nx, z_off = lay.dim_x, lay.dim_x + lay.dim_w
    S = np.kron(np.eye(lay.n_w), _SIGNS)
    # "coo" keeps kron off its BSR path, which would store the zeros of S
    member_x = sp.kron(-beta.reshape(lay.n_groups, lay.n_boxes), np.hstack([S, np.abs(S)]), "coo")
    member_x.resize(member_x.shape[0], nx)  # the budget columns of x stay empty
    member_w = _block_diag(np.tile(_SIGNS, (lay.dim_w, 1, 1)))
    a = sp.bmat(
        [
            [blocks.a_x, None, None],
            [member_x, member_w, None],
            [None, None, blocks.e_z],
            [sp.csr_matrix((blocks.c_w.shape[0], nx)), blocks.c_w, blocks.c_z],
        ],
        format="csr",
    )
    b = np.concatenate([blocks.b, np.zeros(2 * lay.dim_w + blocks.e_z.shape[0]), blocks.h])
    c = np.concatenate([np.zeros(z_off), blocks.cost_z])
    lb = np.full(c.size, -np.inf)
    _boxes(lay, lb)[:, 1] = 0.0
    lb[z_off + lay.z_eps().start : z_off + lay.z_eps().stop] = 0.0
    return LpProblem(c, as_csr(a), b, blocks.h.size, lb)


def q_step_lp(blocks: SynthBlocks, wbar: np.ndarray):
    """Reference for the Q-step program over (beta, z), with w =
    blockdiag(wbar_g^T) beta substituted into the reach rows by a sparse
    product."""
    lay = blocks.layout
    nb = lay.dim_beta
    blend = _block_diag(wbar.reshape(lay.n_groups, lay.n_boxes, lay.n_w).transpose(0, 2, 1))
    a = sp.bmat(
        [
            [sp.csr_matrix((blocks.e_z.shape[0], nb)), blocks.e_z],
            [blocks.c_w @ blend, blocks.c_z],
            [blocks.t_beta, None],
        ],
        format="csr",
    )
    n_eq = blocks.h.size + blocks.t_beta.shape[0]
    b = np.concatenate([np.zeros(blocks.e_z.shape[0]), blocks.h, np.ones(blocks.t_beta.shape[0])])
    c = np.concatenate([np.zeros(nb), blocks.cost_z])
    lb = np.full(c.size, -np.inf)
    lb[:nb] = 0.0
    lb[nb + lay.z_eps().start : nb + lay.z_eps().stop] = 0.0
    return LpProblem(c, as_csr(a), b, n_eq, lb)


# The scipy.sparse constructor chains that built the encoder's blocks and the
# verifier's reach program before both were built from index triplets
# (lp_solver.kron, stack, csr); the package's matrices must equal them bit for
# bit, entry order and index dtypes included.


def _scipy_box_rows(T: np.ndarray, N: int) -> sp.coo_matrix:
    """kron(I_N, [T, |T|]): row block j is the support T c_j + |T| e_j of box j
    in the directions T, over the box columns [c_0, e_0, c_1, e_1, ...] of x."""
    # "coo" keeps kron off its BSR path, which would store the zeros of dense blocks
    return sp.kron(sp.eye(N), np.hstack([T, np.abs(T)]), "coo")


def _scipy_pad_x(block, layout: VariableLayout) -> sp.csr_matrix:
    """Extend a block over the box columns of x with the empty budget columns."""
    return sp.hstack([block, sp.coo_matrix((block.shape[0], layout.dim_x - block.shape[1]))], format="csr")


def scipy_output_inclusion(gbar, sys, Y, params, layout: VariableLayout):
    """Reference for ``encoder.encode_output_inclusion``, from the per-term
    forms of its right-hand side, term rows and tail charge."""
    rhs = output_rhs_loop(gbar, Y, params)
    if np.min(rhs) < -1e-12 * max(1.0, float(np.max(np.abs(Y.g)))):
        warnings.warn(
            f"negative output budget at row {int(np.argmin(rhs))}; "
            "the synthesis problem is infeasible for these parameters",
            RuntimeWarning,
        )
    N, m_y, t0 = layout.n_boxes, layout.m_y, layout.t0
    n_q = t0 * m_y
    terms = term_rows_loop(gbar, sys, t0)
    per_box = np.ones((N, 1))  # every box's row block charges the same budgets
    blocks = [
        [_scipy_box_rows(terms, N), -sp.kron(per_box, sp.eye(n_q), "coo"), None],
        [_scipy_box_rows(Y.G @ sys.D, N), None, -sp.kron(per_box, sp.eye(m_y), "coo")],
        [None, sp.kron(np.ones((1, t0)), sp.eye(m_y), "coo"), sp.eye(m_y, format="coo")],
    ]
    if layout.n_rho:
        S = stacked_identity(layout.n_w)
        tail = sp.coo_matrix(tail_charge_loop(gbar, sys, layout))
        blocks = [
            *(row + [None] for row in blocks[:2]),
            [_scipy_box_rows(S, N), None, None, -sp.kron(per_box, np.abs(S), "coo")],
            blocks[2] + [tail],
        ]
    n_zero = N * (n_q + m_y) + 2 * N * layout.n_rho
    return sp.bmat(blocks, format="csr"), np.concatenate([np.zeros(n_zero), rhs])


def scipy_gamma_bound(sys, gamma: float, layout: VariableLayout):
    """Reference for ``encoder.encode_gamma_bound``."""
    IB = stacked_identity(sys.n_x) @ sys.B
    return _scipy_pad_x(_scipy_box_rows(IB, layout.n_boxes), layout), np.full(layout.n_boxes * IB.shape[0], gamma)


def scipy_origin(layout: VariableLayout):
    """Reference for ``encoder.encode_origin``."""
    block = np.kron([[1.0, -1.0], [-1.0, -1.0]], np.eye(layout.n_w))
    return _scipy_pad_x(sp.coo_matrix(block), layout), np.zeros(2 * layout.n_w)


def scipy_vertex_reach(vertices: np.ndarray, sys, layout: VariableLayout, H: np.ndarray):
    """Reference for ``encoder.encode_vertex_reach``."""
    l = layout.horizon
    if l < 1:
        raise EncodingError("horizon must be at least 1")
    v, N = layout.n_vertices, layout.n_boxes
    groups, n_out = layout.n_groups, v * layout.n_y
    # row (i, k): sum_t coeff_t[k] w_(i, t) + b_i[k] = vertex_i[k], coeff_t slot t of reach_coefficients
    c_w = sp.kron(sp.eye(v), np.hstack(reach_coefficients(sys, l)), "csr")
    c_z = sp.hstack([sp.coo_matrix((n_out, layout.n_b)), sp.eye(n_out, format="coo")], format="csr")
    h = np.asarray(vertices, dtype=float).ravel()
    # row (i, k): H[k] b_i - eps[k] <= 0
    e_z = sp.hstack([-sp.kron(np.ones((v, 1)), sp.eye(layout.n_b), "coo"), sp.kron(sp.eye(v), H, "coo")], format="csr")
    t_beta = sp.kron(sp.eye(groups), np.ones((1, N)), "csr")
    return c_w, c_z, h, e_z, t_beta


def scipy_reach_lp(
    coeff: np.ndarray, vertices: np.ndarray, W: BoxHullSet, H: np.ndarray, slack, slack_lb, h_rhs
) -> LpProblem:
    """Reference for ``verifier._reach_lp``."""
    n, n_y = vertices.shape
    N, n_w = W.n_boxes, W.dim
    groups = n * coeff.shape[0]
    n_p, n_beta, n_b = groups * n_w, groups * N, n * n_y
    S = stacked_identity(n_w)
    blended = -(S @ W.centers.T + np.abs(S) @ W.halfwidths.T)
    slack = sp.coo_matrix(slack)
    m = slack.shape[1]
    # "coo" keeps kron off its BSR path, which would store the zeros of dense blocks
    a = sp.bmat(
        [
            [sp.kron(sp.eye(groups), S, "coo"), sp.kron(sp.eye(groups), blended, "coo"), None, None],
            [None, None, sp.kron(sp.eye(n), H, "coo"), slack],
            [sp.kron(sp.eye(n), np.hstack(coeff), "coo"), None, sp.eye(n_b, format="coo"), None],
            [None, sp.kron(sp.eye(groups), np.ones((1, N)), "coo"), None, None],
        ],
        format="csr",
    )
    c = np.concatenate((np.zeros(n_p + n_beta + n_b), np.ones(m)))
    lb = np.concatenate((np.full(n_p, -np.inf), np.zeros(n_beta), np.full(n_b, -np.inf), np.full(m, slack_lb)))
    b = np.concatenate((np.zeros(2 * n_p), h_rhs, vertices.ravel(), np.ones(groups)))
    return LpProblem(c, as_csr(a), b, n_b + groups, lb)


def distance_slack(n_vertices: int, n_b: int) -> sp.coo_matrix:
    """Reference for ``verifier.distance_witness``'s slack: widths shared by every vertex."""
    return -sp.kron(np.ones((n_vertices, 1)), sp.eye(n_b), "coo")


def inflation_slack(n_vertices: int, n_b: int) -> sp.coo_matrix:
    """Reference for ``verifier.verify_coverage``'s slack: one inflation per vertex."""
    return -sp.kron(sp.eye(n_vertices), np.ones((n_b, 1)), "coo")


def assert_same_matrix(a, ref, name=""):
    """Two CSR matrices are the same bit for bit: shape, and indptr, indices
    and data with their dtypes."""
    assert a.shape == ref.shape, name
    for field in ("indptr", "indices", "data"):
        x, y = getattr(a, field), getattr(ref, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (name, field)
