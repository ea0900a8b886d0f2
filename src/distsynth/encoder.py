"""Assembly of the bilinear synthesis program over hull-of-box disturbance sets.

The columns split into four groups:

    x    : box centers/halfwidths [c_0, e_0, c_1, e_1, ...], the per-term
           output budgets (Q_t by term, then r) and the tail bound rho
    w    : one driving disturbance point per constraint vertex and step
    beta : convex box weights per constraint vertex and step
    z    : the coverage slack widths (eps) and per-vertex deviations b

The blocks built here are linear and no block joins w to beta: the one
bilinear condition, each w in its blended box sum_j beta_j box_j, is left to
the synthesizer, which fixes one factor per step.  The P step fixes the
weights; the Q step fixes per-box points wbar, recovered from the P step's
optimum, and reweights them, w = sum_j beta_j wbar_j.  wbar is that step's
data, not a column group.

A group is one (vertex, slot) pair.  Every block is a Kronecker expression
over a group-major layout, kept as ``lp_solver.Coo`` triplets (``kron``);
``lp_solver.stack`` places the blocks of a program at their row and column
offsets and ``lp_solver.csr`` sorts them once by (row, column) into its
``Csr`` matrix.  Row and column orders are fixed functions of the dimensions,
so two assemblies of the same input are bit-identical.  A P-step or Q-step
program (``StepProgram``) keeps its fixed entries and builds, per step, the
one block its frozen factor sets, which ``csr`` sorts in with them.  A column
that an exactly zero input map leaves dead (``dead_columns``) can bind no row,
so the P-step program is built without it and the rows it enters, once; the
synthesizer gives it back a value that keeps those rows.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .lp_solver import Coo, LpProblem, csr, delete_columns, kron, stack
from .rpi_params import RpiParams
from .setgeom import (
    HPolytope, LtiSystem, dead_points, merge_vertices, power_chain, reach_coefficients, stacked_identity,
)


class EncodingError(ValueError):
    pass


def h_preset(name: str, n_y: int) -> np.ndarray:
    """Deviation-polytope normal matrices: 'box' or 'uniform:k' (planar)."""
    if name == "box":
        return stacked_identity(n_y)
    if name.startswith("uniform:"):
        if n_y != 2:
            raise EncodingError("uniform:k preset is defined for two outputs only")
        k = int(name.split(":", 1)[1])
        if k < 3:
            raise EncodingError("uniform preset needs at least 3 sides")
        ang = 2.0 * np.pi * np.arange(k) / k
        H = np.column_stack([np.cos(ang), np.sin(ang)])
        # cos(pi/2), sin(pi) and the like round to about 1e-16, not 0; HiGHS
        # drops entries that small, the residual check and the witness
        # arithmetic would not
        H[np.abs(H) < 1e-15] = 0.0
        return H
    raise EncodingError(f"unknown H preset {name!r}")


@dataclass(frozen=True)
class VariableLayout:
    """Sizes of the flattened variable groups, each stored group-major."""

    n_boxes: int
    n_vertices: int
    horizon: int  # l
    s: int
    n_w: int
    n_y: int
    m_y: int
    n_b: int
    t0: int  # terms t >= t0 share the tail bound rho; s means no tail

    @property
    def n_rho(self) -> int:
        return self.n_w if self.t0 < self.s else 0

    @property
    def dim_x(self) -> int:
        return 2 * self.n_boxes * self.n_w + (self.t0 + 1) * self.m_y + self.n_rho

    @property
    def dim_w(self) -> int:
        return self.n_vertices * (self.horizon + 1) * self.n_w

    @property
    def dim_beta(self) -> int:
        return self.n_vertices * self.n_boxes * (self.horizon + 1)

    @property
    def dim_z(self) -> int:
        return self.n_b + self.n_vertices * self.n_y

    @property
    def n_slots(self) -> int:
        # slots 0..horizon-1 drive the state; slot `horizon` is the feedthrough point
        return self.horizon + 1

    @property
    def n_groups(self) -> int:
        return self.n_vertices * self.n_slots

    def z_eps(self) -> slice:
        return slice(0, self.n_b)


def build_gbar(sys: LtiSystem, Y: HPolytope, params: RpiParams) -> np.ndarray:
    """(s, m_y, n_x): the per-term output maps Gbar_t = (1-alpha)^-1 G C A^t
    for t = 0..s-1, each Gbar_(t-1) A (``power_chain``)."""
    return power_chain((1.0 / (1.0 - params.alpha)) * (Y.G @ sys.C), sys.A, params.s)


def output_rhs(gbar: np.ndarray, Y: HPolytope, params: RpiParams) -> np.ndarray:
    """Right-hand side g - lambda * sum_t |Gbar_t| 1 of the budget rows, the
    terms summed in t order."""
    return Y.g - params.lam * np.abs(gbar).sum(axis=2).sum(axis=0)


def _box_rows(T: np.ndarray, N: int) -> Coo:
    """kron(I_N, [T, |T|]): row block j is the support T c_j + |T| e_j of box j
    in the directions T, over the box columns [c_0, e_0, c_1, e_1, ...] of x;
    the zeros of T are left out, not stored."""
    return kron(N, np.hstack([T, np.abs(T)]))


def tail_charge(gbar: np.ndarray, sys: LtiSystem, layout: VariableLayout) -> np.ndarray:
    """sum_{t>=t0} |Gbar_t B|, (m_y, n_rho), summed in t order: the budget
    rows' charge on rho, no column without a tail."""
    return np.abs(gbar[layout.t0 :] @ sys.B).sum(axis=0)[:, : layout.n_rho]


def encode_output_inclusion(gbar: np.ndarray, sys: LtiSystem, Y: HPolytope, params: RpiParams, layout: VariableLayout):
    """Rows bounding the reachable-output support by the budget variables.

    Per box j and term t < t0:  Gbar_t B c_j + |Gbar_t B| e_j <= Q_t, and the
    feedthrough rows G D c_j + |G D| e_j <= r.  When t0 < s, the terms t >= t0
    share rho >= |c_j| + e_j (every box j, entrywise), since the support of
    box j in direction v is at most |v| rho; finally the budget sums
    sum_{t<t0} Q_t + r + (sum_{t>=t0} |Gbar_t B|) rho <= g - lambda sum_t |Gbar_t| 1.
    """
    rhs = output_rhs(gbar, Y, params)
    if np.min(rhs) < -1e-12 * max(1.0, float(np.max(np.abs(Y.g)))):
        warnings.warn(
            f"negative output budget at row {int(np.argmin(rhs))}; "
            "the synthesis problem is infeasible for these parameters",
            RuntimeWarning,
        )
    N, m_y, t0 = layout.n_boxes, layout.m_y, layout.t0
    n_q = t0 * m_y
    terms = (gbar[:t0] @ sys.B).reshape(n_q, layout.n_w)  # row t * m_y + i
    per_box = -np.ones((N, 1))  # every box's row block charges the same budgets
    S = stacked_identity(layout.n_rho)  # 0 x 0 without a tail, so its rows are empty
    tail = tail_charge(gbar, sys, layout)
    blocks = [
        [_box_rows(terms, N), kron(per_box, n_q), None, None],
        [_box_rows(Y.G @ sys.D, N), None, kron(per_box, m_y), None],
        [_box_rows(S, N), None, None, kron(per_box, np.abs(S))],
        [None, kron(np.ones((1, t0)), m_y), kron(1, m_y), tail],
    ]
    n_zero = N * (n_q + m_y) + 2 * N * layout.n_rho
    return stack(blocks, [2 * N * layout.n_w, n_q, m_y, layout.n_rho]), np.concatenate([np.zeros(n_zero), rhs])


def encode_gamma_bound(sys: LtiSystem, gamma: float, layout: VariableLayout):
    """Rows keeping every box image B*box inside the gamma cube."""
    IB = stacked_identity(sys.n_x) @ sys.B
    return stack([[_box_rows(IB, layout.n_boxes)]], [layout.dim_x]), np.full(layout.n_boxes * IB.shape[0], gamma)


def encode_origin(layout: VariableLayout):
    """Rows forcing the origin into the first box: |c_1| <= e_1."""
    return stack([[kron([[1.0, -1.0], [-1.0, -1.0]], layout.n_w)]], [layout.dim_x]), np.zeros(2 * layout.n_w)


def encode_vertex_reach(vertices: np.ndarray, reach: np.ndarray, layout: VariableLayout, H: np.ndarray):
    """Vertex-coverage blocks: reach equalities over the slot maps ``reach``
    (``reach_coefficients`` at the layout's horizon), deviation rows
    H b_i <= eps, and the simplex rows.

    A group is one (vertex, slot) pair, and every group-indexed block is
    group-major: w by (group, coordinate) and beta by (group, box).  Returns
    (c_w, c_z, h, e_z, t_beta).
    """
    v, N = layout.n_vertices, layout.n_boxes
    groups, n_out = layout.n_groups, v * layout.n_y
    # row (i, k): sum_t reach_t[k] w_(i, t) + b_i[k] = vertex_i[k]
    c_w = kron(v, np.hstack(reach))
    c_z = stack([[None, kron(1, n_out)]], [layout.n_b, n_out])
    h = np.asarray(vertices, dtype=float).ravel()
    # row (i, k): H[k] b_i - eps[k] <= 0
    e_z = stack([[kron(-np.ones((v, 1)), layout.n_b), kron(v, H)]], [layout.n_b, n_out])
    t_beta = kron(groups, np.ones((1, N)))
    return c_w, c_z, h, e_z, t_beta


@dataclass(frozen=True, eq=False)  # compared by identity: the fields are arrays
class StepProgram:
    """One alternation step's program, less the block its frozen factor sets.

    ``fixed`` holds every other entry of the matrix as triplets sorted by
    (row, column); ``block(factor)`` builds the factor's entries, exact zeros
    left out, as triplets whose rows count from row ``first``; it reshapes the
    factor to its exact shape, so a factor of any other size raises
    ValueError.  ``lp`` joins the two and sorts them once with ``csr``.

    ``rows`` maps each row of the full layout to its row in the program, -1
    for one ``_step_program`` deleted, and ``kept`` marks the full layout's
    columns that the program keeps; ``lp`` renumbers the block's rows and
    drops its entries in deleted rows.  The block's columns precede every
    deleted one.
    """

    c: np.ndarray
    b: np.ndarray
    n_eq: int
    lb: np.ndarray
    fixed: Coo
    first: int
    block: Callable[[np.ndarray], Coo]
    rows: np.ndarray
    kept: np.ndarray

    def lp(self, factor: np.ndarray) -> LpProblem:
        """The program with ``factor`` filled in."""
        fixed, block = self.fixed, self.block(factor)
        row = self.rows[block.row + self.first]
        live = row >= 0
        row, col, val = (np.concatenate(pair) for pair in zip(fixed[:3], (row[live], block.col[live], block.val[live])))
        return LpProblem(self.c, csr(Coo(row, col, val, fixed.shape)), self.b, self.n_eq, self.lb)


def _step_program(c, lb, fixed: Coo, b, n_eq, first, block, dead) -> StepProgram:
    """The program of ``fixed`` and ``block`` from row ``first``, the last ``n_eq`` rows equalities,
    less the columns the mask ``dead`` marks and every row with an entry in one
    (``delete_columns``); ``fixed`` is cut and sorted here once, so each ``csr`` of a step merges it
    with the block."""
    fixed, rows = delete_columns(fixed, dead)
    kept, live = ~dead, rows >= 0
    n_eq = int(np.count_nonzero(live[b.size - n_eq :]))
    c, lb, b = c[kept], lb[kept], b[live]
    order = np.argsort(fixed.row * fixed.shape[1] + fixed.col, kind="stable")
    fixed = Coo(fixed.row[order], fixed.col[order], fixed.val[order], fixed.shape)
    return StepProgram(c, b, n_eq, lb, fixed, first, block, rows, kept)


def _p_program(layout: VariableLayout, cost_z, a_x, b, c_w, c_z, h, e_z, dead) -> StepProgram:
    """The P-step program over (x, w, z), its block the weights', less the
    columns ``dead`` marks and the rows they enter.

    Rows: a_x's; the membership rows +-(w_g - sum_j beta_gj c_j) - sum_j
    beta_gj e_j <= 0 by (group, coordinate, sign), w_g in the blended box;
    e_z's; then [0, c_w, c_z] = h.  The block is kron(beta by (group, box), P)
    in the box columns of the membership rows, P the sign pattern from
    (coordinate, sign) to (center or halfwidth, coordinate): box j's center
    entry is beta_gj times -+1 and its halfwidth entry -beta_gj.  The
    halfwidths and the eps slacks are nonnegative.
    """
    lay = layout
    nx, nw, n_boxes = lay.dim_x, lay.n_w, lay.n_boxes
    z_off, n_rows = nx + lay.dim_w, 2 * lay.dim_w
    eye = np.eye(nw)
    P = np.hstack([np.kron(eye, [[-1.0], [1.0]]), np.kron(eye, [[-1.0], [-1.0]])])
    fixed = stack(
        [[a_x, None, None], [None, kron(lay.dim_w, [[1.0], [-1.0]]), None], [None, None, e_z], [None, c_w, c_z]],
        [nx, lay.dim_w, lay.dim_z],
    )
    c = np.concatenate([np.zeros(z_off), cost_z])
    lb = np.full(c.size, -np.inf)
    lb[: 2 * n_boxes * nw].reshape(n_boxes, 2, nw)[:, 1] = 0.0  # the halfwidths
    lb[z_off + lay.z_eps().start : z_off + lay.z_eps().stop] = 0.0
    rhs = np.concatenate([b, np.zeros(n_rows + e_z.shape[0]), h])
    return _step_program(
        c, lb, fixed, rhs, h.size, a_x.shape[0], lambda beta: kron(np.reshape(beta, (lay.n_groups, n_boxes)), P), dead
    )


def _q_program(layout: VariableLayout, reach, cost_z, c_z, h, e_z, t_beta) -> StepProgram:
    """The Q-step program over (beta, z), its block the group points wbar's.

    Rows: [0, e_z] <= 0; the reach rows with w = blockdiag(wbar_g^T) beta
    substituted, by (vertex, output), then c_z's, = h; then [t_beta, 0] = 1.
    The block holds, in row (i, y), the entry sum_k reach[t, y, k]
    wbar_(i,t),j,k of every slot t and box j of vertex i, summed in k order
    from 0.  The weights and the eps slacks are nonnegative.
    """
    lay = layout
    nb, n_y, n_slots, n_boxes = lay.dim_beta, lay.n_y, lay.n_slots, lay.n_boxes
    shape = (lay.n_vertices, n_slots, n_boxes, lay.n_w)
    coef = reach.transpose(2, 1, 0)[..., None]  # by (term k, output, slot, box)
    i, y, t, j = np.indices((lay.n_vertices, n_y, n_slots, n_boxes))
    rows, cols = i * n_y + y, (i * n_slots + t) * n_boxes + j

    def block(wbar: np.ndarray) -> Coo:
        points = np.reshape(wbar, shape)
        vals = np.zeros(rows.shape)
        for k in range(lay.n_w):
            vals = vals + coef[k] * points[:, None, :, :, k]
        keep = vals != 0.0
        return Coo(rows[keep], cols[keep], vals[keep], (lay.n_vertices * n_y, nb))

    fixed = stack([[None, e_z], [None, c_z], [t_beta, None]], [nb, lay.dim_z])
    c = np.concatenate([np.zeros(nb), cost_z])
    lb = np.full(c.size, -np.inf)
    lb[:nb] = 0.0
    lb[nb + lay.z_eps().start : nb + lay.z_eps().stop] = 0.0
    rhs = np.concatenate([np.zeros(e_z.shape[0]), h, np.ones(t_beta.shape[0])])
    return _step_program(c, lb, fixed, rhs, h.size + t_beta.shape[0], e_z.shape[0], block, np.zeros(c.size, bool))


def dead_columns(reach: np.ndarray, tail: np.ndarray, layout: VariableLayout) -> np.ndarray:
    """The P-step columns (x, w, z) that an exactly zero input map leaves dead,
    as a mask: coordinate k of w in every group (vertex, slot t) whose slot
    map ``reach[t][:, k]`` is exactly zero (``dead_points``), and the tail
    bound rho_k whose charge ``tail[:, k]`` (``tail_charge``) is exactly zero.
    Such a column enters no row but its own: w_gk its two membership rows,
    which w_gk = sum_j beta_gj c_jk keeps for any boxes, and rho_k its 2N rows
    +-c_jk + e_jk <= rho_k, which rho_k = max_j |c_jk| + e_jk keeps.  Only
    exact zeros count."""
    lay = layout
    dead = np.zeros(lay.dim_x + lay.dim_w + lay.dim_z, dtype=bool)
    dead[lay.dim_x - lay.n_rho : lay.dim_x] = ~tail.any(axis=0)
    dead[lay.dim_x : lay.dim_x + lay.dim_w] = dead_points(reach, lay.n_vertices).ravel()
    return dead


@dataclass(frozen=True)
class SynthProblem:
    """The layout of the synthesis program and its P-step and Q-step programs;
    the P-step program leaves out its ``dead_columns`` and the rows they enter."""

    layout: VariableLayout
    p_program: StepProgram
    q_program: StepProgram


def tail_start(mass: np.ndarray, frac: float) -> int:
    """The smallest t in 1..len(mass)-1 whose tail sum(mass[t:]) is at most
    ``frac`` of sum(mass), or len(mass) when no t is."""
    tail = np.cumsum(mass[::-1])[::-1]  # tail[t] = sum over k >= t
    short = np.flatnonzero(tail[1:] <= frac * tail[0])
    return int(short[0]) + 1 if short.size else mass.size


# the alternation's coverage horizon leaves out the reach terms whose
# coefficients sum to at most this fraction of the sum over the full horizon
SHORT_HORIZON_TAIL = 0.03


def short_horizon(sys: LtiSystem, horizon: int) -> int:
    """``tail_start`` of the entrywise sums |C A^k B|, k < horizon, at
    SHORT_HORIZON_TAIL.

    The origin lies in every synthesized W (``encode_origin``), so a W whose
    outputs reach within the widths at horizon t reaches within them at any
    longer horizon: the missing terms can take the disturbance 0.
    """
    return tail_start(np.abs(reach_coefficients(sys, horizon)[-2::-1]).sum(axis=(1, 2)), SHORT_HORIZON_TAIL)


# the output-inclusion terms whose maps sum to at most this fraction of the
# sum over all s terms share one tail bound rho in the budget rows
BUDGET_TAIL = 0.001


def budget_tail(sys: LtiSystem, Y: HPolytope, params: RpiParams) -> int:
    """``tail_start`` of the entrywise sums |Gbar_t B|, t < s, at BUDGET_TAIL:
    the t0 of the output-inclusion rows (``encode_output_inclusion``)."""
    return tail_start(np.abs(build_gbar(sys, Y, params) @ sys.B).sum(axis=(1, 2)), BUDGET_TAIL)


def assemble(
    sys: LtiSystem, Y: HPolytope, Y_vertices: np.ndarray, params: RpiParams, n_boxes: int, horizon: int,
    H: np.ndarray, t0: int,
) -> SynthProblem:
    """Build the problem for a vertex list of Y, repeats merged
    (``merge_vertices``); the output-inclusion terms t >= t0 share one tail
    bound, and t0 = s keeps every term's own rows."""
    if n_boxes < 1:
        raise EncodingError("need at least one box")
    if not 1 <= t0 <= params.s:
        raise EncodingError(f"t0 must lie in 1..s = {params.s}")
    vertices = merge_vertices(Y_vertices)
    if vertices.shape[1] != sys.n_y:
        raise EncodingError("vertex dimension mismatch")
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape[1] != sys.n_y:
        raise EncodingError("H column count must match the output dimension")
    layout = VariableLayout(
        n_boxes=n_boxes, n_vertices=vertices.shape[0], horizon=horizon, s=params.s,
        n_w=sys.n_w, n_y=sys.n_y, m_y=Y.n_rows, n_b=H.shape[0], t0=t0,
    )
    gbar, reach = build_gbar(sys, Y, params), reach_coefficients(sys, horizon)
    a1, b1 = encode_output_inclusion(gbar, sys, Y, params, layout)
    a2, b2 = encode_gamma_bound(sys, params.gamma, layout)
    a3, b3 = encode_origin(layout)
    c_w, c_z, h, e_z, t_beta = encode_vertex_reach(vertices, reach, layout, H)
    cost_z = np.zeros(layout.dim_z)
    cost_z[layout.z_eps()] = 1.0
    a_x, b = stack([[a1], [a2], [a3]], [layout.dim_x]), np.concatenate([b1, b2, b3])
    dead = dead_columns(reach, tail_charge(gbar, sys, layout), layout)
    return SynthProblem(
        layout=layout,
        p_program=_p_program(layout, cost_z, a_x, b, c_w, c_z, h, e_z, dead),
        q_program=_q_program(layout, reach, cost_z, c_z, h, e_z, t_beta),
    )
