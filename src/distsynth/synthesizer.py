"""Alternating LP minimization of the bilinear synthesis program.

The bilinear coupling w = sum_j beta_j wbar_j is linear once either factor is
frozen.  The P step fixes the convex weights; sum_j beta_j box_j is then the
box with center sum_j beta_j c_j and halfwidth sum_j beta_j e_j, so the LP
optimizes the boxes and the driving points under w in sum_j beta_j box_j
alone, and the per-group points are recovered in closed form.  The Q step
fixes those points and reweights them; when every group's points coincide,
all weights tie and the spread weights (vertex i on box i mod N) are
returned in place of the solver's pick.  Each step's optimum is feasible for
the next, so the objective is nonincreasing and the loop terminates for any
positive tolerance.  The P-steps of one run share their shape, so each after
the first starts from the previous one's final basis.  A multi-start
refinement around the incumbent weights replaces nonlinear polishing; its
restarts run one after another on the calling thread, and a restart whose LP
fails is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .encoder import SynthProblem, VariableLayout
from .lp_solver import PRIMAL_TOL, LpProblem, solve_lp
from .setgeom import Box, BoxHullSet


class SynthesisError(RuntimeError):
    def __init__(self, message: str, lp: LpProblem | None = None):
        super().__init__(message)
        self.lp = lp


@dataclass
class SynthResult:
    W: BoxHullSet
    epsilon: np.ndarray
    objective: float
    history: list[float]
    termination: str
    iterations: int
    witness: dict
    p_nit: list[int]  # simplex iterations of each P-step


def uniform_beta(layout: VariableLayout) -> np.ndarray:
    return np.full(layout.dim_beta, 1.0 / layout.n_boxes)


def spread_beta(layout: VariableLayout) -> np.ndarray:
    """One-hot weights tying every slot of vertex i to box i mod N."""
    beta = np.zeros((layout.n_vertices, layout.n_slots, layout.n_boxes))
    vertex = np.arange(layout.n_vertices)
    beta[vertex, :, vertex % layout.n_boxes] = 1.0
    return beta.ravel()


def heuristic_beta(layout: VariableLayout) -> np.ndarray:
    """One-hot weights tying vertex i to box i; needs as many boxes as vertices."""
    if layout.n_boxes != layout.n_vertices:
        raise ValueError("one-hot weights need n_boxes == n_vertices")
    return spread_beta(layout)


def pad_beta(old: VariableLayout, new: VariableLayout, beta: np.ndarray) -> np.ndarray:
    """Re-embed weights into a layout with more boxes (zero on the new ones)."""
    if (old.n_vertices, old.horizon) != (new.n_vertices, new.horizon):
        raise ValueError("layouts must share vertices and horizon")
    if new.n_boxes < old.n_boxes:
        raise ValueError("target layout must not have fewer boxes")
    out = np.zeros((new.n_vertices * new.n_slots, new.n_boxes))
    out[:, : old.n_boxes] = beta.reshape(-1, old.n_boxes)
    return out.ravel()


def _box_cols(layout: VariableLayout):
    """(N, n_w) column indices of the box centers and of the halfwidths in x."""
    cols = np.arange(2 * layout.n_boxes * layout.n_w).reshape(layout.n_boxes, 2, layout.n_w)
    return cols[:, 0], cols[:, 1]


def boxes_from_x(problem: SynthProblem, x: np.ndarray) -> BoxHullSet:
    center_cols, half_cols = _box_cols(problem.layout)
    halfwidths = np.clip(x[half_cols], 0.0, None)
    return BoxHullSet(tuple(Box(c, e) for c, e in zip(x[center_cols], halfwidths)))


def _bilinear_rows_fixed_wbar(problem: SynthProblem, wbar, w_off, beta_off, width):
    bil = problem.bilinear
    n_w = problem.layout.n_w
    rows_w = np.arange(bil.n_groups)[:, None] * n_w + np.arange(n_w)[None, :]
    r1 = rows_w.ravel()
    c1 = (w_off + bil.w_cols).ravel()
    d1 = np.ones(r1.size)
    r2 = np.repeat(rows_w[:, None, :], problem.layout.n_boxes, axis=1).ravel()
    c2 = np.repeat((beta_off + bil.beta_cols)[:, :, None], n_w, axis=2).ravel()
    d2 = -wbar[bil.wbar_cols].ravel()
    mat = sp.csr_matrix(
        (np.concatenate([d1, d2]), (np.concatenate([r1, r2]), np.concatenate([c1, c2]))),
        shape=(bil.n_groups * n_w, width),
    )
    return mat


def _membership_rows_fixed_beta(problem: SynthProblem, beta, w_off, width):
    """Rows +-(w_g - sum_j beta_gj c_j) - sum_j beta_gj e_j <= 0 by (group,
    coordinate, sign): w_g in the blended box.  Zero weights add no entries."""
    bil = problem.bilinear
    center_cols, half_cols = _box_cols(problem.layout)
    rows = np.arange(bil.w_cols.size * 2).reshape(*bil.w_cols.shape, 2)
    sign = np.array([1.0, -1.0])
    g, j = np.nonzero(beta[bil.beta_cols])
    weight = beta[bil.beta_cols[g, j]][:, None, None]
    parts = [
        np.broadcast_arrays(rows, (w_off + bil.w_cols)[:, :, None], sign),
        np.broadcast_arrays(rows[g], center_cols[j][:, :, None], -sign * weight),
        np.broadcast_arrays(rows[g], half_cols[j][:, :, None], -weight),
    ]
    r, c, d = (np.concatenate([part[k].ravel() for part in parts]) for k in range(3))
    return sp.csr_matrix((d, (r, c)), shape=(rows.size, width))


def _closed_form_wbar(problem: SynthProblem, x, w, beta) -> np.ndarray:
    """Group points wbar_gj = c_j + e_j * t_g with sum_j beta_gj wbar_gj = w_g.

    t_g = clip((w_g - sum beta c) / sum beta e, -1, 1), and 0 where the
    blended halfwidth vanishes, so every point lies in its own box.
    """
    bil = problem.bilinear
    center_cols, half_cols = _box_cols(problem.layout)
    centers, halfwidths = x[center_cols], np.clip(x[half_cols], 0.0, None)
    weights = beta[bil.beta_cols]
    center_g, half_g = weights @ centers, weights @ halfwidths
    offset = w[bil.w_cols] - center_g
    t = np.divide(offset, half_g, out=np.zeros_like(offset), where=half_g > 0.0)
    t = np.clip(t, -1.0, 1.0)
    wbar = np.empty(problem.layout.dim_wbar)
    wbar[bil.wbar_cols] = centers + halfwidths * t[:, None, :]
    return wbar


def p_step(problem: SynthProblem, beta: np.ndarray, basis=None):
    """Fix the weights; solve for boxes, budgets, driving points and slacks.

    The group points are recovered in closed form from the optimum.  With
    ``basis`` (an earlier P-step's, whose program differs only in the weight
    coefficients) the solve starts from it, pricing with Devex.
    Returns (x, w, wbar, z, objective, outcome); the LP outcome carries the
    basis for the next P-step and the iteration count.
    """
    lay = problem.layout
    nx, nw, nz = lay.dim_x, lay.dim_w, lay.dim_z
    width = nx + nw + nz
    w_off, z_off = nx, nx + nw

    def empty(rows, cols):
        return sp.csr_matrix((rows, cols))

    member = _membership_rows_fixed_beta(problem, beta, w_off, width)
    a_ub = sp.vstack(
        [
            sp.hstack([problem.a_x, empty(problem.a_x.shape[0], nw + nz)]),
            member,
            sp.hstack([empty(problem.e_z.shape[0], nx + nw), problem.e_z]),
        ],
        format="csr",
    )
    b_ub = np.concatenate([problem.b, np.zeros(member.shape[0]), np.zeros(problem.e_z.shape[0])])
    a_eq = sp.hstack([empty(problem.c_w.shape[0], nx), problem.c_w, problem.c_z], format="csr")

    c = np.zeros(width)
    c[z_off:] = problem.cost_z
    lb = np.full(width, -np.inf)
    lb[_box_cols(lay)[1]] = 0.0
    lb[z_off + lay.z_eps().start : z_off + lay.z_eps().stop] = 0.0

    lp = LpProblem(c, a_ub, b_ub, a_eq, problem.h, lb=lb)
    out = solve_lp(lp, basis=basis, devex=True)
    if not out.optimal:
        raise SynthesisError(f"box-fitting LP ended with status {out.status}", lp)
    sol = out.x
    x, w = sol[:nx], sol[w_off:z_off]
    return x, w, _closed_form_wbar(problem, x, w, beta), sol[z_off:], float(out.objective), out


def q_step(problem: SynthProblem, wbar: np.ndarray):
    """Fix the group points; reweight them and refit the slacks.

    Returns (w, z, beta, objective).
    """
    lay = problem.layout
    nw, nb, nz = lay.dim_w, lay.dim_beta, lay.dim_z
    width = nw + nb + nz
    beta_off, z_off = nw, nw + nb

    def empty(rows, cols):
        return sp.csr_matrix((rows, cols))

    a_ub = sp.hstack([empty(problem.e_z.shape[0], nw + nb), problem.e_z], format="csr")
    b_ub = np.zeros(problem.e_z.shape[0])
    a_eq = sp.vstack(
        [
            sp.hstack([problem.c_w, empty(problem.c_w.shape[0], nb), problem.c_z]),
            sp.hstack(
                [empty(problem.t_beta.shape[0], nw), problem.t_beta, empty(problem.t_beta.shape[0], nz)]
            ),
            _bilinear_rows_fixed_wbar(problem, wbar, 0, beta_off, width),
        ],
        format="csr",
    )
    b_eq = np.concatenate(
        [problem.h, np.ones(problem.t_beta.shape[0]), np.zeros(problem.bilinear.n_groups * lay.n_w)]
    )
    c = np.zeros(width)
    c[z_off:] = problem.cost_z
    lb = np.full(width, -np.inf)
    lb[beta_off:z_off] = 0.0
    lb[z_off + lay.z_eps().start : z_off + lay.z_eps().stop] = 0.0

    lp = LpProblem(c, a_ub, b_ub, a_eq, b_eq, lb=lb)
    out = solve_lp(lp)
    if not out.optimal:
        raise SynthesisError(f"reweighting LP ended with status {out.status}", lp)
    sol = out.x
    beta = sol[beta_off:z_off]
    points = wbar[problem.bilinear.wbar_cols]
    if np.all(np.ptp(points, axis=1) <= PRIMAL_TOL):
        # every group's points coincide, so every weight is optimal: replace
        # the solver's arbitrary pick by a fixed one
        beta = spread_beta(lay)
    return sol[:nw], sol[z_off:], beta, float(out.objective)


def alternate(
    problem: SynthProblem,
    beta0: np.ndarray,
    zeta: float = 1e-4,
    max_iters: int = 100,
) -> SynthResult:
    """Alternate the two LPs until the objective improves by less than zeta.

    The P-steps of one run differ only in their weight coefficients, so each
    starts from the previous one's final basis.  The first is solved cold, and
    so is a later one at the spread weights, which a Q-step tie-break returns:
    the run then continues as a fresh one started from them would.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    beta = np.asarray(beta0, dtype=float)
    spread = spread_beta(problem.layout)
    history: list[float] = []
    p_nit: list[int] = []
    basis = None
    prev_obj = None
    termination = "max-iterations"
    for it in range(1, max_iters + 1):
        try:
            x, w_p, wbar, z_p, p_obj, p_out = p_step(problem, beta, basis)
            w, z, beta_new, q_obj = q_step(problem, wbar)
        except SynthesisError as exc:
            raise SynthesisError(f"iteration {it}: {exc}", exc.lp) from exc
        history += [p_obj, q_obj]
        p_nit.append(p_out.nit)
        current = (x, w, wbar, beta_new, z, q_obj)
        if prev_obj is not None and q_obj >= prev_obj - zeta:
            termination = "converged"
            break
        prev_obj = q_obj
        beta = beta_new
        basis = None if np.array_equal(beta, spread) else p_out.basis
    x, w, wbar, beta_fin, z, obj = current
    return SynthResult(
        W=boxes_from_x(problem, x),
        epsilon=z[problem.layout.z_eps()].copy(),
        objective=obj,
        history=history,
        termination=termination,
        iterations=it,
        witness={"x": x, "w": w, "wbar": wbar, "beta": beta_fin, "z": z},
        p_nit=p_nit,
    )


def witness_residual(problem: SynthProblem, witness: dict) -> float:
    """Largest violation of any block by a (x, w, wbar, beta, z) witness."""
    x, w, wbar = witness["x"], witness["w"], witness["wbar"]
    beta, z = witness["beta"], witness["z"]
    worst = float(np.max(problem.a_x @ x - problem.b, initial=-np.inf))
    worst = max(worst, float(np.max(problem.d_x @ x + problem.d_wbar @ wbar, initial=-np.inf)))
    worst = max(worst, float(np.max(np.abs(problem.c_w @ w + problem.c_z @ z - problem.h), initial=-np.inf)))
    worst = max(worst, float(np.max(problem.e_z @ z, initial=-np.inf)))
    worst = max(worst, float(np.max(np.abs(problem.t_beta @ beta - 1.0), initial=-np.inf)))
    worst = max(worst, float(np.max(-beta, initial=-np.inf)))
    bil = problem.bilinear
    recon = np.einsum("gj,gjk->gk", beta[bil.beta_cols], wbar[bil.wbar_cols])
    worst = max(worst, float(np.max(np.abs(w[bil.w_cols] - recon))))
    return worst


_JITTER_CONCENTRATION = 50.0  # Dirichlet concentration of restart weights around the incumbent


def _jittered_beta(layout: VariableLayout, beta, rng):
    # one draw per group, in group order
    groups = beta.reshape(-1, layout.n_boxes)
    return np.concatenate([rng.dirichlet(_JITTER_CONCENTRATION * g + 1e-3) for g in groups])


def refine(
    problem: SynthProblem,
    result: SynthResult,
    restarts: int,
    rng: np.random.Generator,
    zeta: float = 1e-4,
    max_iters: int = 100,
) -> SynthResult:
    """Multi-start alternation from weight jitter; never worse than the input.

    Every restart's weights are drawn up front, one independent spawned
    stream each; the restarts then run in order on the calling thread.  A
    restart whose LP fails is dropped and the best of the rest is kept.
    """
    if restarts <= 0:
        return result
    starts = [_jittered_beta(problem.layout, result.witness["beta"], stream) for stream in rng.spawn(restarts)]
    best = result
    for beta0 in starts:
        try:
            cand = alternate(problem, beta0, zeta=zeta, max_iters=max_iters)
        except SynthesisError:
            continue
        if cand.objective < best.objective:
            best = cand
    return best
