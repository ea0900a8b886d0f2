"""Alternating LP minimization of the bilinear synthesis program.

The bilinear coupling w = sum_j beta_j wbar_j is linear once either factor is
frozen.  The P step fixes the convex weights; sum_j beta_j box_j is then the
box with center sum_j beta_j c_j and halfwidth sum_j beta_j e_j, so the LP
optimizes the boxes and the driving points under w in sum_j beta_j box_j
alone, and the per-group points are recovered in closed form.  The Q step
fixes those points and reweights them over (beta, z) alone, with w =
blockdiag(wbar_g^T) beta substituted into the reach rows; when every group's
points coincide, all weights tie and the spread weights (vertex i on box
i mod N) are returned in place of the solver's pick.  Both steps read w, beta
and wbar from the group-major layout by reshape; their per-step rows are
Kronecker and block-diagonal blocks in a fixed order, which matters: a box no
group weights is free in the P step, and where the solver puts it steers
later steps.  Each step's optimum is feasible for the next, so the objective
is nonincreasing and the loop terminates for any positive tolerance.  Each
step after the first starts from the previous same-kind step's final basis.
A multi-start refinement around the incumbent weights replaces nonlinear
polishing; its restarts run concurrently, the first on the calling thread and
the rest on a small thread pool (HiGHS releases the GIL while it solves), and a
restart whose LP fails is dropped.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .encoder import SynthProblem, VariableLayout
from .lp_solver import PRIMAL_TOL, LpFailure, solve_lp
from .setgeom import BoxHullSet, box_points


class SynthesisError(LpFailure):
    pass


@dataclass(eq=False)  # compared by identity: beta is an array
class SynthResult:
    W: BoxHullSet
    objective: float
    history: list[float]
    termination: str
    iterations: int
    beta: np.ndarray  # the last Q-step's weights
    p_nit: list[int]  # simplex iterations of each P-step


def spread_beta(layout: VariableLayout) -> np.ndarray:
    """One-hot weights tying every slot of vertex i to box i mod N."""
    beta = np.zeros((layout.n_vertices, layout.n_slots, layout.n_boxes))
    vertex = np.arange(layout.n_vertices)
    beta[vertex, :, vertex % layout.n_boxes] = 1.0
    return beta.ravel()


def _boxes(layout: VariableLayout, x: np.ndarray) -> np.ndarray:
    """(N, 2, n_w) view of the box centers and halfwidths that lead x."""
    return x[: 2 * layout.n_boxes * layout.n_w].reshape(layout.n_boxes, 2, layout.n_w)


def boxes_from_x(problem: SynthProblem, x: np.ndarray) -> BoxHullSet:
    boxes = _boxes(problem.layout, x)
    return BoxHullSet(boxes[:, 0], np.clip(boxes[:, 1], 0.0, None))


def p_step(problem: SynthProblem, beta: np.ndarray, basis=None):
    """Fix the weights; solve for boxes, budgets, driving points and slacks.

    The group points wbar_gj are recovered in closed form from the optimum,
    each in its own box with sum_j beta_gj wbar_gj = w_g (``box_points``).  With
    ``basis`` (an earlier P-step's, whose program differs only in the weight
    coefficients) the solve starts from it.  Returns (x, w, wbar, z,
    objective, outcome); the outcome carries the basis for the next P-step.
    """
    lay = problem.layout
    nx, z_off = lay.dim_x, lay.dim_x + lay.dim_w  # columns (x, w, z)
    lp = problem.p_program.lp(beta)
    out = solve_lp(lp, basis=basis)
    if not out.optimal:
        raise SynthesisError(f"box-fitting LP ended with status {out.status}", lp)
    sol = out.x
    x, w = sol[:nx], sol[nx:z_off]
    W = boxes_from_x(problem, x)
    weights = beta.reshape(lay.n_groups, lay.n_boxes)
    wbar = box_points(W.centers, W.halfwidths, weights, w.reshape(lay.n_groups, lay.n_w))
    return x, w, wbar.ravel(), sol[z_off:], float(out.objective), out


def q_step(problem: SynthProblem, wbar: np.ndarray, basis=None):
    """Fix the group points; reweight them and refit the slacks.

    w = blockdiag(wbar_g^T) beta is substituted into the reach rows, so the LP
    runs over (beta, z); ``basis`` is an earlier Q-step's, as in ``p_step``.
    Returns (beta, objective, outcome).
    """
    lay = problem.layout
    lp = problem.q_program.lp(wbar)
    out = solve_lp(lp, basis=basis)
    if not out.optimal:
        raise SynthesisError(f"reweighting LP ended with status {out.status}", lp)
    beta = out.x[: lay.dim_beta]  # columns (beta, z)
    if np.all(np.ptp(wbar.reshape(lay.n_groups, lay.n_boxes, lay.n_w), axis=1) <= PRIMAL_TOL):
        # every group's points coincide, so every weight is optimal: replace
        # the solver's arbitrary pick by a fixed one
        beta = spread_beta(lay)
    return beta, float(out.objective), out


# the stopping rule: an iteration that improves the objective by less than
# ZETA ends the alternation, and MAX_ITERS iterations end it anyway
ZETA = 1e-4
MAX_ITERS = 100


def alternate(problem: SynthProblem, beta0: np.ndarray) -> SynthResult:
    """Alternate the two LPs until the objective improves by less than ZETA.

    ``ZETA`` and ``MAX_ITERS`` are read at call time.  The P-steps of one run
    differ only in their weight coefficients and the Q-steps only in their
    point coefficients, so each step after the run's first starts from the
    previous same-kind step's final basis.
    """
    beta = np.asarray(beta0, dtype=float)
    history: list[float] = []
    p_nit: list[int] = []
    p_basis = q_basis = None
    prev_obj = None
    termination = "max-iterations"
    for it in range(1, MAX_ITERS + 1):
        try:
            x, _, wbar, _, p_obj, p_out = p_step(problem, beta, p_basis)
            beta, q_obj, q_out = q_step(problem, wbar, q_basis)
        except SynthesisError as exc:
            raise SynthesisError(f"iteration {it}: {exc}", exc.lp) from exc
        history += [p_obj, q_obj]
        p_nit.append(p_out.nit)
        if prev_obj is not None and q_obj >= prev_obj - ZETA:
            termination = "converged"
            break
        prev_obj, p_basis, q_basis = q_obj, p_out.basis, q_out.basis
    return SynthResult(
        W=boxes_from_x(problem, x),
        objective=q_obj,
        history=history,
        termination=termination,
        iterations=it,
        beta=beta,
        p_nit=p_nit,
    )


_JITTER_CONCENTRATION = 50.0  # Dirichlet concentration of restart weights around the incumbent


def _jittered_beta(layout: VariableLayout, beta, rng):
    # one draw per group, in group order
    groups = beta.reshape(-1, layout.n_boxes)
    return np.concatenate([rng.dirichlet(_JITTER_CONCENTRATION * g + 1e-3) for g in groups])


def _restart(problem: SynthProblem, beta0: np.ndarray) -> SynthResult | None:
    """One restart's alternation, or None if one of its LPs fails."""
    try:
        return alternate(problem, beta0)
    except SynthesisError:
        return None


def refine(problem: SynthProblem, result: SynthResult, restarts: int, rng: np.random.Generator) -> SynthResult:
    """Multi-start alternation from weight jitter; never worse than the input.

    Every restart's weights are drawn up front, one independent spawned
    stream each.  The calling thread runs the first restart while a pool of
    max(1, min(restarts, cores) - 1) threads runs the rest (HiGHS releases
    the GIL while it solves); the pool is closed before this returns.  A
    restart whose LP fails is dropped, and the rest are compared in start
    order, an earlier one kept on a tie, so the result is the one a serial
    loop would give.
    """
    if restarts <= 0:
        return result
    starts = [_jittered_beta(problem.layout, result.beta, stream) for stream in rng.spawn(restarts)]
    with ThreadPoolExecutor(max(1, min(restarts, os.cpu_count() or 1) - 1)) as pool:
        rest = [pool.submit(_restart, problem, beta0) for beta0 in starts[1:]]
        cands = [_restart(problem, starts[0])] + [future.result() for future in rest]
    best = result
    for cand in cands:
        if cand is not None and cand.objective < best.objective:
            best = cand
    return best
