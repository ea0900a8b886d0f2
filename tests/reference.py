"""Reference computations that tests compare the package against."""

import numpy as np

from distsynth import BoxHullSet
from distsynth.encoder import SynthProblem
from distsynth.lp_solver import solve_lp
from distsynth.setgeom import hull_reach_lp
from distsynth.verifier import _reach_coefficients


def scaled(W: BoxHullSet, factor: float) -> BoxHullSet:
    """The image of W under w -> factor * w."""
    return BoxHullSet(factor * W.centers, abs(factor) * W.halfwidths)


def program_residual(problem: SynthProblem, point: dict) -> float:
    """Largest violation of any block of the synthesis program by an
    (x, w, wbar, beta, z) point, such as ``SynthResult.witness``."""
    x, w, wbar = point["x"], point["w"], point["wbar"]
    beta, z = point["beta"], point["z"]
    worst = float(np.max(problem.a_x @ x - problem.b, initial=-np.inf))
    worst = max(worst, float(np.max(problem.d_x @ x + problem.d_wbar @ wbar, initial=-np.inf)))
    worst = max(worst, float(np.max(np.abs(problem.c_w @ w + problem.c_z @ z - problem.h), initial=-np.inf)))
    worst = max(worst, float(np.max(problem.e_z @ z, initial=-np.inf)))
    worst = max(worst, float(np.max(np.abs(problem.t_beta @ beta - 1.0), initial=-np.inf)))
    worst = max(worst, float(np.max(-beta, initial=-np.inf)))
    lay = problem.layout
    weights = beta.reshape(lay.n_groups, lay.n_boxes)
    recon = np.einsum("gj,gjk->gk", weights, wbar.reshape(*weights.shape, lay.n_w))
    worst = max(worst, float(np.max(np.abs(w.reshape(lay.n_groups, lay.n_w) - recon))))
    return worst


def inflation_margins(sys, vertices, W: BoxHullSet, horizon: int, H, epsilon) -> np.ndarray:
    """-t per vertex, t the least uniform inflation of the widths under which
    the horizon-reachable outputs reach the vertex: one cold LP each."""
    coeff = _reach_coefficients(sys, horizon)
    margins = []
    for y in vertices:
        out = solve_lp(hull_reach_lp(coeff, y[None], W, H, -np.ones((H.shape[0], 1)), -np.inf, epsilon))
        assert out.optimal
        margins.append(-out.objective)
    return np.array(margins)
