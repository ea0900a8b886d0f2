from itertools import product

import numpy as np
import pytest

from distsynth import BoxHullSet, HPolytope, LtiSystem, lp_solver


@pytest.fixture(scope="session")
def plant():
    """Three-state planar-output test system with a pentagonal constraint set."""
    A = np.array(
        [
            [-0.5844, -0.2378, -0.2015],
            [-0.2378, 0.0368, 0.6915],
            [-0.2015, 0.6915, -0.0162],
        ]
    )
    B = np.array([[0.0, 0.8974], [0.0, -1.8597], [0.8903, 0.9479]])
    C = np.array([[0.0, 2.0091, -0.1402], [-0.9894, 0.0, 1.1447]])
    D = np.array([[-0.8078, 0.0], [0.9676, 0.6751]])
    return LtiSystem(A, B, C, D)


@pytest.fixture(scope="session")
def pentagon():
    G = np.array(
        [
            [-0.4489, 2.1848],
            [-1.9691, 1.2596],
            [1.0364, 0.8726],
            [1.4018, -0.3397],
            [-0.9868, -2.0995],
        ]
    )
    return HPolytope(G, np.ones(5))


@pytest.fixture(scope="session")
def hidden_block_plant():
    """Partitioned-plant mapping: hidden block drives the standard problem."""
    A22 = np.array(
        [
            [-0.0790, 0.2854, -0.0377, 0.6949],
            [0.2854, -0.2284, 0.2752, 0.3536],
            [-0.0377, 0.2752, 0.6021, -0.2824],
            [0.6949, 0.3536, -0.2824, -0.0129],
        ]
    )
    A21 = np.array([[0.0, 0.0204], [0.0, 0.0344], [0.0, -0.0339], [0.0, 0.0134]])
    C2 = np.array([[0.8716, 0.3587, 0.2407, 0.5116], [-0.1863, 0.1624, 0.7122, 1.7494]])
    C1 = np.array([[0.9407, -0.3282], [-0.6624, -0.7257]])
    return LtiSystem(A22, A21, C2, C1)


def random_stable_system(rng, n_x=3, n_w=2, n_y=2, rho=0.7, symmetric=True):
    A = rng.standard_normal((n_x, n_x))
    if symmetric:
        A = 0.5 * (A + A.T)
    A = A * (rho / np.max(np.abs(np.linalg.eigvals(A))))
    B = rng.standard_normal((n_x, n_w))
    C = rng.standard_normal((n_y, n_x))
    D = rng.standard_normal((n_y, n_w))
    return LtiSystem(A, B, C, D)


def hull_of(boxes) -> BoxHullSet:
    """The hull of (center, halfwidth) pairs, in order."""
    centers, halfwidths = zip(*boxes)
    return BoxHullSet(np.array(centers), np.array(halfwidths))


def random_hull(rng, n_w=2, n_boxes=3, scale=1.0) -> BoxHullSet:
    return hull_of(
        (scale * rng.uniform(-1.0, 1.0, n_w), scale * rng.uniform(0.0, 1.0, n_w)) for _ in range(n_boxes)
    )


def brute_force_hull_vertices(W: BoxHullSet) -> np.ndarray:
    """All member-box corners, box by box; the hull's extreme points are among them."""
    signs = list(product((-1.0, 1.0), repeat=W.dim))
    return np.array([c + np.array(s) * e for c, e in zip(W.centers, W.halfwidths) for s in signs])


def prices_with_devex(highs) -> bool:
    """Whether a HiGHS instance prices its dual simplex with Devex."""
    _, strategy = highs.getOptionValue("simplex_dual_edge_weight_strategy")
    return strategy == int(lp_solver._DEVEX)


def solves_by_primal(highs) -> bool:
    """Whether a HiGHS instance runs primal simplex (otherwise dual)."""
    _, strategy = highs.getOptionValue("simplex_strategy")
    return strategy == int(lp_solver._PRIMAL)
