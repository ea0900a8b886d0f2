import dataclasses

import numpy as np
import pytest
import scipy.optimize
from scipy.spatial import ConvexHull

from distsynth import (
    Box,
    BoxHullSet,
    ConstantsAccumulator,
    HPolytope,
    LtiSystem,
    RpiParams,
    alternate,
    assemble,
    compute_constants,
    distance_dY,
    h_preset,
    monte_carlo,
    select_params,
    uniform_beta,
    verify_coverage,
    verify_gamma,
    verify_output_inclusion,
    verify_params,
    vertices_hpoly,
)
from distsynth import verifier
from distsynth.lp_solver import solve_lp
from distsynth.setgeom import sample_batch, stacked_identity
from distsynth.verifier import _reach_coefficients

from conftest import random_hull, random_stable_system


def unit_box_constraints(n):
    return HPolytope(stacked_identity(n), np.ones(2 * n))


ORIGIN2 = BoxHullSet((Box([0.0, 0.0], [0.0, 0.0]),))

# certified for the conftest plant and pentagon (gamma=0.2, mu=1e-3, s=60)
CERTIFIED_W = BoxHullSet(
    (
        Box([-0.0429, -0.032], [0.0457, 0.032]),
        Box([0.0451, -0.0525], [0.0, 0.0135]),
    )
)


class TestVerifyParams:
    def test_selected_params_pass(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        cert = verify_params(plant, pentagon, params)
        assert cert.passed
        assert all(c.margin >= -1e-9 for c in cert.checks)

    def test_undersized_alpha_fails_contraction(self, plant, pentagon):
        good = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        bad = RpiParams(good.s, good.alpha / 10.0, good.lam, good.gamma, good.mu)
        cert = verify_params(plant, pentagon, bad)
        assert not cert.passed
        failing = {c.name for c in cert.checks if not c.passed}
        assert "contraction" in failing

    def test_random_systems_pass(self):
        rng = np.random.default_rng(60)
        for _ in range(5):
            sys = random_stable_system(rng, rho=0.6)
            Y = unit_box_constraints(2)
            params = select_params(sys, Y, gamma=1.0, mu=1e-2)
            assert verify_params(sys, Y, params).passed

    def test_margins_match_the_search_constants(self, plant, pentagon):
        rng = np.random.default_rng(61)
        cases = [(plant, pentagon, 0.2, 1e-3)]
        cases += [(random_stable_system(rng, rho=0.8), unit_box_constraints(2), 1.0, 1e-2) for _ in range(3)]
        for sys, Y, g, mu in cases:
            p = select_params(sys, Y, gamma=g, mu=mu)
            k = compute_constants(sys, Y, p.s)
            expected = {
                "constraint-margin": (1.0 - p.alpha) * k.theta_s - p.lam,
                "contraction": p.alpha * p.lam - (g + p.lam) * k.zeta_s,
                "approximation-error": (1.0 - p.alpha) * mu - (p.alpha * g + p.lam) * k.M_s,
            }
            margins = {c.name: c.margin for c in verify_params(sys, Y, p).checks}
            for name, value in expected.items():
                assert abs(margins[name] - value) <= 1e-12, name

    def test_catches_an_off_by_one_in_the_search_constants(self, plant, pentagon, monkeypatch):
        step = ConstantsAccumulator.step

        def zeta_one_power_late(acc):
            # zeta on A^{s+1} instead of A^s, which drops the A^s B W term
            consts = step(acc)
            late = float(np.abs(acc._A_pow @ acc._A).sum(axis=1).max())
            return dataclasses.replace(consts, zeta_s=late)

        monkeypatch.setattr(ConstantsAccumulator, "step", zeta_one_power_late)
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        assert params.s == 59
        cert = verify_params(plant, pentagon, params)
        failing = {c.name for c in cert.checks if not c.passed}
        assert "contraction" in failing


class TestVerifyOutputInclusion:
    def test_zero_disturbance_passes(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        cert = verify_output_inclusion(plant, pentagon, params, ORIGIN2)
        assert cert.passed

    def test_inflated_set_fails(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        W = BoxHullSet((Box([0.0, 0.0], [0.05, 0.05]),))
        assert verify_output_inclusion(plant, pentagon, params, W.scaled(1000.0)).passed is False

    def test_synthesized_set_passes(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        V = vertices_hpoly(pentagon)
        problem = assemble(plant, pentagon, V, params, 2, 10, h_preset("box", 2))
        res = alternate(problem, uniform_beta(problem.layout), zeta=1e-4, max_iters=30)
        assert verify_output_inclusion(plant, pentagon, params, res.W).passed


class TestVerifyGamma:
    def test_zero_set_margin_is_gamma(self, plant):
        cert = verify_gamma(plant, ORIGIN2, 0.2)
        assert cert.passed
        assert cert.checks[0].margin == pytest.approx(0.2)

    def test_tight_cube_margin_zero(self):
        sys = LtiSystem(0.5 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        W = BoxHullSet((Box([0.0, 0.0], [0.3, 0.3]),))
        cert = verify_gamma(sys, W, 0.3)
        assert cert.passed
        assert cert.checks[0].margin == pytest.approx(0.0, abs=1e-15)

    def test_matches_corner_enumeration(self, plant):
        rng = np.random.default_rng(61)
        for _ in range(50):
            W = random_hull(rng, n_boxes=2, scale=0.3)
            worst = max(
                np.linalg.norm(plant.B @ v, np.inf)
                for box in W.boxes
                for v in box.corners()
            )
            gamma = 0.5
            cert = verify_gamma(plant, W, gamma)
            assert cert.checks[0].margin == pytest.approx(gamma - worst, abs=1e-10)
            assert cert.passed == (worst <= gamma + 1e-8)


class TestDistanceDY:
    def test_large_set_reaches_all_vertices(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        V = vertices_hpoly(unit_box_constraints(2))
        W = BoxHullSet((Box([0.0, 0.0], [5.0, 5.0]),))
        eps, obj = distance_dY(sys, V, W, 1, h_preset("box", 2))
        assert obj == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(eps, 0.0, atol=1e-9)

    def test_zero_set_needs_unit_deviation(self):
        rng = np.random.default_rng(62)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        V = vertices_hpoly(unit_box_constraints(2))
        eps, obj = distance_dY(sys, V, ORIGIN2, 3, h_preset("box", 2))
        assert np.allclose(eps, 1.0, atol=1e-9)
        assert obj == pytest.approx(4.0, abs=1e-8)

    def test_bounded_by_synthesizer_witness(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        V = vertices_hpoly(pentagon)
        H = h_preset("uniform:6", 2)
        problem = assemble(plant, pentagon, V, params, 2, 12, H)
        res = alternate(problem, uniform_beta(problem.layout), zeta=1e-4, max_iters=30)
        _, exact = distance_dY(plant, V, res.W, 12, H)
        assert exact <= res.objective + 1e-6

    def test_monotone_in_set_growth(self):
        rng = np.random.default_rng(63)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        V = vertices_hpoly(unit_box_constraints(2))
        H = h_preset("box", 2)
        for _ in range(10):
            W1 = random_hull(rng, n_boxes=2, scale=0.2)
            W2 = BoxHullSet(tuple(Box(b.center, 1.5 * b.halfwidth) for b in W1.boxes))
            _, d1 = distance_dY(sys, V, W1, 3, H)
            _, d2 = distance_dY(sys, V, W2, 3, H)
            assert d2 <= d1 + 1e-9


def _polygon_hrep(points):
    hull = ConvexHull(points)
    return hull.equations[:, :2], -hull.equations[:, 2]


def _minkowski_polygons(polys):
    acc = polys[0]
    for nxt in polys[1:]:
        sums = (acc[:, None, :] + nxt[None, :, :]).reshape(-1, 2)
        acc = sums[ConvexHull(sums).vertices]
    return acc


def _geometric_distance(sys, vertices, W, horizon, H):
    """Exact coverage distance via explicit planar Minkowski geometry."""
    coeff = _reach_coefficients(sys, horizon)
    corners = np.vstack([b.corners() for b in W.boxes])
    polys = []
    for Mmap in coeff:
        pts = corners @ Mmap.T
        polys.append(pts[ConvexHull(pts).vertices])
    reach = _minkowski_polygons(polys)
    n_b = H.shape[0]
    n_vert = len(vertices)
    # variables: b_i (2 each), eps (n_b)
    width = 2 * n_vert + n_b
    rows, cols, data, b_ub = [], [], [], []
    r = 0
    for i, y in enumerate(vertices):
        Gp, gp = _polygon_hrep(y - reach)
        for k in range(len(gp)):
            rows += [r, r]
            cols += [2 * i, 2 * i + 1]
            data += [Gp[k, 0], Gp[k, 1]]
            b_ub.append(gp[k])
            r += 1
        for k in range(n_b):
            rows += [r, r, r]
            cols += [2 * i, 2 * i + 1, 2 * n_vert + k]
            data += [H[k, 0], H[k, 1], -1.0]
            b_ub.append(0.0)
            r += 1
    import scipy.sparse as sp

    A = sp.csr_matrix((data, (rows, cols)), shape=(r, width))
    c = np.concatenate([np.zeros(2 * n_vert), np.ones(n_b)])
    bounds = [(None, None)] * (2 * n_vert) + [(0, None)] * n_b
    res = scipy.optimize.linprog(c, A_ub=A, b_ub=np.array(b_ub), bounds=bounds, method="highs")
    assert res.status == 0
    return float(res.fun)


class TestCrossEncoding:
    def test_matches_exact_geometric_oracle(self):
        rng = np.random.default_rng(64)
        H = h_preset("box", 2)
        for trial in range(200):
            sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=rng.uniform(0.3, 0.7))
            W = random_hull(rng, n_boxes=2, scale=0.4)
            n_vert = int(rng.integers(2, 5))
            vertices = rng.uniform(-1.5, 1.5, (n_vert, 2))
            _, lp_val = distance_dY(sys, vertices, W, 3, H)
            geo_val = _geometric_distance(sys, vertices, W, 3, H)
            assert lp_val == pytest.approx(geo_val, abs=2e-7)

    def test_matches_literal_weight_grid(self):
        """Exhaustive per-group simplex grid over the coupled encoding; the
        grid optimum can only sit above the exact distance, within a
        Lipschitz cell bound."""
        rng = np.random.default_rng(65)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.4)
        H = h_preset("box", 2)
        W = random_hull(rng, n_boxes=2, scale=0.4)
        vertices = np.array([[0.8, 0.3], [-0.4, 0.6]])
        horizon = 1
        _, lp_val = distance_dY(sys, vertices, W, horizon, H)

        coeff = _reach_coefficients(sys, horizon)
        c0, c1 = W.centers
        h0, h1 = W.halfwidths
        grid = np.linspace(0.0, 1.0, 9)

        def solve_windows(betas):
            # betas: weight of box 0 per (vertex, slot); windows become boxes
            rows, cols, data, b_ub = [], [], [], []
            width = 2 * len(vertices) + H.shape[0]
            r = 0
            for i, y in enumerate(vertices):
                center = np.zeros(2)
                gens = []  # (2,) generator per slot component
                for slot in range(2):
                    b = betas[i, slot]
                    center += coeff[slot] @ (b * c0 + (1 - b) * c1)
                    gens.append(coeff[slot] * (b * h0 + (1 - b) * h1)[None, :])
                # window polygon of reach around center: zonotope corners
                corners = []
                for s0 in np.array(np.meshgrid(*([[-1, 1]] * 4))).T.reshape(-1, 4):
                    pt = center + gens[0] @ s0[:2] + gens[1] @ s0[2:]
                    corners.append(pt)
                pts = np.array(corners)
                Gp, gp = _polygon_hrep(y - pts)
                for k in range(len(gp)):
                    rows += [r, r]
                    cols += [2 * i, 2 * i + 1]
                    data += [Gp[k, 0], Gp[k, 1]]
                    b_ub.append(gp[k])
                    r += 1
                for k in range(H.shape[0]):
                    rows += [r, r, r]
                    cols += [2 * i, 2 * i + 1, 2 * len(vertices) + k]
                    data += [H[k, 0], H[k, 1], -1.0]
                    b_ub.append(0.0)
                    r += 1
            import scipy.sparse as sp

            A = sp.csr_matrix((data, (rows, cols)), shape=(r, width))
            c = np.concatenate([np.zeros(2 * len(vertices)), np.ones(H.shape[0])])
            bounds = [(None, None)] * (2 * len(vertices)) + [(0, None)] * H.shape[0]
            res = scipy.optimize.linprog(c, A_ub=A, b_ub=np.array(b_ub), bounds=bounds, method="highs")
            return float(res.fun) if res.status == 0 else np.inf

        best = np.inf
        for b00 in grid:
            for b01 in grid:
                for b10 in grid:
                    for b11 in grid:
                        best = min(best, solve_windows(np.array([[b00, b01], [b10, b11]])))
        step = grid[1] - grid[0]
        lipschitz = sum(
            float(np.sum(np.abs(H @ coeff[slot]) @ (np.abs(c0 - c1) + np.abs(h0 - h1))))
            for slot in range(2)
        )
        assert lp_val <= best + 1e-7
        assert best <= lp_val + 2 * step * lipschitz + 1e-7


class TestVerifyCoverage:
    def test_exact_epsilon_passes(self):
        rng = np.random.default_rng(66)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        V = vertices_hpoly(unit_box_constraints(2))
        H = h_preset("box", 2)
        W = random_hull(rng, n_boxes=2, scale=0.2)
        eps, _ = distance_dY(sys, V, W, 3, H)
        cert = verify_coverage(sys, V, W, 3, H, eps)
        assert cert.passed

    def test_halved_epsilon_fails_somewhere(self):
        rng = np.random.default_rng(67)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        V = vertices_hpoly(unit_box_constraints(2))
        H = h_preset("box", 2)
        eps, obj = distance_dY(sys, V, ORIGIN2, 3, H)
        assert obj > 0.1
        cert = verify_coverage(sys, V, ORIGIN2, 3, H, eps / 2.0)
        assert not cert.passed

    @pytest.mark.parametrize("halve", [False, True])
    def test_warm_started_margins_match_cold_solves_in_both_orders(self, plant, pentagon, halve, monkeypatch):
        V = vertices_hpoly(pentagon)
        H = h_preset("uniform:6", 2)
        eps, _ = distance_dY(plant, V, CERTIFIED_W, 59, H)
        if halve:
            eps = eps / 2.0
        warm_starts = []

        def counting(lp, basis=None):
            warm_starts.append(basis is not None)
            return solve_lp(lp, basis)

        monkeypatch.setattr(verifier, "solve_lp", counting)
        for order in (slice(None), slice(None, None, -1)):
            warm_starts.clear()
            warm = verify_coverage(plant, V[order], CERTIFIED_W, 59, H, eps)
            assert warm_starts == [False] + [True] * (len(V) - 1)
            cold = [
                verify_coverage(plant, V[order][i : i + 1], CERTIFIED_W, 59, H, eps).checks[0].margin
                for i in range(len(V))
            ]
            assert np.allclose([c.margin for c in warm.checks], cold, rtol=0.0, atol=1e-12)
            assert warm.passed is not halve

    def test_origin_vertex_with_zero_widths(self):
        rng = np.random.default_rng(68)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        W = BoxHullSet((Box([0.0, 0.0], [0.1, 0.1]),))
        cert = verify_coverage(sys, np.zeros((1, 2)), W, 2, h_preset("box", 2), np.zeros(4))
        assert cert.passed


def per_run_monte_carlo(sys, W, Y, T, runs, rng, tol=1e-8):
    """Reference for monte_carlo: one run after another, one step at a time."""
    violations, worst = 0, 0.0
    for _ in range(runs):
        x = np.zeros(sys.n_x)
        for w in sample_batch(W, T, rng):
            excess = Y.G @ (sys.C @ x + sys.D @ w) - Y.g
            worst = max(worst, float(excess.max()))
            violations += int(np.any(excess > tol))
            x = sys.A @ x + sys.B @ w
    return violations, max(0.0, worst)


class TestMonteCarlo:
    def test_matches_per_run_reference(self, plant, pentagon):
        for W in (CERTIFIED_W, CERTIFIED_W.scaled(10.0)):
            rep = monte_carlo(plant, W, pentagon, T=2000, runs=4, rng=np.random.default_rng(3))
            violations, worst = per_run_monte_carlo(plant, W, pentagon, 2000, 4, np.random.default_rng(3))
            assert rep.violations == violations
            assert rep.max_excursion == pytest.approx(worst, rel=0.0, abs=1e-12)
            assert rep.steps == 8000
        # the inflated set exercises the counter, not only 0 == 0
        assert violations > 0

    def test_zero_set_zero_violations(self, plant, pentagon):
        rep = monte_carlo(plant, ORIGIN2, pentagon, T=500, runs=3, rng=np.random.default_rng(0))
        assert rep.violations == 0
        assert rep.max_excursion == 0.0
        assert rep.steps == 1500

    def test_soundness_chain(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        V = vertices_hpoly(pentagon)
        problem = assemble(plant, pentagon, V, params, 2, 12, h_preset("box", 2))
        res = alternate(problem, uniform_beta(problem.layout), zeta=1e-4, max_iters=30)
        assert verify_params(plant, pentagon, params).passed
        assert verify_gamma(plant, res.W, params.gamma).passed
        assert verify_output_inclusion(plant, pentagon, params, res.W).passed
        rep = monte_carlo(plant, res.W, pentagon, T=10_000, runs=20, rng=np.random.default_rng(1))
        assert rep.violations == 0

    def test_inflated_set_reports_violations(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        V = vertices_hpoly(pentagon)
        problem = assemble(plant, pentagon, V, params, 2, 12, h_preset("box", 2))
        res = alternate(problem, uniform_beta(problem.layout), zeta=1e-4, max_iters=30)
        rep = monte_carlo(
            plant, res.W.scaled(10.0), pentagon, T=2000, runs=3, rng=np.random.default_rng(2)
        )
        # reported, not asserted as a guarantee; record that the counter moves
        assert rep.violations >= 0
        assert rep.max_excursion >= 0.0
