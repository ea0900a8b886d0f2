import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.spatial import ConvexHull

from distsynth import lp_solver, rpi_params, setgeom, synthesizer, verifier
from distsynth.cli import ResultDoc, cmd_gen, cmd_reduce, cmd_synth, parse_spec
from distsynth.encoder import assemble, h_preset
from distsynth.lp_solver import BASIC, RESIDUAL_TOL, _scaled_residual, solve_lp
from distsynth.rpi_params import RpiParams, select_params
from distsynth.setgeom import (
    BoxHullSet,
    GeometryError,
    HPolytope,
    LtiSystem,
    dead_points,
    reach_coefficients,
    sample_batch,
    stacked_identity,
    vertices_hpoly,
)
from distsynth.synthesizer import alternate
from distsynth.verifier import (
    distance_dY,
    monte_carlo,
    verify_coverage,
    verify_gamma,
    verify_output_inclusion,
    verify_params,
)

from conftest import (
    brute_force_hull_vertices,
    prices_with_devex,
    random_hull,
    random_stable_system,
    solves_by_primal,
)
from reference import (
    assert_same_matrix,
    basis_point,
    constants_at,
    distance_slack,
    inflation_slack,
    matrix_power_constants,
    monte_carlo_last_axis,
    output_inclusion_loop,
    reach_reference,
    sample_batch_blend,
    scaled,
    scipy_reach_lp,
    uniform_beta,
)


def unit_box_constraints(n):
    return HPolytope(stacked_identity(n), np.ones(2 * n))


ROOT = Path(__file__).resolve().parents[1]

ORIGIN2 = BoxHullSet([[0.0, 0.0]], [[0.0, 0.0]])

# certified for the conftest plant and pentagon (gamma=0.2, mu=1e-3, s=60)
CERTIFIED_W = BoxHullSet([[-0.0429, -0.032], [0.0451, -0.0525]], [[0.0457, 0.032], [0.0, 0.0135]])


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
            k = constants_at(sys, Y, p.s)
            expected = {
                "constraint-margin": (1.0 - p.alpha) * k.theta_s - p.lam,
                "contraction": p.alpha * p.lam - (g + p.lam) * k.zeta_s,
                "approximation-error": (1.0 - p.alpha) * mu - (p.alpha * g + p.lam) * k.M_s,
            }
            margins = {c.name: c.margin for c in verify_params(sys, Y, p).checks}
            for name, value in expected.items():
                assert abs(margins[name] - value) <= 1e-12, name

    def test_catches_an_off_by_one_in_the_search_constants(self, plant, pentagon, monkeypatch):
        real = rpi_params.horizon_constants

        def zeta_one_power_late(sys, Y):
            # zeta on A^{s+1} instead of A^s, which drops the A^s B W term
            for consts in real(sys, Y):
                late = float(np.abs(np.linalg.matrix_power(sys.A, consts.s + 1)).sum(axis=1).max())
                yield dataclasses.replace(consts, zeta_s=late)

        monkeypatch.setattr(rpi_params, "horizon_constants", zeta_one_power_late)
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        assert params.s == 59
        cert = verify_params(plant, pentagon, params)
        failing = {c.name for c in cert.checks if not c.passed}
        assert "contraction" in failing


class TestHorizonSums:
    """The verifier's stacked horizon sums equal the per-term forms bit for bit."""

    @pytest.mark.parametrize("n_x", [1, 2, 4, 6])
    def test_constants_and_margins_equal_the_per_term_forms(self, n_x):
        rng = np.random.default_rng(360 + n_x)
        sys = random_stable_system(rng, n_x=n_x, rho=0.9, symmetric=False)
        Y = HPolytope(rng.standard_normal((5, 2)), np.ones(5))
        W = random_hull(rng, scale=0.1)
        # 63, 64 and 65 straddle a power of two; 151 is the long-horizon workload's s
        for s in (1, 2, 3, 4, 5, 63, 64, 65, 151):
            powers = verifier._binary_powers(sys.A, s)
            for t in range(s + 1):
                assert np.array_equal(powers[t], np.linalg.matrix_power(sys.A, t)), (s, t)
            assert verifier._horizon_constants(sys, Y, s) == matrix_power_constants(sys, Y, s)
            for params in (RpiParams(s, 0.5, 0.01, 1.0, 0.1), RpiParams(s, 0.9, 0.3, 1.0, 0.1)):
                assert verify_output_inclusion(sys, Y, params, W) == output_inclusion_loop(sys, Y, params, W)


class TestVerifyOutputInclusion:
    def test_rejects_an_output_set_of_another_dimension(self, plant):
        params = RpiParams(5, 0.5, 0.01, 1.0, 0.1)
        with pytest.raises(GeometryError, match="output dimension"):
            verify_output_inclusion(plant, unit_box_constraints(3), params, CERTIFIED_W)

    def test_zero_disturbance_passes(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        cert = verify_output_inclusion(plant, pentagon, params, ORIGIN2)
        assert cert.passed

    def test_inflated_set_fails(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        W = BoxHullSet([[0.0, 0.0]], [[0.05, 0.05]])
        assert verify_output_inclusion(plant, pentagon, params, scaled(W, 1000.0)).passed is False

    def test_synthesized_set_passes(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        V = vertices_hpoly(pentagon)
        problem = assemble(plant, pentagon, V, params, 2, 10, h_preset("box", 2), params.s)
        res = alternate(problem, uniform_beta(problem.layout))
        assert verify_output_inclusion(plant, pentagon, params, res.W).passed


class TestVerifyGamma:
    def test_zero_set_margin_is_gamma(self, plant):
        cert = verify_gamma(plant, ORIGIN2, 0.2)
        assert cert.passed
        assert cert.checks[0].margin == pytest.approx(0.2)

    def test_tight_cube_margin_zero(self):
        sys = LtiSystem(0.5 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        W = BoxHullSet([[0.0, 0.0]], [[0.3, 0.3]])
        cert = verify_gamma(sys, W, 0.3)
        assert cert.passed
        assert cert.checks[0].margin == pytest.approx(0.0, abs=1e-15)

    def test_matches_corner_enumeration(self, plant):
        rng = np.random.default_rng(61)
        for _ in range(50):
            W = random_hull(rng, n_boxes=2, scale=0.3)
            worst = max(np.linalg.norm(plant.B @ v, np.inf) for v in brute_force_hull_vertices(W))
            gamma = 0.5
            cert = verify_gamma(plant, W, gamma)
            assert cert.checks[0].margin == pytest.approx(gamma - worst, abs=1e-10)
            assert cert.passed == (worst <= gamma + 1e-8)


class TestDistanceDY:
    def test_large_set_reaches_all_vertices(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        V = vertices_hpoly(unit_box_constraints(2))
        W = BoxHullSet([[0.0, 0.0]], [[5.0, 5.0]])
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
        problem = assemble(plant, pentagon, V, params, 2, 12, H, params.s)
        res = alternate(problem, uniform_beta(problem.layout))
        _, exact = distance_dY(plant, V, res.W, 12, H)
        assert exact <= res.objective + 1e-6

    def test_monotone_in_set_growth(self):
        rng = np.random.default_rng(63)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        V = vertices_hpoly(unit_box_constraints(2))
        H = h_preset("box", 2)
        for _ in range(10):
            W1 = random_hull(rng, n_boxes=2, scale=0.2)
            W2 = BoxHullSet(W1.centers, 1.5 * W1.halfwidths)
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
    coeff = reach_reference(sys, horizon)
    corners = brute_force_hull_vertices(W)
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

        coeff = reach_reference(sys, horizon)
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


# zero-width box appended to the random-71 hull, the support point of some groups
ZERO_WIDTH_BOX = 0.25 * np.ones(3)


@functools.lru_cache(maxsize=None)
def _synthesized(case):
    """The spec and result of ``synth`` on a bundled spec ("spec-illustrative",
    "spec-long-horizon") or a ``gen`` problem ("gen-n_x-n_w-n_y-seed", rho 0.7,
    two restarts)."""
    if case == "spec-illustrative":
        spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
    elif case == "spec-long-horizon":
        spec = cmd_reduce(json.loads((ROOT / "specs" / "reduced_order_plant.json").read_text()))
    else:
        n_x, n_w, n_y, seed = map(int, case.split("-")[1:])
        spec = cmd_gen(n_x, n_w, n_y, 0.7, seed)
        spec.options.restarts = 2
    return spec, cmd_synth(spec)


def _reach_case(case):
    """(sys, vertices, W, horizon, H, epsilon) of the frozen illustrative
    result, of a small random problem (with a zero-width box added to W for
    "zero-width") or of a result ``_synthesized`` makes."""
    if case == "illustrative":
        spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
        doc = ResultDoc.from_dict(json.loads((ROOT / "perfbench" / "data" / "illustrative_result.json").read_text()))
    elif case in ("random-71", "zero-width"):
        rng = np.random.default_rng(71)
        sys = random_stable_system(rng, n_x=3, n_w=3, n_y=2, rho=0.5)
        V, W, H = vertices_hpoly(unit_box_constraints(2)), random_hull(rng, 3, 2, 0.2), h_preset("box", 2)
        if case == "zero-width":
            W = BoxHullSet(np.vstack([W.centers, ZERO_WIDTH_BOX]), np.vstack([W.halfwidths, np.zeros(3)]))
        return sys, V, W, 4, H, np.ones(H.shape[0])
    else:
        spec, doc = _synthesized(case)
    return spec.sys, spec.resolve_vertices(), doc.W, doc.horizon, doc.H, doc.epsilon


class TestReachProgramShape:
    """One point of n_w coordinates and N weights per group (vertex, slot):
    n n_y + g + 2 g n_w + n n_b rows and g (n_w + N) + n n_y + m columns for
    n vertices, g = n (l + 1) groups and m slack columns."""

    @staticmethod
    def expected(n, n_y, n_w, N, horizon, n_b, m):
        g = n * (horizon + 1)
        return n * n_y + g + 2 * g * n_w + n * n_b, g * (n_w + N) + n * n_y + m

    @pytest.mark.parametrize("case", ["illustrative", "random-71"])
    def test_distance_and_vertex_programs(self, case, monkeypatch):
        sys, V, W, horizon, H, eps = _reach_case(case)
        shapes = []

        def spy(lp, basis=None, **kwargs):
            shapes.append((lp.a.shape[0], lp.n_vars))
            return solve_lp(lp, basis, **kwargs)

        monkeypatch.setattr(verifier, "solve_lp", spy)
        distance_dY(sys, V, W, horizon, H)
        verify_coverage(sys, V[:1], W, horizon, H, eps)
        verify_coverage(sys, V, W, horizon, H, eps)
        n, dims = len(V), (sys.n_y, sys.n_w, W.n_boxes, horizon, H.shape[0])
        assert shapes == [self.expected(n, *dims, H.shape[0]), self.expected(1, *dims, 1), self.expected(n, *dims, n)]
        if case == "illustrative":
            assert shapes[0] == (1540, 1816)


def assert_same_lp(lp, ref):
    """Two programs hand HiGHS the same arrays, bit for bit."""
    assert_same_matrix(lp.a, ref.a)
    assert lp.n_eq == ref.n_eq
    for name in ("c", "b", "lb"):
        assert getattr(lp, name).tobytes() == getattr(ref, name).tobytes(), name


class TestReachProgramMatchesScipyReference:
    """``_reach_lp`` and its two slack builders build, from index triplets,
    the programs of the scipy.sparse constructor chain in ``reference``."""

    @pytest.mark.parametrize("case", ["illustrative", "random-71", "origin-box"])
    def test_distance_and_coverage_programs(self, case, monkeypatch):
        sys, V, W, horizon, H, eps = _reach_case("random-71" if case == "origin-box" else case)
        if case == "origin-box":  # a singleton box at the origin: its blended rows are exact zeros
            W = BoxHullSet(np.vstack([W.centers, np.zeros(W.dim)]), np.vstack([W.halfwidths, np.zeros(W.dim)]))
        programs = []

        def spy(lp, **kwargs):
            programs.append(lp)
            return solve_lp(lp, **kwargs)

        monkeypatch.setattr(verifier, "solve_lp", spy)
        verifier.distance_witness(sys, V, W, horizon, H)
        verify_coverage(sys, V, W, horizon, H, eps)
        coeff, n, n_b = reach_coefficients(sys, horizon), len(V), H.shape[0]
        distance, coverage = programs
        # the widths shared by every vertex, bounded below by 0
        assert_same_lp(distance, scipy_reach_lp(coeff, V, W, H, distance_slack(n, n_b), 0.0, np.zeros(n * n_b)))
        # one free inflation per vertex
        ref = scipy_reach_lp(coeff, V, W, H, inflation_slack(n, n_b), -np.inf, np.tile(eps, n))
        assert_same_lp(coverage, ref)
        assert (distance.a.data != 0.0).all() and (coverage.a.data != 0.0).all()
        # a dense slack, as the tests' per-vertex programs pass one
        dense = -np.ones((n_b, 1))
        assert_same_lp(
            verifier._reach_lp(coeff, V[:1], W, H, dense, -np.inf, eps, dead_points(coeff, 1)),
            scipy_reach_lp(coeff, V[:1], W, H, dense, -np.inf, eps),
        )


class TestSimplexStrategy:
    """The programs over a fixed W start warm by primal simplex, from
    ``_reach_start``; re-solves from an answer's own basis and every synthesis
    program run dual simplex."""

    def test_fixed_w_programs_start_warm_by_primal_and_synthesis_by_dual(self, plant, pentagon, monkeypatch):
        runs = []
        real = lp_solver._run

        def spy(lp, presolve, basis, primal, highs):
            highs = real(lp, presolve, basis, primal, highs)
            runs.append((basis is not None, solves_by_primal(highs), prices_with_devex(highs)))
            return highs

        monkeypatch.setattr(lp_solver, "_run", spy)
        V = vertices_hpoly(pentagon)
        H = h_preset("uniform:6", 2)
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        problem = assemble(plant, pentagon, V, params, 2, 12, H, params.s)
        monkeypatch.setattr(synthesizer, "MAX_ITERS", 5)
        alternate(problem, uniform_beta(problem.layout))
        synthesis, runs[:] = list(runs), []
        eps, _, _ = verifier.distance_witness(plant, V, CERTIFIED_W, 59, H)
        distance, runs[:] = list(runs), []
        assert verify_coverage(plant, V, CERTIFIED_W, 59, H, eps).passed
        coverage = list(runs)
        # P-steps and Q-steps: dual simplex, Devex-priced when warm
        assert any(warm for warm, _, _ in synthesis)
        assert all(not primal and devex is warm for warm, primal, devex in synthesis)
        # the exact distance: warm from its start basis by primal simplex
        assert distance[0] == (True, True, True)
        assert all(devex is warm for warm, _, devex in distance)
        # the coverage program over all vertices: one run, warm by primal simplex
        assert coverage == [(True, True, True)]

    @pytest.mark.parametrize("case", ["illustrative", "random-71"])
    def test_distance_is_the_dual_simplex_optimum(self, case, monkeypatch):
        sys, V, W, horizon, H, _ = _reach_case(case)
        programs = []

        def spy(lp, **kwargs):
            programs.append(lp)
            return solve_lp(lp, **kwargs)

        monkeypatch.setattr(verifier, "solve_lp", spy)
        _, objective, _ = verifier.distance_witness(sys, V, W, horizon, H)
        (lp,) = programs
        dual = solve_lp(lp)
        assert dual.optimal
        assert objective == pytest.approx(dual.objective, rel=1e-9, abs=0.0)


FIXED_W_CASES = [
    "illustrative", "spec-illustrative", "spec-long-horizon",
    "gen-3-2-2-0", "gen-3-2-2-1", "gen-6-2-2-0", "gen-6-2-2-1",
]
START_CASES = ["illustrative", "random-71", "zero-width", "gen-1-1-1-0"]


def _fixed_w_programs(case, monkeypatch):
    """Solve the exact distance and the coverage program of ``case`` as the
    verifier does; returns the case and, per program, (lp, solve_lp keywords, outcome)."""
    sys, V, W, horizon, H, eps = case = _reach_case(case)
    solves = []

    def spy(lp, **kwargs):
        solves.append((lp, kwargs, out := solve_lp(lp, **kwargs)))
        return out

    monkeypatch.setattr(verifier, "solve_lp", spy)
    distance_eps, _, witness = verifier.distance_witness(sys, V, W, horizon, H)
    assert verify_coverage(sys, V, W, horizon, H, distance_eps, witness).passed
    assert verify_coverage(sys, V, W, horizon, H, eps).passed
    monkeypatch.undo()
    return case, solves


class TestReachStart:
    """``_reach_start``: the support-point basis the programs over a fixed W start from."""

    @pytest.mark.parametrize("case", START_CASES)
    def test_start_is_a_primal_feasible_basis_highs_accepts(self, case, monkeypatch):
        _, solves = _fixed_w_programs(case, monkeypatch)
        assert len(solves) == 2
        for lp, kwargs, _ in solves:
            start = kwargs["basis"]
            assert _scaled_residual(lp, basis_point(lp, start)) <= RESIDUAL_TOL
            # setBasis accepts it: _run turns a rejected basis into None
            assert lp_solver._run(lp, False, start, True, lp_solver.new_instance()) is not None

    def test_zero_width_box_is_a_support_point(self, monkeypatch):
        (_, V, W, horizon, _, _), solves = _fixed_w_programs("zero-width", monkeypatch)
        groups = len(V) * (horizon + 1)
        for lp, kwargs, _ in solves:
            status = np.array([int(s) for s in kwargs["basis"].col_status])
            weights = status[groups * W.dim : groups * (W.dim + W.n_boxes)].reshape(groups, W.n_boxes)
            # one basic weight per group, the zero-width box's in some of them
            assert (np.count_nonzero(weights == BASIC, axis=1) == 1).all()
            assert (weights[:, -1] == BASIC).any()

    def test_warm_rung_takes_a_quarter_of_the_cold_iterations(self, monkeypatch):
        _, solves = _fixed_w_programs("illustrative", monkeypatch)
        lp, kwargs, _ = solves[0]
        warm = lp_solver._solve(lp, False, kwargs["basis"], True, lp_solver.new_instance())
        cold = lp_solver._solve(lp, True, None, True, lp_solver.new_instance())
        assert lp_solver._accepted(warm) and lp_solver._accepted(cold)
        assert 4 * warm.nit <= cold.nit

    @pytest.mark.parametrize("case", FIXED_W_CASES + START_CASES[1:])
    def test_objective_is_the_cold_primal_optimum(self, case, monkeypatch):
        """Both programs' objectives equal the cold primal solve's within
        1e-9 relative (to at least 1), and every witness certifies."""
        _, solves = _fixed_w_programs(case, monkeypatch)
        for lp, kwargs, out in solves:
            assert kwargs["primal"] and kwargs["basis"] is not None
            cold = solve_lp(lp, primal=True)
            assert cold.optimal and out.optimal
            assert abs(out.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))

    @pytest.mark.parametrize("directions", ["random", "zero", "one-vertex"])
    @pytest.mark.parametrize("case", START_CASES)
    def test_any_directions_give_a_primal_feasible_basis_highs_accepts(self, case, directions):
        sys, V, W, horizon, H, eps = _reach_case(case)
        n, n_b = len(V), H.shape[0]
        if directions == "random":
            d = np.random.default_rng(72).standard_normal(V.shape)
        elif directions == "zero":
            d = np.zeros(V.shape)
        else:  # every vertex takes the first vertex's direction
            d = np.tile(V[0] - V.mean(axis=0), (n, 1))
        coeff = reach_coefficients(sys, horizon)
        # the distance program's and the coverage program's slack
        for slack, slack_lb, h_rhs in (
            (lp_solver.kron(-np.ones((n, 1)), n_b), 0.0, np.zeros(n * n_b)),
            (lp_solver.kron(n, -np.ones((n_b, 1))), -np.inf, np.tile(eps, n)),
        ):
            lp = verifier._reach_lp(coeff, V, W, H, slack, slack_lb, h_rhs, dead_points(coeff, n))
            start = verifier._reach_start(coeff, V, d, W, H, slack, slack_lb, h_rhs, dead_points(coeff, n))
            assert _scaled_residual(lp, basis_point(lp, start)) <= RESIDUAL_TOL
            assert lp_solver._run(lp, False, start, True, lp_solver.new_instance()) is not None

    @pytest.mark.parametrize("case", START_CASES)
    def test_least_inflation_start_keeps_the_mean_vertex_starts_margins(self, case, monkeypatch):
        """Witnessless margins from the per-vertex least-inflation directions
        equal those from v - ȳ for every vertex within 1e-9."""
        sys, V, W, horizon, H, eps = _reach_case(case)
        chosen = [c.margin for c in verify_coverage(sys, V, W, horizon, H, eps).checks]
        monkeypatch.setattr(verifier, "_least_inflation_directions", lambda coeff, V, *_: V - V.mean(axis=0))
        mean_vertex = [c.margin for c in verify_coverage(sys, V, W, horizon, H, eps).checks]
        assert np.allclose(chosen, mean_vertex, rtol=0.0, atol=1e-9)

    def test_frozen_coverage_program_takes_at_most_60_iterations(self, monkeypatch):
        """201 from the v - ȳ start, 54 from the least-inflation one."""
        (_, V, _, _, _, _), solves = _fixed_w_programs("illustrative", monkeypatch)
        lp, _, out = solves[1]
        assert np.isneginf(lp.lb[-len(V) :]).all()  # one free inflation per vertex: the coverage program
        assert out.nit <= 60


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

        def counting(lp, basis=None, **kwargs):
            warm_starts.append(basis is not None)
            return solve_lp(lp, basis, **kwargs)

        monkeypatch.setattr(verifier, "solve_lp", counting)
        for order in (slice(None), slice(None, None, -1)):
            warm_starts.clear()
            joint = verify_coverage(plant, V[order], CERTIFIED_W, 59, H, eps)
            # one program over all vertices, started from its support-point basis
            assert warm_starts == [True]
            single = [
                verify_coverage(plant, V[order][i : i + 1], CERTIFIED_W, 59, H, eps).checks[0].margin
                for i in range(len(V))
            ]
            assert np.allclose([c.margin for c in joint.checks], single, rtol=0.0, atol=1e-12)
            assert joint.passed is not halve

    @pytest.mark.parametrize("case", ["certified-pentagon", "random-69", "random-70"])
    def test_joint_optimum_is_tight_for_the_vertex_checks(self, plant, pentagon, case):
        """A width vector is jointly feasible exactly when every vertex is, so
        the joint optimum passes every vertex check and lowering any positive
        width by 1e-5 fails one."""
        if case == "certified-pentagon":
            sys, V, W, horizon, H = plant, vertices_hpoly(pentagon), CERTIFIED_W, 59, h_preset("uniform:6", 2)
        else:
            rng = np.random.default_rng(int(case.split("-")[1]))
            sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
            V, W, horizon, H = vertices_hpoly(unit_box_constraints(2)), random_hull(rng, 2, 2, 0.2), 3, h_preset("box", 2)
        eps, _ = distance_dY(sys, V, W, horizon, H)
        assert verify_coverage(sys, V, W, horizon, H, eps).passed
        active = np.flatnonzero(eps > 1e-6)
        assert active.size > 0
        for k in active:
            lowered = eps.copy()
            lowered[k] -= 1e-5
            assert not verify_coverage(sys, V, W, horizon, H, lowered).passed, k

    def test_origin_vertex_with_zero_widths(self):
        rng = np.random.default_rng(68)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        W = BoxHullSet([[0.0, 0.0]], [[0.1, 0.1]])
        cert = verify_coverage(sys, np.zeros((1, 2)), W, 2, h_preset("box", 2), np.zeros(4))
        assert cert.passed


# one slot driven through the identity and a D slot that drives nothing:
# the reach of horizon 1 is the slot-0 point itself
PASS_THROUGH = LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))


class TestCoverageWitness:
    def test_equality_compares_both_arrays_by_value(self):
        witness = verifier.CoverageWitness(np.ones((1, 2, 1)), np.zeros((1, 2, 2)))
        assert witness == verifier.CoverageWitness([[[1.0], [1.0]]], [[[0.0, 0.0], [0.0, 0.0]]])
        assert witness != verifier.CoverageWitness(np.ones((1, 2, 1)), np.full((1, 2, 2), 1e-12))
        assert witness != verifier.CoverageWitness(np.ones((1, 2, 2)), np.zeros((1, 2, 2)))
        assert witness != (witness.weights, witness.points)

    @pytest.mark.parametrize(
        "weights, points",
        [(np.ones((2, 1)), np.zeros((2, 2))), (np.ones((1, 2, 1)), np.zeros((1, 3, 2)))],
        ids=["2-D", "groups-differ"],
    )
    def test_rejects(self, weights, points):
        with pytest.raises(ValueError):
            verifier.CoverageWitness(weights, points)

    def check(self, W, y, weights, points):
        witness = verifier.CoverageWitness([weights], [points])
        return verify_coverage(PASS_THROUGH, np.array([y]), W, 1, h_preset("box", 2), np.zeros(4), witness).checks[0]

    def test_point_moved_out_of_its_box_is_clipped_back_and_fails(self):
        W = BoxHullSet([[0.0, 0.0]], [[1.0, 1.0]])
        assert self.check(W, [1.0, 1.0], [[1.0], [1.0]], [[1.0, 1.0], [0.0, 0.0]]).margin == 0.0
        # clipped to (1, -1), so the deviation is (0, 2)
        moved = self.check(W, [1.0, 1.0], [[1.0], [1.0]], [[1.0, -5.0], [0.0, 0.0]])
        assert not moved.passed and moved.margin == -2.0

    def test_negative_weight_is_clipped_and_the_rest_renormalized(self):
        W = BoxHullSet([[1.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        points = [[0.0, 0.0], [1.0, 0.0]]
        assert self.check(W, [0.0, 0.0], [[0.5, 0.5], [1.0, 0.0]], points).passed
        # the weights (-0.5, 0.5) count as (0, 1): the point is box 1's, (-1, 0)
        negative = self.check(W, [0.0, 0.0], [[-0.5, 0.5], [1.0, 0.0]], points)
        assert not negative.passed and negative.margin == -1.0
        no_weight = self.check(W, [0.0, 0.0], [[-0.5, 0.0], [1.0, 0.0]], points)
        assert not no_weight.passed and no_weight.margin == -np.inf

    @pytest.mark.parametrize("case", ["certified-pentagon", "random-69", "random-70"])
    def test_distance_witness_passes_and_lowered_widths_fail(self, plant, pentagon, case):
        if case == "certified-pentagon":
            sys, V, W, horizon, H = plant, vertices_hpoly(pentagon), CERTIFIED_W, 59, h_preset("uniform:6", 2)
        else:
            rng = np.random.default_rng(int(case.split("-")[1]))
            sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
            V, W, horizon, H = vertices_hpoly(unit_box_constraints(2)), random_hull(rng, 2, 2, 0.2), 3, h_preset("box", 2)
        eps, obj, witness = verifier.distance_witness(sys, V, W, horizon, H)
        eps_dY, obj_dY = distance_dY(sys, V, W, horizon, H)
        assert np.array_equal(eps, eps_dY) and obj == obj_dY
        assert witness.weights.shape == (len(V), horizon + 1, W.n_boxes)
        assert witness.points.shape == (len(V), horizon + 1, W.dim)
        cert = verify_coverage(sys, V, W, horizon, H, eps, witness)
        assert cert.passed and cert.worst().margin <= 1e-12
        for k in np.flatnonzero(eps > 1e-6):
            lowered = eps.copy()
            lowered[k] -= 1e-5
            assert not verify_coverage(sys, V, W, horizon, H, lowered, witness).passed, k

    def test_checks_a_witness_without_solving(self, plant, pentagon, monkeypatch):
        V, H = vertices_hpoly(pentagon), h_preset("uniform:6", 2)
        eps, _, witness = verifier.distance_witness(plant, V, CERTIFIED_W, 59, H)

        def no_lp(*args, **kwargs):
            raise AssertionError("a witness is checked without an LP")

        monkeypatch.setattr(verifier, "solve_lp", no_lp)
        assert verifier.certify(
            plant, pentagon, select_params(plant, pentagon, gamma=0.2, mu=1e-3), CERTIFIED_W, V, 59, H, eps,
            float(eps.sum()), witness,
        ).passed

    def test_witness_that_does_not_fit_is_rejected(self, plant, pentagon):
        V, H = vertices_hpoly(pentagon), h_preset("uniform:6", 2)
        eps, _, witness = verifier.distance_witness(plant, V, CERTIFIED_W, 12, H)
        for args in ((V[:-1], 12), (V, 11)):
            with pytest.raises(GeometryError):
                verify_coverage(plant, args[0], CERTIFIED_W, args[1], H, eps, witness)


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
        # one step, and 2000 = 62 * 32 + 16 steps, which end in a shorter block
        for T in (1, 2000):
            for W in (CERTIFIED_W, scaled(CERTIFIED_W, 10.0)):
                rep = monte_carlo(plant, W, pentagon, T=T, runs=4, rng=np.random.default_rng(3))
                violations, worst = per_run_monte_carlo(plant, W, pentagon, T, 4, np.random.default_rng(3))
                assert rep.violations == violations
                assert rep.max_excursion == pytest.approx(worst, rel=0.0, abs=1e-12)
                assert rep.steps == 4 * T
        # the inflated set exercises the counter, not only 0 == 0
        assert violations > 0

    @staticmethod
    def three_output_case():
        """A 3-output system, a rotated box Y of 6 rows (so G y rounds) and a W
        whose runs leave Y, more often at 3 W."""
        rng = np.random.default_rng(3)
        sys = random_stable_system(rng, n_x=4, n_w=2, n_y=3, rho=0.8, symmetric=False)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        return sys, HPolytope(np.vstack([Q, -Q]), np.ones(6)), random_hull(rng, scale=0.5)

    # 32-step blocks: T = 1, 33 and 65 end in a one-step block, 2000 in a 16-step one
    @pytest.mark.parametrize("T", [1, 31, 32, 33, 63, 64, 65, 2000])
    @pytest.mark.parametrize("runs", [1, 5])
    def test_equals_the_last_axis_fold(self, T, runs):
        sys, Y, W = self.three_output_case()
        for factor in (1.0, 3.0):
            rep = monte_carlo(sys, scaled(W, factor), Y, T, runs, np.random.default_rng(T))
            assert rep == monte_carlo_last_axis(sys, scaled(W, factor), Y, T, runs, np.random.default_rng(T))
        assert rep.violations > 0

    def test_rejects_an_output_set_of_another_dimension_before_drawing(self, plant):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(GeometryError, match="output dimension"):
            monte_carlo(plant, CERTIFIED_W, unit_box_constraints(3), T=1000, runs=4, rng=rng)
        assert rng.bit_generator.state == state

    def test_draws_as_many_points_as_successive_sample_batches(self, plant, pentagon):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        monte_carlo(plant, CERTIFIED_W, pentagon, T=700, runs=3, rng=rng)
        for _ in range(3):
            sample_batch(CERTIFIED_W, 700, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_numpy_integer_counts_give_the_report_of_python_ones(self, plant, pentagon):
        rep = monte_carlo(plant, CERTIFIED_W, pentagon, T=np.int64(5), runs=np.int32(2), rng=np.random.default_rng(0))
        assert type(rep.steps) is int
        assert repr(rep) == repr(monte_carlo(plant, CERTIFIED_W, pentagon, T=5, runs=2, rng=np.random.default_rng(0)))

    @pytest.mark.parametrize(
        "T, runs, message",
        [
            (0, 2, "T must"), (-1, 2, "T must"), (5, 0, "runs must"), (5, -1, "runs must"),
            (True, 2, "T must"), (np.True_, 2, "T must"), (10.0, 2, "T must"), ("5", 2, "T must"),
            (5, True, "runs must"), (5, 2.0, "runs must"), (5, None, "runs must"),
        ],
    )
    def test_rejects_no_steps_or_no_runs(self, plant, pentagon, T, runs, message):
        # counts that are no integer (a bool, a float, a string) too, all before any draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            monte_carlo(plant, CERTIFIED_W, pentagon, T=T, runs=runs, rng=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("factor, violations", [(1.0, 0), (3.0, 7038)])
    def test_frozen_result_reports_equal_those_of_the_einsum_blend(self, factor, violations, monkeypatch):
        spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
        doc = ResultDoc.from_dict(json.loads((ROOT / "perfbench" / "data" / "illustrative_result.json").read_text()))
        W = scaled(doc.W, factor)

        def runs():
            mc = monte_carlo(spec.sys, W, spec.Y, T=2000, runs=4, rng=np.random.default_rng(0))
            run = setgeom.simulate(spec.sys, W, np.zeros(spec.sys.n_x), 2000, np.random.default_rng(spec.options.seed))
            return mc, (repr(mc), *(a.tobytes() for a in run))

        mc, bits = runs()
        assert (mc.violations, mc.steps) == (violations, 8000)
        # the same reports and run, bit for bit, from the einsum blend of the same draws
        monkeypatch.setattr(verifier, "sample_batch", sample_batch_blend)
        monkeypatch.setattr(setgeom, "sample_batch", sample_batch_blend)
        assert runs()[1] == bits

    def test_zero_set_zero_violations(self, plant, pentagon):
        rep = monte_carlo(plant, ORIGIN2, pentagon, T=500, runs=3, rng=np.random.default_rng(0))
        assert rep.violations == 0
        assert rep.max_excursion == 0.0
        assert rep.steps == 1500

    def test_soundness_chain(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        V = vertices_hpoly(pentagon)
        problem = assemble(plant, pentagon, V, params, 2, 12, h_preset("box", 2), params.s)
        res = alternate(problem, uniform_beta(problem.layout))
        assert verify_params(plant, pentagon, params).passed
        assert verify_gamma(plant, res.W, params.gamma).passed
        assert verify_output_inclusion(plant, pentagon, params, res.W).passed
        rep = monte_carlo(plant, res.W, pentagon, T=10_000, runs=20, rng=np.random.default_rng(1))
        assert rep.violations == 0

    def test_inflated_set_reports_violations(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        V = vertices_hpoly(pentagon)
        problem = assemble(plant, pentagon, V, params, 2, 12, h_preset("box", 2), params.s)
        res = alternate(problem, uniform_beta(problem.layout))
        rep = monte_carlo(
            plant, scaled(res.W, 10.0), pentagon, T=2000, runs=3, rng=np.random.default_rng(2)
        )
        # reported, not asserted as a guarantee; record that the counter moves
        assert rep.violations >= 0
        assert rep.max_excursion >= 0.0
