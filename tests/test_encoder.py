import json
from pathlib import Path

import numpy as np
import pytest

from distsynth.encoder import (
    BUDGET_TAIL,
    SHORT_HORIZON_TAIL,
    EncodingError,
    VariableLayout,
    assemble,
    budget_tail,
    build_gbar,
    encode_gamma_bound,
    encode_origin,
    encode_output_inclusion,
    encode_vertex_reach,
    h_preset,
    output_rhs,
    short_horizon,
    tail_charge,
    tail_start,
)
from distsynth.lp_solver import LpProblem, csr, solve_lp
from distsynth.rpi_params import RpiParams, select_params
from distsynth.setgeom import (
    BoxHullSet,
    HPolytope,
    LtiSystem,
    merge_vertices,
    reach_coefficients,
    stacked_identity,
    support_rows,
    vertices_hpoly,
)
from distsynth.synthesizer import _boxes, boxes_from_x, p_step, spread_beta

from conftest import hull_of, random_stable_system
from distsynth.cli import cmd_gen, cmd_reduce, parse_spec
from reference import (
    as_csr,
    assert_same_matrix,
    contains_point,
    former_step_matrices,
    membership_blocks,
    program_residual,
    scipy_gamma_bound,
    scipy_origin,
    scipy_output_inclusion,
    scipy_vertex_reach,
    synth_blocks,
    to_scipy,
    uniform_beta,
)

ROOT = Path(__file__).resolve().parents[1]


def small_layout(n_boxes=2, n_vertices=3, horizon=2, s=3, n_w=2, n_y=2, m_y=4, n_b=4):
    return VariableLayout(
        n_boxes=n_boxes,
        n_vertices=n_vertices,
        horizon=horizon,
        s=s,
        n_w=n_w,
        n_y=n_y,
        m_y=m_y,
        n_b=n_b,
        t0=s,
    )


def unit_box_constraints(n):
    return HPolytope(stacked_identity(n), np.ones(2 * n))


@pytest.fixture(scope="module")
def small_problem():
    rng = np.random.default_rng(40)
    sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
    Y = unit_box_constraints(2)
    params = select_params(sys, Y, gamma=1.0, mu=1e-2)
    vertices = vertices_hpoly(Y)
    H = h_preset("box", 2)
    problem = assemble(sys, Y, vertices, params, n_boxes=2, horizon=3, H=H, t0=params.s)
    return sys, Y, params, vertices, H, problem


@pytest.fixture(scope="module")
def small_blocks(small_problem):
    sys, Y, params, vertices, H, problem = small_problem
    return synth_blocks(sys, Y, vertices, params, H, problem.layout)


class TestHPreset:
    def test_box(self):
        assert np.allclose(h_preset("box", 3), stacked_identity(3))

    def test_uniform(self):
        H = h_preset("uniform:6", 2)
        assert H.shape == (6, 2)
        assert np.allclose(np.linalg.norm(H, axis=1), 1.0)
        assert np.allclose(H[0], [1.0, 0.0])

    def test_uniform_axis_rows_are_exact(self):
        # cos(pi/2) and sin(pi) round to about 1e-16; the preset stores them as 0
        np.testing.assert_array_equal(h_preset("uniform:4", 2), [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_array_equal(h_preset("uniform:6", 2)[3], [-1.0, 0.0])

    def test_uniform_requires_planar(self):
        with pytest.raises(EncodingError):
            h_preset("uniform:6", 3)

    def test_unknown_preset(self):
        with pytest.raises(EncodingError):
            h_preset("octagon", 2)


class TestLayout:
    def test_dimension_formulas(self):
        lay = small_layout(n_boxes=4, n_vertices=5, horizon=59, s=60, n_w=2, n_y=2, m_y=5, n_b=6)
        assert lay.dim_x == 2 * 4 * 2 + 61 * 5
        assert lay.dim_w == 5 * 60 * 2
        assert lay.dim_beta == 5 * 4 * 60
        assert lay.dim_z == 6 + 5 * 2

    def test_slices_partition_x(self):
        # x is the boxes by (box, center or halfwidth, coordinate), then the
        # budgets Q_0 .. Q_(s-1), r by (term, row of G)
        lay = small_layout()
        x = np.arange(lay.dim_x)
        boxes = _boxes(lay, x)
        budgets = x[boxes.size :].reshape(lay.s + 1, lay.m_y)
        assert boxes.shape == (lay.n_boxes, 2, lay.n_w) and budgets.size == lay.dim_x - boxes.size
        # the origin rows |c_0| <= e_0 hold the columns of box 0 alone
        A, _ = encode_origin(lay)
        A = to_scipy(csr(A))
        np.testing.assert_array_equal(np.unique(A.indices), boxes[0].ravel())

    def test_slices_partition_x_with_a_budget_tail(self):
        lay = VariableLayout(2, 3, 2, 5, 2, 2, 4, 4, t0=2)
        x = np.arange(lay.dim_x)
        boxes = _boxes(lay, x)
        budgets = x[boxes.size : boxes.size + (lay.t0 + 1) * lay.m_y]  # Q_0 .. Q_(t0-1), r, then rho
        assert x.size - boxes.size - budgets.size == lay.n_rho == lay.n_w
        assert lay.dim_x == 2 * 2 * 2 + 3 * 4 + 2

    def test_slices_partition_wbar_and_beta(self, small_problem, small_blocks):
        # beta by (group, box) and the P step's points wbar by (group, box, coordinate)
        problem = small_problem[-1]
        lay = problem.layout
        groups = np.arange(lay.dim_beta).reshape(lay.n_groups, lay.n_boxes)
        # simplex row g sums the weights of group g
        np.testing.assert_array_equal(small_blocks.t_beta.indices.reshape(groups.shape), groups)
        _, _, wbar, _, _, _ = p_step(problem, spread_beta(lay))
        assert wbar.size == lay.dim_beta * lay.n_w


class TestBuildGbar:
    def test_zero_alpha_first_term(self, plant, pentagon):
        params = RpiParams(s=2, alpha=0.0, lam=0.1, gamma=0.2, mu=1e-3)
        gbar = build_gbar(plant, pentagon, params)
        assert np.allclose(gbar[0], pentagon.G @ plant.C)

    def test_zero_dynamics_kills_tail(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        Y = unit_box_constraints(2)
        params = RpiParams(s=3, alpha=0.1, lam=0.1, gamma=0.2, mu=1e-3)
        gbar = build_gbar(sys, Y, params)
        assert np.allclose(gbar[1], 0.0)
        assert np.allclose(gbar[2], 0.0)

    def test_matches_direct_products(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        gbar = build_gbar(plant, pentagon, params)
        scale = 1.0 / (1.0 - params.alpha)
        A_pow = np.eye(3)
        for t in range(params.s):
            assert np.allclose(gbar[t], scale * pentagon.G @ plant.C @ A_pow, rtol=1e-12)
            A_pow = A_pow @ plant.A


class TestOutputInclusion:
    def test_singleton_origin_reduces_to_budget_rows(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        lay = VariableLayout(1, 1, 1, params.s, 2, 2, 5, 4, params.s)
        gbar = build_gbar(plant, pentagon, params)
        A, b = encode_output_inclusion(gbar, tail_charge(gbar, plant, lay), plant, pentagon, params, lay)
        A = to_scipy(csr(A))
        x = np.zeros(lay.dim_x)  # origin singleton box, zero budgets
        resid = A @ x - b
        rhs = output_rhs(gbar, pentagon, params)
        assert np.all(resid[: -lay.m_y] <= 1e-12)
        assert np.allclose(resid[-lay.m_y :], -rhs)
        assert np.all(rhs > 0)

    def test_zero_feedthrough_rows_have_no_box_coefficients(self, plant, pentagon):
        sys = LtiSystem(plant.A, plant.B, plant.C, np.zeros((2, 2)))
        params = select_params(sys, pentagon, gamma=0.2, mu=1e-3)
        lay = VariableLayout(2, 1, 1, params.s, 2, 2, 5, 4, params.s)
        gbar = build_gbar(sys, pentagon, params)
        A, _ = encode_output_inclusion(gbar, tail_charge(gbar, sys, lay), sys, pentagon, params, lay)
        A = to_scipy(csr(A))
        r_rows = A[lay.n_boxes * lay.s * lay.m_y : lay.n_boxes * (lay.s + 1) * lay.m_y]
        box_cols = r_rows[:, : 2 * lay.n_boxes * lay.n_w]
        assert box_cols.nnz == 0

    def test_row_count(self, plant, pentagon):
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        lay = VariableLayout(3, 1, 1, params.s, 2, 2, 5, 4, params.s)
        gbar = build_gbar(plant, pentagon, params)
        A, b = encode_output_inclusion(gbar, tail_charge(gbar, plant, lay), plant, pentagon, params, lay)
        assert A.shape[0] == lay.n_boxes * (lay.s + 1) * lay.m_y + lay.m_y == b.size

    def test_warns_on_nonpositive_budget(self, plant, pentagon):
        params = RpiParams(s=3, alpha=0.1, lam=0.99, gamma=0.2, mu=1e-3)
        lay = VariableLayout(1, 1, 1, 3, 2, 2, 5, 4, 3)
        gbar = build_gbar(plant, pentagon, params)
        with pytest.warns(RuntimeWarning):
            encode_output_inclusion(gbar, tail_charge(gbar, plant, lay), plant, pentagon, params, lay)

    def test_certified_set_admits_feasible_budgets(self, plant, pentagon):
        """Necessity direction: whenever the row-wise support certificate
        holds, setting each budget to the box maxima satisfies the rows."""
        from distsynth.verifier import verify_output_inclusion

        rng = np.random.default_rng(48)
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        lay = VariableLayout(2, 1, 1, params.s, 2, 2, 5, 4, params.s)
        gbar = build_gbar(plant, pentagon, params)
        A, b = encode_output_inclusion(gbar, tail_charge(gbar, plant, lay), plant, pentagon, params, lay)
        A = to_scipy(csr(A))
        checked = 0
        while checked < 10:
            W = hull_of((rng.uniform(-0.02, 0.02, 2), rng.uniform(0, 0.02, 2)) for _ in range(2))
            if not verify_output_inclusion(plant, pentagon, params, W).passed:
                continue
            x = np.zeros(lay.dim_x)
            boxes = _boxes(lay, x)
            boxes[:, 0], boxes[:, 1] = W.centers, W.halfwidths
            budgets = x[boxes.size :].reshape(lay.s + 1, lay.m_y)
            for t in range(lay.s):
                GB = gbar[t] @ plant.B
                budgets[t] = np.max(GB @ W.centers.T + np.abs(GB) @ W.halfwidths.T, axis=1)
            GD = pentagon.G @ plant.D
            budgets[lay.s] = np.max(GD @ W.centers.T + np.abs(GD) @ W.halfwidths.T, axis=1)
            assert np.all(A @ x <= b + 1e-10)
            checked += 1

    def test_satisfied_rows_imply_support_certificate(self, plant, pentagon):
        """Elimination direction: budgets set to the box maxima turn the rows
        into exactly the support-function inequality per constraint row."""
        rng = np.random.default_rng(41)
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        gbar = build_gbar(plant, pentagon, params)
        for _ in range(20):
            W = hull_of((rng.uniform(-0.01, 0.01, 2), rng.uniform(0, 0.01, 2)) for _ in range(3))
            elim = np.zeros(pentagon.n_rows)
            for t in range(params.s):
                elim += support_rows(plant.B, gbar[t], W)
            elim += support_rows(plant.D, pentagon.G, W)
            direct = np.zeros(pentagon.n_rows)
            for t in range(params.s):
                GB = gbar[t] @ plant.B
                direct += np.max(GB @ W.centers.T + np.abs(GB) @ W.halfwidths.T, axis=1)
            GD = pentagon.G @ plant.D
            direct += np.max(GD @ W.centers.T + np.abs(GD) @ W.halfwidths.T, axis=1)
            assert np.allclose(elim, direct, atol=1e-10)


class TestGammaBound:
    def test_origin_singleton_always_feasible(self, plant):
        lay = VariableLayout(1, 1, 1, 2, 2, 2, 5, 4, 2)
        A, b = encode_gamma_bound(plant, 0.25, lay)
        A = to_scipy(csr(A))
        assert A.shape[0] == 2 * plant.n_x
        assert np.all(A @ np.zeros(lay.dim_x) <= b)

    def test_violation_matches_corner_enumeration(self, plant):
        rng = np.random.default_rng(42)
        lay = VariableLayout(1, 1, 1, 2, 2, 2, 5, 4, 2)
        gamma = 0.3
        A, b = encode_gamma_bound(plant, gamma, lay)
        A = to_scipy(csr(A))
        for _ in range(100):
            box = BoxHullSet([rng.uniform(-0.3, 0.3, 2)], [rng.uniform(0, 0.3, 2)])
            x = np.zeros(lay.dim_x)
            _boxes(lay, x)[0] = box.centers[0], box.halfwidths[0]
            rows_ok = np.all(A @ x <= b + 1e-12)
            corners_ok = all(
                np.linalg.norm(plant.B @ v, np.inf) <= gamma + 1e-12 for v in box.corners()
            )
            assert rows_ok == corners_ok

    def test_huge_gamma_never_active(self, plant):
        rng = np.random.default_rng(43)
        lay = VariableLayout(2, 1, 1, 2, 2, 2, 5, 4, 2)
        A, b = encode_gamma_bound(plant, 1e9, lay)
        A = to_scipy(csr(A))
        for _ in range(20):
            x = rng.uniform(-1, 1, lay.dim_x)
            boxes = _boxes(lay, x)
            boxes[:, 1] = np.abs(boxes[:, 1])
            assert np.all(A @ x <= b)


class TestOriginRows:
    def test_zero_center_any_halfwidth(self):
        lay = small_layout()
        A, b = encode_origin(lay)
        A = to_scipy(csr(A))
        x = np.zeros(lay.dim_x)
        _boxes(lay, x)[0, 1] = [0.5, 0.1]
        assert np.all(A @ x <= b)

    def test_offcenter_with_small_halfwidth_violates(self):
        lay = small_layout()
        A, b = encode_origin(lay)
        A = to_scipy(csr(A))
        x = np.zeros(lay.dim_x)
        _boxes(lay, x)[0] = [1.0, 0.0], [0.5, 0.0]
        assert np.any(A @ x > b)

    def test_satisfied_rows_imply_membership_of_origin(self):
        rng = np.random.default_rng(44)
        lay = small_layout()
        A, b = encode_origin(lay)
        A = to_scipy(csr(A))
        for _ in range(50):
            x = np.zeros(lay.dim_x)
            center = rng.uniform(-1, 1, 2)
            halfwidth = rng.uniform(0, 1, 2)
            _boxes(lay, x)[0] = center, halfwidth
            if np.all(A @ x <= b + 1e-12):
                W = BoxHullSet([center, [5.0, 5.0]], [halfwidth, [0.1, 0.1]])
                assert contains_point(W, np.zeros(2), tol=1e-9)


class TestVertexReach:
    def test_horizon_one_uses_direct_input_map(self):
        rng = np.random.default_rng(45)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        lay = small_layout(horizon=1)
        vertices = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        c_w, *_ = encode_vertex_reach(vertices, reach_coefficients(sys, 1), lay, h_preset("box", 2))
        block = to_scipy(csr(c_w))[:2, :2].toarray()
        assert np.allclose(block, sys.C @ sys.B)

    def test_zero_vertex_feasible_with_zero_witness(self):
        rng = np.random.default_rng(46)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        lay = small_layout(n_vertices=1, horizon=2)
        vertices = np.zeros((1, 2))
        c_w, c_z, h, e_z, t_beta = encode_vertex_reach(vertices, reach_coefficients(sys, 2), lay, h_preset("box", 2))
        c_w, c_z, e_z = (to_scipy(csr(m)) for m in (c_w, c_z, e_z))
        d_x, d_wbar = membership_blocks(lay)
        w = np.zeros(lay.dim_w)
        z = np.zeros(lay.dim_z)
        wbar = np.zeros(d_wbar.shape[1])
        x = np.zeros(lay.dim_x)
        assert np.allclose(c_w @ w + c_z @ z, h)
        assert np.all(d_x @ x + d_wbar @ wbar <= 1e-12)
        assert np.all(e_z @ z <= 1e-12)

    def test_block_shapes_match_closed_forms(self, small_blocks):
        blocks = small_blocks
        lay = blocks.layout
        v, N, l, n_w, n_y, n_b = (
            lay.n_vertices,
            lay.n_boxes,
            lay.horizon,
            lay.n_w,
            lay.n_y,
            lay.n_b,
        )
        assert blocks.c_w.shape == (v * n_y, lay.dim_w)
        assert membership_blocks(lay)[0].shape[0] == v * 2 * N * (l + 1) * n_w
        assert blocks.e_z.shape == (v * n_b, lay.dim_z)
        assert blocks.t_beta.shape == (v * (l + 1), lay.dim_beta)
        assert lay.n_groups == v * (l + 1)


class TestAssemble:
    def test_total_counts(self, small_problem, small_blocks):
        sys = small_problem[0]
        lay = small_blocks.layout
        expected_a_rows = (
            lay.n_boxes * (lay.s + 1) * lay.m_y
            + lay.m_y
            + 2 * sys.n_x * lay.n_boxes
            + 2 * sys.n_w
        )
        assert small_blocks.a_x.shape == (expected_a_rows, lay.dim_x)
        assert small_blocks.cost_z.sum() == lay.n_b

    def test_deterministic_assembly(self, small_problem):
        sys, Y, params, vertices, H, _ = small_problem
        p1 = assemble(sys, Y, vertices, params, 2, 3, H, params.s)
        p2 = assemble(sys, Y, vertices, params, 2, 3, H, params.s)
        assert_same_step_programs(p1, p2)

    def test_duplicate_vertices_are_dropped(self, small_problem):
        sys, Y, params, vertices, H, problem = small_problem
        doubled = np.vstack([vertices, vertices])
        p = assemble(sys, Y, doubled, params, 2, 3, H, params.s)
        assert p.layout.n_vertices == problem.layout.n_vertices

    def test_zero_disturbance_feasible_at_max_deviation(self, small_problem, small_blocks):
        """The all-zero set with deviations covering every vertex satisfies
        every block, which is the guaranteed-feasibility anchor."""
        vertices, H = small_problem[3:5]
        lay = small_blocks.layout
        x = np.zeros(lay.dim_x)
        w = np.zeros(lay.dim_w)
        wbar = np.zeros(lay.dim_beta * lay.n_w)
        beta = np.full(lay.dim_beta, 1.0 / lay.n_boxes)
        z = np.zeros(lay.dim_z)
        eps = np.max(np.clip(vertices @ H.T, 0.0, None), axis=0)
        z[lay.z_eps()] = eps
        z[lay.n_b :] = vertices.ravel()  # b by vertex
        residual = program_residual(small_blocks, {"x": x, "w": w, "wbar": wbar, "beta": beta, "z": z})
        assert residual <= 1e-9

    def test_rejects_bad_inputs(self, small_problem):
        sys, Y, params, vertices, H, _ = small_problem
        with pytest.raises(EncodingError):
            assemble(sys, Y, vertices, params, 0, 3, H, params.s)
        with pytest.raises(EncodingError):
            assemble(sys, Y, vertices[:, :1], params, 2, 3, H, params.s)
        with pytest.raises(EncodingError):
            assemble(sys, Y, vertices, params, 2, 3, np.ones((4, 3)), params.s)


def illustrative_blocks(plant, pentagon, t0=None):
    """The illustrative problem's blocks, over its layout with tail start t0
    (s, no tail, without one)."""
    params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
    vertices, H = vertices_hpoly(pentagon), h_preset("uniform:6", 2)
    layout = assemble(plant, pentagon, vertices, params, 4, 59, H, params.s if t0 is None else t0).layout
    return synth_blocks(plant, pentagon, vertices, params, H, layout)


def assert_same_step_programs(p1, p2):
    """Two assembled problems hold the same P-step and Q-step programs, bit for
    bit, and fill them alike at spread weights and at the first P-step's points."""
    assert p1.layout == p2.layout
    for name in ("p_program", "q_program"):
        s1, s2 = getattr(p1, name), getattr(p2, name)
        assert s1.pattern.n_eq == s2.pattern.n_eq and np.array_equal(s1.kept, s2.kept), name
        assert_same_matrix(s1.pattern.a, s2.pattern.a, name)
        for field in ("c", "b", "lb"):
            assert getattr(s1.pattern, field).tobytes() == getattr(s2.pattern, field).tobytes(), (name, field)
        assert s1.fill.shape == s2.fill.shape, name
        for field in ("row", "col", "val"):
            assert getattr(s1.fill, field).tobytes() == getattr(s2.fill, field).tobytes(), (name, field)
    beta = spread_beta(p1.layout)
    wbar = p_step(p1, beta)[2]
    for lp1, lp2 in ((p1.p_program.lp(beta), p2.p_program.lp(beta)), (p1.q_program.lp(wbar), p2.q_program.lp(wbar))):
        assert lp1.a.shape == lp2.a.shape
        for m1, m2 in zip(lp1.a[:3], lp2.a[:3]):
            assert m1.tobytes() == m2.tobytes()


BLOCKS = ("a_x", "c_w", "c_z", "e_z", "t_beta")


class TestSparseBlocks:
    @pytest.mark.parametrize("which", ["small", "illustrative"])
    def test_no_stored_zeros_and_closed_form_nnz(self, which, small_blocks, plant, pentagon):
        problem = small_blocks if which == "small" else illustrative_blocks(plant, pentagon)
        lay = problem.layout
        d_x, d_wbar = membership_blocks(lay)
        for name, block in [*((name, getattr(problem, name)) for name in BLOCKS), ("d_x", d_x), ("d_wbar", d_wbar)]:
            assert np.all(block.data != 0.0), name
        groups = lay.n_vertices * lay.n_slots
        rows = groups * lay.n_boxes * 2 * lay.n_w  # one per (group, box, sign, coordinate)
        assert d_x.nnz == 2 * rows  # a center and a halfwidth entry
        assert d_wbar.nnz == rows
        assert problem.t_beta.nnz == groups * lay.n_boxes
        assert problem.c_z.nnz == lay.n_vertices * lay.n_y

    def test_membership_rows_hold_exactly_when_every_point_is_in_its_box(self):
        rng = np.random.default_rng(49)
        lay = small_layout(n_boxes=3, n_vertices=2, horizon=2)
        d_x, d_wbar = membership_blocks(lay)
        outcomes = set()
        for _ in range(200):
            x = np.zeros(lay.dim_x)
            boxes = _boxes(lay, x)
            points = np.zeros((lay.n_groups, lay.n_boxes, lay.n_w))  # wbar by (group, box, coordinate)
            inside = True
            for j in range(lay.n_boxes):
                boxes[j, 0] = rng.uniform(-1, 1, lay.n_w)
                boxes[j, 1] = rng.uniform(0.1, 1, lay.n_w)
            for g in range(lay.n_groups):
                for j in range(lay.n_boxes):
                    c, e = boxes[j]
                    kind = rng.choice(["in", "upper", "lower", "out"], size=lay.n_w, p=[0.8, 0.07, 0.07, 0.06])
                    u = rng.uniform(-1, 1, lay.n_w)
                    point = c + e * u
                    point[kind == "upper"] = (c + e)[kind == "upper"]
                    point[kind == "lower"] = (c - e)[kind == "lower"]
                    out = kind == "out"
                    side = np.where(u[out] < 0.0, -1.0, 1.0)
                    point[out] = c[out] + e[out] * side * rng.uniform(1.01, 3.0, out.sum())
                    inside &= not out.any()
                    points[g, j] = point
            wbar = points.ravel()
            rows_hold = bool(np.all(d_x @ x + d_wbar @ wbar <= 0.0))
            assert rows_hold == inside
            outcomes.add(inside)
        assert outcomes == {True, False}


class TestShortHorizon:
    @pytest.mark.parametrize("rho, horizon", [(0.5, 30), (0.8, 40), (-0.8, 40), (0.95, 40), (0.99, 40), (0.9, 3)])
    def test_scalar_system_matches_the_closed_form(self, rho, horizon):
        # |C A^k B| = |rho|^k, so the tail from t is (|rho|^t - |rho|^l) / (1 - |rho|) and the
        # rule asks |rho|^t <= |rho|^l + f (1 - |rho|^l)
        sys = LtiSystem([[rho]], [[-0.5]], [[2.0]], [[0.3]])
        r, f = abs(rho), SHORT_HORIZON_TAIL
        t = max(1, int(np.ceil(np.log(r**horizon + f * (1.0 - r**horizon)) / np.log(r))))
        assert short_horizon(sys, horizon) == (t if t < horizon else horizon)

    def test_tail_rule_on_a_known_case(self):
        # 0.8^16 = 0.028 <= 0.03 + 0.8^40 < 0.8^15 = 0.035
        assert short_horizon(LtiSystem([[0.8]], [[1.0]], [[1.0]], [[0.0]]), 40) == 16

    def test_never_longer_than_the_horizon(self):
        rng = np.random.default_rng(47)
        for horizon in (1, 2, 5, 17, 60):
            sys = random_stable_system(rng, n_x=3, n_w=2, n_y=2, rho=0.9)
            assert 1 <= short_horizon(sys, horizon) <= horizon

    def test_horizon_one_stays_one(self, plant):
        assert short_horizon(plant, 1) == 1

    def test_zero_input_map_gives_one(self):
        sys = LtiSystem(0.5 * np.eye(2), np.zeros((2, 1)), np.eye(2), np.zeros((2, 1)))
        assert short_horizon(sys, 10) == 1

    def test_bundled_specs(self, plant):
        # the illustrative spec's plant at its coverage horizon l = 59
        assert short_horizon(plant, 59) == 13


class TestBudgetTail:
    def test_tail_start_on_a_known_vector(self):
        # tails 8, 4, 2, 1: the first at most a quarter of 8 starts at t = 2
        assert tail_start(np.array([4.0, 2.0, 1.0, 1.0]), 0.25) == 2
        assert tail_start(np.array([4.0, 2.0, 1.0, 1.0]), 0.1) == 4

    @pytest.mark.parametrize("rho, s", [(0.5, 30), (0.8, 40), (-0.8, 40), (0.95, 200), (0.99, 40), (0.9, 3)])
    def test_scalar_system_matches_the_closed_form(self, rho, s):
        # |Gbar_t B| sums to a constant times |rho|^t, so the rule asks
        # |rho|^t <= |rho|^s + f (1 - |rho|^s), as short_horizon's does
        sys = LtiSystem([[rho]], [[-0.5]], [[2.0]], [[0.3]])
        params = RpiParams(s=s, alpha=0.3, lam=0.1, gamma=1.0, mu=1e-3)
        r, f = abs(rho), BUDGET_TAIL
        t = max(1, int(np.ceil(np.log(r**s + f * (1.0 - r**s)) / np.log(r))))
        assert budget_tail(sys, HPolytope([[1.0], [-1.0]], [1.0, 2.0]), params) == (t if t < s else s)

    def test_t0_equal_to_s_builds_the_untailed_program(self, small_problem):
        sys, Y, params, vertices, H, problem = small_problem
        tailed = assemble(sys, Y, vertices, params, 2, 3, H, t0=params.s)
        assert tailed.layout.n_rho == 0
        assert tailed.layout.dim_x == 2 * 2 * 2 + (params.s + 1) * 4
        assert_same_step_programs(tailed, problem)

    def test_rejects_a_t0_outside_one_to_s(self, small_problem):
        sys, Y, params, vertices, H, _ = small_problem
        for t0 in (0, params.s + 1):
            with pytest.raises(EncodingError):
                assemble(sys, Y, vertices, params, 2, 3, H, t0=t0)

    def test_restricted_points_satisfy_the_full_budget_rows(self, plant, pentagon):
        """Points of the tailed program, with every far Q_t set to its boxes'
        largest support, satisfy every row of the program without the tail."""
        full = illustrative_blocks(plant, pentagon)
        params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        t0 = budget_tail(plant, pentagon, params)
        assert (t0, params.s) == (26, 60)
        tailed = illustrative_blocks(plant, pentagon, t0)
        lay, full_lay = tailed.layout, full.layout
        assert tailed.a_x.shape == (full.a_x.shape[0] - 4 * (60 - t0) * 5 + 2 * 4 * 2, full_lay.dim_x - (60 - t0) * 5 + 2)
        gbar = build_gbar(plant, pentagon, params)
        lb = np.full(lay.dim_x, -np.inf)
        _boxes(lay, lb)[:, 1] = 0.0
        rng = np.random.default_rng(52)
        for _ in range(6):
            # grow the boxes in a random direction until a budget row binds
            cost = np.zeros(lay.dim_x)
            cost[: 2 * lay.n_boxes * lay.n_w] = -rng.uniform(0.0, 1.0, 2 * lay.n_boxes * lay.n_w)
            out = solve_lp(LpProblem(cost, as_csr(tailed.a_x), tailed.b, 0, lb))
            assert out.optimal
            x = out.x
            W = boxes_from_x(tailed, x)
            n_box = 2 * lay.n_boxes * lay.n_w
            budgets = x[n_box : n_box + (t0 + 1) * lay.m_y].reshape(t0 + 1, lay.m_y)  # Q_0 .. Q_(t0-1), r
            x_full = np.zeros(full_lay.dim_x)
            x_full[:n_box] = x[:n_box]
            full_budgets = x_full[n_box:].reshape(params.s + 1, lay.m_y)
            for t in range(params.s):
                GB = gbar[t] @ plant.B
                far = np.max(GB @ W.centers.T + np.abs(GB) @ W.halfwidths.T, axis=1)
                full_budgets[t] = budgets[t] if t < t0 else far
            full_budgets[params.s] = budgets[t0]
            assert np.all(full.a_x @ x_full <= full.b + 1e-9)


def _reference_case(case):
    """The problem of ``case`` as cmd_synth reads it: (sys, Y, vertices, H, options)."""
    if case in ("illustrative", "N=1"):
        spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
        if case == "N=1":
            spec.options.n_boxes = 1
    elif case == "mapped":
        spec = cmd_reduce(json.loads((ROOT / "specs" / "reduced_order_plant.json").read_text()))
    elif case == "zeros":  # exact zeros in B and D, besides those of the box H and G
        spec = cmd_gen(3, 2, 2, 0.7, 0)
        B, D = spec.sys.B.copy(), spec.sys.D.copy()
        B[0, 1] = B[2, 0] = D[1, 0] = 0.0
        spec.sys = LtiSystem(spec.sys.A, B, spec.sys.C, D)
    else:  # gen-<n_x>-<seed>, or gen-<n_x>-<seed>-<n_w> with n_w disturbances (2 without)
        _, n_x, seed, *n_w = case.split("-")
        spec = cmd_gen(int(n_x), int(n_w[0]) if n_w else 2, 2, 0.7, int(seed))
    return spec.sys, spec.Y, spec.resolve_vertices(), spec.resolve_h(), spec.options


class TestMatchesScipyReference:
    """Every block encoder builds from index triplets, sorted by
    ``lp_solver.csr``, is the matrix the scipy.sparse constructor chain in
    ``reference`` builds, bit for bit: shape, entry order, the zeros left
    out, and the index dtypes."""

    @pytest.mark.parametrize("tail", ["budget-tail", "no-tail"])
    @pytest.mark.parametrize(
        "case", ["illustrative", "mapped", "gen-3-0", "gen-3-1", "gen-6-0", "gen-6-1", "N=1", "zeros"]
    )
    def test_blocks(self, case, tail):
        sys, Y, vertices, H, opts = _reference_case(case)
        if case in ("illustrative", "zeros"):
            assert (sys.D == 0.0).any()  # a zero the blocks must leave out
        params = select_params(sys, Y, gamma=opts.gamma, mu=opts.mu)
        t0 = budget_tail(sys, Y, params) if tail == "budget-tail" else params.s
        assert (t0 < params.s) == (tail == "budget-tail")  # with and without the rho rows
        horizon = short_horizon(sys, opts.horizon if opts.horizon is not None else params.s)
        layout = assemble(sys, Y, vertices, params, opts.n_boxes, horizon, H, t0).layout
        gbar = build_gbar(sys, Y, params)
        built = {
            "output-inclusion": (
                encode_output_inclusion(gbar, tail_charge(gbar, sys, layout), sys, Y, params, layout),
                scipy_output_inclusion(gbar, sys, Y, params, layout),
            ),
            "gamma": (encode_gamma_bound(sys, params.gamma, layout), scipy_gamma_bound(sys, params.gamma, layout)),
            "origin": (encode_origin(layout), scipy_origin(layout)),
        }
        for name, ((a, b), (ref_a, ref_b)) in built.items():
            assert_same_matrix(csr(a), ref_a, name)
            assert b.tobytes() == ref_b.tobytes(), name
        vertices = merge_vertices(vertices)
        blocks = encode_vertex_reach(vertices, reach_coefficients(sys, layout.horizon), layout, H)
        refs = scipy_vertex_reach(vertices, sys, layout, H)
        for name, block, ref in zip(("c_w", "c_z", "h", "e_z", "t_beta"), blocks, refs):
            if name == "h":
                assert block.tobytes() == ref.tobytes()
            else:
                assert_same_matrix(csr(block), ref, name)


@pytest.fixture(scope="module", params=["illustrative", "mapped", "gen-6-1", "gen-4-1-3"])
def pattern_case(request):
    """The problem cmd_synth assembles for ``_reference_case`` (the mapped
    plant's P-step deletes rows; with three disturbances, a Q-step entry sums
    three terms, so their order shows), the former per-step builders'
    matrices of it, and its slot maps."""
    sys, Y, vertices, H, opts = _reference_case(request.param)
    params = select_params(sys, Y, gamma=opts.gamma, mu=opts.mu)
    horizon = short_horizon(sys, opts.horizon if opts.horizon is not None else params.s)
    problem = assemble(sys, Y, vertices, params, opts.n_boxes, horizon, H, budget_tail(sys, Y, params))
    dead = ~problem.p_program.kept
    assert dead.any() == (request.param == "mapped")
    former = former_step_matrices(sys, Y, vertices, params, H, problem.layout, dead)
    return problem, former, reach_coefficients(sys, problem.layout.horizon)


class TestStepPattern:
    """A step program filled in from its pattern and linear map is the matrix
    the former per-step builders made, bit for bit: entry order, the exact
    zeros a factor leaves out and the subnormals it keeps."""

    @pytest.mark.parametrize("weights", ["spread", "uniform", "dirichlet"])
    def test_p_step(self, pattern_case, weights):
        problem, (p_matrix, _), _ = pattern_case
        lay = problem.layout
        if weights == "dirichlet":
            beta = np.random.default_rng(5).dirichlet(np.full(lay.n_boxes, 0.5), size=lay.n_groups)
            beta[::3, 0], beta[1::3, -1] = 0.0, 5e-324
            beta = beta.ravel()
        else:
            beta = spread_beta(lay) if weights == "spread" else uniform_beta(lay)
        lp = problem.p_program.lp(beta)
        assert_same_matrix(lp.a, p_matrix(beta), weights)
        if weights == "dirichlet":
            assert (np.abs(lp.a.data) == 5e-324).any()

    def test_q_step_at_the_first_p_step_points(self, pattern_case):
        problem, (_, q_matrix), _ = pattern_case
        wbar = p_step(problem, spread_beta(problem.layout))[2]
        assert_same_matrix(problem.q_program.lp(wbar).a, q_matrix(wbar))

    def test_q_entry_that_sums_to_zero_is_left_out(self, pattern_case):
        """Points (r1, -r0) of vertex 0, slot t and box 0, where (r0, r1) =
        reach[t, y, :2], cancel to exactly 0 in row (0, y): the entry is left
        out, and points (r1, r0) keep it."""
        problem, (_, q_matrix), reach = pattern_case
        lay = problem.layout
        t, y = np.argwhere((reach[:, :, 0] != 0.0) & (reach[:, :, 1] != 0.0))[0]
        row, col = lay.n_vertices * lay.n_b + y, t * lay.n_boxes  # after the deviation rows
        wbar = p_step(problem, spread_beta(lay))[2].reshape(lay.n_vertices, lay.n_slots, lay.n_boxes, lay.n_w)
        for sign in (1.0, -1.0):
            wbar[0, t, 0] = 0.0
            wbar[0, t, 0, :2] = reach[t, y, 1], sign * reach[t, y, 0]
            a = problem.q_program.lp(wbar).a
            assert_same_matrix(a, q_matrix(wbar), sign)
            assert (col in a.indices[a.indptr[row] : a.indptr[row + 1]]) == (sign > 0)
