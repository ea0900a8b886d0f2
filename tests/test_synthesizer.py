import dataclasses
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from distsynth import (
    HPolytope,
    SynthesisError,
    alternate,
    assemble,
    h_preset,
    p_step,
    q_step,
    refine,
    select_params,
    spread_beta,
    vertices_hpoly,
)
from distsynth import encoder, synthesizer
from distsynth.cli import cmd_gen, cmd_synth, parse_spec
from distsynth.lp_solver import RESIDUAL_TOL, LpProblem, solve_lp, write_lp
from distsynth.setgeom import stacked_identity
from distsynth.synthesizer import _jittered_beta

from conftest import random_stable_system
from reference import (
    as_csr,
    membership_blocks,
    no_rows,
    p_step_lp,
    program_residual,
    q_step_lp,
    synth_blocks,
    to_scipy,
    uniform_beta,
)

ROOT = Path(__file__).resolve().parents[1]


def unit_box_constraints(n):
    return HPolytope(stacked_identity(n), np.ones(2 * n))


def unit_box_inputs(seed):
    """(sys, Y, params, vertices) of a random two-state plant under the unit box."""
    rng = np.random.default_rng(seed)
    sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
    Y = unit_box_constraints(2)
    return sys, Y, select_params(sys, Y, gamma=1.0, mu=1e-2), vertices_hpoly(Y)


@pytest.fixture(scope="module")
def small_setup():
    sys, Y, params, vertices = unit_box_inputs(50)
    problem = assemble(sys, Y, vertices, params, n_boxes=2, horizon=3, H=h_preset("box", 2), t0=params.s)
    return sys, Y, params, vertices, problem


@pytest.fixture(scope="module")
def small_blocks(small_setup):
    sys, Y, params, vertices, problem = small_setup
    return synth_blocks(sys, Y, vertices, params, h_preset("box", 2), problem.layout)


@pytest.fixture(scope="module")
def vertex_count_inputs():
    return unit_box_inputs(51)


@pytest.fixture(scope="module")
def vertex_count_setup(vertex_count_inputs):
    sys, Y, params, vertices = vertex_count_inputs
    problem = assemble(
        sys, Y, vertices, params, n_boxes=len(vertices), horizon=2, H=h_preset("box", 2), t0=params.s
    )
    return problem


@pytest.fixture(scope="module")
def vertex_count_blocks(vertex_count_inputs, vertex_count_setup):
    sys, Y, params, vertices = vertex_count_inputs
    return synth_blocks(sys, Y, vertices, params, h_preset("box", 2), vertex_count_setup.layout)


@pytest.fixture(scope="module")
def illustrative_params(plant, pentagon):
    return select_params(plant, pentagon, gamma=0.2, mu=1e-3)


@pytest.fixture(scope="module")
def illustrative_problem(plant, pentagon, illustrative_params):
    return assemble(
        plant, pentagon, vertices_hpoly(pentagon), illustrative_params, 4, 59, h_preset("uniform:6", 2), illustrative_params.s
    )


@pytest.fixture(scope="module")
def illustrative_blocks(plant, pentagon, illustrative_params, illustrative_problem):
    return synth_blocks(
        plant, pentagon, vertices_hpoly(pentagon), illustrative_params, h_preset("uniform:6", 2),
        illustrative_problem.layout,
    )


def wbar_p_step_optimum(blocks, beta):
    """Optimum of the P step stated over (x, w, wbar, z): the membership
    blocks of ``membership_blocks`` plus the coupling w = sum_j beta_j wbar_j
    written out group by group, wbar by (group, box, coordinate)."""
    lay = blocks.layout
    d_x, d_wbar = membership_blocks(lay)
    nx, nw, nwb, nz = lay.dim_x, lay.dim_w, d_wbar.shape[1], lay.dim_z
    width = nx + nw + nwb + nz
    z_off = nx + nw + nwb
    n_rows = lay.dim_w
    blend = sp.block_diag([np.kron(b, np.eye(lay.n_w)) for b in beta.reshape(lay.n_groups, lay.n_boxes)])
    coupling = sp.hstack([sp.csr_matrix((n_rows, nx)), sp.eye(n_rows), -blend, sp.csr_matrix((n_rows, nz))])

    def row(rows, *parts):
        # (matrix or column count of zeros) per column group, left to right
        return sp.hstack([sp.csr_matrix((rows, p)) if isinstance(p, int) else p for p in parts])

    a = sp.vstack(
        [
            row(blocks.a_x.shape[0], blocks.a_x, nw + nwb + nz),
            row(d_x.shape[0], d_x, nw, d_wbar, nz),
            row(blocks.e_z.shape[0], nx + nw + nwb, blocks.e_z),
            row(blocks.c_w.shape[0], nx, blocks.c_w, nwb, blocks.c_z),
            coupling,
        ]
    )
    b = np.concatenate([blocks.b, np.zeros(d_x.shape[0] + blocks.e_z.shape[0]), blocks.h, np.zeros(n_rows)])
    c = np.zeros(width)
    c[z_off:] = blocks.cost_z
    lb = np.full(width, -np.inf)
    lb[: 2 * lay.n_boxes * lay.n_w].reshape(lay.n_boxes, 2, lay.n_w)[:, 1] = 0.0  # the halfwidths
    lb[z_off + lay.z_eps().start : z_off + lay.z_eps().stop] = 0.0
    out = solve_lp(LpProblem(c, as_csr(a), b, blocks.h.size + n_rows, lb))
    assert out.optimal
    return out.objective


def dirichlet_beta(layout, rng):
    return rng.dirichlet(np.ones(layout.n_boxes), size=layout.n_groups).ravel()


def weight_draws(layout, seed):
    rng = np.random.default_rng(seed)
    draws = {"uniform": uniform_beta(layout), "spread": spread_beta(layout)}
    for k in range(3):
        draws[f"dirichlet-{k}"] = dirichlet_beta(layout, rng)
    return draws


class TestPStepMatchesWbarOracle:
    """The P step over (x, w, z) has the optimum of the P step over
    (x, w, wbar, z), and its closed-form group points satisfy every block."""

    def check(self, problem, blocks, seed):
        for name, beta in weight_draws(problem.layout, seed).items():
            x, w, wbar, z, obj, _ = p_step(problem, beta)
            assert obj == pytest.approx(wbar_p_step_optimum(blocks, beta), abs=1e-9), name
            point = {"x": x, "w": w, "wbar": wbar, "beta": beta, "z": z}
            assert program_residual(blocks, point) <= 1e-8, name

    def test_small_fixture(self, small_setup, small_blocks):
        self.check(small_setup[4], small_blocks, 60)

    def test_vertex_count_fixture(self, vertex_count_setup, vertex_count_blocks):
        self.check(vertex_count_setup, vertex_count_blocks, 61)

    def test_illustrative(self, illustrative_problem, illustrative_blocks):
        self.check(illustrative_problem, illustrative_blocks, 62)

    def test_zero_weights_add_no_entries(self, illustrative_problem, illustrative_blocks, monkeypatch):
        problem = illustrative_problem
        lay = problem.layout
        start = illustrative_blocks.a_x.shape[0]
        dense, onehot = (
            to_scipy(captured_lp(monkeypatch, p_step, problem, beta).a)[start : start + 2 * lay.dim_w]
            for beta in (uniform_beta(lay), spread_beta(lay))
        )
        assert dense.shape == onehot.shape == (2 * lay.dim_w, lay.dim_x + lay.dim_w + lay.dim_z)
        # per row: the w entry plus a center and a halfwidth entry per weighted box
        assert dense.nnz == dense.shape[0] * (1 + 2 * lay.n_boxes)
        assert onehot.nnz == onehot.shape[0] * 3


def captured_lp(monkeypatch, step, *args):
    """The program that ``step`` hands to solve_lp; it is not solved."""

    class Captured(Exception):
        pass

    def capture(lp, **kwargs):
        raise Captured(lp)

    monkeypatch.setattr(synthesizer, "solve_lp", capture)
    with pytest.raises(Captured) as info:
        step(*args)
    return info.value.args[0]


def assert_entries(block, rows):
    """``block`` stores exactly the entries of ``rows`` (one {column: value}
    dict per row), row by row in column order, values bit for bit."""
    cols = [sorted(row) for row in rows]
    np.testing.assert_array_equal(block.indptr, np.cumsum([0] + [len(c) for c in cols]))
    np.testing.assert_array_equal(block.indices, [j for c in cols for j in c])
    expected = np.array([row[j] for row, c in zip(rows, cols) for j in c], dtype=float)
    assert block.data.tobytes() == expected.tobytes()


class TestStepBlocks:
    """Entry by entry, the P-step's membership rows and the Q-step's reach
    rows with the coupling substituted are the ones written out group by
    group from the group-major layout."""

    @pytest.fixture(params=["small", "illustrative"])
    def problem(self, request):
        """The assembled problem and its blocks."""
        if request.param == "small":
            return request.getfixturevalue("small_setup")[4], request.getfixturevalue("small_blocks")
        return request.getfixturevalue("illustrative_problem"), request.getfixturevalue("illustrative_blocks")

    @pytest.mark.parametrize("weights", ["uniform", "spread", "dirichlet-0"])
    def test_membership_rows(self, problem, weights, monkeypatch):
        problem, blocks = problem
        lay = problem.layout
        beta = weight_draws(lay, 63)[weights]
        lp = captured_lp(monkeypatch, p_step, problem, beta)
        # by (group, coordinate, sign): +-(w_g - sum_j beta_gj c_j) - sum_j beta_gj e_j
        box_cols = np.arange(2 * lay.n_boxes * lay.n_w).reshape(lay.n_boxes, 2, lay.n_w)  # (c_j, e_j)
        by_group = beta.reshape(lay.n_groups, lay.n_boxes)
        rows = []
        for g in range(lay.n_groups):
            for k in range(lay.n_w):
                for sign in (1.0, -1.0):
                    row = {lay.dim_x + g * lay.n_w + k: sign}
                    for j in range(lay.n_boxes):
                        if by_group[g, j] != 0.0:
                            row[int(box_cols[j, 0, k])] = -sign * by_group[g, j]
                            row[int(box_cols[j, 1, k])] = -by_group[g, j]
                    rows.append(row)
        start = blocks.a_x.shape[0]
        assert lp.n_ub == start + 2 * lay.dim_w + blocks.e_z.shape[0]
        assert lp.a.shape[1] == lay.dim_x + lay.dim_w + lay.dim_z
        assert_entries(to_scipy(lp.a)[start : start + 2 * lay.dim_w], rows)
        if weights == "spread":
            # zero weights add no entries: the w entry, one center, one halfwidth
            assert to_scipy(lp.a)[start : start + 2 * lay.dim_w].nnz == 3 * 2 * lay.dim_w

    def test_coupling_rows(self, problem, monkeypatch):
        problem, blocks = problem
        lay = problem.layout
        rng = np.random.default_rng(64)
        n_wbar = lay.dim_beta * lay.n_w
        wbar = rng.normal(size=n_wbar)
        wbar[rng.random(n_wbar) < 0.3] = 0.0
        lp = captured_lp(monkeypatch, q_step, problem, wbar)
        n_reach, nb = blocks.c_w.shape[0], lay.dim_beta
        assert lp.n_eq == n_reach + lay.n_groups and lp.a.shape[1] == nb + lay.dim_z
        a_ub, a_eq = to_scipy(lp.a)[: lp.n_ub], to_scipy(lp.a)[lp.n_ub :]
        # by (vertex, output): c_w @ blockdiag(wbar_g^T), i.e. w_g = sum_j beta_gj wbar_gj
        # substituted, so beta_gj carries the reach coefficients of w_g times wbar_gj
        c_w = blocks.c_w.toarray().reshape(n_reach, lay.n_groups, lay.n_w)
        points = wbar.reshape(lay.n_groups, lay.n_boxes, lay.n_w)
        expected = np.einsum("rgk,gjk->rgj", c_w, points).reshape(n_reach, nb)
        np.testing.assert_allclose(a_eq[:n_reach, :nb].toarray(), expected, rtol=1e-13, atol=1e-15)
        assert (a_eq[:n_reach, nb:] != blocks.c_z).nnz == 0
        assert (a_eq[n_reach:, :nb] != blocks.t_beta).nnz == 0 and a_eq[n_reach:, nb:].nnz == 0
        np.testing.assert_array_equal(lp.b[lp.n_ub :], np.concatenate([blocks.h, np.ones(lay.n_groups)]))
        # no w column and no inequality row beyond e_z
        assert lp.n_ub == blocks.e_z.shape[0]
        assert a_ub[:, :nb].nnz == 0 and (a_ub[:, nb:] != blocks.e_z).nnz == 0


class TestPStep:
    def test_objective_bounded_by_zero_disturbance_value(self, small_setup):
        _, _, _, vertices, problem = small_setup
        _, _, _, _, obj, _ = p_step(problem, uniform_beta(problem.layout))
        anchor = float(np.sum(np.max(np.clip(vertices @ h_preset("box", 2).T, 0.0, None), axis=0)))
        assert obj <= anchor + 1e-9

    def test_origin_vertex_gives_zero_objective(self):
        rng = np.random.default_rng(52)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        Y = unit_box_constraints(2)
        params = select_params(sys, Y, gamma=1.0, mu=1e-2)
        problem = assemble(sys, Y, np.zeros((1, 2)), params, 2, 2, h_preset("box", 2), params.s)
        _, _, _, _, obj, _ = p_step(problem, uniform_beta(problem.layout))
        assert obj == pytest.approx(0.0, abs=1e-10)

    def test_heuristic_weights_reproduce_per_vertex_boxes(self, vertex_count_setup):
        problem = vertex_count_setup
        beta = spread_beta(problem.layout)
        x, w, wbar, z, obj, _ = p_step(problem, beta)
        # with one-hot weights each driving point equals its own box point
        lay = problem.layout
        points = wbar.reshape(lay.n_vertices, lay.n_slots, lay.n_boxes, lay.n_w)
        drive = w.reshape(lay.n_vertices, lay.n_slots, lay.n_w)
        for i in range(lay.n_vertices):
            np.testing.assert_allclose(drive[i], points[i, :, i], atol=1e-9)
        assert obj >= 0.0


class TestQStep:
    def test_improves_on_p_step(self, small_setup):
        _, _, _, _, problem = small_setup
        beta = uniform_beta(problem.layout)
        _, _, wbar, _, p_obj, _ = p_step(problem, beta)
        _, q_obj, _ = q_step(problem, wbar)
        assert q_obj <= p_obj + 1e-8

    def test_single_box_forces_unit_weights(self):
        rng = np.random.default_rng(53)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        Y = unit_box_constraints(2)
        params = select_params(sys, Y, gamma=1.0, mu=1e-2)
        problem = assemble(sys, Y, vertices_hpoly(Y), params, 1, 2, h_preset("box", 2), params.s)
        beta = uniform_beta(problem.layout)
        _, _, wbar, _, p_obj, _ = p_step(problem, beta)
        beta_out, q_obj, _ = q_step(problem, wbar)
        assert np.allclose(beta_out, 1.0)
        assert q_obj == pytest.approx(p_obj, abs=1e-8)

    def capture_lp_solutions(self, monkeypatch):
        solutions = []

        def recording(lp, **kwargs):
            out = solve_lp(lp, **kwargs)
            solutions.append(out.x)
            return out

        monkeypatch.setattr(synthesizer, "solve_lp", recording)
        return solutions

    def test_coincident_points_give_spread_weights(self, small_setup):
        problem = small_setup[4]
        lay = problem.layout
        _, w, _, _, _, _ = p_step(problem, uniform_beta(lay))
        wbar = np.repeat(w.reshape(lay.n_groups, 1, lay.n_w), lay.n_boxes, axis=1).ravel()
        beta, _, _ = q_step(problem, wbar)
        np.testing.assert_array_equal(beta, spread_beta(lay))

    def test_distinct_points_keep_the_solver_weights(self, small_setup, monkeypatch):
        problem = small_setup[4]
        lay = problem.layout
        _, w, wbar, _, _, _ = p_step(problem, spread_beta(lay))
        # one group's points coincide, the others do not: no tie-break
        wbar.reshape(lay.n_groups, lay.n_boxes, lay.n_w)[0] = w[: lay.n_w]
        assert np.ptp(wbar.reshape(lay.n_groups, lay.n_boxes, lay.n_w), axis=1).max() > 1e-6
        solutions = self.capture_lp_solutions(monkeypatch)
        beta, _, _ = q_step(problem, wbar)
        np.testing.assert_array_equal(beta, solutions[-1][: lay.dim_beta])

    def test_matches_simplex_grid_oracle(self):
        """With the group points frozen, the driving points are exactly the
        weight-blended points, so the optimum over weights can be enumerated
        on a per-group simplex grid and scored in closed form."""
        rng = np.random.default_rng(54)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.4)
        Y = unit_box_constraints(2)
        params = select_params(sys, Y, gamma=1.0, mu=1e-2)
        vertices = np.array([[0.3, 0.2], [-0.25, 0.1]])
        H = h_preset("box", 2)
        problem = assemble(sys, Y, vertices, params, n_boxes=2, horizon=1, H=H, t0=params.s)
        lay = problem.layout
        _, _, wbar, _, _, _ = p_step(problem, uniform_beta(lay))
        _, q_obj, _ = q_step(problem, wbar)
        points = wbar.reshape(lay.n_vertices, lay.n_slots, lay.n_boxes, lay.n_w)

        coeff = [sys.C @ sys.B, sys.D]  # slot maps at horizon 1
        grid = np.linspace(0.0, 1.0, 101)

        def score(b_grid):
            # b_grid: weight of box 0 per (vertex, slot), shape (2, 2)
            total_eps = np.zeros(H.shape[0])
            b_points = []
            for i in range(lay.n_vertices):
                reach = np.zeros(2)
                for slot in range(lay.n_slots):
                    w0, w1 = points[i, slot]
                    blended = b_grid[i, slot] * w0 + (1 - b_grid[i, slot]) * w1
                    reach += coeff[slot] @ blended
                b_points.append(vertices[i] - reach)
            return float(np.sum(np.max(np.clip(np.array(b_points) @ H.T, 0.0, None), axis=0)))

        best = np.inf
        for b00 in grid[::4]:
            for b01 in grid[::4]:
                for b10 in grid[::4]:
                    for b11 in grid[::4]:
                        best = min(best, score(np.array([[b00, b01], [b10, b11]])))
        # Lipschitz slack of the coarse grid in each coordinate
        span = max(
            np.linalg.norm(coeff[slot] @ (points[i, slot, 0] - points[i, slot, 1]), 1)
            for i in range(2)
            for slot in range(2)
        )
        slack = 4 * (grid[4] - grid[0]) * span * np.abs(H).max() * H.shape[0]
        assert q_obj <= best + 1e-8
        assert best <= q_obj + slack


class TestFactorSize:
    """A frozen factor of any size but its program's raises ValueError before a
    program is built, so no step solves from a prefix of it."""

    @pytest.mark.parametrize("extra", [1, -1])
    def test_step_programs_take_only_their_factor_size(self, illustrative_problem, extra):
        lay = illustrative_problem.layout
        with pytest.raises(ValueError):
            illustrative_problem.p_program.lp(np.full(lay.dim_beta + extra, 0.25))
        with pytest.raises(ValueError):
            illustrative_problem.q_program.lp(np.zeros(lay.dim_beta * lay.n_w + extra))

    def test_alternate_solves_nothing_from_a_long_start(self, illustrative_problem, monkeypatch):
        solved = []
        monkeypatch.setattr(synthesizer, "solve_lp", lambda lp, **kwargs: solved.append(lp))
        beta0 = np.append(spread_beta(illustrative_problem.layout), 0.25)
        with pytest.raises(ValueError):
            alternate(illustrative_problem, beta0)
        assert solved == []


def alternate_under(monkeypatch, problem, beta0, zeta=synthesizer.ZETA, max_iters=synthesizer.MAX_ITERS):
    """One alternation under another stopping rule than the commands'."""
    with monkeypatch.context() as m:
        m.setattr(synthesizer, "ZETA", zeta)
        m.setattr(synthesizer, "MAX_ITERS", max_iters)
        return alternate(problem, beta0)


def assert_every_step_after_the_first_is_warm(problem, monkeypatch, step_name):
    """Each call of ``step_name`` after a run's first is passed the basis the
    previous call returned: in a run from spread weights, in one from uniform
    weights, whose first Q-step ties to the spread weights, and in refine's
    two restarts.  refine runs its restarts on several threads, so each run
    records its steps in the list of the thread it runs on."""
    res = alternate(problem, spread_beta(problem.layout))
    runs, current = [], threading.local()
    real_alternate, real_step = synthesizer.alternate, getattr(synthesizer, step_name)

    def recording_alternate(problem, beta0):
        current.run = []
        runs.append(current.run)
        return real_alternate(problem, beta0)

    def recording_step(problem, frozen, basis=None):
        out = real_step(problem, frozen, basis)
        current.run.append((basis, out[-1].basis))
        return out

    monkeypatch.setattr(synthesizer, "alternate", recording_alternate)
    monkeypatch.setattr(synthesizer, step_name, recording_step)
    monkeypatch.setattr(synthesizer, "ZETA", 1e-6)
    for beta0 in (spread_beta(problem.layout), uniform_beta(problem.layout)):
        synthesizer.alternate(problem, beta0)
    refine(problem, res, 2, np.random.default_rng(7))
    assert len(runs) == 4
    for run in runs:
        assert len(run) >= 2
        assert run[0][0] is None  # the first step of each run is cold
        for (basis, _), (_, previous) in zip(run[1:], run[:-1]):
            assert basis is previous is not None


class TestAlternate:
    def test_history_nonincreasing(self, small_setup, monkeypatch):
        _, _, _, _, problem = small_setup
        res = alternate_under(monkeypatch, problem, uniform_beta(problem.layout), zeta=1e-6, max_iters=50)
        hist = np.array(res.history)
        assert np.all(np.diff(hist) <= 1e-7)
        assert res.termination in ("converged", "max-iterations")

    def test_origin_only_converges_to_zero(self):
        rng = np.random.default_rng(55)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        Y = unit_box_constraints(2)
        params = select_params(sys, Y, gamma=1.0, mu=1e-2)
        problem = assemble(sys, Y, np.zeros((1, 2)), params, 2, 2, h_preset("box", 2), params.s)
        res = alternate(problem, uniform_beta(problem.layout))
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert res.iterations <= 2

    def test_final_witness_is_feasible(self, small_setup, small_blocks, monkeypatch):
        # the last P-step's boxes and group points, blended by the last
        # Q-step's weights, with its slacks
        problem = small_setup[4]
        lay = problem.layout
        steps = []
        for name in ("p_step", "q_step"):
            real = getattr(synthesizer, name)
            monkeypatch.setattr(synthesizer, name, lambda *args, real=real: steps.append(real(*args)) or steps[-1])
        res = alternate(problem, uniform_beta(lay))
        (x, _, wbar, _, _, _), (beta, _, out) = steps[-2:]
        assert beta is res.beta
        w = (wbar.reshape(lay.n_groups, lay.n_boxes, lay.n_w) * beta.reshape(lay.n_groups, lay.n_boxes, 1)).sum(axis=1)
        point = {"x": x, "w": w.ravel(), "wbar": wbar, "beta": beta, "z": out.x[lay.dim_beta :]}
        assert program_residual(small_blocks, point) <= 1e-6

    def test_intermediate_sets_are_certified(self, small_setup, monkeypatch):
        from distsynth import verify_gamma, verify_output_inclusion
        from reference import contains_point

        sys, Y, params, _, problem = small_setup
        for iters in (1, 2, 3):
            res = alternate_under(monkeypatch, problem, uniform_beta(problem.layout), zeta=1e-12, max_iters=iters)
            assert verify_gamma(sys, res.W, params.gamma).passed
            assert verify_output_inclusion(sys, Y, params, res.W).passed
            assert contains_point(res.W, np.zeros(sys.n_w), tol=1e-7)

    def test_uniform_start_ties_to_spread_weights_under_any_row_order(
        self, illustrative_problem, monkeypatch
    ):
        # from uniform weights the first P step returns coincident boxes, so
        # every weight ties in the Q step; the tie-break, not the solver's
        # pivoting, picks the weights the alternation continues from
        problem = illustrative_problem
        lay = problem.layout
        p_width = lay.dim_x + lay.dim_w + lay.dim_z
        ends = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)

            def permuted(lp, rng=rng, **kwargs):
                if lp.n_vars == p_width:
                    perm = np.concatenate([rng.permutation(lp.n_ub), np.arange(lp.n_ub, lp.b.size)])
                    lp = LpProblem(lp.c, as_csr(to_scipy(lp.a)[perm]), lp.b[perm], lp.n_eq, lp.lb)
                return solve_lp(lp, **kwargs)

            monkeypatch.setattr(synthesizer, "solve_lp", permuted)
            res = alternate_under(monkeypatch, problem, uniform_beta(lay), max_iters=1)
            np.testing.assert_array_equal(res.beta, spread_beta(lay))
            ends.append(res.objective)
        assert ends[1] == pytest.approx(ends[0], abs=1e-9)

    def test_each_p_step_after_the_first_starts_from_the_previous_basis(self, small_setup, monkeypatch):
        assert_every_step_after_the_first_is_warm(small_setup[4], monkeypatch, "p_step")

    def test_each_q_step_after_the_first_starts_from_the_previous_basis(self, small_setup, monkeypatch):
        assert_every_step_after_the_first_is_warm(small_setup[4], monkeypatch, "q_step")

    @pytest.mark.parametrize("case, n_boxes, nit", [("gen-3-2-2", 2, 227), ("illustrative", 1, 164)])
    def test_a_tie_break_repeat_of_the_first_p_step_takes_no_iteration(self, case, n_boxes, nit):
        # the spread start ties to itself in the first Q-step, so the second
        # P-step is the first one again and starts from its optimal basis
        if case == "illustrative":
            spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
            objective = 1.363028964
        else:
            spec = cmd_gen(3, 2, 2, 0.7, 1)
            objective = 2.447403554
        options = dataclasses.replace(spec.options, n_boxes=n_boxes, restarts=0)
        doc = cmd_synth(dataclasses.replace(spec, options=options))
        assert doc.p_nit == [nit, 0]
        assert doc.history[2] == pytest.approx(doc.history[0], abs=1e-9) and doc.termination == "converged"
        assert doc.objective == pytest.approx(objective, abs=1e-9)
        assert all(margin["passed"] for margin in doc.certificates.values())

    def test_p_step_answers_meet_the_residual_contract(self, illustrative_problem, monkeypatch):
        # and so do the Q-step answers
        problem = illustrative_problem
        lay = problem.layout
        p_width, q_width = lay.dim_x + lay.dim_w + lay.dim_z, lay.dim_beta + lay.dim_z
        answers = {p_width: [], q_width: []}

        def recording(lp, **kwargs):
            out = solve_lp(lp, **kwargs)
            answers[lp.n_vars].append((kwargs, out))
            return out

        monkeypatch.setattr(synthesizer, "solve_lp", recording)
        res = alternate(problem, spread_beta(lay))
        for steps in answers.values():
            assert len(steps) == res.iterations >= 2
            warm = [kwargs.get("basis") is not None for kwargs, _ in steps]
            assert warm == [False] + [True] * (res.iterations - 1)
            assert all(out.optimal and out.residual <= RESIDUAL_TOL for _, out in steps)
        assert res.p_nit == [out.nit for _, out in answers[p_width]]

    def test_failing_q_step_names_its_iteration_and_keeps_the_lp(self, small_setup, monkeypatch):
        problem = small_setup[4]
        lp = LpProblem(np.zeros(1), no_rows(1), [], 0, [0.0])

        def failing(problem, wbar, basis=None):
            raise SynthesisError("reweighting LP ended with status failed", lp)

        monkeypatch.setattr(synthesizer, "q_step", failing)
        with pytest.raises(SynthesisError, match="^iteration 1: reweighting LP") as info:
            alternate(problem, uniform_beta(problem.layout))
        assert info.value.lp is lp


class TestSpreadBeta:
    def test_vertex_i_takes_box_i_mod_n(self, illustrative_problem):
        lay = illustrative_problem.layout
        beta = spread_beta(lay).reshape(lay.n_vertices, lay.n_slots, lay.n_boxes)
        for i in range(lay.n_vertices):
            expected = np.zeros((lay.n_slots, lay.n_boxes))
            expected[:, i % lay.n_boxes] = 1.0
            np.testing.assert_array_equal(beta[i], expected)


class TestHeuristicBeta:
    """Spread weights with one box per vertex: the per-vertex one-hot start."""

    def test_one_hot_structure(self, vertex_count_setup):
        lay = vertex_count_setup.layout
        beta = spread_beta(lay).reshape(lay.n_vertices, lay.n_slots, lay.n_boxes)
        for i in range(lay.n_vertices):
            assert np.all(beta[i, :, i] == 1.0) and np.all(beta[i].sum(axis=1) == 1.0)

    def test_simplex_feasibility(self, vertex_count_setup, vertex_count_blocks):
        beta = spread_beta(vertex_count_setup.layout)
        assert np.allclose(vertex_count_blocks.t_beta @ beta, 1.0)
        assert np.all(beta >= 0)

    def test_alternation_improves_on_heuristic_start(self, vertex_count_setup, monkeypatch):
        # the first half-step of the alternation from one-hot weights is the
        # per-vertex-box LP itself, so the loop can only improve on it
        problem = vertex_count_setup
        _, _, _, _, obj_heuristic, _ = p_step(problem, spread_beta(problem.layout))
        res = alternate_under(monkeypatch, problem, spread_beta(problem.layout), zeta=1e-6, max_iters=50)
        assert obj_heuristic >= res.objective - 1e-8
        assert res.history[0] == pytest.approx(obj_heuristic, abs=1e-9)


class TestRefine:
    def test_zero_restarts_is_identity(self, small_setup):
        _, _, _, _, problem = small_setup
        res = alternate(problem, uniform_beta(problem.layout))
        out = refine(problem, res, 0, np.random.default_rng(0))
        assert out is res

    def test_never_worse_and_reproducible(self, small_setup):
        _, _, _, _, problem = small_setup
        res = alternate(problem, uniform_beta(problem.layout))
        out1 = refine(problem, res, 3, np.random.default_rng(7))
        out2 = refine(problem, res, 3, np.random.default_rng(7))
        assert out1.objective <= res.objective
        assert out1.objective == out2.objective

    def test_failing_restart_is_dropped(self, small_setup, monkeypatch):
        problem = small_setup[4]
        res = alternate(problem, uniform_beta(problem.layout))
        # the restart weights refine draws, and each restart's own result
        starts = [
            _jittered_beta(problem.layout, res.beta, stream)
            for stream in np.random.default_rng(7).spawn(3)
        ]
        ends = [alternate(problem, b0).objective for b0 in starts]
        failing = int(np.argmin(ends))
        real = synthesizer.alternate

        def alternate_failing_one(problem, beta0):
            if np.array_equal(beta0, starts[failing]):
                raise SynthesisError("iteration 1: box-fitting LP ended with status failed")
            return real(problem, beta0)

        monkeypatch.setattr(synthesizer, "alternate", alternate_failing_one)
        out = refine(problem, res, 3, np.random.default_rng(7))
        rest = [e for k, e in enumerate(ends) if k != failing]
        assert out.objective == min([res.objective, *rest])

    def test_every_start_runs_once_and_the_result_is_the_serial_fold(self, small_setup, monkeypatch):
        problem = small_setup[4]
        # one iteration leaves room for the restarts to improve on
        res = alternate_under(monkeypatch, problem, uniform_beta(problem.layout), max_iters=1)
        starts = [
            _jittered_beta(problem.layout, res.beta, stream)
            for stream in np.random.default_rng(6).spawn(3)
        ]
        best = res  # the serial loop: every start in order, an earlier one kept on a tie
        for beta0 in starts:
            cand = alternate(problem, beta0)
            if cand.objective < best.objective:
                best = cand
        assert best is not res
        seen = []
        real = synthesizer.alternate

        def recording(problem, beta0):
            seen.append((threading.get_ident(), beta0))
            return real(problem, beta0)

        monkeypatch.setattr(synthesizer, "alternate", recording)
        # a worker count in the environment is not read
        monkeypatch.setenv("DISTSYNTH_THREADS", "1")
        before = set(threading.enumerate())
        out = refine(problem, res, 3, np.random.default_rng(6))
        assert set(threading.enumerate()) == before  # the pool is closed
        assert len(seen) == 3
        assert [sum(np.array_equal(b0, start) for _, b0 in seen) for start in starts] == [1, 1, 1]
        # the calling thread runs the first start, and only it
        assert [np.array_equal(b0, starts[0]) for ident, b0 in seen if ident == threading.get_ident()] == [True]
        assert out.objective == best.objective
        assert out.history == best.history and out.p_nit == best.p_nit
        np.testing.assert_array_equal(out.W.centers, best.W.centers)
        np.testing.assert_array_equal(out.W.halfwidths, best.W.halfwidths)
        np.testing.assert_array_equal(out.beta, best.beta)

    def test_the_earliest_of_tied_restarts_wins(self, small_setup, monkeypatch):
        problem = small_setup[4]
        res = alternate(problem, uniform_beta(problem.layout))
        starts = [
            _jittered_beta(problem.layout, res.beta, stream)
            for stream in np.random.default_rng(7).spawn(3)
        ]
        # start 0 ties the incumbent; starts 1 and 2 tie below it, and start 1 ends last
        objectives = [res.objective, res.objective - 1.0, res.objective - 1.0]

        def tied(problem, beta0):
            k = next(k for k, start in enumerate(starts) if np.array_equal(beta0, start))
            if k == 1:
                time.sleep(0.05)
            return dataclasses.replace(res, objective=objectives[k], history=[float(k)])

        monkeypatch.setattr(synthesizer, "alternate", tied)
        # four cores give a pool of two threads, so start 2 can end before start 1
        monkeypatch.setattr(synthesizer.os, "cpu_count", lambda: 4)
        out = refine(problem, res, 3, np.random.default_rng(7))
        assert out.history == [1.0]

    def test_other_errors_of_a_pool_restart_propagate(self, small_setup, monkeypatch):
        problem = small_setup[4]
        res = alternate(problem, uniform_beta(problem.layout))
        real, caller = synthesizer.alternate, threading.get_ident()

        def failing_off_the_calling_thread(problem, beta0):
            if threading.get_ident() != caller:
                raise ValueError("restart broke")
            return real(problem, beta0)

        monkeypatch.setattr(synthesizer, "alternate", failing_off_the_calling_thread)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="restart broke"):
            refine(problem, res, 2, np.random.default_rng(7))
        assert set(threading.enumerate()) == before

    def test_all_restarts_failing_keeps_the_incumbent(self, small_setup, monkeypatch):
        problem = small_setup[4]
        res = alternate(problem, uniform_beta(problem.layout))

        def failing(*args, **kwargs):
            raise SynthesisError("iteration 1: box-fitting LP ended with status failed")

        monkeypatch.setattr(synthesizer, "alternate", failing)
        assert refine(problem, res, 2, np.random.default_rng(7)) is res


@pytest.fixture(scope="module", params=["illustrative", "gen-6-2-2", "gen-4-3-2"])
def spec_problem(request):
    """The synthesis program cmd_synth assembles for the bundled spec and for
    two ``gen`` problems at rho 0.7, the second with three disturbance
    coordinates, so that a reach entry sums three terms in a fixed order; and
    its blocks."""
    if request.param == "illustrative":
        spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
    else:
        spec = cmd_gen(*map(int, request.param.split("-")[1:]), 0.7, 1)
    opts = spec.options
    params = select_params(spec.sys, spec.Y, gamma=opts.gamma, mu=opts.mu)
    horizon = opts.horizon if opts.horizon is not None else params.s
    problem = assemble(
        spec.sys, spec.Y, spec.resolve_vertices(), params, opts.n_boxes,
        encoder.short_horizon(spec.sys, horizon), spec.resolve_h(), encoder.budget_tail(spec.sys, spec.Y, params),
    )
    return problem, synth_blocks(spec.sys, spec.Y, spec.resolve_vertices(), params, spec.resolve_h(), problem.layout)


def assert_same_program(lp, ref, tmp_path):
    """``lp`` hands HiGHS the arrays of the reference program ``ref`` bit for
    bit, and its LP-format dump is the reference's, byte for byte."""
    assert lp.a.shape == ref.a.shape and lp.n_eq == ref.n_eq
    for name in ("indptr", "indices", "data"):
        assert getattr(lp.a, name).tobytes() == getattr(ref.a, name).tobytes(), name
    for name in ("c", "lb", "b"):
        assert getattr(lp, name).tobytes() == getattr(ref, name).tobytes(), name
    write_lp(lp, tmp_path / "lp.lp")
    write_lp(ref, tmp_path / "ref.lp")
    assert (tmp_path / "lp.lp").read_bytes() == (tmp_path / "ref.lp").read_bytes()


class TestStepProgramsMatchReference:
    """The P-step and Q-step programs filled in from their fixed parts are the
    ones built block by block with ``sp.bmat``, down to entry order and the
    entries a zero factor leaves out."""

    @pytest.mark.parametrize("weights", ["spread", "uniform", "jittered"])
    def test_p_step(self, spec_problem, weights, monkeypatch, tmp_path):
        problem, blocks = spec_problem
        lay = problem.layout
        if weights == "jittered":  # a restart's draw around the spread start
            beta = _jittered_beta(lay, spread_beta(lay), np.random.default_rng(7).spawn(1)[0])
        else:
            beta = spread_beta(lay) if weights == "spread" else uniform_beta(lay)
        assert_same_program(captured_lp(monkeypatch, p_step, problem, beta), p_step_lp(blocks, beta), tmp_path)

    @pytest.mark.parametrize("points", ["p-step", "coincident", "sparse"])
    def test_q_step(self, spec_problem, points, monkeypatch, tmp_path):
        problem, blocks = spec_problem
        lay = problem.layout
        rng = np.random.default_rng(8)
        if points == "p-step":
            wbar = p_step(problem, spread_beta(lay))[2]
        elif points == "coincident":  # every group's points at one place
            wbar = np.repeat(rng.normal(size=(lay.n_groups, 1, lay.n_w)), lay.n_boxes, axis=1).ravel()
        else:
            wbar = rng.normal(size=lay.dim_beta * lay.n_w)
            wbar[rng.random(wbar.size) < 0.3] = 0.0
        assert_same_program(captured_lp(monkeypatch, q_step, problem, wbar), q_step_lp(blocks, wbar), tmp_path)
