"""The columns an exactly zero input map leaves dead, and the rows they enter,
are left out of the P-step program and of the verifier's reach program.

A problem without such a column hands HiGHS the full builders' programs bit
for bit.  On the mapped plant (its B has an exactly zero first column) the
programs are the full ones with those rows and columns deleted in order, with
the same optima, and the answers mapped back into the full layout keep every
deleted row.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from distsynth import encoder, lp_solver, verifier
from distsynth.cli import cmd_gen, cmd_reduce, cmd_synth, cmd_verify, parse_spec
from distsynth.lp_solver import RESIDUAL_TOL, _scaled_residual, solve_lp
from distsynth.setgeom import LtiSystem, dead_points, reach_coefficients
from distsynth.synthesizer import _boxes, p_step, spread_beta

from conftest import random_stable_system
from reference import (
    assert_same_matrix,
    basis_point,
    distance_slack,
    inflation_slack,
    p_step_lp,
    q_step_lp,
    reach_reference,
    scipy_reach_lp,
    synth_blocks,
    to_scipy,
)

ROOT = Path(__file__).resolve().parents[1]


def spec_case(case):
    """The spec of a bundled problem ("illustrative", "mapped"), of ``gen``
    at rho 0.7 ("gen-3-0"), of that problem with exact zeros in B and D
    ("zeros"), of a random plant with three disturbances ("random-71"), or of
    the illustrative plant with B = 0 ("zero-B")."""
    if case in ("illustrative", "zero-B"):
        spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
        if case == "zero-B":
            spec.sys = LtiSystem(spec.sys.A, np.zeros_like(spec.sys.B), spec.sys.C, spec.sys.D)
    elif case == "mapped":
        spec = cmd_reduce(json.loads((ROOT / "specs" / "reduced_order_plant.json").read_text()))
    elif case == "random-71":
        spec = cmd_gen(3, 3, 2, 0.5, 0)
        spec.sys = random_stable_system(np.random.default_rng(71), n_x=3, n_w=3, n_y=2, rho=0.5)
    else:
        spec = cmd_gen(3, 2, 2, 0.7, 0)
        if case == "zeros":  # exact zeros in B and D, but no zero column
            B, D = spec.sys.B.copy(), spec.sys.D.copy()
            B[0, 1] = B[2, 0] = D[1, 0] = 0.0
            spec.sys = LtiSystem(spec.sys.A, B, spec.sys.C, D)
    return spec


def run_pipeline(case, monkeypatch):
    """``cmd_synth`` of ``case`` at restarts 0, then ``cmd_verify`` of its
    result with and without the witness.  Returns (spec, doc, problem,
    filled, fixed_w): the assembled problem, every (step program, factor,
    program HiGHS got) and every (program, outcome) over the fixed W, the
    exact distance first and the coverage program second."""
    spec = spec_case(case)
    problems, filled, fixed_w = [], [], []
    assemble, fill, solve = encoder.assemble, encoder.StepProgram.lp, verifier.solve_lp

    def spy_assemble(*args):
        problems.append(assemble(*args))
        return problems[-1]

    def spy_fill(program, factor):
        filled.append((program, np.array(factor), lp := fill(program, factor)))
        return lp

    def spy_solve(lp, **kwargs):
        fixed_w.append((lp, out := solve(lp, **kwargs)))
        return out

    monkeypatch.setattr(encoder, "assemble", spy_assemble)
    monkeypatch.setattr(encoder.StepProgram, "lp", spy_fill)
    monkeypatch.setattr(verifier, "solve_lp", spy_solve)
    doc = cmd_synth(spec)
    assert all(check["passed"] for check in doc.certificates.values())
    assert cmd_verify(spec, doc).passed
    witness, doc.witness = doc.witness, None
    assert cmd_verify(spec, doc).passed
    doc.witness = witness
    monkeypatch.undo()
    assert len(problems) == 1 and len(fixed_w) == 2
    return spec, doc, problems[0], filled, fixed_w


def assert_same_lp(lp, ref):
    """Two programs hand HiGHS the same arrays, bit for bit."""
    assert_same_matrix(lp.a, ref.a)
    assert lp.n_eq == ref.n_eq
    for name in ("c", "b", "lb"):
        assert getattr(lp, name).tobytes() == getattr(ref, name).tobytes(), name


def full_programs(spec, doc, problem):
    """(blocks, distance, coverage): the full builders' blocks of the
    synthesis program and the full reach programs of ``doc``'s W."""
    V, H = spec.resolve_vertices(), doc.H
    n, n_b, coeff = len(V), H.shape[0], reach_coefficients(spec.sys, doc.horizon)
    blocks = synth_blocks(spec.sys, spec.Y, V, doc.params, H, problem.layout)
    distance = scipy_reach_lp(coeff, V, doc.W, H, distance_slack(n, n_b), 0.0, np.zeros(n * n_b))
    coverage = scipy_reach_lp(coeff, V, doc.W, H, inflation_slack(n, n_b), -np.inf, np.tile(doc.epsilon, n))
    return blocks, distance, coverage


def dead_slots(sys, horizon):
    """(l + 1, n_w): the slot map columns that are exactly zero."""
    return (reach_reference(sys, horizon) == 0.0).all(axis=1)


def p_dead(spec, doc, problem):
    """The P-step columns (x, w, z) left out: w coordinates of a zero slot map
    column, by (vertex, slot, coordinate), and tail bounds with no charge."""
    lay = problem.layout
    gbar = encoder.build_gbar(spec.sys, spec.Y, doc.params)
    tail = sum(np.abs(G @ spec.sys.B) for G in gbar[lay.t0 :])
    dead_w = np.tile(dead_slots(spec.sys, lay.horizon), (lay.n_vertices, 1)).ravel()
    dead_rho = (tail == 0.0).all(axis=0)
    return np.concatenate((np.zeros(lay.dim_x - lay.n_rho, bool), dead_rho, dead_w, np.zeros(lay.dim_z, bool)))


def reach_dead(spec, doc, n_cols):
    """The reach program's columns left out: point coordinates of a zero slot
    map column, by (vertex, slot, coordinate); they lead the columns."""
    n = len(spec.resolve_vertices())
    dead = np.tile(dead_slots(spec.sys, doc.horizon), (n, 1)).ravel()
    return np.concatenate((dead, np.zeros(n_cols - dead.size, bool)))


def assert_deleted(lp, ref, dead):
    """``lp`` is ``ref`` less the columns ``dead`` and the rows with an entry
    in one, the rest in their order; returns the count of deleted rows."""
    full = to_scipy(ref.a)
    dead_rows = np.asarray((abs(full)[:, dead] != 0).sum(axis=1)).ravel() > 0
    expected = full[~dead_rows][:, ~dead].tocsr()
    expected.sort_indices()
    got = to_scipy(lp.a)
    assert got.shape == expected.shape and got.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    assert lp.c.tobytes() == ref.c[~dead].tobytes() and lp.lb.tobytes() == ref.lb[~dead].tobytes()
    assert lp.b.tobytes() == ref.b[~dead_rows].tobytes()
    assert lp.n_eq == ref.n_eq  # no dead column enters an equality
    return int(np.count_nonzero(dead_rows))


def same_optimum(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


@pytest.mark.parametrize("case", ["illustrative", "gen-3-0", "zeros", "random-71"])
def test_a_problem_without_a_zero_column_passes_the_full_programs(case, monkeypatch):
    spec, doc, problem, filled, fixed_w = run_pipeline(case, monkeypatch)
    blocks, distance, coverage = full_programs(spec, doc, problem)
    full = p_step_lp(blocks, spread_beta(problem.layout))
    assert problem.p_program.kept.all() and problem.p_program.pattern.a.shape == full.a.shape  # no row deleted
    kinds = set()
    for program, factor, lp in filled:
        is_p = program is problem.p_program
        kinds.add(is_p)
        assert_same_lp(lp, p_step_lp(blocks, factor) if is_p else q_step_lp(blocks, factor))
    assert kinds == {True, False}
    assert_same_lp(fixed_w[0][0], distance)
    assert_same_lp(fixed_w[1][0], coverage)


@pytest.fixture(scope="module")
def mapped():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return run_pipeline("mapped", monkeypatch)


def test_mapped_plant_program_shapes(mapped):
    _, _, problem, filled, fixed_w = mapped
    p_shapes = {lp.a.shape for program, _, lp in filled if program is problem.p_program}
    q_shapes = {lp.a.shape for program, _, lp in filled if program is problem.q_program}
    assert p_shapes == {(1448, 445)}  # of 1,728 x 582
    assert q_shapes == {(164, 572)}
    assert fixed_w[0][0].a.shape == (1856, 3056)  # of 3,064 x 3,660


def test_mapped_plant_programs_are_the_full_ones_less_the_dead_parts(mapped):
    spec, doc, problem, filled, fixed_w = mapped
    blocks, distance, coverage = full_programs(spec, doc, problem)
    dead = p_dead(spec, doc, problem)
    assert np.count_nonzero(dead) == 4 * 34 + 1  # w_0 of 34 slots of 4 vertices, and rho_0
    assert np.array_equal(problem.p_program.kept, ~dead)
    for program, factor, lp in filled:
        if program is problem.p_program:
            assert assert_deleted(lp, p_step_lp(blocks, factor), dead) == 2 * 4 * 34 + 2 * 4
        else:
            assert_same_lp(lp, q_step_lp(blocks, factor))
    for (lp, _), ref in zip(fixed_w, (distance, coverage)):
        assert assert_deleted(lp, ref, reach_dead(spec, doc, ref.n_vars)) == 2 * 4 * 151


def test_mapped_plant_optima_are_the_full_programs(mapped):
    spec, doc, problem, filled, fixed_w = mapped
    blocks, distance, coverage = full_programs(spec, doc, problem)
    steps = [(factor, lp) for program, factor, lp in filled if program is problem.p_program]
    for beta, lp in steps[:2]:
        reduced, full = solve_lp(lp), solve_lp(p_step_lp(blocks, beta))
        assert reduced.optimal and full.optimal and same_optimum(reduced.objective, full.objective)
    for (_, out), ref in zip(fixed_w, (distance, coverage)):
        full = solve_lp(ref, primal=True)
        assert out.optimal and full.optimal and same_optimum(out.objective, full.objective)


def test_mapped_plant_p_step_point_is_feasible_for_the_full_program(mapped):
    spec, doc, problem, filled, _ = mapped
    blocks = full_programs(spec, doc, problem)[0]
    lay = problem.layout
    for program, beta, _ in filled:
        if program is not problem.p_program:
            continue
        x, w, _, z, objective, _ = p_step(problem, beta)
        full = p_step_lp(blocks, beta)
        point = np.concatenate((x, w, z))
        assert _scaled_residual(full, point) <= RESIDUAL_TOL
        assert float(full.c @ point) == pytest.approx(objective, rel=1e-12, abs=1e-12)
        # a dead w coordinate sits at its group's blended center
        centers = beta.reshape(lay.n_groups, lay.n_boxes) @ _boxes(lay, x)[:, 0]
        dead_w = ~problem.p_program.kept[lay.dim_x : lay.dim_x + lay.dim_w].reshape(lay.n_groups, lay.n_w)
        assert np.array_equal(w.reshape(lay.n_groups, lay.n_w)[dead_w], centers[dead_w])


def test_mapped_plant_witness_holds_blended_centers_where_dead(mapped):
    spec, doc, _, _, _ = mapped
    witness, W = doc.witness, doc.W
    dead = dead_slots(spec.sys, doc.horizon)
    assert np.count_nonzero(dead) == 151
    weights = witness.weights.reshape(-1, W.n_boxes)
    centers = (weights @ W.centers).reshape(witness.points.shape)
    assert np.array_equal(witness.points[:, dead], centers[:, dead])
    assert (witness.points[:, ~dead] != centers[:, ~dead]).any()


def test_a_plant_with_zero_b_synthesizes_and_certifies(monkeypatch):
    """Every slot but the feedthrough slot is dead, and so is every tail bound."""
    spec, doc, problem, _, fixed_w = run_pipeline("zero-B", monkeypatch)
    lay = problem.layout
    assert (doc.l0, lay.n_rho) == (1, lay.n_w)
    assert np.count_nonzero(~problem.p_program.kept) == lay.n_vertices * lay.n_w + lay.n_rho
    _, distance, coverage = full_programs(spec, doc, problem)
    dead = len(spec.resolve_vertices()) * doc.horizon * lay.n_w
    for (lp, out), ref in zip(fixed_w, (distance, coverage)):
        assert out.optimal and lp.n_vars == ref.n_vars - dead
        assert assert_deleted(lp, ref, reach_dead(spec, doc, ref.n_vars)) == 2 * dead


@pytest.mark.parametrize("directions", ["mean-vertex", "random"])
@pytest.mark.parametrize("case", ["mapped", "zero-B"])
def test_start_less_the_dead_parts_is_a_primal_feasible_basis(case, directions, monkeypatch):
    """``_reach_start`` leaves out the statuses of the coordinates and rows
    ``_reach_lp`` leaves out, and stays a primal-feasible basis HiGHS takes."""
    spec, doc = run_pipeline(case, monkeypatch)[:2]
    V, H = spec.resolve_vertices(), doc.H
    n, n_b, coeff = len(V), H.shape[0], reach_coefficients(spec.sys, doc.horizon)
    d = V - V.mean(axis=0) if directions == "mean-vertex" else np.random.default_rng(73).standard_normal(V.shape)
    for slack, slack_lb, h_rhs in (
        (lp_solver.kron(-np.ones((n, 1)), n_b), 0.0, np.zeros(n * n_b)),
        (lp_solver.kron(n, -np.ones((n_b, 1))), -np.inf, np.tile(doc.epsilon, n)),
    ):
        lp = verifier._reach_lp(coeff, V, doc.W, H, slack, slack_lb, h_rhs, dead_points(coeff, n))
        start = verifier._reach_start(coeff, V, d, doc.W, H, slack, slack_lb, h_rhs, dead_points(coeff, n))
        assert len(start.col_status) == lp.n_vars and len(start.row_status) == lp.b.size
        assert _scaled_residual(lp, basis_point(lp, start)) <= RESIDUAL_TOL
        assert lp_solver._run(lp, False, start, True, lp_solver.new_instance()) is not None
