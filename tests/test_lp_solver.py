import dataclasses
import json
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from distsynth import assemble, cli, h_preset, lp_solver, select_params, synthesizer, verifier, vertices_hpoly
from distsynth.lp_solver import (
    BASIC,
    FAILED,
    INFEASIBLE,
    ITERATION_LIMIT,
    LOWER,
    OPTIMAL,
    UNBOUNDED,
    UPPER,
    Coo,
    Csr,
    LpProblem,
    _highs,
    _scaled_residual,
    csr,
    solve_lp,
    start_basis,
    write_lp,
)
from distsynth.synthesizer import boxes_from_x, p_step, q_step, spread_beta
from distsynth.verifier import verify_coverage

from conftest import prices_with_devex
from reference import as_csr, no_rows, to_scipy, zeroed_dual_objective


def test_min_with_lower_bound():
    out = solve_lp(LpProblem([1.0], no_rows(1), [], 0, [1.0]))
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(1.0)
    assert out.x[0] == pytest.approx(1.0)


def test_simplex_facet_optimum():
    p = LpProblem(
        c=[-1.0, -1.0],
        a=as_csr(np.array([[1.0, 1.0]])),
        b=[1.0],
        n_eq=0,
        lb=[0.0, 0.0],
    )
    out = solve_lp(p)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-1.0)


def test_infeasible_status():
    p = LpProblem(c=[1.0], a=as_csr(np.array([[1.0]])), b=[-1.0], n_eq=0, lb=[0.0])
    assert solve_lp(p).status == INFEASIBLE


def test_unbounded_status():
    p = LpProblem([-1.0], no_rows(1), [], 0, [0.0])
    assert solve_lp(p).status == UNBOUNDED


def test_a_program_highs_rejects_is_failed():
    """A CSR matrix holding a column index past the last column passes
    LpProblem's checks, but HiGHS's passModel rejects it (kError): that is a
    failed solve, never an infeasible or optimal program.  A program HiGHS
    takes with a warning (a coefficient below its small-value limit) solves."""
    a = Csr(np.array([0, 1], np.int32), np.array([1], np.int32), np.array([1.0]), (1, 1))
    for b in (1.0, -1.0):
        assert solve_lp(LpProblem(c=[1.0], a=a, b=[b], n_eq=0, lb=[0.0])).status == FAILED
    tiny = LpProblem(c=[1.0, 1.0], a=as_csr(np.array([[1.0, 1e-12]])), b=[1.0], n_eq=0, lb=[0.0, 0.0])
    assert solve_lp(tiny).status == OPTIMAL


def _random_bounded_lp(rng, dim=4, extra_rows=10):
    rows = rng.standard_normal((extra_rows, dim))
    offs = rng.uniform(0.5, 2.0, extra_rows)
    G = np.vstack([rows, np.eye(dim), -np.eye(dim)])
    g = np.concatenate([offs, np.full(2 * dim, 3.0)])
    c = rng.standard_normal(dim)
    return c, G, g


def _free_lp(c, G, g) -> LpProblem:
    """min c@x over G x <= g, every column free."""
    return LpProblem(c, as_csr(G), g, 0, np.full(len(c), -np.inf))


def _vertex_enumeration_minimum(c, G, g):
    dim = G.shape[1]
    best = np.inf
    for idx in combinations(range(G.shape[0]), dim):
        sub = G[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, g[list(idx)])
        if np.all(G @ v <= g + 1e-9):
            best = min(best, float(c @ v))
    return best


def test_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        c, G, g = _random_bounded_lp(rng)
        out = solve_lp(_free_lp(c, G, g))
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(_vertex_enumeration_minimum(c, G, g), abs=1e-7)


def test_bitwise_determinism():
    rng = np.random.default_rng(22)
    c, G, g = _random_bounded_lp(rng)
    p = _free_lp(c, G, g)
    a = solve_lp(p)
    b = solve_lp(p)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective


def test_row_scaling_robustness():
    rng = np.random.default_rng(23)
    c, G, g = _random_bounded_lp(rng)
    base = solve_lp(_free_lp(c, G, g))
    G2, g2 = G.copy(), g.copy()
    G2[0] *= 1e3
    g2[0] *= 1e3
    scaled = solve_lp(_free_lp(c, G2, g2))
    assert np.linalg.norm(base.x - scaled.x, np.inf) <= 1e-6


def test_weak_duality_and_residual():
    rng = np.random.default_rng(24)
    for _ in range(10):
        c, G, g = _random_bounded_lp(rng)
        out = solve_lp(_free_lp(c, G, g))
        assert out.status == OPTIMAL
        assert out.objective >= out.dual_objective - 1e-6
        assert abs(out.objective - out.dual_objective) <= 1e-6
        assert out.residual <= 1e-8


def test_dual_objective_skips_infinite_right_hand_sides():
    # an infinite row bound has a zero dual; inf * 0 must not make the dual objective NaN
    p = LpProblem([1.0, 1.0], as_csr([[1.0, 1.0], [1.0, -1.0]]), [np.inf, 1.0], 0, [0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve_lp(p)
    assert out.status == OPTIMAL
    assert out.objective == 0.0 and out.dual_objective == 0.0


def test_equality_constraints():
    p = LpProblem(
        c=[1.0, 1.0],
        a=as_csr(np.array([[1.0, 1.0]])),
        b=[2.0],
        n_eq=1,
        lb=[0.0, 0.0],
    )
    out = solve_lp(p)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(2.0)


def test_an_absent_block_is_empty(tmp_path):
    empty = LpProblem([1.0, 1.0], no_rows(2), [], 0, [0.0, 0.0])
    assert empty.b.shape == (0,) and empty.n_ub == 0 and solve_lp(empty).objective == 0.0
    p = LpProblem(c=[1.0, 1.0], a=as_csr([[1.0, 1.0]]), b=[2.0], n_eq=1, lb=[0.0, 0.0])
    assert p.n_ub == 0 and p.a.data.dtype == np.float64
    assert solve_lp(p).objective == pytest.approx(2.0)
    write_lp(p, tmp_path / "p.lp")
    text = (tmp_path / "p.lp").read_text()
    assert " r0:" not in text and " e0: + 1.0 x0 + 1.0 x1 = 2.0" in text


def test_rejects_inconsistent_dimensions():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], a=as_csr(np.eye(3)), b=np.ones(3), n_eq=0, lb=[0.0, 0.0])
    with pytest.raises(ValueError):
        LpProblem([np.inf], no_rows(1), [], 0, [0.0])
    nan, inf = np.nan, np.inf
    # each case changes the well-formed program min -x s.t. x <= 1, x >= 0
    for bad in (
        {"b": [1.0, 2.0]},
        {"n_eq": 2},
        {"n_eq": -1},
        # a coefficient or bound HiGHS would ignore or misread
        {"a": as_csr([[nan]])},
        {"a": as_csr([[inf]])},
        {"a": as_csr([[nan]]), "n_eq": 1},
        {"a": as_csr([[-inf]]), "n_eq": 1},
        {"b": [inf], "n_eq": 1},
        {"b": [nan], "n_eq": 1},
        {"b": [nan]},
        {"lb": [nan]},
        {"lb": [inf]},  # a +inf lower bound crashes scipy's HiGHS bindings
    ):
        with pytest.raises(ValueError):
            LpProblem(**{"c": [-1.0], "a": as_csr([[1.0]]), "b": [1.0], "n_eq": 0, "lb": [0.0], **bad})
    LpProblem(c=[-1.0], a=as_csr([[1.0]]), b=[inf], n_eq=0, lb=[-inf])  # an infinite bound stays allowed


def test_rejects_a_malformed_csr():
    """The row pointers must run from 0 to the number of entries, one more
    of them than rows, and every entry needs a column index."""
    i32, one, two = np.int32, np.array([1.0]), np.array([1.0, 2.0])
    for indptr, indices, data in (
        (np.array([0, 1, 1], i32), np.array([0], i32), one),  # a pointer too many
        (np.array([1], i32), np.array([0], i32), one),  # a pointer too few
        (np.array([1, 1], i32), np.array([0], i32), one),  # not starting at 0
        (np.array([0, 2], i32), np.array([0], i32), one),  # past the last entry
        (np.array([0, 1], i32), np.array([0], i32), two),  # more values than column indices
        (np.array([0, 2], i32), np.array([0], i32), two),  # more values than column indices
        (np.array([0, 2], i32), np.array([0, 1], i32), one),  # more column indices than values
    ):
        with pytest.raises(ValueError):
            LpProblem([1.0, 1.0], Csr(indptr, indices, data, (1, 2)), [1.0], 0, [0.0, 0.0])
    well_formed = Csr(np.array([0, 2], i32), np.array([0, 1], i32), two, (1, 2))
    assert LpProblem([1.0, 1.0], well_formed, [1.0], 0, [0.0, 0.0]).a.nnz == 2


def test_lp_dump_is_deterministic_and_readable(tmp_path):
    p = LpProblem(
        c=[1.0, 0.0],
        a=as_csr(np.array([[1.0, -2.0], [0.0, 1.0]])),
        b=[3.0, 0.5],
        n_eq=1,
        lb=[0.0, -np.inf],
    )
    write_lp(p, tmp_path / "1.lp")
    write_lp(p, str(tmp_path / "2.lp"))
    text = (tmp_path / "1.lp").read_text()
    assert (tmp_path / "2.lp").read_text() == text
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")
    assert "<= 3.0" in text and "= 0.5" in text
    assert "x0 >= 0.0" in text and "x1 free" in text
    # each row kind is numbered from 0 in the one matrix's row order
    assert " r0: + 1.0 x0 - 2.0 x1 <= 3.0\n e0: + 1.0 x1 = 0.5\n" in text


# linprog as solve_lp called it before it went to HiGHS directly
LINPROG_OPTIONS = {"maxiter": 1_000_000, "primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}


def linprog_reference(p):
    """scipy's linprog with the old options and the old no-presolve retry."""

    def run(presolve):
        return scipy.optimize.linprog(
            p.c,
            A_ub=to_scipy(p.a)[: p.n_ub],
            b_ub=p.b[: p.n_ub],
            A_eq=to_scipy(p.a)[p.n_ub :],
            b_eq=p.b[p.n_ub :],
            bounds=[(lo, None) for lo in p.lb],
            method="highs",
            options={**LINPROG_OPTIONS, "presolve": presolve},
        )

    res = run(True)
    return run(False) if res.status == 4 else res


def linprog_dual_objective(p, res):
    total = float(p.b[: p.n_ub] @ res.ineqlin.marginals)
    total += float(p.b[p.n_ub :] @ res.eqlin.marginals)
    finite_lb = np.isfinite(p.lb)
    total += float(p.lb[finite_lb] @ res.lower.marginals[finite_lb])
    return total


@pytest.fixture(scope="module")
def illustrative_lps(plant, pentagon):
    """The first P-step and Q-step LPs of the illustrative problem from spread
    weights, the five single-vertex coverage LPs of the boxes they give (one
    program up to the vertex's right-hand side), and the coverage LP over all
    five vertices."""
    params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
    vertices = vertices_hpoly(pentagon)
    H = h_preset("uniform:6", 2)
    problem = assemble(plant, pentagon, vertices, params, 4, 59, H, params.s)
    lps = []

    def recording(lp, **kwargs):
        lps.append(lp)
        return solve_lp(lp, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesizer, "solve_lp", recording)
        mp.setattr(verifier, "solve_lp", recording)
        x, _, wbar, z, _, _ = p_step(problem, spread_beta(problem.layout))
        q_step(problem, wbar)
        W = boxes_from_x(problem, x)
        for vertex in vertices:
            verify_coverage(plant, vertex, W, 59, H, z[problem.layout.z_eps()])
        verify_coverage(plant, vertices, W, 59, H, z[problem.layout.z_eps()])
    assert len(lps) == 2 + len(vertices) + 1
    return lps


def test_step_and_reach_programs_hold_int32_indices(illustrative_lps):
    """The filled P-step and Q-step programs and the reach programs reach
    HiGHS with int32 row pointers and column indices, as ``lp_solver.csr``
    sorts them, and float64 values: filling a step program keeps the types."""
    for p in illustrative_lps:
        assert p.a.indptr.dtype == np.int32 and p.a.indices.dtype == np.int32, p.a.shape
        assert p.a.data.dtype == np.float64


def _shuffled_csr(a: Csr, rng) -> Csr:
    """``csr`` of the triplets of ``a`` in a random order."""
    order = rng.permutation(a.nnz)
    row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return csr(Coo(row[order], a.indices[order].astype(np.int64), a.data[order], a.shape))


def test_csr_is_the_same_whatever_the_order_of_its_triplets(illustrative_lps):
    """``csr`` sorts unique positions into one matrix, bit for bit and type for
    type, from any order: a step program joins its fixed entries and its block
    in either order."""
    rng = np.random.default_rng(61)
    flat = rng.choice(40 * 30, size=300, replace=False)
    block = Coo(flat // 30, flat % 30, rng.normal(size=flat.size), (40, 30))
    for a in (illustrative_lps[0].a, illustrative_lps[1].a, csr(block)):
        for _ in range(3):
            shuffled = _shuffled_csr(a, rng)
            assert shuffled.shape == a.shape
            for name in ("indptr", "indices", "data"):
                got, want = getattr(shuffled, name), getattr(a, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_cold_solve_is_linprog_bit_for_bit(illustrative_lps):
    for p in illustrative_lps:
        out, res = solve_lp(p), linprog_reference(p)
        assert res.status == 0 and out.status == OPTIMAL
        assert np.array_equal(out.x, res.x)
        assert out.objective == res.fun
        assert out.dual_objective == linprog_dual_objective(p, res)
        assert out.residual == _scaled_residual(p, res.x)


def test_basic_columns_have_an_exact_zero_dual(monkeypatch):
    """``_outcome`` sums HiGHS's column duals as they come: every optimal
    answer of ``synth`` and ``verify`` (with and without the stored witness)
    on the illustrative spec and on a generated problem with two restarts has
    the dual objective it has with the basic columns' duals zeroed first."""
    outcome, seen = lp_solver._outcome, []

    def checked(p, highs):
        out = outcome(p, highs)
        if out.optimal:
            seen.append(out.dual_objective == zeroed_dual_objective(p, highs))
        return out

    monkeypatch.setattr(lp_solver, "_outcome", checked)
    gen = cli.cmd_gen(3, 2, 2, 0.7, 0)
    gen.options.restarts = 2
    with open(Path(__file__).resolve().parents[1] / "specs" / "illustrative.json") as fh:
        illustrative = cli.parse_spec(json.load(fh))
    for spec in (illustrative, gen):
        doc = cli.cmd_synth(spec)
        cli.cmd_verify(spec, doc)
        doc.witness = None
        cli.cmd_verify(spec, doc)
    assert len(seen) > 20 and all(seen), seen.count(False)


def test_highs_takes_a_program_as_arrays():
    """The installed scipy's HiGHS binding has the array overload of passModel
    that ``_run`` calls with the row-wise matrix; a cold solve through it is
    linprog's, bit for bit, and a column-wise pass of the same program gives
    the same x, objective, iteration count and final basis."""
    from scipy.optimize._highspy import _core as highs_core

    c, G, g = _random_bounded_lp(np.random.default_rng(23))
    a = as_csr(sp.vstack([sp.csr_matrix(G), np.ones((1, c.size))]))
    p = LpProblem(c, a, np.append(g, 0.5), 1, np.full(c.size, -np.inf))
    n, row_lower = p.n_vars, np.append(np.full(g.size, -np.inf), 0.5)

    def solve(fmt, a):
        highs = highs_core._Highs()
        for key, value in {**lp_solver._OPTIONS, "presolve": "on"}.items():
            highs.setOptionValue(key, value)
        status = highs.passModel(
            n, a.shape[0], a.nnz, int(fmt), int(highs_core.ObjSense.kMinimize), 0.0,
            p.c, p.lb, np.full(n, np.inf), row_lower, p.b, a.indptr, a.indices, a.data, np.zeros(n, np.int32),
        )
        assert status == highs_core.HighsStatus.kOk
        highs.run()
        assert highs.getModelStatus() == highs_core.HighsModelStatus.kOptimal
        info, basis = highs.getInfo(), highs.getBasis()
        return (
            np.array(highs.getSolution().col_value).tobytes(),
            info.objective_function_value,
            info.simplex_iteration_count,
            np.array(basis.col_status, dtype=np.int8).tobytes(),
            np.array(basis.row_status, dtype=np.int8).tobytes(),
        )

    rowwise = solve(highs_core.MatrixFormat.kRowwise, p.a)
    assert rowwise == solve(highs_core.MatrixFormat.kColwise, sp.csc_matrix(to_scipy(p.a)))
    res = linprog_reference(p)
    assert res.status == 0
    assert rowwise[0] == res.x.tobytes() and rowwise[1] == res.fun


def _two_row_lp(c=(-1.0, -1.0), b_ub=(1.0, 1.0)):
    """x0 + x1 <= b0, x0 - x1 <= b1, x >= 0: one matrix, many programs."""
    a = as_csr(np.array([[1.0, 1.0], [1.0, -1.0]]))
    return LpProblem(c=list(c), a=a, b=list(b_ub), n_eq=0, lb=[0.0, 0.0])


def test_infeasible_and_unbounded_keep_their_status_with_a_basis():
    basis = solve_lp(_two_row_lp()).basis
    assert basis is not None
    alien = solve_lp(LpProblem([1.0, 1.0, 1.0], no_rows(3), [], 0, [0.0, 0.0, 0.0])).basis
    infeasible = _two_row_lp(b_ub=(-1.0, 1.0))
    unbounded = _two_row_lp(b_ub=(np.inf, 1.0))
    for p, status in ((infeasible, INFEASIBLE), (unbounded, UNBOUNDED)):
        assert solve_lp(p).status == status
        assert solve_lp(p, basis=basis).status == status
        assert solve_lp(p, basis=alien).status == status


def test_warm_solve_from_a_related_basis_is_optimal():
    basis = solve_lp(_two_row_lp()).basis
    out = solve_lp(_two_row_lp(b_ub=(3.0, 2.0)), basis=basis)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-3.0)
    assert out.residual <= 1e-8 and out.basis is not None


def test_start_basis_holds_each_code_and_a_misfit_falls_through_to_the_cold_rungs():
    col, row = np.array([UPPER, BASIC, LOWER], np.int8), np.array([LOWER, UPPER, BASIC], np.int8)
    basis = start_basis(col, row)
    assert list(basis.col_status) == [_highs.HighsBasisStatus(code) for code in col.tolist()]
    assert list(basis.row_status) == [_highs.HighsBasisStatus(code) for code in row.tolist()]
    assert basis.valid and not basis.alien
    # the slack basis of the two-row program: x = 0, both rows basic
    p = _two_row_lp()
    fits = start_basis(np.array([LOWER, LOWER], np.int8), np.array([BASIC, BASIC], np.int8))
    assert lp_solver._run(p, False, fits, True) is not None
    # one column too many: setBasis rejects it, and the cold rungs answer alone
    misfit = start_basis(np.array([LOWER, LOWER, LOWER], np.int8), np.array([BASIC, BASIC], np.int8))
    assert lp_solver._run(p, False, misfit, True) is None
    out, cold = solve_lp(p, basis=misfit, primal=True), solve_lp(p, primal=True)
    assert out.status == OPTIMAL and _same_outcome(out, cold) and out.nit == cold.nit


def _same_outcome(a, b):
    return (
        a.status == b.status
        and np.array_equal(a.x, b.x)
        and a.objective == b.objective
        and a.dual_objective == b.dual_objective
        and a.residual == b.residual
    )


def _warm_answers_miss_the_contract(monkeypatch):
    """Every answer of a run started from a basis misses the residual contract."""
    real = lp_solver._solve

    def solve(p, presolve, basis=None, primal=False):
        out = real(p, presolve, basis, primal)
        return dataclasses.replace(out, residual=1.0) if basis is not None and out.optimal else out

    monkeypatch.setattr(lp_solver, "_solve", solve)


def test_warm_solve_failing_the_residual_check_is_the_cold_outcome(illustrative_lps, monkeypatch):
    first, second = illustrative_lps[2], illustrative_lps[3]
    basis = solve_lp(first).basis
    cold = solve_lp(second)
    _warm_answers_miss_the_contract(monkeypatch)
    assert _same_outcome(solve_lp(second, basis=basis), cold)


def _recording_runs(monkeypatch):
    """Spy on every HiGHS run: (presolve, basis, Devex pricing, simplex iterations)."""
    runs = []
    real = lp_solver._run

    def spy(p, presolve, basis=None, primal=False):
        highs = real(p, presolve, basis, primal)
        if highs is None:
            runs.append((presolve, basis, None, None))
        else:
            runs.append((presolve, basis, prices_with_devex(highs), int(highs.getInfo().simplex_iteration_count)))
        return highs

    monkeypatch.setattr(lp_solver, "_run", spy)
    return runs


@pytest.mark.parametrize("own_optimum", [False, True])
def test_warm_answer_missing_the_residual_check_is_solved_from_its_own_basis(
    illustrative_lps, monkeypatch, own_optimum
):
    # the warm basis is a related program's, or the program's own optimal one
    first, second = illustrative_lps[2], illustrative_lps[3]
    basis = solve_lp(second if own_optimum else first).basis
    cold = solve_lp(second)
    real = lp_solver._outcome
    answers = []

    def first_fails(p, highs):
        out = real(p, highs)
        answers.append(out)
        # the first warm answer is optimal but misses the residual contract
        return dataclasses.replace(out, residual=1.0) if len(answers) == 1 else out

    monkeypatch.setattr(lp_solver, "_outcome", first_fails)
    runs = _recording_runs(monkeypatch)
    out = solve_lp(second, basis=basis)
    # two runs without presolve, both priced with Devex: the warm one, then one from its final basis
    assert [(presolve, b is not None, d) for presolve, b, d, _ in runs] == [(False, True, True)] * 2
    assert runs[0][1] is basis and runs[1][1] is answers[0].basis
    assert out.optimal and out.residual <= lp_solver.RESIDUAL_TOL
    assert np.array_equal(out.x, answers[1].x)
    assert out.nit == runs[0][3] + runs[1][3]
    assert out.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)


def test_cold_solve_counts_its_simplex_iterations(illustrative_lps, monkeypatch):
    runs = _recording_runs(monkeypatch)
    out = solve_lp(illustrative_lps[0])
    assert [presolve for presolve, *_ in runs] == [True]
    assert out.nit == runs[0][3] > 0


def test_devex_leaves_the_cold_path_alone(illustrative_lps, monkeypatch):
    first, second = illustrative_lps[2], illustrative_lps[3]
    basis = solve_lp(first).basis
    runs = _recording_runs(monkeypatch)
    real = lp_solver._outcome

    def fourth_run_fails(p, highs):
        out = real(p, highs)
        return dataclasses.replace(out, status=lp_solver.FAILED) if len(runs) == 4 else out

    # every warm answer misses the residual contract, so the warm start ends
    # cold; the first cold run of the next solve fails and is retried
    _warm_answers_miss_the_contract(monkeypatch)
    monkeypatch.setattr(lp_solver, "_outcome", fourth_run_fails)
    solve_lp(second, basis=basis)
    solve_lp(first)
    assert [(presolve, b is not None, d) for presolve, b, d, _ in runs] == [
        (False, True, True),  # warm
        (False, True, True),  # from the warm answer's basis
        (True, False, False),  # cold
        (True, False, False),  # cold, failed
        (False, False, False),  # retried without presolve
    ]


# every run of the ladder when no answer meets the contract
COLD_LADDER = [
    (True, False, False),  # cold
    (False, True, True),  # from the cold answer's basis
    (False, False, False),  # cold without presolve
    (False, True, True),  # from that answer's basis
]


@pytest.mark.parametrize("misses", [2, 4])
def test_cold_answer_missing_the_residual_check_is_solved_from_its_basis_then_without_presolve(
    illustrative_lps, monkeypatch, misses
):
    p = illustrative_lps[0]
    real = lp_solver._outcome
    answers = []

    def first_answers_miss(p, highs):
        out = real(p, highs)
        answers.append(out)
        return dataclasses.replace(out, residual=1.0) if len(answers) <= misses else out

    monkeypatch.setattr(lp_solver, "_outcome", first_answers_miss)
    runs = _recording_runs(monkeypatch)
    out = solve_lp(p)
    assert [(presolve, b is not None, d) for presolve, b, d, _ in runs] == COLD_LADDER[: misses + 1]
    assert runs[1][1] is answers[0].basis
    assert out.nit == sum(nit for *_, nit in runs)
    if misses < len(COLD_LADDER):
        assert out.optimal and np.array_equal(out.x, answers[misses].x)
    else:
        assert runs[3][1] is answers[2].basis
        assert out.status == lp_solver.FAILED and out.x is None


@pytest.mark.parametrize("misses", [1, 4])
def test_answer_missing_the_gap_check_takes_the_residual_rules_path(illustrative_lps, monkeypatch, misses):
    p = illustrative_lps[0]
    real = lp_solver._outcome
    answers = []

    def wrong_dual(p, highs):
        out = real(p, highs)
        answers.append(out)
        if len(answers) > misses:
            return out
        # a gap just over the contract; the residual still meets its own
        gap = 2.0 * lp_solver.GAP_TOL * max(1.0, abs(out.objective))
        return dataclasses.replace(out, dual_objective=out.objective - gap)

    monkeypatch.setattr(lp_solver, "_outcome", wrong_dual)
    runs = _recording_runs(monkeypatch)
    out = solve_lp(p)
    assert all(a.residual <= lp_solver.RESIDUAL_TOL for a in answers)
    assert [(presolve, b is not None, d) for presolve, b, d, _ in runs] == COLD_LADDER[: misses + 1]
    assert runs[1][1] is answers[0].basis
    if misses < len(COLD_LADDER):
        assert out.optimal and np.array_equal(out.x, answers[misses].x)
    else:
        assert out.status == lp_solver.FAILED and out.x is None


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("b_ub, status", [((-1.0, 1.0), INFEASIBLE), ((np.inf, 1.0), UNBOUNDED)])
def test_infeasible_or_unbounded_cold_answer_ends_the_ladder(monkeypatch, warm, b_ub, status):
    basis = solve_lp(_two_row_lp()).basis if warm else None
    runs = _recording_runs(monkeypatch)
    out = solve_lp(_two_row_lp(b_ub=b_ub), basis=basis)
    assert out.status == status
    # one cold run, after the warm one if a basis was given
    assert [(presolve, b is not None) for presolve, b, *_ in runs] == [(False, True)] * warm + [(True, False)]


def test_non_finite_answer_meets_no_tolerance(illustrative_lps, monkeypatch):
    p = illustrative_lps[3]
    x = solve_lp(p).x
    for bad in (np.nan, np.inf, -np.inf):
        x_bad = x.copy()
        x_bad[0] = bad
        with np.errstate(invalid="ignore"):
            assert not _scaled_residual(p, x_bad) <= lp_solver.RESIDUAL_TOL
    # a warm answer holding NaN is not accepted, but solved from its basis
    basis = solve_lp(illustrative_lps[2]).basis
    real = lp_solver._outcome
    answers = []

    def first_answer_nan(p, highs):
        out = real(p, highs)
        answers.append(out)
        if len(answers) > 1:
            return out
        x_nan = out.x.copy()
        x_nan[0] = np.nan
        return dataclasses.replace(out, x=x_nan, residual=_scaled_residual(p, x_nan))

    monkeypatch.setattr(lp_solver, "_outcome", first_answer_nan)
    out = solve_lp(p, basis=basis)
    assert len(answers) == 2 and np.isfinite(out.x).all()
    assert np.array_equal(out.x, answers[1].x)
