import io
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from distsynth import assemble, h_preset, lp_solver, select_params, synthesizer, verifier, vertices_hpoly
from distsynth.lp_solver import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    _scaled_residual,
    solve_lp,
    write_lp,
)
from distsynth.synthesizer import boxes_from_x, p_step, q_step, spread_beta
from distsynth.verifier import verify_coverage


def test_min_with_lower_bound():
    out = solve_lp(LpProblem(c=[1.0], lb=[1.0]))
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(1.0)
    assert out.x[0] == pytest.approx(1.0)


def test_simplex_facet_optimum():
    p = LpProblem(
        c=[-1.0, -1.0],
        a_ub=sp.csr_matrix(np.array([[1.0, 1.0]])),
        b_ub=[1.0],
        lb=[0.0, 0.0],
    )
    out = solve_lp(p)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-1.0)


def test_infeasible_status():
    p = LpProblem(c=[1.0], a_ub=sp.csr_matrix(np.array([[1.0]])), b_ub=[-1.0], lb=[0.0])
    assert solve_lp(p).status == INFEASIBLE


def test_unbounded_status():
    p = LpProblem(c=[-1.0], lb=[0.0])
    assert solve_lp(p).status == UNBOUNDED


def _random_bounded_lp(rng, dim=4, extra_rows=10):
    rows = rng.standard_normal((extra_rows, dim))
    offs = rng.uniform(0.5, 2.0, extra_rows)
    G = np.vstack([rows, np.eye(dim), -np.eye(dim)])
    g = np.concatenate([offs, np.full(2 * dim, 3.0)])
    c = rng.standard_normal(dim)
    return c, G, g


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
        out = solve_lp(LpProblem(c, sp.csr_matrix(G), g))
        assert out.status == OPTIMAL
        assert out.objective == pytest.approx(_vertex_enumeration_minimum(c, G, g), abs=1e-7)


def test_bitwise_determinism():
    rng = np.random.default_rng(22)
    c, G, g = _random_bounded_lp(rng)
    p = LpProblem(c, sp.csr_matrix(G), g)
    a = solve_lp(p)
    b = solve_lp(p)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective


def test_row_scaling_robustness():
    rng = np.random.default_rng(23)
    c, G, g = _random_bounded_lp(rng)
    base = solve_lp(LpProblem(c, sp.csr_matrix(G), g))
    G2, g2 = G.copy(), g.copy()
    G2[0] *= 1e3
    g2[0] *= 1e3
    scaled = solve_lp(LpProblem(c, sp.csr_matrix(G2), g2))
    assert np.linalg.norm(base.x - scaled.x, np.inf) <= 1e-6


def test_weak_duality_and_residual():
    rng = np.random.default_rng(24)
    for _ in range(10):
        c, G, g = _random_bounded_lp(rng)
        out = solve_lp(LpProblem(c, sp.csr_matrix(G), g))
        assert out.status == OPTIMAL
        assert out.objective >= out.dual_objective - 1e-6
        assert abs(out.objective - out.dual_objective) <= 1e-6
        assert out.residual <= 1e-8


def test_equality_constraints():
    p = LpProblem(
        c=[1.0, 1.0],
        a_eq=sp.csr_matrix(np.array([[1.0, 1.0]])),
        b_eq=[2.0],
        lb=[0.0, 0.0],
    )
    out = solve_lp(p)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(2.0)


def test_rejects_inconsistent_dimensions():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], a_ub=sp.csr_matrix(np.eye(3)), b_ub=np.ones(3))
    with pytest.raises(ValueError):
        LpProblem(c=[np.inf])


def test_lp_dump_is_deterministic_and_readable():
    p = LpProblem(
        c=[1.0, 0.0],
        a_ub=sp.csr_matrix(np.array([[1.0, -2.0]])),
        b_ub=[3.0],
        a_eq=sp.csr_matrix(np.array([[0.0, 1.0]])),
        b_eq=[0.5],
        lb=[0.0, -np.inf],
        ub=[np.inf, 4.0],
    )
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_lp(p, buf1)
    write_lp(p, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    text = buf1.getvalue()
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")
    assert "<= 3.0" in text and "= 0.5" in text
    assert "x0 >= 0.0" in text and "x1 <= 4.0" in text


# linprog as solve_lp called it before it went to HiGHS directly
LINPROG_OPTIONS = {"maxiter": 1_000_000, "primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}


def linprog_reference(p):
    """scipy's linprog with the old options and the old no-presolve retry."""

    def run(presolve):
        return scipy.optimize.linprog(
            p.c,
            A_ub=p.a_ub,
            b_ub=p.b_ub,
            A_eq=p.a_eq,
            b_eq=p.b_eq,
            bounds=list(zip(p.lb, p.ub)),
            method="highs",
            options={**LINPROG_OPTIONS, "presolve": presolve},
        )

    res = run(True)
    return run(False) if res.status == 4 else res


def linprog_dual_objective(p, res):
    total = 0.0
    if p.b_ub is not None:
        total += float(p.b_ub @ res.ineqlin.marginals)
    if p.b_eq is not None:
        total += float(p.b_eq @ res.eqlin.marginals)
    finite_lb, finite_ub = np.isfinite(p.lb), np.isfinite(p.ub)
    total += float(p.lb[finite_lb] @ res.lower.marginals[finite_lb])
    total += float(p.ub[finite_ub] @ res.upper.marginals[finite_ub])
    return total


@pytest.fixture(scope="module")
def illustrative_lps(plant, pentagon):
    """The first P-step and Q-step LPs of the illustrative problem from spread
    weights, and the five per-vertex coverage LPs of the boxes they give."""
    params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
    vertices = vertices_hpoly(pentagon)
    H = h_preset("uniform:6", 2)
    problem = assemble(plant, pentagon, vertices, params, 4, 59, H)
    lps = []

    def recording(lp, basis=None):
        lps.append(lp)
        return solve_lp(lp, basis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesizer, "solve_lp", recording)
        mp.setattr(verifier, "solve_lp", recording)
        x, _, wbar, z, _ = p_step(problem, spread_beta(problem.layout))
        q_step(problem, wbar)
        W = boxes_from_x(problem, x)
        verify_coverage(plant, vertices, W, 59, H, z[problem.layout.z_eps()])
    assert len(lps) == 2 + len(vertices)
    return lps


def test_cold_solve_is_linprog_bit_for_bit(illustrative_lps):
    for p in illustrative_lps:
        out, res = solve_lp(p), linprog_reference(p)
        assert res.status == 0 and out.status == OPTIMAL
        assert np.array_equal(out.x, res.x)
        assert out.objective == res.fun
        assert out.dual_objective == linprog_dual_objective(p, res)
        assert np.array_equal(out.ineq_marginals, res.ineqlin.marginals)
        assert np.array_equal(out.eq_marginals, res.eqlin.marginals)
        assert out.residual == _scaled_residual(p, res.x)


def _two_row_lp(c=(-1.0, -1.0), b_ub=(1.0, 1.0)):
    """x0 + x1 <= b0, x0 - x1 <= b1, x >= 0: one matrix, many programs."""
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]))
    return LpProblem(c=list(c), a_ub=a, b_ub=list(b_ub), lb=[0.0, 0.0])


def test_infeasible_and_unbounded_keep_their_status_with_a_basis():
    basis = solve_lp(_two_row_lp()).basis
    assert basis is not None
    alien = solve_lp(LpProblem(c=[1.0, 1.0, 1.0], lb=[0.0, 0.0, 0.0])).basis
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


def _same_outcome(a, b):
    return (
        a.status == b.status
        and np.array_equal(a.x, b.x)
        and a.objective == b.objective
        and a.dual_objective == b.dual_objective
        and a.residual == b.residual
        and np.array_equal(a.ineq_marginals, b.ineq_marginals)
        and np.array_equal(a.eq_marginals, b.eq_marginals)
    )


def test_warm_solve_failing_the_residual_check_is_the_cold_outcome(illustrative_lps, monkeypatch):
    first, second = illustrative_lps[2], illustrative_lps[3]
    basis = solve_lp(first).basis
    cold = solve_lp(second)
    # every warm answer now fails the residual contract
    monkeypatch.setattr(lp_solver, "RESIDUAL_TOL", -1.0)
    assert _same_outcome(solve_lp(second, basis=basis), cold)
