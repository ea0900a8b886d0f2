import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from distsynth import (
    BoxHullSet,
    HPolytope,
    LtiSystem,
    ParamSearchError,
    RpiConstants,
    rpi_params,
    select_params,
    solve_Hs,
    support_rows,
)
from distsynth.cli import cmd_gen, cmd_reduce, parse_spec
from distsynth.rpi_params import horizon_constants
from distsynth.setgeom import stacked_identity
from distsynth.verifier import _horizon_constants

from conftest import random_stable_system
from reference import constants_at


def unit_box_constraints(n):
    return HPolytope(stacked_identity(n), np.ones(2 * n))


def longdouble_constants(sys, Y, s):
    """Direct extended-precision summation of the horizon constants."""
    GC = (Y.G @ sys.C).astype(np.longdouble)
    A = sys.A.astype(np.longdouble)
    P = np.eye(sys.n_x, dtype=np.longdouble)
    L = np.zeros(Y.n_rows, dtype=np.longdouble)
    rows = np.zeros(sys.n_x, dtype=np.longdouble)
    for _ in range(s):
        L += np.abs(GC @ P).sum(axis=1)
        rows += np.abs(P).sum(axis=1)
        P = P @ A
    theta = np.min(Y.g[L > 0] / L[L > 0])
    return L, float(theta), float(rows.max()), float(np.abs(P).sum(axis=1).max())


class TestComputeConstants:
    def test_memoryless_system(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        Y = unit_box_constraints(2)
        c = constants_at(sys, Y, 1)
        assert np.allclose(c.L_s, 1.0)
        assert c.theta_s == pytest.approx(1.0)
        assert c.M_s == pytest.approx(1.0)
        assert c.zeta_s == 0.0

    def test_nilpotent_tail_leaves_constants_unchanged(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        Y = unit_box_constraints(2)
        c1 = constants_at(sys, Y, 1)
        c2 = constants_at(sys, Y, 2)
        assert np.allclose(c1.L_s, c2.L_s)
        assert c1.theta_s == c2.theta_s
        assert c1.M_s == c2.M_s

    def test_matches_extended_precision_summation(self, plant, pentagon):
        c = constants_at(plant, pentagon, 59)
        L, theta, M, zeta = longdouble_constants(plant, pentagon, 59)
        assert np.allclose(c.L_s, L.astype(float), rtol=1e-12)
        assert c.theta_s == pytest.approx(theta, rel=1e-12)
        assert c.M_s == pytest.approx(M, rel=1e-12)
        assert c.zeta_s == pytest.approx(zeta, rel=1e-10)

    def test_incremental_equals_fresh(self, plant, pentagon):
        # fresh: the verifier's repeated squaring, which shares no code with the generator
        for inc in itertools.islice(horizon_constants(plant, pentagon), 39):
            fresh = _horizon_constants(plant, pentagon, inc.s)
            assert np.allclose(inc.L_s, fresh.L_s, rtol=1e-12, atol=0.0)
            assert inc.theta_s == pytest.approx(fresh.theta_s, rel=1e-12)
            assert inc.M_s == pytest.approx(fresh.M_s, rel=1e-12)
            assert inc.zeta_s == pytest.approx(fresh.zeta_s, rel=1e-12)

    def test_rejects_nonpositive_offsets(self, plant):
        Y = HPolytope(stacked_identity(2), np.array([1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            constants_at(plant, Y, 1)


def grid_maximum(consts, gamma, mu, step=2e-5):
    """2-D grid oracle: best alpha+lambda over grid points passing the three
    direct inequality checks.

    Per grid alpha the best grid lambda is the floor of the upper caps from
    the constraint and error inequalities; smaller lambda can only worsen
    the contraction inequality, so checking that single candidate enumerates
    the whole grid column.
    """
    theta, M, zeta = consts.theta_s, consts.M_s, consts.zeta_s
    a = np.arange(0.0, 1.0, step)
    cap = np.minimum(((1 - a) * mu - a * gamma * M) / M, 1.0)
    if np.isfinite(theta):
        cap = np.minimum(cap, (1 - a) * theta)
    lam = np.floor(cap / step) * step
    ok = (
        (lam >= 0)
        & (lam <= (1 - a) * theta + 1e-15)
        & ((gamma + lam) * zeta <= a * lam + 1e-15)
        & ((a * gamma + lam) * M <= (1 - a) * mu + 1e-15)
    )
    return float(np.max(np.where(ok, a + lam, -np.inf)))


def closed_form_margin(consts, gamma, mu):
    """Closed-form margin of inequalities (b) and (c) taken together.

    With k = mu / M[s], inequality (c) caps lambda <= k - alpha (k + gamma),
    and for alpha > zeta_s inequality (b) floors it at
    lambda >= gamma zeta_s / (alpha - zeta_s) (for alpha <= zeta_s, (b)
    forces zeta_s = 0).  A common lambda exists at alpha iff

        f(alpha) = (k - alpha (k + gamma)) (alpha - zeta_s) - gamma zeta_s >= 0.

    f is a concave quadratic; with r = k / (k + gamma) its maximum, at
    alpha = (r + zeta_s) / 2, is (k + gamma) (r - zeta_s)^2 / 4 - gamma zeta_s.
    Since 1 - r = gamma / (gamma + k), that maximum is non-negative with
    r >= zeta_s iff

        sqrt(zeta_s) + sqrt(gamma / (gamma + k)) <= 1.

    The returned 1 - sqrt(zeta_s) - sqrt(gamma / (gamma + k)) is therefore
    negative exactly when no (alpha, lambda) satisfies (b) and (c), and then
    none satisfies (a)-(c).  It ignores (a), so a non-negative margin does
    not by itself prove feasibility.
    """
    k = mu / consts.M_s
    return float(1.0 - np.sqrt(consts.zeta_s) - np.sqrt(gamma / (gamma + k)))


class TestSolveHs:
    def test_no_contraction_is_infeasible(self):
        consts = RpiConstants(s=1, L_s=np.ones(2), theta_s=1.0, M_s=1.0, zeta_s=1.0)
        assert solve_Hs(consts, gamma=0.5, mu=0.5) is None

    def test_matches_grid_oracle(self):
        # gamma >= 0.5 keeps the feasible lambda window wider than the grid
        # step near the optimum, so the stated tolerance is meaningful
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 20:
            sys = random_stable_system(rng, rho=rng.uniform(0.3, 0.8))
            Y = unit_box_constraints(2)
            s = int(rng.integers(3, 25))
            consts = constants_at(sys, Y, s)
            gamma = float(rng.uniform(0.5, 1.2))
            mu = float(10.0 ** rng.uniform(-3, -1))
            sol = solve_Hs(consts, gamma, mu)
            oracle = grid_maximum(consts, gamma, mu)
            if closed_form_margin(consts, gamma, mu) < 0:
                assert sol is None
            if sol is None:
                assert oracle == -np.inf
                continue
            assert sol[0] + sol[1] >= oracle - 1e-9
            assert sol[0] + sol[1] == pytest.approx(oracle, abs=1e-4)
            checked += 1

    def test_solution_satisfies_inequalities(self, plant, pentagon):
        consts = constants_at(plant, pentagon, 60)
        alpha, lam = solve_Hs(consts, gamma=0.2, mu=1e-3)
        assert 0.0 <= alpha < 1.0 and 0.0 <= lam <= 1.0
        assert lam <= (1 - alpha) * consts.theta_s + 1e-9
        assert (0.2 + lam) * consts.zeta_s <= alpha * lam + 1e-9
        assert (alpha * 0.2 + lam) * consts.M_s <= (1 - alpha) * mu_ref() + 1e-9

    def test_objective_near_reference_total(self, plant, pentagon):
        consts = constants_at(plant, pentagon, 60)
        alpha, lam = solve_Hs(consts, gamma=0.2, mu=1e-3)
        assert alpha + lam == pytest.approx(7.467e-4, rel=0.01)


def meets_inequalities(consts, gamma, mu, alpha, lam, tol=1e-12):
    return (
        0.0 <= alpha < 1.0
        and 0.0 <= lam <= 1.0
        and lam - (1 - alpha) * consts.theta_s <= tol
        and (gamma + lam) * consts.zeta_s - alpha * lam <= tol
        and (alpha * gamma + lam) * consts.M_s - (1 - alpha) * mu <= tol
    )


ROOT = Path(__file__).resolve().parents[1]


def _spec(name):
    return parse_spec(json.loads((ROOT / "specs" / name).read_text()))


def _reduced():
    return cmd_reduce(json.loads((ROOT / "specs" / "reduced_order_plant.json").read_text()))


# select_params on the benchmark's six problems, as the earlier golden-section
# and bisection search returned them: (problem, s, alpha, lambda)
SEARCH_PARAMS = [
    (lambda: _spec("illustrative.json"), 60, 0.0006781843723995092, 6.796195472333852e-05),
    (_reduced, 151, 0.0005180409093950474, 2.9450294565440563e-05),
    (lambda: cmd_gen(3, 2, 2, 0.7, 0), 39, 0.000655778357346651, 0.0017943761810082334),
    (lambda: cmd_gen(3, 2, 2, 0.7, 1), 39, 0.0006650769536252272, 0.0018027020994338052),
    (lambda: cmd_gen(6, 2, 2, 0.7, 0), 40, 0.0007874326813968831, 0.0012678992490330757),
    (lambda: cmd_gen(6, 2, 2, 0.7, 1), 39, 0.0006906043496100917, 0.0016291646657015202),
]


class TestClosedForm:
    @pytest.mark.parametrize(
        "problem, s, alpha, lam",
        SEARCH_PARAMS,
        ids=["illustrative", "long-horizon", "gen3-0", "gen3-1", "gen6-0", "gen6-1"],
    )
    def test_reproduces_the_search_on_benchmark_problems(self, problem, s, alpha, lam):
        spec = problem()
        p = select_params(spec.sys, spec.Y, gamma=spec.options.gamma, mu=spec.options.mu)
        assert p.s == s
        assert p.alpha == pytest.approx(alpha, abs=1e-15, rel=0)
        assert p.lam == pytest.approx(lam, abs=1e-15, rel=0)

    def test_flat_piece_takes_the_smallest_maximizer(self):
        # theta = 1 makes cap (a) lambda <= 1 - alpha flat in alpha + lambda,
        # and it is the lowest cap from the left end of the feasible interval
        # on, so every feasible alpha up to the (c) kink maximizes; the left
        # end is the small root of (1 - alpha)(alpha - zeta) = gamma zeta
        zeta, gamma, mu = 0.01, 0.1, 10.0
        consts = RpiConstants(s=1, L_s=np.ones(2), theta_s=1.0, M_s=1.0, zeta_s=zeta)
        alpha, lam = solve_Hs(consts, gamma, mu)
        b, c = 1.0 + zeta, (1.0 + gamma) * zeta
        left = 2.0 * c / (b + np.sqrt(b * b - 4.0 * c))
        assert alpha == pytest.approx(left, rel=1e-12)
        assert alpha + lam == pytest.approx(1.0, abs=1e-12)
        assert meets_inequalities(consts, gamma, mu, alpha, lam)
        # a little further left even the largest cap is below the floor of (b)
        a = alpha * (1 - 1e-9)
        assert gamma * zeta / (a - zeta) > 1.0 - a

    def test_zero_output_map_matches_grid_oracle(self):
        # C = D = 0 leaves no output row with L_i > 0, so theta = inf and (a)
        # drops out
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 10:
            sys = random_stable_system(rng, rho=rng.uniform(0.3, 0.8))
            sys = LtiSystem(sys.A, sys.B, np.zeros_like(sys.C), np.zeros_like(sys.D))
            consts = constants_at(sys, unit_box_constraints(2), int(rng.integers(3, 25)))
            assert consts.theta_s == np.inf
            gamma = float(rng.uniform(0.5, 1.2))
            mu = float(10.0 ** rng.uniform(-3, 0))
            sol = solve_Hs(consts, gamma, mu)
            oracle = grid_maximum(consts, gamma, mu)
            if sol is None:
                assert oracle == -np.inf
                continue
            assert meets_inequalities(consts, gamma, mu, *sol)
            assert sol[0] + sol[1] >= oracle - 1e-9
            assert sol[0] + sol[1] == pytest.approx(oracle, abs=1e-4)
            checked += 1

    def test_random_constants(self):
        rng = np.random.default_rng(35)
        feasible = 0
        for _ in range(2000):
            zeta = 0.0 if rng.random() < 0.1 else float(10.0 ** rng.uniform(-12, np.log10(0.98)))
            theta = np.inf if rng.random() < 0.25 else float(10.0 ** rng.uniform(-3, 1))
            consts = RpiConstants(
                s=1, L_s=np.ones(1), theta_s=theta, M_s=float(10.0 ** rng.uniform(0, 2)), zeta_s=zeta
            )
            gamma = float(10.0 ** rng.uniform(-2, 0.3))
            mu = float(10.0 ** rng.uniform(-4, 2))
            sol = solve_Hs(consts, gamma, mu)
            if closed_form_margin(consts, gamma, mu) < 0:
                assert sol is None
            if sol is None:
                assert grid_maximum(consts, gamma, mu) == -np.inf
                continue
            feasible += 1
            assert meets_inequalities(consts, gamma, mu, *sol)
            assert sol[0] + sol[1] >= grid_maximum(consts, gamma, mu) - 1e-9
        assert feasible > 500


def mu_ref():
    return 1e-3


class TestSelectParams:
    def test_memoryless_system_needs_one_step(self):
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
        Y = unit_box_constraints(2)
        p = select_params(sys, Y, gamma=0.1, mu=0.5)
        assert p.s == 1
        # hand-check: zeta_1 = 0 so the contraction holds for any alpha,
        # and theta = M = 1 leave room in the remaining two inequalities
        assert p.lam <= (1 - p.alpha) * 1.0 + 1e-12
        assert (p.alpha * 0.1 + p.lam) * 1.0 <= (1 - p.alpha) * 0.5 + 1e-12

    def test_three_state_plant_horizon(self, plant, pentagon):
        p = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        assert p.s == 60
        assert p.alpha + p.lam == pytest.approx(7.467e-4, rel=0.01)

    def test_minimality(self, plant, pentagon):
        p = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        consts = constants_at(plant, pentagon, p.s - 1)
        assert solve_Hs(consts, gamma=0.2, mu=1e-3) is None

    def test_hidden_block_horizon(self, hidden_block_plant):
        Y = unit_box_constraints(2)
        p = select_params(hidden_block_plant, Y, gamma=0.1, mu=1e-3)
        assert p.s == 151
        assert p.alpha == pytest.approx(5.195e-4, rel=5e-3)
        assert p.lam == pytest.approx(2.931e-5, rel=5e-3)

    def test_search_budget_exhaustion(self, plant, pentagon, monkeypatch):
        monkeypatch.setattr(rpi_params, "S_MAX", 10)  # read at call time
        with pytest.raises(ParamSearchError, match="up to S_MAX=10") as err:
            select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        assert len(err.value.trail) == 10

    def test_returned_params_satisfy_inequalities(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            sys = random_stable_system(rng, rho=rng.uniform(0.3, 0.8))
            Y = unit_box_constraints(2)
            p = select_params(sys, Y, gamma=1.0, mu=1e-2)
            consts = constants_at(sys, Y, p.s)
            assert p.lam - (1 - p.alpha) * consts.theta_s <= 1e-9
            assert (p.gamma + p.lam) * consts.zeta_s - p.alpha * p.lam <= 1e-9
            assert (p.alpha * p.gamma + p.lam) * consts.M_s - (1 - p.alpha) * p.mu <= 1e-9

    def test_monotone_constants_over_horizons(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            sys = random_stable_system(rng, rho=rng.uniform(0.2, 0.9))
            Y = unit_box_constraints(2)
            consts = list(itertools.islice(horizon_constants(sys, Y), 50))
            for prev, cur in zip(consts, consts[1:]):
                assert cur.theta_s <= prev.theta_s + 1e-12
                assert cur.M_s >= prev.M_s - 1e-12


class TestInclusionCertificate:
    def test_scalar_inequalities_match_support_evaluations(self, plant, pentagon):
        """The three scalar checks coincide with the support-function forms
        of the inclusions they encode, evaluated on the unit cube."""
        p = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
        cube = BoxHullSet(np.zeros((1, 3)), np.ones((1, 3)))
        Itil = stacked_identity(3)
        scale = 1.0 / (1.0 - p.alpha)

        lhs_y = np.zeros(pentagon.n_rows)
        lhs_mu = np.zeros(2 * 3)
        CA = plant.C.copy()
        A_pow = np.eye(3)
        for _ in range(p.s):
            lhs_y += p.lam * scale * support_rows(CA, pentagon.G, cube)
            lhs_mu += (p.alpha * p.gamma + p.lam) * scale * support_rows(A_pow, Itil, cube)
            CA = CA @ plant.A
            A_pow = A_pow @ plant.A
        assert np.all(lhs_y <= pentagon.g + 1e-9)
        assert np.all(lhs_mu <= p.mu + 1e-9)
        lhs_con = (p.gamma + p.lam) * support_rows(A_pow, Itil, cube)
        assert np.all(lhs_con <= p.alpha * p.lam + 1e-9)
