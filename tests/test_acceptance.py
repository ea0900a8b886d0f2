"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import time

import numpy as np
import pytest

from distsynth.cli import cmd_gen, cmd_params, cmd_reduce, main
from distsynth.encoder import assemble, h_preset
from distsynth.rpi_params import RpiConstants, horizon_constants, select_params, solve_Hs
from distsynth.setgeom import hull_outline, sample_batch, support_rows, vertices_hpoly
from distsynth.synthesizer import alternate, spread_beta
from distsynth.verifier import distance_dY, monte_carlo, verify_gamma, verify_output_inclusion, verify_params

from conftest import brute_force_hull_vertices, random_hull, random_stable_system
from reference import constants_at, contains_point, membership_blocks, synth_blocks, uniform_beta
from test_cli import PARTITIONED_SPEC, write_json
from test_rpi_params import (
    closed_form_margin,
    grid_maximum,
    longdouble_constants,
    unit_box_constraints,
)
from test_verifier import _geometric_distance


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


def horizon_margin(sys, Y, s, gamma, mu):
    """closed_form_margin on horizon-s constants summed afresh in extended
    precision, so the check shares no code with the parameter search."""
    L, theta, M, zeta = longdouble_constants(sys, Y, s)
    return closed_form_margin(RpiConstants(s, L.astype(float), theta, M, zeta), gamma, mu)


@pytest.fixture(scope="module")
def illustrative(plant, pentagon):
    t0 = time.perf_counter()
    params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
    t_params = time.perf_counter() - t0
    return params, t_params


@pytest.fixture(scope="module")
def illustrative_synthesis(plant, pentagon, illustrative):
    params, _ = illustrative
    vertices = vertices_hpoly(pentagon)
    H = h_preset("uniform:6", 2)
    problem = assemble(plant, pentagon, vertices, params, n_boxes=4, horizon=59, H=H, t0=params.s)
    t0 = time.perf_counter()
    result = alternate(problem, uniform_beta(problem.layout))
    elapsed = time.perf_counter() - t0
    return problem, result, elapsed


def test_criterion_1_parameter_selection(plant, pentagon, illustrative):
    params, elapsed = illustrative
    cert = verify_params(plant, pentagon, params)
    total = params.alpha + params.lam
    # s terms A^0..A^{s-1} with contraction on A^s: the recorded s=59 pairs
    # 59 terms with A^60, and with the constants as defined (b) and (c)
    # have no common (alpha, lambda) there
    margin_59 = horizon_margin(plant, pentagon, 59, params.gamma, params.mu)
    margin_s = horizon_margin(plant, pentagon, params.s, params.gamma, params.mu)
    ok = (
        params.s == 60
        and margin_59 < 0 <= margin_s
        and cert.passed
        and total >= 0.99 * 7.467e-4
        and elapsed <= 5.0
    )
    report(
        "criterion-1 parameter-selection",
        ok,
        f"s={params.s} (target 60), closed-form margin {margin_s:+.3e} at s={params.s} "
        f"and {margin_59:+.3e} at recorded s=59, alpha+lambda={total:.6e} "
        f"(floor {0.99 * 7.467e-4:.3e}), inequalities pass={cert.passed}, "
        f"runtime {elapsed:.2f}s",
    )
    assert cert.passed, "selected parameters must satisfy the three inequalities"
    assert total >= 0.99 * 7.467e-4
    assert elapsed <= 5.0
    assert margin_59 < 0, "recorded horizon 59 must be infeasible"
    assert margin_s >= 0
    assert params.s == 60


def test_criterion_2_reduced_order_mapping():
    t0 = time.perf_counter()
    spec = cmd_reduce(PARTITIONED_SPEC)
    frag = cmd_params(spec)
    elapsed = time.perf_counter() - t0
    s = frag["params"]["s"]
    feasible = all(m["passed"] for m in frag["margins"].values())
    gamma, mu = spec.options.gamma, spec.options.mu
    margin_150 = horizon_margin(spec.sys, spec.Y, 150, gamma, mu)
    margin_s = horizon_margin(spec.sys, spec.Y, s, gamma, mu)
    ok = s == 151 and margin_150 < 0 <= margin_s and feasible and elapsed <= 10.0
    report(
        "criterion-2 reduced-order-mapping",
        ok,
        f"s={s} (target 151), closed-form margin {margin_s:+.3e} at s={s} "
        f"and {margin_150:+.3e} at recorded s=150, feasible={feasible}, "
        f"runtime {elapsed:.2f}s",
    )
    assert feasible
    assert elapsed <= 10.0
    assert margin_150 < 0, "recorded horizon 150 must be infeasible"
    assert margin_s >= 0
    assert s == 151


def test_criterion_3_alternation_band(illustrative_synthesis):
    problem, result, elapsed = illustrative_synthesis
    hist = np.array(result.history)
    monotone = bool(np.all(np.diff(hist) <= 1e-7))
    ok = (
        result.iterations <= 30
        and 0.90 <= result.objective <= 1.25
        and monotone
        and elapsed <= 900.0
    )
    report(
        "criterion-3 alternation-band",
        ok,
        f"iterations={result.iterations} (cap 30), objective={result.objective:.4f} "
        f"(band [0.90, 1.25]), monotone={monotone}, runtime {elapsed:.1f}s",
    )
    assert result.iterations <= 30
    assert 0.90 <= result.objective <= 1.25
    assert monotone
    assert elapsed <= 900.0


def test_criterion_4_certification_soundness(plant, pentagon, illustrative, illustrative_synthesis):
    params, _ = illustrative
    _, result, _ = illustrative_synthesis
    certs = [
        verify_params(plant, pentagon, params),
        verify_gamma(plant, result.W, params.gamma),
        verify_output_inclusion(plant, pentagon, params, result.W),
    ]
    margins_ok = all(c.margin >= -1e-8 for cert in certs for c in cert.checks)
    rep = monte_carlo(plant, result.W, pentagon, T=10_000, runs=20, rng=np.random.default_rng(0))
    ok = margins_ok and rep.violations == 0
    report(
        "criterion-4 certification-soundness",
        ok,
        f"margins>=-1e-8: {margins_ok}, violations={rep.violations}/{rep.steps} steps, "
        f"max excursion {rep.max_excursion:.3g}",
    )
    assert margins_ok
    assert rep.violations == 0


def test_criterion_5_dimension_audit(plant, pentagon, illustrative, illustrative_synthesis):
    problem, result, _ = illustrative_synthesis
    lay = problem.layout
    blocks = synth_blocks(plant, pentagon, vertices_hpoly(pentagon), illustrative[0], h_preset("uniform:6", 2), lay)
    membership_rows = membership_blocks(lay)[0].shape[0]
    dim_wbar = lay.dim_beta * lay.n_w  # the group points, N per (vertex, slot)
    v, N, l, s = lay.n_vertices, lay.n_boxes, lay.horizon, lay.s
    n_w, n_y, n_b, m_y, n_x = lay.n_w, lay.n_y, lay.n_b, lay.m_y, plant.n_x
    audits = {
        "dim_x": (lay.dim_x, 2 * N * n_w + (s + 1) * m_y),
        "dim_w": (lay.dim_w, v * (l + 1) * n_w),
        "dim_wbar": (dim_wbar, v * N * (l + 1) * n_w),
        "dim_beta": (lay.dim_beta, v * N * (l + 1)),
        "dim_z": (lay.dim_z, n_b + v * n_y),
        "rows_output_gamma_origin": (
            blocks.a_x.shape[0],
            N * (s + 1) * m_y + m_y + 2 * n_x * N + 2 * n_w,
        ),
        "rows_reach_eq": (blocks.c_w.shape[0], v * n_y),
        "rows_bilinear": (lay.n_groups * n_w, v * (l + 1) * n_w),
        "rows_membership": (membership_rows, v * 2 * N * (l + 1) * n_w),
        "rows_simplex_eq": (blocks.t_beta.shape[0], v * (l + 1)),
        "rows_deviation": (blocks.e_z.shape[0], v * n_b),
    }
    bad = {k: pair for k, pair in audits.items() if pair[0] != pair[1]}
    anchors_ok = dim_wbar == 2400 and lay.dim_beta == 1200 and v == 5
    ok = not bad and anchors_ok
    report(
        "criterion-5 dimension-audit",
        ok,
        f"closed-form match for {len(audits)} counts "
        f"(dim_wbar={dim_wbar}, membership rows={membership_rows})"
        + (f", mismatches: {bad}" if bad else ""),
    )
    assert not bad
    assert anchors_ok


def test_criterion_6_oracle_equivalences(plant):
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # (a) hull support equals the brute-force vertex maximum
    for _ in range(200):
        W = random_hull(rng, n_boxes=int(rng.integers(1, 4)))
        T = rng.standard_normal((2, 2))
        p = rng.standard_normal(2)
        expected = max(p @ T @ v for v in brute_force_hull_vertices(W))
        assert support_rows(T, np.atleast_2d(p), W)[0] == pytest.approx(expected, abs=1e-8)

    # (b) membership LP agrees with a support-violation search
    disagreements = 0
    for k in range(200):
        W = random_hull(rng, n_boxes=2)
        if k % 2 == 0:
            w = sample_batch(W, 1, rng)[0]
        else:
            w = rng.uniform(-2.5, 2.5, 2)
        outline = hull_outline(W)
        edges = np.roll(outline, -1, axis=0) - outline
        normals = np.column_stack([edges[:, 1], -edges[:, 0]])
        directions = np.vstack([normals, rng.standard_normal((100, 2))])
        violated = any(
            p @ w > support_rows(np.eye(2), np.atleast_2d(p), W)[0] + 1e-9 for p in directions
        )
        if bool(contains_point(W, w, tol=1e-9)) == violated:
            disagreements += 1
    assert disagreements == 0

    # (c) two-variable search equals the 2-D grid oracle
    checked = 0
    while checked < 200:
        sys = random_stable_system(rng, rho=rng.uniform(0.3, 0.8))
        s = int(rng.integers(3, 20))
        consts = constants_at(sys, unit_box_constraints(2), s)
        gamma = float(rng.uniform(0.5, 1.2))
        mu = float(10.0 ** rng.uniform(-3, -1))
        sol = solve_Hs(consts, gamma, mu)
        oracle = grid_maximum(consts, gamma, mu)
        if sol is None:
            assert oracle == -np.inf
            continue
        assert sol[0] + sol[1] == pytest.approx(oracle, abs=1e-4)
        checked += 1

    # (d) one-shot coverage LP equals brute-force geometry on small instances
    H = h_preset("box", 2)
    for _ in range(200):
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=rng.uniform(0.3, 0.7))
        W = random_hull(rng, n_boxes=2, scale=0.4)
        vertices = rng.uniform(-1.5, 1.5, (int(rng.integers(2, 5)), 2))
        _, lp_val = distance_dY(sys, vertices, W, 3, H)
        geo_val = _geometric_distance(sys, vertices, W, 3, H)
        assert lp_val == pytest.approx(geo_val, abs=2e-7)

    # (e) constraint ratio nonincreasing, cube growth nondecreasing in s
    for _ in range(20):
        sys = random_stable_system(rng, rho=rng.uniform(0.2, 0.9))
        consts = list(itertools.islice(horizon_constants(sys, unit_box_constraints(2)), 50))
        for prev, cur in zip(consts, consts[1:]):
            assert cur.theta_s <= prev.theta_s + 1e-12
            assert cur.M_s >= prev.M_s - 1e-12

    elapsed = time.perf_counter() - t_start
    ok = elapsed <= 60.0
    report(
        "criterion-6 oracle-equivalences",
        ok,
        f"five oracle suites, >=200 trials each where randomized, {elapsed:.1f}s (cap 60s)",
    )
    assert elapsed <= 60.0


def test_criterion_7_box_count_sweep(plant, pentagon, illustrative):
    params, _ = illustrative
    vertices = vertices_hpoly(pentagon)
    H = h_preset("uniform:6", 2)
    results = {}
    for n_boxes in (1, 2, 4, 8):
        problem = assemble(plant, pentagon, vertices, params, n_boxes, 59, H, params.s)
        res = alternate(problem, spread_beta(problem.layout))
        results[n_boxes] = res.objective
    counts = sorted(results)
    pairwise_ok = all(
        results[b] <= results[a] + 1e-6 for i, a in enumerate(counts) for b in counts[i + 1 :]
    )
    report(
        "criterion-7 box-count-sweep",
        pairwise_ok,
        "objectives " + ", ".join(f"N={k}: {results[k]:.4f}" for k in counts),
    )
    assert pairwise_ok


def test_criterion_8_robustness_batch(tmp_path):
    t0 = time.perf_counter()
    for seed in range(10):
        spec = cmd_gen(3, 2, 2, 0.7, seed=seed)
        doc = spec.to_dict()
        spec_path = write_json(tmp_path / f"batch{seed}.json", doc)
        out_dir = tmp_path / f"out{seed}"
        assert main(["synth", str(spec_path), "--out", str(out_dir)]) == 0
        assert main(["verify", str(spec_path), str(out_dir / "result.json")]) == 0
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 600.0
    report(
        "criterion-8 robustness-batch",
        ok,
        f"10 generated systems through synth+verify with exit 0, {elapsed:.1f}s (cap 600s)",
    )
    assert elapsed <= 600.0
