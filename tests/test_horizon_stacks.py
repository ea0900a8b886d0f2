"""The horizon stacks taken as one batched product each equal their per-term
forms (``reference``) bit for bit: the slot maps, the output maps and every
sum over them, and the parameter search's constants and trail."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from distsynth import encoder, rpi_params
from distsynth.cli import cmd_gen, cmd_reduce, parse_spec
from distsynth.encoder import (
    VariableLayout,
    budget_tail,
    build_gbar,
    encode_output_inclusion,
    output_rhs,
    tail_charge,
)
from distsynth.lp_solver import csr
from distsynth.rpi_params import ParamSearchError, RpiParams, horizon_constants, select_params, solve_Hs
from distsynth.setgeom import LtiSystem, reach_coefficients

from reference import (
    assert_same_matrix,
    budget_sums_loop,
    gbar_loop,
    horizon_constants_loop,
    output_rhs_loop,
    reach_loop,
    scipy_output_inclusion,
    tail_charge_loop,
)

ROOT = Path(__file__).resolve().parents[1]

# the bundled specs, and generated systems of each state count with one and two inputs and outputs
CASES = ["illustrative", "mapped"] + [f"gen-{n_x}-{n_w}" for n_x in (1, 3, 6, 12) for n_w in (1, 2)]

# 1, 2, the first three block edges of ``horizon_constants`` less one, at and plus one, and the mapped plant's 151
BLOCK = rpi_params._BLOCK
HORIZONS = sorted({1, 2, 151} | {edge + d for edge in (BLOCK, 2 * BLOCK, 3 * BLOCK) for d in (-1, 0, 1)})


def _case(case):
    """(sys, Y) of ``case``."""
    if case == "illustrative":
        spec = parse_spec(json.loads((ROOT / "specs" / "illustrative.json").read_text()))
    elif case == "mapped":
        spec = cmd_reduce(json.loads((ROOT / "specs" / "reduced_order_plant.json").read_text()))
    else:  # gen-<n_x>-<n_w>, as many outputs as inputs
        _, n_x, n_w = case.split("-")
        spec = cmd_gen(int(n_x), int(n_w), int(n_w), 0.7, 0)
    return spec.sys, spec.Y


def _layout(sys, Y, s: int, t0: int) -> VariableLayout:
    return VariableLayout(
        n_boxes=2, n_vertices=3, horizon=1, s=s, n_w=sys.n_w, n_y=sys.n_y, m_y=Y.n_rows, n_b=2 * sys.n_y, t0=t0
    )


@pytest.mark.parametrize("case", CASES)
def test_slot_maps_equal_the_per_slot_products(case):
    sys, _ = _case(case)
    for l in HORIZONS:
        got = reach_coefficients(sys, l)
        assert got.shape == (l + 1, sys.n_y, sys.n_w)
        assert np.array_equal(got, reach_loop(sys, l)), l


@pytest.mark.parametrize("case", CASES)
def test_output_maps_and_their_sums_equal_the_per_term_forms(case, monkeypatch):
    """``build_gbar``, ``output_rhs``, ``tail_charge`` (every t0, t0 = s
    without a tail), ``budget_tail``'s sums and the term rows and right-hand
    side of ``encode_output_inclusion``."""
    sys, Y = _case(case)
    sums = []
    monkeypatch.setattr(encoder, "tail_start", lambda mass, frac: sums.append(mass) or 1)
    for s, alpha in itertools.product(HORIZONS, (0.0, 0.37)):
        params = RpiParams(s, alpha, 0.01, 1.0, 0.1)
        gbar, loop = build_gbar(sys, Y, params), gbar_loop(sys, Y, params)
        assert gbar.shape == (s, Y.n_rows, sys.n_x) and np.array_equal(gbar, np.stack(loop)), s
        assert np.array_equal(output_rhs(gbar, Y, params), output_rhs_loop(loop, Y, params)), s
        budget_tail(sys, Y, params)
        assert np.array_equal(sums.pop(), budget_sums_loop(loop, sys)), s
        for t0 in sorted({1, max(1, s - 1), s}):
            layout = _layout(sys, Y, s, t0)
            charge = tail_charge(gbar, sys, layout)
            assert charge.shape == (Y.n_rows, layout.n_rho), (s, t0)
            assert np.array_equal(charge, tail_charge_loop(loop, sys, layout)), (s, t0)
            (a, b), (ref_a, ref_b) = (
                encode_output_inclusion(gbar, sys, Y, params, layout),
                scipy_output_inclusion(loop, sys, Y, params, layout),
            )
            assert_same_matrix(csr(a), ref_a, (s, t0))
            assert b.tobytes() == ref_b.tobytes(), (s, t0)


@pytest.mark.parametrize("case", CASES)
def test_horizon_constants_equal_the_per_horizon_loop(case):
    sys, Y = _case(case)
    count = max(HORIZONS) + BLOCK + 1
    for got, want in zip(itertools.islice(horizon_constants(sys, Y), count), horizon_constants_loop(sys, Y)):
        assert got == want, want.s


def _trail(sys, Y, gamma, mu, count):
    """The search trail of the per-horizon loop over ``count`` horizons, none feasible."""
    consts = list(itertools.islice(horizon_constants_loop(sys, Y), count))
    assert all(solve_Hs(c, gamma, mu) is None for c in consts)
    return [(c.s, c.zeta_s, c.theta_s, c.M_s) for c in consts]


def test_the_exhausted_search_leaves_the_per_horizon_trail(plant, pentagon, monkeypatch):
    """At S_MAX on both sides of a block edge, and at the full S_MAX on a
    plant whose zeta_s stays above 1 over every horizon of it."""
    for s_max in (BLOCK - 1, BLOCK + 1, 2 * BLOCK):
        monkeypatch.setattr(rpi_params, "S_MAX", s_max)
        with pytest.raises(ParamSearchError) as err:
            select_params(plant, pentagon, gamma=0.2, mu=1e-9)
        assert err.value.trail == _trail(plant, pentagon, 0.2, 1e-9, s_max)
    monkeypatch.undo()
    slow = LtiSystem([[0.995, 10.0], [0.0, 0.995]], [[1.0], [0.5]], [[1.0, 0.0], [0.0, 1.0]], [[0.0], [0.0]])
    with pytest.raises(ParamSearchError, match=f"up to S_MAX={rpi_params.S_MAX}") as err:
        select_params(slow, pentagon, gamma=0.2, mu=1e-3)
    assert err.value.trail == _trail(slow, pentagon, 0.2, 1e-3, rpi_params.S_MAX)
