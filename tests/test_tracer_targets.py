"""The benchmark tracer wraps package functions by module attribute; each one
it names must exist, or a traced run fails where tier-1 would not notice.
Three names are kept only for it: ``lp_solver.linprog``, ``verifier.simulate``
and ``setgeom.solve_lp``; and two row views of ``LpProblem``, ``a_ub`` and
``a_eq``, by which it counts each LP's rows and nonzeros."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from distsynth import verifier
from distsynth.encoder import assemble, h_preset
from distsynth.lp_solver import LpProblem, kron
from distsynth.rpi_params import select_params
from distsynth.setgeom import dead_points, reach_coefficients, vertices_hpoly
from distsynth.synthesizer import boxes_from_x, p_step, spread_beta

from reference import as_csr

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


_TRACER = _load_tracer()
_TARGETS = _TRACER._TARGETS


@pytest.mark.parametrize(
    "module, attr", [t[:2] for t in _TARGETS], ids=[f"{t[0].__name__.removeprefix('distsynth.')}.{t[1]}" for t in _TARGETS]
)
def test_every_traced_name_resolves(module, attr):
    assert module.__name__.startswith("distsynth.")
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"



@pytest.mark.parametrize("n_eq", [2, 0], ids=["both-row-kinds", "inequalities-only"])
def test_lp_shape_counts_the_one_matrix(n_eq):
    """The tracer counts rows and nonzeros through ``LpProblem.a_ub`` and
    ``a_eq``; together they must be the one matrix ``a``."""
    a = as_csr(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 5.0, 6.0], [0.0, 0.0, 7.0]]))
    lp = LpProblem(np.ones(3), a, np.ones(4), n_eq, np.full(3, -np.inf))
    assert (lp.a_ub.shape[0], lp.a_eq.shape[0]) == (4 - n_eq, n_eq)
    assert _TRACER._lp_shape(lp) == {"rows": a.shape[0], "cols": lp.n_vars, "nnz": a.nnz}


def test_lp_shape_counts_the_illustrative_programs(plant, pentagon):
    """The row views split the filled P-step and Q-step programs and the
    reach program of the illustrative problem, each holding both row kinds,
    into their inequality and equality rows without losing a row or an entry."""
    params = select_params(plant, pentagon, gamma=0.2, mu=1e-3)
    vertices, H = vertices_hpoly(pentagon), h_preset("uniform:6", 2)
    problem = assemble(plant, pentagon, vertices, params, 4, 59, H, params.s)
    beta = spread_beta(problem.layout)
    x, _, wbar, _, _, _ = p_step(problem, beta)
    slack = kron(-np.ones((len(vertices), 1)), H.shape[0])
    coeff = reach_coefficients(plant, 59)
    dead = dead_points(coeff, len(vertices))
    reach = verifier._reach_lp(coeff, vertices, boxes_from_x(problem, x), H, slack, 0.0, np.zeros(slack.shape[0]), dead)
    for lp in (problem.p_program.lp(beta), problem.q_program.lp(wbar), reach):
        assert 0 < lp.n_eq < lp.b.size
        assert _TRACER._lp_shape(lp) == {"rows": lp.a.shape[0], "cols": lp.n_vars, "nnz": lp.a.nnz}
