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
import scipy.sparse as sp

from distsynth.lp_solver import LpProblem

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
    a = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 5.0, 6.0], [0.0, 0.0, 7.0]]))
    lp = LpProblem(np.ones(3), a, np.ones(4), n_eq)
    assert (lp.a_ub.shape[0], lp.a_eq.shape[0]) == (4 - n_eq, n_eq)
    assert _TRACER._lp_shape(lp) == {"rows": a.shape[0], "cols": lp.n_vars, "nnz": a.nnz}
