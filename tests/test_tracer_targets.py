"""The benchmark tracer wraps package functions by module attribute; each one
it names must exist, or a traced run fails where tier-1 would not notice.
Three names are kept only for it: ``lp_solver.linprog``, ``verifier.simulate``
and ``setgeom.solve_lp``."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


_TARGETS = _load_tracer()._TARGETS


@pytest.mark.parametrize(
    "module, attr", [t[:2] for t in _TARGETS], ids=[f"{t[0].__name__.removeprefix('distsynth.')}.{t[1]}" for t in _TARGETS]
)
def test_every_traced_name_resolves(module, attr):
    assert module.__name__.startswith("distsynth.")
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

