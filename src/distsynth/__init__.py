"""Disturbance-set synthesis for constrained LTI systems.

Given a stable discrete-time plant and a polytopic output-constraint set,
the package computes a hull-of-boxes disturbance set whose reachable outputs
stay inside the constraints while covering them as closely as possible, and
independently certifies the result.
"""

from .encoder import assemble, h_preset, short_horizon
from .lp_solver import LpFailure
from .rpi_params import (
    ParamSearchError,
    RpiConstants,
    RpiParams,
    select_params,
    solve_Hs,
)
from .setgeom import (
    BoxHullSet,
    GeometryError,
    HPolytope,
    LtiSystem,
    hull_outline,
    simulate,
    support_rows,
    vertices_hpoly,
)
from .synthesizer import (
    SynthesisError,
    alternate,
    p_step,
    q_step,
    refine,
    spread_beta,
)
from .verifier import (
    CoverageWitness,
    distance_dY,
    distance_witness,
    monte_carlo,
    verify_coverage,
    verify_gamma,
    verify_output_inclusion,
    verify_params,
)

__version__ = "0.1.0"

__all__ = [
    "BoxHullSet",
    "CoverageWitness",
    "GeometryError",
    "HPolytope",
    "LpFailure",
    "LtiSystem",
    "ParamSearchError",
    "RpiConstants",
    "RpiParams",
    "SynthesisError",
    "alternate",
    "assemble",
    "distance_dY",
    "distance_witness",
    "h_preset",
    "hull_outline",
    "monte_carlo",
    "p_step",
    "q_step",
    "refine",
    "select_params",
    "short_horizon",
    "simulate",
    "solve_Hs",
    "spread_beta",
    "support_rows",
    "verify_coverage",
    "verify_gamma",
    "verify_output_inclusion",
    "verify_params",
    "vertices_hpoly",
]
