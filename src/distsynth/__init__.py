"""Disturbance-set synthesis for constrained LTI systems.

Given a stable discrete-time plant and a polytopic output-constraint set,
the package computes a hull-of-boxes disturbance set whose reachable outputs
stay inside the constraints while covering them as closely as possible, and
independently certifies the result.

Each name is imported from the module that defines it: ``setgeom`` (plants,
sets, sampling), ``rpi_params`` (the parameter search), ``encoder`` (the
synthesis program), ``synthesizer`` (the alternation), ``verifier`` (the
certificates), ``lp_solver`` (the HiGHS layer) and ``cli`` (the commands).
"""

__version__ = "0.1.0"
