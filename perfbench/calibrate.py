"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the speed of the same code changes by up to half,
switching within seconds and sometimes staying slow for minutes.  The
benchmark times this kernel after every operation and scales the run's
timings by ``REFERENCE_S / mean kernel time``, which states them in seconds
at the speed the machine had when ``REFERENCE_S`` was measured.  The kernel
uses no distsynth code, so a change to the package leaves it alone.  It
mixes the two kinds of work the pipeline spends its time on: a HiGHS simplex
solve of a sparse LP, and a Python loop of tiny matrix products like the
Monte-Carlo state recursion.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# median of 40 kernel times on the reference machine (2-vCPU x86_64 VM,
# Python 3.11, numpy 2.4, scipy 1.17, BLAS pinned to one thread), which
# ranged from 0.153 s to 0.237 s
REFERENCE_S = 0.2025


def _solve_lp() -> None:
    # 2,500 x 4,000 at density 0.0008 from a fixed seed; feasible (x = 0)
    # and bounded (0 <= x <= 1)
    m, n = 2500, 4000
    rng = np.random.default_rng(0)
    a = sp.random(m, n, density=0.0008, random_state=rng, format="csr")
    a = (a + sp.eye(m, n, format="csr")).tocsr()
    c = -rng.uniform(0.5, 1.5, n)
    b = rng.uniform(1.0, 2.0, m)
    res = linprog(c, A_ub=a, b_ub=b, bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP ended with status {res.status}")


def _recursion() -> None:
    # the shape of the Monte-Carlo state recursion: 20k tiny matmuls
    rng = np.random.default_rng(1)
    a = 0.9 * np.linalg.qr(rng.standard_normal((4, 4)))[0]
    w = rng.uniform(-1.0, 1.0, (20_000, 4))
    x = np.zeros(4)
    for t in range(w.shape[0]):
        x = a @ x + w[t]


def kernel() -> float:
    """Solve the reference LP and run the recursion; return the seconds taken."""
    t0 = time.perf_counter()
    _solve_lp()
    _recursion()
    return time.perf_counter() - t0
