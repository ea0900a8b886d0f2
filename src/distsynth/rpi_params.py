"""Certification constants and the (s, alpha, lambda) parameter search.

For a horizon s the constants

    L[s]   = sum_{t<s} |G C A^t| 1          (per output-constraint row)
    theta  = min_i g_i / L_i[s]             (rows with L_i = 0 excluded)
    M[s]   = || sum_{t<s} |[I;-I] A^t| 1 ||_inf
    zeta_s = ||A^s||_inf

reduce the invariant-set inclusion requirements to three scalar inequalities
in (alpha, lambda):

    (a) lambda <= (1 - alpha) theta
    (b) (gamma + lambda) zeta_s <= alpha lambda
    (c) (alpha gamma + lambda) M[s] <= (1 - alpha) mu

(a), (c) and lambda <= 1 cap lambda by lines in alpha and (b) floors it, so
the feasible alpha lie between roots of quadratics and the maximum of
alpha + lambda sits at an end of that interval or at a kink where two caps
cross; solve_Hs computes it in closed form, ties going to the smallest alpha.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .setgeom import HPolytope, LtiSystem, fields_equal, power_chain


class ParamSearchError(RuntimeError):
    """Search exhausted the horizon budget without a feasible pair."""

    def __init__(self, message: str, trail):
        super().__init__(message)
        self.trail = trail


@dataclass(frozen=True, eq=False)
class RpiConstants:
    s: int
    L_s: np.ndarray
    theta_s: float
    M_s: float
    zeta_s: float
    __eq__ = fields_equal


@dataclass(frozen=True)
class RpiParams:
    s: int
    alpha: float
    lam: float
    gamma: float
    mu: float

    def __post_init__(self):
        if not (self.s >= 1 and 0.0 <= self.alpha < 1.0 and 0.0 <= self.lam <= 1.0):
            raise ValueError("parameters out of range")
        if self.gamma <= 0 or self.mu <= 0:
            raise ValueError("gamma and mu must be positive")


# horizons per block of ``horizon_constants``
_BLOCK = 32


def horizon_constants(sys: LtiSystem, Y: HPolytope) -> Iterator[RpiConstants]:
    """The constants at s = 1, 2, ..., each adding one horizon term to the last;
    the input checks run before the first item.

    The terms come in blocks of _BLOCK horizons: the maps G C A^t and the
    powers A^t of a block are two ``power_chain`` stacks that go on from the
    last block's final terms, their absolute row sums are added onto the last
    block's sums by one ``cumsum`` each, in t order, and theta, M and zeta are
    taken for the whole block at once; items are yielded one at a time."""
    if np.any(Y.g <= 0):
        raise ValueError("constraint offsets must be strictly positive")
    if Y.dim != sys.n_y:
        raise ValueError("constraint set dimension mismatch")
    maps, powers = Y.G @ sys.C, np.eye(sys.n_x)  # the next block's first terms
    L, row_sums = np.zeros((1, Y.n_rows)), np.zeros((1, sys.n_x))  # the sums before it
    for first in itertools.count(1, _BLOCK):
        maps, powers = power_chain(maps, sys.A, _BLOCK + 1), power_chain(powers, sys.A, _BLOCK + 1)
        power_sums = np.abs(powers).sum(axis=2)  # row sums of |A^t|, t = first - 1 .. first - 1 + _BLOCK
        L = np.cumsum(np.concatenate([L[-1:], np.abs(maps[:-1]).sum(axis=2)]), axis=0)[1:]
        row_sums = np.cumsum(np.concatenate([row_sums[-1:], power_sums[:-1]]), axis=0)[1:]
        theta = np.divide(Y.g, L, out=np.full(L.shape, np.inf), where=L > 0).min(axis=1)
        M, zeta = row_sums.max(axis=1), power_sums[1:].max(axis=1)
        for item in zip(range(first, first + _BLOCK), L, theta.tolist(), M.tolist(), zeta.tolist()):
            yield RpiConstants(*item)
        maps, powers = maps[-1], powers[-1]


def solve_Hs(consts: RpiConstants, gamma: float, mu: float):
    """Maximize alpha + lambda subject to (a)-(c); None when infeasible.

    (a), (c) and lambda <= 1 are caps lambda <= p - q alpha.  For alpha > zeta_s
    inequality (b) floors lambda at gamma zeta_s / (alpha - zeta_s), so a cap
    leaves room for lambda exactly between the roots of
    (p - q alpha)(alpha - zeta_s) = gamma zeta_s, and the feasible alpha are
    the intersection [lo, hi] of those intervals.  On it the objective
    alpha + min_k (p_k - q_k alpha) is concave and piecewise linear, so its
    maximum f* lies at lo, at hi or at a kink where two caps cross.  Ties go
    to the smallest alpha with alpha + lambda >= f* - 1e-12 max(1, |f*|); the
    caps that rise with alpha place that alpha.  lambda is the lowest cap
    there, or the floor of (b) where rounding puts that cap below it.
    """
    if gamma <= 0 or mu <= 0:
        raise ValueError("gamma and mu must be positive")
    theta, M, zeta = consts.theta_s, consts.M_s, consts.zeta_s
    if zeta >= 1.0:
        return None
    k = mu / M
    caps = [(k, k + gamma), (1.0, 0.0)]
    if np.isfinite(theta):
        caps.append((theta, theta))

    lo, hi = 0.0, np.inf
    for p, q in caps:
        # roots of q alpha^2 - b alpha + c; the small one as c / (q big),
        # which is c / b for q = 0 and does not cancel
        b, c = p + q * zeta, (p + gamma) * zeta
        disc = b * b - 4.0 * q * c
        if disc < 0.0:
            return None
        root = b + np.sqrt(disc)
        lo = max(lo, 2.0 * c / root)
        if q > 0.0:
            hi = min(hi, root / (2.0 * q))
    if lo > hi:
        return None

    def lam_hi(a: float) -> float:
        # (a) and (c) as the verifier evaluates them, rather than as p - q alpha
        return min(((1.0 - a) * mu - a * gamma * M) / M, (1.0 - a) * theta, 1.0)

    kinks = [
        (p1 - p2) / (q1 - q2)
        for i, (p1, q1) in enumerate(caps)
        for p2, q2 in caps[i + 1 :]
        if q1 != q2
    ]
    f_best = max(a + lam_hi(a) for a in [lo, hi, *kinks] if lo <= a <= hi)
    floor = f_best - 1e-12 * max(1.0, abs(f_best))
    a_min = max([lo] + [(floor - p) / (1.0 - q) for p, q in caps if q < 1.0])
    lam_lo = gamma * zeta / (a_min - zeta) if zeta > 0.0 else 0.0
    return float(a_min), float(max(lam_hi(a_min), lam_lo))


# the search's horizon budget: it tries s = 1 .. S_MAX
S_MAX = 1000


def select_params(sys: LtiSystem, Y: HPolytope, gamma: float, mu: float) -> RpiParams:
    """Smallest horizon s <= S_MAX with a feasible (alpha, lambda), found
    incrementally; ``S_MAX`` is read at call time."""
    trail = []
    for consts in itertools.islice(horizon_constants(sys, Y), S_MAX):
        sol = solve_Hs(consts, gamma, mu)
        if sol is not None:
            alpha, lam = sol
            return RpiParams(s=consts.s, alpha=alpha, lam=lam, gamma=gamma, mu=mu)
        trail.append((consts.s, consts.zeta_s, consts.theta_s, consts.M_s))
    tail = ", ".join(
        f"(s={s}, zeta={z:.3e}, theta={t:.3e}, M={m:.4g})" for s, z, t, m in trail[-5:]
    )
    raise ParamSearchError(
        f"no feasible (alpha, lambda) up to S_MAX={S_MAX}; last horizons: {tail}", trail
    )
