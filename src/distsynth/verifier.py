"""Independent certification of synthesized disturbance sets.

Checks are closed-form support-function evaluations wherever possible; the
coverage distance is recomputed by a single linear program that encodes
membership in the fixed hull of boxes through the scaled-point change of
variables, a route disjoint from the synthesizer's bilinear encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lp_solver import LpProblem, solve_lp
from .rpi_params import RpiConstants, RpiParams
from .setgeom import (
    BoxHullSet,
    GeometryError,
    HPolytope,
    LtiSystem,
    rollout,
    sample_batch,
    simulate,  # noqa: F401  kept in this namespace; callers look it up as verifier.simulate
    stacked_identity,
    support_rows,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    location: str = ""


@dataclass(frozen=True)
class Certificate:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> CheckResult:
        return min(self.checks, key=lambda c: c.margin)

    def as_dict(self) -> dict:
        return {
            c.name: {"passed": c.passed, "margin": c.margin, "location": c.location}
            for c in self.checks
        }

    def report(self) -> str:
        lines = []
        for c in self.checks:
            state = "pass" if c.passed else "FAIL"
            loc = f" at {c.location}" if c.location else ""
            lines.append(f"[{state}] {c.name}: margin {c.margin:+.3e}{loc}")
        return "\n".join(lines)


def _horizon_constants(sys: LtiSystem, Y: HPolytope, s: int) -> RpiConstants:
    """The constants of rpi_params at horizon s, by a route that shares no code
    with its incremental accumulator: every power A^t is taken afresh by
    repeated squaring and the horizon sums are formed over the whole stack."""
    powers = np.stack([np.linalg.matrix_power(sys.A, t) for t in range(s)])
    L = np.abs(Y.G @ sys.C @ powers).sum(axis=(0, 2))
    active = L > 0
    theta = float(np.min(Y.g[active] / L[active])) if active.any() else np.inf
    M = float(np.abs(powers).sum(axis=(0, 2)).max())
    zeta = float(np.abs(np.linalg.matrix_power(sys.A, s)).sum(axis=1).max())
    return RpiConstants(s=s, L_s=L, theta_s=theta, M_s=M, zeta_s=zeta)


def verify_params(sys: LtiSystem, Y: HPolytope, params: RpiParams, tol: float = 1e-9) -> Certificate:
    """Re-derive the horizon constants and check the three scalar inequalities."""
    consts = _horizon_constants(sys, Y, params.s)
    a, lam, g, mu = params.alpha, params.lam, params.gamma, params.mu
    checks = (
        CheckResult("alpha-range", 0.0 <= a < 1.0, min(a, 1.0 - a)),
        CheckResult("lambda-range", 0.0 <= lam <= 1.0, min(lam, 1.0 - lam)),
        CheckResult(
            "constraint-margin",
            bool((1.0 - a) * consts.theta_s - lam >= -tol),
            float((1.0 - a) * consts.theta_s - lam),
            f"s={params.s}",
        ),
        CheckResult(
            "contraction",
            bool(a * lam - (g + lam) * consts.zeta_s >= -tol),
            float(a * lam - (g + lam) * consts.zeta_s),
            f"zeta={consts.zeta_s:.3e}",
        ),
        CheckResult(
            "approximation-error",
            bool((1.0 - a) * mu - (a * g + lam) * consts.M_s >= -tol),
            float((1.0 - a) * mu - (a * g + lam) * consts.M_s),
            f"M={consts.M_s:.6g}",
        ),
    )
    return Certificate(checks)


def verify_output_inclusion(
    sys: LtiSystem, Y: HPolytope, params: RpiParams, W: BoxHullSet, tol: float = 1e-8
) -> Certificate:
    """Row-wise support check that the reachable-output bound stays in Y."""
    scale = 1.0 / (1.0 - params.alpha)
    lhs = np.zeros(Y.n_rows)
    tail = np.zeros(Y.n_rows)
    M = scale * (Y.G @ sys.C)
    for _ in range(params.s):
        lhs += support_rows(sys.B, M, W)
        tail += np.abs(M).sum(axis=1)
        M = M @ sys.A
    lhs += support_rows(sys.D, Y.G, W)
    slack = Y.g - params.lam * tail - lhs
    i = int(np.argmin(slack))
    check = CheckResult("output-inclusion", bool(slack[i] >= -tol), float(slack[i]), f"row {i}")
    return Certificate((check,))


def verify_gamma(sys: LtiSystem, W: BoxHullSet, gamma: float, tol: float = 1e-8) -> Certificate:
    """Support check that B W fits in the gamma cube."""
    vals = support_rows(sys.B, stacked_identity(sys.n_x), W)
    slack = gamma - vals
    i = int(np.argmin(slack))
    check = CheckResult("input-bound", bool(slack[i] >= -tol), float(slack[i]), f"row {i}")
    return Certificate((check,))


def _reach_coefficients(sys: LtiSystem, horizon: int) -> list[np.ndarray]:
    powers = [np.eye(sys.n_x)]
    for _ in range(horizon - 1):
        powers.append(powers[-1] @ sys.A)
    return [sys.C @ powers[horizon - 1 - t] @ sys.B for t in range(horizon)] + [sys.D]


def _perspective_rows(tri_rows, tri_cols, tri_data, b_ub, row0, q0, beta0, W, n_w):
    """Box-membership rows |q_j - beta_j c_j| <= beta_j h_j for one group."""
    r = row0
    for j in range(W.n_boxes):
        for k in range(n_w):
            tri_rows += [r, r]
            tri_cols += [q0 + j * n_w + k, beta0 + j]
            tri_data += [1.0, -(W.centers[j, k] + W.halfwidths[j, k])]
            b_ub.append(0.0)
            r += 1
            tri_rows += [r, r]
            tri_cols += [q0 + j * n_w + k, beta0 + j]
            tri_data += [-1.0, W.centers[j, k] - W.halfwidths[j, k]]
            b_ub.append(0.0)
            r += 1
    return r


def distance_dY(sys: LtiSystem, Y_vertices: np.ndarray, W: BoxHullSet, horizon: int, H: np.ndarray):
    """Exact coverage distance of the horizon-reachable output set for a fixed W.

    One LP drives the output to a deviation-neighborhood of every vertex,
    with each disturbance point encoded exactly as a scaled-point convex
    combination over the member boxes.  Returns (epsilon, objective).
    """
    vertices = np.atleast_2d(np.asarray(Y_vertices, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    v, n_y = vertices.shape
    n_w, N = W.dim, W.n_boxes
    n_b = H.shape[0]
    slots = horizon + 1
    coeff = _reach_coefficients(sys, horizon)

    dim_q = v * slots * N * n_w
    dim_beta = v * slots * N
    q_off, beta_off = 0, dim_q
    b_off = dim_q + dim_beta
    eps_off = b_off + v * n_y
    width = eps_off + n_b

    def q_group(i, slot):
        return q_off + (i * slots + slot) * N * n_w

    def beta_group(i, slot):
        return beta_off + (i * slots + slot) * N

    er, ec, ed, b_eq = [], [], [], []
    row = 0
    for i in range(v):
        for out_row in range(n_y):
            for slot in range(slots):
                base = q_group(i, slot)
                for j in range(N):
                    for k in range(n_w):
                        c = float(coeff[slot][out_row, k])
                        if c != 0.0:
                            er.append(row)
                            ec.append(base + j * n_w + k)
                            ed.append(c)
            er.append(row)
            ec.append(b_off + i * n_y + out_row)
            ed.append(1.0)
            b_eq.append(float(vertices[i, out_row]))
            row += 1
    for i in range(v):
        for slot in range(slots):
            base = beta_group(i, slot)
            for j in range(N):
                er.append(row)
                ec.append(base + j)
                ed.append(1.0)
            b_eq.append(1.0)
            row += 1
    a_eq = sp.csr_matrix((ed, (er, ec)), shape=(row, width))

    ur, uc, ud, b_ub = [], [], [], []
    row = 0
    for i in range(v):
        for slot in range(slots):
            row = _perspective_rows(ur, uc, ud, b_ub, row, q_group(i, slot), beta_group(i, slot), W, n_w)
    for i in range(v):
        for hrow in range(n_b):
            for col in range(n_y):
                if H[hrow, col] != 0.0:
                    ur.append(row)
                    uc.append(b_off + i * n_y + col)
                    ud.append(float(H[hrow, col]))
            ur.append(row)
            uc.append(eps_off + hrow)
            ud.append(-1.0)
            b_ub.append(0.0)
            row += 1
    a_ub = sp.csr_matrix((ud, (ur, uc)), shape=(row, width))

    c = np.zeros(width)
    c[eps_off:] = 1.0
    lb = np.full(width, -np.inf)
    lb[beta_off:b_off] = 0.0
    lb[eps_off:] = 0.0
    out = solve_lp(LpProblem(c, a_ub, np.array(b_ub), a_eq, np.array(b_eq), lb=lb))
    if not out.optimal:
        raise RuntimeError(f"coverage LP ended with status {out.status}")
    return out.x[eps_off:].copy(), float(out.objective)


def verify_coverage(
    sys: LtiSystem,
    Y_vertices: np.ndarray,
    W: BoxHullSet,
    horizon: int,
    H: np.ndarray,
    epsilon: np.ndarray,
    tol: float = 1e-8,
) -> Certificate:
    """Per-vertex reachability within the claimed deviation widths.

    For each vertex the LP minimizes the uniform inflation t needed on top
    of the claimed widths; the vertex passes when t <= tol and the margin
    reported is -t.  The vertex LPs differ only in the right-hand side of
    the output rows, so the program is built once and each vertex's solve
    starts from the previous vertex's optimal basis.
    """
    vertices = np.atleast_2d(np.asarray(Y_vertices, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    epsilon = np.asarray(epsilon, dtype=float)
    v, n_y = vertices.shape
    n_w, N = W.dim, W.n_boxes
    slots = horizon + 1
    coeff = _reach_coefficients(sys, horizon)
    dim_q = slots * N * n_w
    dim_beta = slots * N
    b_off = dim_q + dim_beta
    t_col = b_off + n_y
    width = t_col + 1

    er, ec, ed = [], [], []
    row = 0
    for out_row in range(n_y):
        for slot in range(slots):
            for j in range(N):
                for k in range(n_w):
                    c = float(coeff[slot][out_row, k])
                    if c != 0.0:
                        er.append(row)
                        ec.append((slot * N + j) * n_w + k)
                        ed.append(c)
        er.append(row)
        ec.append(b_off + out_row)
        ed.append(1.0)
        row += 1
    for slot in range(slots):
        for j in range(N):
            er.append(row)
            ec.append(dim_q + slot * N + j)
            ed.append(1.0)
        row += 1
    a_eq = sp.csr_matrix((ed, (er, ec)), shape=(row, width))

    ur, uc, ud, b_ub = [], [], [], []
    row = 0
    for slot in range(slots):
        row = _perspective_rows(ur, uc, ud, b_ub, row, (slot * N) * n_w, dim_q + slot * N, W, n_w)
    for hrow in range(H.shape[0]):
        for col in range(n_y):
            if H[hrow, col] != 0.0:
                ur.append(row)
                uc.append(b_off + col)
                ud.append(float(H[hrow, col]))
        ur.append(row)
        uc.append(t_col)
        ud.append(-1.0)
        b_ub.append(float(epsilon[hrow]))
        row += 1
    a_ub = sp.csr_matrix((ud, (ur, uc)), shape=(row, width))
    b_ub = np.array(b_ub)

    c = np.zeros(width)
    c[t_col] = 1.0
    lb = np.full(width, -np.inf)
    lb[dim_q:b_off] = 0.0
    checks = []
    basis = None
    for i in range(v):
        b_eq = np.concatenate((vertices[i], np.ones(slots)))
        out = solve_lp(LpProblem(c, a_ub, b_ub, a_eq, b_eq, lb=lb), basis=basis)
        if not out.optimal:
            raise RuntimeError(f"vertex {i} coverage LP ended with status {out.status}")
        basis = out.basis
        t_star = float(out.objective)
        checks.append(CheckResult(f"vertex-{i}", t_star <= tol, -t_star, f"vertex {i}"))
    return Certificate(tuple(checks))


@dataclass(frozen=True)
class MonteCarloReport:
    violations: int
    max_excursion: float
    steps: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def monte_carlo(
    sys: LtiSystem,
    W: BoxHullSet,
    Y: HPolytope,
    T: int,
    runs: int,
    rng: np.random.Generator,
    tol: float = 1e-8,
) -> MonteCarloReport:
    """Count constraint violations along simulated trajectories from the origin.

    Each run draws its own T-step sequence in turn, so the samples are those
    of ``runs`` successive ``simulate`` calls; all runs then step together
    and each step's excess is folded into the totals at once, so no
    trajectory is stored.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if W.dim != sys.n_w:
        raise GeometryError("disturbance dimension mismatch")
    w_seq = np.stack([sample_batch(W, T, rng) for _ in range(runs)])
    violations = 0
    worst = 0.0
    for _, y in rollout(sys, np.zeros((runs, sys.n_x)), w_seq):
        excess = (y @ Y.G.T - Y.g).max(axis=1)
        worst = max(worst, float(excess.max()))
        violations += int(np.count_nonzero(excess > tol))
    return MonteCarloReport(violations, max(0.0, worst), T * runs)
