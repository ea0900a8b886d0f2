"""Independent certification of synthesized disturbance sets.

Checks are closed-form support-function evaluations, and coverage is checked
by arithmetic on a witness: per vertex of Y and slot, box weights beta and a
blended point p of the box sum_j beta_j box_j (``CoverageWitness``).  The
weights are clipped to >= 0 and normalized, p is split into one point per box
by ``setgeom.box_points`` (which clips each into its own box), so every slot's
point w_t = sum_j beta_j p_j lies in W whatever the witness holds; the
deviation b = y - sum_t coeff_t w_t is formed with the slot maps of
``setgeom.reach_coefficients``, and the vertex passes when
min(eps - H b) >= -CHECK_TOL.  The horizon constants, the output-inclusion
terms and this arithmetic are the verifier's own, kept apart from the
synthesizer's.
Witnesses come from the reach program, an exact LP over the points of a
fixed W, which this module alone builds (``_reach_lp``), solves and reads
(``_reach_witness``), so no other module knows its column order.
``distance_witness`` solves it jointly over every vertex for the exact
distance and returns its optimal point as the witness, so ``synth`` certifies
without a coverage LP and ``verify`` re-proves a stored witness without any.
A document without a witness gets one from a single program over all
vertices that minimizes the sum of per-vertex inflations of the widths; it is
separable by vertex, so each vertex's part is its own least inflation, and
the answer is checked by the same arithmetic.  Both programs run primal
simplex from a feasible basis of support points of W (``_reach_start``)
along one output direction per vertex: v - ȳ for the distance, and for
coverage whichever of v - ȳ and the rows of H leaves the least inflation at
the stored widths (``_least_inflation_directions``).  That leaves tens of
pivots where a cold start takes about one per row.
Passing vertex checks bound the exact coverage distance by
sum(epsilon), and the objective-bound check carries that bound to the stored
objective.  ``certify`` runs every check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp_solver import (
    BASIC, LOWER, UPPER, Coo, LpFailure, LpProblem, csr, delete_columns, kron, solve_lp, stack, start_basis,
)
from .rpi_params import RpiConstants, RpiParams
from .setgeom import (
    BoxHullSet,
    GeometryError,
    HPolytope,
    LtiSystem,
    blend_dead_points,
    box_points,
    dead_points,
    fields_equal,
    reach_coefficients,
    rollout,
    sample_batch,
    simulate,  # noqa: F401  perfbench/tracer.py wraps it; drop with ROADMAP item Y
    step_count,
    stacked_identity,
    support_corners,
    support_rows,
)


# a scalar parameter inequality passes within PARAM_TOL; every other check
# (support slacks, vertex inflation, objective bound, Monte-Carlo excess)
# within CHECK_TOL
PARAM_TOL = 1e-9
CHECK_TOL = 1e-8


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


def _binary_powers(A: np.ndarray, s: int) -> np.ndarray:
    """(s + 1, n, n): A^0 .. A^s, each the product ``np.linalg.matrix_power``
    forms.  A^(2^k) is squared once per bit of s and multiplied, in one stacked
    matmul, into every power that has bit k set above its lowest; a power
    starts as the A^(2^k) of its lowest bit, and A^3 is (A A) A."""
    n = len(A)
    powers = np.empty((s + 1, n, n))
    powers[0] = np.eye(n)
    t = np.arange(s + 1)
    started = np.zeros(s + 1, dtype=bool)
    z = A
    for k in range(s.bit_length()):
        if k:
            z = z @ z
        bit = (t >> k) & 1 == 1
        grow = bit & started
        powers[grow] = powers[grow] @ z
        powers[bit & ~started] = z
        started |= bit
    if s >= 3:
        powers[3] = powers[2] @ A
    return powers


def _horizon_constants(sys: LtiSystem, Y: HPolytope, s: int) -> RpiConstants:
    """The constants of rpi_params at horizon s, by a route that shares no code
    with its generator ``horizon_constants``: every power A^t is taken afresh by
    binary powering (``_binary_powers``) and the horizon sums are formed over the
    whole stack."""
    stack = _binary_powers(sys.A, s)
    powers = stack[:s]
    L = np.abs(Y.G @ sys.C @ powers).sum(axis=(0, 2))
    active = L > 0
    theta = float(np.min(Y.g[active] / L[active])) if active.any() else np.inf
    M = float(np.abs(powers).sum(axis=(0, 2)).max())
    zeta = float(np.abs(stack[s]).sum(axis=1).max())
    return RpiConstants(s=s, L_s=L, theta_s=theta, M_s=M, zeta_s=zeta)


def verify_params(sys: LtiSystem, Y: HPolytope, params: RpiParams) -> Certificate:
    """Re-derive the horizon constants and check the three scalar inequalities."""
    consts = _horizon_constants(sys, Y, params.s)
    a, lam, g, mu = params.alpha, params.lam, params.gamma, params.mu
    checks = (
        CheckResult("alpha-range", 0.0 <= a < 1.0, min(a, 1.0 - a)),
        CheckResult("lambda-range", 0.0 <= lam <= 1.0, min(lam, 1.0 - lam)),
        CheckResult(
            "constraint-margin",
            bool((1.0 - a) * consts.theta_s - lam >= -PARAM_TOL),
            float((1.0 - a) * consts.theta_s - lam),
            f"s={params.s}",
        ),
        CheckResult(
            "contraction",
            bool(a * lam - (g + lam) * consts.zeta_s >= -PARAM_TOL),
            float(a * lam - (g + lam) * consts.zeta_s),
            f"zeta={consts.zeta_s:.3e}",
        ),
        CheckResult(
            "approximation-error",
            bool((1.0 - a) * mu - (a * g + lam) * consts.M_s >= -PARAM_TOL),
            float((1.0 - a) * mu - (a * g + lam) * consts.M_s),
            f"M={consts.M_s:.6g}",
        ),
    )
    return Certificate(checks)


def verify_output_inclusion(sys: LtiSystem, Y: HPolytope, params: RpiParams, W: BoxHullSet) -> Certificate:
    """Row-wise support check that the reachable-output bound stays in Y.

    The maps M_t = G C A^t / (1 - alpha), t < s, each formed as M_(t-1) A,
    are stacked into one array and take their supports over B W in one
    ``support_rows`` call; the terms are summed in t order."""
    if Y.dim != sys.n_y:
        raise GeometryError("output dimension mismatch")
    s = params.s
    maps = np.empty((s, Y.n_rows, sys.n_x))
    maps[0] = (1.0 / (1.0 - params.alpha)) * (Y.G @ sys.C)
    for t in range(1, s):
        maps[t] = maps[t - 1] @ sys.A
    terms = support_rows(sys.B, maps.reshape(-1, sys.n_x), W).reshape(s, Y.n_rows)
    lhs = terms.sum(axis=0) + support_rows(sys.D, Y.G, W)
    tail = np.abs(maps).sum(axis=2).sum(axis=0)
    slack = Y.g - params.lam * tail - lhs
    i = int(np.argmin(slack))
    check = CheckResult("output-inclusion", bool(slack[i] >= -CHECK_TOL), float(slack[i]), f"row {i}")
    return Certificate((check,))


def verify_gamma(sys: LtiSystem, W: BoxHullSet, gamma: float) -> Certificate:
    """Support check that B W fits in the gamma cube."""
    vals = support_rows(sys.B, stacked_identity(sys.n_x), W)
    slack = gamma - vals
    i = int(np.argmin(slack))
    check = CheckResult("input-bound", bool(slack[i] >= -CHECK_TOL), float(slack[i]), f"row {i}")
    return Certificate((check,))


@dataclass(frozen=True, eq=False)
class CoverageWitness:
    """A point of the coverage program for every vertex of Y and slot: the box
    weights ``weights`` (n_v, l + 1, N) and the blended point ``points``
    (n_v, l + 1, n_w), slots ordered as ``reach_coefficients`` orders them."""

    weights: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        weights, points = np.array(self.weights, dtype=float), np.array(self.points, dtype=float)
        if weights.ndim != 3 or points.ndim != 3 or weights.shape[:2] != points.shape[:2]:
            raise ValueError("witness weights and points must be 3-D arrays over the same (vertex, slot) pairs")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "points", points)

    __eq__ = fields_equal


def _coverage_margins(coeff, vertices, W: BoxHullSet, H: np.ndarray, epsilon, witness: CoverageWitness) -> np.ndarray:
    """min(eps - H b) per vertex, at the points of W the witness names.

    Each group's weights are clipped to >= 0 and normalized (a group whose
    clipped weights sum to 0 makes its vertex -inf), its blended point is split
    into one point per box by ``box_points``, which clips each into its box,
    and the slot's point is their weighted sum; b is the vertex less the reach
    of the slots' points under ``coeff``.
    """
    n, slots, N = witness.weights.shape
    if (n, slots, N) != (len(vertices), len(coeff), W.n_boxes) or witness.points.shape[2] != W.dim:
        raise GeometryError("witness does not fit the vertices, the horizon and W")
    beta = np.clip(witness.weights, 0.0, None).reshape(-1, N)
    total = beta.sum(axis=1, keepdims=True)
    beta = np.divide(beta, total, out=np.zeros_like(beta), where=total > 0.0)
    points = box_points(W.centers, W.halfwidths, beta, witness.points.reshape(-1, W.dim))
    w = np.einsum("gj,gjk->gk", beta, points).reshape(n, slots, W.dim)
    b = vertices - np.einsum("tyk,vtk->vy", coeff, w)
    margins = (epsilon - b @ H.T).min(axis=1)
    margins[(total.reshape(n, slots) <= 0.0).any(axis=1)] = -np.inf
    return margins


def _reach_lp(
    coeff: np.ndarray, vertices: np.ndarray, W: BoxHullSet, H: np.ndarray, slack, slack_lb, h_rhs, dead
) -> LpProblem:
    """Reach program for every row of ``vertices`` at once, at the cost of the
    caller's slack columns, which come last.

    ``coeff`` stacks one (n_y, n_w) map per slot.  Each vertex copy has one
    point p per slot, the box weights beta >= 0 (slot, box) and the output
    deviation b.  Its rows are the membership rows S p - (S C' + |S| E') beta
    <= 0 per slot (S = [I; -I], box centers C and halfwidths E by row),
    H b + slack <= h_rhs, where ``slack`` (triplets or a dense array) has one
    row per (vertex, row of H) and its columns are bounded below by
    ``slack_lb``, then the reach
    equalities sum_t coeff_t p_t + b = y and one simplex row sum_j beta_j = 1
    per slot.
    It is exact: sum_j beta_j box(c_j, e_j) is the box (sum beta c, sum beta e),
    and W is the union of these blended boxes over the simplex.  A point
    coordinate that enters no reach row, as the mask ``dead`` marks
    (``dead_points``), is left out with its two membership rows, which its
    blended center sum_j beta_j c_j keeps for any weights; the rest keep their
    order.
    """
    n, n_y = vertices.shape
    N, n_w = W.n_boxes, W.dim
    groups = n * coeff.shape[0]
    n_p, n_beta, n_b, n_live = groups * n_w, groups * N, n * n_y, np.count_nonzero(~dead)
    S = stacked_identity(n_w)
    blended = -(S @ W.centers.T + np.abs(S) @ W.halfwidths.T)
    m = slack.shape[1]
    # the zeros of the dense factors, and of a dense slack, are left out, not stored
    grid = [
        [kron(groups, S), kron(groups, blended), None, None],
        [None, None, kron(n, H), slack],
        [kron(n, np.hstack(coeff)), None, kron(1, n_b), None],
        [None, kron(groups, np.ones((1, N))), None, None],
    ]
    # a dead coordinate's column enters only its two membership rows, so only they go with it
    cols = np.concatenate((dead.ravel(), np.zeros(n_beta + n_b + m, bool)))
    a, _ = delete_columns(stack(grid, [n_p, n_beta, n_b, m]), cols)
    c = np.concatenate((np.zeros(n_live + n_beta + n_b), np.ones(m)))
    lb = np.concatenate((np.full(n_live, -np.inf), np.zeros(n_beta), np.full(n_b, -np.inf), np.full(m, slack_lb)))
    b = np.concatenate((np.zeros(2 * n_live), h_rhs, vertices.ravel(), np.ones(groups)))
    return LpProblem(c, csr(a), b, n_b + groups, lb)


def _support_points(coeff, directions, W: BoxHullSet):
    """Per row d of ``directions`` (m, n_y) and slot t, the support point of W
    along coeff_tᵀ d (``support_corners``).  Returns its side (m, l + 1,
    n_w), the boxes (m, l + 1) and the points (m, l + 1, n_w)."""
    m, slots, n_w = len(directions), len(coeff), W.dim
    direction = np.einsum("tyk,vy->vtk", coeff, directions).reshape(m * slots, n_w)
    upper, box, points = support_corners(np.eye(n_w), direction, W)
    return upper.reshape(m, slots, n_w), box.reshape(m, slots), points.reshape(m, slots, n_w)


def _least_inflation_directions(coeff, vertices, W: BoxHullSet, H: np.ndarray, epsilon) -> np.ndarray:
    """Per vertex v, the one of v - ȳ (ȳ the mean vertex) and the rows of H
    whose support points (``_support_points``) leave the smallest inflation
    max_k(H_k b - eps_k) of the widths, b = v - sum_t coeff_t p_t; the first
    among ties."""
    n, n_y = vertices.shape
    candidates = np.concatenate(
        ((vertices - vertices.mean(axis=0))[:, None], np.broadcast_to(H, (n,) + H.shape)), axis=1
    )
    _, _, points = _support_points(coeff, candidates.reshape(-1, n_y), W)
    reach = np.einsum("tyk,vtk->vy", coeff, points).reshape(candidates.shape)
    inflation = ((vertices[:, None] - reach) @ H.T - epsilon).max(axis=2)
    return candidates[np.arange(n), inflation.argmin(axis=1)]


def _reach_start(coeff, vertices, directions, W: BoxHullSet, H: np.ndarray, slack: Coo, slack_lb, h_rhs, dead):
    """A primal-feasible start basis of ``_reach_lp`` (same arguments, the
    slack as triplets with negative entries, at most one per row), from one
    output-space direction per vertex, ``directions`` (n, n_y).

    Group (vertex v, slot t) takes the support point of W along
    coeff_tᵀ d_v (``_support_points``): that box's weight and the point p
    are basic, the membership row on the corner's side of each coordinate is
    tight and the other basic.  b is basic on the reach equalities, every
    equality row is nonbasic, and each slack column is basic at its largest
    need over its rows, that row tight, unless no row needs more than its
    lower bound, where it stays nonbasic.  Fixing the nonbasic columns and
    rows fixes every basic column, so the basis is nonsingular, and the point
    is feasible for any directions: p is a corner of its box.  The statuses
    of the coordinates and rows ``_reach_lp`` leaves out are left out."""
    n, n_y = vertices.shape
    slots, N, n_w = len(coeff), W.n_boxes, W.dim
    groups = n * slots
    upper, box, points = _support_points(coeff, directions, W)
    upper, box = upper.reshape(groups, n_w), box.ravel()
    reach = vertices - np.einsum("tyk,vtk->vy", coeff, points)
    need = ((reach @ H.T).ravel()[slack.row] - h_rhs[slack.row]) / -slack.val
    # each slack column's entry of largest need, the first of its rows among ties
    order = np.lexsort((-need, slack.col))
    first = order[np.unique(slack.col[order], return_index=True)[1]]
    first = first[need[first] > slack_lb]
    weights = np.full((groups, N), LOWER, np.int8)
    weights[np.arange(groups), box] = BASIC
    slack_status = np.full(slack.shape[1], LOWER, np.int8)
    slack_status[slack.col[first]] = BASIC
    live = ~dead
    point_status = np.full(np.count_nonzero(live), BASIC, np.int8)
    col_status = np.concatenate((point_status, weights.ravel(), np.full(n * n_y, BASIC, np.int8), slack_status))
    membership = np.where(np.hstack((upper, ~upper)), UPPER, BASIC).astype(np.int8)[np.hstack((live, live))]
    h_rows = np.full(slack.shape[0], BASIC, np.int8)
    h_rows[slack.row[first]] = UPPER
    row_status = np.concatenate((membership, h_rows, np.full(n * n_y + groups, LOWER, np.int8)))
    return start_basis(col_status, row_status)


def _reach_witness(coeff, vertices, directions, W: BoxHullSet, H: np.ndarray, slack: Coo, slack_lb, h_rhs, name: str):
    """Solve ``_reach_lp`` over every vertex at the cost of ``slack``, by
    primal simplex from ``_reach_start`` along ``directions`` (W is fixed and
    the answer is re-checked by arithmetic), and return the outcome with the
    points and weights that lead its answer; a point coordinate the program
    leaves out takes its group's blended center sum_j beta_j c_j.  Raises
    LpFailure, which names the program ``name`` and carries it, when the LP
    has no accepted answer."""
    n, slots = len(vertices), len(coeff)
    dead = dead_points(coeff, n)
    lp = _reach_lp(coeff, vertices, W, H, slack, slack_lb, h_rhs, dead)
    out = solve_lp(lp, basis=_reach_start(coeff, vertices, directions, W, H, slack, slack_lb, h_rhs, dead), primal=True)
    if not out.optimal:
        raise LpFailure(f"{name} LP ended with status {out.status}", lp)
    n_p = np.count_nonzero(~dead)
    weights = out.x[n_p : n_p + n * slots * W.n_boxes].reshape(n * slots, W.n_boxes)
    points = np.empty(dead.shape)
    points[~dead] = out.x[:n_p]
    blend_dead_points(points, weights, W.centers, dead)
    return out, CoverageWitness(weights.reshape(n, slots, W.n_boxes), points.reshape(n, slots, W.dim))


def distance_witness(sys: LtiSystem, Y_vertices: np.ndarray, W: BoxHullSet, horizon: int, H: np.ndarray):
    """Exact coverage distance of the horizon-reachable output set for a fixed
    W, with the optimal point that proves it.

    One LP drives the output to a deviation-neighborhood of every vertex,
    with each disturbance point encoded exactly as a point of the blended
    box of its convex weights over the member boxes; the widths eps >= 0 are
    shared by all vertices.  Returns (epsilon, objective, witness); raises
    LpFailure, which carries the program, when the LP has no accepted answer.
    """
    vertices = np.atleast_2d(np.asarray(Y_vertices, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    n_b = H.shape[0]
    slack = kron(-np.ones((len(vertices), 1)), n_b)
    coeff = reach_coefficients(sys, horizon)
    directions = vertices - vertices.mean(axis=0)
    out, witness = _reach_witness(coeff, vertices, directions, W, H, slack, 0.0, np.zeros(slack.shape[0]), "distance")
    return out.x[-n_b:].copy(), float(out.objective), witness


def distance_dY(sys: LtiSystem, Y_vertices: np.ndarray, W: BoxHullSet, horizon: int, H: np.ndarray):
    """(epsilon, objective) of ``distance_witness``."""
    epsilon, objective, _ = distance_witness(sys, Y_vertices, W, horizon, H)
    return epsilon, objective


def verify_coverage(
    sys: LtiSystem, Y_vertices: np.ndarray, W: BoxHullSet, horizon: int, H: np.ndarray, epsilon: np.ndarray,
    witness: CoverageWitness | None = None,
) -> Certificate:
    """Per-vertex reachability within the claimed deviation widths, checked by
    ``_coverage_margins`` on ``witness``; a vertex passes when its margin is at
    least -CHECK_TOL.

    With no witness (a document written before results stored one), one is
    found by one LP over all vertices that minimizes the sum of per-vertex
    inflations t_i of the widths, started from ``_reach_start`` along each
    vertex's ``_least_inflation_directions``.  Its rows and columns are
    block-diagonal by vertex, so each t_i is that vertex's least inflation and
    its margin is -t_i up to the LP's tolerances.
    """
    vertices = np.atleast_2d(np.asarray(Y_vertices, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    coeff = reach_coefficients(sys, horizon)
    if witness is None:
        slack = kron(len(vertices), -np.ones((H.shape[0], 1)))
        directions = _least_inflation_directions(coeff, vertices, W, H, epsilon)
        rhs = np.tile(epsilon, len(vertices))
        _, witness = _reach_witness(coeff, vertices, directions, W, H, slack, -np.inf, rhs, "coverage")
    margins = _coverage_margins(coeff, vertices, W, H, epsilon, witness)
    return Certificate(
        tuple(CheckResult(f"vertex-{i}", bool(m >= -CHECK_TOL), float(m), f"vertex {i}") for i, m in enumerate(margins))
    )


def certify(
    sys: LtiSystem, Y: HPolytope, params: RpiParams, W: BoxHullSet, vertices: np.ndarray, horizon: int,
    H: np.ndarray, epsilon: np.ndarray, objective: float, witness: CoverageWitness | None = None
) -> Certificate:
    """Every certificate of a synthesized set, as ``synth`` stores them and
    ``verify`` re-proves them; coverage is checked on ``witness``, and only
    without one does ``verify_coverage`` solve its coverage LP.

    Passing vertex checks bound the exact coverage distance by sum(epsilon),
    so ``objective-bound`` (objective >= sum(epsilon)) bounds it by the
    claimed objective without solving the joint program.
    """
    checks = (
        verify_params(sys, Y, params).checks
        + verify_gamma(sys, W, params.gamma).checks
        + verify_output_inclusion(sys, Y, params, W).checks
        + verify_coverage(sys, vertices, W, horizon, H, epsilon, witness).checks
    )
    margin = float(objective - np.sum(epsilon))
    return Certificate(checks + (CheckResult("objective-bound", margin >= -CHECK_TOL, margin),))


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
) -> MonteCarloReport:
    """Count constraint violations along simulated trajectories from the origin.

    T and runs are counts (``setgeom.step_count``), checked with the set
    dimensions before any draw.  Each run draws its own T-step sequence in
    turn, so the samples are those of ``runs`` successive ``simulate`` calls,
    written into one (runs, T, n_w) array.  ``sample_batch`` blends them box
    by box in box order: the points of earlier releases bit for bit on
    hulls of at most 7 boxes of dimension 2 or more, and of at most 2 in
    dimension 1 (see there).  ``rollout`` then yields one run's
    outputs at a time, and each run's per-step excess (the largest of
    G y - g) is reduced over the rows of one product of G with its outputs
    and folded into the totals, so at most one run's outputs are held.  A
    step violates when its excess exceeds CHECK_TOL.
    """
    T, runs = step_count(T, "T"), step_count(runs, "runs")
    if W.dim != sys.n_w:
        raise GeometryError("disturbance dimension mismatch")
    if Y.dim != sys.n_y:
        raise GeometryError("output dimension mismatch")
    w_seq = np.empty((runs, T, sys.n_w))
    for r in range(runs):
        w_seq[r] = sample_batch(W, T, rng)
    violations = 0
    worst = 0.0
    for y in rollout(sys, np.zeros((runs, sys.n_x)), w_seq):
        excess = (Y.G @ y.T - Y.g[:, None]).max(axis=0)
        worst = max(worst, float(excess.max()))
        violations += int(np.count_nonzero(excess > CHECK_TOL))
    return MonteCarloReport(violations, max(0.0, worst), T * runs)
