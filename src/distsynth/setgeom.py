"""Dense polytope and box primitives with support-function calculus.

The disturbance sets handled throughout the package are convex hulls of
axis-aligned boxes.  Support functions over such hulls have the closed form

    h(p) = max_j ( p'T c_j + |p'T| e_j )

over the member boxes (c_j, e_j), so inclusion certificates never need an
explicit halfspace description of the hull.  Besides the sets and their
support functions, the module holds the chain of products M_(t-1) A that
every horizon stack of the synthesizer is formed by (``power_chain``), the
slot maps of a system (``reach_coefficients``), which the encoder's reach
rows and the verifier's coverage checks share, with the point coordinates an
exactly zero slot map leaves dead (``dead_points``, ``blend_dead_points``),
the split of a blended point into one point per box (``box_points``),
sampling and simulation, and vertex enumeration.  It builds no linear program.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace
from itertools import combinations, product

import numpy as np

from .lp_solver import solve_lp  # noqa: F401  perfbench/tracer.py wraps it; drop with ROADMAP item Y


def fields_equal(a, b):
    """Value equality of dataclasses whose fields are arrays or scalars: the
    same type and every field ``np.array_equal``."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _freeze(a, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


class GeometryError(ValueError):
    """Raised for empty/unbounded polytopes and dimension mismatches."""


@dataclass(frozen=True, eq=False)
class BoxHullSet:
    """Convex hull of N axis-aligned boxes {c_j + d : -e_j <= d <= e_j} of a
    common dimension, the disturbance set: centers c_j and halfwidths e_j are
    the rows of two (N, dim) arrays."""

    centers: np.ndarray
    halfwidths: np.ndarray

    def __post_init__(self):
        c, e = _freeze(self.centers), _freeze(self.halfwidths)
        if c.ndim != 2 or c.shape != e.shape:
            raise GeometryError("centers and halfwidths must be (boxes, dimension) arrays of one shape")
        if 0 in c.shape:
            raise GeometryError("at least one box of dimension at least 1 is required")
        if np.any(e < 0):
            raise GeometryError("halfwidth must be nonnegative")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "halfwidths", e)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def n_boxes(self) -> int:
        return self.centers.shape[0]

    def corners(self) -> np.ndarray:
        """All 2^dim corners of every box, box by box, one per row."""
        signs = np.array(list(product((-1.0, 1.0), repeat=self.dim)))
        return (self.centers[:, None] + signs * self.halfwidths[:, None]).reshape(-1, self.dim)

    __eq__ = fields_equal


@dataclass(frozen=True, eq=False)
class HPolytope:
    """Halfspace set {y : G y <= g}."""

    G: np.ndarray
    g: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self):
        G = _freeze(np.atleast_2d(self.G))
        g = _freeze(self.g)
        if g.ndim != 1 or G.shape[0] != g.size:
            raise GeometryError("G and g row counts differ")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "g", g)

    @property
    def dim(self) -> int:
        return self.G.shape[1]

    @property
    def n_rows(self) -> int:
        return self.G.shape[0]

    def contains(self, points) -> np.ndarray:
        """Per row of ``points`` (or for one point): G v <= g + _VERTEX_TOL,
        the rule a vertex of the set meets."""
        return np.all((self.G @ np.transpose(points)).T <= self.g + _VERTEX_TOL, axis=-1)


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """x+ = A x + B w,  y = C x + D w with a strictly stable A."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self):
        A = _freeze(np.atleast_2d(self.A))
        B = _freeze(np.atleast_2d(self.B))
        C = _freeze(np.atleast_2d(self.C))
        D = _freeze(np.atleast_2d(self.D))
        n_x = A.shape[0]
        if A.shape != (n_x, n_x):
            raise GeometryError("A must be square")
        if B.shape[0] != n_x:
            raise GeometryError("B row count must match A")
        if C.shape[1] != n_x:
            raise GeometryError("C column count must match A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise GeometryError("D must be n_y x n_w")
        if 0 in D.shape or n_x == 0:
            raise GeometryError("the system needs at least one state, one input and one output")
        rho = spectral_radius(A)
        if rho >= 1.0:
            raise GeometryError(f"A must be strictly stable, got spectral radius {rho:.6g}")
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, mat)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_w(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


def spectral_radius(A) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float)))))


def stacked_identity(n: int) -> np.ndarray:
    """[I; -I], the outward normals of the unit infinity-norm ball."""
    return np.vstack([np.eye(n), -np.eye(n)])


# ---------------------------------------------------------------------------
# support functions


def _box_supports(T, M, W: BoxHullSet):
    """(R, V): the directions R = M T and V[k, j], the support of box j along row k of R."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != T.shape[0]:
        raise GeometryError("M columns must match T rows")
    if T.shape[1] != W.dim:
        raise GeometryError("T columns must match set dimension")
    R = M @ T
    return R, R @ W.centers.T + np.abs(R) @ W.halfwidths.T


def support_rows(T, M, W: BoxHullSet) -> np.ndarray:
    """Support of T*W along each row of M: the maximum over member boxes."""
    return _box_supports(T, M, W)[1].max(axis=1)


def support_corners(T, M, W: BoxHullSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(upper, j, points): per row k of the directions R = M T, the first
    member box j[k] whose support along it is support_rows(T, M, W)[k] and
    its corner c + e where R >= 0 (``upper``), c - e elsewhere: a point of W
    whose image under T attains that support."""
    R, V = _box_supports(T, M, W)
    j, upper = np.argmax(V, axis=1), R >= 0.0
    return upper, j, W.centers[j] + np.where(upper, W.halfwidths[j], -W.halfwidths[j])


# ---------------------------------------------------------------------------
# slot maps and blended boxes


def power_chain(first: np.ndarray, A: np.ndarray, count: int) -> np.ndarray:
    """(count, *first.shape): M_0 = first and M_t = M_(t-1) @ A, one product
    per term in t order, each written into its place in the stack; count >= 1."""
    out = np.empty((step_count(count, "count"),) + np.shape(first))
    out[0] = first
    for prev, term in zip(out, out[1:]):
        np.matmul(prev, A, out=term)
    return out


def _powers(A: np.ndarray, count: int) -> np.ndarray:
    """(count, n, n): A^0 .. A^(count-1), count >= 1, by repeated products."""
    return power_chain(np.eye(len(A)), A, count)


def reach_coefficients(sys: LtiSystem, l: int) -> np.ndarray:
    """(l + 1, n_y, n_w) maps of the slots: C A^(l-1-t) B for slot t < l, then
    D, l >= 1.  The slots t < l are one stacked product C @ A^k @ B over the
    powers of ``_powers``, each slot (C @ A^k) @ B."""
    out = np.empty((step_count(l, "horizon l") + 1, sys.n_y, sys.n_w))
    out[:l] = sys.C @ _powers(sys.A, l)[::-1] @ sys.B
    out[l] = sys.D
    return out


def dead_points(coeff: np.ndarray, n: int) -> np.ndarray:
    """(n (l + 1), n_w) mask, by group (vertex, slot t) of n vertices: the
    point coordinates k that enter no reach row, those whose slot map column
    ``coeff[t][:, k]`` is exactly zero."""
    return np.tile(~coeff.any(axis=1), (n, 1))


def blend_dead_points(points, weights, centers, dead) -> None:
    """Set each coordinate of ``points`` (groups, n_w) that the mask ``dead``
    marks to its group's blended center sum_j beta_gj c_j, in place: a point
    there keeps its two membership rows for any boxes."""
    np.copyto(points, weights @ centers, where=dead)


def box_points(centers, halfwidths, weights, w) -> np.ndarray:
    """Points wbar_gj = c_j + e_j t_g, (groups, N, n_w), with sum_j beta_gj
    wbar_gj = w_g for one row beta_g of ``weights`` and w_g of ``w`` per group:
    t_g = clip((w_g - sum beta c) / sum beta e, -1, 1), 0 where sum beta e
    vanishes, so every point lies in its own box."""
    center_g, half_g = weights @ centers, weights @ halfwidths
    offset = w - center_g
    t = np.divide(offset, half_g, out=np.zeros_like(offset), where=half_g > 0.0)
    t = np.clip(t, -1.0, 1.0)
    return centers + halfwidths * t[:, None, :]


# ---------------------------------------------------------------------------
# sampling and simulation


def sample_batch(W: BoxHullSet, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` points of W at once, (count, dim): per point,
    simplex-uniform box weights and one uniform point of each box, blended.

    ``count`` is a count (``step_count``), checked before any draw.  The
    weights are N standard exponentials per point over their sum, the box
    columns added in box order; the box points are c_j + e_j (2 r - 1) for
    N dim uniforms r per point, over the flat (count, N dim) draws; each
    coordinate is blended box by box, in box order.  These are the draws of
    ``exponential()`` and ``uniform(-1, 1)`` in the same order, and the
    points of their ``einsum`` blend wherever numpy adds in box order: hulls
    of at most 7 boxes of dimension 2 or more, or 2 boxes of dimension 1.
    Elsewhere (numpy's row sum is pairwise from 8 boxes, its ``einsum``
    reorders from 3 boxes in dimension 1) both round one sum of N terms, in
    two orders, so they differ by at most 2 N eps (max|c| + max e); the
    most seen is 2.1 eps (max|c| + max e).
    """
    count = step_count(count, "count")
    N, dim = W.centers.shape
    e = rng.standard_exponential((count, N))
    total = e[:, 0].copy()
    for j in range(1, N):
        total += e[:, j]
    u = rng.random((count, N * dim))
    u *= 2.0  # uniform(-1, 1) forms -1 + 2 r, the same double as 2 r - 1
    u -= 1.0
    u *= W.halfwidths.ravel()
    u += W.centers.ravel()
    out = np.zeros((count, dim))
    for j in range(N):
        beta = e[:, j] / total
        for k in range(dim):
            out[:, k] += beta * u[:, j * dim + k]
    return out


def step_count(value, name: str) -> int:
    """``value`` as a Python int of at least 1, or ValueError: a bool, a
    float or anything else without ``__index__`` is no count."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError(f"{name} must be at least 1")
    return n


_ROLLOUT_BLOCK = 32  # steps per block of ``rollout``'s state recursion


def _block_maps(sys: LtiSystem, K: int):
    """(A^K, E, Psi, Omega) of K steps.  x(K) = A^K x(0) + E w with
    w = [w(0); ..; w(K-1)] and E = [A^(K-1) B .. B]; y(j) for j < K is the
    row block j of Psi x(0) + Omega w, with Psi (K n_y, n_x) stacking C A^j
    and Omega (K n_y, K n_w) block lower triangular Toeplitz: D on the
    diagonal, C A^(j-1-i) B below it and 0 above."""
    n_x, n_w, n_y = sys.n_x, sys.n_w, sys.n_y
    powers = _powers(sys.A, K + 1)
    drive = powers[:K] @ sys.B
    psi = sys.C @ powers[:K]
    lag = np.subtract.outer(np.arange(K), np.arange(K)) - 1
    blocks = np.where((lag >= 0)[:, :, None, None], (psi @ sys.B)[np.maximum(lag, 0)], 0.0)
    blocks[np.arange(K), np.arange(K)] = sys.D
    return (
        powers[K],
        drive[::-1].transpose(1, 0, 2).reshape(n_x, K * n_w),
        psi.reshape(K * n_y, n_x),
        blocks.transpose(0, 2, 1, 3).reshape(K * n_y, K * n_w),
    )


def rollout(sys: LtiSystem, x0: np.ndarray, w_seq: np.ndarray):
    """Outputs y = C x + D w of x+ = A x + B w for a batch of runs.

    x0 holds one initial state per run, (runs, n_x); w_seq holds each run's
    disturbance sequence, (runs, T, n_w).  Yields each run's outputs
    y(0..T-1) in turn as a (T, n_y) array, so a caller holds one run's
    outputs at a time.  Only the states at the start of each block of
    _ROLLOUT_BLOCK steps are stepped, for all runs together:
    x_(b+1) = A^K x_b + E w_b, each block's drive E w_b taken for every run
    in one product beforehand.  A run's outputs are then one product
    x_b Psi' + w_b Omega' over its blocks (the maps of ``_block_maps``); a
    shorter last block takes their leading rows and columns.
    """
    runs, T, n_w = w_seq.shape
    n_y = sys.n_y
    K = max(1, min(_ROLLOUT_BLOCK, T))
    full, k = divmod(T, K)
    power, drive_map, psi, omega = _block_maps(sys, K)
    blocked = w_seq[:, : full * K].reshape(runs, full, K * n_w)
    drive = blocked @ drive_map.T
    starts = np.empty((runs, full + (k > 0), sys.n_x))
    starts[:, 0] = x0
    for b in range(1, starts.shape[1]):
        starts[:, b] = starts[:, b - 1] @ power.T + drive[:, b - 1]
    if k:
        tail_w = w_seq[:, full * K :].reshape(runs, k * n_w)
        tail = starts[:, full] @ psi[: k * n_y].T + tail_w @ omega[: k * n_y, : k * n_w].T
    for r in range(runs):
        y = np.empty((T, n_y))
        y[: full * K] = (starts[r, :full] @ psi.T + blocked[r] @ omega.T).reshape(full * K, n_y)
        if k:
            y[full * K :] = tail[r].reshape(k, n_y)
        yield y


def simulate(sys: LtiSystem, W: BoxHullSet, x0, T: int, rng: np.random.Generator):
    """Simulate T steps driven by independent draws from W.

    Returns (X, Y, Wseq): state, output and disturbance trajectories with
    rows t = 0..T-1, where x(t+1) = A x(t) + B w(t) and y(t) = C x(t) + D w(t).
    Wseq is one ``sample_batch`` of T points.  X and Y are the outputs of one
    ``rollout`` of the stacked map [I; C], [0; D], so X[0] is x0 exactly.
    """
    T = step_count(T, "T")
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != sys.n_x:
        raise GeometryError("x0 dimension mismatch")
    if W.dim != sys.n_w:
        raise GeometryError("disturbance dimension mismatch")
    w_seq = sample_batch(W, T, rng)
    stacked = replace(
        sys, C=np.vstack([np.eye(sys.n_x), sys.C]), D=np.vstack([np.zeros((sys.n_x, sys.n_w)), sys.D])
    )
    (XY,) = rollout(stacked, x0[None], w_seq[None])
    return XY[:, : sys.n_x], XY[:, sys.n_x :], w_seq


# ---------------------------------------------------------------------------
# vertex enumeration and 2-D hull outlines

_MAX_ROWS = 30
_MAX_DIM = 4
_VERTEX_TOL = 1e-9  # slack a candidate intersection may have on G y <= g
_VERTEX_MERGE_TOL = 1e-7  # points closer than this are one vertex


def merge_vertices(points) -> np.ndarray:
    """The rows of ``points`` in order, less each row within _VERTEX_MERGE_TOL
    of a row kept before it: the one rule for when two vertices are one."""
    keep: list[np.ndarray] = []
    for y in np.atleast_2d(np.asarray(points, dtype=float)):
        if all(np.linalg.norm(y - v) > _VERTEX_MERGE_TOL for v in keep):
            keep.append(y)
    return np.array(keep)


def _subsets(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m), one per row, in ``combinations`` order."""
    return np.array(list(combinations(range(m), k)), dtype=int)


def vertices_hpoly(P: HPolytope) -> np.ndarray:
    """Enumerate vertices of a bounded polytope by row-subset intersection.

    Practical for small descriptions only (up to 30 rows in dimension 4);
    larger instances should supply their vertex lists directly.  Every subset
    of n rows is stacked into one array; those of rank n (all singular values
    above 1e-10) are solved at once, and their intersections are kept when
    ``P.contains`` them and merged by ``merge_vertices``.  Rows are returned
    in lexicographic order.

    A set with no vertex (empty, or containing a line) is rejected.  One with
    a vertex is unbounded iff its recession cone {d : G d <= 0} has an
    extreme ray, and every extreme ray is tight on n - 1 independent rows: so
    each subset of n - 1 rows of rank n - 1 (``scipy.linalg.null_space``'s
    rule, singular values above eps n s_max) spans one direction d, the last
    right singular vector, and the set is rejected as unbounded when
    G d <= _VERTEX_TOL or G (-d) <= _VERTEX_TOL.
    """
    m, n = P.G.shape
    if m > _MAX_ROWS or n > _MAX_DIM:
        raise GeometryError(
            f"enumeration limited to {_MAX_ROWS} rows and dimension {_MAX_DIM}; supply vertices"
        )
    if m < n + 1:
        raise GeometryError("a bounded nonempty polytope needs at least n+1 rows")
    idx = _subsets(m, n)
    subs = P.G[idx]
    full = np.all(np.linalg.svd(subs, compute_uv=False) > 1e-10, axis=1)
    y = np.linalg.solve(subs[full], P.g[idx[full]][:, :, None])[:, :, 0]
    found = y[P.contains(y)]
    if not len(found):
        raise GeometryError("no vertices found; polytope may be empty or degenerate")
    _, s, vh = np.linalg.svd(P.G[_subsets(m, n - 1)], full_matrices=True)
    rank = np.count_nonzero(s > np.finfo(float).eps * n * s.max(axis=1, initial=0.0, keepdims=True), axis=1)
    Gd = vh[rank == n - 1, -1] @ P.G.T
    if np.any(np.all(Gd <= _VERTEX_TOL, axis=1) | np.all(Gd >= -_VERTEX_TOL, axis=1)):
        raise GeometryError("polytope is unbounded")
    V = merge_vertices(found)
    return V[np.lexsort(V.T[::-1])]


def _monotone_chain(points: np.ndarray) -> np.ndarray:
    pts = np.unique(np.round(points, 12), axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def hull_outline(W: BoxHullSet) -> np.ndarray:
    """Counterclockwise boundary vertices of a planar hull of boxes."""
    if W.dim != 2:
        raise GeometryError("outline is defined for dimension 2 only")
    return _monotone_chain(W.corners())
