import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.spatial import ConvexHull

from distsynth import cli, lp_solver, setgeom
from distsynth.lp_solver import FAILED, INFEASIBLE, UNBOUNDED, LpFailure, LpOutcome, LpProblem
from distsynth.setgeom import (
    BoxHullSet,
    GeometryError,
    HPolytope,
    LtiSystem,
    hull_outline,
    merge_vertices,
    rollout,
    sample_batch,
    simulate,
    support_corners,
    support_rows,
    vertices_hpoly,
)

from conftest import brute_force_hull_vertices, random_hull, random_stable_system
import reference
from reference import Membership, as_csr, contains_point, reach_reference, vertices_hpoly_loop


def one_box(center, halfwidth) -> BoxHullSet:
    return BoxHullSet([center], [halfwidth])


class TestBoxHullSet:
    @pytest.mark.parametrize(
        "centers, halfwidths",
        [
            ([], []),  # no box
            ([0.0, 0.0], [1.0, 1.0]),  # 1-D
            ([[0.0, 0.0]], [[1.0, 1.0, 1.0]]),  # shapes differ
            ([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0]]),  # box counts differ
            ([[], []], [[], []]),  # dimension 0
            ([[0.0, 0.0]], [[1.0, -1e-12]]),  # negative halfwidth
        ],
        ids=["empty", "1-D", "shape-mismatch", "count-mismatch", "dimension-0", "negative-halfwidth"],
    )
    def test_rejects(self, centers, halfwidths):
        with pytest.raises(GeometryError):
            BoxHullSet(centers, halfwidths)

    def test_arrays_are_frozen_copies(self):
        centers = np.array([[0.0, 1.0], [2.0, 3.0]])
        W = BoxHullSet(centers, np.zeros((2, 2)))
        centers[0, 0] = 9.0
        assert W.centers[0, 0] == 0.0 and (W.n_boxes, W.dim) == (2, 2)
        with pytest.raises(ValueError):
            W.halfwidths[0, 0] = 1.0

    def test_corners_box_by_box(self):
        rng = np.random.default_rng(19)
        for dim in (1, 2, 3):
            W = random_hull(rng, n_w=dim, n_boxes=3)
            corners = W.corners()
            assert corners.shape == (3 * 2**dim, dim)
            np.testing.assert_array_equal(corners, brute_force_hull_vertices(W))

    def test_equality_compares_both_arrays_by_value(self):
        W = BoxHullSet([[0.0, 1.0], [2.0, 3.0]], [[0.5, 0.0], [1.0, 1.0]])
        assert W == BoxHullSet(W.centers.tolist(), W.halfwidths.tolist())
        assert W != BoxHullSet(W.centers, 2.0 * W.halfwidths)  # value
        assert W != BoxHullSet(W.centers[::-1], W.halfwidths)  # box order
        assert W != BoxHullSet(W.centers[:1], W.halfwidths[:1])  # shape: fewer boxes
        assert W != BoxHullSet(np.zeros((2, 3)), np.ones((2, 3)))  # shape: dimension
        assert W != (W.centers, W.halfwidths)


class TestSupportBox:
    """The support of a single box, through the one-row case of support_rows."""

    def test_unit_box_identity(self):
        W = one_box([0.0, 0.0], [1.0, 1.0])
        assert support_rows(np.eye(2), np.atleast_2d([1.0, 0.0]), W)[0] == pytest.approx(1.0)

    def test_singleton(self):
        W = one_box([2.0, 3.0], [0.0, 0.0])
        assert support_rows(np.eye(2), np.atleast_2d([1.0, 1.0]), W)[0] == pytest.approx(5.0)

    def test_matches_corner_maximum(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            T = rng.standard_normal((2, 2))
            p = rng.standard_normal(2)
            W = one_box(rng.uniform(-1, 1, 2), rng.uniform(0, 1, 2))
            expected = max(p @ T @ v for v in brute_force_hull_vertices(W))
            assert support_rows(T, np.atleast_2d(p), W)[0] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            support_rows(np.eye(3), np.atleast_2d([1.0, 0.0]), one_box([0.0, 0.0], [1.0, 1.0]))


class TestSupportHull:
    def test_single_box_degenerate(self):
        rng = np.random.default_rng(0)
        c, e = rng.uniform(-1, 1, 2), rng.uniform(0, 1, 2)
        p = rng.standard_normal(2)
        assert support_rows(np.eye(2), np.atleast_2d(p), one_box(c, e))[0] == pytest.approx(p @ c + np.abs(p) @ e)

    def test_duplicate_boxes_idempotent(self):
        one = one_box([0.5, -0.2], [0.3, 0.1])
        two = BoxHullSet([[0.5, -0.2]] * 2, [[0.3, 0.1]] * 2)
        p = np.array([0.3, -1.2])
        assert support_rows(np.eye(2), np.atleast_2d(p), two)[0] == pytest.approx(
            support_rows(np.eye(2), np.atleast_2d(p), one)[0]
        )

    def test_matches_vertex_maximum(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            W = random_hull(rng, n_boxes=3)
            T = rng.standard_normal((2, 2))
            p = rng.standard_normal(2)
            expected = max(p @ T @ v for v in brute_force_hull_vertices(W))
            assert support_rows(T, np.atleast_2d(p), W)[0] == pytest.approx(expected, abs=1e-8)

    def test_argmax_point_attains_value(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            W = random_hull(rng)
            p = rng.standard_normal(2)
            point = support_corners(np.eye(2), p, W)[2][0]
            assert p @ point == pytest.approx(support_rows(np.eye(2), np.atleast_2d(p), W)[0], abs=1e-12)


class TestSupportArgmaxRows:
    """``support_corners``: per row, a point of W attaining its support."""

    def test_rows_attain_support_rows_in_their_box(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            W = random_hull(rng, n_w=3, n_boxes=4)
            T = rng.standard_normal((2, 3))
            M = rng.standard_normal((6, 2))
            upper, j, points = support_corners(T, M, W)
            assert points.shape == upper.shape == (6, 3) and j.shape == (6,)
            np.testing.assert_allclose(np.sum((M @ T) * points, axis=1), support_rows(T, M, W), atol=1e-12)
            np.testing.assert_array_equal(upper, M @ T >= 0.0)
            np.testing.assert_array_equal(points, W.centers[j] + np.where(upper, 1.0, -1.0) * W.halfwidths[j])

    def test_ties_take_the_first_box(self):
        # both singletons attain the support 1 along (0, 1); along (1, 1) only the second does
        W = BoxHullSet([[0.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
        swapped = BoxHullSet(W.centers[::-1], W.halfwidths)
        M = np.array([[0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(support_corners(np.eye(2), M, W)[2], [[0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(support_corners(np.eye(2), M, swapped)[2], [[1.0, 1.0], [1.0, 1.0]])

    def test_a_zero_direction_takes_the_upper_side(self):
        # along (1, 0) the whole right edge attains the support; the rule picks its corner c + e
        W = one_box([0.5, -1.0], [1.0, 2.0])
        upper, j, points = support_corners(np.eye(2), np.array([[1.0, 0.0], [-1.0, -0.0]]), W)
        np.testing.assert_array_equal(upper, [[True, True], [False, True]])
        np.testing.assert_array_equal(points, [[1.5, 1.0], [-0.5, 1.0]])
        np.testing.assert_array_equal(j, [0, 0])

    def test_each_row_is_its_own_one_row_case(self):
        rng = np.random.default_rng(21)
        W = random_hull(rng, n_boxes=4)
        T = rng.standard_normal((3, 2))
        M = rng.standard_normal((5, 3))
        rows = support_corners(T, M, W)
        for k in range(5):
            for got, want in zip(support_corners(T, M[k], W), rows):
                np.testing.assert_array_equal(got[0], want[k])

    def test_shape_checks_match_support_rows(self):
        W = one_box([0.0, 0.0], [1.0, 1.0])
        for T, M in ((np.eye(2), np.ones((1, 3))), (np.eye(3), np.ones((1, 3)))):
            for kernel in (support_rows, support_corners):
                with pytest.raises(GeometryError):
                    kernel(T, M, W)


class TestSupportRows:
    def test_single_row(self):
        rng = np.random.default_rng(1)
        W = random_hull(rng)
        p = rng.standard_normal(2)
        vals = support_rows(np.eye(2), p[None, :], W)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(max(p @ c + np.abs(p) @ e for c, e in zip(W.centers, W.halfwidths)))

    def test_duplicated_row(self):
        rng = np.random.default_rng(2)
        W = random_hull(rng)
        p = rng.standard_normal(2)
        vals = support_rows(np.eye(2), np.vstack([p, p]), W)
        assert vals[0] == vals[1]

    def test_unit_box_two_sided(self):
        W = one_box([0.0, 0.0], [1.0, 1.0])
        M = np.vstack([np.eye(2), -np.eye(2)])
        assert np.allclose(support_rows(np.eye(2), M, W), 1.0)


def test_reach_coefficients_match_matrix_powers():
    """Slot t < l is C A^(l-1-t) B and slot l is D, against a stack built by
    ``np.linalg.matrix_power``; each slot within 1e-12 of its largest entry."""
    rng = np.random.default_rng(23)
    for _ in range(6):
        n_w, n_y = (int(k) for k in rng.integers(2, 4, size=2))
        sys = random_stable_system(rng, n_x=int(rng.integers(1, 6)), n_w=n_w, n_y=n_y, rho=rng.uniform(0.3, 0.95))
        for l in range(1, 61):
            got, want = setgeom.reach_coefficients(sys, l), reach_reference(sys, l)
            assert got.shape == want.shape == (l + 1, n_y, n_w)
            scale = np.abs(want).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), l


def test_reach_coefficients_reject_a_horizon_below_one(plant):
    """A horizon of 0 has no slot of the state, so no (l + 1, n_y, n_w) stack."""
    for l in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            setgeom.reach_coefficients(plant, l)


def test_powers_reject_a_count_below_one(plant):
    with pytest.raises(ValueError, match="at least 1"):
        setgeom._powers(plant.A, 0)
    assert np.array_equal(setgeom._powers(plant.A, 1), np.eye(3)[None])


class TestContainsPoint:
    def test_box_center_inside(self):
        rng = np.random.default_rng(3)
        W = random_hull(rng)
        assert contains_point(W, W.centers[0])

    def test_point_outside_bounding_box(self):
        W = BoxHullSet([[0.0, 0.0], [0.5, 0.5]], [[1.0, 1.0], [0.2, 0.2]])
        assert not contains_point(W, [5.0, 0.0])

    def test_convex_combination_inside_with_witness(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            W = random_hull(rng)
            e = rng.exponential(size=W.n_boxes)
            beta = e / e.sum()
            pts = W.centers + rng.uniform(-1, 1, (W.n_boxes, 2)) * W.halfwidths
            w = beta @ pts
            res = contains_point(W, w, tol=1e-9)
            assert res.inside
            rebuilt = res.weights @ res.points
            assert np.linalg.norm(rebuilt - w, np.inf) <= 1e-8

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_residual_is_the_distance_to_a_single_box(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            c, h = rng.normal(size=dim), rng.uniform(0.0, 1.0, dim)
            w = c + rng.normal(scale=1.5, size=dim)
            res = contains_point(one_box(c, h), w)
            expected = max(0.0, float(np.max(np.abs(w - c) - h)))
            assert res.residual == pytest.approx(expected, abs=1e-12)
            assert res.inside == (expected <= 1e-9)

    @staticmethod
    def _corner_hull_distance(W, w):
        """Infinity-norm distance from w to the hull of every box corner: min t
        with |x - w| <= t and x inside each facet of scipy's ConvexHull."""
        facets = ConvexHull(brute_force_hull_vertices(W)).equations
        n = W.dim
        near = np.hstack([np.vstack([np.eye(n), -np.eye(n)]), -np.ones((2 * n, 1))])
        a_ub = np.vstack([near, np.hstack([facets[:, :-1], np.zeros((len(facets), 1))])])
        b_ub = np.concatenate([w, -w, -facets[:, -1]])
        res = scipy.optimize.linprog(np.eye(n + 1)[n], a_ub, b_ub, bounds=[(None, None)] * n + [(0, None)])
        assert res.status == 0
        return res.fun

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n_boxes", [2, 3, 4])
    def test_residual_is_the_distance_to_a_hull_of_boxes(self, dim, n_boxes):
        rng = np.random.default_rng(10 * dim + n_boxes)
        for _ in range(10):
            W = random_hull(rng, n_w=dim, n_boxes=n_boxes)
            w = rng.normal(scale=1.5, size=dim)
            expected = self._corner_hull_distance(W, w)
            res = contains_point(W, w)
            assert res.residual == pytest.approx(expected, abs=1e-9)
            assert res.inside == (res.residual <= 1e-9)
            assert np.all(np.abs(res.points - W.centers) <= W.halfwidths + 1e-12)

    def test_rejects_nonpositive_tol(self):
        W = one_box([0.0], [1.0])
        with pytest.raises(ValueError):
            contains_point(W, [0.0], tol=0.0)

    def test_failed_lp_carries_its_program(self, monkeypatch):
        monkeypatch.setattr(reference, "solve_lp", lambda lp, **kw: LpOutcome(FAILED))
        with pytest.raises(LpFailure, match="membership LP failed") as info:
            contains_point(one_box([0.0, 0.0], [1.0, 1.0]), [0.5, 0.5])
        assert info.value.lp.a.shape[1] == info.value.lp.c.size


class TestSample:
    def test_singleton_returns_center(self):
        W = one_box([0.4, -0.7], [0.0, 0.0])
        rng = np.random.default_rng(5)
        for _ in range(10):
            assert np.allclose(sample_batch(W, 1, rng)[0], [0.4, -0.7])

    def test_samples_are_members(self):
        rng = np.random.default_rng(6)
        W = random_hull(rng, n_boxes=4)
        pts = sample_batch(W, 10_000, np.random.default_rng(123))
        # spot-check the LP oracle on a slice, then certify the rest by the
        # planar edge-normal test, which is exact for a 2-D hull
        for w in pts[:200]:
            assert contains_point(W, w, tol=1e-9)
        outline = hull_outline(W)
        edges = np.roll(outline, -1, axis=0) - outline
        normals = np.column_stack([edges[:, 1], -edges[:, 0]])
        offsets = np.sum(normals * outline, axis=1)
        assert np.all(pts @ normals.T <= offsets + 1e-9)

    def test_deterministic_for_fixed_seed(self):
        W = one_box([0.0, 0.0], [1.0, 1.0])
        a = [sample_batch(W, 1, np.random.default_rng(42))[0].tolist() for _ in range(5)]
        b = [sample_batch(W, 1, np.random.default_rng(42))[0].tolist() for _ in range(5)]
        assert a == b

    @pytest.mark.parametrize("n_w, n_boxes", [(1, 1), (2, 4), (3, 2)])
    def test_in_place_blend_equals_a_blend_into_a_new_array(self, n_w, n_boxes):
        rng = np.random.default_rng(10 * n_w + n_boxes)
        W = random_hull(rng, n_w=n_w, n_boxes=n_boxes)
        W = BoxHullSet(W.centers, np.where(rng.uniform(size=W.halfwidths.shape) < 0.2, 0.0, W.halfwidths))
        a = np.random.default_rng(n_boxes)
        b = np.random.default_rng(n_boxes)
        assert np.array_equal(sample_batch(W, 2000, a), reference.sample_batch_blend(W, 2000, b))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n_boxes", range(1, 10))
    @pytest.mark.parametrize("n_w", [1, 2, 3, 4])
    def test_box_order_blend_equals_the_einsum_blend_of_the_same_draws(self, n_w, n_boxes):
        # numpy adds in box order up to 7 boxes (2 in dimension 1); beyond, both
        # are one sum of N terms rounded in two orders
        rng = np.random.default_rng(10 * n_w + n_boxes)
        W = random_hull(rng, n_w=n_w, n_boxes=n_boxes)
        W = BoxHullSet(W.centers, np.where(rng.uniform(size=W.halfwidths.shape) < 0.2, 0.0, W.halfwidths))
        exact = n_boxes <= (7 if n_w >= 2 else 2)
        bound = 2 * n_boxes * np.finfo(float).eps * (np.abs(W.centers).max() + W.halfwidths.max())
        for count in (1, 7, 2000):
            a, b = np.random.default_rng(count), np.random.default_rng(count)
            pts, ref = sample_batch(W, count, a), reference.sample_batch_blend(W, count, b)
            assert a.bit_generator.state == b.bit_generator.state
            assert pts.shape == (count, n_w)
            if exact:
                assert np.array_equal(pts, ref)
            else:
                assert np.max(np.abs(pts - ref)) <= bound
        for w in pts[:10]:
            assert contains_point(W, w, tol=1e-9)

    @pytest.mark.parametrize("count", [True, 2.0, "5", 0, -1])
    def test_rejects_a_count_before_drawing(self, count):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="count must"):
            sample_batch(one_box([0.0, 0.0], [1.0, 1.0]), count, rng)
        assert rng.bit_generator.state == state


class TestVerticesHpoly:
    def test_unit_box(self):
        P = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        V = vertices_hpoly(P)
        expected = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
        assert {tuple(np.round(v, 9)) for v in V} == expected

    def test_simplex(self):
        P = HPolytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 1.0]))
        V = vertices_hpoly(P)
        expected = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
        assert {tuple(np.round(v, 9)) for v in V} == expected

    def test_pentagon_vertices(self, pentagon):
        V = vertices_hpoly(pentagon)
        assert V.shape == (5, 2)
        for v in V:
            active = np.sum(np.abs(pentagon.G @ v - pentagon.g) <= 1e-7)
            assert active >= 2

    def test_unbounded_detected(self):
        P = HPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), np.ones(3))
        with pytest.raises(GeometryError, match="unbounded"):
            vertices_hpoly(P)

    def test_empty_detected(self):
        P = HPolytope(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([-2.0, 1.0, 1.0, 1.0]),
        )
        with pytest.raises(GeometryError):
            vertices_hpoly(P)

    def test_merge_vertices(self):
        # a row within 1e-7 of a kept row is that vertex again; one farther off is its own
        V = np.array([[0.0, 0.0], [5e-8, 0.0], [1.0, 0.0], [1.0, 5e-7]])
        np.testing.assert_array_equal(merge_vertices(V), V[[0, 2, 3]])

    def test_roundtrip_from_known_vertices(self):
        # hand H-reps of a box and a simplex recover their vertex sets
        box = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.array([0.5, 2.0, 1.0, 0.25]))
        V = vertices_hpoly(box)
        expected = {(0.5, 2.0), (0.5, -0.25), (-1.0, 2.0), (-1.0, -0.25)}
        assert {tuple(np.round(v, 9)) for v in V} == expected


def _extent_lp_verdict(P: HPolytope) -> str:
    """'empty', 'unbounded' or 'bounded' by the 2 n coordinate extent LPs: a
    set with a ray is unbounded along some coordinate."""
    for k in range(P.dim):
        for sign in (1.0, -1.0):
            out = lp_solver.solve_lp(LpProblem(-sign * np.eye(P.dim)[k], as_csr(P.G), P.g, 0, np.full(P.dim, -np.inf)))
            if out.status in (INFEASIBLE, UNBOUNDED):
                return "empty" if out.status == INFEASIBLE else "unbounded"
            assert out.optimal, out.status
    return "bounded"


def _lp_support(P: HPolytope, c) -> float:
    return -lp_solver.solve_lp(LpProblem(-c, as_csr(P.G), P.g, 0, np.full(P.dim, -np.inf))).objective


def _random_normals(rng, n, count):
    U = rng.standard_normal((count, n))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


class TestBoundednessRule:
    """``vertices_hpoly`` decides boundedness from its own row subsets; extent
    LPs are the oracle here."""

    def _check_against_oracle(self, P, rng):
        verdict = _extent_lp_verdict(P)
        if verdict != "bounded":
            with pytest.raises(GeometryError):
                vertices_hpoly(P)
            return verdict
        V = vertices_hpoly(P)
        np.testing.assert_array_equal(V, V[np.lexsort(V.T[::-1])])
        assert np.all(P.G @ V.T <= P.g[:, None] + 1e-9)
        # the hull of the vertices is P: equal supports along the axes and random directions
        for c in np.vstack([np.eye(P.dim), -np.eye(P.dim), _random_normals(rng, P.dim, 4)]):
            assert np.max(V @ c) == pytest.approx(_lp_support(P, c), abs=1e-7)
        return verdict

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_sets_match_extent_lps(self, n):
        rng = np.random.default_rng(100 + n)
        verdicts = {"bounded": 0, "unbounded": 0, "empty": 0}
        for k in range(60):
            kind = ("bounded", "unbounded", "empty")[k % 3]
            m = int(rng.integers(n + 1, n + 7))
            if kind == "unbounded":
                # every normal in one open half-space: -u is a ray, and the
                # apex-free set still has a vertex
                u = _random_normals(rng, n, 1)[0]
                G = _random_normals(rng, n, m)
                G = G * np.sign(G @ u)[:, None]
            else:
                # n normals and minus their sum span R^n positively
                G = _random_normals(rng, n, m - 1)
                G = np.vstack([G, -G[:n].sum(axis=0)])
            g = rng.uniform(0.2, 2.0, m)
            if kind == "empty":
                a = _random_normals(rng, n, 1)
                G, g = np.vstack([G, a, -a]), np.concatenate([g, [-1.0, -1.0]])
            verdicts[self._check_against_oracle(HPolytope(G, g), rng)] += 1
        assert all(verdicts.values()), verdicts

    def test_gaussian_draws_match_extent_lps(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n + 1, n + 7))
            self._check_against_oracle(HPolytope(rng.standard_normal((m, n)), rng.standard_normal(m)), rng)

    def test_two_vertices_and_a_ray(self):
        # (0.5, 1) and (1, 0.5) are vertices, and the set runs on toward -(1, 1)
        P = HPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0, 1.5]))
        assert _extent_lp_verdict(P) == "unbounded"
        with pytest.raises(GeometryError, match="unbounded"):
            vertices_hpoly(P)

    def test_half_line(self):
        P = HPolytope(np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))
        assert _extent_lp_verdict(P) == "unbounded"
        with pytest.raises(GeometryError, match="unbounded"):
            vertices_hpoly(P)
        np.testing.assert_array_equal(vertices_hpoly(HPolytope([[1.0], [-2.0]], [1.0, 3.0])), [[-1.5], [1.0]])

    def test_three_dimensional_set_with_one_ray(self):
        # a square tube over +y3, cut by a slanted floor: four vertices, one ray
        G = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0.3, 0.2, -1.0]])
        P = HPolytope(G, np.ones(5))
        assert _extent_lp_verdict(P) == "unbounded"
        with pytest.raises(GeometryError, match="unbounded"):
            vertices_hpoly(P)
        # a lid on the tube bounds it
        closed = HPolytope(np.vstack([G, [0, 0, 1.0]]), np.ones(6))
        assert vertices_hpoly(closed).shape == (8, 3)

    def test_a_set_with_a_line_has_no_vertex(self):
        P = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]]), np.ones(3))
        with pytest.raises(GeometryError, match="no vertices"):
            vertices_hpoly(P)


def _enumeration_outcome(enumerate_vertices, P: HPolytope):
    """The vertex array's shape and bytes, or the GeometryError message."""
    try:
        V = enumerate_vertices(P)
    except GeometryError as exc:
        return str(exc)
    return V.shape, V.tobytes()


def _degenerate_set(rng, n, m):
    """Integer normals and right-hand sides: many subsets are singular or
    meet in one vertex, and repeated rows give repeated candidates."""
    G = rng.integers(-2, 3, (m, n)).astype(float)
    G = np.vstack([G, np.eye(n), -np.eye(n)])[-m:]
    return HPolytope(G, rng.integers(0, 3, m).astype(float))


class TestBatchedVerticesMatchLoop:
    """``vertices_hpoly`` stacks its subsets; the per-subset loop of
    ``reference.vertices_hpoly_loop`` must give the same bytes or error."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_sets(self, n):
        rng = np.random.default_rng(200 + n)
        outcomes = set()
        for k in range(24):
            m = int(rng.integers(n + 1, (12, 16, 20, 14)[n - 1] + 1))
            if k % 3 == 0:
                P = _degenerate_set(rng, n, m)
            elif k % 3 == 1:
                P = HPolytope(rng.standard_normal((m, n)), rng.standard_normal(m))
            else:
                G = _random_normals(rng, n, m - 1)
                P = HPolytope(np.vstack([G, -G[:n].sum(axis=0)]), rng.uniform(0.2, 2.0, m))
            batched = _enumeration_outcome(vertices_hpoly, P)
            assert batched == _enumeration_outcome(vertices_hpoly_loop, P)
            outcomes.add(batched if isinstance(batched, str) else "vertices")
        assert "vertices" in outcomes and len(outcomes) > 1, outcomes

    @pytest.mark.parametrize("kind", ["normals", "degenerate"])
    def test_sets_at_the_size_limit(self, kind):
        rng = np.random.default_rng(31)
        if kind == "normals":
            G = _random_normals(rng, 4, 29)
            P = HPolytope(np.vstack([G, -G[:4].sum(axis=0)]), rng.uniform(0.2, 2.0, 30))
        else:
            P = _degenerate_set(rng, 4, 30)
        assert (P.n_rows, P.dim) == (setgeom._MAX_ROWS, setgeom._MAX_DIM)
        assert _enumeration_outcome(vertices_hpoly, P) == _enumeration_outcome(vertices_hpoly_loop, P)


_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("source", ["pentagon", "illustrative", "reduced", "gen"])
def test_vertices_hpoly_solves_no_lp(source, pentagon, monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("vertex enumeration solved an LP")

    square = [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
    expected = {
        "pentagon": [
            [-0.6247049140568784, -0.1826821580417587],
            [-0.24760111398449486, 0.40683442874970716],
            [0.49404434846585676, 0.5592166367751387],
            [0.5368034200069838, -0.7286104381342661],
            [0.7695795433302421, 0.23195938722500234],
        ],
        "gen": square,
        "reduced": square,
    }
    expected["illustrative"] = expected["pentagon"]
    if source == "pentagon":
        Y = pentagon
    elif source == "gen":
        Y = cli.cmd_gen(3, 2, 2, 0.7, 0).Y
    else:
        name = "illustrative.json" if source == "illustrative" else "reduced_order_plant.json"
        doc = json.loads((_ROOT / "specs" / name).read_text())
        Y = (cli.parse_spec(doc) if source == "illustrative" else cli.cmd_reduce(doc)).Y
    monkeypatch.setattr(setgeom, "solve_lp", no_lp)
    monkeypatch.setattr(lp_solver, "_run", no_lp)
    np.testing.assert_array_equal(vertices_hpoly(Y), expected[source])


class TestHullOutline:
    def test_single_box_ccw(self):
        W = one_box([1.0, 2.0], [0.5, 0.25])
        out = hull_outline(W)
        assert out.shape == (4, 2)
        area2 = 0.0
        for k in range(len(out)):
            a, b = out[k], out[(k + 1) % len(out)]
            area2 += a[0] * b[1] - b[0] * a[1]
        assert area2 > 0  # counterclockwise

    def test_two_singletons_and_origin_box(self):
        W = BoxHullSet([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], [[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]])
        out = hull_outline(W)
        candidates = {tuple(v) for v in brute_force_hull_vertices(W)}
        assert all(tuple(v) in candidates for v in out)

    def test_outline_points_are_members_and_cover(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            W = random_hull(rng)
            out = hull_outline(W)
            for v in out:
                assert contains_point(W, v, tol=1e-7)
            edges = np.roll(out, -1, axis=0) - out
            normals = np.column_stack([edges[:, 1], -edges[:, 0]])
            offsets = np.sum(normals * out, axis=1)
            verts = brute_force_hull_vertices(W)
            assert np.all(verts @ normals.T <= offsets + 1e-9)

    def test_requires_planar(self):
        W = one_box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(GeometryError):
            hull_outline(W)


class TestSimulate:
    def test_zero_disturbance_stays_at_origin(self, plant):
        W = one_box([0.0, 0.0], [0.0, 0.0])
        X, Y, _ = simulate(plant, W, np.zeros(3), 50, np.random.default_rng(0))
        assert np.allclose(X, 0.0)
        assert np.allclose(Y, 0.0)

    def test_zero_dynamics_gives_pure_feedthrough_state(self):
        rng = np.random.default_rng(10)
        B = rng.standard_normal((2, 2))
        sys = LtiSystem(np.zeros((2, 2)), B, np.eye(2), np.zeros((2, 2)))
        W = random_hull(rng)
        X, _, Wseq = simulate(sys, W, np.zeros(2), 20, np.random.default_rng(1))
        for t in range(1, 20):
            assert np.allclose(X[t], B @ Wseq[t - 1], atol=1e-12)

    def test_certified_set_keeps_output_in_constraints(self, plant, pentagon):
        # frozen from a certified synthesis run; re-certified here before use
        from distsynth.rpi_params import RpiParams
        from distsynth.verifier import verify_output_inclusion

        params = RpiParams(s=60, alpha=6.781843723995092e-4, lam=6.796195472333852e-5, gamma=0.2, mu=1e-3)
        W = BoxHullSet([[-0.0429, -0.032], [0.0451, -0.0525]], [[0.0457, 0.032], [0.0, 0.0135]])
        assert verify_output_inclusion(plant, pentagon, params, W).passed
        _, Y, _ = simulate(plant, W, np.zeros(3), 10_000, np.random.default_rng(2))
        assert np.all(Y @ pentagon.G.T <= pentagon.g + 1e-9)

    def test_draws_and_recursion_across_block_edges(self, plant):
        # 2000 = 62 * 32 + 16 steps: 62 block edges and a shorter last block
        rng = np.random.default_rng(12)
        W, x0 = random_hull(rng), rng.standard_normal(3)
        X, Y, Wseq = simulate(plant, W, x0, 2000, np.random.default_rng(5))
        np.testing.assert_array_equal(Wseq, sample_batch(W, 2000, np.random.default_rng(5)))
        assert X.shape == (2000, 3) and Y.shape == (2000, 2)
        np.testing.assert_array_equal(X[0], x0)
        assert np.max(np.abs(X[1:] - (X[:-1] @ plant.A.T + Wseq[:-1] @ plant.B.T))) <= 1e-12
        assert np.max(np.abs(Y - (X @ plant.C.T + Wseq @ plant.D.T))) <= 1e-12

    @pytest.mark.parametrize("T", [0, -1, True, np.True_, 2.0, "5", None])
    def test_rejects_a_step_count_before_drawing(self, plant, T):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="T must"):
            simulate(plant, one_box([0.0, 0.0], [1.0, 1.0]), np.zeros(3), T, rng)
        assert rng.bit_generator.state == state


def manual_rollout(sys, x0, w_seq):
    """Reference for rollout: x+ = A x + B w and y = C x + D w, one run after
    another, one step at a time; (runs, T, n_x) and (runs, T, n_y)."""
    runs, T, _ = w_seq.shape
    X, Y = np.empty((runs, T, sys.n_x)), np.empty((runs, T, sys.n_y))
    for r in range(runs):
        x = x0[r]
        for t in range(T):
            X[r, t], Y[r, t] = x, sys.C @ x + sys.D @ w_seq[r, t]
            x = sys.A @ x + sys.B @ w_seq[r, t]
    return X, Y


def assert_matches_manual_rollout(sys, x0, w_seq) -> None:
    """rollout yields one (T, n_y) array per run, and its outputs, and those
    of the stacked map [I; C], [0; D] (the states beside them), equal
    ``manual_rollout`` within 1e-12."""
    X_ref, Y_ref = manual_rollout(sys, x0, w_seq)
    stacked = replace(
        sys, C=np.vstack([np.eye(sys.n_x), sys.C]), D=np.vstack([np.zeros((sys.n_x, sys.n_w)), sys.D])
    )
    for s, ref in ((sys, Y_ref), (stacked, np.concatenate([X_ref, Y_ref], axis=2))):
        runs = list(rollout(s, x0, w_seq))
        assert len(runs) == len(ref) and all(y.shape == ref.shape[1:] for y in runs)
        assert np.max(np.abs(np.stack(runs) - ref)) <= 1e-12


K = setgeom._ROLLOUT_BLOCK


class TestRollout:
    def test_recursion_matches_manual_rollout(self):
        rng = np.random.default_rng(71)
        sys = random_stable_system(rng, n_x=2, n_w=2, n_y=2, rho=0.5)
        w_seq = rng.uniform(-1, 1, (1, 20, 2))
        x0 = rng.standard_normal((1, 2))
        assert_matches_manual_rollout(sys, x0, w_seq)

    def test_batched_matches_per_run_rollout(self):
        rng = np.random.default_rng(70)
        sys = random_stable_system(rng, n_x=3, n_w=2, n_y=2, rho=0.6)
        runs, T = 5, 500
        w_seq = np.stack([sample_batch(random_hull(rng), T, rng) for _ in range(runs)])
        x0 = rng.standard_normal((runs, 3))
        assert_matches_manual_rollout(sys, x0, w_seq)

    @pytest.mark.parametrize("runs", [1, 5])
    @pytest.mark.parametrize("T", sorted({1, K - 1, K, K + 1, 2 * K + 1, 63, 64, 200, 2000}))
    def test_block_edges_match_manual_rollout(self, T, runs):
        # n_w != n_x, D != 0 and a slowly decaying A, so A^K carries each block's
        # start to the next and the drive E w_b of every step of a block reaches it;
        # T = 1, K + 1 and 2K + 1 end in a one-step block, K in one full block
        rng = np.random.default_rng(1000 * runs + T)
        sys = random_stable_system(rng, n_x=4, n_w=2, n_y=3, rho=0.9)
        assert np.all(sys.D != 0.0)
        w_seq = rng.uniform(-1, 1, (runs, T, 2))
        x0 = rng.standard_normal((runs, 4))
        assert_matches_manual_rollout(sys, x0, w_seq)


class TestSupportProperties:
    def test_minkowski_additivity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            c1, e1 = rng.uniform(-1, 1, 2), rng.uniform(0, 1, 2)
            c2, e2 = rng.uniform(-1, 1, 2), rng.uniform(0, 1, 2)
            merged = one_box(c1 + c2, e1 + e2)
            p = rng.standard_normal(2)
            T = rng.standard_normal((2, 2))
            assert support_rows(T, np.atleast_2d(p), merged)[0] == pytest.approx(
                support_rows(T, np.atleast_2d(p), one_box(c1, e1))[0]
                + support_rows(T, np.atleast_2d(p), one_box(c2, e2))[0],
                abs=1e-12,
            )

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(14)
        W = random_hull(rng)
        p = rng.standard_normal(2)
        for c in (0.5, 2.0, 17.3):
            assert support_rows(np.eye(2), np.atleast_2d(c * p), W)[0] == pytest.approx(
                c * support_rows(np.eye(2), np.atleast_2d(p), W)[0], rel=1e-12
            )

    def test_hull_dominates_members(self):
        rng = np.random.default_rng(15)
        W = random_hull(rng, n_boxes=4)
        for _ in range(50):
            p = rng.standard_normal(2)
            h = support_rows(np.eye(2), np.atleast_2d(p), W)[0]
            for c, e in zip(W.centers, W.halfwidths):
                assert h >= support_rows(np.eye(2), np.atleast_2d(p), one_box(c, e))[0] - 1e-12

    def test_inclusion_characterization(self):
        rng = np.random.default_rng(16)
        W1 = random_hull(rng, n_boxes=3)
        verts = brute_force_hull_vertices(W1)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        bounding = one_box((lo + hi) / 2, (hi - lo) / 2)
        for _ in range(100):
            p = rng.standard_normal(2)
            inner = support_rows(np.eye(2), np.atleast_2d(p), W1)[0]
            assert inner <= support_rows(np.eye(2), np.atleast_2d(p), bounding)[0] + 1e-10

    def test_linear_image(self):
        rng = np.random.default_rng(17)
        W = random_hull(rng)
        for _ in range(50):
            T = rng.standard_normal((3, 2))
            p = rng.standard_normal(3)
            assert support_rows(T, np.atleast_2d(p), W)[0] == pytest.approx(
                support_rows(np.eye(2), np.atleast_2d(T.T @ p), W)[0], rel=1e-12, abs=1e-12
            )

    def test_membership_soundness(self):
        rng = np.random.default_rng(18)
        W = random_hull(rng, n_boxes=3)
        for _ in range(20):
            assert contains_point(W, sample_batch(W, 1, rng)[0], tol=1e-9)
        for v in brute_force_hull_vertices(W):
            assert contains_point(W, v, tol=1e-9)
        # any support-violating point must be rejected
        for _ in range(20):
            p = rng.standard_normal(2)
            p /= np.linalg.norm(p)
            h = support_rows(np.eye(2), np.atleast_2d(p), W)[0]
            outside = p * (h + 0.1)  # along p, beyond the support plane
            if p @ outside > h + 1e-9:
                assert not contains_point(W, outside, tol=1e-9)


def _equal_pairs():
    """Builders of two equal, separately made instances of each array dataclass."""
    from distsynth.lp_solver import LpProblem
    from distsynth.rpi_params import RpiConstants
    from distsynth.synthesizer import SynthResult
    from distsynth.verifier import CoverageWitness

    return {
        "HPolytope": lambda: HPolytope(np.eye(2), np.ones(2)),
        "LtiSystem": lambda: LtiSystem([[0.5]], [[1.0]], [[2.0]], [[0.3]]),
        "BoxHullSet": lambda: BoxHullSet([[0.0, 1.0]], [[0.5, 0.5]]),
        "Membership": lambda: Membership(True, 0.0, np.ones(2), np.zeros((2, 2))),
        "RpiConstants": lambda: RpiConstants(3, np.ones(3), 0.5, 2.0, 0.1),
        "CoverageWitness": lambda: CoverageWitness(np.ones((1, 2, 1)), np.zeros((1, 2, 2))),
        "LpProblem": lambda: LpProblem(np.ones(2), as_csr(np.eye(2)), np.ones(2), 0, np.zeros(2)),
        "SynthResult": lambda: SynthResult(
            BoxHullSet([[0.0]], [[1.0]]), 2.0, [2.0], "converged", 1, {"x": np.ones(3)}, [4]
        ),
    }


@pytest.mark.parametrize("name", sorted(_equal_pairs()))
def test_array_dataclasses_compare_without_raising(name):
    make = _equal_pairs()[name]
    a, b = make(), make()
    assert a == a
    # value equality where the fields are arrays and scalars, identity otherwise
    assert (a == b) is (name not in ("LpProblem", "SynthResult"))
    assert a != object()
