"""Grid construction, interpolation, upwind norms, and node-set distances."""

import numpy as np
import pytest

from mfglab import DomainEscapeError, NodeSet, SpatialGrid, distance_to_box, distance_to_set
from mfglab.grid_geometry import pairwise_sq_dist, sorted_unique


def unit_1d(n=2):
    return SpatialGrid((0.0,), (1.0,), (n,))


def box_2d(n=10):
    return SpatialGrid((0.0, 0.0), (1.0, 1.0), (n, n))


class TestConstruction:
    def test_basic_fields(self):
        g = SpatialGrid((-2.0,), (2.0,), (400,))
        assert g.dim == 1
        assert g.n_nodes == 401
        assert g.max_spacing == pytest.approx(0.01)
        assert g.shape == (401,)

    def test_nodes_row_major_2d(self):
        g = SpatialGrid((0.0, 0.0), (1.0, 2.0), (2, 4))
        assert g.shape == (3, 5)
        assert g.n_nodes == 15
        np.testing.assert_allclose(g.nodes[0], [0.0, 0.0])
        np.testing.assert_allclose(g.nodes[1], [0.0, 0.5])  # second axis fastest
        np.testing.assert_allclose(g.nodes[5], [0.5, 0.0])
        np.testing.assert_allclose(g.nodes[-1], [1.0, 2.0])

    def test_invalid_boxes_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid((1.0,), (0.0,), (4,))
        with pytest.raises(ValueError):
            SpatialGrid((0.0,), (1.0,), (0,))
        with pytest.raises(ValueError):
            SpatialGrid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 2, 2))
        for lower, upper in (((np.nan,), (1.0,)), ((0.0,), (np.nan,)), ((0.0, -np.inf), (1.0, 1.0))):
            with pytest.raises(ValueError, match="finite"):
                SpatialGrid(lower, upper, (4,) * len(lower))

    def test_nearest_node_index(self):
        g = unit_1d(4)
        assert g.nearest_node_index([0.26]).tolist() == [1]
        np.testing.assert_allclose(g.nodes[1], [0.25])


class TestInterpolation:
    def test_hat_function_midpoint(self):
        # field (0, 1, 0) on nodes (0, 0.5, 1): value at 0.25 is 0.5
        g = unit_1d(2)
        assert g.interpolate_many(np.array([0.0, 1.0, 0.0]), [[0.25]])[0] == pytest.approx(0.5)

    def test_bilinear_hand_values(self):
        g = SpatialGrid((0.0, 0.0), (2.0, 2.0), (2, 2))
        field = np.full(g.shape, 99.0)
        # cell [0,1]^2 corners: f(0,0)=1 f(0,1)=3 f(1,0)=2 f(1,1)=5
        field[0, 0], field[0, 1], field[1, 0], field[1, 1] = 1.0, 3.0, 2.0, 5.0
        assert g.interpolate_many(field, [[0.5, 0.5]])[0] == pytest.approx(2.75)
        assert g.interpolate_many(field, [[0.25, 0.75]])[0] == pytest.approx(
            0.75 * 0.25 * 1 + 0.25 * 0.25 * 2 + 0.75 * 0.75 * 3 + 0.25 * 0.75 * 5
        )

    def test_reproduces_node_values(self):
        g = box_2d(7)
        rng = np.random.default_rng(0)
        field = rng.normal(size=g.shape)
        np.testing.assert_allclose(
            g.interpolate_many(field, g.nodes), field.ravel(), atol=1e-14
        )

    def test_interpolation_reproduces_random_fields(self):
        # multilinear interpolation is exact on affine fields
        rng = np.random.default_rng(42)
        for trial in range(100):
            dim = 1 + trial % 2
            lo = rng.uniform(-3, 0, size=dim)
            hi = lo + rng.uniform(0.5, 3, size=dim)
            cells = tuple(int(c) for c in rng.integers(2, 9, size=dim))
            g = SpatialGrid(tuple(lo), tuple(hi), cells)
            a = rng.normal()
            b = rng.normal(size=dim)
            field = (a + g.nodes @ b).reshape(g.shape)
            pts = lo + (hi - lo) * rng.random((20, dim))
            np.testing.assert_allclose(
                g.interpolate_many(field, pts), a + pts @ b, rtol=0, atol=1e-12
            )

    def test_out_of_range_modes(self):
        g = unit_1d(4)
        field = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DomainEscapeError):
            g.interpolate_many(field, np.array([[2.0]]))
        vals = g.interpolate_many(field, np.array([[2.0], [0.5]]), out_of_range="inf")
        assert np.isinf(vals[0]) and vals[1] == pytest.approx(0.5)
        # an unknown mode is rejected whether or not a point escapes
        for pts in ([[0.5]], [[2.0]]):
            with pytest.raises(ValueError, match="unknown out_of_range mode 'bogus'"):
                g.interpolate_many(field, np.array(pts), out_of_range="bogus")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_inf_mode_writes_a_fresh_result(self, dim):
        # inf lands in the result only: the field stays as it was, and the
        # in-range entries are those of the raise mode
        g = SpatialGrid((0.0,) * dim, (1.0,) * dim, (4,) * dim)
        field = np.random.default_rng(dim).normal(size=g.shape)
        before = field.copy()
        pts = np.array([[0.3] * dim, [2.0] * dim, [0.0] * dim, [-1.0] * dim])
        vals = g.interpolate_many(field, pts, out_of_range="inf")
        np.testing.assert_array_equal(field, before)
        assert not np.shares_memory(vals, field)
        np.testing.assert_array_equal(np.isinf(vals), [False, True, False, True])
        np.testing.assert_array_equal(vals[[0, 2]], g.interpolate_many(field, pts[[0, 2]]))

    def test_clamp_margin_near_edges(self):
        g = unit_1d(4)
        field = np.linspace(0.0, 1.0, 5)
        # exactly on the boundary is inside
        assert g.interpolate_many(field, [[1.0]])[0] == pytest.approx(1.0)


class TestUpwindGradient:
    def test_kink_of_abs_is_zero(self):
        # at the minimum of |x| both one-sided slopes point away: norm 0
        g = SpatialGrid((-1.0,), (1.0,), (10,))
        field = np.abs(g.nodes[:, 0])
        norms = g.upwind_gradient_norm_field(field)
        mid = 5
        assert norms[mid] == pytest.approx(0.0)
        assert norms[0] == pytest.approx(1.0)
        assert norms[3] == pytest.approx(1.0)

    def test_linear_slope_exact(self):
        g = SpatialGrid((0.0, 0.0), (1.0, 1.0), (8, 8))
        field = (2.0 * g.nodes[:, 0] - 1.5 * g.nodes[:, 1]).reshape(g.shape)
        norms = g.upwind_gradient_norm_field(field)
        # interior of the upwind stencil: backward diff in x (slope +2) needs
        # i >= 1, forward diff in y (slope -1.5) needs j <= n-1
        np.testing.assert_allclose(
            norms[1:, :-1], np.sqrt(2.0**2 + 1.5**2), atol=1e-12
        )

    def test_single_node_matches_field(self):
        # per node and axis, the largest of 0 and the one-sided slopes that
        # exist: a boundary node takes its one inward side
        rng = np.random.default_rng(3)
        for g in (SpatialGrid((-1.0,), (1.0,), (16,)), SpatialGrid((-1.0, 0.0), (1.0, 3.0), (5, 7))):
            field = rng.normal(size=g.shape)
            norms = g.upwind_gradient_norm_field(field)
            for node in np.ndindex(g.shape):
                total = 0.0
                for ax in range(g.dim):
                    slopes = [0.0]
                    for step in (-1, 1):
                        other = list(node)
                        other[ax] += step
                        if 0 <= other[ax] < g.shape[ax]:
                            slopes.append((field[node] - field[tuple(other)]) / g.spacing[ax])
                    total += max(slopes) ** 2
                assert norms[node] == pytest.approx(np.sqrt(total))


class TestNodeSets:
    def test_from_points_dedupes_and_sorts(self):
        g = unit_1d(4)
        s = NodeSet.from_points(g, [[0.5], [0.5], [1.0]])
        assert len(s) == 2
        np.testing.assert_allclose(s.points.ravel(), [0.5, 1.0])

    def test_distance_to_set_scalar_and_monotone(self):
        g = unit_1d(10)
        small = NodeSet.from_points(g, [[0.0]])
        large = NodeSet.from_points(g, [[0.0], [1.0]])
        d_small = distance_to_set([0.8], small)
        d_large = distance_to_set([0.8], large)
        assert np.isscalar(d_small) or np.ndim(d_small) == 0
        assert float(d_small) == pytest.approx(0.8)
        assert float(d_large) == pytest.approx(0.2)
        assert d_large <= d_small

    def test_distance_to_empty_set_rejected(self):
        g = unit_1d(4)
        with pytest.raises(ValueError):
            distance_to_set([0.5], NodeSet(g, np.array([], dtype=np.int64)))


class TestSortedUnique:
    def test_matches_np_unique(self):
        rng = np.random.default_rng(5)
        cases = [np.array([], dtype=np.int64), np.array([3]), np.array([2, 2, 2])]
        cases += [rng.integers(-20, 20, size=int(rng.integers(1, 60))) for _ in range(50)]
        for values in cases:
            got = sorted_unique(values)
            assert got.dtype == values.dtype
            np.testing.assert_array_equal(got, np.unique(values))


class TestPairwiseSqDist:
    @staticmethod
    def broadcast(a, b):
        return ((a[:, None] - b[None]) ** 2).sum(-1)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bitwise_equal_to_broadcast(self, dim):
        rng = np.random.default_rng(41)
        zeros = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324])
        cases = [
            (rng.uniform(-2, 2, size=(37, dim)), rng.uniform(-2, 2, size=(53, dim))),
            (rng.choice(zeros, size=(11, dim)), rng.choice(zeros, size=(13, dim))),
            (rng.uniform(-1, 1, size=(9, dim)) * 1e150, rng.uniform(-1, 1, size=(7, dim)) * 1e150),
            (rng.uniform(-1, 1, size=(9, dim)) * 1e8, rng.uniform(-1, 1, size=(7, dim)) + 1e8),
            (rng.uniform(-2, 2, size=(1, dim)), rng.uniform(-2, 2, size=(1, dim))),
        ]
        for a, b in cases:
            got = pairwise_sq_dist(a, b)
            assert got.shape == (a.shape[0], b.shape[0])
            assert np.array_equal(got, self.broadcast(a, b))

    def test_overflow_matches_broadcast(self):
        a = np.array([[1e200, 0.0], [0.0, -1e200]])
        with np.errstate(over="ignore"):
            assert np.array_equal(pairwise_sq_dist(a, a[::-1]), self.broadcast(a, a[::-1]))


class TestBoxDistance:
    def test_inside_is_zero(self):
        assert distance_to_box([[0.5, 0.5]], (0.0, 0.0), (1.0, 1.0))[0] == 0.0

    def test_corner_distance(self):
        d = distance_to_box([[2.0, 2.0]], (0.0, 0.0), (1.0, 1.0))[0]
        assert d == pytest.approx(np.sqrt(2.0))

    def test_mixed_axis_distance(self):
        d = distance_to_box([[1.5, 2.0]], (0.0, 0.0), (1.0, 1.0))[0]
        assert d == pytest.approx(np.sqrt(0.25 + 1.0))
