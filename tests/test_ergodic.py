"""Eikonal fast sweeping, continuity checks, and ergodic triples."""

import numpy as np
import pytest

from mfglab import (
    DiscreteMeasure,
    NodeSet,
    SolverError,
    SpatialGrid,
    StaticResidualError,
    build_ergodic_triple,
    continuity_residual,
    solve_eikonal,
    solve_static,
)
from mfglab.cost_models import quadratic_congestion, two_wells
from mfglab.eikonal_ergodic import _graph_distance, bump_gradient


def grid_1d(n=200, lo=-1.0, hi=1.0):
    return SpatialGrid((lo,), (hi,), (n,))


def origin_set(g):
    return NodeSet.from_points(g, [np.zeros(g.dim)])


class TestEikonal1D:
    def test_unit_speed_gives_distance(self):
        g = grid_1d(200)
        v = solve_eikonal(np.ones(g.shape), origin_set(g), g)
        np.testing.assert_allclose(v, np.abs(g.nodes[:, 0]), atol=1e-12)

    def test_linear_speed_discrete_profile(self):
        # v_i = h^2 i(i+1)/2 = x(x+h)/2 exactly; within h/2 of x^2/2
        g = SpatialGrid((0.0,), (1.0,), (100,))
        h = 0.01
        x = g.nodes[:, 0]
        v = solve_eikonal(x, NodeSet.from_points(g, [[0.0]]), g)
        np.testing.assert_allclose(v, x * (x + h) / 2.0, atol=1e-12)
        assert np.abs(v - x * x / 2.0).max() == pytest.approx(h / 2, abs=1e-12)

    def test_error_halves_with_mesh(self):
        errs = []
        for n in (100, 200):
            g = SpatialGrid((0.0,), (1.0,), (n,))
            x = g.nodes[:, 0]
            v = solve_eikonal(x, NodeSet.from_points(g, [[0.0]]), g)
            errs.append(np.abs(v - x * x / 2.0).max())
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=1e-9)

    def test_homogeneity(self):
        g = grid_1d(160)
        rng = np.random.default_rng(0)
        ell = rng.random(g.shape) + 0.1
        v1 = solve_eikonal(ell, origin_set(g), g)
        v2 = solve_eikonal(2.0 * ell, origin_set(g), g)
        np.testing.assert_allclose(v2, 2.0 * v1, atol=1e-10)

    def test_monotone_in_speed(self):
        g = grid_1d(160)
        rng = np.random.default_rng(1)
        ell = rng.random(g.shape) + 0.1
        bigger = ell + rng.random(g.shape)
        v1 = solve_eikonal(ell, origin_set(g), g)
        v2 = solve_eikonal(bigger, origin_set(g), g)
        assert np.all(v2 >= v1 - 1e-12)

    def test_monotone_in_dirichlet_set(self):
        g = grid_1d(160)
        ell = np.ones(g.shape)
        small = NodeSet.from_points(g, [[0.0]])
        large = NodeSet.from_points(g, [[0.0], [0.5]])
        v_small = solve_eikonal(ell, small, g)
        v_large = solve_eikonal(ell, large, g)
        assert np.all(v_large <= v_small + 1e-12)

    def test_input_validation(self):
        g = grid_1d(10)
        with pytest.raises(ValueError, match="nonnegative"):
            solve_eikonal(-np.ones(g.shape), origin_set(g), g)
        with pytest.raises(ValueError, match="finite"):
            solve_eikonal(np.full(g.shape, np.nan), origin_set(g), g)
        with pytest.raises(ValueError, match="nonempty"):
            solve_eikonal(np.ones(g.shape), NodeSet(g, np.array([], dtype=np.int64)), g)

    def test_matches_two_pass_recursion_bit_for_bit(self):
        # on a line the discrete solution is two sequential passes over
        # Python floats, v[i] = min(v[i], v[i -/+ 1] + ell[i] h) forward
        # then backward, with the sources held at 0
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(3, 400))
            g = SpatialGrid((0.0,), (float(rng.uniform(0.5, 5.0)),), (n,))
            ell = rng.random(n + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
            if trial % 3 == 0:
                lo = int(rng.integers(0, n))
                ell[lo : lo + int(rng.integers(1, n // 2 + 2))] = 0.0
            sources = rng.choice(n + 1, size=int(rng.integers(1, 5)), replace=False)
            h, rhs = float(g.spacing[0]), ell.tolist()
            v = [float("inf")] * (n + 1)
            for i in sources:
                v[i] = 0.0
            for i in range(1, n + 1):
                v[i] = min(v[i], v[i - 1] + rhs[i] * h)
            for i in range(n - 1, -1, -1):
                v[i] = min(v[i], v[i + 1] + rhs[i] * h)
            got = solve_eikonal(ell, NodeSet(g, sources), g)
            np.testing.assert_array_equal(got, v)

    def test_sweep_budget_exhaustion(self):
        g = grid_1d(50)
        with pytest.raises(SolverError):
            solve_eikonal(np.ones(g.shape), origin_set(g), g, max_sweeps=1)


class TestEikonal2D:
    def test_unit_speed_approximates_euclidean(self):
        g = SpatialGrid((-1.0, -1.0), (1.0, 1.0), (80, 80))
        v = solve_eikonal(np.ones(g.shape), origin_set(g), g)
        exact = np.sqrt((g.nodes**2).sum(axis=1))
        err = np.abs(v.ravel() - exact).max()
        assert err <= 0.05  # first-order scheme at h = 0.025

    def test_beats_eight_neighbor_dijkstra(self):
        # the chamfer metric overestimates Euclidean length off-axis; the
        # sweeping solution must be at least as accurate at generic points
        g = SpatialGrid((-1.0, -1.0), (1.0, 1.0), (80, 80))
        ell = np.ones(g.shape)
        src = origin_set(g)
        v = solve_eikonal(ell, src, g)
        samples = np.array([[0.5, 0.2], [-0.7, 0.3], [0.4, -0.9]])
        nodes = g.nearest_node_index(samples)
        exact = np.sqrt((samples**2).sum(axis=1))
        fsm_err = np.abs(v.ravel()[nodes] - exact)
        dijkstra_err = np.abs(_graph_distance(ell, src, g)[nodes] - exact)
        assert np.all(fsm_err <= dijkstra_err + 1e-9)

    def test_axis_aligned_rays_exact(self):
        g = SpatialGrid((-1.0, -1.0), (1.0, 1.0), (40, 40))
        v = solve_eikonal(np.ones(g.shape), origin_set(g), g)
        mid = 20
        axis = np.abs(np.linspace(-1.0, 1.0, 41))
        np.testing.assert_allclose(v[mid, :], axis, atol=1e-10)
        np.testing.assert_allclose(v[:, mid], axis, atol=1e-10)


class TestCrosscheck1D:
    def test_line_graph_distance_exact(self):
        g = grid_1d(100)
        dist = _graph_distance(np.ones(g.shape), origin_set(g), g)
        nodes = g.nearest_node_index([[0.4], [-0.8]])
        np.testing.assert_allclose(dist[nodes], [0.4, 0.8], rtol=0, atol=1e-12)

    def test_line_distance_matches_dijkstra_bit_for_bit(self):
        # the two passes against scipy's Dijkstra on the same line graph,
        # edge cost the endpoint mean of ell times h
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        rng = np.random.default_rng(12)
        for trial in range(240):
            n = int(rng.integers(3, 400))
            g = SpatialGrid((0.0,), (float(rng.uniform(0.5, 5.0)),), (n,))
            ell = rng.random(n + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
            if trial % 3 == 0:
                lo = int(rng.integers(0, n))
                ell[lo : lo + int(rng.integers(2, n // 2 + 3))] = 0.0
            sources = rng.choice(n + 1, size=int(rng.integers(1, 5)), replace=False)
            edges = np.arange(n)
            graph = csr_matrix(
                (0.5 * (ell[:-1] + ell[1:]) * g.spacing[0], (edges, edges + 1)), shape=(n + 1, n + 1)
            )
            expected = dijkstra(graph, directed=False, indices=sources, min_only=True)
            np.testing.assert_array_equal(_graph_distance(ell, NodeSet(g, sources), g), expected)


class TestContinuityResidual:
    def test_linear_field_unit_pairing(self):
        g = grid_1d(100)
        v = g.nodes[:, 0].reshape(g.shape)
        m = DiscreteMeasure.dirac([0.0])
        unit_grad = lambda pts: np.ones_like(pts)
        worst, family = continuity_residual(v, m, g, test_functions=[unit_grad])
        assert family == 1
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_constant_field_zero(self):
        g = grid_1d(100)
        v = np.full(g.shape, 3.0)
        m = DiscreteMeasure.uniform([[-0.5], [0.25]])
        worst, family = continuity_residual(v, m, g)
        assert family > 1
        assert worst == pytest.approx(0.0, abs=1e-15)

    def test_bump_gradient_vanishes_at_center_and_outside(self):
        grad = bump_gradient([0.0], 0.5)
        np.testing.assert_allclose(grad([[0.0]]), [[0.0]], atol=1e-15)
        np.testing.assert_allclose(grad([[2.0]]), [[0.0]], atol=1e-15)
        assert grad([[0.2]])[0, 0] != 0.0


def build_triple(F, init_point, g, **kwargs):
    res = solve_static(F, g, DiscreteMeasure.dirac(init_point), eps_min=1e-9)
    assert res.converged
    return build_ergodic_triple(F, res.measure, g, eps_min=1e-9, **kwargs)


class TestErgodicTriple:
    def test_quadratic_congestion_pipeline(self):
        F = quadratic_congestion(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (200,))
        t = build_triple(F, [1.0], g)
        assert t.c == pytest.approx(0.0, abs=1e-12)
        assert t.v.min() == 0.0
        node = g.nearest_node_index([[0.0]])[0]
        assert t.v.ravel()[node] == 0.0
        bound = 10.0 * g.max_spacing
        assert t.residuals["crosscheck_gap"] <= bound
        assert t.residuals["continuity_residual"] <= bound
        assert t.residuals["static_residual"] <= 1e-12
        assert t.residuals["support_violation"] == 0.0
        assert t.boundary_monotone

    def test_two_wells_pipeline(self):
        F = two_wells(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (200,))
        t = build_triple(F, [0.3], g)
        flat = t.v.ravel()
        for w in (-1.0, 1.0):
            assert flat[g.nearest_node_index([[w]])[0]] == 0.0
        assert t.residuals["crosscheck_gap"] <= 10.0 * g.max_spacing
        assert t.residuals["static_residual"] <= 1e-12

    def test_2d_pipeline(self):
        F = quadratic_congestion(dim=2)
        g = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (40, 40))
        t = build_triple(F, [1.0, -0.5], g)
        assert t.c == pytest.approx(0.0, abs=1e-12)
        assert t.residuals["crosscheck_gap"] <= 10.0 * g.max_spacing
        assert t.residuals["continuity_residual"] <= 10.0 * g.max_spacing

    def test_2d_crosscheck_gap_shrinks_with_mesh(self):
        # at the rest measure delta_0 the slice is radial and increasing, so
        # v is the integral of ell along the ray; both the error of v and
        # the Dijkstra bracket gap are O(h) even though the 8-neighbor
        # graph overestimates off-axis distances by a fixed fraction
        F = quadratic_congestion(dim=2)
        m = DiscreteMeasure.dirac([0.0, 0.0])
        r = np.linspace(0.0, 3.0, 30001)
        ell_r = np.sqrt(2.0 * F.evaluate_many(np.column_stack([r, 0.0 * r]), m))
        v_r = np.concatenate([[0.0], np.cumsum(0.5 * (ell_r[1:] + ell_r[:-1]) * np.diff(r))])
        gaps = []
        for n in (40, 80):
            g = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (n, n))
            t = build_ergodic_triple(F, m, g, eps_min=1e-9)
            h = g.max_spacing
            exact = np.interp(np.sqrt((g.nodes**2).sum(axis=1)), r, v_r)
            assert np.abs(t.v.ravel() - exact).max() <= 2.0 * h
            assert t.residuals["crosscheck_gap"] <= 2.0 * h
            gaps.append(t.residuals["crosscheck_gap"])
        assert gaps[1] <= 0.6 * gaps[0]

    def test_logs_one_progress_record(self, caplog):
        F = quadratic_congestion(dim=2)
        g = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (20, 20))
        m = DiscreteMeasure.dirac([0.0, 0.0])
        with caplog.at_level("INFO", logger="mfglab.eikonal_ergodic"):
            t = build_ergodic_triple(F, m, g, eps_min=1e-9)
        records = [r for r in caplog.records if r.name == "mfglab.eikonal_ergodic"]
        assert len(records) == 1 and records[0].levelname == "INFO"
        # the sweep count is the exact round budget the solve needed
        ell = np.sqrt(2.0 * (F.evaluate_many(g.nodes, m) - t.c))
        _, sweeps = solve_eikonal(ell, t.dirichlet, g, return_sweeps=True)
        with pytest.raises(SolverError):
            solve_eikonal(ell, t.dirichlet, g, max_sweeps=sweeps - 1)
        assert records[0].getMessage() == (
            f"ergodic triple: critical value {t.c:.6g}, {sweeps} eikonal sweeps, "
            f"crosscheck_gap {t.residuals['crosscheck_gap']:.3e}"
        )

    @pytest.mark.parametrize("cells", [1, 3, 25])
    def test_support_violation_is_the_distance_off_the_argmin_set(self, cells):
        # K = {0} for every measure; a loose static_tol admits a Dirac off K
        F = quadratic_congestion(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (200,))
        x = cells * g.max_spacing
        t = build_ergodic_triple(F, DiscreteMeasure.dirac([x]), g, static_tol=1.0, eps_min=1e-9)
        np.testing.assert_array_equal(t.dirichlet.points, [[0.0]])
        assert t.residuals["support_violation"] == pytest.approx(x, abs=1e-12)
        assert t.residuals["static_residual"] > 0.0

    def test_non_equilibrium_rejected(self):
        F = quadratic_congestion(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (200,))
        with pytest.raises(StaticResidualError) as err:
            build_ergodic_triple(F, DiscreteMeasure.dirac([0.5]), g)
        assert err.value.residual > err.value.tol
