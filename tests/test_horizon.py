"""Backward semi-Lagrangian values, forward transport, and the coupled loop."""

import dataclasses
import warnings

import numpy as np
import pytest

from mfglab import (
    CostFunctional,
    DiscreteMeasure,
    DomainEscapeError,
    MeasurePath,
    SolverError,
    SpatialGrid,
    a_priori_report,
    control_lattice,
    occupational_fractions,
    solve_hjb_backward,
    solve_mfg,
    transport_forward,
    wasserstein1,
)
from mfglab import finite_horizon
from mfglab.cost_models import lqr_oracle, quadratic_congestion, two_wells
from mfglab.finite_horizon import (
    ValueField,
    _Lattice,
    _assert_away_from_boundary,
    _descent_box,
    _first_least,
    _line_filter,
    checkpoint_indices,
    default_control_mesh,
    default_control_radius,
)


def flat_cost(c, dim=1, box=2.0):
    def ev(pts, m):
        return np.full(pts.shape[0], float(c))

    return CostFunctional(
        name="flat", dim=dim, evaluator=ev, m_bound=abs(float(c)) or 1.0,
        core_lower=(-box,) * dim, core_upper=(box,) * dim, gap=0.0,
    )


def ridge_cost(dim=1):
    """F(x) = 5 - 5 |x|: cost falls away from the origin, pushing mass out."""

    def ev(pts, m):
        return 5.0 - 5.0 * np.sqrt((pts * pts).sum(axis=1))

    return CostFunctional(
        name="ridge", dim=dim, evaluator=ev, m_bound=5.0,
        core_lower=(-1.0,) * dim, core_upper=(1.0,) * dim, gap=0.0,
    )


def constant_path(m, T, dt):
    n_t = int(round(T / dt))
    return MeasurePath.constant(m, np.arange(n_t + 1) * dt)


def full_lattice_objective(grid, points, dt, controls):
    """``objective(field)``: dt|a|^2/2 + u(x + dt a) per (point, control),
    u by ``interpolate_many`` as the argmin evaluates it; inf where a foot
    escapes."""
    feet = (points[:, None, :] + dt * controls[None, :, :]).reshape(-1, grid.dim)
    run_cost = dt * 0.5 * (controls * controls).sum(axis=1)

    def objective(field):
        q = grid.interpolate_many(field, feet, out_of_range="inf").reshape(len(points), -1)
        return q + run_cost[None, :]

    return objective


def brute_force_hjb(F, path, grid, dt, control_radius, control_mesh):
    """Reference recursion: the first argmin over every lattice control."""
    controls = control_lattice(grid.dim, control_radius, control_mesh)
    objective = full_lattice_objective(grid, grid.nodes, dt, controls)
    n_nodes = grid.n_nodes
    n_t = path.n_times - 1
    values = np.empty((n_t + 1,) + grid.shape)
    values[n_t] = 0.0
    policy = np.empty((n_t, n_nodes), dtype=np.int32)
    for k in range(n_t - 1, -1, -1):
        fk = F.evaluate_many(grid.nodes, path.measure_at(k))
        q = objective(values[k + 1])
        policy[k] = np.argmin(q, axis=1)
        values[k] = (q[np.arange(n_nodes), policy[k]] + dt * fk).reshape(grid.shape)
    return values, policy


def brute_force_transport(value, points):
    """Reference transport: positions under the first argmin over the lattice."""
    grid, dt, controls = value.grid, value.dt, value.controls
    positions = [points]
    for k in range(value.n_steps):
        pts = positions[-1]
        q = full_lattice_objective(grid, pts, dt, controls)(value.values[k + 1])
        positions.append(pts + dt * controls[np.argmin(q, axis=1)])
    return np.array(positions)


def one_step_value(grid, field, dt, radius, mesh):
    """A value field whose one transport step follows the node field."""
    values = np.stack([field, field]).reshape((2,) + grid.shape)
    return ValueField(
        grid=grid, times=np.array([0.0, dt]), values=values, controls=control_lattice(grid.dim, radius, mesh),
        policy=np.zeros((1, grid.n_nodes), dtype=np.int32), f_slices=np.zeros((1,) + grid.shape),
        metadata={"control_radius": radius, "control_mesh": mesh},
    )


def assert_transport_matches_the_full_lattice(value, points):
    flow, _ = transport_forward(value, DiscreteMeasure(points, np.full(len(points), 1.0 / len(points))))
    np.testing.assert_array_equal(flow.positions, brute_force_transport(value, points))


def node_field(kind, grid, scale, rng):
    """A node field of the given kind and size."""
    x = grid.nodes
    if kind == "flat":
        # a flat floor of exactly -4 beyond a flat 0 disc around the
        # origin: mirrored feet on the floor tie exactly
        return np.where(np.sqrt((x * x).sum(axis=1)) > 0.3, -4.0, 0.0)
    center = rng.uniform(-0.5, 0.5, size=grid.dim)
    r = np.sqrt(((x - center) ** 2).sum(axis=1))
    if kind == "noise":
        return scale * rng.standard_normal(grid.n_nodes)
    if kind == "convex":
        return scale * r * r
    if kind == "concave":
        return -scale * r * r
    return scale * r  # a kink


def slice_cost(fields, dt, dim):
    """F whose slice at the measure path's time index k is fields[k] / dt;
    the path of :func:`indexed_path` carries k as its Dirac's position."""

    def ev(pts, m):
        return fields[int(round(m.points[0, 0]))] / dt

    return CostFunctional(
        name="slices", dim=dim, evaluator=ev, m_bound=1.0,
        core_lower=(-1.0,) * dim, core_upper=(1.0,) * dim, gap=0.0,
    )


def counting(F):
    """F with an evaluator that also records the number of points of each call."""
    rows = []

    def ev(pts, m):
        rows.append(pts.shape[0])
        return F.evaluator(pts, m)

    return dataclasses.replace(F, evaluator=ev), rows


def indexed_path(n_t, dt, dim):
    positions = np.zeros((n_t + 1, 1, dim))
    positions[:, 0, 0] = np.arange(n_t + 1)
    return MeasurePath(np.arange(n_t + 1) * dt, positions, np.array([1.0]))


class TestBracketedArgminOracle:
    """The bracketed argmin reproduces the full-lattice argmin bit for bit,
    except where the minima of two cells agree to within rounding."""

    # the 1D benchmark lattice: 200 cells of [-2, 2], dt 0.05, mesh 0.02
    # and the default radius of the LQR model, 21 cells of reach
    GRID = SpatialGrid((-2.0,), (2.0,), (200,))
    DT, MESH = 0.05, 0.02
    RADIUS = default_control_radius(lqr_oracle(dim=1))

    @staticmethod
    def assert_matches_the_full_lattice(grid, dt, radius, mesh, kind, scale, rng, n_t=3):
        fields = [node_field(kind, grid, scale, rng) for _ in range(n_t)]
        F, path = slice_cost(fields, dt, grid.dim), indexed_path(n_t, dt, grid.dim)
        value = solve_hjb_backward(F, path, grid, dt, control_radius=radius, control_mesh=mesh)
        values, policy = brute_force_hjb(F, path, grid, dt, radius, mesh)
        np.testing.assert_array_equal(value.values, values)
        np.testing.assert_array_equal(value.policy, policy)
        # particles stay clear of the two-cell boundary margin
        assert_transport_matches_the_full_lattice(value, rng.uniform(-0.25, 0.25, size=(40, grid.dim)))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("dt", [1e-3, 0.05, 0.2])
    @pytest.mark.parametrize(
        "kind, scale",
        [("noise", 1e-3), ("noise", 1.0), ("noise", 1e2), ("convex", 1.0), ("concave", 1.0),
         ("kink", 10.0), ("flat", 1.0)],
    )
    def test_values_policy_and_positions_match_the_full_lattice(self, dim, dt, kind, scale):
        rng = np.random.default_rng([dim, int(dt * 1000), len(kind), int(np.log10(scale)) + 3])
        n_cells, reach_cells, per_radius = (64, 3.0, 60) if dim == 1 else (16, 1.5, 8)
        grid = SpatialGrid((-1.0,) * dim, (1.0,) * dim, (n_cells,) * dim)
        # edge nodes reach the clamp zone and, beyond one cell, the escape zone
        radius = reach_cells * grid.max_spacing / dt
        self.assert_matches_the_full_lattice(grid, dt, radius, radius / per_radius, kind, scale, rng)

    @pytest.mark.parametrize("dt", [0.05, 0.2])
    @pytest.mark.parametrize("kind, scale", [("convex", 1.0), ("kink", 10.0), ("noise", 1.0)])
    def test_dense_2d_lattice_matches_the_full_lattice(self, dt, kind, scale):
        # 51 lattice lines reaching 4 cells: the line filter drops most
        # lines of the convex field and few of the noise; two steps of 4
        # cells keep the particles clear of the boundary margin
        rng = np.random.default_rng([7, int(dt * 1000), len(kind)])
        grid = SpatialGrid((-1.625, -1.625), (1.625, 1.625), (26, 26))
        radius = 4.0 * grid.max_spacing / dt
        mesh = radius / 25
        assert _Lattice.of(control_lattice(2, radius, mesh), mesh, dt).half.size == 51
        self.assert_matches_the_full_lattice(grid, dt, radius, mesh, kind, scale, rng, n_t=2)

    @pytest.mark.parametrize(
        "kind, scale", [("convex", 0.5), ("kink", 10.0), ("noise", 1e-3), ("noise", 1.0), ("flat", 1.0)]
    )
    def test_the_1d_benchmark_lattice_matches_the_full_lattice(self, kind, scale):
        rng = np.random.default_rng([13, len(kind), int(np.log10(scale)) + 3])
        self.assert_matches_the_full_lattice(self.GRID, self.DT, self.RADIUS, self.MESH, kind, scale, rng)

    # the 2D benchmark geometry: 20^2 cells of [-2, 2]^2, dt 0.05 and the
    # default radius and mesh of the congestion model
    GRID_2D = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (20, 20))
    RADIUS_2D = default_control_radius(quadratic_congestion(dim=2))
    MESH_2D = default_control_mesh(GRID_2D, DT)

    @pytest.mark.parametrize("kind, scale", [("convex", 0.5), ("kink", 10.0), ("noise", 1.0)])
    def test_the_2d_benchmark_lattice_matches_the_full_lattice(self, kind, scale):
        lattice = _Lattice.of(control_lattice(2, self.RADIUS_2D, self.MESH_2D), self.MESH_2D, self.DT)
        assert lattice.controls.shape[0] == 3705 and lattice.half.size == 69
        rng = np.random.default_rng([29, len(kind), int(np.log10(scale)) + 3])
        self.assert_matches_the_full_lattice(
            self.GRID_2D, self.DT, self.RADIUS_2D, self.MESH_2D, kind, scale, rng, n_t=2
        )

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind, scale", [("noise", 1.0), ("kink", 10.0)])
    def test_transport_from_a_node_takes_the_hjb_control(self, dim, kind, scale):
        # the HJB step and transport read u through one interpolant, so a
        # particle on a node moves by that node's HJB control, bit for bit
        grid, radius, mesh = (
            (self.GRID, self.RADIUS, self.MESH) if dim == 1 else (self.GRID_2D, self.RADIUS_2D, self.MESH_2D)
        )
        rng = np.random.default_rng([31, dim, len(kind)])
        fields = [node_field(kind, grid, scale, rng) for _ in range(2)]
        F, path = slice_cost(fields, self.DT, dim), indexed_path(2, self.DT, dim)
        value = solve_hjb_backward(F, path, grid, self.DT, control_radius=radius, control_mesh=mesh)
        # interior nodes stay clear of the boundary margin for two steps
        inside = np.flatnonzero((np.abs(grid.nodes) <= 1.0).all(axis=1))
        points = grid.nodes[inside]
        flow, _ = transport_forward(value, DiscreteMeasure(points, np.full(len(points), 1.0 / len(points))))
        np.testing.assert_array_equal(flow.positions[1], points + self.DT * value.controls[value.policy[0, inside]])

    def test_exact_ties_across_lines_attain_the_full_lattice_minimum(self):
        # the flat floor on the 2D benchmark geometry: from nodes 198 and
        # 200, mirrored feet in a cell of corners (-4, -4, -4, 0) tie
        # exactly in the full scan, while the parabolas of their two lines
        # round differently; the ranking may take the later control of the
        # tie, which still attains the full-lattice minimum, so the values
        # and the positions match bit for bit
        grid, dt, radius, mesh = self.GRID_2D, self.DT, self.RADIUS_2D, self.MESH_2D
        fields = [node_field("flat", grid, 1.0, None)] * 2
        F, path = slice_cost(fields, dt, 2), indexed_path(2, dt, 2)
        value = solve_hjb_backward(F, path, grid, dt, control_radius=radius, control_mesh=mesh)
        values, policy = brute_force_hjb(F, path, grid, dt, radius, mesh)
        np.testing.assert_array_equal(value.values, values)
        objective = full_lattice_objective(grid, grid.nodes, dt, value.controls)
        for k in range(2):
            q = objective(values[k + 1])
            np.testing.assert_array_equal(q[np.arange(grid.n_nodes), value.policy[k]], q.min(axis=1))
        points = np.random.default_rng(31).uniform(-0.25, 0.25, size=(40, 2))
        assert_transport_matches_the_full_lattice(value, points)

    def test_within_cell_ties_break_as_the_full_lattice(self):
        # the acceptance cloud under the LQR value on the 1D benchmark
        # lattice: at every step some particle's vertex lies within rounding
        # of a half-integer, so the two steps around it tie up to rounding
        # and only their interpolated values decide
        path = constant_path(DiscreteMeasure.dirac([0.0]), 2.0, self.DT)
        value = solve_hjb_backward(lqr_oracle(dim=1), path, self.GRID, self.DT, self.RADIUS, self.MESH)
        rng = np.random.default_rng(np.random.SeedSequence([0, 0x6D30]))
        assert_transport_matches_the_full_lattice(value, -0.5 + rng.random((256, 1)))

    def test_within_cell_ties_break_as_the_full_lattice_2d(self):
        # u = -2.5 mesh x0 on the 2D benchmark geometry puts the vertex of
        # every line at step 2.5: steps 2 and 3 tie up to rounding, and
        # only their interpolated values decide
        grid, dt, radius, mesh = self.GRID_2D, self.DT, self.RADIUS_2D, self.MESH_2D
        field = -2.5 * mesh * grid.nodes[:, 0]
        F, path = slice_cost([field, field], dt, 2), indexed_path(2, dt, 2)
        value = solve_hjb_backward(F, path, grid, dt, control_radius=radius, control_mesh=mesh)
        values, policy = brute_force_hjb(F, path, grid, dt, radius, mesh)
        np.testing.assert_array_equal(value.values, values)
        np.testing.assert_array_equal(value.policy, policy)
        points = np.random.default_rng(37).uniform(-0.5, 0.5, size=(256, 2))
        assert_transport_matches_the_full_lattice(one_step_value(grid, field, dt, radius, mesh), points)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_descent_bound_keeps_a_minimiser_half_a_step_past_dt_s(self, side):
        # lattice steps 2.5 cells apart (dt mesh > 2h) on a roof falling at
        # slope S = 1.9 to both sides of node 16, from 0.01 cells right of
        # it: the continuous minimiser lies dt S = 3.8 cells out, the
        # lattice one is step 2 at 5 cells, past dt S plus one cell and
        # within dt (S + mesh/2) = 5.05 cells.  Step -2 is the runner-up;
        # a reach of dt S plus one cell drops the cell of step 2, and the
        # two steps around the runner-up's vertex are -2 and -1
        grid, dt, mesh = SpatialGrid((-1.0,), (1.0,), (40,)), 0.1, 1.25
        t, ridge = 16.01, 16
        if side == "left":
            t, ridge = 40.0 - t, 40 - ridge
        field = -1.9 * np.abs(grid.nodes[:, 0] - grid.nodes[ridge, 0])
        point = grid.lower_array + t * grid.spacing
        value = one_step_value(grid, field, dt, 10 * mesh, mesh)
        move = brute_force_transport(value, point[None, :])[1, 0] - point
        np.testing.assert_allclose(move, (5.0 if side == "right" else -5.0) * grid.spacing)
        assert_transport_matches_the_full_lattice(value, point[None, :])

    @pytest.mark.parametrize("slope", [0.5, 4.0])
    def test_descent_bound_with_plateau_and_slope_particles_in_one_step(self, slope):
        # u is flat left of 0.2 and falls at the slope to the right; at
        # slope 0.5 the descent bound keeps 2.5 cells on each side of 9.6,
        # at slope 4 all of them
        x = self.GRID.nodes[:, 0]
        field = -slope * np.maximum(x - 0.2, 0.0)
        rng = np.random.default_rng(17)
        points = np.concatenate([rng.uniform(-1.5, 0.1, size=(60, 1)), rng.uniform(0.1, 1.5, size=(60, 1))])
        value = one_step_value(self.GRID, field, self.DT, self.RADIUS, self.MESH)
        moved = brute_force_transport(value, points)[1] != points
        assert moved[points > 0.3].all() and not moved[points < 0.0].any()
        assert_transport_matches_the_full_lattice(value, points)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_1d_keeps_a_drop_in_the_farthest_reachable_cell(self, side):
        # the twin of the 2D line filter case: the line reaches 2.5 cells,
        # so from 8.9 the farthest foot is at 11.4, inside cell 11, where u
        # falls steeply to the nodes from 12 on (or the mirror image)
        grid, dt = SpatialGrid((-1.0,), (1.0,), (16,)), 0.05
        radius = 2.5 * grid.max_spacing / dt
        i, t0 = np.arange(grid.n_nodes), 8.9
        if side == "left":
            t0, i = 16 - t0, 16 - i
        value = one_step_value(grid, np.where(i >= 12, -10.0, 0.0), dt, radius, radius / 10)
        point = grid.lower_array + t0 * grid.spacing
        farthest = 2.5 * grid.spacing if side == "right" else -2.5 * grid.spacing
        np.testing.assert_allclose(brute_force_transport(value, point[None, :])[1, 0], point + farthest)
        assert_transport_matches_the_full_lattice(value, point[None, :])

    @pytest.mark.parametrize("slope", [0.25, 0.5, 2.0])
    def test_descent_bound_for_particles_whose_reach_crosses_the_clamp_zone(self, slope):
        # u climbs toward both walls; particles 2 to 4 cells from a wall
        # keep the clamp cell within their descent bound, and with the full
        # reach of the steepest slope their feet also escape
        x = self.GRID.nodes[:, 0]
        field = slope * np.abs(x) + 1e-3 * np.random.default_rng(19).standard_normal(x.size)
        h = self.GRID.max_spacing
        gaps = np.linspace(2.0, 4.0, 21)[1:] * h
        points = np.concatenate([-2.0 + gaps, 2.0 - gaps])[:, None]
        value = one_step_value(self.GRID, field, self.DT, self.RADIUS, self.MESH)
        assert_transport_matches_the_full_lattice(value, points)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_nan_node_leaves_the_points_that_never_reach_it_exact(self, dim):
        # a standard-normal slice with one NaN node: every node and
        # particle whose full-lattice objective holds no NaN gets the
        # full-lattice minimiser
        grid, dt = SpatialGrid((-2.0,) * dim, (2.0,) * dim, (160 if dim == 1 else 20,) * dim), 0.1
        rng = np.random.default_rng(23)
        noise = rng.standard_normal(grid.n_nodes)
        noise[np.abs(grid.nodes - 0.4).max(axis=1) < 1e-9] = np.nan
        F, path = slice_cost([np.zeros(grid.n_nodes), noise], dt, dim), indexed_path(2, dt, dim)
        value = solve_hjb_backward(F, path, grid, dt)
        radius, mesh = value.metadata["control_radius"], value.metadata["control_mesh"]
        values, policy = brute_force_hjb(F, path, grid, dt, radius, mesh)
        np.testing.assert_array_equal(value.values[1], values[1])
        clean = ~np.isnan(values[0].ravel())
        assert 0 < (~clean).sum() < clean.sum()
        np.testing.assert_array_equal(value.values[0].ravel()[clean], values[0].ravel()[clean])
        np.testing.assert_array_equal(value.policy[0][clean], policy[0][clean])
        points = rng.uniform(-1.2, 1.2, size=(200, dim))
        q = full_lattice_objective(grid, points, dt, value.controls)(value.values[1])
        points = points[~np.isnan(q).any(axis=1)]
        assert len(points) > 100
        assert_transport_matches_the_full_lattice(value, points)

    def test_flat_floor_ties_go_to_the_sorted_first_control(self):
        grid = SpatialGrid((-1.0, -1.0), (1.0, 1.0), (16, 16))
        dt, n_t = 0.05, 2
        fields = [node_field("flat", grid, 1.0, None)] * n_t
        F, path = slice_cost(fields, dt, 2), indexed_path(n_t, dt, 2)
        value = solve_hjb_backward(F, path, grid, dt, control_radius=10.0, control_mesh=1.0)
        values, policy = brute_force_hjb(F, path, grid, dt, 10.0, 1.0)
        np.testing.assert_array_equal(value.values, values)
        np.testing.assert_array_equal(value.policy, policy)
        # from the origin the four controls (+-5, +-5) land on floor nodes
        # and tie exactly; the sorted lattice lists (-5, -5) first
        origin = grid.nearest_node_index([[0.0, 0.0]])[0]
        controls = value.controls
        q = full_lattice_objective(grid, np.zeros((1, 2)), dt, controls)(value.values[1])[0]
        ties = np.flatnonzero(q == q.min())
        assert len(ties) == 4
        assert value.policy[0, origin] == ties[0]
        np.testing.assert_array_equal(controls[ties[0]], [-5.0, -5.0])


class TestDescentBox:
    """The 2D descent box: each step searches only the controls with
    |a_i| <= S_i + mesh/2, and gets the full-lattice minimiser."""

    GRID, DT = TestBracketedArgminOracle.GRID_2D, TestBracketedArgminOracle.DT
    RADIUS, MESH = TestBracketedArgminOracle.RADIUS_2D, TestBracketedArgminOracle.MESH_2D

    @staticmethod
    def box(grid, field, dt, radius, mesh):
        lattice = _Lattice.of(control_lattice(2, radius, mesh), mesh, dt)
        return lattice, _descent_box(grid, lattice, field)

    @staticmethod
    def assert_matches_the_full_lattice(grid, field, dt, radius, mesh, points):
        F, path = slice_cost([field, field], dt, 2), indexed_path(2, dt, 2)
        value = solve_hjb_backward(F, path, grid, dt, control_radius=radius, control_mesh=mesh)
        values, policy = brute_force_hjb(F, path, grid, dt, radius, mesh)
        np.testing.assert_array_equal(value.values, values)
        np.testing.assert_array_equal(value.policy, policy)
        assert_transport_matches_the_full_lattice(one_step_value(grid, field, dt, radius, mesh), points)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_keeps_a_minimiser_half_a_step_past_s(self, axis):
        # the 2D twin of the 1D descent bound case: lattice steps 2.5 cells
        # apart on a roof falling at slope S = 1.9 along the axis, from 0.01
        # cells right of the ridge; the lattice minimiser is two steps out,
        # |a_i| = 2.5 in (S, S + mesh/2] = (1.9, 2.525], and so on the box's
        # edge: a box without the mesh/2 term drops it
        grid, dt, mesh = SpatialGrid((-1.0, -1.0), (1.0, 1.0), (40, 40)), 0.1, 1.25
        ridge = grid.lower_array[axis] + 16 * grid.spacing[axis]
        field = -1.9 * np.abs(grid.nodes[:, axis] - ridge)
        edge = np.zeros(2)
        edge[axis] = 2 * mesh
        lattice, box = self.box(grid, field, dt, 10 * mesh, mesh)
        np.testing.assert_array_equal(np.abs(lattice.controls[np.unique(box.table)]).max(axis=0), edge)
        point = np.zeros(2)
        point[axis] = ridge + 0.01 * grid.spacing[axis]
        value = one_step_value(grid, field, dt, 10 * mesh, mesh)
        np.testing.assert_allclose(brute_force_transport(value, point[None, :])[1, 0], point + dt * edge)
        rng = np.random.default_rng(41)
        points = np.concatenate([point[None, :], rng.uniform(-0.5, 0.5, size=(40, 2))])
        self.assert_matches_the_full_lattice(grid, field, dt, 10 * mesh, mesh, points)

    def test_a_flat_slice_keeps_only_the_zero_control(self):
        field = np.full(self.GRID.n_nodes, 0.75)
        _, box = self.box(self.GRID, field, self.DT, self.RADIUS, self.MESH)
        np.testing.assert_array_equal(box.table, [[0, 0]])
        points = np.random.default_rng(43).uniform(-1.0, 1.0, size=(40, 2))
        self.assert_matches_the_full_lattice(self.GRID, field, self.DT, self.RADIUS, self.MESH, points)

    def test_a_slice_steeper_than_the_radius_keeps_the_whole_lattice(self):
        x = self.GRID.nodes
        field = -5.0 * x[:, 0] + 4.0 * np.abs(x[:, 1] - 0.1)
        lattice, box = self.box(self.GRID, field, self.DT, self.RADIUS, self.MESH)
        np.testing.assert_array_equal(box.table, lattice.table)
        points = np.random.default_rng(47).uniform(-0.25, 0.25, size=(40, 2))
        self.assert_matches_the_full_lattice(self.GRID, field, self.DT, self.RADIUS, self.MESH, points)

    def test_a_nan_node_keeps_the_whole_lattice(self):
        field = np.zeros(self.GRID.n_nodes)
        field[7] = np.nan
        lattice, box = self.box(self.GRID, field, self.DT, self.RADIUS, self.MESH)
        assert box is lattice

    @pytest.mark.parametrize("kind, scale", [("convex", 0.5), ("kink", 1.0), ("noise", 0.01), ("flat", 1.0)])
    def test_every_box_holds_the_zero_control(self, kind, scale):
        field = node_field(kind, self.GRID, scale, np.random.default_rng(53))
        lattice, box = self.box(self.GRID, field, self.DT, self.RADIUS, self.MESH)
        assert (box.table == 0).any()
        np.testing.assert_array_equal(box.line_cost, lattice.run_cost[box.table[:, box.table.shape[1] // 2 - 1]])

    def test_gentle_slopes_keep_few_lines_on_the_benchmark_geometry(self):
        # 3705 controls on 69 lines; slopes of 0.4 keep the controls with
        # |a_i| <= 0.4 + mesh/2, 4.08 meshes: 9 lines of 9 steps, where a
        # silent fallback to the whole lattice would keep 69 lines
        x = self.GRID.nodes
        field = 0.4 * (np.abs(x[:, 0] - 0.3) + np.abs(x[:, 1] + 0.5))
        lattice, box = self.box(self.GRID, field, self.DT, self.RADIUS, self.MESH)
        assert lattice.controls.shape[0] == 3705 and lattice.half.size == 69
        np.testing.assert_array_equal(box.half, np.full(9, 4))
        points = np.random.default_rng(59).uniform(-1.0, 1.0, size=(40, 2))
        self.assert_matches_the_full_lattice(self.GRID, field, self.DT, self.RADIUS, self.MESH, points)


class TestLineFilter:
    """The 2D line filter in front of the cell stage of the bracketed argmin."""

    GRID = SpatialGrid((-1.0, -1.0), (1.0, 1.0), (16, 16))

    @staticmethod
    def kept_lines(field, points, dt, radius, mesh):
        """Kept (point, line) mask, full-lattice objective, line of each control."""
        grid = TestLineFilter.GRID
        controls = control_lattice(2, radius, mesh)
        pairs = _line_filter(grid, points, _Lattice.of(controls, mesh, dt))(field.reshape(grid.shape))
        line_of = np.unique(np.rint(controls[:, 1] / mesh), return_inverse=True)[1]
        kept = np.zeros((points.shape[0], line_of.max() + 1), dtype=bool)
        kept[pairs.who, pairs.line] = True
        q = full_lattice_objective(grid, points, dt, controls)(field.reshape(grid.shape))
        return kept, q, line_of

    @classmethod
    def random_case(cls, kind, dt, rng):
        # 51 lines reaching 4 cells; the nodes, with the edge ones reaching
        # the clamp and escape zones, and off-node points
        radius = 4.0 * cls.GRID.max_spacing / dt
        points = np.concatenate([cls.GRID.nodes, rng.uniform(-0.9, 0.9, size=(60, 2))])
        return cls.kept_lines(node_field(kind, cls.GRID, 1.0, rng), points, dt, radius, radius / 25)

    @staticmethod
    def assert_minimiser_lines_kept(kept, q, line_of):
        # every control that ties with the least value keeps its line
        who, control = np.nonzero(q == q.min(axis=1, keepdims=True))
        assert kept[who, line_of[control]].all()

    @pytest.mark.parametrize("dt", [0.05, 0.2])
    @pytest.mark.parametrize("kind", ["convex", "concave", "kink", "noise", "flat"])
    def test_never_drops_the_line_of_a_minimiser(self, kind, dt):
        rng = np.random.default_rng([11, len(kind), int(dt * 100)])
        self.assert_minimiser_lines_kept(*self.random_case(kind, dt, rng))

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_keeps_a_drop_in_the_farthest_reachable_cell(self, side):
        # the lines reach 2.5 cells: from 8.9 the point reaches 11.4, inside
        # cell 11, the last of the four cells of its right window; there u
        # falls steeply on the rows above the point, so only lines that climb
        # to those rows gain (or the mirror image, to the left)
        grid, dt = self.GRID, 0.05
        radius = 2.5 * grid.max_spacing / dt
        i, j = np.unravel_index(np.arange(grid.n_nodes), grid.shape)
        t0 = 8.9
        if side == "left":
            t0, i = 16 - t0, 16 - i
        point = grid.lower_array + np.array([t0, 8.0]) * grid.spacing
        field = np.where((i >= 12) & (j >= 9), -10.0, 0.0)
        kept, q, line_of = self.kept_lines(field, point[None, :], dt, radius, radius / 10)
        assert line_of[q.argmin()] != line_of[0]  # not the line of the zero control
        self.assert_minimiser_lines_kept(kept, q, line_of)

    @pytest.mark.parametrize("dt", [0.05, 0.2])
    def test_drops_most_lines_of_a_convex_field(self, dt):
        kept, _, _ = self.random_case("convex", dt, np.random.default_rng(5))
        assert kept.mean() < 0.5
        assert kept.any(axis=1).all()


class TestFirstLeast:
    """Per (cell, point) column: the row of the first least value over the
    sorted lattice, as np.argmin over it picks."""

    @staticmethod
    def oracle(q, index):
        nan = np.isnan(q)
        rows = np.arange(q.shape[0])
        # np.lexsort sorts by its last key first: NaNs, then value, then
        # sorted-lattice index, then row
        return np.array([
            np.lexsort((rows, index[:, p], np.where(nan[:, p], 0.0, q[:, p]), ~nan[:, p]))[0]
            for p in range(q.shape[1])
        ])

    def test_crafted_ties_and_nans(self):
        nan, inf = np.nan, np.inf
        q = np.array([
            [3.0, 2.0, 1.0, inf],
            [1.0, 0.5, nan, inf],
            [1.0, 0.5, 0.0, inf],
            [2.0, inf, nan, inf],
        ])
        index = np.array([
            [5, 3, 2, 4],
            [9, 7, 8, 2],
            [4, 7, 1, 2],
            [1, 0, 6, 9],
        ])
        # a tie across cells goes to the smaller index, a tie at one index
        # to the first row, a NaN column to its first NaN by index
        expected = [2, 1, 3, 1]
        np.testing.assert_array_equal(_first_least(q, index, 20), expected)
        np.testing.assert_array_equal(self.oracle(q, index), expected)

    def test_random_blocks_match_the_oracle(self):
        rng = np.random.default_rng(4)
        for cells in (1, 2, 6, 20):
            q = rng.integers(0, 3, size=(cells, 300)).astype(float)
            q[rng.random(q.shape) < 0.05] = np.nan
            q[rng.random(q.shape) < 0.1] = np.inf
            index = rng.integers(0, 4, size=q.shape)
            np.testing.assert_array_equal(_first_least(q, index, 4), self.oracle(q, index))


class TestControlLattice:
    def test_1d_order_oracle(self):
        lat = control_lattice(1, 0.05, 0.02)
        np.testing.assert_allclose(lat.ravel(), [0.0, -0.02, 0.02, -0.04, 0.04])

    def test_2d_order_oracle(self):
        lat = control_lattice(2, 0.1, 0.1)
        expect = [[0.0, 0.0], [-0.1, 0.0], [0.0, -0.1], [0.0, 0.1], [0.1, 0.0]]
        np.testing.assert_allclose(lat, expect)

    @pytest.mark.parametrize(
        "dim, radius, mesh",
        [(1, 3.82, 0.02), (1, 0.05, 0.02), (2, 1.0, 0.9), (2, 2.5, 0.25), (2, 3.83, 0.11)],
    )
    def test_order_is_the_squared_norm_then_lexicographic_key(self, dim, radius, mesh):
        n = int(np.floor(radius / mesh + 1e-12))
        axis = np.arange(-n, n + 1, dtype=float) * mesh
        pts = np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")], axis=-1)
        sq = (pts * pts).sum(axis=1)
        pts, sq = pts[sq <= radius * radius + 1e-12], sq[sq <= radius * radius + 1e-12]
        order = sorted(range(len(pts)), key=lambda i: (sq[i], *pts[i]))
        np.testing.assert_array_equal(control_lattice(dim, radius, mesh), pts[order])

    def test_radius_filter(self):
        lat = control_lattice(2, 1.0, 0.9)
        norms = np.sqrt((lat * lat).sum(axis=1))
        assert norms.max() <= 1.0 + 1e-12
        assert len(lat) == 5  # diagonal 0.9 sqrt(2) > 1 excluded

    def test_defaults(self):
        F = lqr_oracle(dim=1)
        assert default_control_radius(F) == pytest.approx(np.sqrt(4.0 * F.m_bound) + 1.0)
        g = SpatialGrid((-2.0,), (2.0,), (100,))
        assert default_control_mesh(g, 0.01) == pytest.approx(0.5 * max(0.04, 0.1))
        assert default_control_mesh(g, 1e-4) == pytest.approx(0.5 * 0.04)


class TestBackwardValues:
    def test_flat_cost_exact_value_and_policy(self):
        # constant F: waiting is optimal, u(x, t) = c (T - t) everywhere
        c = 0.7
        F = flat_cost(c)
        g = SpatialGrid((-2.0,), (2.0,), (40,))
        path = constant_path(DiscreteMeasure.dirac([0.0]), 1.0, 0.1)
        value = solve_hjb_backward(F, path, g, 0.1)
        for k, t in enumerate(value.times):
            np.testing.assert_allclose(value.values[k], c * (1.0 - t), atol=1e-12)
        moved = value.controls[value.policy]
        np.testing.assert_array_equal(moved, np.zeros_like(moved))

    def test_argmin_tie_breaks_toward_first_lattice_control(self):
        # two symmetric optimal controls at the ridge top: the sorted
        # lattice puts the negative one first and argmin keeps it
        F = ridge_cost()
        g = SpatialGrid((-1.0,), (1.0,), (20,))
        path = constant_path(DiscreteMeasure.dirac([0.0]), 0.2, 0.1)
        value = solve_hjb_backward(F, path, g, 0.1, control_radius=1.0, control_mesh=0.5)
        node0 = g.nearest_node_index([[0.0]])[0]
        alpha = value.controls[value.policy[0, node0]]
        assert alpha[0] == -0.5

    def test_riccati_coarse(self):
        # F = |x|^2/2 has value u(x, t) = |x|^2 tanh(T - t) / 2
        F = lqr_oracle(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (100,))
        path = constant_path(DiscreteMeasure.dirac([0.0]), 1.0, 0.01)
        value = solve_hjb_backward(F, path, g, 0.01)
        x = g.nodes[:, 0]
        inner = np.abs(x) <= 1.0
        exact = 0.5 * x[inner] ** 2 * np.tanh(1.0)
        err = np.abs(value.values[0][inner] - exact).max()
        assert err <= 0.02

    def test_riccati_coarse_2d(self):
        F = lqr_oracle(dim=2)
        g = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (40, 40))
        path = constant_path(DiscreteMeasure.dirac([0.0, 0.0]), 0.5, 0.05)
        value = solve_hjb_backward(F, path, g, 0.05, control_radius=2.5, control_mesh=0.25)
        r2 = (g.nodes**2).sum(axis=1)
        inner = r2 <= 1.0
        exact = 0.5 * r2[inner] * np.tanh(0.5)
        err = np.abs(value.values[0].ravel()[inner] - exact).max()
        assert err <= 0.05

    def test_parked_origin_accumulates_exactly(self):
        # zero is a lattice control and the origin a node, so the scheme
        # reproduces u(0, t) = c* (T - t) with no drift at all
        for F, c_star in ((quadratic_congestion(dim=1), 0.0), (lqr_oracle(dim=1, c_star=1.0), 1.0)):
            g = SpatialGrid((-2.0,), (2.0,), (100,))
            path = constant_path(DiscreteMeasure.dirac([0.0]), 2.0, 0.05)
            value = solve_hjb_backward(F, path, g, 0.05)
            node0 = g.nearest_node_index([[0.0]])[0]
            for k, t in enumerate(value.times):
                assert value.values[k].ravel()[node0] == pytest.approx(
                    c_star * (2.0 - t), abs=1e-12
                )

    def test_nan_cost_keeps_the_policy_on_the_lattice(self):
        def ev(pts, m):
            return np.where(np.abs(pts[:, 0] - 0.5) < 1e-9, np.nan, 1.0)

        F = CostFunctional(
            name="nan_node", dim=1, evaluator=ev, m_bound=1.0,
            core_lower=(-1.0,), core_upper=(1.0,), gap=0.0,
        )
        g = SpatialGrid((-2.0,), (2.0,), (40,))
        value = solve_hjb_backward(F, constant_path(DiscreteMeasure.dirac([0.0]), 0.5, 0.1), g, 0.1)
        assert np.isnan(value.values[0]).any()
        assert 0 <= value.policy.min() and value.policy.max() < len(value.controls)

    def test_infinite_cost_wider_than_the_reach_is_a_solver_error(self):
        # the zero control's foot is the node itself, so an infinite minimum
        # means +inf at every foot the node reaches, not an escape
        def ev(pts, m):
            return np.where(np.abs(pts[:, 0]) < 1.0, np.inf, 0.0)

        F = CostFunctional(
            name="inf_core", dim=1, evaluator=ev, m_bound=1.0,
            core_lower=(-1.0,), core_upper=(1.0,), gap=0.0,
        )
        g = SpatialGrid((-2.0,), (2.0,), (40,))
        path = constant_path(DiscreteMeasure.dirac([0.0]), 0.5, 0.1)
        # the kernel's inf - inf is NaN by design, and the run prints no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match=r"\+inf at every foot that node \[-0\.79"):
                solve_hjb_backward(F, path, g, 0.1, control_radius=1.0, control_mesh=0.1)

    def test_nan_cost_keeps_the_policy_on_the_lattice_2d(self, monkeypatch):
        # a value slice with a NaN node: the line filter keeps every line,
        # so HJB and transport give what the cell stage gives on every line
        dt = 0.1
        g = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (20, 20))
        nan_node = np.abs(g.nodes - 0.4).max(axis=1) < 1e-9
        fields = [np.zeros(g.n_nodes), np.where(nan_node, np.nan, 0.0)]
        F, path = slice_cost(fields, dt, 2), indexed_path(2, dt, 2)
        far = np.random.default_rng(3).uniform(-1.2, -0.8, size=(10, 2))
        m_far = DiscreteMeasure(far, np.full(10, 0.1))
        m_nan = DiscreteMeasure(g.nodes[nan_node], np.ones(1))

        def solve():
            value = solve_hjb_backward(F, path, g, dt)
            flow, _ = transport_forward(value, m_far)
            with pytest.raises(DomainEscapeError, match="no feasible control"):
                transport_forward(value, m_nan)
            return value, flow

        value, flow = solve()
        assert np.isnan(value.values[1]).sum() == 1 and np.isnan(value.values[0]).sum() > 1
        assert 0 <= value.policy.min() and value.policy.max() < len(value.controls)
        assert np.isfinite(flow.positions).all()

        line_filter = finite_horizon._line_filter

        def every_line(grid, points, lattice):
            keep = line_filter(grid, points, lattice)

            def pairs(field):
                kept = keep(np.full(grid.shape, np.nan))
                assert kept.who.size == points.shape[0] * lattice.half.size
                return kept

            return pairs

        monkeypatch.setattr(finite_horizon, "_line_filter", every_line)
        every_value, every_flow = solve()
        np.testing.assert_array_equal(value.values, every_value.values)
        np.testing.assert_array_equal(value.policy, every_value.policy)
        np.testing.assert_array_equal(flow.positions, every_flow.positions)

    def test_one_node_evaluation_per_distinct_measure(self):
        F, rows = counting(quadratic_congestion(dim=1))
        g = SpatialGrid((-2.0,), (2.0,), (40,))
        path = constant_path(DiscreteMeasure.uniform([[-0.5], [0.25]]), 1.0, 0.1)
        solve_hjb_backward(F, path, g, 0.1)
        assert rows == [g.n_nodes]
        positions = path.positions.copy()
        positions[3:, 0, 0] += 0.1  # slot 0 moves at step 3
        positions[7:, 1, 0] -= 0.2  # slot 1 moves at step 7
        rows.clear()
        solve_hjb_backward(F, MeasurePath(path.times, positions, path.weights), g, 0.1)
        assert rows == [g.n_nodes] * 3

    def test_reused_slices_match_the_per_step_evaluation(self):
        # a flow that parks on the argmin set: most steps repeat the next one
        F = quadratic_congestion(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (100,))
        m0 = DiscreteMeasure.uniform([[-0.6], [-0.1], [0.0], [0.45]])
        first = solve_hjb_backward(F, constant_path(m0, 2.0, 0.05), g, 0.05)
        flow, _ = transport_forward(first, m0)
        repeats = [np.array_equal(flow.positions[k], flow.positions[k + 1]) for k in range(39)]
        assert 0 < sum(repeats) < 39
        counted, rows = counting(F)
        value = solve_hjb_backward(counted, flow, g, 0.05)
        assert len(rows) == 40 - sum(repeats)
        stack = np.stack([F.evaluate_many(g.nodes, flow.measure_at(k)) for k in range(40)])
        np.testing.assert_array_equal(value.f_slices, stack.reshape(value.f_slices.shape))

    def test_alignment_errors(self):
        F = lqr_oracle(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (40,))
        bad_T = MeasurePath.constant(DiscreteMeasure.dirac([0.0]), [0.0, 0.3])
        with pytest.raises(ValueError, match="does not divide"):
            solve_hjb_backward(F, bad_T, g, 0.2)
        skewed = MeasurePath.constant(DiscreteMeasure.dirac([0.0]), [0.0, 0.05, 0.2])
        with pytest.raises(ValueError, match="align"):
            solve_hjb_backward(F, skewed, g, 0.1)

    def test_value_field_accessors(self):
        F = flat_cost(1.0)
        g = SpatialGrid((-2.0,), (2.0,), (40,))
        path = constant_path(DiscreteMeasure.dirac([0.0]), 1.0, 0.25)
        value = solve_hjb_backward(F, path, g, 0.25)
        assert value.n_steps == 4
        assert value.dt == pytest.approx(0.25)
        assert value.times[-1] == pytest.approx(1.0)
        assert g.interpolate_many(value.values[0], [[0.37]])[0] == pytest.approx(1.0, abs=1e-12)


class TestAPriori:
    def test_structural_bounds_hold(self):
        F = lqr_oracle(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (100,))
        path = constant_path(DiscreteMeasure.dirac([0.0]), 1.0, 0.02)
        value = solve_hjb_backward(F, path, g, 0.02)
        report = a_priori_report(value, F)
        assert report["grad_max"] <= report["grad_bound"]
        # discrete sandwich: inf F <= u / (T - t) <= sup F along the path
        assert report["low_gap"] >= -1e-10
        assert report["high_gap"] <= 1e-10
        assert report["eps"] == pytest.approx(10.0 * (g.max_spacing + 0.02))
        assert report["dt_rate_max"] <= report["f_max"] + 1e-10


class TestTransport:
    def make_riccati_value(self, dt=0.02, T=1.0):
        F = lqr_oracle(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (200,))
        path = constant_path(DiscreteMeasure.dirac([0.0]), T, dt)
        return F, g, solve_hjb_backward(F, path, g, dt)

    def test_contraction_toward_origin(self):
        F, g, value = self.make_riccati_value()
        m0 = DiscreteMeasure.uniform([[-1.0], [-0.5], [0.8]])
        path, stats = transport_forward(value, m0)
        start = np.abs(path.positions[0, :, 0])
        end = np.abs(path.positions[-1, :, 0])
        assert np.all(end <= 0.8 * start + g.max_spacing)

    def test_trajectory_stats(self):
        F, g, value = self.make_riccati_value()
        m0 = DiscreteMeasure.uniform([[-1.0], [0.5]])
        path, stats = transport_forward(value, m0, core_box=(F.core_lower, F.core_upper))
        assert stats.chi_hat == pytest.approx(1.0)  # contraction never overshoots
        assert stats.chi_prime_hat <= default_control_radius(F) + 1e-12
        assert stats.sup_position.shape == (2,)
        assert stats.r1_hat == pytest.approx(0.5)  # start at -1, core box radius 0.5

    def test_weights_and_times_preserved(self):
        F, g, value = self.make_riccati_value(dt=0.1, T=1.0)
        m0 = DiscreteMeasure([[-0.7], [0.3]], [0.25, 0.75])
        path, _ = transport_forward(value, m0)
        np.testing.assert_array_equal(path.weights, m0.weights)
        np.testing.assert_allclose(path.times, value.times)
        assert path.positions.shape == (11, 2, 1)

    def test_boundary_margin_guard_at_start(self):
        F, g, value = self.make_riccati_value(dt=0.1, T=0.2)
        with pytest.raises(DomainEscapeError) as err:
            transport_forward(value, DiscreteMeasure.dirac([1.99]))
        assert err.value.time_index == 0
        assert "boundary" in str(err.value)

    def test_boundary_margin_guard_is_exact_at_the_margin(self):
        # spacing 0.25: the margin 0.5 and every gap below are exact
        g = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (16, 16))
        at_margin = np.array([[-1.5, -1.5], [1.5, 1.5], [0.0, 0.0]])
        _assert_away_from_boundary(at_margin, g, 3)
        inside_lo, inside_hi = np.nextafter(-1.5, 0.0), np.nextafter(1.5, 0.0)
        for y in (np.nextafter(-1.5, -2.0), np.nextafter(1.5, 2.0)):
            points = np.array([[-1.5, inside_lo], [1.5, inside_hi], [0.0, y], [-1.5, y]])
            with pytest.raises(DomainEscapeError) as err:
                _assert_away_from_boundary(points, g, 3)
            assert err.value.point == (0.0, y)
            assert err.value.time_index == 3
            assert str(err.value).startswith("particle 2 at ")

    def test_boundary_margin_guard_in_flight(self):
        # a ridge cost drives particles outward until the margin trips
        F = ridge_cost()
        g = SpatialGrid((-1.0,), (1.0,), (40,))
        path = constant_path(DiscreteMeasure.dirac([0.0]), 1.0, 0.1)
        value = solve_hjb_backward(F, path, g, 0.1, control_radius=5.0, control_mesh=0.5)
        with pytest.raises(DomainEscapeError) as err:
            transport_forward(value, DiscreteMeasure.dirac([0.5]))
        assert err.value.time_index >= 1


class TestCheckpoints:
    def test_small_step_counts_keep_everything(self):
        np.testing.assert_array_equal(checkpoint_indices(8), np.arange(9))
        np.testing.assert_array_equal(checkpoint_indices(4), np.arange(5))
        np.testing.assert_array_equal(checkpoint_indices(1), [0, 1])

    def test_large_step_counts_subsample(self):
        idx = checkpoint_indices(400)
        assert len(idx) == 9
        assert idx[0] == 0 and idx[-1] == 400
        assert np.all(np.diff(idx) > 0)


class TestSolveMfg:
    def test_measure_independent_cost_converges_in_two_passes(self):
        F = two_wells(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (100,))
        m0 = DiscreteMeasure.uniform([[-0.4], [0.2], [0.6]])
        eq = solve_mfg(F, m0, 1.0, g, 0.05, tol=1e-9)
        assert eq.converged
        assert eq.iterations == 2
        assert eq.br_residual == 0.0
        assert len(eq.trace) == 2

    def test_flow_path_is_pure_transport_of_value(self):
        F = quadratic_congestion(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (100,))
        m0 = DiscreteMeasure.uniform([[-0.5], [0.3]])
        eq = solve_mfg(F, m0, 1.0, g, 0.05)
        regenerated, _ = transport_forward(eq.value, m0, core_box=(F.core_lower, F.core_upper))
        np.testing.assert_array_equal(regenerated.positions, eq.flow_path.positions)

    def test_quadratic_congestion_relaxes_to_origin(self):
        F = quadratic_congestion(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (100,))
        m0 = DiscreteMeasure.uniform([[-0.8], [0.6]])
        eq = solve_mfg(F, m0, 4.0, g, 0.05, tol=5e-3)
        assert eq.converged
        assert eq.br_residual <= 5e-3
        mid = eq.flow_path.measure_at(eq.flow_path.n_times // 2)
        assert wasserstein1(mid, DiscreteMeasure.dirac([0.0])) <= 0.1

    def test_divisibility_guard(self):
        F = quadratic_congestion(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (40,))
        with pytest.raises(ValueError, match="does not divide"):
            solve_mfg(F, DiscreteMeasure.dirac([0.0]), 1.0, g, 0.3)

    def test_trace_and_metadata(self):
        F = quadratic_congestion(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (100,))
        eq = solve_mfg(F, DiscreteMeasure.dirac([0.5]), 1.0, g, 0.1, seed=3)
        ks, brs, steps = zip(*eq.trace)
        assert list(ks) == list(range(len(ks)))
        # Kantorovich-Rubinstein: the harmonic damped step is br / (k + 1)
        for k, br, step in eq.trace:
            assert step == pytest.approx(br / (k + 1), abs=1e-12)
        assert eq.w1_capped is False
        assert eq.checkpoints[-1] == eq.value.n_steps

    def test_logs_each_iteration_and_the_stop_reason(self, caplog):
        F = quadratic_congestion(dim=1)
        g = SpatialGrid((-2.0,), (2.0,), (100,))
        m0 = DiscreteMeasure.dirac([0.5])
        with caplog.at_level("DEBUG", logger="mfglab.finite_horizon"):
            eq = solve_mfg(F, m0, 1.0, g, 0.1, tol=1e-2)
            stopped = solve_mfg(F, m0, 1.0, g, 0.1, tol=1e-2, max_iter=1)
        assert eq.converged and not stopped.converged
        records = [r for r in caplog.records if r.name == "mfglab.finite_horizon"]
        debug = [r.getMessage() for r in records if r.levelname == "DEBUG"]
        info = [r.getMessage() for r in records if r.levelname == "INFO"]
        assert len(debug) == eq.iterations + stopped.iterations
        assert debug[0] == f"mfg iteration 0: br_residual {eq.trace[0][1]:.3e}, lambda 1"
        assert info == [
            f"mfg solve converged at iteration {eq.iterations - 1}: br_residual {eq.br_residual:.3e} <= tol 1.000e-02",
            f"mfg solve reached max_iter 1: best br_residual {stopped.br_residual:.3e} > tol 1.000e-02",
        ]


class TestOccupational:
    def setup_method(self):
        self.F = quadratic_congestion(dim=1)
        self.g = SpatialGrid((-2.0,), (2.0,), (100,))
        self.path = constant_path(DiscreteMeasure.dirac([0.0]), 1.0, 0.1)

    def test_parked_at_minimum_never_occupied(self):
        traj = np.zeros((11, 1, 1))
        assert occupational_fractions(traj, self.F, self.path, 0.1, self.g)[0] == 0.0

    def test_parked_far_always_occupied(self):
        traj = np.ones((11, 1, 1))
        assert occupational_fractions(traj, self.F, self.path, 0.1, self.g)[0] == 1.0

    def test_half_time_fraction(self):
        traj = np.concatenate([np.ones((5, 1, 1)), np.zeros((6, 1, 1))])
        rho = occupational_fractions(traj, self.F, self.path, 0.1, self.g)
        assert rho[0] == pytest.approx(0.5)

    def test_quantifies_over_all_sampled_measures(self):
        # occupied means delta-suboptimal against EVERY sampled slice
        def ev(pts, m):
            center = float(m.mean()[0])
            return np.abs(pts[:, 0] - center)

        F = CostFunctional(
            name="mean_chase", dim=1, evaluator=ev, m_bound=4.0,
            core_lower=(-2.0,), core_upper=(2.0,), gap=0.0,
        )
        times = np.array([0.0, 0.5, 1.0])
        pos = np.array([[[0.0]], [[0.5]], [[1.0]]])  # mean drifts 0 -> 1
        path = MeasurePath(times, pos, np.array([1.0]))
        parked = np.tile([[1.0], [-1.0]], (3, 1, 1))  # one point at +1, one at -1
        rho = occupational_fractions(parked, F, path, 0.5, self.g, measure_indices=[0, 2])
        # +1 is close to the final mean, so not uniformly far
        np.testing.assert_array_equal(rho, [0.0, 1.0])

    def test_fractions_vector_shape_and_range(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(-1, 1, size=(11, 7, 1))
        rho = occupational_fractions(positions, self.F, self.path, 0.05, self.g)
        assert rho.shape == (7,)
        assert np.all((0.0 <= rho) & (rho <= 1.0))

    def test_matches_per_point_oracle(self):
        # a crowd sweeping across the well against points in the band where
        # the congestion factor decides: points leave at different slices
        rng = np.random.default_rng(3)
        centers = np.linspace(-1.0, 1.0, 11)[:, None, None]
        path = MeasurePath(
            np.linspace(0.0, 1.0, 11),
            centers + 0.2 * rng.standard_normal((11, 6, 1)),
            np.full(6, 1.0 / 6.0),
        )
        positions = rng.choice([-1.0, 1.0], size=(13, 9, 1)) * rng.uniform(0.3, 0.7, size=(13, 9, 1))
        indices, delta = [1, 4, 7, 10], 0.25
        fbar = np.empty((len(indices), 13, 9))
        for a, j in enumerate(indices):
            m_j = path.measure_at(j)
            c_j = self.F.evaluate_many(self.g.nodes, m_j).min()
            for t in range(13):
                for s in range(9):
                    fbar[a, t, s] = self.F.evaluate(positions[t, s], m_j) - c_j
        occupied = fbar.min(axis=0) >= delta
        first_exit = np.argmax(fbar < delta, axis=0)[~occupied]
        assert 0.0 < occupied.mean() < 1.0 and first_exit.max() > 0
        rho = occupational_fractions(positions, self.F, path, delta, self.g, measure_indices=indices)
        np.testing.assert_array_equal(rho, occupied[:-1].mean(axis=0))

    def test_stationary_runs_match_per_point_oracle(self):
        # slots that park, stop, return to an earlier point or never rest,
        # against a path whose checkpoints 4 and 7 are the same measure
        rng = np.random.default_rng(8)
        centers = np.linspace(-1.0, 1.0, 11)[:, None, None]
        crowd = centers + 0.2 * rng.standard_normal((11, 6, 1))
        crowd[7] = crowd[4]
        path = MeasurePath(np.linspace(0.0, 1.0, 11), crowd, np.full(6, 1.0 / 6.0))
        signs = rng.choice([-1.0, 1.0], size=(13, 6, 1))
        positions = signs * rng.uniform(0.3, 0.7, size=(13, 6, 1))
        positions[:, 0] = 0.45  # parked
        positions[:, 1] = -0.6  # parked
        positions[5:, 2] = positions[4, 2]  # stops at step 4
        positions[3:6, 3] = positions[2, 3]  # rests, moves, then returns
        positions[9:, 3] = positions[0, 3]
        indices, delta = [1, 4, 7, 10], 0.25
        fbar = np.empty((len(indices), 13, 6))
        for a, j in enumerate(indices):
            m_j = path.measure_at(j)
            c_j = self.F.evaluate_many(self.g.nodes, m_j).min()
            for t in range(13):
                for s in range(6):
                    fbar[a, t, s] = self.F.evaluate(positions[t, s], m_j) - c_j
        occupied = fbar.min(axis=0) >= delta
        assert 0.0 < occupied.mean() < 1.0
        assert occupied[:, 3].any() and not occupied[:, 3].all()
        F, rows = counting(self.F)
        rho = occupational_fractions(positions, F, path, delta, self.g, measure_indices=indices)
        np.testing.assert_array_equal(rho, occupied[:-1].mean(axis=0))
        # checkpoint 7 repeats checkpoint 4: three slices, and the first
        # tests only the 1 + 1 + 5 + 7 + 13 + 13 points where a slot moved
        assert rows.count(self.g.n_nodes) == 3
        assert rows[:2] == [self.g.n_nodes, 40]

    def test_fbar_equal_to_delta_is_occupied(self):
        def ev(pts, m):
            return np.abs(pts[:, 0])

        F = CostFunctional(
            name="abs", dim=1, evaluator=ev, m_bound=2.0,
            core_lower=(-2.0,), core_upper=(2.0,), gap=0.0,
        )
        traj = np.full((11, 1, 1), 0.25)  # the grid holds 0, so fbar is exactly 0.25
        assert occupational_fractions(traj, F, self.path, 0.25, self.g)[0] == 1.0

    def test_no_evaluation_after_every_point_has_left(self):
        rows = []

        def ev(pts, m):
            rows.append(pts.shape[0])
            return np.abs(pts[:, 0] - float(m.mean()[0]))

        F = CostFunctional(
            name="mean_chase", dim=1, evaluator=ev, m_bound=4.0,
            core_lower=(-2.0,), core_upper=(2.0,), gap=0.0,
        )
        ramp = np.linspace(0.0, 1.0, 11)
        path = MeasurePath(ramp, ramp.reshape(11, 1, 1), np.array([1.0]))  # mean drifts 0 -> 1
        positions = np.zeros((11, 3, 1))  # at the first slice's mean: fbar 0 there
        rho = occupational_fractions(positions, F, path, 0.1, self.g)
        np.testing.assert_array_equal(rho, np.zeros(3))
        # one slice: its nodes, then each parked slot once
        assert rows == [self.g.n_nodes, 3]
