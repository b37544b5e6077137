"""Static equilibria via damped best response, with brute-force cross-checks."""

import itertools

import numpy as np
import pytest

from mfglab import (
    CostFunctional,
    DiscreteMeasure,
    SpatialGrid,
    best_response,
    constant_damping,
    harmonic_damping,
    residual,
    slice_stats,
    solve_static,
    static_game,
    wasserstein1,
)
from mfglab.cost_models import quadratic_congestion, two_wells


def grid_1d(n=200, lo=-2.0, hi=2.0):
    return SpatialGrid((lo,), (hi,), (n,))


def simplex_mesh(k, steps=20):
    """All weight vectors on the k-simplex with coordinates i/steps."""
    for combo in itertools.combinations(range(steps + k - 1), k - 1):
        parts = np.diff([-1, *combo, steps + k - 1]) - 1
        yield parts / steps


def brute_force_residual(F, support_points, grid, steps=20):
    """Smallest residual over mesh weights on a fixed support."""
    pts = np.atleast_2d(support_points)
    best = np.inf
    for w in simplex_mesh(pts.shape[0], steps):
        keep = w > 0
        m = DiscreteMeasure(pts[keep], w[keep])
        best = min(best, residual(F, m, slice_stats(F, m, grid)))
    return best


class TestResidualOracles:
    def test_dirac_off_minimum(self):
        # m = delta_{0.5}: the particle pays F(0.5, m) = (1 - e^{-0.25}) g(1)
        # while the slice minimum sits at the origin with value 0
        F = quadratic_congestion(dim=1)
        g = grid_1d()
        m = DiscreteMeasure.dirac([0.5])
        expect = (1.0 - np.exp(-0.25)) * 1.5
        assert residual(F, m, slice_stats(F, m, g)) == pytest.approx(expect, abs=1e-12)

    def test_mixture_hand_formula(self):
        F = quadratic_congestion(dim=1)
        g = grid_1d()
        m = DiscreteMeasure.uniform([[0.0], [1.0]])
        interaction = 0.5 * np.exp(-1.0) + 0.5
        f1 = 1.0 - np.exp(-1.0)
        expect = 0.5 * f1 * (1.0 + interaction / (1.0 + interaction))
        assert residual(F, m, slice_stats(F, m, g)) == pytest.approx(expect, abs=1e-12)

    def test_equilibrium_residual_zero(self):
        F = quadratic_congestion(dim=1)
        m = DiscreteMeasure.dirac([0.0])
        assert residual(F, m, slice_stats(F, m, grid_1d())) == 0.0

    def test_off_lattice_particle_stays_nonnegative(self):
        # particle below every grid node's value: reference min uses it
        F = quadratic_congestion(dim=1)
        g = grid_1d(7)  # crude grid without a node at the origin
        m = DiscreteMeasure.dirac([0.01])
        assert residual(F, m, slice_stats(F, m, g)) >= 0.0


class TestBestResponse:
    def test_uniform_mode_spreads_over_argmin(self):
        F = two_wells(dim=1)
        m = DiscreteMeasure.dirac([0.0])
        br = best_response(m, slice_stats(F, m, grid_1d(), eps_min=1e-9))
        np.testing.assert_allclose(sorted(br.points.ravel()), [-1.0, 1.0])
        np.testing.assert_allclose(br.weights, [0.5, 0.5])

    def test_project_mode_keeps_weights(self):
        F = two_wells(dim=1)
        m = DiscreteMeasure([[-0.4], [0.8]], [0.3, 0.7])
        br = best_response(m, slice_stats(F, m, grid_1d(), eps_min=1e-9), mode="project")
        order = np.argsort(br.points.ravel())
        np.testing.assert_allclose(br.points.ravel()[order], [-1.0, 1.0])
        np.testing.assert_allclose(br.weights[order], [0.3, 0.7])

    def test_unknown_mode(self):
        F = two_wells(dim=1)
        with pytest.raises(ValueError, match="mode"):
            m = DiscreteMeasure.dirac([0.0])
            best_response(m, slice_stats(F, m, grid_1d()), mode="softmax")


class TestSolveStatic:
    def test_two_wells_converges_immediately(self):
        F = two_wells(dim=1)
        res = solve_static(F, grid_1d(), DiscreteMeasure.dirac([0.3]), eps_min=1e-9)
        assert res.converged
        assert res.residual <= 1e-12
        assert res.iterations <= 2
        np.testing.assert_allclose(sorted(res.measure.points.ravel()), [-1.0, 1.0])

    def test_quadratic_congestion_collapses_to_origin(self):
        F = quadratic_congestion(dim=1)
        res = solve_static(F, grid_1d(), DiscreteMeasure.dirac([1.0]), eps_min=1e-9)
        assert res.converged
        assert res.residual <= 1e-12
        assert wasserstein1(res.measure, DiscreteMeasure.dirac([0.0])) <= 1e-12

    def test_2d_collapse(self):
        F = quadratic_congestion(dim=2)
        g = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (40, 40))
        res = solve_static(F, g, DiscreteMeasure.dirac([1.0, -1.0]), eps_min=1e-9)
        assert res.converged
        assert res.residual <= 1e-9
        np.testing.assert_allclose(res.measure.points, [[0.0, 0.0]], atol=1e-12)

    def test_history_rows_are_complete(self):
        F = quadratic_congestion(dim=1)
        res = solve_static(F, grid_1d(), DiscreteMeasure.dirac([1.0]), eps_min=1e-9)
        assert len(res.history) >= 1
        ks, residuals, steps = zip(*res.history)
        assert list(ks) == list(range(len(ks)))
        assert all(r >= 0 for r in residuals)
        assert np.isnan(steps[0])

    def test_brute_force_simplex_agreement(self):
        # the solver result is at least as good as any mesh reweighting of
        # its own support nodes
        for F in (quadratic_congestion(dim=1), two_wells(dim=1)):
            g = grid_1d()
            res = solve_static(F, g, DiscreteMeasure.dirac([0.7]), eps_min=1e-9)
            assert res.measure.size <= 4
            oracle = brute_force_residual(F, res.measure.points, g)
            assert res.residual <= oracle + 1e-6

    def test_default_eps_min_plateau_is_not_converged(self):
        # the lattice-flatness tolerance widens the argmin, so the residual
        # plateaus above tol: a small step is no certificate
        F = quadratic_congestion(dim=1)
        res = solve_static(F, grid_1d(), DiscreteMeasure.dirac([1.0]), tol=1e-3)
        assert not res.converged
        assert 1e-3 < res.residual <= 0.05


class AntiCoordination:
    """Agents pay to sit near the current mean: best responses oscillate."""


def anti_coordination_cost():
    def ev(pts, m):
        center = float(m.mean()[0])
        return np.exp(-((pts[:, 0] - center) ** 2))

    return CostFunctional(
        name="anti_coordination", dim=1, evaluator=ev, m_bound=1.0,
        core_lower=(-2.0,), core_upper=(2.0,), gap=0.0,
    )


class TestNonConvergence:
    def test_oscillation_is_reported_not_raised(self):
        F = anti_coordination_cost()
        g = grid_1d(40)
        res = solve_static(
            F, g, DiscreteMeasure.dirac([0.5]),
            damping_schedule=constant_damping(1.0),
            tol=1e-9, max_iter=25, eps_min=1e-9,
        )
        assert not res.converged
        assert res.iterations == 24  # the last residual check takes no step
        assert len(res.history) == 25
        assert res.residual > 1e-3  # genuinely stuck, best iterate still bad

    def test_last_pass_takes_no_step(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return best_response(*args, **kwargs)

        monkeypatch.setattr(static_game, "best_response", spy)
        res = solve_static(
            anti_coordination_cost(), grid_1d(40), DiscreteMeasure.dirac([0.5]),
            damping_schedule=constant_damping(1.0), tol=1e-9, max_iter=25, eps_min=1e-9,
        )
        assert not res.converged
        assert len(calls) == 24


class TestLogging:
    def test_converged_solve_logs_residuals_and_stop_reason(self, caplog):
        with caplog.at_level("DEBUG", logger="mfglab.static_game"):
            res = solve_static(quadratic_congestion(dim=1), grid_1d(), DiscreteMeasure.dirac([0.3]), eps_min=1e-9)
        assert res.converged
        records = [r for r in caplog.records if r.name == "mfglab.static_game"]
        debug = [r.getMessage() for r in records if r.levelname == "DEBUG"]
        info = [r.getMessage() for r in records if r.levelname == "INFO"]
        assert len(debug) == len(res.history)
        assert debug[0].startswith("static iteration 0: residual ")
        assert info == [f"static solve converged at iteration {res.iterations}: residual {res.residual:.3e} <= tol 1.000e-09"]

    def test_max_iter_stop_is_logged(self, caplog):
        with caplog.at_level("INFO", logger="mfglab.static_game"):
            res = solve_static(
                anti_coordination_cost(), grid_1d(40), DiscreteMeasure.dirac([0.5]),
                damping_schedule=constant_damping(1.0), tol=1e-9, max_iter=5, eps_min=1e-9,
            )
        info = [r.getMessage() for r in caplog.records if r.name == "mfglab.static_game"]
        assert info == [f"static solve reached max_iter 5: best residual {res.residual:.3e} > tol 1.000e-09"]


class TestDamping:
    def test_harmonic_values(self):
        assert [harmonic_damping(k) for k in range(3)] == [1.0, 0.5, 1.0 / 3.0]

    def test_constant_validation(self):
        assert constant_damping(0.3)(7) == 0.3
        with pytest.raises(ValueError):
            constant_damping(0.0)
        with pytest.raises(ValueError):
            constant_damping(1.5)
