"""Horizon-sweep harness: records, limit checks, and decision helpers."""

import dataclasses
import logging
import warnings

import numpy as np
import pytest

from mfglab import (
    CostFunctional,
    DiscreteMeasure,
    DomainEscapeError,
    MfgParams,
    SpatialGrid,
    SweepParams,
    SweepRecord,
    bounded_ratio,
    nonincreasing_with_slack,
    run_sweep,
    semilimit_surrogates,
    solve_mfg,
    singleton_limit_check,
    stable_within,
    sweep_verdict,
)
from mfglab.asymptotics import failed_checks
from mfglab.cost_models import quadratic_congestion


def small_grid(n=80):
    return SpatialGrid((-2.0,), (2.0,), (n,))


def flat_cost(c=0.3):
    def ev(pts, m):
        return np.full(pts.shape[0], float(c))

    return CostFunctional(
        name="flat", dim=1, evaluator=ev, m_bound=max(abs(c), 1.0),
        core_lower=(-0.5,), core_upper=(0.5,), gap=0.0,
        analytic_argmin=np.array([[0.0]]), analytic_c_star=float(c),
        lipschitz_d1=0.0,
    )


def dummy_record(T, s_grid, slice_measures, argmin_points):
    """A record carrying only the fields the check under test reads."""
    s = np.asarray(s_grid, dtype=float)
    n_s = s.size
    return SweepRecord(
        T=float(T), dt=T / 8, n_steps=8, s_grid=s, s_times=s * T,
        support_dist=np.zeros(n_s), d1_to_limit=np.zeros(n_s),
        value_rate_err=np.zeros(n_s), wkam_err=np.zeros(n_s),
        u_slices=np.zeros((n_s, 1)), slice_measures=slice_measures,
        rho=np.zeros(1), occ_bound=0.0, chi_prime_hat=0.0,
        a_priori={}, converged=True, iterations=1,
        br_residual=0.0, c_star_used=0.0,
        argmin_points=np.asarray(argmin_points, dtype=float), estimated=False,
    )


class TestHelpers:
    def test_nonincreasing_with_slack(self):
        assert nonincreasing_with_slack([1.0, 0.8, 0.5], slack=0.25, atol=0.01)
        assert nonincreasing_with_slack([1.0, 1.2, 0.5], slack=0.25, atol=0.01)
        assert not nonincreasing_with_slack([1.0, 1.2, 0.5], slack=0.1, atol=0.0)
        assert not nonincreasing_with_slack([1.0, 0.5, 1.2], slack=0.25, atol=0.01)  # net growth
        # under the floor
        assert nonincreasing_with_slack([0.001, 0.005, 0.002], slack=0.25, atol=0.01)
        assert nonincreasing_with_slack([0.7], slack=0.25, atol=0.01)
        assert not nonincreasing_with_slack([1.0, np.nan], slack=0.25, atol=0.01)

    def test_stable_within(self):
        assert stable_within([1.0, 1.05, 0.98])
        assert not stable_within([1.0, 1.2])
        assert stable_within([0.0, 0.0])
        assert not stable_within([])
        assert not stable_within([1.0, np.inf])

    def test_bounded_ratio(self):
        assert bounded_ratio([2.0, 4.0]) == pytest.approx(2.0)
        assert bounded_ratio([0.0, 0.0]) == 1.0
        assert bounded_ratio([0.0, 1.0]) == np.inf
        assert bounded_ratio([-1.0, 1.0]) == np.inf
        assert bounded_ratio([]) == np.inf


class TestSweepParams:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            SweepParams(mode="adaptive")
        with pytest.raises(ValueError, match="fixed_dt"):
            SweepParams(mode="fixed_dt")
        with pytest.raises(ValueError, match="n_steps"):
            SweepParams(mode="fixed_steps", n_steps=0)

    def test_s_grid_validation(self):
        with pytest.raises(ValueError, match="s_grid"):
            SweepParams(s_grid=(0.0, 0.5))
        with pytest.raises(ValueError, match="s_grid"):
            SweepParams(s_grid=(0.5, 1.5))
        with pytest.raises(ValueError, match="s_grid"):
            SweepParams(s_grid=(0.5, 0.5))

    def test_step_for(self):
        assert SweepParams(mode="fixed_steps", n_steps=200).step_for(10.0) == 0.05
        assert SweepParams(mode="fixed_dt", dt=0.05).step_for(10.0) == 0.05
        with pytest.raises(ValueError, match="divide"):
            SweepParams(mode="fixed_dt", dt=0.3).step_for(1.0)

    def test_positivity(self):
        with pytest.raises(ValueError):
            SweepParams(R=0.0)
        with pytest.raises(ValueError):
            SweepParams(delta_occ=-0.1)

    @pytest.mark.parametrize(
        "name, value, rule",
        [
            *[
                (name, value, "must be positive")
                for name in ("wkam_cap", "support_cap", "semilimit_tol")
                for value in (0.0, -0.1, float("nan"))
            ],
            *[(name, value, "must be nonnegative") for name in ("slack", "atol") for value in (-0.01, float("nan"))],
            ("rate_ratio_cap", 0.5, "must be at least 1"),
            ("rate_ratio_cap", float("nan"), "must be at least 1"),
        ],
    )
    def test_threshold_range_names_the_field(self, name, value, rule):
        with pytest.raises(ValueError, match=f"^{name} {rule}"):
            SweepParams(**{name: value})

    @pytest.mark.parametrize(
        "name, value", [("slack", 0.0), ("atol", 0.0), ("rate_ratio_cap", 1.0), ("wkam_cap", 1e-12)]
    )
    def test_threshold_range_bounds_are_allowed(self, name, value):
        assert getattr(SweepParams(**{name: value}), name) == value

    @pytest.mark.parametrize(
        "name, value",
        [("tol", 0.0), ("tol", -1.0), ("tol", float("nan")), ("max_iter", 0), ("path_cap", 0), ("w1_size_cap", 0)],
    )
    def test_fixed_point_knob_range(self, name, value):
        with pytest.raises(ValueError, match=name):
            SweepParams(mode="fixed_dt", dt=0.05, mfg=dataclasses.replace(SweepParams().mfg, **{name: value}))


class TestRunSweepQuick:
    def test_record_shapes_and_flags(self):
        F = quadratic_congestion(dim=1)
        g = small_grid()
        m0 = DiscreteMeasure.uniform([[-0.4], [0.1], [0.5]])
        params = SweepParams(mode="fixed_steps", n_steps=40, eps_min=1e-9, seed=0)
        records = run_sweep(F, m0, (4.0, 2.0), g, params)
        assert [r.T for r in records] == [2.0, 4.0]  # sorted ascending
        for r in records:
            assert r.support_dist.shape == (5,)
            assert r.u_slices.shape == (5, g.n_nodes)
            assert len(r.slice_measures) == 5
            assert r.rho.shape == (3,)
            assert not r.estimated
            assert r.c_star_used == 0.0
            np.testing.assert_allclose(r.argmin_points, [[0.0]])
            assert np.isfinite(r.occ_bound)
            assert r.a_priori["grad_max"] <= r.a_priori["grad_bound"]
            if r.converged:
                assert r.br_residual <= params.mfg.tol
        # longer horizon ends (relatively) closer to the minimizing point
        assert records[1].support_dist[-1] <= records[0].support_dist[0] + 1e-9

    def test_logs_one_record_per_horizon(self, caplog):
        F = quadratic_congestion(dim=1)
        m0 = DiscreteMeasure.uniform([[-0.4], [0.4]])
        params = SweepParams(mode="fixed_steps", n_steps=10, mfg=MfgParams(max_iter=2), seed=0)
        with caplog.at_level("INFO", logger="mfglab.asymptotics"):
            records = run_sweep(F, m0, (2.0, 1.0), small_grid(40), params)
        logged = [r.getMessage() for r in caplog.records if r.name == "mfglab.asymptotics"]
        assert logged == [
            f"sweep horizon T={r.T:g}: dt {r.dt:g}, {r.iterations} iterations, "
            f"br_residual {r.br_residual:.3e}, converged {r.converged}"
            for r in records
        ]

    def test_empty_horizon_list(self):
        with pytest.raises(ValueError, match="T_list"):
            run_sweep(flat_cost(), DiscreteMeasure.dirac([0.0]), (), small_grid())

    def test_ball_must_contain_nodes(self):
        F = flat_cost()
        g = SpatialGrid((1.0,), (2.0,), (10,))  # no node near the origin
        with pytest.raises(ValueError, match="ball"):
            run_sweep(F, DiscreteMeasure.dirac([1.5]), (1.0,), g, SweepParams(R=0.5))

    def test_non_convergence_taints_record(self):
        F = quadratic_congestion(dim=1)
        g = small_grid(40)
        m0 = DiscreteMeasure.uniform([[-0.4], [0.4]])
        params = SweepParams(mode="fixed_steps", n_steps=10, mfg=MfgParams(tol=1e-15, max_iter=1))
        records = run_sweep(F, m0, (1.0,), g, params)
        assert not records[0].converged


class TestFixedDtSweepOrder:
    """A fixed_dt sweep solves the longest horizon first and shares its
    first iteration, yet reports as the unshared solves in ascending T."""

    LOGGERS = ("mfglab.finite_horizon", "mfglab.asymptotics")

    def ascending(self, F, m0, horizons, grid, params, caplog):
        """(eq, log records) of the unshared solves in ascending T, each
        with the seed the sweep draws for it."""
        seeds = np.random.SeedSequence(params.seed).generate_state(len(horizons))
        caplog.clear()
        with caplog.at_level("DEBUG"):
            solved = []
            for T, seed in zip(horizons, seeds):
                eq = solve_mfg(F, m0, T, grid, params.dt, params.mfg, seed=int(seed))
                logging.getLogger("mfglab.asymptotics").info(
                    "sweep horizon T=%g: dt %g, %d iterations, br_residual %.3e, converged %s",
                    T, params.dt, eq.iterations, eq.br_residual, eq.converged,
                )
                solved.append(eq)
        return solved, self.messages(caplog)

    def messages(self, caplog):
        return [(r.name, r.levelname, r.getMessage()) for r in caplog.records if r.name in self.LOGGERS]

    def test_records_seeds_and_log_lines_of_the_ascending_solve(self, caplog):
        F = quadratic_congestion(dim=1)
        grid = small_grid(40)
        m0 = DiscreteMeasure.uniform([[-0.6], [-0.1], [0.3], [0.7]])
        # a path cap below the mixture's slots resamples with the seed
        params = SweepParams(mode="fixed_dt", dt=0.1, mfg=MfgParams(max_iter=4, path_cap=6), seed=5)
        solved, expected_log = self.ascending(F, m0, [0.5, 1.0, 2.0], grid, params, caplog)
        # the seed reaches the result: another seed moves a residual
        other = solve_mfg(F, m0, 1.0, grid, 0.1, params.mfg, seed=1)
        assert other.trace != solved[1].trace
        caplog.clear()
        with caplog.at_level("DEBUG"):
            records = run_sweep(F, m0, (2.0, 0.5, 1.0), grid, params)
        assert self.messages(caplog) == expected_log
        assert [r.T for r in records] == [0.5, 1.0, 2.0]
        for r, eq in zip(records, solved):
            assert (r.iterations, r.br_residual, r.converged) == (eq.iterations, eq.br_residual, eq.converged)
            ks = [round(s * eq.value.n_steps) for s in r.s_grid]
            np.testing.assert_array_equal(r.u_slices, eq.value.values[ks].reshape(len(ks), -1))
            for m, k in zip(r.slice_measures, ks):
                np.testing.assert_array_equal(m.points, eq.flow_path.positions[k])
            assert r.chi_prime_hat == eq.trajectory_stats.chi_prime_hat

    def test_an_error_of_the_longest_horizon_comes_at_its_turn(self, caplog):
        # a ridge cost drives the cloud out of the box over the longer
        # horizon only
        def ridge(pts, m):
            return 5.0 - 5.0 * np.abs(pts[:, 0])

        F = CostFunctional(
            name="ridge", dim=1, evaluator=ridge, m_bound=5.0,
            core_lower=(-0.5,), core_upper=(0.5,), gap=0.0,
        )
        grid = SpatialGrid((-1.0,), (1.0,), (40,))
        m0 = DiscreteMeasure.dirac([0.3])
        params = SweepParams(
            mode="fixed_dt", dt=0.1, mfg=MfgParams(control_radius=5.0, control_mesh=0.5), seed=2
        )
        seeds = np.random.SeedSequence(params.seed).generate_state(2)
        with pytest.raises(DomainEscapeError) as alone:
            solve_mfg(F, m0, 1.0, grid, 0.1, params.mfg, seed=int(seeds[1]))
        shorter = solve_mfg(F, m0, 0.5, grid, 0.1, params.mfg, seed=int(seeds[0]))
        caplog.clear()
        with caplog.at_level("INFO", logger="mfglab.asymptotics"), pytest.raises(DomainEscapeError) as err:
            run_sweep(F, m0, (1.0, 0.5), grid, params)
        assert str(err.value) == str(alone.value)
        assert [r.getMessage() for r in caplog.records if r.name == "mfglab.asymptotics"] == [
            f"sweep horizon T=0.5: dt 0.1, {shorter.iterations} iterations, "
            f"br_residual {shorter.br_residual:.3e}, converged {shorter.converged}"
        ]


# every default s value lands exactly on a step of a 20-step lattice, so
# the snapped slice times agree with the nominal ones
@pytest.fixture(scope="module")
def records():
    F = flat_cost(0.3)
    g = small_grid(40)
    params = SweepParams(mode="fixed_steps", n_steps=20, seed=0)
    return F, g, run_sweep(F, DiscreteMeasure.dirac([0.0]), (1.0, 2.0, 4.0), g, params)


class TestFlatCostExactLimits:
    """Constant costs make every limit quantity exactly zero."""

    def test_value_rate_err_is_zero(self, records):
        _, _, recs = records
        for r in recs:
            np.testing.assert_allclose(r.value_rate_err, 0.0, atol=1e-14)

    def test_wkam_err_is_zero(self, records):
        _, _, recs = records
        for r in recs:
            np.testing.assert_allclose(r.wkam_err, 0.0, atol=1e-14)

    def test_dirac_start_stays_dirac(self, records):
        _, _, recs = records
        for r in recs:
            np.testing.assert_allclose(r.d1_to_limit, 0.0, atol=1e-14)
            np.testing.assert_allclose(r.support_dist, 0.0, atol=1e-14)

    def test_singleton_check_passes(self, records):
        F, g, recs = records
        report = singleton_limit_check(recs, wkam_cap=0.05, slack=0.25, atol=0.01)
        assert report["passed"]
        assert report["wkam_final"] == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(report["d1_table"], 0.0, atol=1e-14)

    def test_semilimit_gap_is_zero(self, records):
        F, g, recs = records
        lower, upper, gaps = semilimit_surrogates(recs, F, g)
        assert lower.shape == (5, g.n_nodes)
        np.testing.assert_allclose(gaps, 0.0, atol=1e-14)


def oscillating_sweep():
    """A cost |x - mean| and three horizons whose slice measures flip
    between the two poles at the largest horizons, so the lower/upper
    envelopes of the cost stay 2 apart."""

    def ev(pts, m):
        return np.abs(pts[:, 0] - float(m.mean()[0]))

    F = CostFunctional(
        name="mean_chase", dim=1, evaluator=ev, m_bound=4.0,
        core_lower=(-2.0,), core_upper=(2.0,), gap=0.0,
    )
    s_grid = (0.25, 0.5, 1.0)
    left = [DiscreteMeasure.dirac([-1.0])] * 3
    right = [DiscreteMeasure.dirac([1.0])] * 3
    recs = [
        dummy_record(1.0, s_grid, left, [[0.0]]),
        dummy_record(2.0, s_grid, left, [[0.0]]),
        dummy_record(4.0, s_grid, right, [[0.0]]),
    ]
    return F, recs


class TestSemilimitSurrogates:
    def test_oscillation_yields_positive_gap(self):
        F, recs = oscillating_sweep()
        _, _, gaps = semilimit_surrogates(recs, F, small_grid(40))
        assert gaps.min() >= 1.9

    def test_needs_three_records(self):
        recs = [
            dummy_record(1.0, (0.5, 1.0), [DiscreteMeasure.dirac([0.0])] * 2, [[0.0]]),
            dummy_record(2.0, (0.5, 1.0), [DiscreteMeasure.dirac([0.0])] * 2, [[0.0]]),
        ]
        with pytest.raises(ValueError, match="3"):
            semilimit_surrogates(recs, flat_cost(), small_grid(40))


VERDICT_PARAMS = SweepParams(support_cap=0.05, rate_ratio_cap=3.0)


def verdict_records(n_T=3, support=None):
    """Flat-cost records whose every check passes; support_dist per horizon."""
    s_grid = (0.25, 0.5, 1.0)
    recs = []
    for i in range(n_T):
        rec = dummy_record(2.0 ** i, s_grid, [DiscreteMeasure.dirac([0.0])] * 3, [[0.0]])
        if support is not None:
            rec.support_dist = np.full(3, support[i])
        recs.append(rec)
    return recs


class TestSweepVerdict:
    def test_tainted_record_fails_the_verdict(self):
        recs = verdict_records()
        recs[1].converged = False
        summary = sweep_verdict(recs, flat_cost(), small_grid(40), VERDICT_PARAMS)
        checks = [v for k, v in summary.items() if k.endswith("_ok") or k.endswith("_stable")]
        assert all(checks) and summary["singleton"]["passed"]
        assert summary["tainted_any"]
        assert not summary["passed"]

    def test_two_records_give_no_semilimit_keys(self):
        summary = sweep_verdict(verdict_records(2), flat_cost(), small_grid(40), VERDICT_PARAMS)
        assert not [k for k in summary if k.startswith("semilimit_")]
        assert summary["passed"]

    def test_missing_potential_drops_singleton(self, caplog):
        recs = verdict_records()
        for r in recs:
            r.wkam_err = np.full(3, np.nan)
        with pytest.raises(ValueError, match="potential"):
            singleton_limit_check(recs, wkam_cap=0.05, slack=0.25, atol=0.01)
        with caplog.at_level("WARNING", logger="mfglab.asymptotics"):
            summary = sweep_verdict(recs, flat_cost(), small_grid(40), VERDICT_PARAMS)
        assert "singleton" not in summary
        assert "singleton limit check unavailable" in caplog.text

    def test_all_nan_occupational_bounds_give_nan_without_a_warning(self):
        # no particle starts off the argmin set: every record's bound is NaN
        recs = verdict_records()
        for r in recs:
            r.occ_bound = float("nan")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = sweep_verdict(recs, flat_cost(), small_grid(40), VERDICT_PARAMS)
        assert np.isnan(summary["occ_bound_max"])
        recs[1].occ_bound = 2.5
        summary = sweep_verdict(recs, flat_cost(), small_grid(40), VERDICT_PARAMS)
        assert summary["occ_bound_max"] == 2.5

    def test_singleton_tables_are_the_records_metrics(self):
        recs = verdict_records()
        rng = np.random.default_rng(3)
        for r in recs:
            r.d1_to_limit = rng.random(3) * 1e-3
            r.wkam_err = rng.random(3) * 1e-3
        summary = sweep_verdict(recs, flat_cost(), small_grid(40), VERDICT_PARAMS)
        np.testing.assert_array_equal(
            summary["singleton"]["d1_table"], np.stack([r.d1_to_limit for r in recs])
        )
        np.testing.assert_array_equal(
            summary["singleton"]["wkam_table"], np.stack([r.wkam_err for r in recs])
        )

    def test_support_step_above_slack_fails_decay(self):
        # 0.1 -> 0.14 grows by 40 %, above the 25 % slack plus the 0.01 floor
        grows = verdict_records(support=[0.2, 0.1, 0.14])
        summary = sweep_verdict(grows, flat_cost(), small_grid(40), VERDICT_PARAMS)
        assert not summary["support_decay_ok"]
        # the same step inside the slack passes
        within = verdict_records(support=[0.2, 0.1, 0.11])
        summary = sweep_verdict(within, flat_cost(), small_grid(40), VERDICT_PARAMS)
        assert summary["support_decay_ok"]

    def test_oscillating_slices_fail_the_semilimit_check(self):
        F, recs = oscillating_sweep()
        summary = sweep_verdict(recs, F, small_grid(40), VERDICT_PARAMS)
        assert summary["semilimit_gap_max"] >= 1.9
        assert summary["semilimit_ok"] is False
        assert "semilimit_ok" in failed_checks(summary)
        assert not summary["passed"]
