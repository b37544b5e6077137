"""Cost functionals: closed-form oracles, structural validation, diagnostics."""

import tracemalloc

import numpy as np
import pytest

from mfglab import (
    BUILTIN_MODELS,
    CostFunctional,
    DiscreteMeasure,
    SpatialGrid,
    build_ergodic_triple,
    build_model,
    default_eps_min,
    gamma_estimate,
    slice_stats,
    solve_static,
    validate_assumptions,
    wasserstein1,
)
from mfglab.cost_models import (
    fg_plus_g,
    lqr_oracle,
    monotonicity_pairing_min,
    quadratic_congestion,
    separated_kernel,
    two_wells,
)


def grid_1d(n=200, lo=-2.0, hi=2.0):
    return SpatialGrid((lo,), (hi,), (n,))


def random_core_measure(rng, F, max_size=5):
    size = int(rng.integers(1, max_size + 1))
    lo = np.asarray(F.core_lower)
    hi = np.asarray(F.core_upper)
    pts = rng.uniform(lo, hi, size=(size, F.dim))
    w = rng.dirichlet(np.ones(size))
    return DiscreteMeasure(pts, w)


class TestQuadraticCongestion:
    def test_pointwise_oracle(self):
        # F(x, m) = (1 - e^{-x^2})(1 + I/(1+I)), I = int e^{-(x-y)^2} dm
        F = quadratic_congestion(dim=1)
        d0 = DiscreteMeasure.dirac([0.0])
        e1 = np.exp(-1.0)
        expect = (1.0 - e1) * (1.0 + e1 / (1.0 + e1))
        assert F.evaluate([1.0], d0) == pytest.approx(expect, abs=1e-12)

    def test_origin_is_zero_for_every_measure(self):
        F = quadratic_congestion(dim=1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_core_measure(rng, F)
            assert F.evaluate([0.0], m) == pytest.approx(0.0, abs=1e-15)

    def test_declared_argmin_and_c_star(self):
        F = quadratic_congestion(dim=2)
        np.testing.assert_allclose(F.analytic_argmin, np.zeros((1, 2)))
        assert F.analytic_c_star == 0.0

    def test_lipschitz_in_measure(self):
        # |F(x, m1) - F(x, m2)| <= sqrt(2/e) d1(m1, m2)
        F = quadratic_congestion(dim=1)
        lip = float(np.sqrt(2.0 / np.e))
        assert F.lipschitz_d1 == pytest.approx(lip)
        rng = np.random.default_rng(1)
        xs = np.linspace(-2, 2, 41)[:, None]
        for _ in range(100):
            m1 = random_core_measure(rng, F)
            m2 = random_core_measure(rng, F)
            gap = np.abs(F.evaluate_many(xs, m1) - F.evaluate_many(xs, m2)).max()
            assert gap <= lip * wasserstein1(m1, m2) + 1e-12

    def test_coercivity_estimate(self):
        # away from the origin the slice cost exceeds 1 - e^{-r^2}
        F = quadratic_congestion(dim=1)
        g = grid_1d(400)
        measures = [DiscreteMeasure.dirac([0.0]), DiscreteMeasure.uniform([[-0.4], [0.3]])]
        table = gamma_estimate(F, g, [0.5, 1.0], [slice_stats(F, m, g) for m in measures])
        assert table[0][1] >= (1.0 - np.exp(-0.25)) - 1e-9
        assert table[1][1] >= (1.0 - np.exp(-1.0)) - 1e-9
        assert table[1][1] >= table[0][1]


class TestTwoWells:
    def test_wells_are_zeros(self):
        F = two_wells(dim=1)
        m = DiscreteMeasure.dirac([0.3])
        assert F.evaluate([1.0], m) == pytest.approx(0.0, abs=1e-15)
        assert F.evaluate([-1.0], m) == pytest.approx(0.0, abs=1e-15)
        assert F.evaluate([0.0], m) > 0.1

    def test_measure_independent(self):
        F = two_wells(dim=1)
        rng = np.random.default_rng(2)
        xs = rng.uniform(-2, 2, size=(30, 1))
        v1 = F.evaluate_many(xs, DiscreteMeasure.dirac([0.0]))
        v2 = F.evaluate_many(xs, random_core_measure(rng, F))
        np.testing.assert_array_equal(v1, v2)

    def test_slice_argmin_is_both_wells(self):
        F = two_wells(dim=1)
        g = grid_1d(200)  # wells at +-1 are nodes
        stats = slice_stats(F, DiscreteMeasure.dirac([0.0]), g, eps_min=1e-9)
        np.testing.assert_allclose(sorted(stats.argmin_set.points.ravel()), [-1.0, 1.0])
        assert stats.c_m == pytest.approx(0.0, abs=1e-15)


class TestSeparatedKernel:
    def test_pointwise_oracle(self):
        F = separated_kernel(dim=1, delta=0.5)
        d0 = DiscreteMeasure.dirac([0.0])
        assert F.evaluate([1.0], d0) == pytest.approx((1.0 - np.exp(-1.0)) + 0.25, abs=1e-12)
        # inside the dead zone the kernel term vanishes
        assert F.evaluate([0.3], d0) == pytest.approx(1.0 - np.exp(-0.09), abs=1e-12)

    def test_parked_measure_keeps_origin_optimal(self):
        F = separated_kernel(dim=1, delta=0.5)
        m = DiscreteMeasure.dirac([0.0])
        g = grid_1d(400)
        stats = slice_stats(F, m, g, eps_min=1e-9)
        assert stats.c_m == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(stats.argmin_set.points.ravel(), [0.0])


class TestFgPlusG:
    def test_floor_follows_measure(self):
        F = fg_plus_g(dim=1)
        g = grid_1d(200)
        s0 = slice_stats(F, DiscreteMeasure.dirac([0.0]), g, eps_min=1e-9)
        s1 = slice_stats(F, DiscreteMeasure.dirac([1.0]), g, eps_min=1e-9)
        assert s0.c_m == pytest.approx(0.0, abs=1e-12)
        assert s1.c_m == pytest.approx(1.0, abs=1e-12)  # floor int |y| d(delta_1)
        np.testing.assert_allclose(s1.argmin_set.points.ravel(), [0.0])


class TestLqrOracle:
    def test_closed_form_and_flags(self):
        F = lqr_oracle(dim=1, c_star=0.25)
        m = DiscreteMeasure.dirac([1.0])
        assert F.evaluate([2.0], m) == pytest.approx(0.25 + 2.0, abs=1e-15)
        assert F.analytic_c_star == 0.25


def _broadcast_sq(x, y):
    diff = x[:, None, :] - y[None, :, :]
    return (diff * diff).sum(axis=-1)


def _well(pts):
    return 1.0 - np.exp(-(pts * pts).sum(axis=-1))


def _congestion(r):
    return 1.0 + r / (1.0 + r)


# the built-in evaluators as they were before the in-place kernels, with one
# (points x support x dim) difference tensor and fresh temporaries
BROADCAST_EVALUATORS = {
    "quadratic_congestion": lambda pts, m: _well(pts) * _congestion(
        np.exp(-_broadcast_sq(pts, m.points)) @ m.weights
    ),
    "separated_kernel": lambda pts, m: _well(pts)
    + (np.maximum(0.0, np.sqrt(_broadcast_sq(pts, m.points)) - 0.5) ** 2) @ m.weights
    + 0.0,
    "fG_plus_g": lambda pts, m: _well(pts) * _congestion(
        np.exp(-_broadcast_sq(pts, m.points)) @ m.weights
    )
    + float(m.weights @ np.sqrt((m.points * m.points).sum(axis=-1))),
}


class TestBroadcastParity:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", sorted(BROADCAST_EVALUATORS))
    def test_evaluate_many_bitwise_equal_to_broadcast(self, name, dim):
        F = BUILTIN_MODELS[name](dim=dim)
        old = BROADCAST_EVALUATORS[name]
        rng = np.random.default_rng(43)
        n = 160 if dim == 1 else 20
        nodes = SpatialGrid((-2.0,) * dim, (2.0,) * dim, (n,) * dim).nodes
        measures = [
            DiscreteMeasure.uniform(rng.uniform(-1, 1, size=(512, dim))),
            DiscreteMeasure.dirac(np.zeros(dim)),
            DiscreteMeasure(rng.uniform(-2, 2, size=(7, dim)), rng.dirichlet(np.ones(7))),
            DiscreteMeasure.uniform(nodes[::3]),
        ]
        for pts in (nodes, rng.uniform(-2, 2, size=(300, dim))):
            for m in measures:
                assert np.array_equal(F.evaluate_many(pts, m), old(pts, m))


class TestKernelAllocation:
    @pytest.mark.parametrize("dim, cells, bound", [(1, 160, 1.3), (2, 20, 2.3)])
    def test_congestion_peak_is_one_pairwise_buffer(self, dim, cells, bound):
        # the kernel works in place on one (nodes x support) array; the
        # broadcast form peaked at 3 (1D) and 5 (2D) such arrays
        F = quadratic_congestion(dim=dim)
        nodes = SpatialGrid((-2.0,) * dim, (2.0,) * dim, (cells,) * dim).nodes
        m = DiscreteMeasure.uniform(np.random.default_rng(44).uniform(-1, 1, size=(512, dim)))
        F.evaluate_many(nodes, m)
        tracemalloc.start()
        try:
            F.evaluate_many(nodes, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * nodes.shape[0] * m.size * 8


class TestMonotonicityPairing:
    def test_dirac_pair_witness_and_measure_free_zeros(self):
        # int (F(., m1) - F(., m2)) d(m1 - m2) for m1 = delta_0, m2 = delta_1
        m1, m2 = DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([1.0])
        pts = np.array([[0.0], [1.0]])
        expected = {"separated_kernel": -0.5, "two_wells": 0.0, "lqr_oracle": 0.0}
        for name, value in expected.items():
            F = build_model(name, 1, -2.0, 2.0, None)
            diff = F.evaluate_many(pts, m1) - F.evaluate_many(pts, m2)
            assert diff[0] - diff[1] == pytest.approx(value, abs=1e-15), name
            assert monotonicity_pairing_min(F, [m1, m2]) == pytest.approx(value, abs=1e-15), name

    def test_validate_reports_the_least_sampled_pairing(self):
        g = grid_1d(160)
        witness = validate_assumptions(separated_kernel(dim=1), g, seed=0)
        measure_free = validate_assumptions(lqr_oracle(dim=1), g, seed=0)
        # the Diracs at the box corners -2 and 2: -2 k(4) = -2 (4 - 0.5)^2
        assert witness["metrics"]["monotonicity_pairing_min"] == pytest.approx(-24.5, abs=1e-12)
        assert witness["violations"] == []  # a witness, not a violation
        assert measure_free["metrics"]["monotonicity_pairing_min"] == 0.0
        assert measure_free["violations"] == []


class TestOneSlicePerMeasure:
    """F(., m) is evaluated on the grid once per measure whose slice is read."""

    @pytest.fixture
    def calls(self, monkeypatch):
        sizes = []
        evaluate_many = CostFunctional.evaluate_many

        def spy(self, points, m):
            sizes.append(np.atleast_2d(np.asarray(points)).shape[0])
            return evaluate_many(self, points, m)

        monkeypatch.setattr(CostFunctional, "evaluate_many", spy)
        return sizes

    def test_static_solve_one_grid_evaluation_per_iterate(self, calls):
        g = grid_1d()
        res = solve_static(quadratic_congestion(dim=1), g, DiscreteMeasure.dirac([1.0]), max_iter=10)
        assert not res.converged and len(res.history) == 10
        assert calls.count(g.n_nodes) == len(res.history)

    def test_ergodic_triple_one_grid_evaluation(self, calls):
        g = grid_1d()
        build_ergodic_triple(quadratic_congestion(dim=1), DiscreteMeasure.dirac([0.0]), g, eps_min=1e-9)
        assert calls.count(g.n_nodes) == 1

    @pytest.mark.parametrize(
        "name, value, rule",
        [("n_random", -3, "must be nonnegative"), ("lipschitz_slack", -1.0, "must be at least 1"),
         ("lipschitz_slack", 0.5, "must be at least 1"), ("lipschitz_slack", float("nan"), "must be at least 1")],
    )
    def test_validate_refuses_a_knob_out_of_range_before_any_evaluation(self, calls, name, value, rule):
        # a slack below 1 reports a false Lipschitz violation; a negative
        # count silently adds no sample
        with pytest.raises(ValueError, match=f"^{name} {rule}, got {value}$"):
            validate_assumptions(quadratic_congestion(dim=1), grid_1d(40), seed=0, **{name: value})
        assert calls == []

    def test_validate_one_grid_evaluation_per_sample(self, calls):
        g = grid_1d(160)
        validate_assumptions(quadratic_congestion(dim=1), g, seed=0, n_random=3)
        # 7 sampled measures; the pairings add the 2 box-corner Diracs, and
        # F is evaluated once on each of the 9 x 9 (support, measure) pairs
        assert calls.count(g.n_nodes) == 7
        assert len(calls) == 7 + 81


class TestBuilders:
    def test_build_model_by_name(self):
        for name in BUILTIN_MODELS:
            F = build_model(name, 1, -2.0, 2.0, None)
            assert F.name == name
            assert F.dim == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("viscosity", 1, -2.0, 2.0, None)

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_unknown_parameter_raises(self, name):
        with pytest.raises(TypeError, match="bogus"):
            build_model(name, 1, -2.0, 2.0, {"bogus": 1})

    def test_builder_parameters_are_accepted(self):
        assert build_model("quadratic_congestion", 1, -2.0, 2.0, {"core": 0.25}).core_upper == (0.25,)
        assert build_model("separated_kernel", 1, -2.0, 2.0, {"delta": 0.8}).core_upper == (0.4,)
        assert build_model("lqr_oracle", 1, -2.0, 2.0, {"c_star": 0.3}).analytic_c_star == 0.3

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("quadratic_congestion", "core", -0.5),
            ("quadratic_congestion", "core", float("nan")),
            ("separated_kernel", "delta", -1.0),
            ("separated_kernel", "delta", float("nan")),
            ("lqr_oracle", "c_star", float("nan")),
            ("lqr_oracle", "c_star", float("inf")),
        ],
    )
    def test_parameter_out_of_range_raises_naming_it(self, name, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            build_model(name, 1, -2.0, 2.0, {key: value})


class TestDefaultEpsMin:
    def test_formula(self):
        g = grid_1d(100)  # h = 0.04
        assert default_eps_min(2.5, g) == pytest.approx(10.0 * 2.5 * 0.04**2)


class TestValidateAssumptions:
    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_builtins_pass_1d(self, name):
        F = build_model(name, 1, -2.0, 2.0, None)
        report = validate_assumptions(F, grid_1d(160), seed=0)
        assert report["violations"] == []
        assert report["metrics"]["max_abs_f"] <= F.m_bound * (1 + 1e-9)

    def test_builtins_pass_2d_quadratic(self):
        F = build_model("quadratic_congestion", 2, -2.0, 2.0, None)
        g = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (40, 40))
        report = validate_assumptions(F, g, seed=0)
        assert report["violations"] == []

    def test_violations_reported_for_bad_declaration(self):
        # a well at 1 with the core box declared around the origin
        from mfglab import CostFunctional

        def ev(pts, m):
            return (pts[:, 0] - 1.0) ** 2

        bad = CostFunctional(
            name="off_core", dim=1, evaluator=ev, m_bound=0.1,
            core_lower=(-0.1,), core_upper=(0.1,), gap=5.0,
            lipschitz_d1=0.0,
        )
        report = validate_assumptions(bad, grid_1d(100), seed=0)
        msgs = " | ".join(report["violations"])
        assert "argmin leaves the core box" in msgs
        assert "above the declared bound" in msgs
        assert "below declared gap" in msgs
