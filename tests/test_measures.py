"""Particle measures, exact 1-Wasserstein distances, and measure paths."""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, linprog

from mfglab import (
    DiscreteMeasure,
    InvalidMeasureError,
    MeasurePath,
    NodeSet,
    SizeCapError,
    SolverError,
    SpatialGrid,
    mix,
    mix_paths,
    sample_from_density,
    support_distance,
    wasserstein1,
    wasserstein1_capped,
)
from mfglab.measures import DUPLICATE_TOL, _dedupe_trajectories, _merge_rows, _solvers, merge_duplicates, prune


def patch_linprog(monkeypatch, fake):
    """Route the library's 2D transportation LP through ``fake``."""
    solvers = _solvers()
    solvers.linprog = fake
    monkeypatch.setattr("mfglab.measures._solvers", lambda: solvers)


def w1_linprog(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Reference optimal transport cost via a dense coupling LP."""
    n, m = a.size, b.size
    diff = a.points[:, None, :] - b.points[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=-1)).ravel()
    # row-sum and column-sum equality constraints on the coupling matrix
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([a.weights, b.weights])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def random_measure(rng, dim=1, max_size=6):
    size = int(rng.integers(1, max_size + 1))
    pts = rng.uniform(-2, 2, size=(size, dim))
    w = rng.random(size) + 0.05
    return DiscreteMeasure(pts, w / w.sum())


class TestDiscreteMeasure:
    def test_constructors(self):
        d = DiscreteMeasure.dirac([0.5])
        assert d.size == 1 and d.dim == 1 and d.weights[0] == 1.0
        u = DiscreteMeasure.uniform([[0.0], [1.0]])
        np.testing.assert_allclose(u.weights, [0.5, 0.5])
        w = np.array([1.0, 3.0])
        f = DiscreteMeasure([[0.0], [1.0]], w / w.sum())
        np.testing.assert_allclose(f.weights, [0.25, 0.75])

    def test_weight_validation(self):
        with pytest.raises(InvalidMeasureError):
            DiscreteMeasure(np.array([[0.0]]), np.array([0.5]))  # mass != 1
        with pytest.raises(InvalidMeasureError):
            DiscreteMeasure([[0.0], [1.0]], [1.5, -0.5])
        with pytest.raises(InvalidMeasureError):
            DiscreteMeasure(np.array([[np.nan]]), np.array([1.0]))

    def test_mean(self):
        m = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
        assert m.mean()[0] == pytest.approx(0.75)

    def test_merge_duplicates(self):
        m = DiscreteMeasure([[0.0], [0.0], [1.0]], [0.25, 0.25, 0.5])
        merged = merge_duplicates(m)
        assert merged.size == 2
        np.testing.assert_allclose(sorted(merged.weights), [0.5, 0.5])

    def test_prune_renormalizes(self):
        m = DiscreteMeasure([[0.0], [1.0]], [1.0 - 1e-15, 1e-15])
        p = prune(m, w_min=1e-12)
        assert p.size == 1
        assert p.weights.sum() == pytest.approx(1.0)


class TestW1Oracles:
    def test_split_mass_oracle(self):
        a = DiscreteMeasure.uniform([[0.0], [1.0]])
        b = DiscreteMeasure.dirac([0.5])
        assert wasserstein1(a, b) == pytest.approx(0.5, abs=1e-14)

    def test_dirac_pair_exact_1d(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x, y = rng.uniform(-5, 5, size=2)
            d = wasserstein1(DiscreteMeasure.dirac([x]), DiscreteMeasure.dirac([y]))
            assert d == abs(x - y)

    def test_dirac_pair_exact_2d(self):
        a = DiscreteMeasure.dirac([0.0, 0.0])
        b = DiscreteMeasure.dirac([3.0, 4.0])
        assert wasserstein1(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_translation_distance(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(5, 1))
        a = DiscreteMeasure.uniform(pts)
        b = DiscreteMeasure.uniform(pts + 0.7)
        assert wasserstein1(a, b) == pytest.approx(0.7, abs=1e-12)

    def test_1d_matches_coupling_lp(self):
        # CDF formula against the dense LP on small random supports
        rng = np.random.default_rng(11)
        for _ in range(60):
            a, b = random_measure(rng), random_measure(rng)
            assert wasserstein1(a, b) == pytest.approx(w1_linprog(a, b), abs=1e-10)

    def test_2d_integer_weights_match_coupling_lp(self):
        # Weights k_i / 13 with integer k_i.  Measures whose smallest count
        # is 1 sit on the 1/13 lattice and take the assignment; the others
        # take the LP.  Both must match the dense LP.
        rng = np.random.default_rng(12)
        n_units = 13

        def integer_weights(size):
            cuts = np.sort(rng.choice(np.arange(1, n_units), size - 1, replace=False))
            return np.diff(np.concatenate([[0], cuts, [n_units]]))

        for _ in range(25):
            ka = integer_weights(int(rng.integers(2, 7)))
            kb = integer_weights(int(rng.integers(1, 7)))
            a = DiscreteMeasure(rng.uniform(-2, 2, size=(ka.size, 2)), ka / n_units)
            b = DiscreteMeasure(rng.uniform(-2, 2, size=(kb.size, 2)), kb / n_units)
            assert wasserstein1(a, b) == pytest.approx(w1_linprog(a, b), abs=1e-12)

    def test_2d_dirac_against_closed_form(self):
        # W1(delta_x, mu) = sum_j w_j |x - y_j|: the only coupling sends all mass from x
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            size = int(rng.integers(2, 7))
            pts = rng.uniform(-2, 2, size=(size, 2))
            w = rng.random(size) + 0.05
            mu = DiscreteMeasure(pts, w / w.sum())
            expected = float(mu.weights @ np.linalg.norm(mu.points - x, axis=1))
            dirac = DiscreteMeasure.dirac(x)
            assert wasserstein1(dirac, mu) == pytest.approx(expected, abs=1e-12)
            assert wasserstein1(mu, dirac) == pytest.approx(expected, abs=1e-12)

    def test_2d_lp_failure_raises_solver_error(self, monkeypatch):
        def infeasible(*args, **kwargs):
            return OptimizeResult(status=2, success=False, fun=None, message="The problem is infeasible.")

        patch_linprog(monkeypatch, infeasible)
        # off the 1/N weight lattice, so the pair reaches the LP
        a = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [2 ** -0.5, 1 - 2 ** -0.5])
        b = DiscreteMeasure.dirac([0.0, 1.0])
        with pytest.raises(SolverError, match="infeasible"):
            wasserstein1(a, b)

    def test_2d_uniform_assignment_matches_lp(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pts_a = rng.uniform(-1, 1, size=(6, 2))
            pts_b = rng.uniform(-1, 1, size=(6, 2))
            a, b = DiscreteMeasure.uniform(pts_a), DiscreteMeasure.uniform(pts_b)
            assert wasserstein1(a, b) == pytest.approx(w1_linprog(a, b), abs=1e-9)


def _evolve_shaped_pair(rng):
    # a two-flow Cesaro mean after merging: 62 slots of 2/128 and 4 of 1/128
    counts = np.array([2] * 62 + [1] * 4)
    a = DiscreteMeasure(rng.uniform(-1, 1, size=(66, 2)), counts / 128)
    return a, DiscreteMeasure.uniform(rng.uniform(-1, 1, size=(64, 2)))


def _harmonic_mixture_pair(rng):
    # three flows of n = 6 slots mixed with lambda = 1/2, then 1/3; the
    # flows share trajectories, so the weights are k / 18 with k in {1, 2, 3}
    times = np.array([0.0, 1.0])
    base = rng.uniform(-1, 1, size=(2, 6, 2))
    flows = []
    for shared in (6, 4, 3):
        pos = base.copy()
        pos[:, shared:, :] = rng.uniform(-1, 1, size=(2, 6 - shared, 2))
        flows.append(MeasurePath(times, pos, np.full(6, 1.0 / 6)))
    path = mix_paths(mix_paths(flows[0], flows[1], 0.5), flows[2], 1.0 / 3.0)
    assert np.allclose(path.weights * 18, np.rint(path.weights * 18), atol=1e-12, rtol=0.0)
    assert {1, 2, 3} <= set(np.rint(path.weights * 18).astype(int))
    return path.measure_at(1), DiscreteMeasure.uniform(rng.uniform(-1, 1, size=(9, 2)))


def _unequal_uniform_pair(rng):
    return (
        DiscreteMeasure.uniform(rng.uniform(-1, 1, size=(64, 2))),
        DiscreteMeasure.uniform(rng.uniform(-1, 1, size=(128, 2))),
    )


def _dirac_cloud_pair(rng):
    cloud = DiscreteMeasure(rng.uniform(-1, 1, size=(4, 2)), np.array([1, 2, 2, 3]) / 8)
    return DiscreteMeasure.dirac(rng.uniform(-1, 1, size=2)), cloud


def _least_count_above_one_pair(rng):
    # counts 2 and 3 on 1/5: the smallest weight is not one lattice unit
    cloud = DiscreteMeasure(rng.uniform(-1, 1, size=(2, 2)), [0.4, 0.6])
    return cloud, DiscreteMeasure.dirac(rng.uniform(-1, 1, size=2))


LATTICE_PAIRS = {
    "evolve_shaped": _evolve_shaped_pair,
    "least_count_above_one": _least_count_above_one_pair,
    "harmonic_mixture": _harmonic_mixture_pair,
    "unequal_uniform": _unequal_uniform_pair,
    "dirac_cloud": _dirac_cloud_pair,
}


class TestW1LatticeDispatch:
    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        patch_linprog(monkeypatch, spy)
        return calls

    @pytest.mark.parametrize("name", sorted(LATTICE_PAIRS))
    def test_lattice_pair_takes_assignment_and_matches_lp(self, name, lp_calls):
        a, b = LATTICE_PAIRS[name](np.random.default_rng(31))
        value = wasserstein1(a, b)
        assert lp_calls == []
        assert value == pytest.approx(w1_linprog(a, b), abs=1e-12)

    def test_capped_downsample_takes_assignment_and_matches_lp(self, lp_calls, monkeypatch):
        # heavy points make the systematic resample repeat them, so merging
        # leaves weights k / 16 with some k > 1
        rng = np.random.default_rng(32)
        weights = rng.random(40) + 0.05
        weights[:3] += 4.0
        a = DiscreteMeasure(rng.uniform(-1, 1, size=(40, 2)), weights / weights.sum())
        b = DiscreteMeasure.uniform(rng.uniform(-1, 1, size=(40, 2)))
        seen = []

        def recording_w1(x, y, size_cap):
            seen.append((x, y))
            return wasserstein1(x, y, size_cap)

        monkeypatch.setattr("mfglab.measures.wasserstein1", recording_w1)
        value, capped = wasserstein1_capped(a, b, size_cap=16)
        (a_down, b_down), = seen
        assert capped and a_down.size < 16 and a_down.weights.max() > 1.0 / 16
        assert lp_calls == []
        assert value == pytest.approx(w1_linprog(a_down, b_down), abs=1e-12)

    def test_common_lattice_over_cap_reaches_lp(self, lp_calls):
        rng = np.random.default_rng(33)
        a = DiscreteMeasure.uniform(rng.uniform(-1, 1, size=(7, 2)))
        b = DiscreteMeasure.uniform(rng.uniform(-1, 1, size=(8, 2)))
        value = wasserstein1(a, b, size_cap=50)  # lcm(7, 8) = 56
        assert lp_calls == [1]
        assert value == pytest.approx(w1_linprog(a, b), abs=1e-12)

    def test_weights_off_lattice_reach_lp(self, lp_calls):
        rng = np.random.default_rng(34)
        w = np.full(4, 0.25) + np.array([1e-9, -1e-9, 0.0, 0.0])
        a = DiscreteMeasure(rng.uniform(-1, 1, size=(4, 2)), w)
        b = DiscreteMeasure.uniform(rng.uniform(-1, 1, size=(4, 2)))
        value = wasserstein1(a, b)
        assert lp_calls == [1]
        assert value == pytest.approx(w1_linprog(a, b), abs=1e-12)


class TestW1MetricAxioms:
    def test_axioms_1d_and_2d(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            dim = 1 + trial % 2
            a = random_measure(rng, dim=dim, max_size=5)
            b = random_measure(rng, dim=dim, max_size=5)
            c = random_measure(rng, dim=dim, max_size=5)
            dab = wasserstein1(a, b)
            dba = wasserstein1(b, a)
            assert dab >= 0
            assert dab == pytest.approx(dba, abs=1e-9)
            assert wasserstein1(a, a) <= 1e-12
            assert dab <= wasserstein1(a, c) + wasserstein1(c, b) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidMeasureError):
            wasserstein1(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([0.0, 0.0]))


class TestSizeCap:
    def test_2d_over_cap_raises(self):
        pts = np.random.default_rng(0).uniform(size=(20, 2))
        a = DiscreteMeasure.uniform(pts)
        b = DiscreteMeasure.dirac([0.5, 0.5])
        with pytest.raises(SizeCapError):
            wasserstein1(a, b, size_cap=10)

    def test_capped_variant_flags_downsampling(self):
        rng = np.random.default_rng(1)
        a = DiscreteMeasure.uniform(rng.uniform(size=(40, 2)))
        b = DiscreteMeasure.dirac([0.5, 0.5])
        val, capped = wasserstein1_capped(a, b, size_cap=16, seed=0)
        assert capped is True
        exact = wasserstein1(a, b, size_cap=512)
        assert val == pytest.approx(exact, abs=0.15)

    def test_capped_variant_exact_below_cap(self):
        a = DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
        b = DiscreteMeasure.dirac([0.5, 0.0])
        val, capped = wasserstein1_capped(a, b)
        assert capped is False
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_1d_never_downsamples(self):
        rng = np.random.default_rng(2)
        a = DiscreteMeasure.uniform(rng.uniform(size=(2000, 1)))
        b = DiscreteMeasure.dirac([0.5])
        val, capped = wasserstein1_capped(a, b, size_cap=16)
        assert capped is False
        assert val == pytest.approx(wasserstein1(a, b), abs=0.0)


class TestMixing:
    def test_lambda_edges(self):
        a = DiscreteMeasure.dirac([0.0])
        b = DiscreteMeasure.dirac([1.0])
        assert wasserstein1(mix(a, b, 0.0), a) <= 1e-12
        assert wasserstein1(mix(a, b, 1.0), b) <= 1e-12

    def test_mean_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_measure(rng)
            b = random_measure(rng)
            lam = float(rng.random())
            mixed = mix(a, b, lam)
            expect = (1 - lam) * a.mean() + lam * b.mean()
            np.testing.assert_allclose(mixed.mean(), expect, atol=1e-12)
            assert mixed.weights.sum() == pytest.approx(1.0)


class TestMergeRowsOracle:
    """Rows grouped by one lexsort give ``np.unique(axis=0)``'s first
    indices and inverse, so merged weights and slot order are unchanged."""

    @staticmethod
    def random_keys(rng, n, k):
        span = int(rng.choice([3, 2**40]))
        keys = rng.integers(-span, span, size=(n, k))
        if n > 1:  # duplicate rows, and rows that share a prefix
            keys[rng.integers(0, n, size=n // 2)] = keys[rng.integers(0, n, size=n // 2)]
            keys[rng.integers(0, n), : k // 2] = keys[0, : k // 2]
        return keys

    def test_merge_rows_matches_unique(self):
        rng = np.random.default_rng(23)
        merged = 0
        for k in (*range(1, 9), 40, 161):
            for n in (1, 2, 7, 64):
                rows = self.random_keys(rng, n, k) * DUPLICATE_TOL
                weights = rng.random(n)
                keys = np.round(rows / DUPLICATE_TOL).astype(np.int64)
                _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
                got = _merge_rows(rows, weights)
                if first.size == n:
                    assert got is None
                    continue
                merged += 1
                w = np.bincount(inverse.ravel(), weights=weights, minlength=first.size)
                np.testing.assert_array_equal(got[0], first)
                np.testing.assert_array_equal(got[1], w / w.sum())
        assert merged >= 20


class TestSampling:
    def test_stratified_oracle_1d(self):
        # uniform density on [0,1], 4 cells: centroids carry equal mass
        g = SpatialGrid((0.0,), (1.0,), (4,))
        m = sample_from_density(np.ones(g.n_cells), g, n_particles=4)
        np.testing.assert_allclose(sorted(m.points.ravel()), [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(m.weights, 0.25)

    def test_mass_proportional_to_density(self):
        g = SpatialGrid((0.0,), (1.0,), (2,))
        density = np.array([1.0, 2.0])
        m = sample_from_density(density, g, n_particles=8)
        w = m.weights[np.argsort(m.points.ravel())]
        np.testing.assert_allclose(w, [1.0 / 3.0, 2.0 / 3.0])

    def test_node_indexed_density_rejected(self):
        g = SpatialGrid((0.0,), (1.0,), (4,))
        with pytest.raises(ValueError, match=r"cell shape \(4,\)"):
            sample_from_density(np.ones(g.shape), g, n_particles=4)

    def test_zero_density_rejected(self):
        g = SpatialGrid((0.0,), (1.0,), (4,))
        with pytest.raises(ValueError):
            sample_from_density(np.zeros(g.n_cells), g, n_particles=4)

    def test_deterministic_for_fixed_seed(self):
        g = SpatialGrid((0.0, 0.0), (1.0, 1.0), (6, 6))
        rng = np.random.default_rng(7)
        density = rng.random(g.n_cells)
        m1 = sample_from_density(density, g, n_particles=10, seed=3)
        m2 = sample_from_density(density, g, n_particles=10, seed=3)
        np.testing.assert_array_equal(m1.points, m2.points)
        np.testing.assert_array_equal(m1.weights, m2.weights)


class TestSupportDistance:
    def test_hand_case_ignores_zero_weight_particle(self):
        # node set {0, 0.25}; the particles at 0.75 and 0.125 lie 0.5 and
        # 0.125 from it, and the massless one at 1.0 (0.75 away) is ignored
        g = SpatialGrid((0.0,), (1.0,), (4,))
        nodes = NodeSet(g, [0, 1])
        m = DiscreteMeasure([[0.75], [0.125], [1.0]], [0.5, 0.5, 0.0])
        assert support_distance(m, nodes) == 0.5
        assert support_distance(DiscreteMeasure.dirac([1.0]), nodes) == 0.75


class TestMeasurePath:
    def test_constant_path(self):
        m = DiscreteMeasure.uniform([[0.0], [1.0]])
        path = MeasurePath.constant(m, np.linspace(0, 1, 5))
        assert path.n_times == 5
        assert path.n_slots == 2
        for k in range(5):
            assert wasserstein1(path.measure_at(k), m) <= 1e-15

    def test_measure_at_slices_positions(self):
        times = np.array([0.0, 1.0])
        pos = np.array([[[0.0]], [[2.0]]])  # one particle moving 0 -> 2
        path = MeasurePath(times, pos, np.array([1.0]))
        assert path.measure_at(1).points[0, 0] == 2.0

    def test_measure_at_is_a_read_only_slice(self):
        times = np.array([0.0, 1.0])
        path = MeasurePath(times, np.array([[[0.0], [1.0]], [[2.0], [3.0]]]), np.array([0.5, 0.5]))
        m = path.measure_at(1)
        with pytest.raises(ValueError, match="read-only"):
            m.points[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            m.weights[0] = 1.0
        np.testing.assert_array_equal(path.positions[1, :, 0], [2.0, 3.0])

    def test_positions_are_checked_at_every_time_when_built(self):
        pos = np.zeros((3, 2, 1))
        pos[2, 1, 0] = np.nan
        with pytest.raises(InvalidMeasureError):
            MeasurePath(np.arange(3.0), pos, np.array([0.5, 0.5]))

    def test_mix_paths_edges_and_weights(self):
        times = np.linspace(0, 1, 3)
        a = MeasurePath.constant(DiscreteMeasure.dirac([0.0]), times)
        b = MeasurePath.constant(DiscreteMeasure.dirac([1.0]), times)
        mixed = mix_paths(a, b, 0.25)
        m0 = mixed.measure_at(0)
        assert m0.size == 2
        np.testing.assert_allclose(sorted(m0.weights), [0.25, 0.75])
        assert mix_paths(a, b, 0.0).n_slots == 1
        assert mix_paths(a, b, 1.0).measure_at(0).points[0, 0] == 1.0

    def test_mix_paths_dedupes_identical_trajectories(self):
        times = np.linspace(0, 1, 4)
        a = MeasurePath.constant(DiscreteMeasure.dirac([0.5]), times)
        b = MeasurePath.constant(DiscreteMeasure.dirac([0.5]), times)
        mixed = mix_paths(a, b, 0.5)
        assert mixed.n_slots == 1
        assert mixed.weights[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_dedupe_matches_merging_the_full_trajectories(self, dim):
        # the t = 0 shortcut against the full-row merge: distinct starts,
        # shared starts that diverge later, and exact duplicates
        rng = np.random.default_rng(5)
        distinct = rng.normal(size=(4, 6, dim))
        diverging = distinct.copy()
        diverging[0, 3] = diverging[0, 1]
        duplicated = diverging.copy()
        duplicated[:, 4] = duplicated[:, 2]
        weights = rng.random(6)
        for positions in (distinct, diverging, duplicated):
            path = MeasurePath(np.arange(4.0), positions, weights / weights.sum())
            merged = _merge_rows(positions.transpose(1, 0, 2).reshape(6, -1), path.weights)
            got = _dedupe_trajectories(path)
            if merged is None:
                assert got is path
            else:
                first, w = merged
                np.testing.assert_array_equal(got.positions, positions[:, first])
                np.testing.assert_array_equal(got.weights, w)
        assert _dedupe_trajectories(MeasurePath(np.arange(4.0), duplicated, weights / weights.sum())).n_slots == 5

    def test_mix_paths_cap_resamples_trajectories(self):
        times = np.linspace(0, 1, 3)
        rng = np.random.default_rng(8)
        pos_a = np.repeat(rng.uniform(size=(1, 40, 1)), 3, axis=0)
        pos_b = np.repeat(rng.uniform(size=(1, 40, 1)), 3, axis=0)
        a = MeasurePath(times, pos_a, np.full(40, 1.0 / 40))
        b = MeasurePath(times, pos_b, np.full(40, 1.0 / 40))
        mixed = mix_paths(a, b, 0.5, cap=16, seed=0)
        assert mixed.n_slots <= 16
        assert mixed.weights.sum() == pytest.approx(1.0)

    def test_mix_paths_time_lattice_mismatch(self):
        a = MeasurePath.constant(DiscreteMeasure.dirac([0.0]), [0.0, 1.0])
        b = MeasurePath.constant(DiscreteMeasure.dirac([0.0]), [0.0, 2.0])
        with pytest.raises(InvalidMeasureError):
            mix_paths(a, b, 0.5)
