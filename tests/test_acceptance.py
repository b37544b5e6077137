"""Acceptance gate: every headline guarantee at its stated tolerance.

Each test prints one certification line; the module-scoped fixtures run
the two benchmark horizon sweeps and the fine-resolution value solve that
several criteria share.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import mfglab
from mfglab import (
    DiscreteMeasure,
    MeasurePath,
    MfgParams,
    NodeSet,
    SpatialGrid,
    SweepParams,
    a_priori_report,
    bounded_ratio,
    build_ergodic_triple,
    nonincreasing_with_slack,
    residual,
    run_sweep,
    solve_eikonal,
    solve_hjb_backward,
    slice_stats,
    solve_static,
    stable_within,
    wasserstein1,
)
from mfglab.cost_models import (
    fg_plus_g,
    lqr_oracle,
    quadratic_congestion,
    separated_kernel,
    two_wells,
)

pytestmark = pytest.mark.slow

HORIZONS = (5.0, 10.0, 20.0, 40.0)
S_GRID = (0.1, 0.25, 0.5, 0.75, 1.0)


def certify(criterion, ok, detail):
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def initial_cloud(n_particles=256, half_width=0.5):
    rng = np.random.default_rng(np.random.SeedSequence([0, 0x6D30]))
    pts = -half_width + 2.0 * half_width * rng.random((n_particles, 1))
    return DiscreteMeasure.uniform(pts)


@pytest.fixture(scope="module")
def lqr_sweep():
    F = lqr_oracle(dim=1)
    grid = SpatialGrid((-2.0,), (2.0,), (200,))
    params = SweepParams(
        mode="fixed_dt", dt=0.05, s_grid=S_GRID, mfg=MfgParams(control_mesh=0.02),
        eps_min=1e-9, seed=0,
    )
    records = run_sweep(F, initial_cloud(), HORIZONS, grid, params)
    return F, grid, records


@pytest.fixture(scope="module")
def qc_sweep():
    F = quadratic_congestion(dim=1)
    grid = SpatialGrid((-2.0,), (2.0,), (160,))
    params = SweepParams(
        mode="fixed_dt", dt=0.05, s_grid=S_GRID,
        mfg=MfgParams(control_mesh=0.05, path_cap=1024), eps_min=1e-9, seed=0,
    )
    records = run_sweep(F, initial_cloud(), HORIZONS, grid, params)
    return F, grid, records


@pytest.fixture(scope="module")
def riccati_fine():
    F = lqr_oracle(dim=1)
    grid = SpatialGrid((-2.0,), (2.0,), (400,))  # h = 1e-2
    dt = 1e-3
    path = MeasurePath.constant(DiscreteMeasure.dirac([0.0]), np.arange(1001) * dt)
    value = solve_hjb_backward(F, path, grid, dt, control_mesh=1e-2)
    return F, grid, value


class TestCriterion1RiccatiValue:
    def test_fine_solve_matches_closed_form(self, riccati_fine):
        F, grid, value = riccati_fine
        x = grid.nodes[:, 0]
        ball = np.abs(x) <= 1.0
        exact = 0.5 * x[ball] ** 2 * np.tanh(1.0)
        err = float(np.abs(value.values[0][ball] - exact).max())
        certify(1, err <= 5e-2, f"sup error {err:.2e} at h=1e-2, dt=1e-3 (tol 5e-2)")

    def test_observed_order_along_dt_h_over_10(self):
        errs = lqr_errors(1, (200, 400, 800), dt_per_h=0.1)
        certify_order(1, errs, "h=2e-2, 1e-2, 5e-3 at dt=h/10", 1e-3)


def lqr_errors(dim, cells, dt_per_h):
    """Sup error of the T = 1 ``lqr_oracle`` value at t = 0 on the unit
    ball against |x|^2/2 tanh(1), default control mesh, on [-2, 2]^dim
    with each cell count per axis and dt = dt_per_h * h."""
    F = lqr_oracle(dim=dim)
    errs = []
    for n in cells:
        grid = SpatialGrid((-2.0,) * dim, (2.0,) * dim, (n,) * dim)
        dt = dt_per_h * grid.max_spacing
        times = np.arange(int(round(1.0 / dt)) + 1) * dt
        path = MeasurePath.constant(DiscreteMeasure.dirac([0.0] * dim), times)
        u0 = solve_hjb_backward(F, path, grid, dt).values[0].ravel()
        r2 = (grid.nodes**2).sum(axis=1)
        ball = r2 <= 1.0
        errs.append(float(np.abs(u0[ball] - 0.5 * r2[ball] * np.tanh(1.0)).max()))
    return errs


def certify_order(criterion, errs, legs, tol):
    """Every halving of h (and dt) shrinks the error by at least 1.8, and
    the finest error is at most ``tol``: first order along dt = c h."""
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = min(ratios) >= 1.8 and errs[-1] <= tol
    certify(
        criterion,
        ok,
        f"errors {', '.join(f'{e:.3e}' for e in errs)} at {legs}, "
        f"halving ratios {', '.join(f'{r:.2f}' for r in ratios)} (>= 1.8), "
        f"finest {errs[-1]:.2e} (tol {tol:g})",
    )


class TestCriterion2EikonalConsistency:
    def test_error_level_and_halving(self):
        errs = {}
        for n in (1000, 2000):
            grid = SpatialGrid((-1.0,), (1.0,), (2 * n,))
            x = grid.nodes[:, 0]
            v = solve_eikonal(np.abs(x), NodeSet.from_points(grid, [[0.0]]), grid)
            errs[n] = float(np.abs(v - 0.5 * x * x).max())
        ratio = errs[1000] / errs[2000]
        ok = errs[2000] <= 1e-2 and ratio >= 1.8
        certify(
            2,
            ok,
            f"error {errs[2000]:.2e} at h=1e-3 (tol 1e-2), halving ratio {ratio:.2f} (>= 1.8)",
        )


class TestCriterion3ValueRate:
    def test_scaled_rate_error_is_flat_in_horizon(self, qc_sweep):
        _, _, records = qc_sweep
        scaled = [r.T * float(r.value_rate_err.max()) for r in records]
        ratio = bounded_ratio(scaled)
        certify(
            3,
            ratio <= 2.0,
            f"T * sup_s rate error = {[round(v, 4) for v in scaled]}, "
            f"max/min ratio {ratio:.4f} (cap 2.0)",
        )


class TestCriterion4SupportCollapse:
    def test_support_distance_decays_and_lands_small(self, qc_sweep):
        _, _, records = qc_sweep
        idx = {s: j for j, s in enumerate(records[0].s_grid)}
        decays = {
            s: [float(r.support_dist[idx[s]]) for r in records] for s in (0.5, 1.0)
        }
        decreasing = all(
            nonincreasing_with_slack(vals, slack=0.25, atol=0.0)
            for vals in decays.values()
        )
        final = float(records[-1].support_dist[idx[1.0]])
        ok = decreasing and final <= 0.1
        certify(
            4,
            ok,
            f"support distance by T at s=0.5 {decays[0.5]}, at s=1 {decays[1.0]}, "
            f"final {final:.3f} (cap 0.1)",
        )


class TestCriterion5DiracAndPotential:
    def test_measures_tighten_and_value_matches_potential(self, lqr_sweep):
        _, grid, records = lqr_sweep
        s_grid = records[0].s_grid
        tail = [j for j, s in enumerate(s_grid) if s >= 0.25]
        d1_ok = all(
            nonincreasing_with_slack(
                [float(r.d1_to_limit[j]) for r in records], slack=0.25, atol=0.01
            )
            for j in tail
        )
        # shifted value at s = 1/2 of the largest horizon against the
        # closed-form ergodic potential |x|^2 / 2 (critical value 0)
        last = records[-1]
        j_half = int(np.argmin(np.abs(s_grid - 0.5)))
        x = grid.nodes[:, 0]
        ball = np.abs(x) <= 1.0
        w = last.u_slices[j_half][ball]
        wkam = float(np.abs(w - 0.5 * x[ball] ** 2).max())
        ok = d1_ok and wkam <= 5e-2
        certify(
            5,
            ok,
            f"d1 to the point limit nonincreasing in T at every s >= 0.25: {d1_ok}; "
            f"potential error {wkam:.4f} at s=0.5, T={last.T:g} (tol 5e-2)",
        )


class TestCriterion6StaticEquilibria:
    def test_solver_finds_certified_equilibria(self):
        grid = SpatialGrid((-2.0,), (2.0,), (200,))
        results = {}
        for F, start in (
            (quadratic_congestion(dim=1), [0.8]),
            (two_wells(dim=1), [0.3]),
        ):
            res = solve_static(F, grid, DiscreteMeasure.dirac(start), eps_min=1e-9)
            results[F.name] = res
            assert res.converged
        qc_res = results["quadratic_congestion"]
        tw_res = results["two_wells"]
        support_ok = (
            np.allclose(qc_res.measure.points, [[0.0]])
            and np.allclose(sorted(tw_res.measure.points.ravel()), [-1.0, 1.0])
        )
        residual_ok = qc_res.residual <= 1e-6 and tw_res.residual <= 1e-6

        # brute-force reweighting of the solver's own support nodes cannot
        # do better than the returned measure
        oracle_ok = True
        for F, res in (
            (quadratic_congestion(dim=1), qc_res),
            (two_wells(dim=1), tw_res),
        ):
            assert res.measure.size <= 4
            best = np.inf
            for keep, w in _simplex_candidates(res.measure.size):
                m = DiscreteMeasure(res.measure.points[list(keep)], np.array(w))
                best = min(best, residual(F, m, slice_stats(F, m, grid)))
            oracle_ok = oracle_ok and res.residual <= best + 1e-6
        ok = support_ok and residual_ok and oracle_ok
        certify(
            6,
            ok,
            f"residuals {qc_res.residual:.1e} / {tw_res.residual:.1e} (tol 1e-6), "
            f"supports as predicted: {support_ok}, simplex oracle agreement: {oracle_ok}",
        )


def _simplex_candidates(k, steps=20):
    """Mesh weights on the k-simplex as (support indices, weights)."""
    import itertools

    for combo in itertools.combinations(range(steps + k - 1), k - 1):
        parts = (np.diff([-1, *combo, steps + k - 1]) - 1) / steps
        keep = tuple(i for i in range(k) if parts[i] > 0)
        yield keep, [parts[i] for i in keep]


class TestCriterion7ErgodicTriples:
    def test_every_certified_equilibrium_builds_a_valid_triple(self):
        grid_1d = SpatialGrid((-2.0,), (2.0,), (200,))
        grid_2d = SpatialGrid((-2.0, -2.0), (2.0, 2.0), (40, 40))
        cases = [
            (quadratic_congestion(dim=1), [0.8], grid_1d),
            (two_wells(dim=1), [0.3], grid_1d),
            (separated_kernel(dim=1), [0.4], grid_1d),
            (fg_plus_g(dim=1), [0.6], grid_1d),
            (quadratic_congestion(dim=2), [0.8, -0.5], grid_2d),
        ]
        worst_gap = worst_cont = worst_c = worst_work = 0.0
        all_ok = True
        for F, start, grid in cases:
            res = solve_static(F, grid, DiscreteMeasure.dirac(start), eps_min=1e-9)
            assert res.converged, F.name
            triple = build_ergodic_triple(F, res.measure, grid, eps_min=1e-9)
            # m charges only minimisers of its own slice, up to one cell
            support_ok = triple.residuals["support_violation"] <= grid.max_spacing * (1.0 + 1e-9)
            bound = 10.0 * grid.max_spacing
            gap = triple.residuals["crosscheck_gap"]
            cont = triple.residuals["continuity_residual"]
            worst_gap = max(worst_gap, gap / bound)
            worst_cont = max(worst_cont, cont / bound)
            all_ok = all_ok and support_ok and gap <= bound and cont <= bound
            if F.analytic_c_star is not None:
                # closed-form critical value: c and the average cost under m
                c_err = abs(triple.c - F.analytic_c_star)
                work = float(triple.m.weights @ F.evaluate_many(triple.m.points, triple.m))
                work_err = abs(work - F.analytic_c_star)
                worst_c = max(worst_c, c_err)
                worst_work = max(worst_work, work_err)
                all_ok = all_ok and c_err <= 1e-12 and work_err <= 1e-12
        certify(
            7,
            all_ok,
            f"5 models: supports within one cell of the argmin set, "
            f"worst Dijkstra bracket gap {worst_gap:.3f} and "
            f"continuity {worst_cont:.3f} of the 10h budget, "
            f"worst |c - c*| {worst_c:.1e} and |int F dm - c*| {worst_work:.1e} (tol 1e-12)",
        )


class TestCriterion8StructuralBounds:
    def test_gradient_and_sandwich_bounds_across_benchmarks(
        self, lqr_sweep, qc_sweep, riccati_fine
    ):
        reports = []
        for _, _, records in (lqr_sweep, qc_sweep):
            reports.extend(r.a_priori for r in records)
        F, _, value = riccati_fine
        reports.append(a_priori_report(value, F))
        grad_ok = all(rep["grad_max"] <= rep["grad_bound"] for rep in reports)
        sandwich_ok = all(
            rep["low_gap"] >= -rep["eps"] and rep["high_gap"] <= rep["eps"]
            for rep in reports
        )
        worst_grad = max(rep["grad_max"] / rep["grad_bound"] for rep in reports)
        worst_low = min(rep["low_gap"] for rep in reports)
        worst_high = max(rep["high_gap"] for rep in reports)
        certify(
            8,
            grad_ok and sandwich_ok,
            f"{len(reports)} value fields: gradient at worst {worst_grad:.2f} of bound, "
            f"sandwich gaps [{worst_low:.1e}, {worst_high:.1e}] within eps",
        )


class TestCriterion9ExactTransport:
    def test_cdf_distance_matches_lp_and_dirac_translation(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(60):
            a = _random_measure(rng)
            b = _random_measure(rng)
            worst = max(worst, abs(wasserstein1(a, b) - _w1_lp(a, b)))
        lp_ok = worst <= 1e-10
        dirac_ok = all(
            wasserstein1(DiscreteMeasure.dirac([x]), DiscreteMeasure.dirac([y]))
            == abs(x - y)
            for x, y in rng.uniform(-3, 3, size=(25, 2))
        )
        worst_2d = 0.0
        for _ in range(40):
            a = _random_lattice_measure(rng)
            b = _random_lattice_measure(rng)
            worst_2d = max(worst_2d, abs(wasserstein1(a, b) - _w1_lp(a, b)))
        lattice_ok = worst_2d <= 1e-12
        certify(
            9,
            lp_ok and dirac_ok and lattice_ok,
            f"worst |cdf - LP| {worst:.1e} over 60 pairs (tol 1e-10); "
            f"point-mass distances exact: {dirac_ok}; "
            f"worst 2D |lattice assignment - LP| {worst_2d:.1e} over 40 pairs (tol 1e-12)",
        )


def _random_measure(rng, max_size=6):
    size = int(rng.integers(1, max_size + 1))
    pts = rng.uniform(-2, 2, size=(size, 1))
    w = rng.random(size) + 0.05
    return DiscreteMeasure(pts, w / w.sum())


def _random_lattice_measure(rng, max_size=8):
    """2D cloud with weights k_i / N, smallest count 1, so it sits on the 1/N lattice."""
    size = int(rng.integers(1, max_size + 1))
    counts = np.concatenate([[1], rng.integers(1, 4, size=size - 1)])
    pts = rng.uniform(-2, 2, size=(size, 2))
    return DiscreteMeasure(pts, counts / counts.sum())


def _w1_lp(a, b):
    n, m = a.size, b.size
    diff = a.points[:, None, :] - b.points[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=-1)).ravel()
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    res = linprog(cost, A_eq=A_eq, b_eq=np.concatenate([a.weights, b.weights]), bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


class TestCriterion10StandaloneProperties:
    def test_property_suites_run_from_a_clean_directory(self, tmp_path):
        tests_dir = Path(__file__).resolve().parent
        node_ids = [
            f"{tests_dir / 'test_measures.py'}::TestW1MetricAxioms",
            f"{tests_dir / 'test_grid.py'}::TestInterpolation::test_interpolation_reproduces_random_fields",
            f"{tests_dir / 'test_ergodic.py'}::TestEikonal1D::test_homogeneity",
            f"{tests_dir / 'test_ergodic.py'}::TestEikonal1D::test_monotone_in_speed",
        ]
        # Test the same mfglab the outer run imported, even when it came from a
        # relative PYTHONPATH that does not resolve from tmp_path, and load no
        # pytest plugin the project does not declare (some write into the cwd).
        package_root = str(Path(mfglab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        leftovers = list(tmp_path.iterdir())
        ok = proc.returncode == 0 and not leftovers
        certify(
            10,
            ok,
            f"property suites exit code {proc.returncode} from a clean cwd, "
            f"artifacts created: {[p.name for p in leftovers]}"
            + (
                ""
                if proc.returncode == 0
                else f"; output: {proc.stdout[-500:]}; stderr: {proc.stderr[-500:]}"
            ),
        )


class TestCriterion12Riccati2DOrder:
    def test_observed_order_along_dt_h(self):
        errs = lqr_errors(2, (20, 40, 80), dt_per_h=1.0)
        certify_order(12, errs, "20^2, 40^2, 80^2 cells at dt=h", 2.5e-2)


class TestUniformInHorizonRegression:
    """Frozen empirical constants: the sweeps must not drift upward."""

    def test_trajectory_bounds_stable_in_horizon(self, lqr_sweep, qc_sweep):
        for _, grid, records in (lqr_sweep, qc_sweep):
            assert stable_within([r.chi_hat for r in records], frac=0.10)
            assert stable_within([r.chi_prime_hat for r in records], frac=0.10)
            assert stable_within(
                [r.r1_hat for r in records], frac=0.10, atol=grid.max_spacing
            )
            assert all(r.r1_hat <= 0.5 + grid.max_spacing for r in records)

    def test_occupational_bound_frozen(self, qc_sweep):
        _, _, records = qc_sweep
        worst = max(r.occ_bound for r in records)
        assert np.isfinite(worst)
        assert worst <= 0.2  # measured 0.084; alarm on a doubling

    def test_sweeps_converged_untainted(self, lqr_sweep, qc_sweep):
        for _, _, records in (lqr_sweep, qc_sweep):
            assert all(r.converged for r in records)
            assert all(not r.estimated for r in records)
