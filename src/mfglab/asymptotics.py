"""Horizon-sweep harness for the long-time behavior of the evolutive game.

Solves the finite-horizon MFG for a list of horizons T and measures, on a
rescaled time grid s = t/T, how fast the population collapses onto the
minimizing set, how close u(x, sT)/T gets to c*(1 - s), and (when the
minimizing set is a single point) how the shifted value approaches the
ergodic potential and the measures approach the Dirac limit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cost_models import CostFunctional, slice_stats
from .eikonal_ergodic import build_ergodic_triple
from .errors import MfgError, SolverError, StaticResidualError
from .finite_horizon import (
    MfgParams,
    a_priori_report,
    checkpoint_indices,
    first_iterations,
    horizon_steps,
    occupational_fractions,
    solve_mfg,
)
from .grid_geometry import NodeSet, SpatialGrid, distance_to_set
from .measures import DiscreteMeasure, support_distance, wasserstein1_capped

logger = logging.getLogger(__name__)


def nonincreasing_with_slack(values, slack: float, atol: float) -> bool:
    """Monotone-decay check with multiplicative slack per step.

    Accepts a sequence as "non-increasing" when no step grows by more than
    the slack fraction (plus an absolute floor for values stuck at the
    discretization level) and the last entry does not exceed the first by
    more than the floor.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size <= 1:
        return True
    if not np.isfinite(v).all():
        return False
    steps_ok = bool(np.all(v[1:] <= v[:-1] * (1.0 + slack) + atol))
    net_ok = bool(v[-1] <= v[0] + atol)
    return steps_ok and net_ok


def stable_within(values, frac: float = 0.10, atol: float = 1e-9) -> bool:
    """True when a sequence varies by at most the given fraction of its size."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0 or not np.isfinite(v).all():
        return False
    spread = float(v.max() - v.min())
    return spread <= frac * float(np.abs(v).max()) + atol


def bounded_ratio(values) -> float:
    """max/min of a nonnegative sequence (1.0 when identically zero)."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0 or not np.isfinite(v).all() or v.min() < 0:
        return float("inf")
    if v.max() == 0.0:
        return 1.0
    if v.min() == 0.0:
        return float("inf")
    return float(v.max() / v.min())


@dataclass
class SweepParams:
    """Knobs shared by every horizon in a sweep, and the thresholds that
    judge it: the ``sweep`` config section minus ``T_list``.

    ``mode`` selects the time resolution policy: "fixed_steps" keeps the
    number of steps constant across T (dt grows with T), "fixed_dt" keeps
    dt constant (step count grows with T; dt must divide every T).
    Every horizon's ``solve_mfg`` takes the one set of knobs ``mfg``.
    ``sweep_verdict`` reads the thresholds: ``slack`` and ``atol`` bound
    each step of a decay in T, ``support_cap`` the final support distance,
    ``rate_ratio_cap`` the spread of T times the value-rate error,
    ``wkam_cap`` the potential error at the largest horizon and
    ``semilimit_tol`` the semilimit gaps.  A knob out of its range is a
    ``ValueError`` whose message starts with the knob's name.
    """

    mode: str = "fixed_steps"
    n_steps: int = 200
    dt: float | None = None
    s_grid: tuple = (0.1, 0.25, 0.5, 0.75, 1.0)
    R: float = 1.0
    delta_occ: float = 0.1
    mfg: MfgParams = MfgParams()
    eps_min: float | None = None
    seed: int = 0
    wkam_cap: float = 5e-2
    slack: float = 0.25
    atol: float = 0.01
    support_cap: float = 0.1
    rate_ratio_cap: float = 2.0
    semilimit_tol: float = 0.05

    def __post_init__(self):
        if self.mode not in ("fixed_steps", "fixed_dt"):
            raise ValueError(f"mode must be 'fixed_steps' or 'fixed_dt', got {self.mode!r}")
        if self.mode == "fixed_dt" and not (self.dt is not None and self.dt > 0):
            raise ValueError(f"dt must be set and positive in fixed_dt mode, got {self.dt}")
        if self.mode == "fixed_steps" and self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1 in fixed_steps mode, got {self.n_steps}")
        s = np.asarray(self.s_grid, dtype=float)
        if s.size == 0 or not (np.all(s > 0.0) and np.all(s <= 1.0) and np.all(np.diff(s) > 0)):
            raise ValueError(f"s_grid must be strictly increasing inside (0, 1], got {list(self.s_grid)}")
        # `not x > 0` and `not x >= 0` also refuse NaN
        for name in ("R", "delta_occ", "wkam_cap", "support_cap", "semilimit_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("slack", "atol", "eps_min"):
            if getattr(self, name) is not None and not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        # it bounds a max/min ratio, which is never below 1
        if not self.rate_ratio_cap >= 1:
            raise ValueError(f"rate_ratio_cap must be at least 1, got {self.rate_ratio_cap}")

    def step_for(self, T: float) -> float:
        if self.mode == "fixed_steps":
            return float(T) / self.n_steps
        horizon_steps(T, self.dt)
        return float(self.dt)


@dataclass(eq=False)
class SweepRecord:
    """Everything measured for one horizon T, on the rescaled s-grid.

    The per-s arrays are aligned with ``s_grid``; ``slice_measures`` holds
    the transported population at the snapped times s*T, ``u_slices`` the
    value function there (flat node arrays).  A horizon whose fixed point
    did not reach tolerance (``converged`` false) is tainted: its numbers
    are reported but should not certify any limit claim.
    """

    T: float
    dt: float
    n_steps: int
    s_grid: np.ndarray
    s_times: np.ndarray
    support_dist: np.ndarray
    d1_to_limit: np.ndarray
    value_rate_err: np.ndarray
    wkam_err: np.ndarray
    u_slices: np.ndarray
    slice_measures: list
    rho: np.ndarray
    occ_bound: float
    chi_prime_hat: float
    a_priori: dict
    converged: bool
    iterations: int
    br_residual: float
    c_star_used: float
    argmin_points: np.ndarray
    estimated: bool


def _slice_index_for(s: float, n_steps: int) -> int:
    return int(round(s * n_steps))


def _estimate_argmin_and_c(
    F: CostFunctional,
    equilibrium,
    s_grid: np.ndarray,
    grid: SpatialGrid,
    eps_min: float | None,
):
    """Union of slice argmins, and mean slice minimum over the latter half."""
    n_t = equilibrium.value.n_steps
    indices = set()
    c_values = []
    for s in s_grid:
        m_s = equilibrium.flow_path.measure_at(_slice_index_for(float(s), n_t))
        stats = slice_stats(F, m_s, grid, eps_min=eps_min)
        indices.update(int(i) for i in stats.argmin_set.indices)
        if s >= 0.5:
            c_values.append(stats.c_m)
    node_set = NodeSet(grid, np.array(sorted(indices), dtype=np.int64))
    return node_set, float(np.mean(c_values))


def value_ball(grid: SpatialGrid, R: float) -> np.ndarray:
    """Mask of the nodes within R of the origin, where a sweep compares
    u(., sT)/T with c*(1 - s) and the shifted value with the potential."""
    return np.sqrt((grid.nodes * grid.nodes).sum(axis=1)) <= R + 1e-12


def run_sweep(
    F: CostFunctional,
    m0: DiscreteMeasure,
    T_list,
    grid: SpatialGrid,
    params: SweepParams | None = None,
) -> list[SweepRecord]:
    """Solve the MFG for every horizon and fill one record per horizon.

    The minimizing set and the critical value come from the model when it
    declares them; otherwise both are estimated from the largest-horizon
    solution (union of slice argmins; mean slice minimum over s >= 1/2) and
    the records are flagged ``estimated``.  A non-converged fixed point
    taints its record instead of aborting the sweep.  Logs one INFO record
    per horizon on ``mfglab.asymptotics`` as its solve ends (T, dt,
    iterations, ``br_residual``, ``converged``).  A model that declares
    no minimizing set or critical value needs a point s >= 1/2 in
    ``s_grid``; without one the sweep is a ``ValueError`` before any
    solve, as is a ``T_list`` that is empty or holds a nonpositive,
    infinite or repeated horizon.

    The horizons are solved in ascending T, each with its own seed.  In
    ``fixed_dt`` mode their first iterations, which all start from the
    constant path m0, are solved before any of them by one
    ``first_iterations`` call, and each horizon's ``solve_mfg`` takes its
    share back, bit for bit its own result.  If that call fails, nothing
    is shared: each horizon solves its first iteration itself and meets
    its own error at its turn.  Under ``fixed_steps`` the horizons have
    different steps and share nothing.
    """
    if params is None:
        params = SweepParams()
    horizons = sorted(float(T) for T in T_list)
    if not (horizons and all(0 < T < np.inf for T in horizons) and len(set(horizons)) == len(horizons)):
        raise ValueError(f"T_list must be nonempty, positive, finite and distinct, got {list(T_list)}")
    s_grid = np.asarray(params.s_grid, dtype=float)
    ball = value_ball(grid, params.R)
    if not ball.any():
        raise ValueError(f"no grid node inside the ball of radius {params.R}")
    estimated = F.analytic_argmin is None or F.analytic_c_star is None
    if estimated and not np.any(s_grid >= 0.5):
        raise ValueError(
            f"s_grid must hold a point s >= 0.5 to estimate c* of a model that declares none, "
            f"got {list(params.s_grid)}"
        )
    seeds = np.random.SeedSequence(params.seed).generate_state(len(horizons))
    dts = [params.step_for(T) for T in horizons]
    steps = [horizon_steps(T, dt) for T, dt in zip(horizons, dts)]
    shared = {}
    if params.mode == "fixed_dt":
        try:
            shared = first_iterations(F, m0, grid, params.dt, steps, params.mfg)
        except MfgError:
            pass  # each horizon solves its own first iteration, and fails at its turn
    solves = []
    for T, dt, n, seed in zip(horizons, dts, steps, seeds):
        eq = solve_mfg(F, m0, T, grid, dt, params.mfg, seed=int(seed), first=shared.get(n))
        logger.info(
            "sweep horizon T=%g: dt %g, %d iterations, br_residual %.3e, converged %s",
            T, dt, eq.iterations, eq.br_residual, eq.converged,
        )
        solves.append((T, dt, eq))

    if estimated:
        argmin_set, c_star = _estimate_argmin_and_c(
            F, solves[-1][2], s_grid, grid, params.eps_min
        )
    else:
        argmin_set = NodeSet.from_points(grid, F.analytic_argmin)
        c_star = float(F.analytic_c_star)
    argmin_points = argmin_set.points
    singleton = argmin_points.shape[0] == 1

    v_erg = None
    if singleton:
        try:
            triple = build_ergodic_triple(
                F,
                DiscreteMeasure.dirac(argmin_points[0]),
                grid,
                eps_min=params.eps_min,
            )
            v_erg = triple.v.ravel()
        except (StaticResidualError, SolverError):
            v_erg = None

    limit = DiscreteMeasure.dirac(argmin_points[0]) if singleton else None

    records = []
    for T, dt, eq in solves:
        n_t = eq.value.n_steps
        n_s = s_grid.size
        sup_dist = np.empty(n_s)
        d1 = np.full(n_s, np.nan)
        rate_err = np.empty(n_s)
        wkam = np.full(n_s, np.nan)
        u_slices = np.empty((n_s, grid.n_nodes))
        slice_measures = []
        s_times = np.empty(n_s)
        for i, s in enumerate(s_grid):
            k = _slice_index_for(float(s), n_t)
            s_times[i] = eq.value.times[k]
            u = eq.value.values[k].ravel()
            u_slices[i] = u
            m_s = eq.flow_path.measure_at(k)
            slice_measures.append(m_s)
            sup_dist[i] = support_distance(m_s, argmin_set)
            if limit is not None:
                d1[i], _ = wasserstein1_capped(
                    m_s, limit, size_cap=params.mfg.w1_size_cap, seed=params.seed
                )
            rate_err[i] = float(np.abs(u[ball] / T - c_star * (1.0 - s)).max())
            if v_erg is not None:
                shifted = u - c_star * T * (1.0 - s)
                wkam[i] = float(np.abs(shifted[ball] - v_erg[ball]).max())

        rho = occupational_fractions(
            eq.flow_path.positions, F, eq.flow_path, params.delta_occ, grid
        )
        start_dists = distance_to_set(eq.flow_path.positions[0], argmin_set)
        away = start_dists > grid.max_spacing
        if away.any():
            occ_bound = float(
                (rho[away] * T * params.delta_occ / start_dists[away]).max()
            )
        else:
            occ_bound = float("nan")

        records.append(
            SweepRecord(
                T=float(T),
                dt=float(dt),
                n_steps=n_t,
                s_grid=s_grid.copy(),
                s_times=s_times,
                support_dist=sup_dist,
                d1_to_limit=d1,
                value_rate_err=rate_err,
                wkam_err=wkam,
                u_slices=u_slices,
                slice_measures=slice_measures,
                rho=rho,
                occ_bound=occ_bound,
                chi_prime_hat=eq.trajectory_stats.chi_prime_hat,
                a_priori=a_priori_report(eq.value, F),
                converged=eq.converged,
                iterations=eq.iterations,
                br_residual=eq.br_residual,
                c_star_used=c_star,
                argmin_points=argmin_points.copy(),
                estimated=estimated,
            )
        )
    return records


def singleton_limit_check(records: list, *, wkam_cap: float, slack: float, atol: float) -> dict:
    """Dirac-limit and ergodic-potential report for a one-point minimizing set.

    Tabulates per (T, s) the records' ``d1_to_limit`` and ``wkam_err``
    (``d1_table``, ``wkam_table``) and ``passed`` when both decay in T
    (within slack) at every s >= 0.25 and the potential error at the
    largest horizon, ``wkam_final``, stays below ``wkam_cap`` at interior s
    (the terminal slice s = 1 carries the flat terminal condition, not the
    potential).  Raises ``ValueError`` when every ``wkam_err`` is NaN (the
    sweep could not build the potential).
    """
    records = sorted(records, key=lambda r: r.T)
    s_grid = records[0].s_grid
    d1 = np.stack([r.d1_to_limit for r in records])
    wkam = np.stack([r.wkam_err for r in records])
    if np.isnan(wkam).all():
        raise ValueError("the sweep records carry no ergodic-potential error")

    tail = s_grid >= 0.25
    interior = tail & (s_grid < 1.0 - 1e-12)
    d1_monotone = np.array([nonincreasing_with_slack(c, slack, atol) for c in d1.T])
    wkam_monotone = np.array([nonincreasing_with_slack(c, slack, atol) for c in wkam.T])
    wkam_final = float(wkam[-1, interior].max()) if interior.any() else float("nan")
    passed = (
        bool(d1_monotone[tail].all())
        and bool(wkam_monotone[tail].all())
        and bool(np.isfinite(wkam_final))
        and wkam_final <= wkam_cap
    )
    return {"d1_table": d1, "wkam_table": wkam, "wkam_final": wkam_final, "passed": passed}


def semilimit_surrogates(
    records: list,
    F: CostFunctional,
    grid: SpatialGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite surrogates of the relaxed lower/upper limits of F(x, m^T(sT)).

    For each s on the grid, takes the pointwise min and max of the slice
    costs over the two largest horizons and the neighboring s values, and
    the sup gap between them; a gap near zero at every s certifies that the
    slice costs converge (the single-limit scenario), a gap bounded away
    from zero flags genuine oscillation.

    Returns (lower, upper, gaps) with shapes (n_s, n_nodes), (n_s, n_nodes),
    (n_s,).
    """
    if len(records) < 3:
        raise ValueError("semilimit surrogates need at least 3 horizons")
    records = sorted(records, key=lambda r: r.T)
    top = records[-2:]
    s_grid = records[0].s_grid
    n_s = s_grid.size
    slice_costs = np.empty((len(top), n_s, grid.n_nodes))
    for i, rec in enumerate(top):
        for j in range(n_s):
            slice_costs[i, j] = F.evaluate_many(grid.nodes, rec.slice_measures[j])
    lower = np.empty((n_s, grid.n_nodes))
    upper = np.empty((n_s, grid.n_nodes))
    for j in range(n_s):
        nbr = slice(max(0, j - 1), min(n_s, j + 2))
        block = slice_costs[:, nbr, :].reshape(-1, grid.n_nodes)
        lower[j] = block.min(axis=0)
        upper[j] = block.max(axis=0)
    gaps = (upper - lower).max(axis=1)
    return lower, upper, gaps


def sweep_verdict(
    records: list,
    F: CostFunctional,
    grid: SpatialGrid,
    params: SweepParams,
) -> dict:
    """Summary of a horizon sweep, judged from the metrics in its records
    against the thresholds of ``params``.

    Checks support decay in T (within ``slack`` and ``atol``) at s >= 0.25
    and its final value (``support_cap``), the spread of T times the
    value-rate error (``rate_ratio_cap``), the stability of the speed bound
    ``chi_prime_hat``, the singleton limit report (one-point minimizing set
    with a built potential; ``wkam_cap``) and the semilimit gaps (three or
    more horizons; ``semilimit_tol``).
    ``passed`` requires every check and no tainted horizon.
    """
    records = sorted(records, key=lambda r: r.T)
    s_grid = records[0].s_grid
    tail = [j for j, s in enumerate(s_grid) if s >= 0.25]
    support_decay_ok = all(
        nonincreasing_with_slack([r.support_dist[j] for r in records], params.slack, params.atol)
        for j in tail
    )
    support_final = float(records[-1].support_dist[-1])
    rate_values = [r.T * float(r.value_rate_err.max()) for r in records]
    rate_ratio = bounded_ratio(rate_values)
    summary = {
        "T_list": [r.T for r in records],
        "s_grid": s_grid,
        "estimated_limit": bool(records[0].estimated),
        "c_star": records[0].c_star_used,
        "tainted_any": not all(r.converged for r in records),
        "support_decay_ok": support_decay_ok,
        "support_final": support_final,
        "support_final_ok": support_final <= params.support_cap,
        "value_rate_times_T": rate_values,
        "value_rate_ratio": rate_ratio,
        "value_rate_ok": rate_ratio <= params.rate_ratio_cap,
        "chi_prime_hat_stable": stable_within([r.chi_prime_hat for r in records]),
        # fmax skips NaN bounds; all NaN (no particle starts off the
        # argmin set) gives NaN without nanmax's warning
        "occ_bound_max": float(np.fmax.reduce([r.occ_bound for r in records])),
    }
    if records[0].argmin_points.shape[0] == 1:
        try:
            summary["singleton"] = singleton_limit_check(
                records, wkam_cap=params.wkam_cap, slack=params.slack, atol=params.atol
            )
        except ValueError as exc:
            logger.warning("singleton limit check unavailable: %s", exc)
    if len(records) >= 3:
        _, _, gaps = semilimit_surrogates(records, F, grid)
        summary["semilimit_gaps"] = gaps
        summary["semilimit_gap_max"] = float(gaps.max())
        summary["semilimit_ok"] = float(gaps.max()) <= params.semilimit_tol

    summary["passed"] = not failed_checks(summary) and not summary["tainted_any"]
    return summary


def failed_checks(summary: dict) -> list[str]:
    """Names of the false checks of a sweep summary: every false ``*_ok``
    and ``*_stable`` key, and ``singleton.passed``."""
    failed = [k for k, v in summary.items() if k.endswith(("_ok", "_stable")) and not v]
    if "singleton" in summary and not summary["singleton"]["passed"]:
        failed.append("singleton.passed")
    return failed
