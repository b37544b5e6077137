"""Static equilibria: measures supported on the argmin of their own cost.

A measure is in equilibrium exactly when the integral of F(., m) - min F
against m vanishes.  The solver runs damped best-response (fictitious
play): average the current measure with the uniform measure on the
grid-tolerant argmin of its own slice.  Non-convergence is a reported
result, not an exception — with non-monotone couplings the iteration may
cycle, and the game may still have equilibria elsewhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cost_models import CostFunctional, CostSliceStats, slice_stats
from .grid_geometry import SpatialGrid, pairwise_sq_dist
from .measures import DEFAULT_SIZE_CAP, DiscreteMeasure, merge_duplicates, mix, wasserstein1_capped

logger = logging.getLogger(__name__)


def harmonic_damping(k: int) -> float:
    """Fictitious-play averaging weights 1, 1/2, 1/3, ..."""
    return 1.0 / (k + 1)


def constant_damping(lam: float) -> Callable[[int], float]:
    if not 0.0 < lam <= 1.0:
        raise ValueError("damping constant must lie in (0, 1]")
    return lambda k: lam


def residual(F: CostFunctional, m: DiscreteMeasure, stats: CostSliceStats) -> float:
    """Equilibrium certificate: integral of F(., m) minus its minimum.

    ``stats`` is the slice of m.  The reference minimum is taken over the
    grid nodes *and* the particle positions, so the value is nonnegative by
    construction even when a particle sits off-lattice below the best node.
    Zero exactly when every particle carries minimal cost.
    """
    particle_vals = F.evaluate_many(m.points, m)
    c = min(stats.c_m, float(particle_vals.min()))
    return float(m.weights @ (particle_vals - c))


def best_response(m: DiscreteMeasure, stats: CostSliceStats, mode: str = "uniform") -> DiscreteMeasure:
    """A measure supported on the grid-tolerant argmin of the slice ``stats`` of m.

    ``mode="uniform"`` returns the uniform measure on the argmin nodes (the
    canonical symmetric selection); ``mode="project"`` moves each particle
    of m to its nearest argmin node, keeping weights.
    """
    nodes = stats.argmin_set.points
    if mode == "uniform":
        return DiscreteMeasure.uniform(nodes)
    if mode == "project":
        nearest = np.argmin(pairwise_sq_dist(m.points, nodes), axis=1)
        return merge_duplicates(DiscreteMeasure(nodes[nearest], m.weights))
    raise ValueError(f"unknown best-response mode {mode!r}")


@dataclass(eq=False)
class StaticSolveResult:
    """Outcome of the damped best-response iteration.

    ``measure`` is the best iterate seen (smallest residual), whether or
    not the iteration converged; ``history`` rows are
    ``(iterate, residual, d1_step)`` with the step preceding the iterate.
    """

    measure: DiscreteMeasure
    residual: float
    converged: bool
    iterations: int
    history: list = field(default_factory=list)


def solve_static(
    F: CostFunctional,
    grid: SpatialGrid,
    init: DiscreteMeasure,
    damping_schedule: Callable[[int], float] | None = None,
    tol: float = 1e-9,
    max_iter: int = 200,
    eps_min: float | None = None,
    br_mode: str = "uniform",
    w1_size_cap: int = DEFAULT_SIZE_CAP,
) -> StaticSolveResult:
    """Damped best-response iteration m_{k+1} = (1 - lam_k) m_k + lam_k BR(m_k).

    Each iterate's slice is evaluated on the grid once, for both its
    residual and its best response.  Stops when the residual drops to
    ``tol``, so ``converged`` means ``residual <= tol``; the last of the
    ``max_iter`` residual checks takes no further step.  Returns the best iterate with its residual; a
    result with ``converged=False`` carries the full residual trace for
    cycle diagnosis.  Logs each residual at DEBUG and the stop reason at
    INFO on ``mfglab.static_game``.
    """
    if damping_schedule is None:
        damping_schedule = harmonic_damping
    m = init
    best_m, best_res = init, np.inf
    history: list[tuple[int, float, float]] = []
    converged = False
    iterations = 0
    step = np.nan
    for k in range(max_iter):
        stats = slice_stats(F, m, grid, eps_min)
        res = residual(F, m, stats)
        history.append((k, res, step))
        logger.debug("static iteration %d: residual %.3e", k, res)
        if res < best_res:
            best_m, best_res = m, res
        if res <= tol:
            converged = True
            logger.info("static solve converged at iteration %d: residual %.3e <= tol %.3e", k, res, tol)
            break
        if k == max_iter - 1:
            break
        lam = float(damping_schedule(k))
        br = best_response(m, stats, br_mode)
        m_next = mix(m, br, lam)
        step, _ = wasserstein1_capped(m, m_next, size_cap=w1_size_cap)
        m = m_next
        iterations = k + 1
    if not converged:
        logger.info("static solve reached max_iter %d: best residual %.3e > tol %.3e", max_iter, best_res, tol)
    return StaticSolveResult(
        measure=best_m,
        residual=float(best_res),
        converged=converged,
        iterations=iterations,
        history=history,
    )
