"""Cost functionals F(x, m) coupling position to the crowd distribution.

A model bundles a vectorised evaluator with the structural metadata the
solvers and diagnostics rely on: a bound on |F| over the box, a core box
that must contain every slice argmin, the cost gap outside the core, and,
when known in closed form, the argmin set and critical value of the
long-time limit.  The coupled built-ins enter the measure through
bounded kernel integrals and need not be monotone in it: for
``separated_kernel``, m1 = delta_0 and m2 = delta_1 give
int (F(., m1) - F(., m2)) d(m1 - m2) = -2 k(1) < 0.  ``two_wells`` and
``lqr_oracle`` do not depend on m, so that integral vanishes for them.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidMeasureError
from .grid_geometry import NodeSet, SpatialGrid, distance_to_box, pairwise_sq_dist
from .measures import DiscreteMeasure, sample_from_density, wasserstein1

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class CostFunctional:
    """A coupling cost F(x, m) with its structural metadata.

    ``evaluator`` maps (points (k, dim), measure) to values (k,).
    ``core_lower``/``core_upper`` bound the box where slice argmins must
    live; ``gap`` is a certified lower bound on F - min F outside it.
    ``analytic_argmin`` (coordinates, shape (k, dim)) and
    ``analytic_c_star`` are set when the long-time limit is known in
    closed form.  A builtin's parameters are its function's keyword
    arguments; the model keeps no copy of them.
    """

    name: str
    dim: int
    evaluator: Callable[[np.ndarray, DiscreteMeasure], np.ndarray]
    m_bound: float
    core_lower: tuple[float, ...]
    core_upper: tuple[float, ...]
    gap: float
    analytic_argmin: np.ndarray | None = None
    analytic_c_star: float | None = None
    lipschitz_d1: float | None = None

    def evaluate_many(self, points, m: DiscreteMeasure) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, model has {self.dim}")
        if m.dim != self.dim:
            raise InvalidMeasureError(f"measure has dimension {m.dim}, model has {self.dim}")
        vals = np.asarray(self.evaluator(pts, m), dtype=float)
        return vals.reshape(pts.shape[0])

    def evaluate(self, x, m: DiscreteMeasure) -> float:
        return float(self.evaluate_many(np.atleast_2d(np.asarray(x, dtype=float)), m)[0])


@dataclass(eq=False)
class CostSliceStats:
    """Grid statistics of one slice x -> F(x, m): its node ``values``, minimum
    ``c_m``, grid-tolerant argmin set and shifted values ``fbar``."""

    values: np.ndarray
    c_m: float
    argmin_set: NodeSet
    fbar: np.ndarray


def default_eps_min(max_abs_f: float, grid: SpatialGrid) -> float:
    """Argmin extraction tolerance: second-order flatness of smooth minima."""
    return 10.0 * max_abs_f * grid.max_spacing ** 2


def slice_stats(
    F: CostFunctional,
    m: DiscreteMeasure,
    grid: SpatialGrid,
    eps_min: float | None = None,
) -> CostSliceStats:
    """The one grid evaluation of F(., m), with its minimum, grid-tolerant
    argmin set and shifted values.

    Logs a warning when the extracted argmin leaks outside the model's
    core box (an assumption-violation signal, not an error).
    """
    vals = F.evaluate_many(grid.nodes, m).reshape(grid.shape)
    c = float(vals.min())
    if eps_min is None:
        eps_min = default_eps_min(float(np.abs(vals).max()), grid)
    mask = (vals - c) <= eps_min
    argmin = NodeSet.from_mask(grid, mask)
    outside = distance_to_box(argmin.points, F.core_lower, F.core_upper) > grid.max_spacing
    if outside.any():
        logger.warning(
            "model %s: %d argmin node(s) outside the core box", F.name, int(outside.sum())
        )
    return CostSliceStats(values=vals, c_m=c, argmin_set=argmin, fbar=vals - c)


def gamma_estimate(
    F: CostFunctional,
    grid: SpatialGrid,
    r_values,
    stats: list[CostSliceStats],
) -> list[tuple[float, float]]:
    """Empirical coercivity profile from the slices of sampled measures.

    For each radius r, the minimum of F(., m) - min F(., m) over nodes
    farther than r from the argmin set, minimised over the slices.  The
    argmin set is ``F.analytic_argmin`` when declared, else the union of
    the slice argmins.  Nondecreasing in r by nestedness; radii whose node
    set is empty are dropped.
    """
    argmin_points = F.analytic_argmin
    if argmin_points is None:
        argmin_points = np.concatenate([st.argmin_set.points for st in stats], axis=0)
    pts = np.atleast_2d(np.asarray(argmin_points, dtype=float))
    dist = np.sqrt(pairwise_sq_dist(grid.nodes, pts).min(axis=1))
    fbars = [st.fbar.ravel() for st in stats]
    table = []
    for r in sorted(float(r) for r in r_values):
        mask = dist > r
        if not mask.any():
            continue
        gamma = min(float(fb[mask].min()) for fb in fbars)
        table.append((r, gamma))
    return table


# -- built-in models -----------------------------------------------------------


def _as_box(dim: int, lower, upper) -> tuple[tuple[float, ...], tuple[float, ...]]:
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (dim,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (dim,))
    return tuple(float(x) for x in lo), tuple(float(x) for x in hi)


def _sq_norm(pts: np.ndarray) -> np.ndarray:
    return (pts * pts).sum(axis=-1)


def _gauss_well(pts: np.ndarray) -> np.ndarray:
    """f(x) = 1 - exp(-|x|^2): smooth, zero exactly at the origin."""
    return 1.0 - np.exp(-_sq_norm(pts))


def _congestion_g(r: np.ndarray) -> np.ndarray:
    """g(r) = 1 + r / (1 + r): bounded in [1, 2), increasing."""
    return 1.0 + r / (1.0 + r)


def _gauss_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # in place on the one (x, y) buffer: each fresh temporary of this size
    # is a new mapping from malloc, and so a new set of page faults
    k = pairwise_sq_dist(x, y)
    np.negative(k, out=k)
    return np.exp(k, out=k)


def _box_radius_sq(box_lower, box_upper, dim: int) -> float:
    lo, hi = _as_box(dim, box_lower, box_upper)
    return float(sum(max(abs(a), abs(b)) ** 2 for a, b in zip(lo, hi)))


def _numeric_gap(evaluate_f, dim: int, box_lower, box_upper, core_lower, core_upper, n: int = 201) -> float:
    """Certified-by-scan lower bound on f outside the core box."""
    lo, hi = _as_box(dim, box_lower, box_upper)
    axes = [np.linspace(lo[i], hi[i], n) for i in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([mm.ravel() for mm in mesh], axis=-1)
    outside = distance_to_box(pts, *_as_box(dim, core_lower, core_upper)) > 0
    if not outside.any():
        return 0.0
    return float(evaluate_f(pts[outside]).min())


def quadratic_congestion(dim: int = 1, box_lower=-2.0, box_upper=2.0, core: float = 0.5) -> CostFunctional:
    """Congestion around one quadratic well at the origin.

    F(x, m) = (1 - e^{-|x|^2}) (1 + I/(1 + I)) with
    I = int e^{-|x-y|^2} dm(y).  The argmin of every slice is {0}; the
    long-time critical value is 0.  ``core`` is the half-width of the core
    box, finite and > 0.
    """
    if not 0.0 < core < np.inf:
        raise ValueError(f"core must be finite and > 0, got {core}")

    def evaluator(pts: np.ndarray, m: DiscreteMeasure) -> np.ndarray:
        interaction = _gauss_kernel(pts, m.points) @ m.weights
        return _gauss_well(pts) * _congestion_g(interaction)

    rmax2 = _box_radius_sq(box_lower, box_upper, dim)
    lo, hi = _as_box(dim, -core, core)
    return CostFunctional(
        name="quadratic_congestion", dim=dim, evaluator=evaluator,
        m_bound=float((1.0 - np.exp(-rmax2)) * 2.0),
        core_lower=lo, core_upper=hi,
        gap=float(1.0 - np.exp(-core * core)),
        analytic_argmin=np.zeros((1, dim)),
        analytic_c_star=0.0,
        # kernel slope bound sup_r 2 r e^{-r^2} = sqrt(2/e), g' <= 1, f <= 1
        lipschitz_d1=float(np.sqrt(2.0 / np.e)),
    )


def two_wells(dim: int = 1, box_lower=-2.0, box_upper=2.0) -> CostFunctional:
    """Measure-independent cost with two symmetric wells.

    F(x) = (1 - e^{-|x - p|^2})(1 - e^{-|x + p|^2}) with p the first basis
    vector; the argmin is {-p, +p} for every measure.
    """
    p = np.zeros(dim)
    p[0] = 1.0

    def f(pts: np.ndarray) -> np.ndarray:
        return (1.0 - np.exp(-_sq_norm(pts - p))) * (1.0 - np.exp(-_sq_norm(pts + p)))

    def evaluator(pts: np.ndarray, m: DiscreteMeasure) -> np.ndarray:
        return f(pts)

    core_lo = np.full(dim, -0.5)
    core_hi = np.full(dim, 0.5)
    core_lo[0], core_hi[0] = -1.5, 1.5
    gap = _numeric_gap(f, dim, box_lower, box_upper, core_lo, core_hi)
    return CostFunctional(
        name="two_wells", dim=dim, evaluator=evaluator,
        m_bound=1.0,
        core_lower=tuple(core_lo), core_upper=tuple(core_hi), gap=gap,
        analytic_argmin=np.stack([-p, p]),
        analytic_c_star=0.0,
        lipschitz_d1=0.0,
    )


def separated_kernel(dim: int = 1, box_lower=-2.0, box_upper=2.0, delta: float = 0.5) -> CostFunctional:
    """Additive coupling through a kernel that vanishes near the well.

    F(x, m) = (1 - e^{-|x|^2}) + int max(0, |x - y| - delta)^2 dm(y); the
    kernel is flat on [0, delta], so measures supported near the origin do
    not raise the cost there.  ``delta`` is finite and > 0.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")

    def k(r: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, r - delta) ** 2

    def evaluator(pts: np.ndarray, m: DiscreteMeasure) -> np.ndarray:
        r = pairwise_sq_dist(pts, m.points)
        np.sqrt(r, out=r)
        return _gauss_well(pts) + k(r) @ m.weights

    lo, hi = _as_box(dim, box_lower, box_upper)
    diam = float(np.sqrt(sum((b - a) ** 2 for a, b in zip(lo, hi))))
    core = delta / 2.0
    core_lo, core_hi = _as_box(dim, -core, core)
    return CostFunctional(
        name="separated_kernel", dim=dim, evaluator=evaluator,
        m_bound=float(1.0 + k(np.array([diam]))[0]),
        core_lower=core_lo, core_upper=core_hi,
        gap=float(1.0 - np.exp(-core * core)),
        analytic_argmin=np.zeros((1, dim)),
        analytic_c_star=0.0,
    )


def fg_plus_g(dim: int = 1, box_lower=-2.0, box_upper=2.0) -> CostFunctional:
    """Factored coupling with a measure-dependent floor.

    F(x, m) = (1 - e^{-|x|^2}) (1 + I/(1 + I)) + int |y| dm(y); the slice
    minimum equals the floor term, so the critical value moves with m.
    """

    def evaluator(pts: np.ndarray, m: DiscreteMeasure) -> np.ndarray:
        G = _congestion_g(_gauss_kernel(pts, m.points) @ m.weights)
        floor = float(m.weights @ np.sqrt(_sq_norm(m.points)))
        return _gauss_well(pts) * G + floor

    rmax2 = _box_radius_sq(box_lower, box_upper, dim)
    core = 0.5
    return CostFunctional(
        name="fG_plus_g", dim=dim, evaluator=evaluator,
        m_bound=float((1.0 - np.exp(-rmax2)) * 2.0 + np.sqrt(rmax2)),
        core_lower=(-core,) * dim, core_upper=(core,) * dim,
        gap=float(1.0 - np.exp(-core * core)),
        analytic_argmin=np.zeros((1, dim)),
    )


def lqr_oracle(dim: int = 1, box_lower=-2.0, box_upper=2.0, c_star: float = 0.0) -> CostFunctional:
    """Closed-form oracle F(x, m) = c* + |x|^2 / 2 (measure-free).

    Its finite-horizon value function is known exactly, which makes it an
    oracle for the solvers rather than an experiment model.  ``c_star``
    is finite.
    """
    if not -np.inf < c_star < np.inf:
        raise ValueError(f"c_star must be finite, got {c_star}")

    def evaluator(pts: np.ndarray, m: DiscreteMeasure) -> np.ndarray:
        return c_star + 0.5 * _sq_norm(pts)

    rmax2 = _box_radius_sq(box_lower, box_upper, dim)
    core = 0.5
    return CostFunctional(
        name="lqr_oracle", dim=dim, evaluator=evaluator,
        m_bound=abs(c_star) + 0.5 * rmax2,
        core_lower=(-core,) * dim, core_upper=(core,) * dim,
        gap=0.5 * core * core,
        analytic_argmin=np.zeros((1, dim)),
        analytic_c_star=float(c_star),
        lipschitz_d1=0.0,
    )


BUILTIN_MODELS: dict[str, Callable[..., CostFunctional]] = {
    "quadratic_congestion": quadratic_congestion,
    "two_wells": two_wells,
    "separated_kernel": separated_kernel,
    "fG_plus_g": fg_plus_g,
    "lqr_oracle": lqr_oracle,
}


def build_model(name: str, dim: int, box_lower, box_upper, params: dict | None = None) -> CostFunctional:
    """Instantiate a built-in model by name on a given box."""
    if name not in BUILTIN_MODELS:
        raise ValueError(f"unknown model {name!r}; known: {sorted(BUILTIN_MODELS)}")
    return BUILTIN_MODELS[name](dim=dim, box_lower=box_lower, box_upper=box_upper, **(params or {}))


# -- assumption diagnostics ----------------------------------------------------


def _sample_measures(F: CostFunctional, grid: SpatialGrid, seed: int, extra: int) -> list[DiscreteMeasure]:
    core_lo = np.asarray(F.core_lower)
    core_hi = np.asarray(F.core_upper)
    center = 0.5 * (core_lo + core_hi)
    samples = [
        DiscreteMeasure.dirac(center),
        DiscreteMeasure.dirac(core_hi),
        DiscreteMeasure.uniform(np.stack([core_lo, core_hi])),
    ]
    density = np.ones(tuple(grid.n_cells))
    samples.append(sample_from_density(density, grid, 16, seed=seed))
    rng = np.random.default_rng(seed)
    for _ in range(extra):
        pts = rng.uniform(core_lo, core_hi, size=(4, F.dim))
        w = rng.dirichlet(np.ones(4))
        samples.append(DiscreteMeasure(pts, w))
    return samples


def monotonicity_pairing_min(F: CostFunctional, measures: list[DiscreteMeasure]) -> float:
    """Least ``int (F(., a) - F(., b)) d(a - b)`` over the pairs of ``measures``:
    negative breaks Lasry-Lions monotonicity.  F is evaluated once on each
    (support, measure) pair."""
    on = [[F.evaluate_many(a.points, b) for b in measures] for a in measures]
    return min(
        float(measures[i].weights @ (on[i][i] - on[i][j]) - measures[j].weights @ (on[j][i] - on[j][j]))
        for i, j in itertools.combinations(range(len(measures)), 2)
    )


def validate_assumptions(
    F: CostFunctional,
    grid: SpatialGrid,
    seed: int = 0,
    n_random: int = 3,
    lipschitz_slack: float = 1.10,
) -> dict:
    """Numerical checks of the structural model assumptions.

    Checks, over a deterministic suite of sampled measures: |F| within the
    declared bound, slice argmins inside the core box, the cost gap on the
    outermost node ring (confinement), bounded second differences
    (regularity), and the Lipschitz-in-measure ratio against the declared
    constant.  Returns a report dict with a ``violations`` list; empty
    means all assumptions held.
    ``metrics["gamma_table"]`` is the coercivity profile of
    :func:`gamma_estimate`, nondecreasing by construction.
    ``metrics["monotonicity_pairing_min"]`` is
    :func:`monotonicity_pairing_min` over the sampled measures and Diracs
    at the two box corners: a negative value witnesses that F is not
    Lasry-Lions monotone.  Each sampled measure's slice is evaluated once.
    """
    samples = _sample_measures(F, grid, seed, n_random)
    slices = [slice_stats(F, m, grid) for m in samples]
    violations: list[str] = []
    metrics: dict = {}

    max_abs = max(float(np.abs(st.values).max()) for st in slices)
    metrics["max_abs_f"] = max_abs
    if max_abs > F.m_bound * (1 + 1e-9):
        violations.append(f"|F| reaches {max_abs}, above the declared bound {F.m_bound}")

    # argmin containment and boundary-ring gap
    ring = np.zeros(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        idxBase = [slice(None)] * grid.dim
        for side in (0, -1):
            idx = list(idxBase)
            idx[ax] = side
            ring[tuple(idx)] = True
    worst_ring = np.inf
    worst_core = 0.0
    for st in slices:
        pts = st.argmin_set.points
        worst_core = max(worst_core, float(distance_to_box(pts, F.core_lower, F.core_upper).max()))
        worst_ring = min(worst_ring, float(st.fbar[ring].min()))
    metrics["argmin_core_excess"] = worst_core
    metrics["boundary_ring_gap"] = worst_ring
    if worst_core > grid.max_spacing:
        violations.append(f"slice argmin leaves the core box by {worst_core}")
    if worst_ring < F.gap * (1 - 1e-9):
        violations.append(
            f"boundary-ring cost gap {worst_ring} below declared gap {F.gap}"
        )

    # regularity: second differences stay bounded
    second = 0.0
    for st in slices:
        for ax in range(grid.dim):
            d2 = np.diff(st.values, n=2, axis=ax) / grid.spacing[ax] ** 2
            second = max(second, float(np.abs(d2).max()))
    metrics["max_second_difference"] = second
    if not np.isfinite(second):
        violations.append("second differences are not finite")

    # Lipschitz continuity in the measure argument
    ratio = 0.0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            d1 = wasserstein1(samples[i], samples[j])
            if d1 < 1e-12:
                continue
            gapij = float(np.abs(slices[i].values - slices[j].values).max())
            ratio = max(ratio, gapij / d1)
    metrics["lipschitz_ratio"] = ratio
    if F.lipschitz_d1 is not None and ratio > max(F.lipschitz_d1, 1e-12) * lipschitz_slack:
        violations.append(
            f"Lipschitz ratio {ratio} exceeds declared constant {F.lipschitz_d1}"
        )

    # Lasry-Lions monotonicity needs every pairing >= 0.  The paper does not
    # assume it, so a negative minimum is a witness, not a violation.  The
    # Diracs at the box corners add pairs farther apart than the core box.
    corners = [DiscreteMeasure.dirac(grid.lower_array), DiscreteMeasure.dirac(grid.upper_array)]
    metrics["monotonicity_pairing_min"] = monotonicity_pairing_min(F, samples + corners)

    # coercivity profile
    lo, hi = np.asarray(grid.lower), np.asarray(grid.upper)
    rmax = float(np.sqrt(((hi - lo) / 2) @ ((hi - lo) / 2)))
    radii = np.linspace(0.25, rmax, 6)
    metrics["gamma_table"] = gamma_estimate(F, grid, radii, slices[:3])

    return {"model": F.name, "violations": violations, "metrics": metrics}
