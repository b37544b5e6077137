"""Discrete probability measures as weighted particle clouds.

Measures are Lagrangian particle lists: positions plus weights on the
simplex.  The 1-Wasserstein distance is computed exactly: in dimension one
by the CDF-difference integral; in dimension two by an assignment when both
weight vectors sit on a common 1/N lattice with N at most the size cap
(uniform clouds, Cesaro means of flows, capped resamples), and by the
transportation LP, solved with HiGHS, for weights off the lattice.  Both
are capped at ``DEFAULT_SIZE_CAP`` support points; ``wasserstein1_capped``
downsamples beyond that and says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import InvalidMeasureError, SizeCapError, SolverError
from .grid_geometry import NodeSet, SpatialGrid, distance_to_set, pairwise_sq_dist

WEIGHT_SUM_TOL = 1e-12
DUPLICATE_TOL = 1e-12
PRUNE_TOL = 1e-14
DEFAULT_SIZE_CAP = 512


@dataclass(eq=False)
class DiscreteMeasure:
    """Probability measure with finite support.

    ``points`` has shape (n, dim); ``weights`` is nonnegative and sums to
    one within ``WEIGHT_SUM_TOL``.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidMeasureError("points must be a nonempty (n, dim) array")
        if pts.shape[1] not in (1, 2):
            raise InvalidMeasureError("only dimensions 1 and 2 are supported")
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape[0] != pts.shape[0]:
            raise InvalidMeasureError("weights and points must have the same length")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise InvalidMeasureError("points and weights must be finite")
        if w.min() < -1e-15:
            raise InvalidMeasureError(f"negative weight {w.min()}")
        w = np.maximum(w, 0.0)
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidMeasureError(f"weights sum to {total}, not 1")
        self.points = pts.copy()
        self.weights = w.copy()

    # -- constructors ------------------------------------------------------

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(p[None, :], np.array([1.0]))

    @classmethod
    def uniform(cls, points) -> "DiscreteMeasure":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        n = pts.shape[0]
        return cls(pts, np.full(n, 1.0 / n))

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def mean(self) -> np.ndarray:
        return self.weights @ self.points


def _merge_rows(rows: np.ndarray, weights: np.ndarray):
    """Group the (n, k) ``rows`` that agree within ``DUPLICATE_TOL`` per
    coordinate: the index of each group's first row and the group's summed
    weight, renormalised; None when no two rows agree.  Groups come in
    lexicographic key order with the first and inverse indices of
    ``np.unique(keys, axis=0)``, from one stable ``np.lexsort`` rather than
    a sort over a k-field structured dtype."""
    keys = np.round(rows / DUPLICATE_TOL).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    first = order[starts]
    if first.size == rows.shape[0]:
        return None
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    w = np.bincount(inverse, weights=weights, minlength=first.size)
    return first, w / w.sum()


def _prune_weights(weights: np.ndarray, w_min: float = PRUNE_TOL):
    """The mask of weights at least ``w_min`` and those weights,
    renormalised; None when every weight passes."""
    keep = weights >= w_min
    if keep.all():
        return None
    if not keep.any():
        raise InvalidMeasureError("pruning removed every particle")
    w = weights[keep]
    return keep, w / w.sum()


def merge_duplicates(measure: DiscreteMeasure) -> DiscreteMeasure:
    """Merge particles whose positions agree within ``DUPLICATE_TOL`` per axis."""
    merged = _merge_rows(measure.points, measure.weights)
    if merged is None:
        return measure
    first, w = merged
    return DiscreteMeasure(measure.points[first], w)


def prune(measure: DiscreteMeasure, w_min: float = PRUNE_TOL) -> DiscreteMeasure:
    """Drop particles below ``w_min`` weight and renormalize."""
    pruned = _prune_weights(measure.weights, w_min)
    if pruned is None:
        return measure
    keep, w = pruned
    return DiscreteMeasure(measure.points[keep], w)


def mix(a: DiscreteMeasure, b: DiscreteMeasure, lam: float) -> DiscreteMeasure:
    """Convex combination (1 - lam) a + lam b with merge and prune."""
    if a.dim != b.dim:
        raise InvalidMeasureError("cannot mix measures of different dimension")
    if lam <= 0.0:
        return a
    if lam >= 1.0:
        return b
    pts = np.concatenate([a.points, b.points], axis=0)
    w = np.concatenate([(1.0 - lam) * a.weights, lam * b.weights])
    return prune(merge_duplicates(DiscreteMeasure(pts, w / w.sum())))


# -- Wasserstein-1 ---------------------------------------------------------


def _w1_exact_1d(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    x = np.concatenate([a.points[:, 0], b.points[:, 0]])
    s = np.concatenate([a.weights, -b.weights])
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cdf_gap = np.cumsum(s[order])
    return float(np.sum(np.abs(cdf_gap[:-1]) * np.diff(xs)))


def _solvers() -> SimpleNamespace:
    """scipy's ``linear_sum_assignment``, ``linprog`` and ``sparse``,
    imported on first 2D use: a 1D run never loads scipy."""
    from scipy import sparse
    from scipy.optimize import linear_sum_assignment, linprog

    return SimpleNamespace(linear_sum_assignment=linear_sum_assignment, linprog=linprog, sparse=sparse)


def _w1_assignment(cost: np.ndarray) -> float:
    rows, cols = _solvers().linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / cost.shape[0])


def _w1_transport_lp(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> float:
    """Exact optimal-transport value as the transportation LP, solved by HiGHS.

    The coupling is ``cost`` flattened row-major.  The marginal constraints
    are sparse: dense, they would take about 800 MB at the 512 x 256 cap.
    """
    n, m = cost.shape
    solvers = _solvers()
    sparse = solvers.sparse
    row_sums = sparse.kron(sparse.eye(n), np.ones((1, m)))
    col_sums = sparse.kron(np.ones((1, n)), sparse.eye(m))
    res = solvers.linprog(
        cost.ravel(),
        A_eq=sparse.vstack([row_sums, col_sums], format="csc"),
        b_eq=np.concatenate([supply, demand]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise SolverError(f"transportation LP failed: {res.message}")
    return float(res.fun)


def _lattice_counts(w: np.ndarray, size_cap: int) -> tuple[int, np.ndarray] | None:
    """``(n, counts)`` with ``w == counts / n`` within 1e-12, or None.

    ``n`` is ``c`` over the smallest positive weight, rounded, for the
    first count ``c = 1, 2, ...`` of that weight that passes: weights
    [0.4, 0.6] sit on 1/5 with counts 2 and 3.  A lattice finer than
    ``1 / size_cap`` is refused: the common lattice of two measures is
    finer still.
    """
    w_min = w[w > 0].min()
    for c in range(1, size_cap + 1):
        n = np.rint(c / w_min)
        if n > size_cap:
            return None
        n = int(n)
        counts = np.rint(w * n)
        if np.abs(w - counts / n).max() <= 1e-12 and counts.sum() == n:
            return n, counts.astype(np.int64)
    return None


def wasserstein1(a: DiscreteMeasure, b: DiscreteMeasure, size_cap: int = DEFAULT_SIZE_CAP) -> float:
    """Exact 1-Wasserstein distance between two particle measures.

    Dimension one uses the CDF formula.  In dimension two, let ``N_a`` be
    ``c`` over the smallest weight of ``a``, rounded, for the first count
    ``c = 1, 2, ...`` of that weight at which every weight of ``a`` is an
    integer count over ``N_a`` within 1e-12.  When the same holds for
    ``b`` and ``N = lcm(N_a, N_b) <= size_cap``, the distance is the
    assignment between the two clouds with each point repeated by its
    count on the common 1/N lattice: a transportation polytope with
    integral marginals has integral vertices, so an optimal coupling moves
    whole units.  Equal-size uniform clouds are the case of
    unit counts.  Other weights go to the transportation LP solved by
    HiGHS.  Supports larger than ``size_cap`` raise :class:`SizeCapError`
    (see :func:`wasserstein1_capped`).
    """
    if a.dim != b.dim:
        raise InvalidMeasureError("measures have different dimensions")
    if a.dim == 1:
        return _w1_exact_1d(a, b)
    if max(a.size, b.size) > size_cap:
        raise SizeCapError(
            f"supports of size {a.size} and {b.size} exceed the exact-transport cap {size_cap}"
        )
    cost = pairwise_sq_dist(a.points, b.points)
    np.sqrt(cost, out=cost)
    lattice_a = _lattice_counts(a.weights, size_cap)
    lattice_b = _lattice_counts(b.weights, size_cap)
    if lattice_a is not None and lattice_b is not None:
        (n_a, counts_a), (n_b, counts_b) = lattice_a, lattice_b
        n = int(np.lcm(n_a, n_b))
        if n <= size_cap:
            rows = np.repeat(np.arange(a.size), counts_a * (n // n_a))
            cols = np.repeat(np.arange(b.size), counts_b * (n // n_b))
            return _w1_assignment(cost[np.ix_(rows, cols)])
    return _w1_transport_lp(cost, a.weights, b.weights)


def wasserstein1_capped(
    a: DiscreteMeasure,
    b: DiscreteMeasure,
    size_cap: int = DEFAULT_SIZE_CAP,
    seed: int = 0,
) -> tuple[float, bool]:
    """W1 with automatic systematic downsampling above the cap.

    Returns ``(value, capped)`` where ``capped`` records whether either
    measure was downsampled.  ``solve_mfg`` reports it as
    ``MfgEquilibrium.w1_capped`` and ``evolve_summary.json`` as
    ``w1_capped``.
    """
    capped = False
    if a.dim >= 2:
        rng = np.random.default_rng(seed)
        if a.size > size_cap:
            a = _downsample(a, size_cap, rng)
            capped = True
        if b.size > size_cap:
            b = _downsample(b, size_cap, rng)
            capped = True
    return wasserstein1(a, b, size_cap=size_cap), capped


def _systematic_indices(weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    targets = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), targets, side="left").clip(0, weights.size - 1)


def _downsample(m: DiscreteMeasure, n: int, rng: np.random.Generator) -> DiscreteMeasure:
    idx = _systematic_indices(m.weights, n, rng)
    return merge_duplicates(DiscreteMeasure(m.points[idx], np.full(n, 1.0 / n)))


def support_distance(m: DiscreteMeasure, node_set: NodeSet) -> float:
    """Largest distance from a particle of positive weight to the node set."""
    return float(np.max(distance_to_set(m.points[m.weights > 0], node_set)))


# -- sampling from densities -------------------------------------------------


def _cell_masses(density: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Cell mass array from a cell-indexed density."""
    cell_vals = np.asarray(density, dtype=float)
    if cell_vals.shape != tuple(grid.n_cells):
        raise ValueError(f"density shape {cell_vals.shape} is not the cell shape {tuple(grid.n_cells)}")
    if cell_vals.min() < 0:
        raise ValueError("density must be nonnegative")
    return cell_vals * float(np.prod(grid.spacing))


def _cell_centroids(grid: SpatialGrid) -> np.ndarray:
    axes = [
        grid.lower[i] + (np.arange(grid.n_cells[i]) + 0.5) * grid.spacing[i]
        for i in range(grid.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([mm.ravel() for mm in mesh], axis=-1)


def sample_from_density(density, grid: SpatialGrid, n_particles: int, seed: int = 0) -> DiscreteMeasure:
    """Deterministic stratified sampling of a cell-indexed density on the grid.

    Cell weights are proportional to density times cell volume.  When
    ``n_particles`` is at least the number of positive cells, one particle
    sits at each positive cell centroid carrying that cell's mass;
    otherwise a seeded systematic resampling selects ``n_particles``
    centroids with equal weights.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be positive")
    masses = _cell_masses(density, grid).ravel()
    total = masses.sum()
    if total <= 0:
        raise ValueError("density integrates to zero")
    w = masses / total
    centroids = _cell_centroids(grid)
    positive = np.flatnonzero(w > 0)
    if n_particles >= positive.size:
        return DiscreteMeasure(centroids[positive], w[positive])
    rng = np.random.default_rng(seed)
    idx = _systematic_indices(w, n_particles, rng)
    return merge_duplicates(DiscreteMeasure(centroids[idx], np.full(n_particles, 1.0 / n_particles)))


# -- measure paths -----------------------------------------------------------


@dataclass(eq=False)
class MeasurePath:
    """A time-indexed family of measures sharing one particle system.

    ``positions`` has shape (n_times, n_slots, dim); ``weights`` is one
    simplex vector shared by all times (particles move, weights stay).
    The path is checked once, when it is built: the positions at every
    time are finite, and the weights pass the checks of
    ``DiscreteMeasure``, clipped at 0 as it clips them.  ``measure_at``
    therefore hands out read-only slices without checking them again.
    """

    times: np.ndarray
    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).ravel()
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float).ravel()
        if pos.ndim != 3:
            raise InvalidMeasureError("positions must have shape (n_times, n_slots, dim)")
        if pos.shape[0] != t.size:
            raise InvalidMeasureError("positions and times disagree on n_times")
        if pos.shape[1] != w.size:
            raise InvalidMeasureError("positions and weights disagree on n_slots")
        if t.size < 1 or np.any(np.diff(t) <= 0):
            raise InvalidMeasureError("times must be strictly increasing")
        # weight checks are delegated to DiscreteMeasure semantics
        DiscreteMeasure(pos[0], w)
        if not np.all(np.isfinite(pos)):
            raise InvalidMeasureError("positions must be finite at every time")
        self.times = t.copy()
        self.positions = pos.copy()
        self.weights = np.maximum(w, 0.0).copy()

    @classmethod
    def constant(cls, m: DiscreteMeasure, times) -> "MeasurePath":
        t = np.asarray(times, dtype=float).ravel()
        pos = np.broadcast_to(m.points, (t.size,) + m.points.shape).copy()
        return cls(t, pos, m.weights)

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def n_slots(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.positions.shape[2]

    def measure_at(self, k: int) -> DiscreteMeasure:
        """The measure at time index ``k``: a ``DiscreteMeasure`` over
        read-only views of ``positions[k]`` and the weights, so writing
        to it raises instead of changing the path.  Its checks are not
        run again: the path ran them on every time when it was built."""
        m = object.__new__(DiscreteMeasure)
        m.points, m.weights = _read_only(self.positions[k]), _read_only(self.weights)
        return m


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _dedupe_trajectories(path: MeasurePath) -> MeasurePath:
    """Merge slots whose full trajectories coincide within ``DUPLICATE_TOL``.

    Slots whose t = 0 keys differ cannot merge, so a path whose starts are
    all distinct is returned without keying the full trajectories."""
    starts = np.round(path.positions[0] / DUPLICATE_TOL).astype(np.int64)
    starts = starts[np.lexsort(starts.T)]
    if np.any(starts[1:] != starts[:-1], axis=1).all():
        return path
    merged = _merge_rows(path.positions.transpose(1, 0, 2).reshape(path.n_slots, -1), path.weights)
    if merged is None:
        return path
    first, w = merged
    return MeasurePath(path.times, path.positions[:, first, :], w)


def mix_paths(
    a: MeasurePath,
    b: MeasurePath,
    lam: float,
    cap: int | None = None,
    seed: int = 0,
) -> MeasurePath:
    """Damped mixture of two measure paths on the same time lattice.

    Slots are concatenated with weights scaled by (1 - lam) and lam,
    identical trajectories merged, tiny weights pruned, and the slot count
    capped by seeded systematic resampling of whole trajectories.
    """
    if a.n_times != b.n_times or not np.allclose(a.times, b.times, rtol=0.0, atol=1e-9):
        raise InvalidMeasureError("paths live on different time lattices")
    if a.dim != b.dim:
        raise InvalidMeasureError("paths have different dimensions")
    if lam >= 1.0:
        mixed = b
    elif lam <= 0.0:
        mixed = a
    else:
        pos = np.concatenate([a.positions, b.positions], axis=1)
        w = np.concatenate([(1.0 - lam) * a.weights, lam * b.weights])
        mixed = MeasurePath(a.times, pos, w / w.sum())
    mixed = _dedupe_trajectories(mixed)
    pruned = _prune_weights(mixed.weights)
    if pruned is not None:
        keep, w = pruned
        mixed = MeasurePath(mixed.times, mixed.positions[:, keep, :], w)
    if cap is not None and mixed.n_slots > cap:
        rng = np.random.default_rng(seed)
        idx = _systematic_indices(mixed.weights, cap, rng)
        pos = mixed.positions[:, idx, :]
        mixed = _dedupe_trajectories(MeasurePath(mixed.times, pos, np.full(cap, 1.0 / cap)))
    return mixed
