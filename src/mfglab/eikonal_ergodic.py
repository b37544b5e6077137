"""Ergodic triples (c, v, m) via the Dirichlet eikonal problem.

Given a measure m in static equilibrium, the long-run value c is the
minimum of its cost slice and the corrector v solves |grad v| = ell with
ell = sqrt(2 (F - c)) and v = 0 on the grid-tolerant argmin set.  The
solver is Godunov-upwind fast sweeping (Gauss-Seidel over the four axis
orderings of a node array; 1D and 2D share it, a line being one column);
validation compares v with an independent shortest-path estimate, tests
the distributional continuity equation against smooth bumps, and reports
how far m charges nodes outside the argmin set.  The integral identity
tying the average cost under m to the critical value is the static
residual of m.  The triple is built from a static equilibrium, so c is
the slice minimum by construction; ``support_violation`` is the converse
condition that can still fail.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .cost_models import CostFunctional, slice_stats
from .errors import SolverError, StaticResidualError
from .grid_geometry import NodeSet, SpatialGrid
from .measures import DiscreteMeasure, support_distance
from .static_game import residual as static_residual

logger = logging.getLogger(__name__)

_INF = float("inf")


# -- fast sweeping -----------------------------------------------------------


def _local_value(a0: float, h0: float, a1: float, h1: float, rhs: float) -> float:
    """Smallest t with sum_i ((t - a_i)+ / h_i)^2 = rhs^2 for up to 2 axes."""
    if a0 > a1:
        a0, a1, h0, h1 = a1, a0, h1, h0
    if a0 == _INF:
        return _INF
    t = a0 + rhs * h0
    if t <= a1:
        return t
    ih0 = 1.0 / (h0 * h0)
    ih1 = 1.0 / (h1 * h1)
    A = ih0 + ih1
    B = a0 * ih0 + a1 * ih1
    C = a0 * a0 * ih0 + a1 * a1 * ih1 - rhs * rhs
    disc = B * B - A * C
    if disc <= 0.0:
        return min(t, a1 + rhs * h1)
    return (B + math.sqrt(disc)) / A


def _sweep(v, ell, fixed, order0, order1, h0, h1) -> float:
    n0 = len(v)
    n1 = len(v[0])
    max_change = 0.0
    for i in order0:
        vi = v[i]
        fi = fixed[i]
        ei = ell[i]
        up = v[i - 1] if i > 0 else None
        down = v[i + 1] if i < n0 - 1 else None
        for j in order1:
            if fi[j]:
                continue
            a0 = up[j] if up is not None else _INF
            if down is not None and down[j] < a0:
                a0 = down[j]
            a1 = vi[j - 1] if j > 0 else _INF
            if j < n1 - 1 and vi[j + 1] < a1:
                a1 = vi[j + 1]
            t = _local_value(a0, h0, a1, h1, ei[j])
            if t < vi[j]:
                change = vi[j] - t
                if change > max_change:
                    max_change = change
                vi[j] = t
    return max_change


def solve_eikonal(
    ell,
    dirichlet: NodeSet,
    grid: SpatialGrid,
    sweep_tol: float = 1e-12,
    max_sweeps: int = 200,
    *,
    return_sweeps: bool = False,
) -> np.ndarray | tuple[np.ndarray, int]:
    """Godunov fast-sweeping solution of |grad v| = ell, v = 0 on the set.

    Gauss-Seidel passes alternate over the four index orderings of a node
    array until the largest node update in a full round falls below
    ``sweep_tol``; values only decrease, so the limit is the exact discrete
    solution.  A 1D grid is swept as one column, where the two axis-1
    orderings coincide.  Boundary nodes use one-sided (outflow)
    differences.  Returns v, or ``(v, sweeps)`` with the number of rounds
    used when ``return_sweeps`` is set.  Raises :class:`SolverError`
    carrying the last update map when the sweep budget is exhausted.
    """
    arr = np.asarray(ell, dtype=float).reshape(grid.shape)
    if arr.min() < 0:
        raise ValueError(f"ell must be nonnegative, found {arr.min()}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("ell must be finite")
    if len(dirichlet) == 0:
        raise ValueError("the Dirichlet node set must be nonempty")

    # a line is one column: with no axis-1 neighbour a1 is inf, so
    # _local_value is the 1D update a0 + ell * h0
    shape = (grid.shape[0], grid.n_nodes // grid.shape[0])
    n0, n1 = shape
    h0, h1 = float(grid.spacing[0]), float(grid.spacing[-1])
    fixed = np.zeros(grid.n_nodes, dtype=bool)
    fixed[dirichlet.indices] = True
    v = np.where(fixed, 0.0, _INF).reshape(shape).tolist()
    fixed = fixed.reshape(shape).tolist()
    ell_rows = arr.reshape(shape).tolist()
    orders0 = (range(n0), range(n0 - 1, -1, -1))
    orders1 = (range(n1), range(n1 - 1, -1, -1))
    for sweeps in range(1, max_sweeps + 1):
        change = 0.0
        for o0, o1 in itertools.product(orders0, orders1):
            change = max(change, _sweep(v, ell_rows, fixed, o0, o1, h0, h1))
        if change <= sweep_tol:
            v = np.asarray(v, dtype=float).reshape(grid.shape)
            return (v, sweeps) if return_sweeps else v
    raise SolverError(
        "eikonal fast sweeping did not converge within the sweep budget",
        residual=np.asarray(v, dtype=float).reshape(grid.shape),
    )


# -- independent shortest-path estimate ---------------------------------------


def _graph_distance(ell, dirichlet: NodeSet, grid: SpatialGrid) -> np.ndarray:
    """Multi-source shortest-path distance from the Dirichlet nodes at every node.

    The grid graph has 2 neighbors in 1D and 8 in 2D, with edge cost equal
    to the mean of ell at the endpoints times the edge length.  On the 1D
    line a path runs from its nearest source to either side, so the
    distance is two passes over Python floats, forward then backward: the
    sums and comparisons of Dijkstra on the line graph, bit for bit, and
    no scipy import.  2D runs scipy's Dijkstra.
    """
    flat = np.asarray(ell, dtype=float).reshape(grid.shape).ravel()
    offsets = [(1,)] if grid.dim == 1 else [(1, 0), (0, 1), (1, 1), (1, -1)]
    idx_grid = np.arange(grid.n_nodes).reshape(grid.shape)
    rows, cols, costs = [], [], []
    for off in offsets:
        # node pairs (i, i + off) that both lie in the grid
        src = idx_grid[tuple(slice(max(-o, 0), n - max(o, 0)) for o, n in zip(off, grid.shape))]
        dst = idx_grid[tuple(slice(max(o, 0), n - max(-o, 0)) for o, n in zip(off, grid.shape))]
        src, dst = src.ravel(), dst.ravel()
        length = float(np.linalg.norm(np.asarray(off) * grid.spacing))
        rows.append(src)
        cols.append(dst)
        costs.append(0.5 * (flat[src] + flat[dst]) * length)
    if grid.dim == 1:
        w = costs[0].tolist()  # w[i] joins nodes i and i + 1
        d = [_INF] * grid.n_nodes
        for i in dirichlet.indices.tolist():
            d[i] = 0.0
        for i in range(1, len(d)):
            d[i] = min(d[i], d[i - 1] + w[i - 1])
        for i in range(len(d) - 2, -1, -1):
            d[i] = min(d[i], d[i + 1] + w[i])
        return np.array(d)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    graph = csr_matrix(
        (np.concatenate(costs), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_nodes, grid.n_nodes),
    )
    return dijkstra(graph, directed=False, indices=dirichlet.indices, min_only=True)


def _graph_stretch(grid: SpatialGrid) -> float:
    """Worst ratio of graph path length to straight-line length: 1 on the
    1D line graph; in 2D, 1 / cos(theta / 2) with theta the widest angle
    between adjacent stencil directions (1.0824 for square cells)."""
    if grid.dim == 1:
        return 1.0
    h0, h1 = grid.spacing
    return float(1.0 / np.cos(0.5 * max(np.arctan2(h1, h0), np.arctan2(h0, h1))))


# -- distributional continuity check ------------------------------------------


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    mask = np.abs(t) < 1.0
    tm = t[mask]
    out[mask] = np.exp(-1.0 / (1.0 - tm * tm))
    return out


def _bump_prime(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    mask = np.abs(t) < 1.0
    tm = t[mask]
    q = 1.0 - tm * tm
    out[mask] = np.exp(-1.0 / q) * (-2.0 * tm) / (q * q)
    return out


def bump_gradient(center, width: float):
    """Gradient of a tensor-product smooth bump of the given width."""
    c = np.atleast_1d(np.asarray(center, dtype=float))

    def grad(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        t = (pts - c) / width
        vals = _bump(t)
        primes = _bump_prime(t) / width
        out = np.empty_like(pts)
        for ax in range(pts.shape[1]):
            others = np.ones(pts.shape[0])
            for other_ax in range(pts.shape[1]):
                if other_ax != ax:
                    others = others * vals[:, other_ax]
            out[:, ax] = primes[:, ax] * others
        return out

    return grad


def default_test_functions(grid: SpatialGrid):
    """Bump gradients centered on the interior quarter lattice, two widths."""
    extent = grid.upper_array - grid.lower_array
    fractions = (0.25, 0.5, 0.75)
    axis_centers = [
        [grid.lower[ax] + f * extent[ax] for f in fractions] for ax in range(grid.dim)
    ]
    family = []
    for center in itertools.product(*axis_centers):
        for frac in (0.25, 0.125):
            width = float(frac * extent.max())
            family.append(bump_gradient(np.asarray(center), width))
    return family


def node_gradient(v, grid: SpatialGrid) -> list[np.ndarray]:
    """Central-difference gradient per axis (one-sided at the boundary)."""
    arr = np.asarray(v, dtype=float).reshape(grid.shape)
    return [np.gradient(arr, grid.spacing[ax], axis=ax) for ax in range(grid.dim)]


def continuity_residual(v, m: DiscreteMeasure, grid: SpatialGrid, test_functions=None):
    """Worst violation of the weak continuity equation div(m grad v) = 0.

    Returns ``(max |integral of grad(phi) . grad(v) dm|, family size)`` over
    the test family; gradients of v are central differences interpolated at
    the particles.
    """
    if test_functions is None:
        test_functions = default_test_functions(grid)
    grads = node_gradient(v, grid)
    grad_v = np.stack(
        [grid.interpolate_many(g, m.points) for g in grads], axis=-1
    )
    worst = 0.0
    for grad_phi in test_functions:
        pairing = float(m.weights @ (grad_phi(m.points) * grad_v).sum(axis=1))
        worst = max(worst, abs(pairing))
    return worst, len(test_functions)


# -- triple construction and validation ----------------------------------------


@dataclass(eq=False)
class ErgodicTriple:
    """A candidate (c, v, m) with its validation residuals.

    ``residuals`` carries crosscheck_gap (worst node violation of the
    bracket v <= dist <= kappa v by the shortest-path distance, see
    :func:`build_ergodic_triple`), continuity_residual, support_violation
    (the farthest any support point of m lies from the argmin set; more
    than one cell means m charges points that do not minimise its own
    slice), static_residual (which for the rest measure m x delta_0 is
    also the gap between its average action and the critical value), and
    the continuity family size.
    ``boundary_monotone`` records whether v increases toward the box
    boundary (the outflow condition that replaces decay at infinity on a
    truncated domain).
    """

    c: float
    v: np.ndarray
    m: DiscreteMeasure
    grid: SpatialGrid
    dirichlet: NodeSet
    residuals: dict
    boundary_monotone: bool = True


def _boundary_monotone(v: np.ndarray, grid: SpatialGrid, tol: float) -> bool:
    for ax in range(grid.dim):
        outer_lo = [slice(None)] * grid.dim
        inner_lo = [slice(None)] * grid.dim
        outer_lo[ax], inner_lo[ax] = 0, 1
        outer_hi = [slice(None)] * grid.dim
        inner_hi = [slice(None)] * grid.dim
        outer_hi[ax], inner_hi[ax] = -1, -2
        if np.any(v[tuple(outer_lo)] < v[tuple(inner_lo)] - tol):
            return False
        if np.any(v[tuple(outer_hi)] < v[tuple(inner_hi)] - tol):
            return False
    return True


def build_ergodic_triple(
    F: CostFunctional,
    m: DiscreteMeasure,
    grid: SpatialGrid,
    static_tol: float = 1e-6,
    eps_min: float | None = None,
    sweep_tol: float = 1e-12,
    max_sweeps: int = 200,
) -> ErgodicTriple:
    """Assemble and validate the ergodic triple seeded by a static solution.

    Requires the static residual of m to be at most ``static_tol``; the
    critical value is the grid minimum of F(., m), ell = sqrt(2 (F - c)),
    and v solves the Dirichlet eikonal problem on the argmin set.  v is
    checked at every node against the grid-graph Dijkstra distance, which
    shares no stencil with the fast-sweeping solver: ``crosscheck_gap`` is
    the worst violation of v <= dist <= kappa v, with kappa the graph's
    worst path stretch (1 in 1D, 1.0824 on square 2D cells), so it is
    O(h) and shrinks as the grid is refined.
    """
    stats = slice_stats(F, m, grid, eps_min)
    res = static_residual(F, m, stats)
    if res > static_tol:
        raise StaticResidualError(
            f"measure is not a static equilibrium: residual {res} > {static_tol}",
            residual=res,
            tol=static_tol,
        )
    c = stats.c_m
    ell = np.sqrt(2.0 * stats.fbar)
    v, sweeps = solve_eikonal(
        ell, stats.argmin_set, grid, sweep_tol=sweep_tol, max_sweeps=max_sweeps, return_sweeps=True
    )

    # every graph path is a path, and the graph stretches none by more
    # than kappa, so v <= dist <= kappa v up to O(h) at every node
    dist = _graph_distance(ell, stats.argmin_set, grid)
    flat = v.ravel()
    gap = float(np.maximum(flat - dist, dist - _graph_stretch(grid) * flat).max())
    logger.info(
        "ergodic triple: critical value %.6g, %d eikonal sweeps, crosscheck_gap %.3e",
        c, sweeps, gap,
    )

    cont, family = continuity_residual(v, m, grid)
    support_violation = support_distance(m, stats.argmin_set)
    tol_mono = max(1e-9, 1e-12 * float(np.max(v)))
    return ErgodicTriple(
        c=float(c),
        v=v,
        m=m,
        grid=grid,
        dirichlet=stats.argmin_set,
        residuals={
            "crosscheck_gap": gap,
            "continuity_residual": cont,
            "continuity_family": family,
            "support_violation": float(support_violation),
            "static_residual": float(res),
        },
        boundary_monotone=_boundary_monotone(v, grid, tol_mono),
    )
