"""Finite-horizon MFG on [0, T]: backward HJB, forward transport, coupling.

The value function solves a backward semi-Lagrangian recursion: each step
minimises ``dt |a|^2 / 2 + u(x + dt a)`` over a lattice of controls, with u
the multilinear interpolant of the next value slice, and the argmin is the
optimal feedback.  The minimum is taken in closed form, not by a scan:
along a line of the lattice u is linear on each grid cell, so the
objective is a convex parabola per cell, whose least lattice step is its
vertex clamped to the cell and rounded.  The cells are ranked by the
parabola at that step, and only the two steps around the winning vertex
are evaluated, with the float expression and tie-break of a scan of the
whole lattice: the result is that scan's except where the minima of two
cells agree to within rounding.  In 2D each step searches only its
descent box, the controls with ``|a_i| <= S_i + mesh/2`` (S_i the steepest
axis-i slope of the value slice), and an exact per-line lower bound then
drops the lines of the box that cannot hold the minimum; in 1D each
transport step keeps only the cells within ``dt (S + mesh/2)`` of a
particle, S the steepest slope of the value slice within reach (see
``_bracketed_argmin``).  The population is a particle cloud pushed
forward along that feedback (the same argmin at the particle positions).
The coupled system is solved by damped fixed-point iteration on the
measure path (the value field is always the exact solution for the path
it was computed against).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cost_models import CostFunctional
from .errors import DomainEscapeError, SolverError
from .grid_geometry import SpatialGrid, clamp_cells, distance_to_box, escape_margin, lerp, sorted_unique
from .measures import (
    DEFAULT_SIZE_CAP,
    DiscreteMeasure,
    MeasurePath,
    mix_paths,
    wasserstein1_capped,
)
from .static_game import harmonic_damping

logger = logging.getLogger(__name__)

# Particles must never come this close (in cells) to the box boundary; the
# computational box is supposed to contain the invariant neighborhood of the
# core with room to spare, so proximity indicates a mis-sized domain.
BOUNDARY_MARGIN_CELLS = 2.0

N_CHECKPOINTS = 9


def default_control_radius(F: CostFunctional) -> float:
    """Radius covering the a priori feedback bound sqrt(4 sup|F|) with margin."""
    return math.sqrt(4.0 * F.m_bound) + 1.0


def default_control_mesh(grid: SpatialGrid, dt: float) -> float:
    """Pitch balancing spatial and temporal resolution."""
    return 0.5 * max(grid.max_spacing, math.sqrt(dt))


def control_lattice(dim: int, radius: float, mesh: float) -> np.ndarray:
    """Cubic control lattice of the given pitch inside the radius ball.

    Sorted by (|a|^2, lexicographic), so taking the first occurrence of the
    minimum over this lattice breaks ties toward the smallest control, then
    lexicographically — a deterministic feedback selection.
    """
    if mesh <= 0 or radius <= 0:
        raise ValueError("control mesh and radius must be positive")
    n = int(math.floor(radius / mesh + 1e-12))
    axis = np.arange(-n, n + 1, dtype=float) * mesh
    if dim == 1:
        pts = axis[:, None]
    else:
        mesh_grids = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([mm.ravel() for mm in mesh_grids], axis=-1)
    sq = (pts * pts).sum(axis=1)
    keep = sq <= radius * radius + 1e-12
    pts, sq = pts[keep], sq[keep]
    # np.lexsort sorts by its last key first
    return pts[np.lexsort((*pts.T[::-1], sq))]


@dataclass(frozen=True, eq=False)
class _Lattice:
    """The sorted control lattice of one step, split into lines along axis 0.

    Line ``l`` holds the controls with one axis-1 component (in 1D, the
    whole lattice) and axis-0 components ``k * mesh`` for
    ``|k| <= half[l]``.  ``table[l, n + k]`` is the sorted-lattice index
    of that control for ``-n <= k <= n + 1``; a k beyond the line maps to
    its nearest end, so ``table[:, 0]`` and ``table[:, -1]`` are the line
    ends.  ``moves`` is ``dt * controls`` and ``run_cost`` is
    ``dt |a|^2 / 2`` per control; ``line_cost`` is the run cost of each
    line's step 0, the control with axis-0 component 0.  A descent box
    (``_descent_box``) is a ``_Lattice`` of the same controls whose table
    is a slice of this one's, n its step bound.
    """

    controls: np.ndarray
    moves: np.ndarray
    run_cost: np.ndarray
    dt: float
    mesh: float
    half: np.ndarray
    table: np.ndarray
    line_cost: np.ndarray

    @classmethod
    def of(cls, controls: np.ndarray, mesh: float, dt: float) -> "_Lattice":
        k = np.rint(controls / mesh).astype(np.int64)
        n = int(np.abs(k).max())
        _, line = np.unique(k[:, -1] if k.shape[1] == 2 else 0 * k[:, 0], return_inverse=True)
        half = np.zeros(line.max() + 1, dtype=np.int64)
        np.maximum.at(half, line, np.abs(k[:, 0]))
        dense = np.empty((half.size, 2 * n + 1), dtype=np.int64)
        dense[line, n + k[:, 0]] = np.arange(controls.shape[0])
        steps = np.clip(np.arange(-n, n + 2), -half[:, None], half[:, None])
        table = dense[np.arange(half.size)[:, None], n + steps]
        run_cost = dt * 0.5 * (controls * controls).sum(axis=1)
        line_cost = run_cost[table[:, n]]
        return cls(controls, dt * controls, run_cost, float(dt), float(mesh), half, table, line_cost)


def _descent_box(grid: SpatialGrid, lattice: _Lattice, field: np.ndarray) -> _Lattice:
    """The 2D sub-lattice that holds the first minimiser of ``field``'s
    step: the lines with ``|a1| <= S1 + mesh/2`` and on them the steps
    with ``|a0| <= S0 + mesh/2``, S_i the largest absolute axis-i node
    difference of the field over h_i; the whole lattice where S is not
    finite.  Its table is a slice of the lattice's, so its indices are
    those of the whole sorted lattice.

    Exact: a control with ``|a_i| > S_i + mesh/2`` (so ``|a_i| >= mesh``)
    loses to the one a mesh back toward the axis, on the lattice as it has
    a smaller norm.  Its run cost is lower by ``dt mesh (|a_i| - mesh/2)``
    while the bilinear, clamped u rises by at most ``S_i dt mesh``, and its
    foot lies between x and the first foot, so it escapes only if that one
    does; at equality the smaller norm, and so the smaller sorted index,
    wins the tie.
    """
    f = field.reshape(grid.shape)
    s0 = np.abs(f[1:] - f[:-1]).max() / grid.spacing[0]
    s1 = np.abs(f[:, 1:] - f[:, :-1]).max() / grid.spacing[1]
    if not np.isfinite(s0 + s1):
        return lattice
    # |a1| per line, |k| mesh for k = -n .. n: also each |a0| of a step
    a = np.abs(lattice.controls[lattice.table[:, 0], 1])
    first, last = np.flatnonzero(a <= s1 + 0.5 * lattice.mesh)[[0, -1]]
    k0 = np.count_nonzero(a <= s0 + 0.5 * lattice.mesh) // 2
    n = lattice.table.shape[1] // 2 - 1
    table = lattice.table[first:last + 1, n + np.arange(-k0, k0 + 2).clip(-k0, k0)]
    half = np.minimum(lattice.half[first:last + 1], k0)
    return replace(lattice, half=half, table=table, line_cost=lattice.line_cost[first:last + 1])


# Slack of the line filter's bound, relative to the size of u and of the
# run cost: far above its rounding; a larger slack only keeps more lines.
_BOUND_SLACK = 1e-9

# Cells by which a cell's steps reach past its end nodes: far above the
# rounding of a foot's cell coordinate, far below the escape margin's slop.
_NODE_SLOP = 1e-10


class _Pairs(NamedTuple):
    """(point, line) pairs of the 2D cell stage, in point-major order with
    every point at least once: ``starts[p]`` is the first pair of point p.
    ``j1``, ``w1`` and ``escaped`` are the pair's axis-1 column, its weight
    and whether the axis-1 foot escapes (``clamp_cells``)."""

    who: np.ndarray
    starts: np.ndarray
    line: np.ndarray
    j1: np.ndarray
    w1: np.ndarray
    escaped: np.ndarray


def _slack(f: np.ndarray, lattice: _Lattice) -> float:
    """The line filter's slack, from the finite values of u only: one NaN
    node must not void the bounds of points that never reach it."""
    size = np.abs(f).max()
    if not np.isfinite(size):
        size = np.abs(f[np.isfinite(f)]).max(initial=0.0)
    return _BOUND_SLACK * (1.0 + size + lattice.run_cost.max())


def _cell_steps(cells: np.ndarray, offset: np.ndarray, s: float, half, n_cells: int):
    """The line steps whose foot lies in each cell: real ``k_lo .. k_hi``
    and lattice ``step_lo .. step_hi``.

    ``offset`` is the point's coordinate minus the cell's, in cells, and a
    step moves the foot ``s`` cells.  The clamp cells -1 and n reach out
    to the escape margin; ``|k| <= half`` keeps the steps on the line.  A
    node bound is widened by ``_NODE_SLOP``, so a foot on a node, which
    rounding may put on either side, lies in both cells around it.
    """
    margin = escape_margin(n_cells)
    lower = np.where(cells >= 0, -_NODE_SLOP, 1.0 - margin)
    upper = np.where(cells < n_cells, 1.0 + _NODE_SLOP, margin)
    k_lo = np.maximum((lower - offset) / s, -half)
    k_hi = np.minimum((upper - offset) / s, half)
    return k_lo, k_hi, np.ceil(k_lo), np.floor(k_hi)


def _first_least(q: np.ndarray, index: np.ndarray, n_controls: int) -> np.ndarray:
    """Per column of ``q``, with sorted-lattice indices ``index``: the row
    that np.argmin over the sorted lattice picks, the least value of least
    index (of a NaN, if the column has one).  ``argmin`` takes the first
    least key, so a tie at one index goes to the first row."""
    least = q.min(axis=0)
    return np.where((q == least) | np.isnan(q), index, n_controls).argmin(axis=0)


def _bracketed_argmin(grid: SpatialGrid, points: np.ndarray, lattice: _Lattice, reach_field=None):
    """First lattice minimiser of dt|a|^2/2 + u(x + dt a) at fixed points.

    ``u`` is the multilinear interpolant of a node field.  Along one line
    of the lattice the axis-1 foot, and so its interpolation weight, is
    fixed; on each axis-0 cell u is then linear in the line step k, and
    the objective is the convex parabola ``const + d s k + dt mesh^2 k^2/2``
    with ``d`` the node difference of u across the cell at that weight and
    ``s = dt mesh / h``.  The cells a line reaches cover all its feet; the
    clamp cells -1 and n, where u is flat, reach out to the escape margin.

    Each cell a (point, line) reaches takes its least lattice step in
    closed form: the vertex ``k* = -d s / (dt mesh^2)``, clamped to the
    cell's steps (``_cell_steps``) and rounded.  Per point the cells are
    ranked by the parabola at that step, ties going to the smaller
    sorted-lattice index, and only the two steps ``floor(k*)`` and
    ``floor(k*) + 1`` around the winning cell's clamped vertex are
    evaluated by ``SpatialGrid.interpolate_many``; the lesser wins, ties
    again by index.  1D has one line and runs the line kernel
    (``_line_kernel``), which evaluates with the 1D expression of
    ``interpolate_many`` (``lerp``).

    The arrays are cell-major: cells along the leading axis, one column
    per point (in 2D, per (point, line) pair), and the two candidates as
    a (2, point) block.  Each ranking then reduces over the leading axis
    (``_first_least``): at these sizes, 6 to 20 cells against a few
    hundred points, numpy reduces a short trailing axis 3.5 to 9 times
    slower than the leading one.  Every other operation is elementwise, a
    gather or an exact min or argmin, so the layout changes no bit.
    In 2D a call runs three stages on its field: the descent box
    (``_descent_box``) keeps the sub-lattice of controls with
    ``|a_i| <= S_i + mesh/2``, S_i the field's steepest axis-i slope; the
    line filter (``_line_filter``) drops, per point, every line of the box
    whose lower bound exceeds a value the point reaches on another line;
    the cell stage (``_cell_stage``) runs on the surviving (point, line)
    pairs and evaluates the two candidate feet by ``interpolate_many``,
    inf where a foot escapes.

    Exactness: the rounded vertex is its cell's least lattice step and one
    of the two evaluated steps, which are compared as a scan of the whole
    lattice compares them; so a tie inside a cell (a vertex within
    rounding of a half-integer) breaks as that scan breaks it.  Across
    cells the ranking uses the parabola, which is u up to rounding, so the
    result is the scan's except where the minima of two cells agree to
    within that rounding; there either may win.  The box drops only
    controls that lose to the control a mesh nearer the axis, or tie with
    it at a larger sorted index, so it keeps the first minimiser; a NaN or
    inf node keeps the whole lattice.  The line filter compares with a
    slack far above its rounding, taken from the finite values of u, so it
    drops no line that holds the minimiser or a tie, and a NaN node keeps
    only the lines whose bound it reaches.  A cell whose parabola is NaN
    ranks first, as the first NaN does in np.argmin.

    The returned ``argmin(field)`` gives, per point, the sorted-lattice
    index of the minimiser and the minimum (inf where every control
    escapes).  In 1D the (cell, point) geometry is built here; given
    ``reach_field``, the field the argmin will be called with, it holds
    only the cells within that field's descent bound (``_line_kernel``).
    In 2D the line filter's (point, line) feet and the cell geometry are
    built per call, for the box's lines and the surviving pairs, so no
    points x lines array of the whole lattice is built unless the box is
    all of it, and no points x lines x reach array outlives a call.
    """
    if grid.dim == 1:
        return _line_kernel(grid, points, lattice, reach_field)

    def argmin(field: np.ndarray):
        sub = _descent_box(grid, lattice, field)
        return _cell_stage(grid, points, sub, _line_filter(grid, points, sub)(field))(field)

    return argmin


def _line_kernel(grid: SpatialGrid, points: np.ndarray, lattice: _Lattice, reach_field=None):
    """The bracketed argmin in 1D: one line, as (cell, point) arrays,
    one column of cells per point.

    The cells, their ranking and the two evaluated steps are those of the
    2D cell stage, with u and its cell difference gathered from one node
    array padded by the clamp cells -1 and n; the two steps, a (2, point)
    block, are evaluated with the float expression of
    ``SpatialGrid.interpolate_many``.

    Given ``reach_field``, the columns keep only the cells within
    ``dt (S + mesh/2)`` of the point, plus one on each side, with S the
    steepest slope of that field over the cells that any point's feet
    reach.  Exact: a lattice move z with ``|z| > dt (S + mesh/2)`` loses to
    the step one mesh back toward x, whose run cost is lower by
    ``mesh (|z| - dt mesh/2)`` while u rises by at most ``S dt mesh``; at
    equality the step back, of smaller norm and so of smaller sorted
    index, wins the tie.  The extra cell absorbs the rounding.  Where S is
    not finite every reached cell stays.
    """
    lo, h, n0 = grid.lower_array[0], grid.spacing[0], grid.n_cells[0]
    mesh, half, dt = lattice.mesh, lattice.half[0], lattice.dt
    s = dt * mesh / h
    table, moves = lattice.table[0], lattice.moves[:, 0]
    origin = table.size // 2 - 1  # the table column of step 0
    x = points[:, 0]
    t = (x - lo) / h
    # the foot moves monotonically with the step, also in floats, so the
    # cells of the end feet bound every cell a point reaches
    c_lo, c_hi = np.floor((x + moves[table[:: table.size - 1], None] - lo) / h).clip(-1, n0)
    if reach_field is not None:
        first, last = max(int(c_lo.min()), 0), min(int(c_hi.max()), n0 - 1)
        f = reach_field.ravel()[first:last + 2]
        slope = np.abs(f[1:] - f[:-1]).max(initial=0.0) / h
        if np.isfinite(slope):
            r = dt * (slope + 0.5 * mesh) / h
            np.maximum(c_lo, np.floor(t - r) - 1.0, out=c_lo)
            np.minimum(c_hi, np.floor(t + r) + 1.0, out=c_hi)
    c_lo, c_hi = c_lo.astype(np.int64), c_hi.astype(np.int64)
    reach = int((c_hi - c_lo).max()) + 1
    cells = np.minimum(c_lo + np.arange(reach)[:, None], c_hi)
    offset = t - cells
    k_lo, k_hi, step_lo, step_hi = _cell_steps(cells, offset, s, half, n0)
    holds = step_lo <= step_hi
    at = cells + 1  # into the padded nodes
    padded = np.arange(-1, n0 + 2).clip(0, n0)
    columns = np.arange(x.size)
    n_controls = lattice.controls.shape[0]

    def argmin(field: np.ndarray):
        f = field.ravel()
        pad = f[padded]
        u_lo, d = pad[at], (pad[1:] - pad[:-1])[at]
        # fmax/fmin: where u is NaN the vertex still names a lattice step
        vertex = np.fmin(np.fmax(d / (-mesh * h), k_lo), k_hi)
        step = np.rint(vertex).clip(step_lo, step_hi)
        index = table[origin + step.astype(np.int64)]
        value = np.where(holds, u_lo + d * (offset + s * step) + lattice.run_cost[index], np.inf)
        cell = _first_least(value, index, n_controls)
        cand = table[origin + np.floor(vertex[cell, columns]).astype(np.int64) + np.arange(2)[:, None]]
        j, w, escaped = clamp_cells((x + moves[cand] - lo) / h, n0)
        q = lerp(f, j, w)
        q[escaped] = np.inf
        q += lattice.run_cost[cand]
        pick = _first_least(q, cand, n_controls)
        return cand[pick, columns], q[pick, columns]

    return argmin


def _line_filter(grid: SpatialGrid, points: np.ndarray, lattice: _Lattice):
    """The 2D lines that can hold a point's minimiser, as (point, line) pairs.

    Along line l, with axis-1 control a1 and run cost ``c_l = dt a1^2/2``,
    u is ``g_l(z) = u(z, x1 + dt a1)`` at the clamped axis-1 foot (the
    column pair and weight of the cell stage).  If g_l falls at most at
    slope A to the right of x0 and B to the left, over the
    ``ceil(max|dt a0| / h0) + 1`` cells the lattice's lines reach (a0 over
    the line ends; slope 0 in the clamp zones), then a control of axis-0
    move ``z = dt a0`` costs at least ``c_l + g_l(x0) - S |z| + z^2 / (2 dt)``
    with S = max(A, B), and so every control on the line costs at least
    ``LB_l = c_l + g_l(x0) - dt S^2 / 2``.  The controls (0, a1) are
    lattice points, so ``UB``, the least ``c_l + g_l(x0)`` over the lines
    whose foot does not escape, is a value some control reaches.  A line
    with ``LB_l > UB + slack`` holds neither the minimiser nor a tie, and
    is dropped; the line of UB always stays, so every point keeps a line.

    The slopes come from one pass over the field per call: the signed
    axis-0 node differences, zero-padded for the clamp zones, and their
    least and greatest values over every window of that many cells.  The
    least of a weighted sum of two columns is at least the weighted sum of
    their leasts (and likewise for the greatest), so the slope bounds hold
    on every line.

    The returned ``keep(field)`` gives the surviving ``_Pairs``.
    """
    (lo0, lo1), (h0, h1), (n0, n1) = grid.lower_array, grid.spacing, grid.n_cells
    n_p, cols = points.shape[0], n1 + 1
    move1 = lattice.moves[lattice.table[:, 0], 1]  # dt a1 per line
    j1, w1, escaped = clamp_cells((points[:, 1:] + move1 - lo1) / h1, n1)
    v1 = 1.0 - w1
    # the point's axis-0 cell and weight, clamped onto the box as u is
    t0 = (points[:, 0] - lo0) / h0
    i0, w0, escaped0 = clamp_cells(t0, n0)
    w0 = w0[:, None]
    feasible = ~(escaped | escaped0[:, None])  # the controls (0, a1)
    at_x0 = np.arange(n_p)[:, None] * cols + j1
    # windows of `width` cells: the right one starts at the cell of x0,
    # the left one ends at the cell left of ceil(t0); window s of the
    # padded differences covers cells s - width .. s - 1
    width = int(np.ceil(np.abs(lattice.moves[lattice.table[:, [0, -1]], 0]).max() / h0)) + 1
    right = (np.floor(t0).astype(np.int64) + width)[:, None] * cols + j1
    left = np.ceil(t0).astype(np.int64)[:, None] * cols + j1
    diff = np.zeros((n0 + 2 * width, cols))

    def keep(field: np.ndarray):
        f = field.reshape(n0 + 1, cols)
        u_x0 = ((1.0 - w0) * f[i0] + w0 * f[i0 + 1]).ravel()
        value = v1 * u_x0[at_x0] + w1 * u_x0[at_x0 + 1] + lattice.line_cost
        np.subtract(f[1:], f[:-1], out=diff[width:width + n0])
        windows = sliding_window_view(diff, width, axis=0)
        least, most = windows.min(axis=-1).ravel(), windows.max(axis=-1).ravel()
        fall_right = -(v1 * least[right] + w1 * least[right + 1])
        fall_left = v1 * most[left] + w1 * most[left + 1]
        slope = np.maximum(np.maximum(fall_right, fall_left), 0.0) / h0
        lower = value - 0.5 * lattice.dt * slope * slope
        upper = np.where(feasible, value, np.inf).min(axis=1)
        kept = ~(lower > (upper + _slack(f, lattice))[:, None])
        who, line = np.nonzero(kept)
        counts = kept.sum(axis=1)
        return _Pairs(who, np.cumsum(counts) - counts, line, j1[who, line], w1[who, line], escaped[who, line])

    return keep


def _cell_stage(grid: SpatialGrid, points: np.ndarray, lattice: _Lattice, pairs: _Pairs):
    """The 2D cell stage of ``_bracketed_argmin`` on the given pairs;
    returns ``argmin(field)``.  The cells form (cell, pair) arrays, one
    column of cells per pair, and the two candidates of each point a
    (2, point) block whose feet are evaluated candidate-major by
    ``interpolate_many``, inf where a foot escapes.  A pair whose axis-1
    foot escapes holds no step."""
    who, starts, line, j1, w1, escaped = pairs
    lo0, h0, n0 = grid.lower_array[0], grid.spacing[0], grid.n_cells[0]
    mesh, half = lattice.mesh, lattice.half[line]
    s = lattice.dt * mesh / h0
    width = lattice.table.shape[1]
    # the flat table position of each pair's step 0
    origin = line * width + width // 2 - 1
    # the foot moves monotonically with the step, also in floats, so the
    # cells of a line's end feet bound every cell the line reaches
    ends = lattice.table[:, :: width - 1].T[:, line]
    t_ends = (points[who, 0] + lattice.moves[ends, 0] - lo0) / h0
    c_lo, c_hi = np.clip(np.floor(t_ends), -1, n0).astype(np.int64)
    reach = int((c_hi - c_lo).max()) + 1
    cells = np.minimum(c_lo + np.arange(reach)[:, None], c_hi)
    offset = ((points[:, 0] - lo0) / h0)[who] - cells
    k_lo, k_hi, step_lo, step_hi = _cell_steps(cells, offset, s, half, n0)
    holds = (step_lo <= step_hi) & ~escaped
    # u on the line at the cell's end nodes, which coincide in the clamp
    # zones
    n_cols = grid.shape[1]
    at_lo = np.clip(cells, 0, n0) * n_cols + j1
    at_hi = np.clip(cells + 1, 0, n0) * n_cols + j1
    table = lattice.table.ravel()
    columns, pair_columns = np.arange(starts.size), np.arange(who.size)
    n_controls = lattice.controls.shape[0]

    def argmin(field: np.ndarray):
        f = field.ravel()
        u_lo = (1.0 - w1) * f[at_lo] + w1 * f[at_lo + 1]
        d = (1.0 - w1) * f[at_hi] + w1 * f[at_hi + 1] - u_lo
        # fmax/fmin: where u is NaN the vertex still names a lattice step
        vertex = np.fmin(np.fmax(d / (-mesh * h0), k_lo), k_hi)
        step = np.clip(np.rint(vertex), step_lo, step_hi)
        index = table[origin + step.astype(np.int64)]
        value = np.where(holds, u_lo + d * (offset + s * step) + lattice.run_cost[index], np.inf)
        cell = _first_least(value, index, n_controls)
        # per point, the pair whose cell is first by the same rule
        value, index = value[cell, pair_columns], index[cell, pair_columns]
        least = np.minimum.reduceat(value, starts)[who]
        key = np.where((value == least) | np.isnan(value), index, n_controls)
        first = np.minimum.reduceat(key, starts)[who]
        pair = np.minimum.reduceat(np.where(key == first, pair_columns, who.size), starts)
        vertex_step = np.floor(vertex[cell[pair], pair]).astype(np.int64)
        cand = table[origin[pair] + vertex_step + np.arange(2)[:, None]]
        feet = (points + lattice.moves[cand]).reshape(-1, grid.dim)
        u = grid.interpolate_many(field, feet, out_of_range="inf")
        q = (u + lattice.run_cost[cand].ravel()).reshape(cand.shape)
        pick = _first_least(q, cand, n_controls)
        return cand[pick, columns], q[pick, columns]

    return argmin


@dataclass(eq=False)
class ValueField:
    """Backward value function with its feedback policy.

    ``values[k]`` is the node array at time ``times[k]`` (terminal slice is
    zero); ``policy[k]`` holds, flat per node, the index into ``controls``
    of the optimal control over the step [t_k, t_{k+1}]; ``f_slices[k]``
    stores the coupling cost slice used at step k.
    """

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray
    controls: np.ndarray
    policy: np.ndarray
    f_slices: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


def horizon_steps(T: float, dt: float) -> int:
    """The number of steps dt in the horizon T; ValueError unless dt
    divides T up to 1e-9 relative."""
    n_t = int(round(T / dt))
    if n_t < 1 or abs(n_t * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"step {dt} does not divide the horizon {T}")
    return n_t


def _check_alignment(path: MeasurePath, dt: float):
    T = float(path.times[-1])
    n_t = horizon_steps(T, dt)
    scale = max(1.0, abs(T))
    lattice = np.arange(n_t + 1) * dt
    if path.n_times != n_t + 1 or not np.allclose(path.times, lattice, rtol=0.0, atol=1e-9 * scale):
        raise ValueError("measure-path times do not align with the dt lattice")
    return n_t, lattice


def solve_hjb_backward(
    F: CostFunctional,
    path: MeasurePath,
    grid: SpatialGrid,
    dt: float,
    control_radius: float | None = None,
    control_mesh: float | None = None,
) -> ValueField:
    """Backward semi-Lagrangian recursion for the value of the crowd cost.

    u(x, t) = min over lattice controls a of
    [dt (|a|^2/2 + F(x, m(t))) + u(x + dt a, t + dt)], terminal value zero.
    Control feet beyond the one-cell clamp margin are discarded; the zero
    control's foot is the node itself, so an infinite minimum means the
    next value is +inf at every foot in reach and raises
    :class:`SolverError`.  The argmin control index per (step, node) is
    stored as the feedback policy; ties go to the first control of the
    sorted lattice, up to the rounding caveat below.

    F(., m(t_k)) is evaluated on the nodes once per distinct measure: a
    step whose positions equal those of the step after it (a constant
    path, or a flow parked on the argmin set) reuses that step's slice,
    since the path shares one weight vector and the evaluator call would
    be the same.

    The minimum is the closed-form argmin of ``_bracketed_argmin``, its
    two steps evaluated by ``interpolate_many``, as in
    ``transport_forward``: values and policy are those of a scan of the
    whole lattice except where the minima of two cells agree to within
    rounding.  In 1D its geometry at the nodes is built once per solve:
    the (cell, node) arrays of the line kernel over the whole reach.  In
    2D each step searches the descent box of its value slice, the
    controls with ``|a_i| <= S_i + mesh/2``, and builds the line filter's
    (node, line) feet for the box's lines and the cell stage for the lines
    that survive the filter.
    """
    n_t, lattice = _check_alignment(path, dt)
    if control_radius is None:
        control_radius = default_control_radius(F)
    if control_mesh is None:
        control_mesh = default_control_mesh(grid, dt)
    controls = control_lattice(grid.dim, control_radius, control_mesh)
    argmin = _bracketed_argmin(grid, grid.nodes, _Lattice.of(controls, control_mesh, dt))

    values = np.empty((n_t + 1,) + grid.shape)
    values[n_t] = 0.0
    policy = np.empty((n_t, grid.n_nodes), dtype=np.int32)
    f_slices = np.empty((n_t,) + grid.shape)
    evaluated = None
    for k in range(n_t - 1, -1, -1):
        # one weight vector for the whole path: equal positions are an
        # equal measure, so the slice evaluated last is this one, same bits
        if evaluated is None or not np.array_equal(path.positions[k], evaluated):
            evaluated = path.positions[k]
            fk = F.evaluate_many(grid.nodes, path.measure_at(k))
        f_slices[k] = fk.reshape(grid.shape)
        # a +inf node gives inf - inf and inf * 0 in the kernel: NaN, which
        # the argmin ranks and the check below reports, without a warning
        with np.errstate(invalid="ignore"):
            pol, best = argmin(values[k + 1])
        if np.isinf(best).any():
            bad = int(np.argmax(np.isinf(best)))
            raise SolverError(
                f"the value is +inf at every foot that node {grid.nodes[bad].tolist()} "
                f"reaches at time index {k + 1}: the cost is +inf on a region "
                "wider than the control reach"
            )
        policy[k] = pol.astype(np.int32)
        values[k] = (best + dt * fk).reshape(grid.shape)
    return ValueField(
        grid=grid,
        times=lattice,
        values=values,
        controls=controls,
        policy=policy,
        f_slices=f_slices,
        metadata={
            "control_radius": float(control_radius),
            "control_mesh": float(control_mesh),
        },
    )


@dataclass(eq=False)
class TrajectoryStats:
    """Per-trajectory position and speed extremes with their aggregates.

    ``chi_hat``/``chi_prime_hat`` bound positions and speeds over all
    particles; ``r1_hat`` is the largest distance any particle ever had to
    the model's core box (nan when no box was supplied).
    """

    sup_position: np.ndarray
    sup_speed: np.ndarray
    chi_hat: float
    chi_prime_hat: float
    r1_hat: float


def _assert_away_from_boundary(points: np.ndarray, grid: SpatialGrid, time_index: int):
    """DomainEscapeError naming the first particle within the margin of
    the box.  The per-axis extremes decide first: ``x - lower`` and
    ``upper - x`` are monotone in x also in floats, so the least gaps are
    those of the extremes, and the per-particle gaps are built only when
    one of them trips."""
    margin = BOUNDARY_MARGIN_CELLS * grid.spacing
    if np.all(points.min(axis=0) - grid.lower_array >= margin) and np.all(
        grid.upper_array - points.max(axis=0) >= margin
    ):
        return
    gap_lo = points - grid.lower_array
    gap_hi = grid.upper_array - points
    bad = np.any((gap_lo < margin) | (gap_hi < margin), axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainEscapeError(
            f"particle {i} at {points[i].tolist()} is within "
            f"{BOUNDARY_MARGIN_CELLS:g} cells of the box boundary at time index {time_index}; "
            "enlarge the computational box",
            point=tuple(points[i].tolist()),
            time_index=time_index,
        )


def transport_forward(
    value: ValueField,
    m0: DiscreteMeasure,
    core_box=None,
) -> tuple[MeasurePath, TrajectoryStats]:
    """Push the initial cloud forward along the optimal feedback.

    Each step recomputes the semi-Lagrangian argmin control at the exact
    particle position (the running coupling cost does not depend on the
    control, so it drops out of the argmin); particles move by an explicit
    Euler step and weights never change.  Errors out if any particle comes
    within two cells of the box boundary.

    The argmin is the closed-form argmin of ``_bracketed_argmin`` at the
    particle positions, its two steps evaluated by ``interpolate_many``,
    the interpolant of the HJB step: the control is the first minimiser
    over the whole lattice except where the minima of two cells agree to
    within rounding.  Its geometry is built per step, for the step's
    slice, and drops no minimiser: in 1D only the cells within
    ``dt (S + mesh/2)`` of a particle, plus one on each side, S the
    steepest slope of the slice within reach (``_line_kernel``); in 2D
    only the controls of the slice's descent box, ``|a_i| <= S_i + mesh/2``
    (``_descent_box``).
    """
    grid = value.grid
    dt = value.dt
    controls = value.controls
    lattice = _Lattice.of(controls, value.metadata["control_mesh"], dt)
    n_p = m0.size
    pts = m0.points.copy()
    _assert_away_from_boundary(pts, grid, 0)
    positions = np.empty((value.n_steps + 1, n_p, grid.dim))
    positions[0] = pts
    sup_speed = np.zeros(n_p)
    for k in range(value.n_steps):
        u_next = value.values[k + 1]
        pick, best = _bracketed_argmin(grid, pts, lattice, u_next)(u_next)
        feasible = np.isfinite(best)
        if not feasible.all():
            i = int(np.argmin(feasible))
            raise DomainEscapeError(
                f"no feasible control for particle {i} at {pts[i].tolist()} "
                f"at time index {k}",
                point=tuple(pts[i].tolist()),
                time_index=k,
            )
        alpha = controls[pick]
        pts = pts + dt * alpha
        _assert_away_from_boundary(pts, grid, k + 1)
        positions[k + 1] = pts
        sup_speed = np.maximum(sup_speed, np.sqrt((alpha * alpha).sum(axis=1)))
    sup_position = np.sqrt((positions * positions).sum(axis=-1)).max(axis=0)
    if core_box is not None:
        lo, hi = core_box
        flat = positions.reshape(-1, grid.dim)
        r1 = float(distance_to_box(flat, lo, hi).max())
    else:
        r1 = float("nan")
    stats = TrajectoryStats(
        sup_position=sup_position,
        sup_speed=sup_speed,
        chi_hat=float(sup_position.max()),
        chi_prime_hat=float(sup_speed.max()),
        r1_hat=r1,
    )
    return MeasurePath(value.times, positions, m0.weights), stats


def checkpoint_indices(n_steps: int, n_checkpoints: int = N_CHECKPOINTS) -> np.ndarray:
    """Equispaced time indices including both endpoints."""
    return sorted_unique(np.round(np.linspace(0, n_steps, n_checkpoints)).astype(int))


def _checkpoint_distance(
    a: MeasurePath,
    b: MeasurePath,
    ckpt: np.ndarray,
    size_cap: int,
    seed: int,
) -> tuple[float, bool]:
    worst = 0.0
    capped_any = False
    for j in ckpt:
        d, capped = wasserstein1_capped(
            a.measure_at(int(j)), b.measure_at(int(j)), size_cap=size_cap, seed=seed
        )
        capped_any = capped_any or capped
        worst = max(worst, d)
    return worst, capped_any


@dataclass(eq=False)
class MfgEquilibrium:
    """Candidate solution pair with its fixed-point certificates.

    ``path`` is the damped measure-path iterate the value field was solved
    against; ``flow_path`` is the pure transport of the initial cloud under
    that value field's feedback.  ``br_residual`` is the worst checkpoint
    d1 between the two (how far the path is from its own best response);
    ``converged`` means ``br_residual <= tol``.  ``trace`` rows are
    ``(iteration, br_residual, step_residual)``, where the step is the
    worst checkpoint d1 the damped update moved the path: a diagnostic,
    not a stopping rule.  ``w1_capped`` records whether any checkpoint d1
    ran on clouds downsampled to ``w1_size_cap``; the residuals are then
    sampled estimates.
    """

    value: ValueField
    path: MeasurePath
    flow_path: MeasurePath
    trajectory_stats: TrajectoryStats
    br_residual: float
    converged: bool
    iterations: int
    trace: list
    checkpoints: np.ndarray
    w1_capped: bool


def solve_mfg(
    F: CostFunctional,
    m0: DiscreteMeasure,
    T: float,
    grid: SpatialGrid,
    dt: float,
    damping_schedule: Callable[[int], float] | None = None,
    tol: float = 5e-3,
    max_iter: int = 30,
    control_radius: float | None = None,
    control_mesh: float | None = None,
    path_cap: int = 4096,
    w1_size_cap: int = DEFAULT_SIZE_CAP,
    seed: int = 0,
) -> MfgEquilibrium:
    """Damped fixed-point iteration coupling backward HJB to forward transport.

    Iterates path_{k+1} = (1 - lam_k) path_k + lam_k transport(hjb(path_k))
    as a per-time particle mixture, stopping when the best-response
    distance (max d1 over 9 equispaced checkpoint times) reaches ``tol``.
    The damped step is traced but never stops the loop: by
    Kantorovich-Rubinstein duality it is lam_k times that distance, so it
    departs from it only when the mixture is resampled to ``path_cap``.
    Non-convergence returns the best iterate seen with ``converged=False``
    and the full residual trace.  Logs each iteration at DEBUG and the stop
    reason at INFO on ``mfglab.finite_horizon``.
    """
    if damping_schedule is None:
        damping_schedule = harmonic_damping
    n_t = horizon_steps(T, dt)
    times = np.arange(n_t + 1) * dt
    ckpt = checkpoint_indices(n_t)
    seeds = np.random.SeedSequence(seed).generate_state(2 * max_iter + 2)
    core_box = (F.core_lower, F.core_upper)

    path = MeasurePath.constant(m0, times)
    best = None
    best_br = np.inf
    trace: list[tuple[int, float, float]] = []
    converged = False
    capped_any = False
    iterations = 0
    for k in range(max_iter):
        value = solve_hjb_backward(F, path, grid, dt, control_radius, control_mesh)
        flow_path, stats = transport_forward(value, m0, core_box=core_box)
        br_res, c1 = _checkpoint_distance(flow_path, path, ckpt, w1_size_cap, int(seeds[2 * k]))
        lam = float(damping_schedule(k))
        mixed = mix_paths(path, flow_path, lam, cap=path_cap, seed=int(seeds[2 * k + 1]))
        step_res, c2 = _checkpoint_distance(mixed, path, ckpt, w1_size_cap, int(seeds[2 * k]))
        capped_any = capped_any or c1 or c2
        trace.append((k, br_res, step_res))
        logger.debug("mfg iteration %d: br_residual %.3e, lambda %.4g", k, br_res, lam)
        iterations = k + 1
        if br_res < best_br:
            best, best_br = (value, path, flow_path, stats), br_res
        if br_res <= tol:
            converged = True
            logger.info("mfg solve converged at iteration %d: br_residual %.3e <= tol %.3e", k, br_res, tol)
            break
        path = mixed
    if not converged:
        logger.info("mfg solve reached max_iter %d: best br_residual %.3e > tol %.3e", max_iter, best_br, tol)
    value, path, flow_path, stats = best
    return MfgEquilibrium(
        value=value,
        path=path,
        flow_path=flow_path,
        trajectory_stats=stats,
        br_residual=float(best_br),
        converged=converged,
        iterations=iterations,
        trace=trace,
        checkpoints=ckpt,
        w1_capped=bool(capped_any),
    )


def occupational_fractions(
    positions: np.ndarray,
    F: CostFunctional,
    path: MeasurePath,
    delta: float,
    grid: SpatialGrid,
    measure_indices=None,
) -> np.ndarray:
    """Fraction of time steps each trajectory spends where every sampled
    slice has normalized cost at least delta.

    ``positions`` has shape (n_times, n_slots, dim); the family of measures
    quantified over is the path at the given indices (default: 9 equispaced
    checkpoints).

    A (time, slot) point is occupied when ``F(x, m_j) - min F(., m_j) >=
    delta`` on every slice j, so it leaves the candidate set at its first
    slice below delta (or NaN) and later slices evaluate only the points
    still live; once none is live the remaining slices are skipped.  This
    is exact, since "every slice at least delta" is the same test as
    "minimum over slices at least delta".

    Each slot is tested at t = 0 and at the steps where it moved; a point
    where its slot sat one step earlier takes the verdict of the point it
    repeats.  A checkpoint whose positions equal those of the last slice
    tested is skipped: every live point has already passed that measure.

    Points meet the evaluator in other batches than in a full evaluation,
    and a BLAS product may round a row one unit in the last place
    differently by its batch; so only a point within that rounding of
    delta could flip, as it already could at any chunk boundary.
    """
    pos = np.asarray(positions, dtype=float)
    n_times, n_slots, dim = pos.shape
    if measure_indices is None:
        measure_indices = checkpoint_indices(path.n_times - 1)
    flat = pos.reshape(-1, dim)
    moved = np.ones((n_times, n_slots), dtype=bool)
    moved[1:] = np.any(pos[1:] != pos[:-1], axis=2)
    # the flat index of the (time, slot) point whose verdict each point shares
    source = np.maximum.accumulate(
        np.where(moved, np.arange(flat.shape[0]).reshape(n_times, n_slots), 0), axis=0
    )
    live = np.flatnonzero(moved)
    tested = None
    for j in measure_indices:
        if live.size == 0:
            break
        # every live point has passed the slice of these same positions
        if tested is not None and np.array_equal(path.positions[int(j)], tested):
            continue
        tested = path.positions[int(j)]
        m_j = path.measure_at(int(j))
        c_j = float(F.evaluate_many(grid.nodes, m_j).min())
        # chunks of ~1M (point, support) pairs.  The batch fixes the
        # rounding: the BLAS product ``K @ w`` may round a row one ulp
        # differently in another batch, so this size is part of the
        # artifacts' bytes
        step = max(1024, int(1_000_000 // max(1, m_j.size)))
        keep = np.empty(live.size, dtype=bool)
        for lo in range(0, live.size, step):
            sl = slice(lo, lo + step)
            keep[sl] = F.evaluate_many(flat[live[sl]], m_j) - c_j >= delta
        live = live[keep]
    occupied = np.zeros(flat.shape[0], dtype=bool)
    occupied[live] = True
    occupied = occupied[source]
    # time steps, not node times: left endpoints of the n_times - 1 steps
    return occupied[:-1].mean(axis=0)


def a_priori_report(value: ValueField, F: CostFunctional | None = None) -> dict:
    """Scheme-level checks of the structural value-function bounds.

    Reports the largest upwind gradient norm over all time slices, the
    largest discrete time rate, and the worst deviations of
    u/(time remaining) from the range of the coupling cost seen along the
    path; ``eps`` is the scheme-error allowance 10 (h + dt).
    """
    grid = value.grid
    dt = value.dt
    n_t = value.n_steps
    grad_max = 0.0
    for k in range(n_t + 1):
        grad_max = max(grad_max, float(grid.upwind_gradient_norm_field(value.values[k]).max()))
    dt_rate_max = float(np.abs(np.diff(value.values, axis=0)).max() / dt)
    remaining = value.times[-1] - value.times[:-1]
    ratios = value.values[:-1] / remaining.reshape((-1,) + (1,) * grid.dim)
    f_min = float(value.f_slices.min())
    f_max = float(value.f_slices.max())
    report = {
        "grad_max": grad_max,
        "dt_rate_max": dt_rate_max,
        "low_gap": float((ratios - f_min).min()),
        "high_gap": float((ratios - f_max).max()),
        "f_min": f_min,
        "f_max": f_max,
        "eps": 10.0 * (grid.max_spacing + dt),
    }
    if F is not None:
        report["grad_bound"] = math.sqrt(4.0 * F.m_bound) + 0.1
        report["m_bound"] = F.m_bound
    return report
