"""Uniform Cartesian grids on axis-aligned boxes in dimensions one and two.

Every solver in this package shares one spatial discretisation: a box
``[lower, upper]`` split into uniform cells, with fields stored at the cell
corners (nodes) in row-major order (last axis fastest).  This module owns
that lattice and the three geometric primitives everything else is built
from: multilinear interpolation with a strict escape policy, Euclidean
distance to node sets (and the pairwise squared distances behind every
kernel and cost matrix), and the Godunov upwind gradient norm behind the
a-priori gradient diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainEscapeError

# Relative slop applied to the one-cell clamp margin so points that sit on
# the margin up to rounding are clamped instead of rejected.
_MARGIN_SLOP = 1e-9


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform node lattice on an axis-aligned box.

    Axis ``i`` carries ``n_cells[i] + 1`` nodes at
    ``lower[i] + j * spacing[i]`` for ``j = 0 .. n_cells[i]``.
    Fields live on nodes as arrays of shape ``grid.shape``.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_cells: tuple[int, ...]

    def __post_init__(self):
        lower = tuple(float(a) for a in np.atleast_1d(np.asarray(self.lower, dtype=float)))
        upper = tuple(float(b) for b in np.atleast_1d(np.asarray(self.upper, dtype=float)))
        cells = tuple(int(n) for n in np.atleast_1d(np.asarray(self.n_cells)))
        if not (len(lower) == len(upper) == len(cells)):
            raise ValueError("lower, upper and n_cells must have matching lengths")
        if len(lower) not in (1, 2):
            raise ValueError(f"only dimensions 1 and 2 are supported, got {len(lower)}")
        if not np.isfinite(lower + upper).all():
            raise ValueError("lower and upper must be finite")
        if any(not b > a for a, b in zip(lower, upper)):
            raise ValueError("upper must exceed lower on every axis")
        if any(n < 2 for n in cells):
            raise ValueError("need at least 2 cells per axis")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "n_cells", cells)

    # -- basic geometry ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lower)

    @cached_property
    def lower_array(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @cached_property
    def upper_array(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    @cached_property
    def cells_array(self) -> np.ndarray:
        return np.asarray(self.n_cells, dtype=int)

    @cached_property
    def spacing(self) -> np.ndarray:
        """Cell width per axis: (upper - lower) / n_cells."""
        return (self.upper_array - self.lower_array) / self.cells_array

    @property
    def max_spacing(self) -> float:
        return float(self.spacing.max())

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """Nodes per axis."""
        return tuple(n + 1 for n in self.n_cells)

    @cached_property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def axis_nodes(self, axis: int) -> np.ndarray:
        return self.lower[axis] + np.arange(self.n_cells[axis] + 1) * self.spacing[axis]

    @cached_property
    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim), row-major order."""
        axes = [self.axis_nodes(i) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def nearest_node_index(self, points) -> np.ndarray:
        """Flat index of the node closest to each point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        j = np.rint((pts - self.lower_array) / self.spacing).astype(int)
        j = np.clip(j, 0, self.cells_array)
        flat = np.ravel_multi_index(tuple(j.T), self.shape)
        return flat

    # -- interpolation -----------------------------------------------------

    def locate(self, points):
        """Cell index and barycentric weight per axis for each query point.

        Points are clamped onto the box; points farther than one cell width
        outside on any axis are flagged as escaped.  Returns
        ``(cell_index (k, dim) int, weight (k, dim) float, escaped (k,) bool)``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, grid has {self.dim}")
        j, w, escaped = clamp_cells((pts - self.lower_array) / self.spacing, self.cells_array)
        return j, w, escaped.any(axis=1)

    def interpolate_many(self, field, points, out_of_range: str = "raise") -> np.ndarray:
        """Multilinear interpolation of a node field at many points.

        Exact on multilinear fields.  Clamping onto the box is applied up to
        one cell width outside; beyond that the point has escaped and the
        behaviour follows ``out_of_range``: ``"raise"`` raises
        :class:`DomainEscapeError`, ``"inf"`` returns ``+inf`` for the
        escaped entries.
        """
        if out_of_range not in ("raise", "inf"):
            raise ValueError(f"unknown out_of_range mode {out_of_range!r}")
        arr = np.asarray(field, dtype=float)
        if arr.shape != self.shape:
            raise ValueError(f"field has shape {arr.shape}, expected {self.shape}")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        j, w, escaped = self.locate(pts)
        any_escaped = escaped.any()
        if any_escaped and out_of_range == "raise":
            bad = pts[int(np.argmax(escaped))]
            raise DomainEscapeError(
                f"point {bad.tolist()} lies more than one cell outside the box",
                point=tuple(bad.tolist()),
            )
        flat = arr.ravel()
        if self.dim == 1:
            vals = lerp(flat, j[:, 0], w[:, 0])
        else:
            ny = self.shape[1]
            base = j[:, 0] * ny + j[:, 1]
            w0, w1 = w[:, 0], w[:, 1]
            vals = (
                flat[base] * (1.0 - w0) * (1.0 - w1)
                + flat[base + ny] * w0 * (1.0 - w1)
                + flat[base + 1] * (1.0 - w0) * w1
                + flat[base + ny + 1] * w0 * w1
            )
        if any_escaped:
            vals[escaped] = np.inf
        return vals

    # -- upwind gradient ---------------------------------------------------

    def upwind_gradient_norm_field(self, field) -> np.ndarray:
        """Godunov upwind gradient norm at every node, of one field or of
        a stack of fields along leading axes (each elementwise as alone).

        Per axis the contribution is ``max(D-, -D+, 0)`` with one-sided
        differences at the box boundary; the norm is the Euclidean
        combination across axes.
        """
        arr = np.asarray(field, dtype=float)
        lead = arr.ndim - self.dim
        if lead < 0 or arr.shape[lead:] != self.shape:
            raise ValueError(f"field has shape {arr.shape}, expected {self.shape}")
        total = np.zeros(arr.shape)
        for ax in range(lead, arr.ndim):
            d = np.diff(arr, axis=ax) / self.spacing[ax - lead]
            pad_shape = list(arr.shape)
            pad_shape[ax] = 1
            pad = np.full(pad_shape, -np.inf)
            backward = np.concatenate([pad, d], axis=ax)
            forward_neg = np.concatenate([-d, pad], axis=ax)
            contrib = np.maximum(np.maximum(backward, forward_neg), 0.0)
            total += contrib * contrib
        return np.sqrt(total)


def escape_margin(n_cells):
    """How far, in cells, a coordinate may lie outside ``[0, n_cells]``
    before it escapes: one cell, up to ``_MARGIN_SLOP``."""
    return 1.0 + _MARGIN_SLOP * (1.0 + n_cells)


def clamp_cells(t: np.ndarray, n_cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell index, weight and escape flag per cell coordinate.

    ``t`` holds coordinates in cells from the lower corner, on an axis of
    ``n_cells`` cells (an array broadcasting against ``t`` per axis).  They
    are clamped onto ``[0, n_cells]``; a coordinate farther than
    ``escape_margin`` outside is flagged as escaped.
    """
    margin = escape_margin(n_cells)
    escaped = (t < -margin) | (t > n_cells + margin)
    t = t.clip(0.0, n_cells)
    j = np.minimum(np.floor(t).astype(int), n_cells - 1)
    return j, t - j, escaped


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct values of an integer array, as ``np.unique``
    returns them.  Since numpy 2.3 a plain ``np.unique`` imports
    ``numpy.ma`` on its first call (about 13 ms), which a 1D run needs
    for nothing else."""
    values = np.sort(np.asarray(values).ravel())
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def lerp(flat: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The 1D linear interpolant of node values ``flat`` in cell ``j`` at
    weight ``w``: the float expression of every 1D interpolation."""
    return flat[j] * (1.0 - w) + flat[j + 1] * w


@dataclass(frozen=True, eq=False)
class NodeSet:
    """A finite set of grid nodes, stored as sorted unique flat indices."""

    grid: SpatialGrid
    indices: np.ndarray

    def __post_init__(self):
        idx = sorted_unique(np.asarray(self.indices, dtype=np.int64))
        if idx.size and (idx[0] < 0 or idx[-1] >= self.grid.n_nodes):
            raise ValueError("node index out of range")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_mask(cls, grid: SpatialGrid, mask) -> "NodeSet":
        m = np.asarray(mask, dtype=bool)
        if m.shape != grid.shape:
            raise ValueError(f"mask has shape {m.shape}, expected {grid.shape}")
        return cls(grid, np.flatnonzero(m.ravel()))

    @classmethod
    def from_points(cls, grid: SpatialGrid, points) -> "NodeSet":
        """Snap points to their nearest nodes."""
        return cls(grid, grid.nearest_node_index(points))

    @cached_property
    def points(self) -> np.ndarray:
        """Coordinates of the member nodes, shape (len, dim)."""
        return self.grid.nodes[self.indices]

    def __len__(self) -> int:
        return int(self.indices.size)


def distance_to_set(points, node_set: NodeSet):
    """Euclidean distance from each point to the nearest node of the set.

    Raises ``ValueError`` on an empty set.  Scalar in, scalar out.
    """
    if len(node_set) == 0:
        raise ValueError("distance to an empty node set is undefined")
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != node_set.grid.dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, grid has {node_set.grid.dim}")
    d = np.sqrt(pairwise_sq_dist(pts, node_set.points).min(axis=1))
    return float(d[0]) if single else d


def pairwise_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape ``(len(a), len(b))``, of point
    arrays of shape ``(k, dim)``.

    One output array, built per axis with ``np.subtract.outer`` and squared
    and summed in place: no ``(len(a), len(b), dim)`` difference tensor.
    With dim 1 or 2 the sum is ``d0**2`` or ``d0**2 + d1**2``, the same
    bits as ``((a[:, None] - b[None]) ** 2).sum(-1)``.
    """
    out = np.subtract.outer(a[:, 0], b[:, 0])
    np.multiply(out, out, out=out)
    for ax in range(1, a.shape[1]):
        d = np.subtract.outer(a[:, ax], b[:, ax])
        np.multiply(d, d, out=d)
        out += d
    return out


def distance_to_box(points, lower, upper):
    """Euclidean distance from each point to an axis-aligned box."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    d = np.sqrt((gap * gap).sum(axis=1))
    return float(d[0]) if single else d
