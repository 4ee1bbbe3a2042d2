"""Spatial primitives: random streams, observation windows, point sets,
hexagonal lattices, and exact nearest-site queries with optional wraparound
(toroidal) metric.

Runs of realizations (trials, or the field draws of
aggregation.supply_statistics) are grouped by absolute index into blocks of
BLOCK. Block b has two streams: its fields come from
substream(seed, b, FIELD_STREAM) and its users, their distances from the
station and their fading from substream(seed, b, USER_STREAM), so a setting
that changes the field leaves every user draw as it was. A user's distance
is drawn from the hexagonal cell's exact law (hex_cell_distances): the cell
is 12 congruent right triangles with a vertex at the station, so a uniform
point of one triangle, two uniforms, has the cell's distance law. A field
stream gives the block's energy centers; a trial that reads a boolean field
at the window's center alone integrates its field out and reads no field
stream (see renergy.coverage). The field samplers
(energy_field.sample_intensity, sample_intensity_pair) draw from the
generator their caller passes instead.

Distances on a wrapped window use the minimal-image convention, which equals
the minimum over the nine translated copies of the window.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from a master seed and an integer key.

    The same (seed, key) pair always yields the same stream, so any unit of
    work keyed by e.g. a trial counter is reproducible in isolation and the
    results of parallel workers do not depend on how work was partitioned.
    """
    # integers only: int() would truncate 1.5 to another stream's key silently
    entropy = tuple(map(operator.index, (seed, *key)))
    if entropy[0] < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


BLOCK = 256   # realizations per random-number block
FIELD_STREAM, USER_STREAM = 0, 1   # last key of a block's field and user streams


@dataclass(frozen=True)
class Window:
    """Rectangular observation window [0, width) x [0, height).

    With wrap=True the window is treated as a torus: opposite edges are
    identified and all distances are minimal-image distances.
    """

    width: float
    height: float
    wrap: bool = True

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(f"window dimensions must be positive and finite, "
                             f"got {self.width} x {self.height}")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * self.width, 0.5 * self.height])


@dataclass(frozen=True, eq=False)
class PointSet:
    """Immutable planar point collection."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if pts.flags.writeable:  # the caller could still change it: keep a copy
            pts = pts.copy()
            pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(distinct x, each point's index into them, distinct y, each
        point's index into them), computed once per point set. Lattice
        points share few coordinates, so per-axis work over the distinct
        values is much smaller than over the points."""
        ux, ix = np.unique(self.points[:, 0], return_inverse=True)
        uy, iy = np.unique(self.points[:, 1], return_inverse=True)
        return ux, ix, uy, iy

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(each point's x index in axes, the points ordered by their y
        index and then by their x index; where each row of one distinct y
        starts in that order), computed once per point set. Every distinct y
        has a row."""
        _, ix, _, iy = self.axes
        order = np.lexsort((ix, iy))
        return ix[order], np.flatnonzero(np.diff(iy[order], prepend=-1))


def uniform_points(window: Window, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform points in the window, all x coordinates drawn before all y.

    The (n, 2) result is read-only and stores each coordinate contiguously,
    so PointSet keeps it without a copy and column reads are unit-stride.
    """
    xy = np.empty((2, n))
    for row, side in zip(xy, (window.width, window.height)):
        rng.random(out=row)   # the draws of rng.uniform(0, side, n)
        row *= side
    xy.setflags(write=False)
    return xy.T


def folded_square(d, side: float, wrap: bool) -> np.ndarray:
    """Squared one-axis distance for coordinate differences d, as a new
    array; on a wrapped axis of length side, |d| is first folded to
    min(|d|, side - |d|)."""
    d = np.abs(d)
    if wrap:
        np.minimum(d, side - d, out=d)
    d *= d
    return d


def separation(dx, dy, window: Window) -> np.ndarray:
    """Distance for per-axis coordinate differences dx, dy (arrays of equal or
    broadcastable shape); minimal-image when the window wraps."""
    dx, dy = np.broadcast_arrays(dx, dy)
    # sqrt(dx^2 + dy^2) in place: a tenth of np.hypot's time, and coordinates
    # in km are far from where hypot's overflow guard matters
    d2 = folded_square(dx, window.width, window.wrap)
    d2 += folded_square(dy, window.height, window.wrap)
    return np.sqrt(d2, out=d2)


# Points per chunk of nearest_site_indices' distance matrix.
_NEAREST_CHUNK = 2048


def nearest_site_indices(points: np.ndarray, sites: np.ndarray, window: Window
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest site for every point, with first-index tie-breaking.

    Evaluates the full distance matrix in chunks; intended for moderate site
    counts (assigning harvesters to aggregators, and finding the typical
    station's aggregator), where deterministic tie handling matters.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out_idx = np.empty(len(pts), dtype=np.int64)
    out_d = np.empty(len(pts))
    chunk = _NEAREST_CHUNK
    for lo in range(0, len(pts), chunk):
        block = pts[lo:lo + chunk]
        dist = separation(block[:, None, 0] - sites[None, :, 0],
                          block[:, None, 1] - sites[None, :, 1], window)
        amin = np.argmin(dist, axis=1)
        out_idx[lo:lo + chunk] = amin
        out_d[lo:lo + chunk] = dist[np.arange(len(block)), amin]
    return out_idx, out_d


def default_window_side(lambda_b: float, nu: float) -> float:
    """Default arena side: ten station pitches or ten kernel length scales,
    whichever is larger, for station density lambda_b and kernel scale nu."""
    for name, value in (("lambda_b", lambda_b), ("nu", nu)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    return max(10.0 / math.sqrt(lambda_b), 10.0 * math.sqrt(nu))


def hex_pitch(density: float) -> float:
    """Nearest-neighbor spacing of a triangular lattice with the given site density."""
    if not 0 < density < math.inf:
        raise ValueError("density must be positive and finite")
    return math.sqrt(2.0 / (math.sqrt(3.0) * density))


def hex_cell_circumradius(density: float) -> float:
    """Corner radius of the hexagonal cell of area 1/density."""
    if not 0 < density < math.inf:
        raise ValueError("density must be positive and finite")
    return math.sqrt(2.0 / (3.0 * math.sqrt(3.0) * density))


@dataclass(frozen=True, eq=False)
class HexLattice:
    """Triangular lattice of sites whose hexagonal cells have area 1/density."""

    density: float
    sites: PointSet


def hex_lattice(density: float, window: Window) -> HexLattice:
    """Triangular site lattice centered so one site sits at the window center.

    Sites are clipped to [0, width) x [0, height); on a wrapped window whose
    sides are integer multiples of the lattice periods (pitch, sqrt(3)*pitch)
    the clipped set tiles the torus exactly.
    """
    a = hex_pitch(density)
    R = hex_cell_circumradius(density)
    if window.width < 2 * R or window.height < 2 * R:
        raise ValueError(
            f"window {window.width} x {window.height} cannot contain one full "
            f"hexagonal cell of density {density}")
    row_h = a * math.sqrt(3.0) / 2.0
    cx, cy = 0.5 * window.width, 0.5 * window.height
    tol = 1e-9 * max(a, 1.0)

    rows = []
    jmax = int(math.ceil(cy / row_h)) + 1
    for j in range(-jmax, jmax + 1):
        y = cy + j * row_h
        if y < -tol or y >= window.height - tol:
            continue
        xoff = 0.5 * a if (j % 2) else 0.0
        imin = int(math.floor((-cx - xoff) / a)) - 1
        imax = int(math.ceil((window.width - cx - xoff) / a)) + 1
        xs = cx + xoff + a * np.arange(imin, imax + 1)
        xs = xs[(xs >= -tol) & (xs < window.width - tol)]
        rows.append(np.column_stack([xs, np.full(len(xs), y)]))
    pts = np.vstack(rows) if rows else np.empty((0, 2))
    return HexLattice(density=density, sites=PointSet(pts))


def sample_in_hex_cell(circumradius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in a pointy-top hexagon of the given corner radius,
    centered at the origin. Rejection from the bounding box (acceptance 3/4)."""
    if not 0 < circumradius < math.inf:
        raise ValueError("circumradius must be positive and finite")
    if n == 0:
        return np.empty((0, 2))
    R = circumradius
    half_w = math.sqrt(3.0) * R / 2.0
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        m = max(16, int(1.4 * (n - filled)) + 4)
        x = rng.uniform(-half_w, half_w, m)
        y = rng.uniform(-R, R, m)
        ok = np.abs(x) + math.sqrt(3.0) * np.abs(y) <= math.sqrt(3.0) * R
        take = min(int(ok.sum()), n - filled)
        sel = np.flatnonzero(ok)[:take]
        out[filled:filled + take, 0] = x[sel]
        out[filled:filled + take, 1] = y[sel]
        filled += take
    return out


def hex_cell_distances(circumradius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Distances from the center of n uniform points in a pointy-top hexagon
    of the given corner radius, from one rng.random((2, n)) draw.

    The cell is 12 congruent 30-60-90 triangles, each with its right angle at
    an edge midpoint and a vertex at the center, so a uniform point of one
    triangle has the cell's distance law. In such a triangle, x along the
    inradius r_in has density 2x / r_in^2 and y is uniform on [0, x / sqrt(3)],
    so with uniforms u0 (row 0) and u1 (row 1): x = r_in sqrt(u0),
    y = x u1 / sqrt(3), and d = r_in sqrt(u0 (1 + u1^2 / 3)), which is
    (circumradius / 2) sqrt(u0 (3 + u1^2)) for r_in = circumradius sqrt(3) / 2.
    """
    if not 0 < circumradius < math.inf:
        raise ValueError("circumradius must be positive and finite")
    u0, u1 = rng.random((2, n))
    u1 *= u1
    u1 += 3.0
    d = np.multiply(u0, u1)   # a new array: the draw's 2n values go on return
    np.sqrt(d, out=d)
    d *= 0.5 * circumradius
    return d
