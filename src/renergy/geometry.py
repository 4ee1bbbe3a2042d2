"""Spatial primitives: random streams, observation windows, point sets,
hexagonal lattices, and exact nearest-site queries with optional wraparound
(toroidal) metric.

Random draws follow one convention: realizations (trials) are grouped by
absolute index into blocks of BLOCK, and block b draws all of its
realizations from substream(seed, b); block_spans splits a run of
realizations at block edges.

Distances on a wrapped window use the minimal-image convention, which equals
the minimum over the nine translated copies of the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from a master seed and an integer key.

    The same (seed, key) pair always yields the same stream, so any unit of
    work keyed by e.g. a trial counter is reproducible in isolation and the
    results of parallel workers do not depend on how work was partitioned.
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


BLOCK = 256   # realizations per random-number block


def block_spans(start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """(block, lo, hi) for every block that realizations [start, stop) touch,
    lo..hi-1 being their positions within it."""
    if start < 0 or stop < start:
        raise ValueError("need 0 <= start <= stop")
    t = start
    while t < stop:
        block, lo = divmod(t, BLOCK)
        hi = min(BLOCK, lo + stop - t)
        yield block, lo, hi
        t += hi - lo


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
        if not (self.width > 0 and self.height > 0):
            raise ValueError(
                f"window dimensions must be positive, got {self.width} x {self.height}")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * self.width, 0.5 * self.height])


@dataclass(frozen=True, eq=False)
class PointSet:
    """Immutable planar point collection with the intensity that generated it.

    intensity is 0 for deterministic constructions (lattices, fixtures).
    """

    points: np.ndarray
    intensity: float = 0.0

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if pts.flags.writeable:  # the caller could still change it: keep a copy
            pts = pts.copy()
            pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.intensity < 0:
            raise ValueError("intensity must be non-negative")

    def __len__(self) -> int:
        return self.points.shape[0]


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


def separation(dx, dy, window: Window) -> np.ndarray:
    """Distance for per-axis coordinate differences dx, dy (arrays of equal or
    broadcastable shape); minimal-image when the window wraps."""
    dx, dy = np.broadcast_arrays(dx, dy)
    dx = np.abs(dx)
    dy = np.abs(dy)
    if window.wrap:
        np.minimum(dx, window.width - dx, out=dx)
        np.minimum(dy, window.height - dy, out=dy)
    # sqrt(dx^2 + dy^2) in place: a tenth of np.hypot's time, and coordinates
    # in km are far from where hypot's overflow guard matters
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def nearest_site_indices(points: np.ndarray, sites: np.ndarray, window: Window,
                         chunk: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest site for every point, with first-index tie-breaking.

    Evaluates the full distance matrix in chunks; intended for moderate site
    counts (lattice assignment, energy centers), where deterministic tie
    handling matters.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out_idx = np.empty(len(pts), dtype=np.int64)
    out_d = np.empty(len(pts))
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
    return max(10.0 / math.sqrt(lambda_b), 10.0 * math.sqrt(nu))


def hex_pitch(density: float) -> float:
    """Nearest-neighbor spacing of a triangular lattice with the given site density."""
    if density <= 0:
        raise ValueError("density must be positive")
    return math.sqrt(2.0 / (math.sqrt(3.0) * density))


def hex_cell_circumradius(density: float) -> float:
    """Corner radius of the hexagonal cell of area 1/density."""
    if density <= 0:
        raise ValueError("density must be positive")
    return math.sqrt(2.0 / (3.0 * math.sqrt(3.0) * density))


@dataclass(frozen=True, eq=False)
class HexLattice:
    """Triangular lattice of sites whose hexagonal cells have area 1/density."""

    density: float
    sites: PointSet
    cell_area: float
    window: Window


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
    return HexLattice(density=density, sites=PointSet(pts, 0.0),
                      cell_area=1.0 / density, window=window)


def sample_in_hex_cell(circumradius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in a pointy-top hexagon of the given corner radius,
    centered at the origin. Rejection from the bounding box (acceptance 3/4)."""
    if circumradius <= 0:
        raise ValueError("circumradius must be positive")
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
