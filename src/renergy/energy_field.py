"""Random energy field driven by a Poisson process of energy centers.

Two constructions over the same center process are supported:

* boolean max field: the field value at a location is gamma times the decay
  of the distance to the NEAREST center (a Boolean max-of-kernels model);
* shot noise field: gamma times the SUM of kernel decays over all centers.

Kernels are the squared-exponential decay exp(-d^2/nu) and, for the boolean
construction only, the power-law decay (1 + d^2/nu)^(-1). The dimensionless
product psi = nu * lambda_e controls every distributional property of the
boolean exponential field; its closed forms below are exact on the infinite
plane and hold on a wrapped window up to the minimal-image truncation.

Every realization is a block: a FieldRealization holds n independent
realizations (draw_field with n, one by default; a hand-built set of centers
is a block of one), and field_values evaluates all of them in one grouped
pass. The samplers, the aggregated supply and the trial engine's shot-noise
and several-harvester trials draw and evaluate fields this way; the trial
engine integrates boolean fields read at the window's center alone
(on-site, or a cluster of one harvester) over the nearest center's exact
window law below instead.

field_values evaluates all three kernels by factoring the evaluation points
by axis (PointSet.axes, computed once per point set): a per-axis step runs
once per distinct coordinate and center, its rows are gathered and combined
per tile, and each realization reduces its pairs. The boolean kernels
combine folded squared differences by adding them, take each realization's
minimum squared distance and only then the sqrt, so the result equals the
minimum over per-pair distances bit for bit. The shot-noise kernel's image
sum factors exactly by axis, so it multiplies the per-axis sums of
exp(-d^2/nu) over a center's images and adds over the centers.

Every kernel reduces by segments: one reduceat segment per point and
realization, a minimum for the boolean kernels and a sum for shot noise.
Tiles of whole realizations hold at most _TILE_POINTS points and about
_TILE_ELEMENTS pairs, so memory does not grow with the block.

field_values at the block nearest_center returns, each realization's center
nearest the window's center alone, is a lower bound on field_values at the
block it came from. Each of its values is the pair of that point and center
that field_values reduces in the full realization: a boolean field's
minimum over all the centers can only be nearer, and a shot-noise sum only
adds non-negative terms. nearest_center_total sums that bound over the
points of an exponential kernel from each axis's decays alone, one decay
per distinct coordinate and realization instead of a kernel per point. Its product of two
decays and its order of summation round differently from the pairs, so it
is their sum only to a few units of round-off, and it lies below the field
only once scaled down by a margin far above that (coverage._BOUND_MARGIN).
The same holds at each realization's two nearest centers (nearest_centers),
whose field factored_total sums by gathering each point's x and y decays.
The trial engine settles the trials a bound already covers and evaluates the
others' realizations, taken from their block by FieldRealization.compress.

On the simulated window the boolean field at the window's center has an
exact law too: its nearest center lies beyond r with probability
exp(-lambda_e A(r)), A(r) being the area of the disk of radius r inside the
window (window_disk_area), which is pi r^2 up to half the shorter side,
where the plane laws above hold. nearest_center_distance inverts it at
uniforms, one distance per uniform, so a field at the center can be drawn
from one uniform instead of a realization's centers; A maps the centers'
distances to a Poisson process on [0, area), so nearest_center_realizations
places a realization's k nearest centers from 2k uniforms.

The samplers (sample_intensity, sample_intensity_pair) take no chunk size:
they draw and evaluate as many whole realizations at a time as hold
_DRAW_CENTERS (2^20) expected centers, about 16 MiB of coordinates, and at
least one, so their memory does not grow with n. Each draw takes its
realizations from the caller's rng in draw_field's order (counts, then x,
then y), so the samples a seed gives depend on where the draws split a call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import PointSet, Window, folded_square, uniform_points


class Kernel(enum.Enum):
    BOOLEAN_MAX_EXP = "boolean_max_exp"
    SHOT_NOISE_EXP = "shot_noise_exp"
    BOOLEAN_MAX_PLAW = "boolean_max_plaw"


@dataclass(frozen=True)
class EnergyFieldSpec:
    """Parameters of the energy field.

    gamma: peak (and a.s. maximal, for boolean kernels) field value, W.
    lambda_e: intensity of the energy-center process, 1/km^2.
    nu: squared decay length of the kernel, km^2.
    """

    gamma: float
    lambda_e: float
    nu: float
    kernel: Kernel = Kernel.BOOLEAN_MAX_EXP

    def __post_init__(self) -> None:
        for name in ("gamma", "lambda_e", "nu"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not isinstance(self.kernel, Kernel):
            raise ValueError(f"unknown kernel {self.kernel!r}")

    @property
    def psi(self) -> float:
        """Characteristic dimensionless parameter nu * lambda_e."""
        return self.nu * self.lambda_e


@dataclass(frozen=True, eq=False)
class FieldRealization:
    """Energy centers of a block of independent realizations stored one after
    another, counts[i] centers for the i-th. Without counts, all the centers
    form a block of one."""

    spec: EnergyFieldSpec
    centers: PointSet
    window: Window
    counts: np.ndarray | None = None   # an int64 array once constructed

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts if self.counts is not None
                            else [len(self.centers)], dtype=np.int64)
        if counts.ndim != 1 or counts.min(initial=0) < 0 \
                or counts.sum() != len(self.centers):
            raise ValueError("counts must split the centers into realizations")
        object.__setattr__(self, "counts", counts)

    def select(self, lo: int, hi: int) -> "FieldRealization":
        """Realizations lo..hi-1 of a block, as a block."""
        first = int(self.counts[:lo].sum())
        last = first + int(self.counts[lo:hi].sum())
        centers = PointSet(self.centers.points[first:last])
        return FieldRealization(self.spec, centers, self.window, self.counts[lo:hi])

    def compress(self, keep: np.ndarray) -> "FieldRealization":
        """The realizations of a block where the boolean mask keep is true,
        as a block, each coordinate contiguous: their centers gathered by
        index, so the work grows with the centers kept."""
        rows = np.flatnonzero(keep)
        counts = self.counts[rows]
        first = (np.cumsum(self.counts) - self.counts)[rows]
        at = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        xy = self.centers.points.T[:, at]
        xy.setflags(write=False)
        return FieldRealization(self.spec, PointSet(xy.T), self.window, counts)

    @staticmethod
    def join(parts: list["FieldRealization"]) -> "FieldRealization":
        """The realizations of parts, one block after another, each coordinate
        contiguous as drawn."""
        xy = np.concatenate([part.centers.points.T for part in parts], axis=1)
        xy.setflags(write=False)
        first = parts[0]
        return FieldRealization(first.spec, PointSet(xy.T), first.window,
                                np.concatenate([part.counts for part in parts]))


def draw_field(spec: EnergyFieldSpec, window: Window, rng: np.random.Generator,
               n: int = 1) -> FieldRealization:
    """A block of n realizations of the center process: all n center counts
    first, then every x, then every y."""
    counts = rng.poisson(spec.lambda_e * window.area, n)
    centers = PointSet(uniform_points(window, int(counts.sum()), rng))
    return FieldRealization(spec, centers, window, counts)


def decay_exp(d, nu: float):
    """Squared-exponential kernel exp(-d^2 / nu)."""
    if not 0 < nu < math.inf:
        raise ValueError("nu must be positive and finite")
    d = np.asarray(d, dtype=float)
    if not np.all(d >= 0):
        raise ValueError("distance must be non-negative")
    return np.exp(-(d * d) / nu)


def decay_power_law(d, nu: float):
    """Power-law kernel (1 + d^2 / nu)^(-1)."""
    if not 0 < nu < math.inf:
        raise ValueError("nu must be positive and finite")
    d = np.asarray(d, dtype=float)
    if not np.all(d >= 0):
        raise ValueError("distance must be non-negative")
    return 1.0 / (1.0 + (d * d) / nu)


def _boolean_kernel(spec: EnergyFieldSpec, d: np.ndarray) -> np.ndarray:
    """Boolean field value at nearest-center distances d, in place: gamma
    times decay_exp's or decay_power_law's operations in their order, so the
    bits are theirs (dividing by -nu rounds as negating, then dividing by nu,
    does); d = +inf (no center) gives exactly 0 for both kernels."""
    t = np.multiply(d, d, out=d)
    if spec.kernel is Kernel.BOOLEAN_MAX_EXP:
        t /= -spec.nu
        np.exp(t, out=t)
    else:
        t /= spec.nu
        t += 1.0
        np.divide(1.0, t, out=t)
    t *= spec.gamma
    return t


def _image_decay(d: np.ndarray, side: float, wrap: bool, nu: float) -> np.ndarray:
    """Per-axis factor of the shot-noise kernel: exp(-d^2/nu) for coordinate
    differences d, summed over the images d - side, d, d + side when the axis
    wraps. The product of the two axes' factors is the kernel summed over a
    center and its eight window images."""
    acc = np.zeros_like(d)
    for shift in ((-side, 0.0, side) if wrap else (0.0,)):
        e = d + shift
        e *= e
        e /= -nu
        acc += np.exp(e, out=e)
    return acc


# Largest (points x centers) array field_values builds at once. Each per-axis
# array (distinct coordinates x centers) also stays within it, and a tile
# takes at most _TILE_POINTS points; only a single realization with more
# centers than that is evaluated whole.
_TILE_ELEMENTS = 1 << 16
_TILE_POINTS = 1024

# Expected energy centers the samplers draw at once (16 MiB of coordinates).
# A draw takes as many whole realizations as this holds; a single realization
# with more expected centers than that is drawn whole.
_DRAW_CENTERS = 1 << 20


def field_values(real: FieldRealization, points) -> np.ndarray:
    """Field values at k locations inside the window for each of a block's n
    realizations, shape (k, n). points is a PointSet or a (k, 2) array; a
    PointSet that is evaluated again keeps its axis factorization."""
    pts = points if isinstance(points, PointSet) else PointSet(points)
    spec = real.spec
    if spec.kernel is Kernel.SHOT_NOISE_EXP:
        # per-axis image sums of exp(-d^2/nu), multiplied, summed over centers
        out = _segment_reduce(real, pts, partial(_image_decay, nu=spec.nu), np.multiply,
                              np.add, 0.0)
        out *= spec.gamma
        return out
    # folded squared differences, added, least over centers
    d2 = _segment_reduce(real, pts, folded_square, np.add, np.minimum, np.inf)
    return _boolean_kernel(spec, np.sqrt(d2, out=d2))


def nearest_center(real: FieldRealization) -> FieldRealization:
    """Each realization's center nearest the window's center (the first of
    those tied) alone, as a block of realizations of at most one center
    each: none for an empty one (nearest_centers with k = 1)."""
    return nearest_centers(real, 1)


def nearest_center_total(real: FieldRealization, points) -> np.ndarray:
    """field_values(nearest_center(real), points) summed over the points,
    (n,), under an exponential kernel, from each axis's decays at the
    nearest center alone: len(ux) + len(uy) of them per realization
    (PointSet.axes), not one per point.

    Both kernels factor by axis: the boolean one's exp(-(dx^2 + dy^2) / nu)
    is exp(-dx^2 / nu) exp(-dy^2 / nu) of the folded differences, and shot
    noise's image sum is the product of its axes' (_image_decay). The points
    are summed by rows of equal y (PointSet.rows): the x decays of each
    row's points are summed, each sum is multiplied by its row's y decay,
    and the rows are summed, each sum a reduceat that reduces every
    realization's column on its own, so a realization's total takes the
    same operations in the same order whatever block it is evaluated in. It
    differs from the sum of field_values' values there only by the
    rounding of the factored product and of the order of the sum, a few
    units of round-off relative to each value's exponent and to the total."""
    spec = real.spec
    if spec.kernel is Kernel.BOOLEAN_MAX_PLAW:
        raise ValueError("the power-law kernel does not factor by axis")
    pts = points if isinstance(points, PointSet) else PointSet(points)
    one = nearest_center(real)
    window, full = one.window, one.counts > 0
    ux, _, uy, _ = pts.axes
    order, rows = pts.rows
    xy = one.centers.points
    out = np.zeros(len(full))
    if not len(xy):
        return out
    decay = _axis_decay(spec)
    ex = decay(ux[:, None] - xy[:, 0], window.width, window.wrap)
    total = np.add.reduceat(np.take(ex, order, axis=0), rows, axis=0)
    total *= decay(uy[:, None] - xy[:, 1], window.height, window.wrap)
    # a reduceat, unlike sum, reduces a lone column as it does each of many
    out[full] = np.add.reduceat(total, [0], axis=0)[0]
    out *= spec.gamma
    return out


def nearest_centers(real: FieldRealization, k: int) -> FieldRealization:
    """Each realization's k centers nearest the window's center, nearest
    first (of those tied, the first drawn first), as a block of
    realizations of at most k centers each. The j-th nearest is the first
    center at the least squared distance among those not yet taken: one
    reduceat per j over the block. On a wrapped window that is the folded
    distance too, as no coordinate lies more than half a side from the
    window's center. A block of at most k centers per realization is its
    own."""
    counts = real.counts
    if counts.max(initial=0) <= k:
        return real
    xy = real.centers.points
    cx, cy = real.window.center
    d2 = xy[:, 0] - cx
    d2 *= d2
    dy = xy[:, 1] - cy
    dy *= dy
    d2 += dy
    full = counts > 0
    starts = (np.cumsum(counts) - counts)[full]
    kept = np.minimum(counts, k)
    slot = (np.cumsum(kept) - kept)[full]
    taken = np.empty(int(kept.sum()), dtype=np.intp)
    for j in range(k):
        if j:   # the centers taken read inf, as do realizations they emptied
            d2[at] = np.inf
        least = np.repeat(np.minimum.reduceat(d2, starts), counts[full])
        hits = np.flatnonzero(d2 == least)
        held = counts[full] > j
        at = hits[np.searchsorted(hits, starts[held])]
        taken[slot[held] + j] = at
    xy = xy.T[:, taken]
    xy.setflags(write=False)
    return FieldRealization(real.spec, PointSet(xy.T), real.window, kept)


def factored_total(real: FieldRealization, points) -> np.ndarray:
    """field_values(real, points) summed over the points, (n,), under an
    exponential kernel, for a block of few centers per realization, from
    each axis's decays (_axis_decay) at each center: a point's value at a
    center is the product of its x and y decays, gathered per point
    (PointSet.axes), the boolean kernel's field the largest of them over
    the realization's centers and shot noise's their sum. The j-th centers
    of the realizations are taken together, a realization without one
    adding nothing, and the points are summed by a reduceat, which reduces
    each realization's column on its own. Like nearest_center_total, it
    differs from the sum of field_values' values only by a few units of
    round-off."""
    spec, window, counts = real.spec, real.window, real.counts
    if spec.kernel is Kernel.BOOLEAN_MAX_PLAW:
        raise ValueError("the power-law kernel does not factor by axis")
    pts = points if isinstance(points, PointSet) else PointSet(points)
    ux, ix, uy, iy = pts.axes
    decay = _axis_decay(spec)
    xy = real.centers.points
    first = np.cumsum(counts) - counts
    reduce = np.add if spec.kernel is Kernel.SHOT_NOISE_EXP else np.maximum
    values = np.zeros((len(ix), len(counts)))
    for j in range(int(counts.max(initial=0))):
        held = counts > j
        at = first[held] + j
        v = np.take(decay(ux[:, None] - xy[at, 0], window.width, window.wrap), ix, axis=0)
        v *= np.take(decay(uy[:, None] - xy[at, 1], window.height, window.wrap), iy, axis=0)
        if len(at) < len(counts):
            values[:, held] = reduce(values[:, held], v)
        else:
            reduce(values, v, out=values)
    total = np.add.reduceat(values, [0], axis=0)[0]
    total *= spec.gamma
    return total


def _axis_decay(spec: EnergyFieldSpec):
    """Per-axis factor of an exponential kernel at coordinate differences d,
    as a new array: exp(-d^2/nu) of the folded difference for the boolean
    kernel, the image sum _image_decay for shot noise."""
    if spec.kernel is Kernel.SHOT_NOISE_EXP:
        return partial(_image_decay, nu=spec.nu)

    def decay(d, side, wrap):
        e = folded_square(d, side, wrap)
        e /= -spec.nu
        return np.exp(e, out=e)
    return decay


def _segment_reduce(real: FieldRealization, pts: PointSet, axis_step,
                    combine: np.ufunc, reduce: np.ufunc, empty: float) -> np.ndarray:
    """Per-pair values reduced over each realization's centers, (k, n): a pair
    of point and center takes combine(axis_step(dx), axis_step(dy)), and each
    realization reduces its pairs with one reduceat segment per point; an
    empty one gives `empty`, which only the columns of tiles that hold an
    empty realization are filled with first. A tile whose nonempty
    realizations hold one center each skips the reduceat, whose one-pair
    segments are the pairs themselves, and combines its pairs straight into
    its slice of the result where it holds no empty realization; a tile
    without an empty realization writes its columns as a slice of the
    result, not through their indices: the bits are the same either way.

    axis_step(d, side, wrap) maps per-axis coordinate differences to a new
    array. The points are factored by axis: it runs once per distinct
    coordinate and center, and pair values are gathered from its rows and
    combined. Tiles of whole realizations hold at most _TILE_POINTS points
    and about _TILE_ELEMENTS pairs, so a block of any size is evaluated in
    bounded memory.
    """
    ux, ix, uy, iy = pts.axes
    window, counts = real.window, real.counts
    xs, ys = real.centers.points[:, 0], real.centers.points[:, 1]
    out = np.empty((len(ix), len(counts)))
    step = max(1, min(len(ix), _TILE_POINTS))
    span = max(1, _TILE_ELEMENTS // max(step, len(ux), len(uy)))
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        first = int(ends[lo] - counts[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, first + span, side="right")))
        last = int(ends[hi - 1])
        cols = lo + np.flatnonzero(counts[lo:hi])   # the tile's nonempty realizations
        starts = ends[cols] - counts[cols] - first
        alone = len(starts) == last - first         # one center per nonempty one
        whole = len(cols) == hi - lo                 # no empty realization
        if whole:
            cols = slice(lo, hi)
        else:
            out[:, lo:hi] = empty
        ax = axis_step(ux[:, None] - xs[first:last], window.width, window.wrap)
        ay = axis_step(uy[:, None] - ys[first:last], window.height, window.wrap)
        for p in range(0, len(ix), step):
            rows = slice(p, p + step)
            if alone and whole:
                combine(ax[ix[rows]], ay[iy[rows]], out=out[rows, cols])
                continue
            pair = ax[ix[rows]]
            combine(pair, ay[iy[rows]], out=pair)
            out[rows, cols] = pair if alone else reduce.reduceat(pair, starts, axis=1)
        lo = hi
    return out


def _disk_area(s: np.ndarray, half_sides: tuple[float, float]
               ) -> tuple[np.ndarray, np.ndarray]:
    """A and dA/ds of window_disk_area at squared radius s, at most half the
    window's squared diagonal: pi s less, for each half side h below r, the
    two segments s phi - h sqrt(s - h^2) at phi = atan(sqrt(s - h^2) / h),
    whose derivative is phi. The arctangent, unlike acos(h / r), keeps a thin
    segment's area to round-off."""
    area = math.pi * s
    slope = np.full_like(area, math.pi)
    for h in half_sides:
        q = np.sqrt(np.maximum(s - h * h, 0.0))
        phi = np.arctan2(q, h)
        area -= 2.0 * (s * phi - h * q)
        slope -= 2.0 * phi
    return area, slope


def window_disk_area(r, window: Window) -> np.ndarray:
    """Area A(r) of the disk of radius r centered in the window: pi r^2 up to
    half the shorter side, less two circular segments per half side r
    exceeds, and the whole window from half the diagonal on. Distances from
    the window's center are plain distances whether or not it wraps, so
    exp(-lambda_e A(r)) is the probability that no energy center of a drawn
    realization lies within r of the center."""
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise ValueError("radius must be non-negative")
    half_sides = (0.5 * window.width, 0.5 * window.height)
    corner = half_sides[0] ** 2 + half_sides[1] ** 2
    s = r * r
    area, _ = _disk_area(np.minimum(s, corner), half_sides)
    return np.where(s >= corner, window.area, area)


# Relative step in r^2 below which the window law's Newton iteration stops,
# and the most steps it takes: started below the root of a concave function,
# each step stays below it, and the slowest case, a root at the window's
# corner where the slope vanishes, halves its distance per step.
_NEWTON_TOL = 2.0 ** -52
_NEWTON_STEPS = 100


def nearest_center_distance(u, lambda_e: float, window: Window) -> np.ndarray:
    """Distance from the window's center to the nearest energy center of a
    realization drawn on the window at intensity lambda_e, by inversion of
    its exact law Pr(D > r) = exp(-lambda_e A(r)) (window_disk_area) at
    uniforms u in [0, 1): the r with A(r) = -log1p(-u) / lambda_e, and +inf,
    no center, where that reaches the window's area (_window_radius)."""
    if not 0 < lambda_e < math.inf:
        raise ValueError("lambda_e must be positive and finite")
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0) & (u < 1)):
        raise ValueError("u must lie in [0, 1)")
    return _window_radius(-np.log1p(-u) / lambda_e, window)


def _window_radius(target: np.ndarray, window: Window) -> np.ndarray:
    """The radius r of each A(r) = target (window_disk_area), +inf where the
    target reaches the window's area.

    Up to half the shorter side, r = sqrt(A / pi). Beyond it, Newton's
    method in s = r^2 from s = A / pi: A <= pi s and A is concave in s, so
    every iterate stays below the root. Each value iterates on its own until
    its step falls below _NEWTON_TOL of s, so a value's result does not
    depend on the other values of the call."""
    shape, target = target.shape, target.ravel()
    half_sides = (0.5 * window.width, 0.5 * window.height)
    corner = half_sides[0] ** 2 + half_sides[1] ** 2
    s = target / math.pi
    empty = target >= window.area
    idx = np.flatnonzero((s > min(half_sides) ** 2) & ~empty)
    goal, x = target[idx], s[idx]
    with np.errstate(divide="ignore", invalid="ignore"):   # zero slope at the corner
        for _ in range(_NEWTON_STEPS):
            if not len(idx):
                break
            area, slope = _disk_area(x, half_sides)
            step = (goal - area) / slope
            x = np.minimum(x + np.fmax(step, 0.0), corner)
            s[idx] = x
            go = (step > _NEWTON_TOL * x) & (x < corner)
            idx, goal, x = idx[go], goal[go], x[go]
    return np.where(empty, np.inf, np.sqrt(s)).reshape(shape)


def nearest_center_realizations(spec: EnergyFieldSpec, window: Window, u: np.ndarray,
                                v: np.ndarray) -> FieldRealization:
    """A block of realizations of at most k centers each, nearest first: the
    k centers nearest the window's center of a realization drawn on the
    window, placed by the uniforms u and v in [0, 1), (n, k) arrays, or (n,)
    for k = 1.

    A maps the centers' distances to a Poisson process of rate lambda_e on
    [0, area), so the j-th nearest lies at A(r_j) = (E_1 + ... + E_j) /
    lambda_e, E_i = -log1p(-u_i) (_window_radius), and none lies beyond the
    window's area. Given its distance r, a center is uniform on the arc of
    that circle inside the window, whose part in each quadrant spans the
    angles arccos(min(1, hx / r)) to arcsin(min(1, hy / r)) from the
    horizontal, hx and hy being the half sides: 4 v picks the quadrant by its
    whole part and the angle by its fraction."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim == 1:
        u, v = u[:, None], v[:, None]
    if not np.all((u >= 0) & (u < 1)):
        raise ValueError("u must lie in [0, 1)")
    r = _window_radius(np.cumsum(-np.log1p(-u), axis=1) / spec.lambda_e, window)
    full = np.isfinite(r)
    r, v = r[full], v[full]
    hx, hy = 0.5 * window.width, 0.5 * window.height
    with np.errstate(divide="ignore"):   # r = 0 spans the whole quadrant
        lo = np.arccos(np.minimum(1.0, hx / r))
        hi = np.arcsin(np.minimum(1.0, hy / r))
    quadrant, frac = np.divmod(4.0 * v, 1.0)
    angle = lo + frac * (hi - lo)
    # quadrants 0 to 3 counterclockwise: x falls left of the center in 1 and
    # 2, y below it in 2 and 3
    xy = np.empty((2, len(r)))
    xy[0] = np.where((quadrant == 1) | (quadrant == 2), hx - r * np.cos(angle),
                     hx + r * np.cos(angle))
    xy[1] = np.where(quadrant >= 2, hy - r * np.sin(angle), hy + r * np.sin(angle))
    xy.setflags(write=False)
    return FieldRealization(spec, PointSet(xy.T), window, full.sum(axis=1))


def influence_radius(x: float, spec: EnergyFieldSpec) -> float:
    """Radius within which a center must lie for the boolean field to exceed x."""
    if not 0 < x <= spec.gamma:
        raise ValueError("threshold must lie in (0, gamma]")
    if spec.kernel is Kernel.BOOLEAN_MAX_PLAW:
        return math.sqrt(spec.nu * (spec.gamma / x - 1.0))
    return math.sqrt(spec.nu * math.log(spec.gamma / x))


def cdf_boolean_exp(x, spec: EnergyFieldSpec):
    """Marginal law of the boolean exponential field: (x/gamma)^(pi psi)."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x <= spec.gamma)):
        raise ValueError("x must lie in [0, gamma]")
    return (x / spec.gamma) ** (math.pi * spec.psi)


def cdf_boolean_plaw(x, spec: EnergyFieldSpec):
    """Marginal law of the boolean power-law field: exp(-pi psi (gamma/x - 1)).

    The law has an essential zero at the origin, so x = 0 maps to 0 exactly;
    finite sampling windows can produce empty-field realizations there.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x <= spec.gamma)):
        raise ValueError("x must lie in [0, gamma]")
    with np.errstate(divide="ignore"):
        return np.where(x > 0,
                        np.exp(-math.pi * spec.psi
                               * (spec.gamma / np.where(x > 0, x, 1.0) - 1.0)),
                        0.0)


@dataclass(frozen=True)
class FieldMoments:
    mean: float
    second_moment: float
    variance: float


def boolean_exp_moments(spec: EnergyFieldSpec) -> FieldMoments:
    """Exact mean, second moment and variance of the boolean exponential field."""
    p = math.pi * spec.psi
    g = spec.gamma
    mean = p * g / (1.0 + p)
    second = p * g * g / (2.0 + p)
    return FieldMoments(mean, second, second - mean * mean)


def shot_noise_mean(spec: EnergyFieldSpec) -> float:
    """Campbell mean of the shot-noise field, pi * gamma * psi."""
    return math.pi * spec.gamma * spec.psi


def disk_overlap_area(r1: float, r2: float, d: float) -> float:
    """Exact area of the intersection of two disks with radii r1, r2 and
    center separation d."""
    if r1 < 0 or r2 < 0 or d < 0:
        raise ValueError("radii and separation must be non-negative")
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    h = math.sqrt(h2) if h2 > 0 else 0.0
    ang1 = math.acos(max(-1.0, min(1.0, a / r1)))
    ang2 = math.acos(max(-1.0, min(1.0, (d - a) / r2)))
    return r1 * r1 * ang1 + r2 * r2 * ang2 - d * h


def joint_cdf_boolean_exp(x1: float, x2: float, d: float, spec: EnergyFieldSpec) -> float:
    """Joint law Pr(g(X1) <= x1, g(X2) <= x2) for locations at distance d.

    The event is the absence of centers in the union of the two influence
    disks, so the joint CDF is the product of marginals corrected by
    exp(lambda_e * overlap) with the exact two-disk overlap area. At d = 0 and
    x1 = x2 it reduces to the marginal; beyond the sum of influence radii it
    factorizes exactly.
    """
    if spec.kernel is not Kernel.BOOLEAN_MAX_EXP:
        raise ValueError("joint law is implemented for the boolean exponential kernel")
    if d < 0:
        raise ValueError("separation must be non-negative")
    for x in (x1, x2):
        if not 0 < x <= spec.gamma:
            raise ValueError("thresholds must lie in (0, gamma]")
    r1 = influence_radius(x1, spec)
    r2 = influence_radius(x2, spec)
    marg = float(cdf_boolean_exp(x1, spec) * cdf_boolean_exp(x2, spec))
    if d >= r1 + r2:
        return marg
    return marg * math.exp(spec.lambda_e * disk_overlap_area(r1, r2, d))


def _sample_fields(spec: EnergyFieldSpec, window: Window, points, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """n independent field realizations evaluated at each of k locations, (n, k),
    drawn and evaluated m realizations at a time, m being as many as hold
    _DRAW_CENTERS expected centers (one realization at least)."""
    if n <= 0:
        raise ValueError("n must be positive")
    points = PointSet(points)
    out = np.empty((n, len(points)))
    per_draw = max(1, _DRAW_CENTERS // max(1, math.ceil(spec.lambda_e * window.area)))
    for pos in range(0, n, per_draw):
        m = min(per_draw, n - pos)
        out[pos:pos + m] = field_values(draw_field(spec, window, rng, m), points).T
    return out


def sample_intensity(spec: EnergyFieldSpec, window: Window, point, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """n independent field realizations evaluated at one location."""
    return _sample_fields(spec, window, point, n, rng)[:, 0]


def sample_intensity_pair(spec: EnergyFieldSpec, window: Window, p1, p2, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """n realizations of the boolean exponential field at two locations, (n, 2)."""
    if spec.kernel is not Kernel.BOOLEAN_MAX_EXP:
        raise ValueError("pair sampling is implemented for the boolean exponential kernel")
    return _sample_fields(spec, window, [p1, p2], n, rng)


def validation_window(spec: EnergyFieldSpec, n_samples: int) -> Window:
    """Window large enough that minimal-image truncation of the field law is
    far below the resolution of an n-sample empirical CDF.

    The mass of realizations whose nearest center is beyond half the window
    side is exp(-pi lambda_e (side/2)^2); the side is chosen to push that mass
    below a tenth of the one-percent KS critical value. The side is never
    below 10 sqrt(nu), ten kernel length scales, so at psi = 1 (where that
    floor binds) a realization holds 100 expected centers.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    eps = 0.1 * 1.63 / math.sqrt(n_samples)
    side = 2.0 * math.sqrt(math.log(1.0 / eps) / (math.pi * spec.lambda_e))
    side = max(side, 10.0 * math.sqrt(spec.nu))
    return Window(side, side, wrap=True)
