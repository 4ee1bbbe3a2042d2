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
pass. The samplers, the trial engine and the aggregated supply all draw and
evaluate fields this way.

field_values evaluates all three kernels with one loop that factors the
evaluation points by axis (PointSet.axes, computed once per point set): a
per-axis step runs once per distinct coordinate and center, its rows are
gathered and combined per tile, and each realization reduces its pairs. The
boolean kernels combine folded squared differences by adding them, take each
realization's minimum squared distance and only then the sqrt, so the result
equals the minimum over per-pair distances bit for bit. The shot-noise
kernel's image sum factors exactly by axis, so it multiplies the per-axis
sums of exp(-d^2/nu) over a center's images and adds over the centers.

A tile of whole realizations reduces by segments (one reduceat segment per
point and realization) or, for the boolean minimum at _SLOT_POINTS points or
more, by slots: slot s holds the s-th center of every realization that has
more than s, and one elementwise minimum folds it into a (points x
realizations) accumulator. Segments cost per point and realization, slots
per slot, so a tile goes slot-wise when its realizations are short and its
points x realizations are many per slot; the rule, its constants and their
measurements are beside _TILE_ELEMENTS. A minimum is exact in any order, so
both give the same bits; a sum is not, so shot noise keeps the segments.
Tiles bound the pairs and the accumulator, so memory does not grow with the
block.

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
    """Boolean field value at nearest-center distance d; d = +inf (no center)
    gives exactly 0 for both kernels."""
    decay = decay_exp if spec.kernel is Kernel.BOOLEAN_MAX_EXP else decay_power_law
    return spec.gamma * decay(d, spec.nu)


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


# Largest (points x centers) array the segment reduction builds at once. Each
# per-axis array (distinct coordinates x centers) of either reduction also
# stays within it, and a segment tile takes at most _TILE_POINTS points; only
# a single realization with more centers than that is evaluated whole.
_TILE_ELEMENTS = 1 << 16
_TILE_POINTS = 1024

# The boolean kernels' minimum reduces a tile of whole realizations in one of
# two exact ways: one reduceat segment per (point, realization), or slot by
# slot (_slot_reduce), one elementwise minimum per slot into a (points x
# realizations) accumulator. Segments cost an inner-loop call per point and
# realization; slots cost a few calls per slot (the tile's largest count)
# and one more pass over each pair. So from _SLOT_POINTS points the
# realizations go in tiles of at most _SLOT_PAIRS // points, and a tile goes
# slot-wise when its realizations average at most _SLOT_MEAN_CENTERS centers
# and its points x realizations reach _SLOT_PAIRS_PER_SLOT times its slots.
# Measured on the d^2 step of a 256-realization block (2 cores, numpy 2.4),
# slots over segments: the fig5 harvesters at clusters 320-40 (307-43
# points, 7-12 centers a realization) 1.3-1.4x; 307 points at 6 centers
# 1.5x, at 25-99 centers 0.96-0.99x; 43 points at 14 centers 1.17x, at 29
# 0.88x; 19 points 0.96x; one point 0.16-0.30x; acceptance 7's lattice (768
# and 1024 points, 38-51 centers) 0.94-0.97x. Sums keep the segments: a
# slot-wise sum adds in another order and moves shot-noise values in the
# last bits.
_SLOT_POINTS = 32
_SLOT_PAIRS = 1 << 17
_SLOT_MEAN_CENTERS = 16
_SLOT_PAIRS_PER_SLOT = 256

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
        image_decay = partial(_image_decay, nu=spec.nu)
        return spec.gamma * _pair_reduce(real, pts, image_decay, np.multiply,
                                         np.add, 0.0)
    d2 = _pair_reduce(real, pts, folded_square, np.add, np.minimum, np.inf)
    return _boolean_kernel(spec, np.sqrt(d2))


def _pair_reduce(real: FieldRealization, pts: PointSet, axis_step, combine: np.ufunc,
                 reduce: np.ufunc, empty: float) -> np.ndarray:
    """Per-pair values reduced over each realization's centers, (k, n): a pair
    of point and center takes combine(axis_step(dx), axis_step(dy)), and each
    realization reduces its pairs with `reduce`; an empty one gives `empty`.

    axis_step(d, side, wrap) maps per-axis coordinate differences to a new
    array. The points are factored by axis: it runs once per distinct
    coordinate and center, and pair values are gathered from its rows and
    combined. For the boolean kernels (folded_square, add, minimum) each
    pair's d^2 is the arithmetic of geometry.separation before its sqrt, and
    sqrt is monotone and correctly rounded, so the caller's sqrt of the
    minimum equals the minimum of the distances bit for bit. Tiles hold whole
    realizations, so a block of any size is evaluated in bounded memory.

    A minimum is exact in any order, so with many points it reduces each
    tile slot by slot (_slot_reduce) where the tile's realizations are short;
    every other tile, and every sum, reduces by segments (_segment_reduce).
    """
    counts = real.counts
    out = np.empty((len(pts), len(counts)))
    if reduce is not np.minimum or len(pts) < _SLOT_POINTS:
        _segment_reduce(real, pts, axis_step, combine, reduce, empty, 0, len(counts), out)
        return out
    span = max(1, _SLOT_PAIRS // len(pts))
    for lo in range(0, len(counts), span):
        hi = min(lo + span, len(counts))
        tile = counts[lo:hi]
        short = (tile.sum() <= _SLOT_MEAN_CENTERS * len(tile)
                 and len(pts) * len(tile) >= _SLOT_PAIRS_PER_SLOT * tile.max())
        tile_reduce = _slot_reduce if short else _segment_reduce
        tile_reduce(real, pts, axis_step, combine, reduce, empty, lo, hi, out)
    return out


def _segment_reduce(real: FieldRealization, pts: PointSet, axis_step,
                    combine: np.ufunc, reduce: np.ufunc, empty: float, lo: int,
                    hi: int, out: np.ndarray) -> None:
    """_pair_reduce of realizations lo..hi-1 into out[:, lo:hi], in tiles of
    at most _TILE_POINTS points and about _TILE_ELEMENTS pairs, each
    realization's pairs reduced by one reduceat segment per point."""
    ux, ix, uy, iy = pts.axes
    window, counts = real.window, real.counts
    xs, ys = real.centers.points[:, 0], real.centers.points[:, 1]
    step = max(1, min(len(ix), _TILE_POINTS))
    span = max(1, _TILE_ELEMENTS // max(step, len(ux), len(uy)))
    ends = np.cumsum(counts)
    while lo < hi:
        first = int(ends[lo] - counts[lo])
        top = min(hi, max(lo + 1, int(np.searchsorted(ends, first + span, side="right"))))
        last = int(ends[top - 1])
        ax = axis_step(ux[:, None] - xs[first:last], window.width, window.wrap)
        ay = axis_step(uy[:, None] - ys[first:last], window.height, window.wrap)
        for p in range(0, len(ix), step):
            pair = ax[ix[p:p + step]]
            combine(pair, ay[iy[p:p + step]], out=pair)
            out[p:p + step, lo:top] = _grouped(reduce, pair, counts[lo:top], empty)
        lo = top


def _slot_reduce(real: FieldRealization, pts: PointSet, axis_step, combine: np.ufunc,
                 reduce: np.ufunc, empty: float, lo: int, hi: int,
                 out: np.ndarray) -> None:
    """_pair_reduce of realizations lo..hi-1 into out[:, lo:hi], slot by slot.

    Slot s holds the s-th center of every realization with more than s. With
    the realizations ordered by count, largest first, slot s covers the first
    n_s of them, so it folds into the first n_s columns of one (points x
    realizations) accumulator with one elementwise reduce. The per-axis step
    runs once per run of consecutive slots whose arrays fit _TILE_ELEMENTS.
    """
    ux, ix, uy, iy = pts.axes
    window = real.window
    tile = real.counts[lo:hi]
    order = np.argsort(-tile, kind="stable")
    ranked = tile[order]
    starts = (np.cumsum(real.counts)[lo:hi] - tile)[order]
    n = len(tile) - np.cumsum(np.bincount(ranked))[:-1]   # realizations per slot
    ends = np.cumsum(n)
    first = ends - n                                       # slot s's first column
    slot = np.repeat(np.arange(len(n)), n)
    centers = starts[np.arange(len(slot)) - first[slot]] + slot
    xs = real.centers.points[centers, 0]
    ys = real.centers.points[centers, 1]
    acc = np.full((len(ix), len(tile)), empty)
    cols = max(1, _TILE_ELEMENTS // max(len(ux), len(uy)))
    s = 0
    while s < len(n):
        top = max(s + 1, int(np.searchsorted(ends, first[s] + cols, side="right")))
        a, b = int(first[s]), int(ends[top - 1])
        ax = axis_step(ux[:, None] - xs[a:b], window.width, window.wrap)
        ay = axis_step(uy[:, None] - ys[a:b], window.height, window.wrap)
        for e, m in zip((first[s:top] - a).tolist(), n[s:top].tolist()):
            pair = ax[:, e:e + m][ix]
            combine(pair, ay[:, e:e + m][iy], out=pair)
            head = acc[:, :m]
            reduce(head, pair, out=head)
        s = top
    out[:, lo + order] = acc


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
    if np.any(x < 0) or np.any(x > spec.gamma):
        raise ValueError("x must lie in [0, gamma]")
    return (x / spec.gamma) ** (math.pi * spec.psi)


def cdf_boolean_plaw(x, spec: EnergyFieldSpec):
    """Marginal law of the boolean power-law field: exp(-pi psi (gamma/x - 1)).

    The law has an essential zero at the origin, so x = 0 maps to 0 exactly;
    finite sampling windows can produce empty-field realizations there.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > spec.gamma):
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


def _grouped(ufunc: np.ufunc, values: np.ndarray, counts: np.ndarray,
             empty: float) -> np.ndarray:
    """Per-row reduction of consecutive runs of counts[i] columns of a 2-D
    array, (rows, len(counts)); empty runs give `empty`."""
    out = np.full((len(values), len(counts)), empty)
    nonempty = counts > 0
    if nonempty.any():
        starts = np.cumsum(counts) - counts
        out[:, nonempty] = ufunc.reduceat(values, starts[nonempty], axis=1)
    return out


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
