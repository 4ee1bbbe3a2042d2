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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, Window, separation, uniform_points


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
        centers = PointSet(self.centers.points[first:last], self.centers.intensity)
        return FieldRealization(self.spec, centers, self.window, self.counts[lo:hi])


def draw_field(spec: EnergyFieldSpec, window: Window, rng: np.random.Generator,
               n: int = 1) -> FieldRealization:
    """A block of n realizations of the center process: all n center counts
    first, then every x, then every y."""
    counts = rng.poisson(spec.lambda_e * window.area, n)
    centers = PointSet(uniform_points(window, int(counts.sum()), rng), spec.lambda_e)
    return FieldRealization(spec, centers, window, counts)


def decay_exp(d, nu: float):
    """Squared-exponential kernel exp(-d^2 / nu)."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be non-negative")
    return np.exp(-(d * d) / nu)


def decay_power_law(d, nu: float):
    """Power-law kernel (1 + d^2 / nu)^(-1)."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be non-negative")
    return 1.0 / (1.0 + (d * d) / nu)


def _boolean_kernel(spec: EnergyFieldSpec, d: np.ndarray) -> np.ndarray:
    """Boolean field value at nearest-center distance d; d = +inf (no center)
    gives exactly 0 for both kernels."""
    decay = decay_exp if spec.kernel is Kernel.BOOLEAN_MAX_EXP else decay_power_law
    return spec.gamma * decay(d, spec.nu)


_SHOT_OFFSETS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def _image_sums(dx: np.ndarray, dy: np.ndarray, window: Window, nu: float) -> np.ndarray:
    """Exponential kernel summed over a center and, when wrapping, its eight
    window images, for per-axis point-minus-center differences dx, dy."""
    acc = np.zeros(np.broadcast(dx, dy).shape)
    for ox, oy in (_SHOT_OFFSETS if window.wrap else [(0, 0)]):
        ex = dx + ox * window.width
        ey = dy + oy * window.height
        acc += np.exp(-(ex * ex + ey * ey) / nu)
    return acc


# Largest (points x centers) array the field kernel builds at once; a block
# of trials over a few hundred harvesters is evaluated in tiles of points.
_TILE_ELEMENTS = 1 << 15


def field_values(real: FieldRealization, points) -> np.ndarray:
    """Field values at k locations inside the window for each of a block's n
    realizations, shape (k, n)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    spec = real.spec
    counts = real.counts
    xs, ys = real.centers.points[:, 0], real.centers.points[:, 1]
    out = np.empty((len(pts), len(counts)))
    tile = max(1, _TILE_ELEMENTS // max(1, len(xs)))
    for lo in range(0, len(pts), tile):
        px, py = pts[lo:lo + tile, 0, None], pts[lo:lo + tile, 1, None]
        if spec.kernel is Kernel.SHOT_NOISE_EXP:
            sums = _image_sums(px - xs, py - ys, real.window, spec.nu)
            out[lo:lo + tile] = spec.gamma * _grouped(np.add, sums, counts, 0.0)
        else:
            d = separation(px - xs, py - ys, real.window)
            out[lo:lo + tile] = _boolean_kernel(spec, _grouped(np.minimum, d, counts, np.inf))
    return out


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
                   rng: np.random.Generator, chunk: int) -> np.ndarray:
    """n independent field realizations evaluated at each of k locations, (n, k),
    drawn and evaluated in blocks of `chunk` realizations."""
    if n <= 0:
        raise ValueError("n must be positive")
    out = np.empty((n, len(np.atleast_2d(points))))
    for pos in range(0, n, chunk):
        m = min(chunk, n - pos)
        out[pos:pos + m] = field_values(draw_field(spec, window, rng, m), points).T
    return out


def sample_intensity(spec: EnergyFieldSpec, window: Window, point, n: int,
                     rng: np.random.Generator, chunk: int = 200_000) -> np.ndarray:
    """n independent field realizations evaluated at one location."""
    return _sample_fields(spec, window, point, n, rng, chunk)[:, 0]


def sample_intensity_pair(spec: EnergyFieldSpec, window: Window, p1, p2, n: int,
                          rng: np.random.Generator, chunk: int = 200_000) -> np.ndarray:
    """n realizations of the boolean exponential field at two locations, (n, 2)."""
    if spec.kernel is not Kernel.BOOLEAN_MAX_EXP:
        raise ValueError("pair sampling is implemented for the boolean exponential kernel")
    return _sample_fields(spec, window, [p1, p2], n, rng, chunk)


def validation_window(spec: EnergyFieldSpec, n_samples: int) -> Window:
    """Window large enough that minimal-image truncation of the field law is
    far below the resolution of an n-sample empirical CDF.

    The mass of realizations whose nearest center is beyond half the window
    side is exp(-pi lambda_e (side/2)^2); the side is chosen to push that mass
    below a tenth of the one-percent KS critical value.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    eps = 0.1 * 1.63 / math.sqrt(n_samples)
    side = 2.0 * math.sqrt(math.log(1.0 / eps) / (math.pi * spec.lambda_e))
    side = max(side, 10.0 * math.sqrt(spec.nu))
    return Window(side, side, wrap=True)
