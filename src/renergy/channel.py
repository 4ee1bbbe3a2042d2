"""Propagation and fading: distance-based path gain, fading laws, and the
transmit power required to hit an SNR target.

Fading gains are either chi-squared-like (a Gamma(omega, 1) gain, the sum of
omega unit-mean exponential branch gains) or a truncated Rician gain built
from a unit line-of-sight phasor plus circular complex scatter, floored away
from zero so its inverse has finite moments.

The bounds need one scalar of the fading law, E[1/H]. For the Rician gain,
with c = 1/RICIAN_SCATTER_VAR, the unfloored gain has density
p(h) = c e^(-c(h+1)) I0(2c sqrt(h)), and

    E[1/max(H, floor)] = F(floor)/floor + int_floor^inf p(h)/h dh,

which is computed from that definition: both integrals by Gauss-Legendre
quadrature over fixed panels, with numpy's I0, the tail in s = ln h.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Total scatter power of the Rician phasor; split evenly between the real and
# imaginary branches. Exposed so alternative readings can be tested.
RICIAN_SCATTER_VAR = 1.0


@dataclass(frozen=True)
class ChiSquaredFading:
    """Gamma(omega, 1) power gain; omega is the diversity order."""

    omega: int

    def __post_init__(self) -> None:
        # True would pass as order 1, whose E[1/H] is infinite
        if isinstance(self.omega, (bool, np.bool_)):
            raise ValueError(f"omega must be an integer >= 1, not {self.omega!r}")
        if not (1 <= self.omega < math.inf and int(self.omega) == self.omega):
            raise ValueError("omega must be an integer >= 1")
        object.__setattr__(self, "omega", int(self.omega))


@dataclass(frozen=True)
class TruncatedRicianFading:
    """|1 + scatter|^2 power gain, floored at `floor` > 0."""

    floor: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.floor < 1:
            raise ValueError("floor must lie in (0, 1)")


Fading = ChiSquaredFading | TruncatedRicianFading


@dataclass(frozen=True)
class ChannelSpec:
    """Link-budget parameters. Distances are in km.

    ref_loss_db is the path loss at ref_dist; beyond that the loss follows the
    power law with exponent alpha > 2. Distances below min_dist are clamped to
    it.
    """

    alpha: float = 4.0
    ref_loss_db: float = 70.0
    ref_dist: float = 0.1
    noise_dbm: float = -90.0
    fading: Fading = TruncatedRicianFading(0.1)

    def __post_init__(self) -> None:
        if not 2 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and exceed 2")
        if not 0 < self.ref_dist < math.inf:
            raise ValueError("ref_dist must be positive and finite")
        for name in ("ref_loss_db", "noise_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not isinstance(self.fading, Fading):
            raise ValueError(f"unknown fading {self.fading!r}")

    @property
    def min_dist(self) -> float:
        """The path-gain clamp radius."""
        return self.ref_dist / 100.0

    @property
    def noise_w(self) -> float:
        return 10.0 ** ((self.noise_dbm - 30.0) / 10.0)

    @classmethod
    def normalized(cls, alpha: float = 4.0, fading: Fading | None = None) -> "ChannelSpec":
        """Unit-noise, unit-reference profile: gain(d) = d^(-alpha), noise 1 W.

        Convenient for comparing simulations against the closed forms, which
        are stated in these normalized units.
        """
        return cls(alpha=alpha, ref_loss_db=0.0, ref_dist=1.0, noise_dbm=30.0,
                   fading=fading if fading is not None else ChiSquaredFading(2))


def sample_fading(spec: ChannelSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` fading power gains according to the spec's fading law."""
    fad = spec.fading
    if isinstance(fad, ChiSquaredFading):
        return rng.gamma(fad.omega, 1.0, size)
    s = math.sqrt(RICIAN_SCATTER_VAR / 2.0)
    re = 1.0 + s * rng.standard_normal(size)
    im = s * rng.standard_normal(size)
    return np.maximum(re * re + im * im, fad.floor)


def _path_loss(d, spec: ChannelSpec, scale: float = 1.0):
    """scale * 10^(ref_loss_db/10) * (max(d, min_dist) / ref_dist)^alpha for
    distances d (km), as a new array or a scalar. Non-positive distances
    raise."""
    if not np.all(d > 0):
        raise ValueError("distance d must be positive")
    # ((d / ref_dist)^2)^(alpha / 2) in place: numpy squares in place where
    # alpha / 2 is 2, the default alpha, instead of calling pow
    loss = np.maximum(d, spec.min_dist)
    loss /= spec.ref_dist
    loss *= loss
    loss **= 0.5 * spec.alpha
    loss *= scale * 10.0 ** (spec.ref_loss_db / 10.0)
    return loss


def path_gain(d, spec: ChannelSpec):
    """Power gain at distance d (km): 10^(-ref_loss_db/10) * (d/ref_dist)^(-alpha),
    with d clamped up to spec.min_dist, the reciprocal of the loss
    required_power reads. Non-positive distances raise."""
    g = 1.0 / _path_loss(np.asarray(d, dtype=float), spec)
    return float(g) if np.ndim(g) == 0 else g


def required_power(theta: float, d, h, spec: ChannelSpec):
    """Transmit power that makes the received SNR exactly theta at distance d
    (km) and fading gain h: theta * noise_w / (h * path_gain(d))."""
    if not 0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    d, h = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(h, dtype=float))
    if not np.all(h > 0):
        raise ValueError("fading gain h must be positive")
    q = _path_loss(d, spec, theta * spec.noise_w)
    q /= h
    return float(q) if np.ndim(q) == 0 else q


# Gauss-Legendre panels of the moment's quadrature, and the tail cut-off: the
# density falls as e^(-c (sqrt(h) - 1)^2), so past c (sqrt(h) - 1)^2 = 45 the
# neglected mass is below e^(-45).
_PANELS, _NODES, _TAIL_EXPONENT = 8, 47, 45.0


@functools.lru_cache(maxsize=None)
def _rician_mean_inverse(floor: float, scatter_var: float) -> float:
    # Gauss-Legendre nodes are the eigenvalues of the Jacobi matrix, and the
    # weights twice the squared first components of its eigenvectors
    k = np.arange(1.0, _NODES)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, -1))
    weights = 2.0 * vecs[0] ** 2

    def integral(f, a: float, b: float) -> float:
        edges = np.linspace(a, b, _PANELS + 1)
        half = 0.5 * np.diff(edges)[:, None]
        return float(np.sum(half * weights * f(edges[:-1, None] + half * (1.0 + nodes))))

    c = 1.0 / scatter_var

    def density(h):
        return c * np.exp(-c * (h + 1.0)) * np.i0(2.0 * c * np.sqrt(h))

    h_max = (1.0 + math.sqrt(_TAIL_EXPONENT / c)) ** 2
    cdf = integral(density, 0.0, floor)
    # the tail in s = ln h, where p(h)/h dh = p(e^s) ds
    tail = integral(lambda s: density(np.exp(s)), math.log(floor), math.log(h_max))
    return cdf / floor + tail


def mean_inverse_fading(fading: Fading) -> float:
    """E[1/H]. Closed form 1/(omega - 1) for chi-squared fading with
    omega >= 2; for truncated Rician, the quadrature of the module
    docstring, cached per floor and scatter variance.

    Raises for omega = 1, where the moment is infinite.
    """
    if isinstance(fading, ChiSquaredFading):
        if fading.omega < 2:
            raise ValueError(
                "mean inverse fading is infinite for omega = 1; use omega >= 2")
        return 1.0 / (fading.omega - 1.0)
    return _rician_mean_inverse(fading.floor, RICIAN_SCATTER_VAR)
