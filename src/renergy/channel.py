"""Propagation and fading: distance-based path gain, fading laws, and the
transmit power required to hit an SNR target.

Fading gains are either chi-squared-like (a Gamma(omega, 1) gain, the sum of
omega unit-mean exponential branch gains) or a truncated Rician gain built
from a unit line-of-sight phasor plus circular complex scatter, floored away
from zero so its inverse has finite moments.

The bounds need one scalar of the fading law, E[1/H]. For the Rician gain it
is an exact series in the scatter's inverse power c = 1/RICIAN_SCATTER_VAR:
the unfloored gain has density c e^(-c(h+1)) I0(2c sqrt(h)), and expanding
I0 term by term gives, with x = c * floor,

    E[1/max(H, floor)] = F(floor)/floor + c e^(-c) [E1(x) + sum_{k>=1} c^k Gamma(k, x)/(k!)^2]
    F(floor) = e^(-c) sum_{k>=0} c^k/k! P(k+1, x)

where Gamma(k, x) is the upper incomplete gamma function and P the
regularized lower one. Every term is positive, so the sums are accurate to
round-off.
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


def path_gain(d, spec: ChannelSpec):
    """Power gain at distance d (km): 10^(-ref_loss_db/10) * (d/ref_dist)^(-alpha),
    with d clamped up to spec.min_dist. Non-positive distances raise."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    d = np.maximum(d, spec.min_dist)
    g = 10.0 ** (-spec.ref_loss_db / 10.0) * (d / spec.ref_dist) ** (-spec.alpha)
    return float(g) if g.ndim == 0 else g


def required_power(theta: float, d, h, spec: ChannelSpec):
    """Transmit power that makes the received SNR exactly theta."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise ValueError("fading gain must be positive")
    q = theta * spec.noise_w / (h * path_gain(d, spec))
    return float(q) if q.ndim == 0 else q


_EULER_GAMMA = 0.5772156649015329


def _exp1(x: float) -> float:
    """Exponential integral E1(x) = Gamma(0, x) for x > 0."""
    if x <= 1.0:
        # E1(x) = -euler_gamma - ln(x) - sum_{n>=1} (-x)^n / (n n!)
        s, term, n = 0.0, 1.0, 0
        while abs(term) > 1e-17 * abs(s):
            n += 1
            term *= -x / n
            s += term / n
        return -_EULER_GAMMA - math.log(x) - s
    # continued fraction e^(-x) / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))),
    # evaluated by the modified Lentz method
    b = x + 1.0
    c, d = 1e300, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        b += 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            return h * math.exp(-x)


@functools.lru_cache(maxsize=None)
def _rician_mean_inverse(floor: float, scatter_var: float) -> float:
    # the series in the module docstring; w is c^k/k! throughout
    c = 1.0 / scatter_var
    x = c * floor
    ex = math.exp(-x)
    # tail: c^k Gamma(k, x)/(k!)^2 = c^k/(k k!) Q(k, x), with the regularized
    # upper gamma Q(k, x) = e^(-x) sum_{j<k} x^j/j! built up along k
    tail, w, q_sum, xj, k = _exp1(x), 1.0, 0.0, 1.0, 0
    while True:
        k += 1
        w *= c / k
        q_sum += xj
        xj *= x / k
        term = w / k * ex * q_sum
        tail += term
        if term < 1e-17 * tail:
            break
    # CDF: P(k+1, x) = e^(-x) x^(k+1)/(k+1)! (1 + x/(k+2) + x^2/((k+2)(k+3)) + ...)
    cdf, w, lead, k = 0.0, 1.0, x * ex, 0
    while True:
        upper, t, j = 1.0, 1.0, k + 1
        while t > 1e-17 * upper:
            j += 1
            t *= x / j
            upper += t
        term = w * lead * upper
        cdf += term
        if term < 1e-17 * cdf:
            break
        k += 1
        w *= c / k
        lead *= x / (k + 1)
    return math.exp(-c) * (cdf / floor + c * tail)


def mean_inverse_fading(fading: Fading) -> float:
    """E[1/H]. Closed form 1/(omega - 1) for chi-squared fading with
    omega >= 2; for truncated Rician, the exact series of the module
    docstring, cached per floor and scatter variance.

    Raises for omega = 1, where the moment is infinite.
    """
    if isinstance(fading, ChiSquaredFading):
        if fading.omega < 2:
            raise ValueError(
                "mean inverse fading is infinite for omega = 1; use omega >= 2")
        return 1.0 / (fading.omega - 1.0)
    return _rician_mean_inverse(fading.floor, RICIAN_SCATTER_VAR)
