"""Propagation and fading: distance-based path gain, fading laws, and the
transmit power required to hit an SNR target.

Fading gains are either chi-squared-like (a Gamma(omega, 1) gain, the sum of
omega unit-mean exponential branch gains) or a truncated Rician gain built
from a unit line-of-sight phasor plus circular complex scatter, floored away
from zero so its inverse has finite moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special, stats

# Total scatter power of the Rician phasor; split evenly between the real and
# imaginary branches. Exposed so alternative readings can be tested.
RICIAN_SCATTER_VAR = 1.0


@dataclass(frozen=True)
class ChiSquaredFading:
    """Gamma(omega, 1) power gain; omega is the diversity order."""

    omega: int

    def __post_init__(self) -> None:
        if int(self.omega) != self.omega or self.omega < 1:
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
    power law with exponent alpha > 2.
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


def fading_cdf(fading: Fading, t):
    """CDF of the fading gain; closed form exists for the chi-squared family."""
    if isinstance(fading, ChiSquaredFading):
        t = np.asarray(t, dtype=float)
        return special.gammainc(fading.omega, np.maximum(t, 0.0))
    raise NotImplementedError("no closed-form CDF for truncated Rician fading")


def path_gain(d, spec: ChannelSpec, clamp_counter: list | None = None):
    """Power gain at distance d (km): 10^(-ref_loss_db/10) * (d/ref_dist)^(-alpha).

    Distances below ref_dist/100 are clamped to ref_dist/100; pass a one-item
    list as clamp_counter to count clamp events. Non-positive distances raise.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    dmin = spec.ref_dist / 100.0
    clamped = d < dmin
    if np.any(clamped):
        if clamp_counter is not None:
            clamp_counter[0] += int(np.count_nonzero(clamped))
        d = np.maximum(d, dmin)
    g = 10.0 ** (-spec.ref_loss_db / 10.0) * (d / spec.ref_dist) ** (-spec.alpha)
    return float(g) if g.ndim == 0 else g


def required_power(theta: float, d, h, spec: ChannelSpec,
                   clamp_counter: list | None = None):
    """Transmit power that makes the received SNR exactly theta."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise ValueError("fading gain must be positive")
    q = theta * spec.noise_w / (h * path_gain(d, spec, clamp_counter))
    return float(q) if q.ndim == 0 else q


@functools.lru_cache(maxsize=None)
def _rician_mean_inverse(floor: float, scatter_var: float) -> float:
    # With s2 the per-branch scatter variance, the unfloored gain is
    # s2 * ncx2(df=2, nc=1/s2), so E[1/max(H, f)] = F(f)/f + int_f^inf p(h)/h dh.
    s2 = scatter_var / 2.0
    law = stats.ncx2(df=2, nc=1.0 / s2, scale=s2)
    tail, _ = integrate.quad(lambda h: law.pdf(h) / h, floor, np.inf)
    return float(law.cdf(floor)) / floor + tail


def mean_inverse_fading(fading: Fading) -> float:
    """E[1/H]. Closed form 1/(omega - 1) for chi-squared fading with
    omega >= 2; cached quadrature over the noncentral chi-squared law for
    truncated Rician.

    Raises for omega = 1, where the moment is infinite.
    """
    if isinstance(fading, ChiSquaredFading):
        if fading.omega < 2:
            raise ValueError(
                "mean inverse fading is infinite for omega = 1; use omega >= 2")
        return 1.0 / (fading.omega - 1.0)
    return _rician_mean_inverse(fading.floor, RICIAN_SCATTER_VAR)
