"""Small statistical helpers shared by the simulator and the run harness."""

from __future__ import annotations

import functools
import math
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np


@functools.lru_cache(maxsize=None)
def _two_sided_z(level: float) -> float:
    """The standard normal quantile at (1 + level)/2.

    NormalDist's quantile can sit an ulp or two off; one Newton step on the
    upper tail erfc(t) = 2 (1 - p), with t = z/sqrt(2), brings it within a few
    ulp of scipy's norm.ppf, and level 0.95 gives the same bits.
    """
    p = 0.5 * (1.0 + level)
    t = NormalDist().inv_cdf(p) / math.sqrt(2.0)
    t += (math.erfc(t) - 2.0 * (1.0 - p)) / (2.0 / math.sqrt(math.pi) * math.exp(-t * t))
    return t * math.sqrt(2.0)


def wilson_ci(successes: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    z = _two_sided_z(level)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    # the score interval touches the boundary exactly at the extremes
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def _kolmogorov_sf(x: float) -> tuple[float, float]:
    """Survival function Pr(K > x) of the Kolmogorov law and its density."""
    if x < 1.0:
        # theta form, fast below 1: Pr(K <= x) = sqrt(2 pi)/x sum_k e^(-a_k),
        # a_k = (2k - 1)^2 pi^2 / (8 x^2)
        cdf = dens = 0.0
        for k in range(1, 6):
            a = ((2 * k - 1) * math.pi / x) ** 2 / 8.0
            e = math.exp(-a)
            cdf += e
            dens += e * (2.0 * a - 1.0)
        r = math.sqrt(2.0 * math.pi) / x
        return 1.0 - r * cdf, r / x * dens
    # Pr(K > x) = 2 sum_k (-1)^(k-1) e^(-2 k^2 x^2)
    sf = dens = 0.0
    for k in range(1, 6):
        e = (-1) ** (k - 1) * math.exp(-2.0 * (k * x) ** 2)
        sf += 2.0 * e
        dens += 8.0 * x * k * k * e
    return sf, dens


@functools.lru_cache(maxsize=None)
def _kolmogorov_isf(level: float) -> float:
    """x with Pr(K > x) = level, by Newton steps on log Pr(K > x) from the
    one-term tail 2 e^(-2 x^2) = level."""
    x = math.sqrt(-0.5 * math.log(0.5 * level))
    for _ in range(50):
        sf, dens = _kolmogorov_sf(x)
        step = math.log(sf / level) * sf / dens
        x += step
        if abs(step) <= 1e-15 * x:
            break
    return x


class KSResult(NamedTuple):
    statistic: float
    critical: float
    n: int
    passed: bool


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray],
                 level: float = 0.01) -> KSResult:
    """One-sample Kolmogorov-Smirnov test against an exact CDF.

    Uses the asymptotic critical value of the Kolmogorov distribution, which
    is why at least 100 samples are required.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 100:
        raise ValueError("need at least 100 samples for the asymptotic KS test")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    f = np.asarray(cdf(x), dtype=float)
    if np.any(f < -1e-12) or np.any(f > 1 + 1e-12):
        raise ValueError("cdf values must lie in [0, 1]")
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))
    critical = _kolmogorov_isf(level) / math.sqrt(n)
    return KSResult(d, critical, n, d <= critical)
