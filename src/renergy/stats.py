"""Small statistical helpers shared by the simulator and the run harness."""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np


# The standard normal quantile at 0.975; bit for bit scipy's norm.ppf(0.975).
_Z95 = 1.959963984540054


def wilson_ci(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    z = _Z95
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    # the score interval touches the boundary exactly at the extremes
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


@functools.lru_cache(maxsize=None)
def _kolmogorov_isf(level: float) -> float:
    """x with Pr(K > x) = level, by bisection on [0.2, 10] of the decreasing
    Pr(K > x) = 2 sum_{k>=1} (-1)^(k-1) e^(-2 k^2 x^2), cut at 40 terms."""
    lo, hi = 0.2, 10.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        sf = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * (k * mid) ** 2) for k in range(1, 41))
        if sf > level:
            lo = mid
        else:
            hi = mid
    return mid


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
