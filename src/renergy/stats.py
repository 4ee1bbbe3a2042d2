"""Small statistical helpers shared by the simulator and the run harness."""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np


# The standard normal quantile at 0.975; bit for bit scipy's norm.ppf(0.975).
_Z95 = 1.959963984540054


def wilson_ci(successes: float, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion; successes may be
    an expected count, which need not be whole."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    lo, hi = wilson_interval(successes / n, n)
    # the score interval touches the boundary exactly at the extremes
    return 0.0 if successes == 0 else lo, 1.0 if successes == n else hi


def wilson_interval(p: float, n: float, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval around a proportion p measured as precisely as n
    independent trials would measure it, at the quantile z (95% normal by
    default); n may be an effective sample size, and need not be whole."""
    if not n > 0:
        raise ValueError("n must be positive")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], read-only: its nodes are
    the eigenvalues of the Jacobi matrix of the Legendre polynomials, and
    its weights twice the squared first components of their eigenvectors
    (Golub & Welsch, 1969)."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, -1))
    weights = 2.0 * vecs[0] ** 2
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


def gauss_legendre_panels(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel
    between consecutive edges, panel after panel."""
    nodes, weights = gauss_legendre(n)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + nodes)).ravel(), (half * weights).ravel()


def t_quantile_975(dof: int) -> float:
    """Student's t quantile at 0.975 with dof degrees of freedom: exact at 1
    and 2, else the Cornish-Fisher series in 1/dof through its fourth term
    (Abramowitz & Stegun 26.7.5), below the exact quantile by at most 0.13%
    (at 3), by less than 1e-8 relative from 50 on."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if dof == 1:
        return 1.0 / math.tan(0.025 * math.pi)
    if dof == 2:
        return 0.95 / math.sqrt(2.0 * 0.975 * 0.025)
    z = _Z95
    g = ((z ** 3 + z) / 4,
         (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96,
         (3 * z ** 7 + 19 * z ** 5 + 17 * z ** 3 - 15 * z) / 384,
         (79 * z ** 9 + 776 * z ** 7 + 1482 * z ** 5 - 1920 * z ** 3 - 945 * z) / 92160)
    return z + sum(gi / dof ** (i + 1) for i, gi in enumerate(g))


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
