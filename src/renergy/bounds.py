"""Closed-form outage bounds and supporting constants.

Every function here is a pure function of a BoundInputs record. The bounds
upper-bound the downlink outage probability of a base station powered by the
energy field; they split the outage event into an energy-shortfall part
(the field is low at the station) and a max-power part (outage would persist
even at the peak field value), bound each, and sum.

Values above 1 are returned raw; callers flag rather than clamp them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def cell_radius_pow(alpha: float) -> float:
    """(2 / (3 sqrt 3))^(alpha/2): the alpha-th power of the radius of the
    disk with the same area bound as a unit-density hexagonal cell."""
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    return (2.0 / (3.0 * math.sqrt(3.0))) ** (alpha / 2.0)


def cell_distance_moment(alpha: float) -> float:
    """alpha-th moment of the distance from the center to a uniform point of
    that covering disk; dominates the same moment of the hexagonal cell."""
    return 2.0 / (2.0 + alpha) * cell_radius_pow(alpha)


@dataclass(frozen=True)
class BoundInputs:
    """Parameters entering the closed-form bounds.

    gamma_eta is the product of the peak field value and the harvester
    aperture: the peak harvested power. e_h_inv is E[1/H] for the fading law;
    omega the fading diversity order (needed by the tail bounds only); the
    tau/lambda_h/lambda_e/nu group is needed by the aggregated bound only.
    """

    psi: float
    gamma_eta: float
    theta: float
    alpha: float
    lambda_b: float
    lambda_u: float
    e_h_inv: float | None = None
    omega: int | None = None
    tau: float = 1.0
    lambda_h: float | None = None
    lambda_e: float | None = None
    nu: float | None = None

    def __post_init__(self) -> None:
        for name in ("psi", "gamma_eta", "theta", "lambda_b", "lambda_u"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 2 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and exceed 2")
        if not 0 < self.tau <= 1:
            raise ValueError("tau must lie in (0, 1]")
        for name in ("e_h_inv", "lambda_h", "lambda_e", "nu"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite")


def _require(b: BoundInputs, *names: str) -> None:
    for name in names:
        if getattr(b, name) is None:
            raise ValueError(f"bound requires {name}")


def _shortfall_term(b: BoundInputs, fading_moment: float) -> float:
    """2 / (2 + alpha pi psi) * inner^min(pi psi, 1), where inner is the
    per-cell load at the covering-disk radius, weighted by a fading moment."""
    pp = math.pi * b.psi
    inner = (cell_radius_pow(b.alpha) * b.theta * fading_moment * b.lambda_u
             / (b.gamma_eta * b.lambda_b ** (1.0 + b.alpha / 2.0)))
    return 2.0 / (2.0 + b.alpha * pp) * inner ** min(pp, 1.0)


def energy_shortfall_bound(b: BoundInputs) -> float:
    """Bound on the outage component caused by field randomness alone.

    Follows from the field law raised to min(pi psi, 1) via the concave-moment
    inequality on the per-cell load.
    """
    _require(b, "e_h_inv")
    return _shortfall_term(b, b.e_h_inv)


def max_power_markov_bound(b: BoundInputs) -> float:
    """Markov bound on the outage component that persists at peak power."""
    _require(b, "e_h_inv")
    return (cell_distance_moment(b.alpha) * b.theta * b.lambda_u * b.e_h_inv
            / (b.gamma_eta * b.lambda_b ** (1.0 + b.alpha / 2.0)))


def total_outage_bound(b: BoundInputs) -> float:
    """Sum of the two components; valid for both power-allocation schemes
    (the inversion scheme is dominated by the same expression)."""
    return energy_shortfall_bound(b) + max_power_markov_bound(b)


def poisson_raw_moment(mu: float, order: int) -> float:
    """order-th raw moment of a Poisson(mu) variable (Stirling expansion)."""
    if not 0 <= mu < math.inf:
        raise ValueError("mu must be non-negative and finite")
    if int(order) != order or order < 0:
        raise ValueError("order must be a non-negative integer")
    order = int(order)
    if order == 0:
        return 1.0
    total = 0.0
    for m in range(1, order + 1):
        inner = 0
        for k in range(m + 1):
            inner += (-1) ** (m - k) * math.comb(m, k) * k ** order
        total += mu ** m * inner / math.factorial(m)
    return total


def _tail_first_term(b: BoundInputs) -> float:
    _require(b, "omega")
    if b.omega < 2:
        raise ValueError("tail bounds need omega >= 2")
    return _shortfall_term(b, math.gamma(b.omega - 1))


def _tail_base(b: BoundInputs) -> float:
    return (2.0 * b.lambda_b / (3.0 * math.sqrt(3.0))) ** (b.alpha / 2.0) * b.theta / b.gamma_eta


def fading_tail_terms_equal_split(b: BoundInputs) -> tuple[float, float]:
    """Deep-tail two-term bound for the equal-split scheme, valid as the peak
    harvested power grows: (field-randomness term, fading-tail term).

    The fading-tail term uses the order-omega moment of the Poisson cell load.
    """
    t1 = _tail_first_term(b)
    mom = poisson_raw_moment(b.lambda_u / b.lambda_b, b.omega)
    t2 = mom / math.gamma(b.omega + 1) * _tail_base(b) ** b.omega
    return t1, t2


def fading_tail_terms_inversion(b: BoundInputs) -> tuple[float, float]:
    """Deep-tail two-term bound for the inversion scheme; the cell-load moment
    collapses to its mean."""
    t1 = _tail_first_term(b)
    t2 = (b.lambda_u / b.lambda_b) / math.gamma(b.omega + 1) * _tail_base(b) ** b.omega
    return t1, t2


def _occupancy_and_corner(lambda_e: float, lambda_h: float, nu: float
                          ) -> tuple[float, float]:
    """Chance that a harvester's cell holds an energy center, and the kernel
    decay over the cell's corner radius: the least such a center gives it."""
    occupancy = 1.0 - math.exp(-lambda_e / lambda_h)
    corner = math.exp(-2.0 / (3.0 * math.sqrt(3.0) * nu * lambda_h))
    return occupancy, corner


def aggregation_power_floor(tau: float, gamma: float, eta: float, lambda_h: float,
                            lambda_b: float, lambda_e: float, nu: float) -> float:
    """Almost-sure large-cluster lower bound on per-station supplied power.

    Counts only harvesters whose own cell contains an energy center, each
    delivering at least the cell-corner field value at efficiency tau.
    """
    for name, v in (("tau", tau), ("gamma", gamma), ("eta", eta), ("lambda_h", lambda_h),
                    ("lambda_b", lambda_b), ("lambda_e", lambda_e), ("nu", nu)):
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    occupancy, corner = _occupancy_and_corner(lambda_e, lambda_h, nu)
    return tau * gamma * eta * lambda_h / lambda_b * occupancy * corner


def aggregated_outage_bound(b: BoundInputs) -> float:
    """Outage bound for stations fed by large aggregated harvester clusters,
    with supplied power replaced by its almost-sure floor."""
    _require(b, "e_h_inv", "lambda_h", "lambda_e", "nu")
    occupancy, corner = _occupancy_and_corner(b.lambda_e, b.lambda_h, b.nu)
    return (cell_distance_moment(b.alpha) * b.theta * b.e_h_inv * b.lambda_u
            / (b.tau * b.gamma_eta * b.lambda_b ** (b.alpha / 2.0)
               * b.lambda_h * occupancy * corner))


def power_law_outage_bound(b: BoundInputs) -> tuple[float, float]:
    """Two-term outage bound when the field kernel is the power-law decay:
    (field term from the exponential-tail law, fading Markov term)."""
    _require(b, "omega", "e_h_inv")
    pp = math.pi * b.psi
    t1 = ((b.theta / (pp * b.gamma_eta)) ** b.omega * math.exp(pp)
          * (2.0 / (3.0 * math.sqrt(3.0) * b.lambda_b)) ** (b.alpha * b.omega / 2.0)
          * poisson_raw_moment(b.lambda_u / b.lambda_b, b.omega))
    t2 = max_power_markov_bound(b)
    return t1, t2


# The deep-tail bounds drop remainder terms that decay one power of the peak
# harvested power faster than the kept fading-tail term. We call the regime
# validated once the kept term exceeds the dropped one by two orders of
# magnitude, i.e. once gamma_eta >= 100 * (2 lambda_b / (3 sqrt 3))^(alpha/2) * theta.
ASYMPTOTIC_MARGIN = 100.0


def in_asymptotic_regime(b: BoundInputs) -> bool:
    """True when the peak harvested power is deep enough for the tail bounds."""
    return ASYMPTOTIC_MARGIN * _tail_base(b) <= 1.0
