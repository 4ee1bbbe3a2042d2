"""Harvester-to-aggregator clustering and power delivery over resistive lines.

Harvesters and aggregators sit on centered hexagonal lattices; each harvester
feeds the nearest aggregator over a line whose ohmic loss grows with the
square of the carried power and the line length and falls with the square of
the transmission voltage. Aggregated power is split equally over the stations
an aggregator feeds, so per-station supplied power is a cluster average and
stabilizes as clusters grow.

Stations themselves never appear as geometry here: with equal splitting, the
per-station power is the per-aggregator total divided by the (integer)
station count per aggregator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy_field import EnergyFieldSpec, FieldRealization, draw_field, field_values
from .geometry import (BLOCK, FIELD_STREAM, HexLattice, Window, default_window_side,
                       hex_lattice, hex_pitch, nearest_site_indices, substream)


@dataclass(frozen=True)
class LineSpec:
    """Resistive feeder line parameters.

    voltage None selects the sufficient-voltage rule that certifies delivery
    efficiency tau; math.inf models lossless lines; a number is used as-is.
    mode "exact" solves the quadratic power balance; "tau_floor" forces
    delivered power to exactly tau times the harvested budget.
    """

    beta: float = 1.0
    voltage: float | None = None
    tau: float = 0.9
    mode: str = "exact"

    def __post_init__(self) -> None:
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if self.voltage is not None and not self.voltage > 0:
            raise ValueError("voltage must be positive (or None for the rule)")
        if not 0 < self.tau < 1:
            raise ValueError("tau must lie in (0, 1)")
        if self.mode not in ("exact", "tau_floor"):
            raise ValueError("mode must be 'exact' or 'tau_floor'")


@dataclass(frozen=True)
class Distributed:
    """Distributed-harvesting architecture: harvester lattice density,
    aggregator lattice density, and the feeder-line model."""

    lambda_h: float
    lambda_a: float
    line: LineSpec = field(default_factory=LineSpec)

    def __post_init__(self) -> None:
        if not 0 < self.lambda_a < math.inf:
            raise ValueError("lambda_a must be positive and finite")
        if not self.lambda_a <= self.lambda_h < math.inf:
            raise ValueError("lambda_h must be finite and at least lambda_a")


def clustered_window(lambda_a: float, min_side: float) -> Window:
    """Smallest window with sides >= min_side that is commensurate with the
    aggregator lattice periods, so hexagonal cells tile the torus exactly
    and every line length obeys the cell-corner bound."""
    if min_side <= 0:
        raise ValueError("min_side must be positive")
    a = hex_pitch(lambda_a)
    px = max(1, math.ceil(min_side / a - 1e-9))
    py = max(1, math.ceil(min_side / (math.sqrt(3.0) * a) - 1e-9))
    return Window(px * a, py * (math.sqrt(3.0) * a))


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    harvesters: HexLattice
    aggregators: HexLattice
    assignment: np.ndarray    # aggregator index per harvester
    line_lengths: np.ndarray  # harvester-to-aggregator distance


def build_clusters(lambda_h: float, lambda_a: float, window: Window) -> ClusterAssignment:
    """Assign every harvester to its nearest aggregator (lowest index on ties)."""
    if lambda_a <= 0 or lambda_h < lambda_a:
        raise ValueError("need lambda_h >= lambda_a > 0")
    harv = hex_lattice(lambda_h, window)
    aggs = hex_lattice(lambda_a, window)
    idx, dist = nearest_site_indices(harv.sites.points, aggs.sites.points, window)
    return ClusterAssignment(harv, aggs, idx, dist)


def sufficient_voltage(tau: float, beta: float, eta: float, gamma: float,
                       lambda_a: float) -> float:
    """Transmission voltage that certifies delivery efficiency tau for every
    line in the lattice, for any field value up to gamma.

    Scales exactly as lambda_a^(-1/4): longer worst-case lines demand higher
    voltage as aggregators thin out.
    """
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    for name, v in (("beta", beta), ("eta", eta), ("gamma", gamma), ("lambda_a", lambda_a)):
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    return tau * math.sqrt(beta * eta * gamma / (1.0 - tau)
                           * math.sqrt(2.0 / (3.0 * math.sqrt(3.0)))) * lambda_a ** -0.25



def certified_efficiency(voltage: float, beta: float, eta: float, gamma: float,
                         lambda_a: float) -> float:
    """Delivery efficiency guaranteed on every line at the given voltage;
    exact inverse of sufficient_voltage. Returns 1.0 for lossless lines."""
    if not voltage > 0:
        raise ValueError("voltage must be positive")
    if math.isinf(voltage):
        return 1.0
    for name, v in (("beta", beta), ("eta", eta), ("gamma", gamma), ("lambda_a", lambda_a)):
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    k = beta * eta * gamma * math.sqrt(2.0 / (3.0 * math.sqrt(3.0))) / math.sqrt(lambda_a)
    v2 = voltage * voltage
    return (math.sqrt(v2 * v2 + 4.0 * k * v2) - v2) / (2.0 * k)


def delivered_power(budget, length, voltage: float, beta: float,
                    mode: str = "exact", tau: float | None = None):
    """Power reaching the aggregator from a harvester with the given budget.

    In exact mode the delivered power P solves P + loss(P) = budget, taking
    the stable positive root of the quadratic, so energy is conserved to
    round-off; on a lossless line (voltage inf) P is the budget, and a float
    array budget that already has the broadcast shape is returned itself,
    not copied. In tau_floor mode P is exactly tau * budget.
    """
    budget = np.asarray(budget, dtype=float)
    length = np.asarray(length, dtype=float)
    # one pass each, no temporaries; NaN fails both, an empty budget neither
    if not (budget.min(initial=0.0) >= 0 and budget.max(initial=0.0) < math.inf):
        raise ValueError("budget must be non-negative and finite")
    if not np.all(length >= 0):
        raise ValueError("length must be non-negative")
    if mode == "tau_floor":
        if tau is None or not 0 < tau < 1:
            raise ValueError("tau_floor mode needs tau in (0, 1)")
        out = tau * budget
        return float(out) if out.ndim == 0 else out
    if not voltage > 0:
        raise ValueError("voltage must be positive")
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if math.isinf(voltage):   # budget * 1 is budget, broadcast against the lengths
        shape = np.broadcast_shapes(budget.shape, length.shape)
        if budget.shape == shape and budget.ndim:
            return budget
        out = np.broadcast_to(budget, shape).copy()
        return float(out) if out.ndim == 0 else out
    a = beta * length / (voltage * voltage)
    out = np.where(a * budget > 0, 2.0 * budget / (1.0 + np.sqrt(1.0 + 4.0 * a * budget)), budget)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class SupplyResult:
    """Supply over a block of n field realizations; every array has a
    trailing realization axis of length n."""

    per_station: np.ndarray     # equal-split power at every station
    per_aggregator: np.ndarray  # summed delivered power per aggregator
    harvested: np.ndarray       # per-harvester budget eta * g
    delivered: np.ndarray       # per-harvester power after line loss
    voltage: float
    stations_per_aggregator: int


def _stations_per_aggregator(lambda_b: float, lambda_a: float) -> int:
    ratio = lambda_b / lambda_a
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ValueError(
            f"lambda_b/lambda_a = {ratio} must be a positive integer for equal splitting")
    return int(n)


def resolve_line(line: LineSpec, eta: float, gamma: float, lambda_b: float,
                 lambda_a: float) -> tuple[float, int]:
    """Feeder voltage (the rule voltage when line.voltage is None) and the
    number of stations each aggregator feeds."""
    n_per = _stations_per_aggregator(lambda_b, lambda_a)
    voltage = line.voltage if line.voltage is not None else \
        sufficient_voltage(line.tau, line.beta, eta, gamma, lambda_a)
    return voltage, n_per


def supplied_power(assignment: ClusterAssignment, real: FieldRealization,
                   line: LineSpec, eta: float, lambda_b: float) -> SupplyResult:
    """Per-station supplied power for every realization of a field block.

    Harvested budgets are eta times the field at each harvester; each budget
    is pushed through its feeder line; aggregator totals are split equally
    over the lambda_b / lambda_a stations each aggregator feeds.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    voltage, n_per = resolve_line(line, eta, real.spec.gamma, lambda_b,
                                  assignment.aggregators.density)
    g = field_values(real, assignment.harvesters.sites)
    harvested = eta * g
    delivered = delivered_power(harvested, assignment.line_lengths[:, None], voltage,
                                line.beta, line.mode, line.tau)
    # harvester by harvester in index order, as np.bincount sums one column
    per_agg = np.zeros((len(assignment.aggregators.sites), len(real.counts)))
    np.add.at(per_agg, assignment.assignment, delivered)
    per_station = np.repeat(per_agg / n_per, n_per, axis=0)
    return SupplyResult(per_station, per_agg, harvested, delivered, voltage, n_per)


def supply_statistics(spec: EnergyFieldSpec, lambda_b: float, lambda_h: float,
                      lambda_a: float, line: LineSpec, eta: float,
                      n_trials: int, seed: int,
                      min_side: float | None = None) -> np.ndarray:
    """Per-station supplied-power samples over independent field draws,
    shape (n_trials, n_stations). Trial t is realization t % BLOCK of the
    block of fields drawn from substream(seed, t // BLOCK, FIELD_STREAM), the
    stream the trial engine draws block t // BLOCK's fields from."""
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    side = min_side if min_side is not None else default_window_side(lambda_b, spec.nu)
    window = clustered_window(lambda_a, side)
    assignment = build_clusters(lambda_h, lambda_a, window)
    rows = []
    for a in range(0, n_trials, BLOCK):
        block = draw_field(spec, window, substream(seed, a // BLOCK, FIELD_STREAM), BLOCK)
        real = block.select(0, min(BLOCK, n_trials - a))
        rows.append(supplied_power(assignment, real, line, eta, lambda_b).per_station.T)
    return np.vstack(rows)
