"""Monte Carlo downlink outage for stations powered by a random energy field.

The typical station sits at the window center of a toroidal arena. Each trial
draws one energy field, the station's power budget, a Poisson number of users
uniform in the station's hexagonal cell, and their fading marks; both power
allocation schemes are then evaluated on the same draws:

* channel_independent - the budget is split equally over the cell's users; a
  user is in outage when its required power exceeds its share.
* inversion - users are granted their exact required powers in increasing
  order until the budget runs out; the remainder are in outage.

The station's budget is its equal share of what the harvesters of its
aggregator deliver over their feeder lines. On-site harvesting is the same
supply with one harvester at the station, a zero-length lossless line and one
station per aggregator. The supply is built once per scenario and window and
reused by every chunk.

Outage is reported per user, and every tally field is an integer, so chunked
or multi-process runs merge exactly. Trials follow the library's one draw
convention (geometry.BLOCK, geometry.block_spans): they are grouped by
absolute index into blocks of 256, and block b draws everything from one
stream, substream(seed, b), in a fixed order: center counts, center x, center
y, users per cell, user positions, fading gains. Drawing is split from
evaluation: a chunk draws every block it touches whole, but evaluates fields,
station powers and both allocations only for its own trials, as flat arrays
over their users. A block that a chunk edge cuts is kept in a one-entry memo,
so the chunk on the edge's other side does not draw it again; whole blocks are
drawn afresh. The chunk's trials are evaluated in passes of at most BLOCK
trials from at most two blocks: each whole block is one pass, and the tail of
one block joins the head of the next when together they fit. Tallies
therefore do not depend on where chunks start and stop or on the worker count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .aggregation import (Distributed, LineSpec, build_clusters, certified_efficiency,
                          clustered_window, delivered_power, resolve_line)
from .bounds import (BoundInputs, aggregated_outage_bound, energy_shortfall_bound,
                     fading_tail_terms_equal_split, fading_tail_terms_inversion,
                     max_power_markov_bound, power_law_outage_bound,
                     total_outage_bound)
from .channel import (ChannelSpec, ChiSquaredFading, mean_inverse_fading,
                      required_power, sample_fading)
from .energy_field import (EnergyFieldSpec, FieldRealization, Kernel, draw_field,
                           field_values)
from .geometry import (BLOCK, PointSet, Window, block_spans, default_window_side,
                       hex_cell_circumradius, nearest_site_indices, sample_in_hex_cell,
                       substream)
from .stats import wilson_ci

# glibc's malloc starts with small mmap and trim thresholds (128 KiB) and
# raises both, for the life of the process, when it frees a mapped block
# larger than the current threshold. Left small, the trim threshold hands a
# block's temporaries (about 300 KB per 256 on-site trials) back to the kernel
# at every block, and the next block faults them in again. Freeing one 4 MiB
# array here raises the thresholds once; its pages are never touched, and
# other allocators are unaffected.
_threshold_raiser = np.empty(4 << 20, dtype=np.uint8)
del _threshold_raiser


class Scheme(str, enum.Enum):
    CHANNEL_INDEPENDENT = "channel_independent"
    INVERSION = "inversion"


@dataclass(frozen=True)
class OnSite:
    """Each station consumes its own harvester's output directly."""


@dataclass(frozen=True)
class ScenarioConfig:
    field: EnergyFieldSpec
    channel: ChannelSpec
    lambda_b: float = 0.78
    lambda_u: float = 7.8
    theta: float = 8.0
    eta: float = 1.0
    architecture: OnSite | Distributed = OnSite()
    estimator: str = "user_weighted"
    wrap: bool = True
    window_side: float | None = None

    def __post_init__(self) -> None:
        for name in ("lambda_b", "lambda_u", "theta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.estimator not in ("user_weighted", "palm"):
            raise ValueError("estimator must be 'user_weighted' or 'palm'")
        if self.window_side is not None and not 0 < self.window_side < math.inf:
            raise ValueError("window_side must be positive and finite")
        arch = self.architecture
        if isinstance(arch, Distributed):
            if not self.wrap:
                raise ValueError("the distributed architecture needs wrap=True")
            resolve_line(arch.line, self.eta, self.field.gamma, self.lambda_b,
                         arch.lambda_a)

    @property
    def mean_users_per_cell(self) -> float:
        return self.lambda_u / self.lambda_b


# Margin, in multiples of the kernel length scale, kept between the typical
# cell and a hard (non-wrapped) window edge so the missing field contribution
# at the center is below exp(-25).
_EDGE_GUARD_SCALES = 5.0


def resolve_window(cfg: ScenarioConfig) -> Window:
    """Simulation arena for a scenario.

    The default side covers ten station pitches and ten kernel length scales,
    whichever is larger. Distributed scenarios round the side up so the arena
    is commensurate with the aggregator lattice; non-wrapped on-site scenarios
    are padded with an edge guard instead.
    """
    side = cfg.window_side if cfg.window_side is not None else \
        default_window_side(cfg.lambda_b, cfg.field.nu)
    if isinstance(cfg.architecture, Distributed):
        return clustered_window(cfg.architecture.lambda_a, side)
    if not cfg.wrap:
        side += 2.0 * _EDGE_GUARD_SCALES * math.sqrt(cfg.field.nu)
    return Window(side, side, wrap=cfg.wrap)


@dataclass
class TrialTally:
    """Integer event counts; adding tallies merges runs exactly."""

    trials: int = 0
    zero_user_trials: int = 0
    users: int = 0
    out_ci: int = 0
    persist_ci: int = 0
    out_inv: int = 0
    persist_inv: int = 0
    union_trials: int = 0
    gain_clamps: int = 0

    def __add__(self, other: "TrialTally") -> "TrialTally":
        return TrialTally(*(a + b for a, b in
                            zip(self._astuple(), other._astuple())))

    def _astuple(self) -> tuple[int, ...]:
        return (self.trials, self.zero_user_trials, self.users, self.out_ci,
                self.persist_ci, self.out_inv, self.persist_inv,
                self.union_trials, self.gain_clamps)


# On-site harvesting as the one-harvester cluster: the station's own harvester
# over a zero-length lossless line, one station per aggregator.
_ONSITE_LINE = LineSpec(voltage=math.inf)


@dataclass(frozen=True, eq=False)
class _Supply:
    """What powers the typical station: the harvesters of its aggregator,
    their feeder lines, and the station's equal share of what arrives."""

    positions: PointSet       # harvesters feeding the typical aggregator
    line_lengths: np.ndarray
    line: LineSpec
    voltage: float
    stations_per_aggregator: int
    peak_budget: float        # eta * gamma, the largest harvester budget
    peak_station_power: float = field(init=False)

    def __post_init__(self) -> None:
        peak = self.station_power(np.full((len(self.line_lengths), 1), self.peak_budget))
        object.__setattr__(self, "peak_station_power", float(peak[0]))

    def station_power(self, budgets: np.ndarray) -> np.ndarray:
        """Station power per column of a (harvesters, trials) budget array."""
        line = self.line
        delivered = delivered_power(budgets, self.line_lengths[:, None], self.voltage,
                                    line.beta, line.mode, line.tau)
        # Each trial's sum runs over one contiguous row, so its rounding does
        # not depend on how many trials are evaluated together.
        return np.ascontiguousarray(delivered.T).sum(axis=1) / self.stations_per_aggregator


@lru_cache(maxsize=32)
def _supply(cfg: ScenarioConfig, window: Window) -> _Supply:
    """The typical station's supply, built once per scenario and window:
    every chunk of trials, and every field block, reuses it, along with its
    harvester positions' axis factorization."""
    arch = cfg.architecture
    center = np.asarray(window.center, dtype=float)[None, :]
    if isinstance(arch, Distributed):
        assign = build_clusters(arch.lambda_h, arch.lambda_a, window)
        typical = int(nearest_site_indices(center, assign.aggregators.sites.points,
                                           window)[0][0])
        members = assign.assignment == typical
        positions = assign.harvesters.sites.points[members]
        lengths = assign.line_lengths[members]
        line, lambda_a = arch.line, arch.lambda_a
    else:
        positions, lengths = center, np.zeros(1)
        line, lambda_a = _ONSITE_LINE, cfg.lambda_b
    voltage, n_per = resolve_line(line, cfg.eta, cfg.field.gamma, cfg.lambda_b, lambda_a)
    lengths.setflags(write=False)   # shared by every later call
    return _Supply(PointSet(positions), lengths, line, voltage, n_per,
                   cfg.eta * cfg.field.gamma)


@dataclass(frozen=True, eq=False)
class _BlockDraws:
    """Everything one block of trials draws, in stream order: the fields, the
    users per trial, the user positions relative to the station and their
    fading gains. Trial t's users are rows offsets[t]:offsets[t + 1]."""

    field: FieldRealization
    users: np.ndarray
    offsets: np.ndarray
    positions: np.ndarray
    fading: np.ndarray


def _draw_block(cfg: ScenarioConfig, window: Window, seed: int, block: int) -> _BlockDraws:
    rng = substream(seed, block)
    fields = draw_field(cfg.field, window, rng, BLOCK)
    users = rng.poisson(cfg.mean_users_per_cell, BLOCK)
    if cfg.estimator == "palm":
        users += 1
    offsets = np.zeros(BLOCK + 1, dtype=np.int64)
    np.cumsum(users, out=offsets[1:])
    n = int(offsets[-1])
    positions = sample_in_hex_cell(hex_cell_circumradius(cfg.lambda_b), n, rng)
    return _BlockDraws(fields, users, offsets, positions, sample_fading(cfg.channel, rng, n))


@lru_cache(maxsize=1)
def _cut_block(cfg: ScenarioConfig, window: Window, seed: int, block: int) -> _BlockDraws:
    """A block that a chunk edge cuts, kept read-only for the chunk on the
    edge's other side: consecutive chunks then draw it once."""
    draws = _draw_block(cfg, window, seed, block)
    for a in (draws.users, draws.offsets, draws.positions, draws.fading,
              draws.field.counts):
        a.setflags(write=False)
    return draws


_Span = tuple[_BlockDraws, int, int]   # a drawn block and trials lo..hi-1 of it


def _join(spans: list[_Span]) -> _Span:
    """Consecutive spans as one span over the concatenation of their trials."""
    if len(spans) == 1:
        return spans[0]
    fields = [d.field.select(lo, hi) for d, lo, hi in spans]
    users = np.concatenate([d.users[lo:hi] for d, lo, hi in spans])
    offsets = np.zeros(len(users) + 1, dtype=np.int64)
    np.cumsum(users, out=offsets[1:])
    rows = [(d, slice(int(d.offsets[lo]), int(d.offsets[hi]))) for d, lo, hi in spans]
    # centers keep draw_field's layout: each coordinate contiguous
    xy = np.concatenate([f.centers.points.T for f in fields], axis=1)
    xy.setflags(write=False)
    first = fields[0]
    field = FieldRealization(first.spec, PointSet(xy.T, first.centers.intensity),
                             first.window, np.concatenate([f.counts for f in fields]))
    draws = _BlockDraws(field, users, offsets,
                        np.concatenate([d.positions[r] for d, r in rows]),
                        np.concatenate([d.fading[r] for d, r in rows]))
    return draws, 0, len(users)


def _tally_block(cfg: ScenarioConfig, supply: _Supply, draws: _BlockDraws, lo: int,
                 hi: int, tally: TrialTally, clamp_box: list) -> None:
    """Add trials lo..hi-1 of a drawn block, or of spans joined into one, to
    the tally; only their fields are evaluated and only their users' clamps
    counted."""
    k = draws.users[lo:hi]
    first, last = int(draws.offsets[lo]), int(draws.offsets[hi])
    n_users = last - first
    tally.trials += hi - lo
    tally.zero_user_trials += int(np.count_nonzero(k == 0))
    tally.users += n_users
    if n_users == 0:
        return
    budgets = cfg.eta * field_values(draws.field.select(lo, hi), supply.positions)
    power = supply.station_power(budgets)
    pos = draws.positions[first:last]
    dist = np.maximum(np.hypot(pos[:, 0], pos[:, 1]), 1e-12)
    need = required_power(cfg.theta, dist, draws.fading[first:last], cfg.channel,
                          clamp_box)
    per_user = np.maximum(k, 1)   # zero-user trials have no share to compare
    tally.out_ci += int(np.count_nonzero(need > np.repeat(power / per_user, k)))
    tally.persist_ci += int(np.count_nonzero(
        need > np.repeat(supply.peak_station_power / per_user, k)))
    # Inversion: each trial's needs sorted in one row of a matrix padded with
    # +inf, pads zeroed after the sort; every row's cumsum then does exactly
    # the arithmetic of np.cumsum(np.sort(need)) for that trial.
    valid = np.arange(int(k.max())) < k[:, None]
    grants = np.full(valid.shape, np.inf)
    grants[valid] = need
    grants.sort(axis=1)
    grants[~valid] = 0.0
    csum = grants.cumsum(axis=1)
    tally.out_inv += n_users - int(np.count_nonzero((csum <= power[:, None]) & valid))
    tally.persist_inv += n_users - int(np.count_nonzero(
        (csum <= supply.peak_station_power) & valid))
    tally.union_trials += int(np.count_nonzero((k > 0) & (csum[:, -1] > power)))


def run_trials_chunk(cfg: ScenarioConfig, start: int, stop: int, seed: int) -> TrialTally:
    """Run trials [start, stop) of the given master seed and tally events for
    both schemes from shared draws."""
    window = resolve_window(cfg)
    supply = _supply(cfg, window)
    tally = TrialTally()
    clamp_box = [0]

    # Consecutive spans share an evaluation pass while it holds at most BLOCK
    # trials, so only a chunk's partial first and last spans can join.
    spans: list[_Span] = []
    size = 0
    for block, lo, hi in block_spans(start, stop):
        if size + hi - lo > BLOCK:
            _tally_block(cfg, supply, *_join(spans), tally, clamp_box)
            spans, size = [], 0
        draws = _draw_block(cfg, window, seed, block) if hi - lo == BLOCK \
            else _cut_block(cfg, window, seed, block)
        spans.append((draws, lo, hi))
        size += hi - lo
    if spans:
        _tally_block(cfg, supply, *_join(spans), tally, clamp_box)
    tally.gain_clamps = clamp_box[0]
    return tally


@dataclass(frozen=True)
class OutageEstimate:
    """Per-user outage estimate for one scheme, with its decomposition into
    the component removable by more power (energy_random) and the component
    that persists at the peak budget (max_power)."""

    scheme: Scheme
    p_out: float
    ci_lo: float
    ci_hi: float
    n_trials: int
    n_users: int
    n_outages: int
    p_energy_random: float
    p_max_power: float
    union_rate: float | None
    zero_user_trials: int
    gain_clamps: int
    low_confidence: bool
    bound_values: Mapping[str, float]

    @property
    def ci_halfwidth(self) -> float:
        return 0.5 * (self.ci_hi - self.ci_lo)


def bound_inputs(cfg: ScenarioConfig, tau: float = 1.0) -> BoundInputs:
    """Closed-form bound inputs for a scenario; e_h_inv and omega are None
    where the fading law lacks them. tau is the certified line efficiency."""
    fading = cfg.channel.fading
    omega = fading.omega if isinstance(fading, ChiSquaredFading) else None
    try:
        e_h_inv = mean_inverse_fading(fading)
    except ValueError:
        e_h_inv = None
    arch = cfg.architecture
    distributed = isinstance(arch, Distributed)
    return BoundInputs(
        psi=cfg.field.psi, gamma_eta=cfg.field.gamma * cfg.eta, theta=cfg.theta,
        alpha=cfg.channel.alpha, lambda_b=cfg.lambda_b, lambda_u=cfg.lambda_u,
        e_h_inv=e_h_inv, omega=omega, tau=tau,
        lambda_h=arch.lambda_h if distributed else None,
        lambda_e=cfg.field.lambda_e, nu=cfg.field.nu)


def _certified_tau(cfg: ScenarioConfig) -> float:
    arch = cfg.architecture
    line = arch.line
    if line.mode == "tau_floor" or line.voltage is None:
        return line.tau
    return certified_efficiency(line.voltage, line.beta, cfg.eta,
                                cfg.field.gamma, arch.lambda_a)


def bound_values(cfg: ScenarioConfig, scheme: Scheme) -> dict[str, float]:
    """Closed-form bounds applicable to a scenario, keyed by stable names.

    Bounds whose hypotheses the scenario does not satisfy (wrong kernel,
    fading without the needed moments) are simply omitted.
    """
    vals: dict[str, float] = {}
    kernel = cfg.field.kernel
    if isinstance(cfg.architecture, Distributed):
        if kernel is Kernel.BOOLEAN_MAX_EXP:
            b = bound_inputs(cfg, tau=_certified_tau(cfg))
            if b.e_h_inv is not None:
                vals["aggregated"] = aggregated_outage_bound(b)
        return vals
    b = bound_inputs(cfg)
    if kernel is Kernel.BOOLEAN_MAX_EXP:
        if b.e_h_inv is not None:
            vals["energy_shortfall"] = energy_shortfall_bound(b)
            vals["max_power_markov"] = max_power_markov_bound(b)
            vals["total"] = total_outage_bound(b)
        if b.omega is not None and b.omega >= 2:
            terms = fading_tail_terms_equal_split(b) \
                if scheme is Scheme.CHANNEL_INDEPENDENT else fading_tail_terms_inversion(b)
            vals["tail_total"] = terms[0] + terms[1]
    elif kernel is Kernel.BOOLEAN_MAX_PLAW:
        if b.omega is not None and b.omega >= 2:
            t1, t2 = power_law_outage_bound(b)
            vals["power_law_total"] = t1 + t2
    return vals


def estimates_from_tally(cfg: ScenarioConfig, tally: TrialTally
                         ) -> dict[Scheme, OutageEstimate]:
    """Turn raw tallies into per-scheme estimates with Wilson intervals and
    attached bounds."""
    out: dict[Scheme, OutageEstimate] = {}
    users = tally.users
    for scheme in Scheme:
        if scheme is Scheme.CHANNEL_INDEPENDENT:
            n_out, n_persist = tally.out_ci, tally.persist_ci
            union = None
        else:
            n_out, n_persist = tally.out_inv, tally.persist_inv
            union = tally.union_trials / tally.trials if tally.trials else None
        if users > 0:
            p = n_out / users
            lo, hi = wilson_ci(n_out, users)
        else:
            p, lo, hi = 0.0, 0.0, 1.0
        out[scheme] = OutageEstimate(
            scheme=scheme, p_out=p, ci_lo=lo, ci_hi=hi,
            n_trials=tally.trials, n_users=users, n_outages=n_out,
            p_energy_random=(n_out - n_persist) / users if users else 0.0,
            p_max_power=n_persist / users if users else 0.0,
            union_rate=union, zero_user_trials=tally.zero_user_trials,
            gain_clamps=tally.gain_clamps, low_confidence=users < 100,
            bound_values=bound_values(cfg, scheme))
    return out


def simulate_both(cfg: ScenarioConfig, n_trials: int, seed: int
                  ) -> dict[Scheme, OutageEstimate]:
    """Serial run of n_trials; both schemes come from the same draws."""
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    tally = run_trials_chunk(cfg, 0, n_trials, seed)
    return estimates_from_tally(cfg, tally)

