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

Outage is reported per user, E[out_K]/E[K] over K users per cell: by the
Poisson size-bias identity, a typical user's outage probability. Every tally
field is an integer, so chunked or multi-process runs merge exactly. Trials
are grouped by absolute index into blocks of geometry.BLOCK (256), and block
b draws from two streams: its fields from substream(seed, b, FIELD_STREAM),
and its users per cell, user positions and fading gains, in that order, from
substream(seed, b, USER_STREAM).

A boolean field at the window's center alone, which is all an on-site
station or a cluster of one harvester reads, depends on the center process
only through the nearest center's distance. Such a scenario takes its
fields by the center law: the field stream gives BLOCK uniforms, one per
trial, each mapped through that distance's exact law on the window
(energy_field.nearest_center_distance) and the kernel. The uniforms do not
depend on the scenario, so a pass draws them once for its whole group, as
it draws users. Every other scenario (shot noise, or several harvesters)
draws its centers from the field stream: center counts, center x, center y
(energy_field.draw_field).

A trial's user side, everything but the field and the station's power,
depends only on ScenarioConfig.user_settings: lambda_u, lambda_b, theta and
channel. Scenarios with equal user settings form a group, and run_group_chunk
runs a group's trials together, in passes of m * BLOCK consecutive trials:
[a, min(a + m * BLOCK, stop)) for a in range(start, stop, m * BLOCK). A pass
spans as many whole blocks m as keep the bytes it holds at its peak within
_PASS_BYTES (3 MiB), and one at least. Its bytes per trial are estimated
before it draws (_pass_bytes_per_trial), as the larger of two stages: its
user draws (users per trial, each user's position and fading) joined beside
the blocks they join, or its rows of needs padded to the most users a trial
is likely to hold, sorted and summed, beside its densest scenario's fields.
By the center law those are one uniform's distance, field value and power;
on the centers path, its drawn centers and, per harvester, its field values
and the delivered_power arrays made from them. fig4's group, 10 users per
cell by the center law, holds about 525 B per trial and runs passes of 23
blocks; fig5's, whose cluster 320 holds about 15 KB per trial, runs passes
of one. A pass lets its draws go before it builds its rows, and everything
it holds when it ends (_pass_tallies). One rule draws a pass's users,
uniforms or centers (_pass_draw): each block the pass spans, whole as drawn
or as views of the part it covers, the blocks joined when there are
several. The last
block of each of the three draws is memoized read-only, so consecutive
chunks draw the block an edge between them cuts once.

A pass evaluates its users once for the whole group: distances, gain clamps
(users nearer the station than ChannelSpec.min_dist, the path-gain clamp
radius), required powers, and each trial's needs sorted and summed in one row
of a matrix padded with +inf. One rule counts both schemes' outages at
per-trial station powers P (_outages): of a trial's k users, equal split
covers those whose need is at most P / max(k, 1), inversion those whose
running sum of needs is at most P; no finite power covers a pad. At the peak
station power it gives the max-power outages (persist_*), counted once per
pass for each distinct peak of the group. Then each scenario takes the
pass's fields, by the center law from the group's uniforms or by drawing
and evaluating its centers, evaluates their station powers and adds the
outages at those powers to its tally. run_trials_chunk is the group of one.
A trial's arithmetic depends neither on the other trials of its pass nor on
the other scenarios of its group, so tallies do not depend on where chunks
start and stop, on the worker count, or on which scenarios run together.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial
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
from .energy_field import (EnergyFieldSpec, FieldRealization, Kernel, _boolean_kernel,
                           draw_field, field_values, nearest_center_distance)
from .geometry import (BLOCK, FIELD_STREAM, USER_STREAM, PointSet, Window,
                       default_window_side, hex_cell_circumradius, nearest_site_indices,
                       sample_in_hex_cell, substream)
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


# Most energy centers, and most users, one block of trials may expect to draw,
# and most harvesters a distributed scenario's lattice may hold: 2^26 points
# hold 1 GiB of coordinates. The largest scenario in the acceptance suite
# expects about 1e5 centers per block.
_BLOCK_VALUES_CAP = 1 << 26

# Bytes a pass may hold at its peak, the budget that sets its length (see the
# module docstring). A longer pass spreads each numpy call's fixed cost over
# more trials, at the price of its temporaries.
_PASS_BYTES = 3 << 20

# Values per trial, or per trial and harvester, that a scenario's fields,
# station powers and outage counts hold at once: one uniform's distance, field
# value and power and their temporaries by the center law; on the centers
# path the field values and the delivered_power arrays made from them.
_FIELD_ARRAYS = 6


@dataclass(frozen=True)
class ScenarioConfig:
    field: EnergyFieldSpec
    channel: ChannelSpec
    lambda_b: float = 0.78
    lambda_u: float = 7.8
    theta: float = 8.0
    eta: float = 1.0
    architecture: OnSite | Distributed = OnSite()
    wrap: bool = True
    window_side: float | None = None

    def __post_init__(self) -> None:
        for name in ("lambda_b", "lambda_u", "theta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.window_side is not None and not 0 < self.window_side < math.inf:
            raise ValueError("window_side must be positive and finite")
        if not isinstance(self.wrap, bool):
            raise ValueError(f"wrap must be True or False, not {self.wrap!r}")
        arch = self.architecture
        if not isinstance(arch, (OnSite, Distributed)):
            raise ValueError(f"unknown architecture {arch!r}")
        if isinstance(arch, Distributed):
            if not self.wrap:
                raise ValueError("the distributed architecture needs wrap=True")
            resolve_line(arch.line, self.eta, self.field.gamma, self.lambda_b,
                         arch.lambda_a)
        area = resolve_window(self).area
        window_keys = "field.nu, network.lambda_b, scenario.window_side"
        if isinstance(arch, Distributed):
            window_keys += ", distributed.lambda_a"
        centers = BLOCK * self.field.lambda_e * area
        if not centers <= _BLOCK_VALUES_CAP:
            raise ValueError(
                f"a block of {BLOCK} trials would draw {centers:.3g} energy centers, "
                f"more than 2^26; lower field.lambda_e or the window it fills "
                f"({window_keys})")
        users = BLOCK * self.mean_users_per_cell
        if not users <= _BLOCK_VALUES_CAP:
            raise ValueError(
                f"a block of {BLOCK} trials would draw {users:.3g} users, more than "
                f"2^26; lower network.lambda_u or raise network.lambda_b")
        if isinstance(arch, Distributed) and not arch.lambda_h * area <= _BLOCK_VALUES_CAP:
            raise ValueError(
                f"the harvester lattice would hold {arch.lambda_h * area:.3g} harvesters, "
                f"more than 2^26; lower distributed.lambda_h or the window it fills "
                f"({window_keys})")

    @property
    def mean_users_per_cell(self) -> float:
        return self.lambda_u / self.lambda_b

    @property
    def user_settings(self) -> tuple:
        """The settings a trial's user side depends on: how many users, where
        and with what fading they are drawn, and the power each one needs.
        Scenarios with equal user settings draw the same users and run as
        one group."""
        return (self.lambda_u, self.lambda_b, self.theta, self.channel)


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
        return TrialTally(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                             for f in fields(self)})


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
        # harvester after harvester, bit for bit as supplied_power sums a
        # cluster; numpy would sum a lone column pairwise, so one trial takes
        # the running sum instead
        total = delivered.sum(axis=0) if delivered.shape[1] > 1 else \
            delivered.cumsum(axis=0)[-1]
        return total / self.stations_per_aggregator


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
class _UserDraws:
    """The users of a run of consecutive trials, in stream order: the users
    per trial, their positions relative to the station and their fading
    gains, trial by trial."""

    users: np.ndarray
    positions: np.ndarray
    fading: np.ndarray

    def select(self, lo: int, hi: int) -> "_UserDraws":
        """Trials lo..hi-1, as views."""
        first = int(self.users[:lo].sum())
        last = first + int(self.users[lo:hi].sum())
        return _UserDraws(self.users[lo:hi], self.positions[first:last],
                          self.fading[first:last])

    @staticmethod
    def join(parts: list["_UserDraws"]) -> "_UserDraws":
        """The trials of parts, one after another."""
        return _UserDraws(*(np.concatenate([getattr(part, f.name) for part in parts])
                            for f in fields(_UserDraws)))


@lru_cache(maxsize=1)
def _draw_fields(spec: EnergyFieldSpec, window: Window, seed: int,
                 block: int) -> FieldRealization:
    """Block `block` of fields, drawn read-only from its field stream."""
    real = draw_field(spec, window, substream(seed, block, FIELD_STREAM), BLOCK)
    real.counts.setflags(write=False)
    return real


@dataclass(frozen=True, eq=False)
class _Uniforms:
    """The field uniforms of a run of consecutive trials, one per trial."""

    u: np.ndarray

    def select(self, lo: int, hi: int) -> "_Uniforms":
        """Trials lo..hi-1, as a view."""
        return _Uniforms(self.u[lo:hi])

    @staticmethod
    def join(parts: list["_Uniforms"]) -> "_Uniforms":
        """The trials of parts, one after another."""
        return _Uniforms(np.concatenate([part.u for part in parts]))


@lru_cache(maxsize=1)
def _draw_uniforms(seed: int, block: int) -> _Uniforms:
    """Block `block` of field uniforms, drawn read-only from its field stream."""
    u = substream(seed, block, FIELD_STREAM).random(BLOCK)
    u.setflags(write=False)
    return _Uniforms(u)


def _by_center_law(cfg: ScenarioConfig, window: Window, supply: _Supply) -> bool:
    """Whether a scenario's station power needs the field at the window's
    center alone under a boolean kernel, which depends on the center process
    only through the nearest center's distance: on-site, or a cluster of one
    harvester."""
    return cfg.field.kernel is not Kernel.SHOT_NOISE_EXP and len(supply.positions) == 1 \
        and np.array_equal(supply.positions.points[0], window.center)


@lru_cache(maxsize=1)
def _draw_users(cfg: ScenarioConfig, seed: int, block: int) -> _UserDraws:
    """Block `block` of users, drawn read-only from its user stream."""
    rng = substream(seed, block, USER_STREAM)
    users = rng.poisson(cfg.mean_users_per_cell, BLOCK)
    n = int(users.sum())
    positions = sample_in_hex_cell(hex_cell_circumradius(cfg.lambda_b), n, rng)
    draws = _UserDraws(users, positions, sample_fading(cfg.channel, rng, n))
    for a in (users, positions, draws.fading):
        a.setflags(write=False)
    return draws


def _pass_draw(draw, a: int, b: int):
    """Trials [a, b) from the blocks draw(block) returns: each block they
    span, as drawn where they cover it whole and as views of the part they
    cover otherwise, joined when there are several."""
    parts = []
    for block in range(a // BLOCK, -(-b // BLOCK)):
        lo, hi = max(a - block * BLOCK, 0), min(b - block * BLOCK, BLOCK)
        drawn = draw(block)
        parts.append(drawn if hi - lo == BLOCK else drawn.select(lo, hi))
    return parts[0] if len(parts) == 1 else type(parts[0]).join(parts)


@dataclass(frozen=True, eq=False)
class _UserSide:
    """A pass's users, evaluated once for its group: the counts that do not
    depend on the field, each trial's users (at least one) and needs sorted
    and summed, its total demand, and the outages at each peak power."""

    tally: TrialTally
    per_user: np.ndarray
    grants: np.ndarray
    csum: np.ndarray
    total: np.ndarray
    persist: dict[float, tuple[int, int]] = field(default_factory=dict)


def _user_side(cfg: ScenarioConfig, seed: int, a: int, b: int, peaks: tuple) -> _UserSide:
    """Trials [a, b)'s users, drawn and evaluated once for their group. The
    draws are let go before the padded rows are built."""
    draws = _pass_draw(partial(_draw_users, cfg, seed), a, b)
    k = draws.users
    tally = TrialTally(trials=len(k), zero_user_trials=int(np.count_nonzero(k == 0)),
                       users=len(draws.positions))
    pos = draws.positions
    dist = np.maximum(np.hypot(pos[:, 0], pos[:, 1]), 1e-12)
    tally.gain_clamps = int(np.count_nonzero(dist < cfg.channel.min_dist))
    need = required_power(cfg.theta, dist, draws.fading, cfg.channel)
    del draws, pos, dist
    # Rows of sorted needs padded with +inf: a row's cumsum is np.cumsum(np.sort(need))
    # bit for bit; one column at least, so a pass without users has a total to read.
    valid = np.arange(max(int(k.max()), 1)) < k[:, None]
    grants = np.full(valid.shape, np.inf)
    grants[valid] = need
    del valid, need
    grants.sort(axis=1)
    csum = grants.cumsum(axis=1)
    # each trial's total demand; -inf, below any power, where it has no users
    total = np.where(k > 0, csum[np.arange(len(k)), k - 1], -np.inf)
    side = _UserSide(tally, np.maximum(k, 1), grants, csum, total)
    for peak in peaks:   # the max-power outages depend only on the users and the peak
        side.persist[peak] = _outages(side, np.full(len(k), peak))
    return side


def _outages(side: _UserSide, power: np.ndarray) -> tuple[int, int]:
    """Users in outage under equal split and under inversion at per-trial powers."""
    users = side.tally.users
    return (users - int(np.count_nonzero(side.grants <= (power / side.per_user)[:, None])),
            users - int(np.count_nonzero(side.csum <= power[:, None])))


def _point_tally(cfg: ScenarioConfig, supply: _Supply, values: np.ndarray,
                 side: _UserSide) -> TrialTally:
    """A pass's tally at one scenario: the station powers of its field values
    at the supply's harvesters, (harvesters, trials), against its users."""
    tally = replace(side.tally)
    if tally.users == 0:
        return tally
    power = supply.station_power(cfg.eta * values)
    tally.out_ci, tally.out_inv = _outages(side, power)
    tally.persist_ci, tally.persist_inv = side.persist[supply.peak_station_power]
    tally.union_trials = int(np.count_nonzero(side.total > power))
    return tally


def _pass_bytes_per_trial(points: list[tuple]) -> float:
    """Bytes a pass holds per trial at its peak, estimated before it draws
    from the (scenario, window, supply, by center law) points of its group:
    the larger of its user draws joined beside the blocks they join, and its
    padded rows beside its densest scenario's fields."""
    mu = points[0][0].mean_users_per_cell
    draws = 8 * (1 + 3 * mu)            # users per trial; each user's x, y and fading
    width = mu + 4 * math.sqrt(mu) + 4  # a Poisson(mu) count exceeds it w.p. < 4e-5
    rows = 8 * (2 * width + 3) + width  # grants, csum, 3 per-trial arrays, one mask
    fields = max(8 * _FIELD_ARRAYS if law else
                 8 * (2 * cfg.field.lambda_e * window.area + 1
                      + _FIELD_ARRAYS * len(supply.positions))
                 for cfg, window, supply, law in points)
    return max(2 * draws, rows + fields)


def run_group_chunk(cfgs: tuple[ScenarioConfig, ...], start: int, stop: int,
                    seed: int) -> list[TrialTally]:
    """Run trials [start, stop) of the given master seed at every scenario of
    a group, which must share their user_settings, and tally events for both
    schemes from shared draws: one tally per scenario, each the sum of its
    passes' tallies. Every pass draws and evaluates its users once."""
    if not 0 <= start <= stop:
        raise ValueError("need 0 <= start <= stop")
    if len({cfg.user_settings for cfg in cfgs}) != 1:
        raise ValueError("a group needs scenarios with equal user_settings")
    windows = [resolve_window(cfg) for cfg in cfgs]
    supplies = [_supply(cfg, window) for cfg, window in zip(cfgs, windows)]
    peaks = tuple(dict.fromkeys(supply.peak_station_power for supply in supplies))
    points = [(*point, _by_center_law(*point)) for point in zip(cfgs, windows, supplies)]
    step = BLOCK * max(1, int(_PASS_BYTES // (BLOCK * _pass_bytes_per_trial(points))))
    tallies = [TrialTally() for _ in cfgs]
    for a in range(start, stop, step):
        passed = _pass_tallies(points, peaks, seed, a, min(a + step, stop))
        tallies = [t + p for t, p in zip(tallies, passed)]
    return tallies


def _pass_tallies(points: list[tuple], peaks: tuple, seed: int, a: int,
                  b: int) -> list[TrialTally]:
    """Trials [a, b) as one pass at each point of a group: the users
    evaluated once, then each scenario's fields. What the pass holds is let
    go when it returns, before the next pass draws."""
    side = _user_side(points[0][0], seed, a, b, peaks)
    u = _pass_draw(partial(_draw_uniforms, seed), a, b).u \
        if any(law for *_, law in points) else None
    return [_point_tally(cfg, supply, _pass_fields(cfg, window, supply, law, u, seed, a, b),
                         side)
            for cfg, window, supply, law in points]


def _pass_fields(cfg: ScenarioConfig, window: Window, supply: _Supply, law: bool,
                 u: np.ndarray | None, seed: int, a: int, b: int) -> np.ndarray:
    """Trials [a, b)'s field values at the supply's harvesters, (harvesters,
    trials): by the center law from the group's uniforms u, or from the
    scenario's drawn centers."""
    if law:
        d = nearest_center_distance(u, cfg.field.lambda_e, window)
        return _boolean_kernel(cfg.field, d)[None, :]
    real = _pass_draw(partial(_draw_fields, cfg.field, window, seed), a, b)
    return field_values(real, supply.positions)


def run_trials_chunk(cfg: ScenarioConfig, start: int, stop: int, seed: int) -> TrialTally:
    """Run trials [start, stop) of the given master seed and tally events for
    both schemes from shared draws: the group of one."""
    [tally] = run_group_chunk((cfg,), start, stop, seed)
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

