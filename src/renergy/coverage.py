"""Monte Carlo downlink outage for stations powered by a random energy field.

The typical station sits at the window center of a toroidal arena. Each trial
draws one energy field (or integrates it out, by the center law below), the
station's power budget, a Poisson number of users uniform in the station's
hexagonal cell, and their fading marks; both power allocation schemes are
then evaluated on the same draws:

* channel_independent - the budget is split equally over the cell's users; a
  user is in outage when its required power exceeds its share.
* inversion - users are granted their exact required powers in increasing
  order until the budget runs out; the remainder are in outage.

The station's budget is its equal share of what the harvesters of its
aggregator deliver over their feeder lines. On-site harvesting is the same
supply with one harvester at the station, a zero-length lossless line and one
station per aggregator. The supply, with the scenario's window and its
center-law decision, is built once per scenario and reused by every chunk
(_supply).

Outage is reported per user, E[out_K]/E[K] over K users per cell: by the
Poisson size-bias identity, a typical user's outage probability. Every tally
field is an integer, so chunked or multi-process runs merge exactly. Trials
are grouped by absolute index into blocks of geometry.BLOCK (256), and block
b draws from two streams: its fields from substream(seed, b, FIELD_STREAM),
and its users per cell, two uniforms per user for their distances from the
station, and fading gains, in that order, from substream(seed, b,
USER_STREAM). The cell is 12 congruent right triangles with a vertex at the
station, so a uniform point of one has the cell's distance law, and a user's
distance is drawn from it directly (geometry.hex_cell_distances), floored
at 1e-12.

A boolean field at the window's center alone, which is all a station reads
on-site, or a cluster of one harvester, which sits at the window's center
over a zero-length line, depends on the center process only through the
nearest center's distance D, whose law on the window is exact: Pr(D > r) =
exp(-lambda_e A(r)), A(r) the area of the disk of radius r inside the window
(energy_field.window_disk_area). The station's power is then P = c decay(D),
c its peak power, and the scenario runs by the center law: it draws no field
and integrates it out, F(x) = Pr(P < x) = exp(-lambda_e A(r(x))), r(x) the
distance at which c decay(r) = x (estimator.center_law). Every other scenario
(shot noise, or several harvesters) draws its centers from the field stream:
center counts, center x, center y (energy_field.draw_field), and is on the
centers path.

A trial's user side, everything but the field and the station's power,
depends only on ScenarioConfig.user_settings: lambda_u, lambda_b, theta and
channel. Scenarios with equal user settings form a group, and run_group_chunk
runs a group's trials together, in passes of m * BLOCK consecutive trials:
[a, min(a + m * BLOCK, stop)) for a in range(start, stop, m * BLOCK). A pass
spans as many whole blocks m as keep the bytes it holds at its peak within
_PASS_BYTES (3 MiB), and one at least, as estimated before it draws
(_pass_plan): bytes for each trial the pass holds, and bytes for each trial
up to a cap where a stage holds at most so many trials at once however long
the pass is (the slices of the bound's and the exact stage, _sliced, and
field_values' tiles). fig4's group, 10 users per cell by the center law,
holds about 520 B per trial and runs passes of 23 blocks; fig5's, whose
cluster 320 holds about 790 B per trial beside about 1.7 MB of the exact
stage's slice and tiles, runs passes of 7. One rule draws
a pass's users or centers (_pass_draw): each block the pass spans, whole as
drawn or as views of the part it covers, the blocks joined when there are
several. The last block of each of the two draws is memoized read-only, so
consecutive chunks draw the block an edge between them cuts once.

A pass evaluates its users once for the whole group (_user_side): gain
clamps (users nearer the station than ChannelSpec.min_dist, the path-gain
clamp radius), required powers, and one flat layout of its users: each
user's need, sorted within its trial, then each user's running sum of them,
trial after trial. Rows padded with +inf are only the workspace of the sort
and the running sums. Every count at a power P reads the layout (_outages):
of a trial's k users, equal split covers those whose need is at most P / k,
inversion those whose running sum is at most P, and the union event is a
last running sum above P. The max-power outages (persist_*) are so counted
at each distinct peak station power of the group, once per pass, and a
point on the centers path draws its centers and counts at their station
powers and their bounds (_coverage). The thresholds x are built from the
layout as ln x (estimator.Thresholds), in place when no point counts at
drawn fields and from a copy otherwise, or as ln(peak / x) where the
group's points all run by the center law and share one peak, and every
point integrates its law at them (_point_tally). A pass lets go of all it
holds when it ends (_pass_tallies). run_trials_chunk is the group of
one. A trial's arithmetic depends neither on the other trials of its pass
nor on the other scenarios of its group, so tallies do not depend on where
chunks start and stop, on the worker count, or on which scenarios run
together.

Every point on the centers path settles what it can at a bound: in most of
its trials every user is covered, and one center per realization often shows
it already. Its pass first takes, for each trial with users, the station
power L1 at the field of the realization's center nearest the window's
center (energy_field.nearest_center; where the typical aggregator, or the
on-site station, sits) alone, scaled down by _BOUND_MARGIN (1e-9)
(_Supply.bound). Where the line delivers a fixed share of the budget
(lossless or tau_floor) and the kernel is exponential (_Supply.gain), L1 is
that share of the harvesters' fields summed by axis
(energy_field.nearest_center_total), one decay per distinct coordinate and
trial; otherwise L1 is the station's power at the nearest center alone
(_Supply.power(nearest_center(real))), the exact stage's own evaluation at
one center per trial. A trial is settled when its largest need is at most
L1 / k and its last running sum at most L1, both read from the layout
(_covered). The field at the nearest center alone is, point by point, a
pair value field_values reduces over the whole realization, and the
factored sum differs from its sum only by the rounding of a product of two
exps and of the order it adds in; a boolean kernel's field can only be
larger at the nearest of all the centers and a shot-noise sum only adds
terms, delivered_power increases with the budget and the cluster sums in a
fixed order, so the exact power is at least the bound: the margin, far
above round-off, covers exp and sqrt followed by squaring, and the factored
sum's rounding. At the exact power every user of a settled trial is covered
under both schemes and its union event is false, so counting at the bound
gives the same outages; which trials are settled decides only which are
evaluated exactly. The exact stage runs field_values on the other trials'
realizations only: at any cluster size, on a wrapped window or a flat one.

The control's bound is L = max(L2, L1), L2 the station power at the two
centers nearest the window's center alone (energy_field.nearest_centers),
scaled down by the same margin (_Supply.bound with pair=True): where gain is
set, the gain times the harvesters' fields there from per-axis decays
(energy_field.factored_total), the larger of the two centers' at each
harvester under the boolean kernel and their sum under shot noise;
otherwise _Supply.power at the two centers. It is taken only on the
residual trials, those with a user covered at P and not at L1
(estimator.residual_trials): L1 <= L <= P, so on every other trial each
user is covered at L exactly where it is at L1 and at P, and counting there
at L1 counts at L. The bound's stage, the pair's and the exact stage take their
realizations in slices of at most _TILE_ELEMENTS // harvesters (_sliced),
so a pass holds at most one slice's per-harvester values, and a
realization's L1, L2 and P do not depend on its slice.

A trial tallies, per scheme and for the union event, its outages Y at P and
C at L, and G = E[C | users] from the law of L, which the estimator turns
into estimates (renergy.estimator, estimates_from_tally). By the center law
L = P, so C = Y: the point draws no field and counts neither, and G is the
center law at its thresholds (estimator.center_law). On the centers path the
law of L is tabulated once per scenario, at the first pass that needs it
(_Supply.bound_law, estimator.lattice_law), from the engine's own L2 at
two-center realizations placed by the estimator's lattice rule; L2 >= L1
holds in exact arithmetic, so the table's L is L2. Equal split's mean over
the users is integrated from the same law, the center law's or the table's,
at the first estimate that asks for it (_Supply.equal_split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache, partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .aggregation import (Distributed, LineSpec, build_clusters, certified_efficiency,
                          clustered_window, delivered_power, resolve_line)
from .bounds import (BoundInputs, aggregated_outage_bound, energy_shortfall_bound,
                     fading_tail_terms_equal_split, fading_tail_terms_inversion,
                     max_power_markov_bound, power_law_outage_bound,
                     total_outage_bound)
from .channel import ChannelSpec, ChiSquaredFading, mean_inverse_fading, required_power, \
    sample_fading
from .energy_field import (_TILE_ELEMENTS, _TILE_POINTS, EnergyFieldSpec,
                           FieldRealization, Kernel, draw_field, factored_total, field_values,
                           nearest_center, nearest_center_total, nearest_centers)
from .estimator import (KnownMean, LawTable, OutageEstimate, Scheme, Thresholds, TrialTally,
                        center_law, cover_again, estimates, known_mean, lattice_law, record,
                        residual_trials, thresholds_of)
from .geometry import (BLOCK, FIELD_STREAM, USER_STREAM, PointSet, Window,
                       default_window_side, hex_cell_circumradius, hex_cell_distances,
                       nearest_site_indices, substream)
# bench/run.py traces sample_in_hex_cell here, though the engine no longer calls it
from .geometry import sample_in_hex_cell  # noqa: F401

# glibc's malloc starts with small mmap and trim thresholds (128 KiB) and
# raises both, for the life of the process, when it frees a mapped block
# larger than the current threshold. Left small, the trim threshold hands a
# block's temporaries (about 300 KB per 256 on-site trials) back to the kernel
# at every block, and the next block faults them in again. Freeing one 4 MiB
# array here raises the thresholds once; its pages are never touched, and
# other allocators are unaffected.
_threshold_raiser = np.empty(4 << 20, dtype=np.uint8)
del _threshold_raiser


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

# Values per trial that a point holds beside its law at each threshold: its
# sums per trial and their whole parts (estimator.law_sums), eight by the
# center law and twelve on the centers path.
_CONTROL_ARRAYS = 16
_RESIDUAL_ARRAYS = 8


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
        window = resolve_window(self)
        area = window.area
        window_keys = "field.nu, network.lambda_b, scenario.window_side"
        if isinstance(arch, Distributed):
            window_keys += ", distributed.lambda_a"
            # hex_lattice's own condition, for the aggregators' larger cell
            cell = 2 * hex_cell_circumradius(arch.lambda_a)
            if window.width < cell or window.height < cell:
                raise ValueError(
                    f"the window {window.width:.6g} x {window.height:.6g} cannot contain "
                    f"one full aggregator cell, {cell:.6g} across; raise "
                    f"scenario.window_side or distributed.lambda_a")
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


# On-site harvesting as the one-harvester cluster: the station's own harvester
# over a zero-length lossless line, one station per aggregator.
_ONSITE_LINE = LineSpec(voltage=math.inf)


@dataclass(frozen=True, eq=False)
class _Supply:
    """A scenario as the engine runs it: its window; what powers the typical
    station, the harvesters of its aggregator, their feeder lines and the
    station's equal share of what arrives; and whether it runs by the center
    law (by_law), a boolean field read at one harvester. That harvester is
    on-site, or a cluster's only one, which hex_lattice places at the
    window's center over a zero-length line."""

    cfg: ScenarioConfig
    window: Window
    positions: PointSet       # harvesters feeding the typical aggregator
    line_lengths: np.ndarray
    line: LineSpec
    voltage: float
    stations_per_aggregator: int
    peak_station_power: float = field(init=False)
    by_law: bool = field(init=False)
    gain: float | None = field(init=False)

    def __post_init__(self) -> None:
        cfg = self.cfg
        # eta * gamma, the largest harvester budget
        peak = self.station_power(np.full((len(self.line_lengths), 1), cfg.eta * cfg.field.gamma))
        object.__setattr__(self, "peak_station_power", float(peak[0]))
        object.__setattr__(self, "by_law", cfg.field.kernel is not Kernel.SHOT_NOISE_EXP
                           and len(self.positions) == 1)
        # station power per unit of the harvesters' summed field, where the
        # delivered power is linear in the budget and the kernel factors by
        # axis; None otherwise
        line = self.line
        linear = line.mode == "tau_floor" or math.isinf(self.voltage)
        gain = None
        if linear and cfg.field.kernel is not Kernel.BOOLEAN_MAX_PLAW:
            gain = cfg.eta * (line.tau if line.mode == "tau_floor" else 1.0) \
                / self.stations_per_aggregator
        object.__setattr__(self, "gain", gain)

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

    def power(self, real: FieldRealization) -> np.ndarray:
        """The station power P at each realization of a block: station_power
        at the budgets eta times field_values at the harvesters (the values
        themselves at eta = 1), in slices (_sliced)."""
        def at(part: FieldRealization) -> np.ndarray:
            values = field_values(part, self.positions)
            if self.cfg.eta != 1.0:
                values *= self.cfg.eta
            return self.station_power(values)
        return _sliced(self, real, at)

    def bound(self, real: FieldRealization, pair: bool = False) -> np.ndarray:
        """The station power at each realization's nearest center alone
        (nearest_center), L1, or with pair at its two nearest centers alone
        (nearest_centers), L2, scaled down by _BOUND_MARGIN. Where the line
        is linear and the kernel exponential (gain), it is the gain times
        the harvesters' fields there from per-axis decays, in slices
        (_sliced): summed by axis at one center (nearest_center_total), at
        two by harvester (factored_total). Otherwise it is the station's
        power there, power(nearest_center(real)) or power(nearest_centers(
        real, 2)). Either way it is at most P: the factored sums differ from
        the harvester by harvester one only by round-off, far below the
        margin."""
        if self.gain is None:
            out = self.power(nearest_centers(real, 2) if pair else nearest_center(real))
        else:
            total = partial(factored_total if pair else nearest_center_total,
                            points=self.positions)
            out = _sliced(self, nearest_centers(real, 2) if pair else real, total)
            out *= self.gain
        out *= 1.0 - _BOUND_MARGIN
        return out

    @cached_property
    def equal_split(self) -> KnownMean | None:
        """Equal split's p integrated over the users from the law the point
        tallies, the center law's or the bound's table, built at the first
        estimate that asks for it (estimator.known_mean)."""
        if not self.by_law:
            return known_mean(self.cfg, self.bound_law.at)
        return known_mean(self.cfg, lambda logs: center_law(
            self.cfg.field, self.window, self.peak_station_power,
            Thresholds(logs, None, float(logs.min()), None, 0)))

    @cached_property
    def bound_law(self) -> LawTable:
        """The law of the station power at the two-center bound, built at
        the first pass that asks for it from the bound itself
        (estimator.lattice_law)."""
        return lattice_law(partial(self.bound, pair=True), self.cfg.field, self.window)


def _sliced(supply: _Supply, real: FieldRealization, evaluate) -> np.ndarray:
    """evaluate(part), one value per realization of part, over a block's
    realizations at most _TILE_ELEMENTS // harvesters at a time, so that an
    array of one value per harvester and realization holds at most
    _TILE_ELEMENTS values however long the block is. A realization's value
    does not depend on its slice."""
    n = len(real.counts)
    step = max(1, _TILE_ELEMENTS // len(supply.positions))
    if n <= step:
        return evaluate(real)
    out = np.empty(n)
    for lo in range(0, n, step):
        out[lo:lo + step] = evaluate(real.select(lo, min(lo + step, n)))
    return out


@lru_cache(maxsize=32)
def _supply(cfg: ScenarioConfig) -> _Supply:
    """A scenario's one engine record, built once: every chunk of trials,
    and every field block, reuses it, along with its window and its
    harvester positions' axis factorization."""
    arch = cfg.architecture
    window = resolve_window(cfg)
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
    return _Supply(cfg, window, PointSet(positions), lengths, line, voltage, n_per)


@dataclass(frozen=True, eq=False)
class _UserDraws:
    """The users of a run of consecutive trials, in stream order: the users
    per trial, their distances from the station and their fading gains,
    trial by trial."""

    users: np.ndarray
    distance: np.ndarray
    fading: np.ndarray

    def select(self, lo: int, hi: int) -> "_UserDraws":
        """Trials lo..hi-1, as views."""
        first = int(self.users[:lo].sum())
        last = first + int(self.users[lo:hi].sum())
        return _UserDraws(self.users[lo:hi], self.distance[first:last],
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


@lru_cache(maxsize=1)
def _draw_users(cfg: ScenarioConfig, seed: int, block: int) -> _UserDraws:
    """Block `block` of users, drawn read-only from its user stream: users
    per cell, each user's distance from the station, then fading."""
    rng = substream(seed, block, USER_STREAM)
    users = rng.poisson(cfg.mean_users_per_cell, BLOCK)
    n = int(users.sum())
    distance = hex_cell_distances(hex_cell_circumradius(cfg.lambda_b), n, rng)
    np.maximum(distance, 1e-12, out=distance)
    draws = _UserDraws(users, distance, sample_fading(cfg.channel, rng, n))
    for a in (users, distance, draws.fading):
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
    depend on the field, the outages at each peak power, its trials with
    users (busy), the users k of each and where each one's last running sum
    lies in the layout (see the module docstring); the layout where a point
    counts at drawn fields, and the thresholds."""

    tally: TrialTally
    persist: dict[float, tuple[int, int]]
    busy: np.ndarray
    k: np.ndarray
    last: np.ndarray
    flat: np.ndarray | None = None
    thresholds: Thresholds | None = None


def _user_side(supplies: list[_Supply], seed: int, a: int, b: int) -> _UserSide:
    """Trials [a, b)'s users, drawn and evaluated once for the group of the
    supplies. The draws are let go before the padded rows are built, and the
    rows before the outages are counted."""
    cfg = supplies[0].cfg
    draws = _pass_draw(partial(_draw_users, cfg, seed), a, b)
    k = draws.users
    tally = TrialTally(trials=len(k), zero_user_trials=int(np.count_nonzero(k == 0)),
                       users=len(draws.distance),
                       gain_clamps=int(np.count_nonzero(draws.distance < cfg.channel.min_dist)))
    need = required_power(cfg.theta, draws.distance, draws.fading, cfg.channel)
    del draws
    # Rows padded with +inf, the workspace of the sort and the running sum: a
    # row's cumsum is np.cumsum(np.sort(need)) bit for bit. A trial's users
    # fill its row's first places, before and after the sort.
    rows = np.full((len(k), int(k.max())), np.inf)
    place = np.flatnonzero(np.arange(rows.shape[1]) < k[:, None])
    np.put(rows, place, need)
    del need
    rows.sort(axis=1)
    users = tally.users
    flat = np.empty(2 * users)
    # place is in range, and only mode="clip" fills out without a temporary
    np.take(rows, place, out=flat[:users], mode="clip")
    np.take(np.cumsum(rows, axis=1, out=rows), place, out=flat[users:], mode="clip")
    del rows, place
    busy = k > 0
    k = k[busy]
    side = _UserSide(tally, {}, busy, k, np.cumsum(k) + (users - 1), flat)
    # the max-power outages depend only on the users and the peak
    persist = {peak: _outages(side, peak)
               for peak in dict.fromkeys(s.peak_station_power for s in supplies)}
    # a point on the centers path reads the layout and integrates its
    # bound's law at ln x; center-law points alone share ln(peak / x)
    counted = not all(s.by_law for s in supplies)
    law_peaks = () if counted else tuple(dict.fromkeys(s.peak_station_power
                                                       for s in supplies))
    thresholds = thresholds_of(flat.copy() if counted else flat, k, law_peaks)
    return replace(side, persist=persist, flat=flat if counted else None,
                   thresholds=thresholds)


def _outages(side: _UserSide, power: float) -> tuple[int, int]:
    """Users in outage under equal split and under inversion at one station
    power: of a trial's k users, equal split covers those whose need is at
    most power / k, inversion those whose running sum is at most power."""
    k, users = side.k, side.tally.users
    return (users - int(np.count_nonzero(side.flat[:users] <= np.repeat(power / k, k))),
            users - int(np.count_nonzero(side.flat[users:] <= power)))


# Relative margin by which a point on the centers path scales its bound on a
# station's power down before it settles trials with it: far above the
# round-off by which the bound's arithmetic (exp, sqrt followed by squaring,
# the line and the cluster's sum) could exceed the exact power's at a larger
# field.
_BOUND_MARGIN = 1e-9


def _covered(side: _UserSide, power) -> np.ndarray:
    """Whether every user of each trial with users is covered under both
    schemes at one station power or at each trial's: its largest need at
    most power / k, and its last running sum at most power, which also rules
    out its union event."""
    last = side.last
    return (side.flat[last - side.tally.users] <= power / side.k) & (side.flat[last] <= power)


def _realizations(real: FieldRealization, busy: np.ndarray,
                  picked: np.ndarray) -> FieldRealization:
    """The realizations of the trials at positions picked among those with
    users: the pass's block as drawn where that is every trial of it, as
    when every trial has users and all are picked."""
    if len(picked) == len(busy):
        return real
    keep = np.zeros(len(busy), dtype=bool)
    keep[np.flatnonzero(busy)[picked]] = True
    return real.compress(keep)


def _point_tally(supply: _Supply, side: _UserSide, law: LawTable | None, seed: int,
                 a: int, b: int) -> TrialTally:
    """A pass's tally at one scenario: each trial's Z = Y + G - C against
    trials [a, b)'s users, per scheme and for the union event, with its
    moments. law is the supply's bound law, or None by the center law, where
    L = P: the trial's outages C and Y are then equal and left uncounted,
    and G is the center law's, F at the thresholds (estimator.center_law).

    Otherwise every trial with users first takes a bound L1 on its power
    from its drawn field's nearest center (_Supply.bound), at most the exact
    power P. A trial whose users are all covered at L1 (_covered) is covered
    at P too: it is settled, and L1 stands in for P. P is evaluated
    (_Supply.power) only on the realizations of the other trials with
    users, and not at all when every one is settled. The residual trials
    (estimator.residual_trials) then take L = max(L2, L1) from their two
    nearest centers (_Supply.bound with pair), every other trial L = L1. Each
    trial's outages Y at P are counted, and so are its outages C at L, of
    which Y are part as L <= P (_coverage), and G is the bound's law at the
    thresholds (LawTable.at): the estimator records each trial's Z = G - (C
    - Y) (estimator.record)."""
    tally = replace(side.tally)
    if tally.users == 0:
        return tally
    tally.persist_ci, tally.persist_inv = side.persist[supply.peak_station_power]
    tally.k_sq = side.thresholds.k_sq
    if law is None:
        record(tally, side, center_law(supply.cfg.field, supply.window,
                                       supply.peak_station_power, side.thresholds))
    else:
        real = _pass_draw(partial(_draw_fields, supply.cfg.field, supply.window, seed), a, b)
        busy, k = side.busy, side.k
        bound = supply.bound(_realizations(nearest_center(real), busy, np.arange(len(k))))
        power = bound.copy()
        unsettled = np.flatnonzero(~_covered(side, bound))
        if len(unsettled):
            power[unsettled] = supply.power(_realizations(real, busy, unsettled))
        covered = _coverage(side, power, bound)
        pair = residual_trials(side, covered)
        if len(pair):
            two = supply.bound(_realizations(real, busy, pair), pair=True)
            bound[pair] = np.maximum(two, bound[pair])
            cover_again(side, covered[1], bound, pair)
        record(tally, side, law.at(side.thresholds.values), covered)
    return tally


def _coverage(side: _UserSide, power: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Whether each user of the layout is covered, (2, 2 users): at each
    trial's power (row 0) and at its bound (row 1), as _outages counts:
    under equal split where its need is at most the power / k, under
    inversion where its running sum is at most the power. The bound is
    never above the power, so a user covered at the bound is covered at the
    power, and a settled trial, whose power is its bound, alike at both."""
    k, n = side.k, len(side.k)
    # each user's reach: its share of the power under equal split, the power
    # itself under inversion
    reach = np.empty((2, 2 * n))
    np.divide(power, k, out=reach[0, :n])
    reach[0, n:] = power
    np.divide(bound, k, out=reach[1, :n])
    reach[1, n:] = bound
    return side.flat <= np.repeat(reach, np.concatenate((k, k)), axis=1)


class _Bytes(NamedTuple):
    """Bytes one stage of a pass holds at its peak, n trials long:
    per_trial bytes for each trial, and for each capped pair (b, m), b
    bytes for each of its first m trials, the most that stage holds at once
    however long the pass is: per_trial n + sum b min(n, m)."""

    per_trial: float
    capped: tuple[tuple[float, float], ...] = ()

    def at(self, n: int) -> float:
        return self.per_trial * n + sum([b * min(n, m) for b, m in self.capped])

    def fits(self) -> float:
        """The most trials whose bytes stay within _PASS_BYTES."""
        n, used = 0.0, 0.0
        slope = self.per_trial + sum([b for b, _ in self.capped])
        for b, m in sorted(self.capped, key=itemgetter(1)):
            if used + slope * (m - n) > _PASS_BYTES:
                break
            used += slope * (m - n)
            n, slope = m, slope - b
        return n + (_PASS_BYTES - used) / slope


def _pass_plan(supplies: list[_Supply]) -> tuple[int, float]:
    """The trials a pass of a group spans and the bytes it holds at its
    peak, estimated before it draws: as many whole blocks as keep every
    stage's bytes (_Bytes) within _PASS_BYTES, one at least, and the most
    any stage holds at that length. The stages: the largest of its user
    draws joined beside the blocks they join; the padded rows, the workspace
    of the sort and the running sums, beside each user's place in them and
    the flat layout they fill; and what the pass keeps of its users beside
    each point of the group (_point_bytes)."""
    mu = supplies[0].cfg.mean_users_per_cell
    counted = not all(s.by_law for s in supplies)
    draws = 8 * (1 + 2 * mu)            # users per trial; each user's distance and fading
    width = mu + 4 * math.sqrt(mu) + 4  # a Poisson(mu) count exceeds it w.p. < 4e-5
    # the rows, each user's place in them and the layout, 5 per-trial arrays
    # and one mask
    rows = 8 * (width + 3 * mu + 5) + width
    # the thresholds, and the layout they are a copy of where a point counts
    # at drawn fields, and 5 per-trial arrays
    kept = 8 * (2 * mu * (1 + counted) + 5)
    stages = [_Bytes(max(2 * draws, rows))]
    for supply in supplies:
        stages += _point_bytes(supply, mu, kept)
    n = BLOCK * max(1, int(min(stage.fits() for stage in stages) // BLOCK))
    return n, max(stage.at(n) for stage in stages)


def _point_bytes(supply: _Supply, mu: float, kept: float) -> list[_Bytes]:
    """The stages of a pass at one point, mu users per trial, beside kept
    bytes per trial of its users (_Bytes). By the center law, one: F at
    each threshold and _CONTROL_ARRAYS values per trial.

    On the centers path the nearest-center search holds, per center, the
    joined centers and three values of its own, beside the last block of
    centers drawn (_draw_fields). Every later stage holds, per trial, its
    centers twice (joined, and as taken for the exact stage), its nearest
    center, its bound and its power, and that last block. Beside them one
    of: the control's arrays, per threshold the bound law's value, node and
    fraction, and _CONTROL_ARRAYS + _RESIDUAL_ARRAYS values per trial; the
    exact stage's slice beside field_values' tile arrays, or beside
    delivered_power's; the two-center bound's slice, three values per
    harvester and trial; and, where the bound is summed by axis
    (_Supply.gain), its slice. A slice
    (_sliced) holds at most _TILE_ELEMENTS // harvesters trials and a tile
    at most _TILE_ELEMENTS / m centers, m the most rows of its arrays, so
    those are capped however long the pass is. Per trial of a slice, the
    summed bound holds one gather per harvester beside each distinct x's
    and y's decay. Any other bound is the exact stage at one center per
    trial, within what that stage books. The exact stage holds per
    harvester the field values, and delivered_power makes three arrays of
    them on an exact line at a finite voltage (the quadratic's
    temporaries), one on a tau_floor line (their product) and none on a
    lossless one. A tile holds per center three rows of one axis's distinct
    coordinates beside one of the other's, then both beside the pairs and
    the gather they combine with, a row each per tile point."""
    control = kept + 8 * (2 * mu + _CONTROL_ARRAYS)
    if supply.by_law:
        return [_Bytes(control)]
    harvesters = len(supply.positions)
    ux, _, uy, _ = supply.positions.axes
    centers = supply.cfg.field.lambda_e * supply.window.area
    # delivered_power's arrays per harvester beside the budgets
    line = 3 if supply.line.mode == "exact" and math.isfinite(supply.voltage) else \
        int(supply.line.mode == "tau_floor")
    # each trial's centers twice, its nearest center, bound and power; the
    # last block drawn
    held = kept + 8 * (4 * centers + 4)
    memo = (16 * centers, BLOCK)
    sliced = max(1, _TILE_ELEMENTS // harvesters)
    points = min(harvesters, _TILE_POINTS)
    tile = max(3 * len(ux), len(ux) + 3 * len(uy), len(ux) + len(uy) + 2 * points)
    tiled = _TILE_ELEMENTS / max(points, len(ux), len(uy)) / centers
    stages = [_Bytes(kept + 8 * 5 * centers, (memo,)),
              _Bytes(held + 8 * (6 * mu + _CONTROL_ARRAYS + _RESIDUAL_ARRAYS), (memo,)),
              _Bytes(held, (memo, (8 * harvesters, sliced), (8 * tile * centers, tiled))),
              _Bytes(held, (memo, (24 * harvesters, sliced))),
              _Bytes(held, (memo, (8 * harvesters * (1 + line), sliced)))]
    if supply.gain is not None:
        stages.append(_Bytes(held, (memo, (8 * (harvesters + len(ux) + len(uy)), sliced))))
    return stages


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
    supplies = [_supply(cfg) for cfg in cfgs]
    step, _ = _pass_plan(supplies)
    tallies = [TrialTally() for _ in cfgs]
    for a in range(start, stop, step):
        passed = _pass_tallies(supplies, seed, a, min(a + step, stop))
        tallies = [t + p for t, p in zip(tallies, passed)]
    return tallies


def _pass_tallies(supplies: list[_Supply], seed: int, a: int, b: int) -> list[TrialTally]:
    """Trials [a, b) as one pass at each scenario of a group: the users
    evaluated once, then each scenario's tally (_point_tally). What the pass
    holds is let go when it returns, before the next pass draws."""
    # a point on the centers path builds its bound's law at its first pass,
    # before the pass holds anything
    laws = [None if s.by_law else s.bound_law for s in supplies]
    side = _user_side(supplies, seed, a, b)
    return [_point_tally(s, side, law, seed, a, b) for s, law in zip(supplies, laws)]


def run_trials_chunk(cfg: ScenarioConfig, start: int, stop: int, seed: int) -> TrialTally:
    """Run trials [start, stop) of the given master seed and tally events for
    both schemes from shared draws: the group of one."""
    [tally] = run_group_chunk((cfg,), start, stop, seed)
    return tally


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
    attached bounds (estimator.estimates), with equal split's known mean
    where the scenario has one (_Supply.equal_split)."""
    known = _supply(cfg).equal_split if tally.users > 0 else None
    return estimates(tally, known, partial(bound_values, cfg))


def simulate_both(cfg: ScenarioConfig, n_trials: int, seed: int
                  ) -> dict[Scheme, OutageEstimate]:
    """Serial run of n_trials; both schemes come from the same draws."""
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    tally = run_trials_chunk(cfg, 0, n_trials, seed)
    return estimates_from_tally(cfg, tally)

