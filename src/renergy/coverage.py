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
and integrates it out. With F(x) = Pr(P < x) = exp(-lambda_e A(r(x))), r(x)
the distance at which c decay(r) = x (_Supply.shortfall), a trial of k users
adds its expected outages given its users: sum_i F(k need_i) under equal
split, sum_i F(csum_i) under inversion (csum_i the running sums of its
sorted needs), and F(total) to the union events. Each trial's expected
counts are rounded once to units of 2^-32 and summed exactly, with their
second moments, so the point's interval is Wilson's at its effective users
and Student's t quantile; with no spread in its expected outages (none
expected among them), or fewer than 2 trials with users, it keeps Wilson's
at its users (estimates_from_tally; TrialTally.in_users reads the counts in
users). Every other scenario (shot noise, or several harvesters) draws its
centers from the field stream: center counts, center x, center y
(energy_field.draw_field), and takes the one-center control below.

A trial's user side, everything but the field and the station's power,
depends only on ScenarioConfig.user_settings: lambda_u, lambda_b, theta and
channel. Scenarios with equal user settings form a group, and run_group_chunk
runs a group's trials together, in passes of m * BLOCK consecutive trials:
[a, min(a + m * BLOCK, stop)) for a in range(start, stop, m * BLOCK). A pass
spans as many whole blocks m as keep the bytes it holds at its peak within
_PASS_BYTES (3 MiB), and one at least, as estimated before it draws
(_pass_bytes_per_trial). fig4's group, 10 users per cell by the center law,
holds about 520 B per trial and runs passes of 23 blocks; fig5's, whose
cluster 320 holds about 7.1 KB per trial, runs passes of one. One rule draws
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
powers and their bounds (_drawn_tally, _coverage). The thresholds x are built
from the layout as ln x (_Thresholds), in place when no point counts at
drawn fields and from a copy otherwise, and each center-law point (as
ln(peak / x) where they share one peak, _expected_tally) and each point on
the centers path integrates its law at them. A pass lets go of
all it holds when it ends (_pass_tallies). run_trials_chunk is the group of
one. A trial's arithmetic depends neither on the other trials of its pass
nor on the other scenarios of its group, so tallies do not depend on where
chunks start and stop, on the worker count, or on which scenarios run
together.

Every point on the centers path settles what it can at a bound: in most of
its trials every user is covered, and one center per realization often shows
it already. Its pass first takes the station power L at
energy_field.nearest_center_bound, the field of the realization's center
nearest the window's center (where the typical aggregator, or the on-site
station, sits) alone, scaled down by _BOUND_MARGIN (1e-9), of each trial
with users. A trial is settled
when its largest need is at most that bound / k and its last running sum at
most the bound, both read from the layout (_covered). The bound's pairs are
floats field_values computes too, a boolean kernel's field can only be
larger at the nearest of all the centers and a shot-noise sum only adds
terms, delivered_power increases with the budget and the cluster sums in a
fixed order, so the exact power is at least the bound: the margin, far above
round-off, covers exp and sqrt followed by squaring. At the exact power
every user of a settled trial is covered under both schemes and its union
event is false, so counting at the bound gives the same outages; which
trials are settled decides only which are evaluated exactly. field_values
runs on the other trials' realizations only: at any cluster size, on a
wrapped window or a flat one.

The bound is also the point's control. Per scheme and for the union event,
a trial's outages Y at its exact power P are counted as events, and so are
its outages C at L, C >= Y user by user as L <= P (a settled trial has
C = Y = 0). Their expectation given the users, G, is sum F_L(k need) under
equal split, sum F_L(csum) under inversion and F_L(total) for the union
event, F_L(x) = Pr(L < x) being L's law: the center law's sums, at the
bound's law. The trial tallies Z = Y + G - C, whose mean is Y's and from
whose spread most of the field's is gone, since the nearest center decides
most outages: Y, C and G per scheme (TrialTally's bound_* and law_*), and
Z's moments in place of the center law's expected outages'. Its interval
is the center law's, from Z's moments (estimates_from_tally), with a lower
end that allows for residual outages C - Y the run did not draw; a sum of
Z not above zero reads as no outage. F_L is tabulated once per scenario, at
the first pass that needs it (_Supply.bound_law, _bound_law), from the
engine's own L at one-center realizations placed by a shifted lattice
(energy_field.nearest_center_realizations), fixed for every scenario so
that tallies depend on no process or worker count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache, partial
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
from .energy_field import (_TILE_ELEMENTS, _TILE_POINTS, EnergyFieldSpec,
                           FieldRealization, Kernel, draw_field, field_values,
                           nearest_center_bound, nearest_center_realizations,
                           window_disk_area)
from .geometry import (BLOCK, FIELD_STREAM, USER_STREAM, PointSet, Window,
                       default_window_side, hex_cell_circumradius, hex_cell_distances,
                       nearest_site_indices, substream)
# bench/run.py traces sample_in_hex_cell here, though the engine no longer calls it
from .geometry import sample_in_hex_cell  # noqa: F401
from .stats import t_quantile_975, wilson_ci, wilson_interval

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

# Values per trial that a scenario run by the center law holds beside its
# shortfall at each threshold: seven per-trial sums and their whole parts.
_LAW_ARRAYS = 14

# Values per trial that a point on the centers path holds beside its bound
# law at each threshold: seven sums per trial and their whole parts, and
# the two estimates Z.
_CONTROL_ARRAYS = 16

# The unit of a center-law point's expected counts is 2^-32 (see TrialTally).
_FIXED_POINT = 1 << 32

# The table of a point's one-center law (_BoundLaw): a Fibonacci lattice of
# F_23 points with generator F_22, under one shift fixed for every scenario
# (numpy's default_rng(20140408).random(2), written out so that importing
# the module loads no generator), and the nodes of its grid, uniform in ln x.
_LATTICE, _LATTICE_STEP = 28657, 17711
_LATTICE_SHIFT = (0.07424495059502512, 0.2099421446370625)
_LAW_NODES = 4096


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


@dataclass
class TrialTally:
    """Integer event sums; adding tallies merges runs exactly.

    A point the engine runs by the center law (see the module docstring)
    tallies out_ci, out_inv and union_trials as expected counts in fixed
    point, in units of 2^-32 (_FIXED_POINT), each trial's expected count
    rounded to the unit once. A point on the centers path counts them as
    events, its outages Y at each trial's exact power, and beside them its
    outages C at the trial's one-center bound (bound_*, counts) and their
    expectation G given the trial's users under the bound's law (law_*, in
    2^-32 units: each trial's Z, below, rounded to the unit, with C - Y
    added back), per scheme and for the union event; drawn_trials counts
    its trials with users. Either point sums, over its trials, the second
    moments of each scheme's per-trial estimate e and users k in 2^-32
    units: e^2 (sq_*) and e k (ek_*), and k^2 in whole users (k_sq), which
    is positive exactly when the point has users. e is the expected outages
    at a center-law point and Z = Y + G - C on the centers path. Every other
    count, the max-power outages (persist_*) among them, is a count of
    events."""

    trials: int = 0
    zero_user_trials: int = 0
    users: int = 0
    out_ci: int = 0
    persist_ci: int = 0
    out_inv: int = 0
    persist_inv: int = 0
    union_trials: int = 0
    gain_clamps: int = 0
    k_sq: int = 0
    sq_ci: int = 0
    sq_inv: int = 0
    ek_ci: int = 0
    ek_inv: int = 0
    drawn_trials: int = 0
    bound_ci: int = 0
    bound_inv: int = 0
    bound_union: int = 0
    law_ci: int = 0
    law_inv: int = 0
    law_union: int = 0

    def __add__(self, other: "TrialTally") -> "TrialTally":
        return TrialTally(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                             for f in fields(self)})

    @property
    def expected(self) -> bool:
        """Whether out_ci, out_inv and union_trials are expected counts in
        2^-32 units: a center-law point that has users."""
        return self.k_sq > 0 and not self.drawn_trials

    def in_users(self, count: int) -> float:
        """One of out_ci, out_inv or union_trials in outages or events: an
        expected count at a center-law point, else the count itself."""
        return count / _FIXED_POINT if self.expected else count


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

    def __post_init__(self) -> None:
        cfg = self.cfg
        # eta * gamma, the largest harvester budget
        peak = self.station_power(np.full((len(self.line_lengths), 1), cfg.eta * cfg.field.gamma))
        object.__setattr__(self, "peak_station_power", float(peak[0]))
        object.__setattr__(self, "by_law", cfg.field.kernel is not Kernel.SHOT_NOISE_EXP
                           and len(self.positions) == 1)

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

    def field_power(self, values: np.ndarray) -> np.ndarray:
        """station_power at field values, (harvesters, trials), which become
        the budgets eta * values in place (values themselves at eta = 1)."""
        if self.cfg.eta != 1.0:
            values *= self.cfg.eta
        return self.station_power(values)

    @cached_property
    def bound_law(self) -> "_BoundLaw":
        """The law of the station power at the one-center bound, built at
        the first pass that asks for it (_bound_law)."""
        return _bound_law(self)

    def shortfall(self, th: "_Thresholds") -> np.ndarray:
        """F(x) = Pr(P < x) at a pass's thresholds x, as a new array, for the
        power P of a station run by the center law.

        P is the station's peak power c times the kernel's decay at the
        nearest center's distance D, so P < x exactly when D exceeds r(x),
        where the decay falls to x / c: r(x)^2 = nu ln(c / x) for the
        exponential kernel and nu (c / x - 1) for the power law, and 0 from
        x = c on. No center lies within r of the window's center with
        probability exp(-lambda_e A(r)) (energy_field.window_disk_area), and
        A(r) = pi r^2 up to half the window's shorter side;
        window_disk_area runs only where r(x) exceeds it."""
        spec, window = self.cfg.field, self.window
        half = 0.5 * min(window.width, window.height)
        near = half * half / spec.nu    # r^2 / nu at half the shorter side
        power_law = spec.kernel is Kernel.BOOLEAN_MAX_PLAW
        log_peak = math.log(self.peak_station_power)
        # ln(c / x), 0 from x = c on: the thresholds' own where they hold it
        own = th.peak != self.peak_station_power
        t = np.maximum(log_peak - th.values, 0.0) if own else th.values
        if power_law:
            t = np.expm1(t, out=t if own else None)    # c / x - 1
            own = True
        # t = r(x)^2 / nu; a margin keeps the test on the log scale from
        # missing a value the exact test below would catch
        far = None
        if log_peak - th.least > (math.log1p(near) if power_law else near) * (1.0 - 1e-9):
            far = np.flatnonzero(t > near)
            area = window_disk_area(np.sqrt(spec.nu * t[far]), window)
        f = np.multiply(t, -math.pi * spec.psi, out=t if own else None)   # -lambda_e pi r^2
        if far is not None:
            f[far] = -spec.lambda_e * area
        return np.exp(f, out=f)


@dataclass(frozen=True, eq=False)
class _BoundLaw:
    """F(x) = Pr(L < x) for a point's station power L at the one-center
    bound, tabulated at nodes uniform in ln x: node j sits at
    lo + j / scale, F is its value there and slope its rise to the next
    node, 0 from the last."""

    lo: float
    scale: float
    f: np.ndarray
    slope: np.ndarray

    def at(self, logs: np.ndarray) -> np.ndarray:
        """F at thresholds x from their logs, as a new array: linear in ln x
        between nodes, the first node's value below them and the last's,
        1, above."""
        t = logs - self.lo
        t *= self.scale
        np.clip(t, 0.0, len(self.f) - 1, out=t)
        node = np.floor(t)
        t -= node
        node = node.astype(np.intp)
        f = self.slope[node]
        f *= t
        f += self.f[node]
        return f


def _bound_law(supply: _Supply) -> _BoundLaw:
    """A point's one-center law, from the station power at the bound of
    _LATTICE realizations that each hold the nearest center alone, placed by
    the points of a shifted lattice (energy_field.nearest_center_realizations).
    Each power is the engine's own bound, nearest_center_bound through
    _Supply.field_power and scaled down by _BOUND_MARGIN, built BLOCK
    realizations at a time; only the table is kept. Its grid spans the
    smallest positive power and the largest in _LAW_NODES - 3 equal steps of
    ln x, one step beyond each: F is the share of the powers below each
    node, the empty windows' share at the first and 1 at the last."""
    spec, window, n = supply.cfg.field, supply.window, _LATTICE
    power = np.empty(n)
    for a in range(0, n, BLOCK):
        i = np.arange(a, min(a + BLOCK, n))
        u = (i / n + _LATTICE_SHIFT[0]) % 1.0
        v = (i * _LATTICE_STEP % n / n + _LATTICE_SHIFT[1]) % 1.0
        real = nearest_center_realizations(spec, window, u, v)
        power[a:a + len(i)] = supply.field_power(nearest_center_bound(real, supply.positions))
    power *= 1.0 - _BOUND_MARGIN
    power.sort()
    nodes = _LAW_NODES
    empty = int(np.searchsorted(power, 0.0, side="right"))
    if empty == n:   # no center reaches the harvesters: L = 0 below every x
        return _BoundLaw(0.0, 1.0, np.ones(nodes), np.zeros(nodes))
    least, most = math.log(power[empty]), math.log(power[-1])
    step = (most - least) / (nodes - 3) if most > least else 1.0
    lo = least - step
    f = np.searchsorted(power, np.exp(lo + step * np.arange(nodes)), side="left") / n
    return _BoundLaw(lo, 1.0 / step, f, np.diff(f, append=f[-1]))


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
class _Thresholds:
    """A pass's thresholds x, at which the center law and the bound's law
    are integrated, in its users' layout (see _UserSide): k times each
    user's need (equal split), then each user's running sum (inversion).
    values are ln x, or ln(peak / x) floored at 0 where the group's points
    are all center-law points that share one peak. Beside them: the
    smallest ln x, where each trial's users start in each of the two parts,
    and the sum of k^2."""

    values: np.ndarray
    peak: float | None
    least: float
    starts: np.ndarray
    k_sq: int


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
    thresholds: _Thresholds | None = None


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
    thresholds = _thresholds(flat.copy() if counted else flat, k, law_peaks)
    return replace(side, persist=persist, flat=flat if counted else None,
                   thresholds=thresholds)


def _thresholds(x: np.ndarray, k: np.ndarray, law_peaks: tuple) -> _Thresholds:
    """The thresholds of a pass's trials with users, k users each, taken in
    place from their layout x."""
    users = len(x) // 2
    x[:users] *= np.repeat(k, k)
    logs = np.log(x, out=x)
    least = float(logs.min(initial=math.inf))
    peak = law_peaks[0] if len(law_peaks) == 1 else None
    if peak is not None:   # as _Supply.shortfall would take it
        np.subtract(math.log(peak), logs, out=logs)
        np.maximum(logs, 0.0, out=logs)
    first = np.cumsum(k) - k
    # k < 2^31, and a pass's trials keep the sum of k^2 below 2^63
    return _Thresholds(logs, peak, least, np.concatenate((first, first + users)),
                       int((k * k).sum()))


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


def _drawn_tally(supply: _Supply, side: _UserSide, law: _BoundLaw, seed: int, a: int,
                 b: int) -> TrialTally:
    """A pass's tally at a scenario on the centers path: the station powers
    of trials [a, b)'s drawn fields at the supply's harvesters against its
    users, with the one-center control at law, the supply's bound law.

    Every trial with users first takes a bound L on its power from its
    field's nearest_center_bound, at most the exact power P once scaled down
    by _BOUND_MARGIN. A trial whose users are all covered at L (_covered) is
    covered at P too: it is settled, and L stands in for P. field_values runs
    only on the realizations of the other trials with users, and not at all
    when every one is settled. Each trial's outages Y at P are counted, and
    so are its outages C at L, of which Y are part as L <= P (_coverage).
    Their expectation G given the users is the bound's law at the
    thresholds (_BoundLaw.at); less 1 at each user covered at P and not at
    L, the center law's sums (_law_sums) give each trial's Z = Y + G - C =
    G - (C - Y), which has Y's mean and most of the field's spread taken
    out."""
    tally = replace(side.tally)
    if tally.users == 0:
        return tally
    real = _pass_draw(partial(_draw_fields, supply.cfg.field, supply.window, seed), a, b)
    busy, k, users = side.busy, side.k, tally.users
    bound = supply.field_power(nearest_center_bound(
        _realizations(real, busy, np.arange(len(k))), supply.positions))
    bound *= 1.0 - _BOUND_MARGIN
    power = bound.copy()
    unsettled = np.flatnonzero(~_covered(side, bound))
    if len(unsettled):
        power[unsettled] = supply.field_power(field_values(
            _realizations(real, busy, unsettled), supply.positions))
    covered = _coverage(side, power, bound)
    # users in outage under each scheme, and union events (a last running
    # sum not covered), at the power (Y) and at the bound (C)
    counts = [(users - np.count_nonzero(covered[:, :users], axis=1)).tolist(),
              (users - np.count_nonzero(covered[:, users:], axis=1)).tolist(),
              (len(k) - np.count_nonzero(np.take(covered, side.last, axis=1), axis=1)).tolist()]
    (tally.out_ci, tally.bound_ci), (tally.out_inv, tally.bound_inv), \
        (tally.union_trials, tally.bound_union) = counts
    tally.persist_ci, tally.persist_inv = side.persist[supply.peak_station_power]
    # F_L at each threshold, less 1 where its user is covered at the power
    # and not at the bound: a trial's sums are its Z = G - (C - Y), and G
    # adds C - Y back
    z = law.at(side.thresholds.values)
    z -= covered[0] > covered[1]
    sums = _law_sums(z, side)
    tally.law_ci, tally.law_inv, tally.law_union = (
        zs + ((c - y) << 32) for zs, (y, c) in zip(sums, counts))
    tally.sq_ci, tally.sq_inv, tally.ek_ci, tally.ek_inv = sums[3:]
    tally.k_sq, tally.drawn_trials = side.thresholds.k_sq, len(k)
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


# Float sums of whole numbers are exact below 2^53.
_EXACT_SUMS = 2.0 ** 53


def _fixed_point_sums(e: np.ndarray) -> list[int]:
    """The sum of each row of e, values of either sign each rounded to units
    of 2^-32, exactly: the whole parts and the fractions' units are summed
    apart, as whole numbers in float64, since rint(v 2^32) = floor(v) 2^32 +
    rint((v - floor(v)) 2^32) for the even floor(v) 2^32. A row's sum may
    pass 2^63 units at many users per trial, but either part's stays far
    below 2^53, where float sums of whole numbers are exact (about 2^44 at
    the ScenarioConfig cap of 2^26 users per block, whose passes hold one
    block). Every partial sum of a row's whole parts is at most the sum of
    their magnitudes, and a part whose sum of magnitudes reaches 2^53
    raises. e is left holding the fractions' units."""
    whole = np.floor(e)
    e -= whole
    e *= _FIXED_POINT
    np.rint(e, out=e)
    wholes, parts = whole.sum(axis=1), e.sum(axis=1)
    if max(np.abs(whole, out=whole).sum(axis=1).max(), parts.max()) >= _EXACT_SUMS:
        raise OverflowError("fixed-point sums reached 2^53 in a part")
    return [(int(w) << 32) + int(p) for w, p in zip(wholes, parts)]


def _law_sums(f: np.ndarray, side: _UserSide) -> list[int]:
    """The fixed-point sums over a pass's trials with users of per-threshold
    values f: each trial's estimate e, its sum of f over its equal-split
    thresholds and over its inversion thresholds, and its union event's,
    f at its last running sum; then e^2 and e k under each scheme."""
    th = side.thresholds
    # rows: e_ci, e_inv, e_union, e_ci^2, e_inv^2, e_ci k, e_inv k
    e = np.empty((7, len(side.k)))
    np.add.reduceat(f, th.starts, out=e[:2].reshape(-1))
    np.take(f, side.last, out=e[2])
    np.multiply(e[:2], e[:2], out=e[3:5])
    np.multiply(e[:2], side.k, out=e[5:7])
    return _fixed_point_sums(e)


def _expected_tally(supply: _Supply, side: _UserSide) -> TrialTally:
    """A pass's tally at a scenario run by the center law: each trial's
    expected outages given its users, sum F(k need) under equal split and
    sum F(csum) under inversion, and its union event F(total), with their
    moments."""
    tally = replace(side.tally)
    if tally.users == 0:
        return tally
    (tally.out_ci, tally.out_inv, tally.union_trials, tally.sq_ci, tally.sq_inv,
     tally.ek_ci, tally.ek_inv) = _law_sums(supply.shortfall(side.thresholds), side)
    tally.k_sq = side.thresholds.k_sq
    tally.persist_ci, tally.persist_inv = side.persist[supply.peak_station_power]
    return tally


def _pass_bytes_per_trial(supplies: list[_Supply]) -> float:
    """Bytes a pass holds per trial at its peak, estimated before it draws
    from the supplies of its group: the largest of its user draws joined
    beside the blocks they join; the padded rows, the workspace of the sort
    and the running sums, beside each user's place in them and the flat
    layout they fill; and what the pass keeps of its users beside each
    point of the group (_point_bytes)."""
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
    return max(2 * draws, rows, *(_point_bytes(s, mu, kept) for s in supplies))


def _point_bytes(supply: _Supply, mu: float, kept: float) -> float:
    """Bytes per trial a pass holds at one point, mu users per trial, beside
    kept bytes per trial of its users. By the center law: F at each
    threshold, seven sums per trial and their whole parts. On the centers
    path: its centers joined beside the blocks they join, each trial's bound
    and power, and the larger of two stages. The exact stage holds, per
    harvester, every trial's field values and what delivered_power makes of
    them, six arrays on an exact line at a finite voltage (the quadratic's
    temporaries) and two on a lossless or tau_floor line (the values, or
    their product); the bound's stage holds less, three values per center
    and, per harvester, a pair and its gather. The control holds, per
    threshold, the bound law's value, node and fraction, and
    _CONTROL_ARRAYS values per trial. Beside them, field_values' tile
    arrays: per center, three rows of one axis's distinct coordinates beside
    one of the other's, then both beside a row per tile point. A tile holds
    at most _TILE_ELEMENTS / m centers, m the most rows of its arrays, so
    they are a fixed cost T per pass once the pass holds that many. A pass of
    _PASS_BYTES / E trials that holds c bytes per trial beside them fits its
    budget at E = c / (1 - T / _PASS_BYTES), and the model books the smaller
    of that and the uncapped tiles."""
    if supply.by_law:
        return kept + 8 * (2 * mu + _LAW_ARRAYS)
    harvesters = len(supply.positions)
    ux, _, uy, _ = supply.positions.axes
    centers = supply.cfg.field.lambda_e * supply.window.area
    quadratic = supply.line.mode == "exact" and math.isfinite(supply.voltage)
    # x and y of each center, as drawn and as joined, the bound and the
    # power; then the larger of the exact stage's field values and the
    # control's F at each threshold with its node and fraction
    stage = max((6 if quadratic else 2) * harvesters, 6 * mu + _CONTROL_ARRAYS)
    per_trial = kept + 8 * (4 * centers + 2 + stage)
    points = min(harvesters, _TILE_POINTS)
    tile = max(3 * len(ux), len(ux) + 3 * len(uy), len(ux) + len(uy) + points)
    uncapped = per_trial + 8 * tile * centers
    fixed = 8 * tile * _TILE_ELEMENTS / max(points, len(ux), len(uy))
    if fixed >= _PASS_BYTES:
        return uncapped
    return min(uncapped, per_trial / (1.0 - fixed / _PASS_BYTES))


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
    step = BLOCK * max(1, int(_PASS_BYTES // (BLOCK * _pass_bytes_per_trial(supplies))))
    tallies = [TrialTally() for _ in cfgs]
    for a in range(start, stop, step):
        passed = _pass_tallies(supplies, seed, a, min(a + step, stop))
        tallies = [t + p for t, p in zip(tallies, passed)]
    return tallies


def _pass_tallies(supplies: list[_Supply], seed: int, a: int, b: int) -> list[TrialTally]:
    """Trials [a, b) as one pass at each scenario of a group: the users
    evaluated once, then each scenario's expected outages by the center law
    or its drawn fields. What the pass holds is let go when it returns,
    before the next pass draws."""
    # a point on the centers path builds its bound's law at its first pass,
    # before the pass holds anything
    laws = [None if s.by_law else s.bound_law for s in supplies]
    side = _user_side(supplies, seed, a, b)
    return [_expected_tally(s, side) if law is None else _drawn_tally(s, side, law, seed, a, b)
            for s, law in zip(supplies, laws)]


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
    n_outages: float      # expected outages at a center-law point, else a count
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


def _effective_users(tally: TrialTally, out: int, sq: int, ek: int) -> float | None:
    """n_eff = p (1 - p) / var of a scheme's per-trial estimates e (out their
    sum in 2^-32 units), var the delta method's variance of p = sum e /
    sum k over the trials, sum (e - p k)^2 / (n (n - 1) kbar^2). None where
    the outages have no spread to measure: their sum is not positive, or
    every trial's are in proportion to its users to the resolution of the
    sums."""
    n, users = tally.trials, tally.users
    scale = _FIXED_POINT * users
    # sum (e - p k)^2 scaled by (2^32 users)^2, in exact integers
    spread = sq * scale * users - 2 * out * ek * users + out * out * tally.k_sq
    p = out / scale
    if out <= 0 or spread <= 0 or p >= 1.0:
        return None
    var = spread / (scale * scale) * n / ((n - 1) * users * users)
    return p * (1.0 - p) / var


def _estimated(tally: TrialTally, count: int, bound: int, law: int) -> int:
    """One of a tally's outage sums, or its union events, in 2^-32 units: a
    center-law point's expected count as tallied, a point on the centers
    path's Y + G - C, any other's count."""
    if tally.drawn_trials:
        return ((count - bound) << 32) + law
    return count if tally.expected else count << 32


def estimates_from_tally(cfg: ScenarioConfig, tally: TrialTally
                         ) -> dict[Scheme, OutageEstimate]:
    """Turn raw tallies into per-scheme estimates with Wilson intervals and
    attached bounds. At a center-law point and on the centers path, the
    interval is Wilson's at the point's effective users (_effective_users),
    at Student's t quantile with one degree of freedom fewer than its
    trials, as var is estimated from them. Any other point's is Wilson's at
    its users, and so is one of those without a spread, or with fewer than
    2 trials that have users, which also sets low_confidence. A sum below
    zero, which the control allows where outages are too rare for the run
    to resolve, reads as none.

    On the centers path p = g - d, g the rate of G and d that of the residual
    C - Y. Where the run draws few residual outages, Z's moments miss most of
    d's spread, and at none they hold G's alone: an interval for g, which
    is at least p. So the lower end is at most G's rate less Wilson's upper
    limit at the users on d, and at least 0."""
    out: dict[Scheme, OutageEstimate] = {}
    users = tally.users
    per_trial = tally.k_sq > 0   # a center-law or centers-path point with users
    few = per_trial and tally.trials - tally.zero_user_trials < 2
    union = max(_estimated(tally, tally.union_trials, tally.bound_union, tally.law_union), 0)
    sums = {Scheme.CHANNEL_INDEPENDENT: (tally.out_ci, tally.bound_ci, tally.law_ci,
                                         tally.persist_ci, tally.sq_ci, tally.ek_ci),
            Scheme.INVERSION: (tally.out_inv, tally.bound_inv, tally.law_inv,
                               tally.persist_inv, tally.sq_inv, tally.ek_inv)}
    for scheme, (events, bound, law, n_persist, sq, ek) in sums.items():
        count = _estimated(tally, events, bound, law)
        n_out = max(count, 0) / _FIXED_POINT
        if users > 0:
            p = n_out / users
            n_eff = _effective_users(tally, count, sq, ek) if per_trial and not few else None
            lo, hi = wilson_ci(n_out, users) if n_eff is None else \
                wilson_interval(p, n_eff, t_quantile_975(tally.trials - 1))
            if tally.drawn_trials:
                lo = max(0.0, min(lo, law / _FIXED_POINT / users
                                  - wilson_ci(bound - events, users)[1]))
        else:
            p, lo, hi = 0.0, 0.0, 1.0
        union_rate = union / _FIXED_POINT / tally.trials \
            if scheme is Scheme.INVERSION and tally.trials else None
        out[scheme] = OutageEstimate(
            scheme=scheme, p_out=p, ci_lo=lo, ci_hi=hi,
            n_trials=tally.trials, n_users=users, n_outages=n_out,
            p_energy_random=max(n_out - n_persist, 0.0) / users if users else 0.0,
            p_max_power=n_persist / users if users else 0.0,
            union_rate=union_rate, zero_user_trials=tally.zero_user_trials,
            gain_clamps=tally.gain_clamps, low_confidence=users < 100 or few,
            bound_values=bound_values(cfg, scheme))
    return out


def simulate_both(cfg: ScenarioConfig, n_trials: int, seed: int
                  ) -> dict[Scheme, OutageEstimate]:
    """Serial run of n_trials; both schemes come from the same draws."""
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    tally = run_trials_chunk(cfg, 0, n_trials, seed)
    return estimates_from_tally(cfg, tally)

