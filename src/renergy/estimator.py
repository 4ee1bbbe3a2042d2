"""Per-scheme outage estimates from a point's tally, and the laws they use.

Every point tallies its outages the same way (renergy.coverage). Take a
trial with users, its station power P and a bound L <= P whose law F_L(x) =
Pr(L < x) is known. Per scheme and for the union event, Y counts its
outages at P and C those at L, C >= Y user by user, and G is their
expectation given the users: sum F_L(k need_i) under equal split, sum
F_L(csum_i) under inversion (csum_i the running sums of its sorted needs)
and F_L(total) for the union event. The trial's estimate Z = Y + G - C has
Y's mean, and the spread of the field, which decides most outages, is gone
from it but for the residual R = C - Y. By the center law L = P, so F_L = F
and C = Y: Z = G. On the centers path L is the two-center bound, and F_L is
a table (LawTable) of the engine's own L at the points of one rank-1
lattice rule (lattice_points; Sloan & Joe, Lattice Methods for Multiple
Integration, 1994), fixed for every scenario so that tallies depend on no
process or worker count. The tally holds Y and C as counts and G in units
of 2^-32, each trial's rounded once and summed exactly, with the second
moments of Z, the schemes' cross product Z_ci Z_inv, and R_ci's products
with itself, k and each scheme's Z among them.

Equal split's G_ci = sum F_L(k need_i) has a mean that needs no trials:
mu_ci = sum_k pi_k k E[F_L(k need)], pi the Poisson law of users per cell
and need a user's required power over the cell's distance law and the
fading law. It is integrated once per scenario, at the first estimate that
asks for it, by a tensor Gauss-Legendre rule; its error estimate is the
largest change in the mean when one of the rule's three dimensions is
refined (law_mean, known_mean). Where that estimate is within
_KNOWN_MEAN_TOL of the mean, equal split reports p = mu_ci / E[k] less its
sampled residual's rate sum R_ci / sum k, and G_ci - mu_ci is a control with
a known mean for inversion, whose p is p_inv - beta (p_G - mu_ci / E[k])
with beta the regression slope of its residuals on G_ci's from the tallied
moments, capped at equal split's p (_controlled). By the center law the
residual is 0: equal split reports the known mean itself. Elsewhere both
schemes keep the sampled estimator, sum Z / sum k.

Intervals are Wilson's at the effective users n_eff = p (1 - p) / var, var
the delta method's variance of what is left sampled (_variance), at
Student's t quantile with one degree of freedom fewer than the trials.
Where what is left has no spread, p is not inside (0, 1), or fewer than 2
trials have users, the sampled rates take Wilson's interval at the users
and the known mean the quadrature's error estimate on either side. A run on
the centers path may draw few residual outages, so its lower end is at
most the estimate's rate before the residual less Wilson's upper limit at
the users on the residual's, and at least 0 (estimates).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .channel import fading_rule, required_power
from .energy_field import (EnergyFieldSpec, FieldRealization, Kernel,
                           nearest_center_realizations, window_disk_area)
from .geometry import BLOCK, Window, hex_cell_circumradius, hex_cell_distance_rule
from .stats import t_quantile_975, wilson_ci, wilson_interval


class Scheme(str, enum.Enum):
    CHANNEL_INDEPENDENT = "channel_independent"
    INVERSION = "inversion"


# The unit of a tally's expected counts G and of its moments is 2^-32.
_FIXED_POINT = 1 << 32

# The rank-1 lattice rule of every centers-path table: n = 2^15 points (i z /
# n + shift) mod 1 in four dimensions, (u, v) of the nearest center, then of
# the second nearest. z was chosen by a component-by-component search (Nuyens
# & Cools, 2006) for the least P_2 criterion at unit product weights; the
# shift is numpy's default_rng(20140408).random(4), written out so that
# importing the module loads no generator. The table's nodes are uniform in
# ln x.
_LATTICE_N = 1 << 15
_LATTICE_Z = (1, 12031, 7247, 2267)
_RULE_SHIFT = (0.07424495059502512, 0.2099421446370625, 0.6629060235378214,
                  0.2194235263440769)
_LAW_NODES = 4096

# Equal split's known mean (known_mean): the tensor Gauss-Legendre rule it
# reports, as nodes in s and in u1 of the cell's distance law
# (geometry.hex_cell_distance_rule), then nodes per panel of the fading law
# and its widest panel in ln h (channel.fading_rule); the rules that refine
# one of its three dimensions each, whose largest difference from it is its
# error estimate; and the largest error estimate, relative to the mean, at
# which a point uses it.
_USER_RULE = (12, 4, 8, 2.0)
_REFINED_RULES = ((18, 4, 8, 2.0), (12, 6, 8, 2.0), (12, 4, 12, 2.0))
_KNOWN_MEAN_TOL = 1e-4

# Bytes of values at the users that law_mean holds at once.
_RULE_BYTES = 3 << 20


@dataclass
class TrialTally:
    """Integer event sums; adding tallies merges runs exactly.

    Per scheme and for the union event, a point counts its outages Y at
    each trial's exact power (out_ci, out_inv, union_trials) and its
    outages C at the trial's bound (bound_*), and sums G, their expectation
    given the trial's users under the bound's law (law_*), in units of
    2^-32 (_FIXED_POINT): each trial's Z = Y + G - C rounded to the unit,
    with C - Y added back. A point run by the center law counts neither Y
    nor C, which it leaves at 0, so its law_* hold its expected outages.
    drawn_trials counts the trials with users whose fields a point drew.
    Every point sums, over its trials, the second moments of each scheme's
    Z and users k in 2^-32 units: Z^2 (sq_*), Z k (ek_*) and the schemes'
    cross product Z_ci Z_inv (cross), and k^2 in whole users (k_sq), which
    is positive exactly when the point has users; and those of equal
    split's residual R = C - Y, also in 2^-32 units: R^2 (res_sq), R k
    (res_k), R Z_ci (res_ci) and R Z_inv (res_inv), all 0 by the center
    law. Every other count, the max-power outages (persist_*) among them,
    is a count of events."""

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
    cross: int = 0
    drawn_trials: int = 0
    bound_ci: int = 0
    bound_inv: int = 0
    bound_union: int = 0
    law_ci: int = 0
    law_inv: int = 0
    law_union: int = 0
    res_sq: int = 0
    res_k: int = 0
    res_ci: int = 0
    res_inv: int = 0

    def __add__(self, other: "TrialTally") -> "TrialTally":
        return TrialTally(*[getattr(self, name) + getattr(other, name)
                            for name in _TALLY_FIELDS])


_TALLY_FIELDS = tuple(f.name for f in fields(TrialTally))


@dataclass(frozen=True, eq=False)
class Thresholds:
    """A pass's thresholds x, at which the center law and the bound's law
    are integrated, in its users' layout (see coverage._UserSide): k times
    each user's need (equal split), then each user's running sum
    (inversion).
    values are ln x, or ln(peak / x) floored at 0 where the group's points
    are all center-law points that share one peak. Beside them: the
    smallest ln x, where each trial's users start in each of the two parts,
    and the sum of k^2."""

    values: np.ndarray
    peak: float | None
    least: float
    starts: np.ndarray
    k_sq: int


def thresholds_of(x: np.ndarray, k: np.ndarray, law_peaks: tuple) -> Thresholds:
    """The thresholds of a pass's trials with users, k users each, taken in
    place from their layout x."""
    users = len(x) // 2
    x[:users] *= np.repeat(k, k)
    logs = np.log(x, out=x)
    least = float(logs.min(initial=math.inf))
    peak = law_peaks[0] if len(law_peaks) == 1 else None
    if peak is not None:   # as center_law would take it
        np.subtract(math.log(peak), logs, out=logs)
        np.maximum(logs, 0.0, out=logs)
    first = np.cumsum(k) - k
    # k < 2^31, and a pass's trials keep the sum of k^2 below 2^63
    return Thresholds(logs, peak, least, np.concatenate((first, first + users)),
                       int((k * k).sum()))


def center_law(spec: EnergyFieldSpec, window: Window, peak: float,
               th: Thresholds) -> np.ndarray:
    """F(x) = Pr(P < x) at a pass's thresholds x, as a new array, for the
    power P of a station run by the center law, whose peak power is peak.

    P is the station's peak power c times the kernel's decay at the
    nearest center's distance D, so P < x exactly when D exceeds r(x),
    where the decay falls to x / c: r(x)^2 = nu ln(c / x) for the
    exponential kernel and nu (c / x - 1) for the power law, and 0 from
    x = c on. No center lies within r of the window's center with
    probability exp(-lambda_e A(r)) (energy_field.window_disk_area), and
    A(r) = pi r^2 up to half the window's shorter side;
    window_disk_area runs only where r(x) exceeds it."""
    half = 0.5 * min(window.width, window.height)
    near = half * half / spec.nu    # r^2 / nu at half the shorter side
    power_law = spec.kernel is Kernel.BOOLEAN_MAX_PLAW
    log_peak = math.log(peak)
    # ln(c / x), 0 from x = c on: the thresholds' own where they hold it
    own = th.peak != peak
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


def lattice_points(lo: int, hi: int, shift=_RULE_SHIFT) -> np.ndarray:
    """Points lo..hi-1 of the rank-1 lattice rule (i z / n + shift) mod 1,
    (hi - lo, 4): i z mod n in exact integers, then scaled and shifted."""
    i = np.arange(lo, hi, dtype=np.int64)[:, None]
    u = i * np.array(_LATTICE_Z, dtype=np.int64) % _LATTICE_N / _LATTICE_N
    u += shift
    return np.mod(u, 1.0, out=u)


@dataclass(frozen=True, eq=False)
class LawTable:
    """F(x) = Pr(L < x) for a point's station power L at its bound,
    tabulated at nodes uniform in ln x: node j sits at lo + j / scale, F is
    its value there and slope its rise to the next node, 0 from the last."""

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


def lattice_law(bound: Callable[[FieldRealization], np.ndarray], spec: EnergyFieldSpec,
                window: Window, shift=_RULE_SHIFT) -> LawTable:
    """The law of a bound at the two centers nearest the window's center of
    a realization drawn on the window, from its values at the _LATTICE_N
    points of the lattice rule under a shift, the rule's own by default:
    each point places one realization's two nearest centers
    (energy_field.nearest_center_realizations), BLOCK realizations at a
    time. Only the table is kept (law_table)."""
    power = np.empty(_LATTICE_N)
    for a in range(0, _LATTICE_N, BLOCK):
        u = lattice_points(a, min(a + BLOCK, _LATTICE_N), shift)
        power[a:a + len(u)] = bound(nearest_center_realizations(spec, window, u[:, 0::2],
                                                                u[:, 1::2]))
    return law_table(power)


def law_table(power: np.ndarray) -> LawTable:
    """The law of the powers, sorted in place, each of equal weight. Its
    grid spans the smallest positive power and the largest in _LAW_NODES - 3
    equal steps of ln x, one step beyond each: F is the share of the powers
    below each node, the share of zero powers (no center reaches the
    harvesters) at the first and 1 at the last."""
    power.sort()
    n, nodes = len(power), _LAW_NODES
    empty = int(np.searchsorted(power, 0.0, side="right"))
    if empty == n:   # L = 0 below every x
        return LawTable(0.0, 1.0, np.ones(nodes), np.zeros(nodes))
    least, most = math.log(power[empty]), math.log(power[-1])
    step = (most - least) / (nodes - 3) if most > least else 1.0
    lo = least - step
    f = np.searchsorted(power, np.exp(lo + step * np.arange(nodes)), side="left") / n
    return LawTable(lo, 1.0 / step, f, np.diff(f, append=f[-1]))


class KnownMean(NamedTuple):
    """Equal split's p = mu_ci / E[k] at a point, integrated over the users
    by quadrature, and the quadrature's error estimate."""

    p: float
    err: float


def known_mean(cfg, shortfall: Callable[[np.ndarray], np.ndarray]) -> KnownMean | None:
    """p = mu_ci / E[k] for a point whose bound's law is shortfall (F at
    thresholds x from their logs), by the rule _USER_RULE, with the largest
    difference of a _REFINED_RULES rule from it as its error estimate; None
    where that estimate exceeds _KNOWN_MEAN_TOL of the mean, as where the
    law is near a step (psi far above 1) or the mean far below a rule's
    resolution."""
    mu = cfg.mean_users_per_cell
    mean = law_mean(cfg, shortfall, _USER_RULE)
    err = max(abs(law_mean(cfg, shortfall, rule) - mean) for rule in _REFINED_RULES)
    p, err = min(mean / mu, 1.0), err / mu
    return KnownMean(p, err) if err <= _KNOWN_MEAN_TOL * p else None


def law_mean(cfg, shortfall: Callable[[np.ndarray], np.ndarray],
             rule: tuple[int, int, int, float]) -> float:
    """sum_k pi_k k E[F(k need)] by one tensor Gauss-Legendre rule (see
    _USER_RULE): pi the Poisson law of users per cell, from mu - 12 sqrt(mu)
    - 10 users to mu + 12 sqrt(mu) + 10 (each tail below 1e-30), need the
    required power of a user at the cell's distance law, floored at 1e-12
    and clamped as required_power clamps it, and the fading law, and F the
    law the engine tallies, at k need. The users are taken a few at a time,
    so the rule's values at them hold at most about _RULE_BYTES."""
    radial, angular, nodes, width = rule
    # the engine floors distances at 1e-12, then clamps them at min_dist
    d, wd = hex_cell_distance_rule(hex_cell_circumradius(cfg.lambda_b), radial, angular,
                                   max(cfg.channel.min_dist, 1e-12))
    h, wh = fading_rule(cfg.channel.fading, nodes, width)
    logs = np.log(required_power(cfg.theta, d[:, None], h, cfg.channel)).ravel()
    w = np.multiply.outer(wd, wh).ravel()
    mu = cfg.mean_users_per_cell
    spread = 12.0 * math.sqrt(mu) + 10.0
    k = np.arange(max(1, math.floor(mu - spread)), math.floor(mu + spread) + 1)
    log_k = np.log(k)
    # pi_k k = exp(k ln mu - mu - ln k! + ln k)
    pi_k = np.exp(k * math.log(mu) - mu - np.array([math.lgamma(j + 1.0) for j in k]) + log_k)
    rows = max(1, _RULE_BYTES // (32 * len(logs)))
    total = 0.0
    for a in range(0, len(k), rows):
        x = np.add.outer(log_k[a:a + rows], logs).ravel()   # ln(k need)
        f = shortfall(x)
        total += float(pi_k[a:a + rows] @ (f.reshape(-1, len(logs)) @ w))
    return total


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
    n_outages: float      # p_out times the users; need not be whole
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


# Float sums of whole numbers are exact below 2^53. int64 sums are exact
# where a row's units sum below 2^63 in magnitude, as n values of magnitude
# below _INT_SUMS / n do (below 2^62 units in all, with room for rounding).
_EXACT_SUMS = 2.0 ** 53
_INT_SUMS = 2.0 ** 30


def _fixed_point_sums(e: np.ndarray) -> list[int]:
    """The sum of each row of e, values of either sign each rounded to units
    of 2^-32, exactly. Where no row can reach 2^63 units (n max |v| below
    _INT_SUMS, as at every point short of thousands of users per trial),
    the rounded units are summed as int64. Otherwise the whole parts and the
    fractions' units are summed apart, as whole numbers in float64, since
    rint(v 2^32) = floor(v) 2^32 + rint((v - floor(v)) 2^32) for the even
    floor(v) 2^32. A row's sum may pass 2^63 units at many users per trial,
    but either part's stays far below 2^53, where float sums of whole
    numbers are exact (about 2^44 at the ScenarioConfig cap of 2^26 users
    per block, whose passes hold one block). Every partial sum of a row's
    whole parts is at most the sum of their magnitudes, and a part whose
    sum of magnitudes reaches 2^53 raises. e is left holding units."""
    if e.shape[1] * max(e.max(initial=0.0), -e.min(initial=0.0)) < _INT_SUMS:
        e *= _FIXED_POINT
        np.rint(e, out=e)
        return e.astype(np.int64).sum(axis=1).tolist()
    whole = np.floor(e)
    e -= whole
    e *= _FIXED_POINT
    np.rint(e, out=e)
    wholes, parts = whole.sum(axis=1), e.sum(axis=1)
    if max(np.abs(whole, out=whole).sum(axis=1).max(), parts.max()) >= _EXACT_SUMS:
        raise OverflowError("fixed-point sums reached 2^53 in a part")
    return [(int(w) << 32) + int(p) for w, p in zip(wholes, parts)]


def law_sums(f: np.ndarray, side, residual: np.ndarray | None = None) -> list[int]:
    """The fixed-point sums over a pass's trials with users (side, a
    coverage._UserSide) of per-threshold values f: each trial's estimate e,
    its sum of f over its equal-split thresholds and over its inversion
    thresholds, and its union event's, f at its last running sum; then e^2
    and e k under each scheme, and e_ci e_inv. Given residual, the places
    in the layout's equal-split part of the users covered at the power and
    not at the bound, in order, also equal split's residual r, its count
    of them per trial: r^2, r k, r e_ci and r e_inv."""
    th, n = side.thresholds, len(side.k)
    # rows: e_ci, e_inv, e_union, e_ci^2, e_inv^2, e_ci k, e_inv k, e_ci e_inv,
    # then r^2, r k, r e_ci, r e_inv
    e = np.empty((8 if residual is None else 12, n))
    np.add.reduceat(f, th.starts, out=e[:2].reshape(-1))
    np.take(f, side.last, out=e[2])
    np.multiply(e[:2], e[:2], out=e[3:5])
    np.multiply(e[:2], side.k, out=e[5:7])
    np.multiply(e[0], e[1], out=e[7])
    if residual is not None:
        r = np.bincount(np.searchsorted(th.starts[:n], residual, side="right") - 1,
                        minlength=n).astype(float)
        np.multiply(r, r, out=e[8])
        np.multiply(r, side.k, out=e[9])
        np.multiply(e[:2], r, out=e[10:])
    return _fixed_point_sums(e)


def cover_again(side, covered: np.ndarray, power: np.ndarray,
                 trials: np.ndarray) -> None:
    """covered, whether each user of a pass's layout (side, a
    coverage._UserSide) is covered at its trial's power (a row of
    coverage._coverage's), at the given trials' users again, at their new
    power."""
    k = side.k[trials]
    at = np.repeat(side.thresholds.starts[trials] - (np.cumsum(k) - k), k) + np.arange(k.sum())
    at = np.concatenate((at, at + side.tally.users))
    reach = np.concatenate((np.repeat(power[trials] / k, k), np.repeat(power[trials], k)))
    covered[at] = side.flat[at] <= reach


def residual_trials(side, covered: np.ndarray) -> np.ndarray:
    """The positions, among a pass's trials with users (side), of those
    with a user covered at the power (covered row 0) and not at the bound
    (row 1): each such user's trial, from where it lies in either part of
    the layout."""
    n = len(side.k)
    flip = np.flatnonzero(covered[0] > covered[1])
    trial = np.zeros(n, dtype=bool)
    trial[(np.searchsorted(side.thresholds.starts, flip, side="right") - 1) % n] = True
    return np.flatnonzero(trial)


def record(tally, side, f: np.ndarray, covered: np.ndarray | None = None) -> None:
    """Fill a pass's tally with users (coverage._point_tally) from the
    law's value f at each threshold of its layout (coverage._UserSide) and,
    on the centers path, covered, (2, 2 users): whether each user of the
    layout is covered at its trial's power P (row 0) and at its bound L
    (row 1). From covered, the outages under each scheme and the union
    events (a last running sum not covered) at P (Y) and at L (C); f, less
    1 at each user covered at P and not at L, sums to each trial's Z = G -
    (C - Y), and G adds C - Y back to the sums (law_sums)."""
    residual = None
    if covered is not None:
        users, n = tally.users, len(side.k)
        (tally.out_ci, tally.bound_ci), (tally.out_inv, tally.bound_inv), \
            (tally.union_trials, tally.bound_union) = (
                (users - np.count_nonzero(covered[:, :users], axis=1)).tolist(),
                (users - np.count_nonzero(covered[:, users:], axis=1)).tolist(),
                (n - np.count_nonzero(np.take(covered, side.last, axis=1), axis=1)).tolist())
        tally.drawn_trials = n
        flip = np.flatnonzero(covered[0] > covered[1])
        f[flip] -= 1.0
        residual = flip[:np.searchsorted(flip, users)]
    sums = law_sums(f, side, residual)
    tally.law_ci, tally.law_inv, tally.law_union = (
        zs + ((c - y) << 32) for zs, y, c in zip(
            sums, (tally.out_ci, tally.out_inv, tally.union_trials),
            (tally.bound_ci, tally.bound_inv, tally.bound_union)))
    tally.sq_ci, tally.sq_inv, tally.ek_ci, tally.ek_inv, tally.cross = sums[3:8]
    if residual is not None:
        tally.res_sq, tally.res_k, tally.res_ci, tally.res_inv = sums[8:]


def _spread(tally, a: int, ea: int, b: int, eb: int, ab: int) -> int:
    """sum (Z_a - p_a k)(Z_b - p_b k) over the trials, two estimates' (or
    one estimate's) residuals from their rates p = sum Z / sum k, scaled by
    (2^32 users)^2 in exact integers: a and b their sums of Z, ea and eb of
    Z k, and ab of Z_a Z_b, in 2^-32 units."""
    users = tally.users
    return ab * _FIXED_POINT * users * users - (a * eb + b * ea) * users + a * b * tally.k_sq


def _variance(tally, spread: float) -> float:
    """The delta method's variance of p = sum Z / sum k over the trials, sum
    (Z - p k)^2 / (n (n - 1) kbar^2), from spread, the residuals' sum of
    squares scaled as _spread scales it."""
    n, users = tally.trials, tally.users
    scale = _FIXED_POINT * users
    return spread / (scale * scale) * n / ((n - 1) * users * users)


def _controlled(tally, known: KnownMean) -> dict[Scheme, tuple[float, float, int]]:
    """Each scheme's p, its rate before the residual R = C - Y is taken off,
    and the spread of its residuals (scaled as _spread scales it), with G_ci
    as a control whose mean, known.p times the users, is known.

    Equal split's p is known.p less R_ci's rate: its Z_ci is G_ci - R_ci,
    and the spread left is R_ci's. Inversion's is p_inv - beta (p_G -
    known.p), beta = sum r_G r_inv / sum r_G^2 the regression slope of the
    trials' residuals r = Z - p k on G_ci's (Glasserman, Monte Carlo Methods
    in Financial Engineering, 2004, 4.1), capped at equal split's p, as
    inversion never covers fewer users than equal split; its spread is that
    of r_inv - beta r_G. G_ci's moments are Z_ci's and R_ci's: G = Z + R.
    Without a spread in G_ci there is no control: beta = 0."""
    users = tally.users
    scale = _FIXED_POINT * users
    r_ci = (tally.bound_ci - tally.out_ci) << 32
    g, g_k = tally.law_ci, tally.ek_ci + tally.res_k
    s_gg = _spread(tally, g, g_k, g, g_k, tally.sq_ci + 2 * tally.res_ci + tally.res_sq)
    inv = ((tally.out_inv - tally.bound_inv) << 32) + tally.law_inv
    s_ii = _spread(tally, inv, tally.ek_inv, inv, tally.ek_inv, tally.sq_inv)
    s_gi = _spread(tally, g, g_k, inv, tally.ek_inv, tally.cross + tally.res_inv)
    beta, residual = (s_gi / s_gg, (s_ii * s_gg - s_gi * s_gi) / s_gg) if s_gg > 0 \
        else (0.0, s_ii)
    p_ci = known.p - r_ci / scale
    p_inv = inv / scale - beta * (g / scale - known.p)
    return {Scheme.CHANNEL_INDEPENDENT:
            (max(p_ci, 0.0), known.p,
             _spread(tally, r_ci, tally.res_k, r_ci, tally.res_k, tally.res_sq)),
            Scheme.INVERSION:
            (max(min(p_inv, p_ci), 0.0), p_inv + (tally.bound_inv - tally.out_inv) / users,
             residual)}


def estimates(tally, known: KnownMean | None,
              bounds: Callable[[Scheme], Mapping[str, float]]) -> dict[Scheme, OutageEstimate]:
    """Per-scheme estimates of a point's tally (see the module docstring),
    with the closed-form bounds that bounds(scheme) attaches: by the
    sampled estimator, or with equal split's known mean where known is
    given. A scheme's sampled outages, and the union events, are the sum of
    each trial's Z = Y + G - C, ((out - bound) << 32) + law in 2^-32 units;
    a sum below zero, which the control allows where outages are too rare
    for the run to resolve, reads as none."""
    out: dict[Scheme, OutageEstimate] = {}
    users = tally.users
    few = tally.trials - tally.zero_user_trials < 2
    union = max(((tally.union_trials - tally.bound_union) << 32) + tally.law_union, 0)
    controlled = _controlled(tally, known) if known is not None and users > 0 else None
    sums = {Scheme.CHANNEL_INDEPENDENT: (tally.out_ci, tally.bound_ci, tally.law_ci,
                                         tally.persist_ci, tally.sq_ci, tally.ek_ci),
            Scheme.INVERSION: (tally.out_inv, tally.bound_inv, tally.law_inv,
                               tally.persist_inv, tally.sq_inv, tally.ek_inv)}
    for scheme, (events, bound, law, n_persist, sq, ek) in sums.items():
        if users == 0:
            p, n_out, lo, hi = 0.0, 0.0, 0.0, 1.0
        else:
            if controlled is None:
                count = ((events - bound) << 32) + law
                n_out = max(count, 0) / _FIXED_POINT
                p, g = n_out / users, law / _FIXED_POINT / users
                spread = _spread(tally, count, ek, count, ek, sq)
            else:
                p, g, spread = controlled[scheme]
                n_out = p * users
            if few or spread <= 0 or not 0.0 < p < 1.0:
                # no spread to measure, or p at an end: the known mean's own
                # error, or Wilson's interval at the users
                lo, hi = (max(0.0, p - known.err), min(1.0, p + known.err)) \
                    if controlled is not None and scheme is Scheme.CHANNEL_INDEPENDENT \
                    else wilson_ci(n_out, users)
            else:
                # Wilson's interval at the effective users p (1 - p) / var
                lo, hi = wilson_interval(p, p * (1.0 - p) / _variance(tally, spread),
                                         t_quantile_975(tally.trials - 1))
            if tally.drawn_trials:
                lo = max(0.0, min(lo, g - wilson_ci(bound - events, users)[1]))
        union_rate = union / _FIXED_POINT / tally.trials \
            if scheme is Scheme.INVERSION and tally.trials else None
        out[scheme] = OutageEstimate(
            scheme=scheme, p_out=p, ci_lo=lo, ci_hi=hi,
            n_trials=tally.trials, n_users=users, n_outages=n_out,
            p_energy_random=max(n_out - n_persist, 0.0) / users if users else 0.0,
            p_max_power=n_persist / users if users else 0.0,
            union_rate=union_rate, zero_user_trials=tally.zero_user_trials,
            gain_clamps=tally.gain_clamps, low_confidence=users < 100 or few,
            bound_values=bounds(scheme))
    return out
