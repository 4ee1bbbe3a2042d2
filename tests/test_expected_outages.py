"""Expected outages at center-law points and the one-center control on the
centers path: ordering, fixed point, bias and interval coverage.

A scenario run by the center law (a boolean field read at the window's
center alone: on-site, or a cluster of one harvester) tallies each trial's
expected outages given its users in law_*, the field integrated out by its
exact law on the window, in units of 2^-32. A point on the centers path
tallies its outages Y at its drawn fields, C at their one-center bounds and
G, the expectation of C given the users under the bound's tabulated law,
and estimates from Y + G - C.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from renergy import coverage, estimator
from renergy.aggregation import Distributed, LineSpec
from renergy.channel import ChannelSpec, ChiSquaredFading, TruncatedRicianFading
from renergy.cli import _repro_experiment
from renergy.coverage import (ScenarioConfig, Scheme, estimates_from_tally, run_group_chunk,
                              run_trials_chunk)
from renergy.energy_field import EnergyFieldSpec, Kernel
from renergy.geometry import BLOCK
from renergy.harness import apply_sweep, parse_config_text

UNIT = 1 << 32


def unit_cfg(gamma=20.0, psi=0.05, lambda_u=10.0, kernel=Kernel.BOOLEAN_MAX_EXP,
             fading=None, **kw):
    return ScenarioConfig(
        field=EnergyFieldSpec(gamma=gamma, lambda_e=psi, nu=1.0, kernel=kernel),
        channel=ChannelSpec.normalized(fading=fading),
        lambda_b=1.0, lambda_u=lambda_u, theta=8.0, **kw)


# The center-law supplies: on-site on a wrapped or a flat window, and a
# tau_floor cluster of one harvester (distributed windows wrap).
_ONE_HARVESTER = Distributed(lambda_h=1.0, lambda_a=1.0, line=LineSpec(mode="tau_floor"))
_LAW_SUPPLIES = {
    "onsite": {},
    "onsite_flat": {"wrap": False},
    "tau_floor_one_harvester": {"architecture": _ONE_HARVESTER},
}


@pytest.mark.parametrize("supply", sorted(_LAW_SUPPLIES))
def test_the_center_law_supplies_integrate(supply):
    assert coverage._supply(unit_cfg(**_LAW_SUPPLIES[supply])).by_law
    assert run_trials_chunk(unit_cfg(**_LAW_SUPPLIES[supply]), 0, 50, 3).k_sq > 0


@settings(max_examples=40, deadline=None)
@given(kernel=st.sampled_from([Kernel.BOOLEAN_MAX_EXP, Kernel.BOOLEAN_MAX_PLAW]),
       fading=st.sampled_from([ChiSquaredFading(1), ChiSquaredFading(2),
                               TruncatedRicianFading(0.1)]),
       supply=st.sampled_from(sorted(_LAW_SUPPLIES)),
       psi=st.sampled_from([0.02, 0.1, 0.5]), lambda_u=st.sampled_from([1.0, 10.0]),
       trial=st.integers(0, 3 * BLOCK), seed=st.integers(0, 2**32))
@example(kernel=Kernel.BOOLEAN_MAX_EXP, fading=ChiSquaredFading(1), supply="onsite",
         psi=0.02, lambda_u=1.0, trial=5, seed=3)
def test_expected_outages_keep_the_per_trial_order(kernel, fading, supply, psi, lambda_u,
                                                    trial, seed):
    # per trial: inversion covers whom equal split covers, so its expected
    # outages lie between the max-power outages and equal split's, which lie
    # below the users; one user's two schemes coincide, and the union event
    # is a probability. Along gamma_eta and along psi, whose groups share
    # their users, a stronger or denser field is short less often.
    base = unit_cfg(psi=psi, lambda_u=lambda_u, kernel=kernel, fading=fading,
                    **_LAW_SUPPLIES[supply])
    for param, values in (("gamma_eta", (5.0, 20.0, 80.0)), ("psi", (psi, 2 * psi, 4 * psi))):
        group = tuple(apply_sweep(base, param, v) for v in values)
        tallies = run_group_chunk(group, trial, trial + 1, seed)
        for t in tallies:
            k = t.users
            assert t.persist_inv * UNIT <= t.law_inv <= t.law_ci <= k * UNIT
            assert t.persist_ci * UNIT <= t.law_ci
            assert 0 <= t.law_union <= (UNIT if k else 0)
            assert t.law_union <= t.law_inv
            if k == 1:
                assert t.law_ci == t.law_inv
        for name in ("law_ci", "law_inv", "law_union", "persist_ci", "persist_inv"):
            counts = [getattr(t, name) for t in tallies]
            assert counts == sorted(counts, reverse=True), (param, name, counts)


# Users per trial at the ScenarioConfig cap of 2^26 users per 256-trial block.
_CAP_USERS = (1 << 26) // BLOCK


def _exact_fixed_sums(e):
    """Each row's sum of its values rounded to 2^-32, in Python integers."""
    return [sum(int(v) for v in np.rint(row * 2.0 ** 32)) for row in e]


def test_fixed_point_sums_are_exact_at_the_user_cap():
    # a trial at the cap holds about 2^18 users, so its expected outages reach
    # 2^18 and their moments 2^36: 2^68 units of 2^-32, past int64. The sums
    # split them into whole parts and fractions and lose no bit
    rng = np.random.default_rng(5)
    n = 4096
    k = rng.poisson(_CAP_USERS, n).astype(float)
    e = k * rng.random((2, n))
    rows = np.vstack((e, rng.random(n), e * e, e * k))
    assert estimator._fixed_point_sums(rows.copy()) == _exact_fixed_sums(rows)
    assert estimator._fixed_point_sums(-rows) == _exact_fixed_sums(-rows)
    # so are small values of either sign, near and at whole units
    edges = [0.0, 0.5, 1.0, 1.5, 2.5, 2 ** -33, 3.0, 1 - 2 ** -40]
    small = np.vstack((rows[:, :8] / rows.max(), edges, np.negative(edges)))
    assert estimator._fixed_point_sums(small.copy()) == _exact_fixed_sums(small)
    # on either side of the bound below which units are summed as int64
    for most in (0.999, 1.001):
        near = rng.random((2, 64)) * (estimator._INT_SUMS / 64)
        near[:, 0] = most * estimator._INT_SUMS / 64
        near[1] *= -1
        assert estimator._fixed_point_sums(near.copy()) == _exact_fixed_sums(near)
    # and a merge of such sums stays exact
    halves = [estimator._fixed_point_sums(rows[:, a:b].copy()) for a, b in ((0, 1000), (1000, n))]
    assert [x + y for x, y in zip(*halves)] == _exact_fixed_sums(rows)
    # a part that could round raises instead
    with pytest.raises(OverflowError):
        estimator._fixed_point_sums(np.full((1, 2), 2.0 ** 52))


def test_many_users_per_trial_sum_exactly():
    # 4096 users per cell: a pass's moment sums pass 2^63 units, and a run
    # cut anywhere merges to the whole run's tally
    cfg = unit_cfg(lambda_u=4096.0, psi=0.5)
    whole = run_trials_chunk(cfg, 0, 300, 13)
    assert whole.ek_ci > 2 ** 63 and whole.k_sq > 0
    parts = run_trials_chunk(cfg, 0, 130, 13) + run_trials_chunk(cfg, 130, 300, 13)
    assert parts == whole


def test_union_is_the_last_inversion_threshold():
    # per trial the union event's chance is the last user's, the smallest
    # term of inversion's expected outages, which are at most k of it
    cfg = unit_cfg()
    for t in range(60):
        tally = run_trials_chunk(cfg, t, t + 1, 202)
        if tally.users == 0:
            assert tally.law_union == tally.law_inv == 0
            continue
        assert tally.law_union <= tally.law_inv <= tally.users * (tally.law_union + 1)


# Trials, chunks and the z of the joint interval in the sampling check. At
# z = 4 a correct engine fails none of the 54 checks at this seed, nor at
# ten others tried, and an exponent of F 10% off fails some.
_SAMPLED_TRIALS, _SAMPLED_CHUNKS, _JOINT_Z = 8192, 64, 4.0


def _sampled_tally(cfg, seed, a, b):
    """Trials [a, b)'s outages counted at fields drawn by draw_field from the
    field stream, which the center law leaves unread, on the engine's users:
    its shot-noise twin in the group keeps them for counting."""
    supply = coverage._supply(cfg)
    twin = replace(cfg, field=replace(cfg.field, kernel=Kernel.SHOT_NOISE_EXP))
    side = coverage._user_side([supply, coverage._supply(twin)], seed, a, b)
    return coverage._point_tally(supply, side, supply.bound_law, seed, a, b)


@pytest.mark.parametrize("supply", sorted(_LAW_SUPPLIES))
@pytest.mark.parametrize("psi", [0.02, 0.1, 0.35])
@pytest.mark.parametrize("kernel", [Kernel.BOOLEAN_MAX_EXP, Kernel.BOOLEAN_MAX_PLAW])
def test_expected_outages_match_sampled_fields(kernel, psi, supply):
    # on the same users, the expected counts and counts at drawn fields
    # differ by zero on average: chunk by chunk, their differences stay
    # within the joint interval of their spread
    cfg = unit_cfg(psi=psi, kernel=kernel, **_LAW_SUPPLIES[supply])
    per = _SAMPLED_TRIALS // _SAMPLED_CHUNKS
    gaps = []
    for c in range(_SAMPLED_CHUNKS):
        a, b = c * per, (c + 1) * per
        expected = run_trials_chunk(cfg, a, b, 61)
        sampled = _sampled_tally(cfg, 61, a, b)
        assert (expected.users, expected.persist_ci) == (sampled.users, sampled.persist_ci)
        pairs = ((sampled.out_ci, expected.law_ci), (sampled.out_inv, expected.law_inv),
                 (sampled.union_trials, expected.law_union))
        gaps.append([s - e / UNIT for s, e in pairs])
    gaps = np.array(gaps)
    mean = gaps.mean(axis=0)
    se = gaps.std(axis=0, ddof=1) / math.sqrt(_SAMPLED_CHUNKS)
    assert np.all(np.abs(mean) <= _JOINT_Z * se + 1e-9), (mean, se)


@functools.lru_cache(maxsize=None)
def _fig4_long_tally():
    """fig4 at psi = 0.1 and its tally over 204,800 trials."""
    cfg = apply_sweep(_repro_experiment("fig4").scenario, "psi", 0.1)
    return cfg, run_trials_chunk(cfg, 0, 800 * BLOCK, 4242)


@functools.lru_cache(maxsize=None)
def _fig4_long_run():
    """fig4 at psi = 0.1 and its estimates over 204,800 trials."""
    cfg, tally = _fig4_long_tally()
    return cfg, estimates_from_tally(cfg, tally)


@pytest.mark.parametrize("per, runs", [(200, 1000), (400, 500), (512, 400)])
def test_center_law_intervals_cover_the_long_run(per, runs):
    # runs of 200 and 400 trials, where the benchmark's time-to-CI check
    # stops, and of 512, at fig4 psi = 0.1: the interval of each covers the
    # long run's estimate in at least 92% of runs, for both schemes
    cfg, reference = _fig4_long_run()
    covered = {scheme: 0 for scheme in Scheme}
    for r in range(runs):
        ests = estimates_from_tally(cfg, run_trials_chunk(cfg, r * per, (r + 1) * per, 99))
        for scheme, est in ests.items():
            assert not est.low_confidence
            covered[scheme] += est.ci_lo <= reference[scheme].p_out <= est.ci_hi
    for scheme, n in covered.items():
        assert n >= 0.92 * runs, (scheme, n / runs)


def test_controlled_inversion_intervals_cover_the_plain_long_run():
    # 1000 runs of 200 trials at fig4 psi = 0.1, where the benchmark's
    # time-to-CI check stops: inversion's interval, controlled by equal
    # split's known mean, covers the plain sampled rate law_inv / users of
    # 204,800 other trials in at least 90% of runs
    cfg, tally = _fig4_long_tally()
    plain = tally.law_inv / UNIT / tally.users
    runs, per = 1000, 200
    covered = 0
    for r in range(runs):
        est = estimates_from_tally(cfg, run_trials_chunk(cfg, r * per, (r + 1) * per, 99))
        inv = est[Scheme.INVERSION]
        assert inv.ci_halfwidth < 1e-3 and not inv.low_confidence
        covered += inv.ci_lo <= plain <= inv.ci_hi
    assert covered >= 0.9 * runs, covered / runs


def _fig4_point(psi, fading=None):
    cfg = apply_sweep(_repro_experiment("fig4").scenario, "psi", psi)
    return cfg if fading is None else replace(cfg, channel=replace(cfg.channel, fading=fading))


def _known_mean_cases():
    """Center-law points whose equal-split mean is integrated: fig4 at psi
    0.02, 0.1 and 0.5 under its truncated Rician fading, whose floor is an
    atom of the gain's law, and under chi-squared fading of order 2; and
    acceptance 5's first power-law point, on a window of side 20."""
    cases = {f"fig4_{psi}{name}": _fig4_point(psi, fading)
             for psi in (0.02, 0.1, 0.5)
             for name, fading in (("", None), ("_chi2", ChiSquaredFading(2)))}
    cases["plaw_200"] = replace(unit_cfg(gamma=200.0, kernel=Kernel.BOOLEAN_MAX_PLAW,
                                         fading=ChiSquaredFading(2)), window_side=20.0)
    return cases


@pytest.mark.parametrize("case", sorted(_known_mean_cases()))
def test_known_mean_matches_sampled_equal_split(case):
    # mu_ci / E[k] against equal split's plain sampled rate law_ci / users
    # over 10^6 trials: within 4 of the latter's standard errors, by the
    # delta method from its moments, and the quadrature's error estimate
    # below 5e-5 and 1e-4 of the mean
    cfg = _known_mean_cases()[case]
    known = coverage._supply(cfg).equal_split
    assert known is not None
    assert known.err < 5e-5 and known.err < 1e-4 * known.p
    n = 10 ** 6
    t = run_trials_chunk(cfg, 0, n, 2014)
    users = t.users
    p = t.law_ci / UNIT / users
    spread = t.sq_ci / UNIT - 2 * p * t.ek_ci / UNIT + p * p * t.k_sq
    se = math.sqrt(spread / (n * (n - 1) * (users / n) ** 2))
    assert abs(p - known.p) <= 4 * se + known.err, (p, known.p, se)


@pytest.mark.parametrize("psi", [0.02, 0.05, 0.1, 0.2, 0.35, 0.5])
def test_known_mean_builds_within_10_ms(psi):
    # the first estimate at a fig4 point builds its mean: both rules, at
    # most 10 ms (the least of 5 builds, on a shared host)
    supply = coverage._supply(_fig4_point(psi))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        coverage._Supply.equal_split.func(supply)
        times.append(time.perf_counter() - start)
    assert min(times) <= 0.01, times


# The center-law points of the inversion cap's property: the fig4 sweep and a
# cluster of one harvester over an exact line at two field densities.
_ONE_EXACT = parse_config_text("scenario.architecture = distributed\n"
                               "distributed.lambda_h = 0.78\n"
                               "distributed.lambda_a = 0.78\n").scenario
_CAP_POINTS = [("fig4", psi) for psi in (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)] + \
    [("one_exact", psi) for psi in (0.05, 0.2)]


@settings(max_examples=60, deadline=None)
@given(point=st.sampled_from(_CAP_POINTS), seed=st.integers(0, 2**32),
       start=st.integers(0, 3 * BLOCK), length=st.one_of(st.just(200),
                                                         st.integers(2, 3 * BLOCK)))
@example(point=("fig4", 0.1), seed=0, start=0, length=200)
@example(point=("one_exact", 0.05), seed=1, start=200, length=200)
def test_inversion_never_above_equal_split_at_center_law_points(point, seed, start, length):
    # inversion covers every user equal split covers, so its true rate is at
    # most equal split's known mean, and the controlled estimate, whatever
    # its trials, never reads above it
    name, psi = point
    cfg = _fig4_point(psi) if name == "fig4" else apply_sweep(_ONE_EXACT, "psi", psi)
    assert coverage._supply(cfg).by_law
    ests = estimates_from_tally(cfg, run_trials_chunk(cfg, start, start + length, seed))
    ci, inv = ests[Scheme.CHANNEL_INDEPENDENT], ests[Scheme.INVERSION]
    assert inv.p_out <= ci.p_out and inv.n_outages <= ci.n_outages


def _centers_path_cases():
    """Points on the centers path: fig5 at clusters 20 and 320, over lossless
    lines; distributed shot noise at 80; on-site shot noise at psi 0.5 and
    gamma = 10 on a wrapped window and on a flat one; fig5 at 320 over
    tau_floor lines, and at 80 over exact lines at 2 V; and fig5 at 80
    under the power law at gamma = 0.5, whose bound never factors by
    axis."""
    fig5 = _repro_experiment("fig5").scenario
    arch = fig5.architecture
    shot = parse_config_text("scenario.architecture = distributed\n"
                             "field.kernel = shot_noise_exp\n").scenario
    onsite_shot = apply_sweep(parse_config_text("field.kernel = shot_noise_exp\n"
                                                "field.gamma = 10\n").scenario, "psi", 0.5)
    tau_floor = replace(fig5, architecture=replace(arch, line=replace(arch.line,
                                                                      mode="tau_floor")))
    plaw = replace(fig5, field=replace(fig5.field, kernel=Kernel.BOOLEAN_MAX_PLAW, gamma=0.5))
    return {
        "fig5_20": apply_sweep(fig5, "cluster_size", 20.0),
        "fig5_320": apply_sweep(fig5, "cluster_size", 320.0),
        "shot_noise_80": apply_sweep(shot, "cluster_size", 80.0),
        "onsite_shot_noise_0.5": onsite_shot,
        "onsite_shot_noise_0.5_flat": replace(onsite_shot, wrap=False),
        "tau_floor_320": apply_sweep(tau_floor, "cluster_size", 320.0),
        "lossy_2V_80": apply_sweep(apply_sweep(fig5, "voltage", 2.0), "cluster_size", 80.0),
        "plaw_80": apply_sweep(plaw, "cluster_size", 80.0),
    }


# Trials and chunks of the control's check; the joint interval is _JOINT_Z.
_CONTROL_TRIALS, _CONTROL_CHUNKS = 32768, 64


@pytest.mark.parametrize("case", sorted(_centers_path_cases()))
def test_control_matches_plain_counts(case):
    # on the same trials, Y + G - C and the plain counts Y differ by G - C,
    # whose mean is zero when G is the expectation of C given the users:
    # chunk by chunk, for both schemes and the union event, within the joint
    # interval of their spread
    cfg = _centers_path_cases()[case]
    per = _CONTROL_TRIALS // _CONTROL_CHUNKS
    gaps = []
    for c in range(_CONTROL_CHUNKS):
        t = run_trials_chunk(cfg, c * per, (c + 1) * per, 73)
        assert t.drawn_trials == t.trials - t.zero_user_trials > 0
        assert (t.bound_ci, t.bound_inv, t.bound_union) >= (t.out_ci, t.out_inv, t.union_trials)
        gaps.append([t.law_ci / UNIT - t.bound_ci, t.law_inv / UNIT - t.bound_inv,
                     t.law_union / UNIT - t.bound_union])
    gaps = np.array(gaps)
    mean = gaps.mean(axis=0)
    se = gaps.std(axis=0, ddof=1) / math.sqrt(_CONTROL_CHUNKS)
    assert np.all(se > 0) and np.all(np.abs(mean) <= _JOINT_Z * se), (mean, se)


@functools.lru_cache(maxsize=None)
def _fig5_long_tally(cluster):
    """fig5 at one cluster size and its tally over 102,400 trials at a seed
    the runs below do not use."""
    cfg = apply_sweep(_repro_experiment("fig5").scenario, "cluster_size", cluster)
    return cfg, run_trials_chunk(cfg, 0, 400 * BLOCK, 4242)


@functools.lru_cache(maxsize=None)
def _fig5_long_run(cluster):
    """fig5 at one cluster size and its estimates over 102,400 trials."""
    cfg, tally = _fig5_long_tally(cluster)
    return cfg, estimates_from_tally(cfg, tally)


@pytest.mark.parametrize("cluster", [20.0, 320.0])
def test_centers_path_intervals_cover_the_long_run(cluster):
    # 200 runs of 512 trials at fig5: the interval of each covers the long
    # run's estimate in at least 90% of runs, for both schemes. Wilson's
    # interval at the users, which treats the users of one field as
    # independent, covered about half of such runs at cluster 320
    cfg, reference = _fig5_long_run(cluster)
    runs, per = 200, 512
    covered = {scheme: 0 for scheme in Scheme}
    for r in range(runs):
        ests = estimates_from_tally(cfg, run_trials_chunk(cfg, r * per, (r + 1) * per, 99))
        for scheme, est in ests.items():
            assert not est.low_confidence
            covered[scheme] += est.ci_lo <= reference[scheme].p_out <= est.ci_hi
    for scheme, n in covered.items():
        assert n >= 0.9 * runs, (scheme, n / runs)


def test_two_center_controlled_intervals_cover_the_plain_long_run():
    # 200 runs of 400 trials at fig5 cluster 320, where the benchmark's
    # time-to-CI check measures: inversion's interval, controlled by equal
    # split's known mean under the two-center bound's law, covers the
    # sampled rate sum Z_inv / users of the 102,400 trials of the long run,
    # which takes no known mean, in at least 90% of runs
    cfg, tally = _fig5_long_tally(320.0)
    assert coverage._supply(cfg).equal_split is not None
    plain = (((tally.out_inv - tally.bound_inv) << 32) + tally.law_inv) / UNIT / tally.users
    runs, per = 200, 400
    covered = 0
    for r in range(runs):
        inv = estimates_from_tally(cfg, run_trials_chunk(cfg, r * per, (r + 1) * per, 99))[
            Scheme.INVERSION]
        assert not inv.low_confidence
        covered += inv.ci_lo <= plain <= inv.ci_hi
    assert covered >= 0.9 * runs, covered / runs


@functools.lru_cache(maxsize=None)
def _dense_fig5_long_run():
    """The CI's dense fig5 (gamma = 10, lambda_e = 0.4, lossless lines) at
    cluster 80 and its estimates over 1,024,000 trials at a seed the runs
    below do not use."""
    cfg = parse_config_text("scenario.architecture = distributed\n"
                            "field.gamma = 10\nfield.lambda_e = 0.4\n"
                            "distributed.voltage = inf\n").scenario
    cfg = apply_sweep(cfg, "cluster_size", 80.0)
    return cfg, estimates_from_tally(cfg, run_trials_chunk(cfg, 0, 4000 * BLOCK, 4242))


def test_centers_path_intervals_cover_rare_field_outages():
    # 200 runs of 1000 trials at the dense fig5, where outages are rare and
    # come from the field: G's rate is about 3 times p's under either scheme,
    # and the residual outages C - Y under inversion number about 0.04 per
    # run. The interval of each covers the long run's estimate in at least
    # 90% of runs, for both schemes. From Z's moments alone, an interval
    # about G's rate where a run drew no residual, they covered 62% and 2%
    cfg, reference = _dense_fig5_long_run()
    runs, per = 200, 1000
    covered = {scheme: 0 for scheme in Scheme}
    for r in range(runs):
        ests = estimates_from_tally(cfg, run_trials_chunk(cfg, r * per, (r + 1) * per, 99))
        for scheme, est in ests.items():
            assert not est.low_confidence
            covered[scheme] += est.ci_lo <= reference[scheme].p_out <= est.ci_hi
    for scheme, n in covered.items():
        assert n >= 0.9 * runs, (scheme, n / runs)


def test_one_harvester_cluster_peak_is_the_tau_share():
    # the CI's tau_floor cluster of one harvester takes the center law with a
    # peak station power of tau gamma eta = 900
    cfg = replace(_repro_experiment("fig4").scenario,
                  architecture=Distributed(lambda_h=0.78, lambda_a=0.78,
                                           line=LineSpec(mode="tau_floor")))
    assert coverage._supply(cfg).peak_station_power == pytest.approx(900.0)
    assert coverage._supply(cfg).by_law
