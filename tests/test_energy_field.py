"""Random energy field: kernels, exact laws, moments, joint statistics."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renergy import coverage, energy_field
from renergy.cli import _repro_experiment
from renergy.energy_field import (EnergyFieldSpec, FieldRealization, Kernel,
                                  boolean_exp_moments, cdf_boolean_exp,
                                  cdf_boolean_plaw, decay_exp, decay_power_law,
                                  disk_overlap_area, draw_field,
                                  field_values, influence_radius,
                                  joint_cdf_boolean_exp, sample_intensity,
                                  sample_intensity_pair, shot_noise_mean,
                                  validation_window)
from renergy.geometry import (BLOCK, FIELD_STREAM, PointSet, Window, substream,
                              uniform_points)
from renergy.harness import apply_sweep
from renergy.stats import ks_statistic

# Frozen reference values (independent high-precision oracle):
#   (0.9)^(0.05*pi), exp(-0.45*pi), 0.05*pi, and the max-field moments
#   pi*psi/(1+pi*psi), pi*psi/(2+pi*psi) at psi=0.05, gamma=1.
CDF_EXP_09 = 0.98358620760666543
CDF_PLAW_04 = 0.24323756143753287
SHOT_MEAN_005 = 0.15707963267948966
MEAN_005 = 0.13575524816363319
SECOND_005 = 0.072820507087338187
# Exact two-disk overlap areas (closed form + Monte Carlo cross-check).
LENS_EQUAL = 1.2283696986087567    # r1 = r2 = 1, d = 1
LENS_ASYM = 0.27708516829052220    # r1 = 1, r2 = 0.6, d = 1.2


def exp_spec(psi=0.05, gamma=1.0, nu=1.0):
    return EnergyFieldSpec(gamma=gamma, lambda_e=psi / nu, nu=nu,
                           kernel=Kernel.BOOLEAN_MAX_EXP)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnergyFieldSpec(gamma=0.0, lambda_e=1.0, nu=1.0, kernel=Kernel.BOOLEAN_MAX_EXP)
    with pytest.raises(ValueError):
        EnergyFieldSpec(gamma=1.0, lambda_e=-0.1, nu=1.0, kernel=Kernel.BOOLEAN_MAX_EXP)
    for bad in (math.nan, math.inf):
        for name in ("gamma", "lambda_e", "nu"):
            kw = {"gamma": 1.0, "lambda_e": 1.0, "nu": 1.0, name: bad}
            with pytest.raises(ValueError, match=name):
                EnergyFieldSpec(**kw)
    assert exp_spec(psi=0.3, nu=2.0).psi == pytest.approx(0.3)


def test_decay_profiles():
    assert decay_exp(0.0, 2.0) == pytest.approx(1.0)
    assert decay_exp(1.0, 2.0) == pytest.approx(math.exp(-0.5))
    assert decay_power_law(0.0, 2.0) == pytest.approx(1.0)
    assert decay_power_law(2.0, 2.0) == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("kernel", [Kernel.BOOLEAN_MAX_EXP, Kernel.BOOLEAN_MAX_PLAW])
def test_in_place_kernel_keeps_the_decay_bits(kernel):
    # field_values and the bound apply the kernel in place, by the decay's
    # own operations in their order, so the values keep the decay's bits;
    # nu = 0.7 rounds where a reordering would round differently
    spec = EnergyFieldSpec(gamma=7.3, lambda_e=0.05, nu=0.7, kernel=kernel)
    decay = decay_exp if kernel is Kernel.BOOLEAN_MAX_EXP else decay_power_law
    d = np.append(substream(7, 0).uniform(0.0, 5.0, 1000), np.inf)
    assert np.array_equal(energy_field._boolean_kernel(spec, d.copy()),
                          spec.gamma * decay(d, spec.nu))


def test_field_values_max_kernel_by_hand():
    w = Window(10.0, 10.0, wrap=True)
    centers = PointSet(np.array([[1.0, 1.0], [5.0, 5.0]]))
    spec = EnergyFieldSpec(gamma=3.0, lambda_e=0.02, nu=4.0,
                           kernel=Kernel.BOOLEAN_MAX_EXP)
    real = FieldRealization(spec, centers, w)
    # (9, 9) is toroidally sqrt(8) from (1, 1) and sqrt(32) from (5, 5)
    expect = 3.0 * math.exp(-8.0 / 4.0)
    assert field_values(real, (9.0, 9.0))[0, 0] == pytest.approx(expect, rel=1e-12)
    # without wrap the same point is far from both centers
    flat = FieldRealization(spec, centers, Window(10.0, 10.0, wrap=False))
    assert field_values(flat, (9.0, 9.0))[0, 0] == pytest.approx(
        3.0 * math.exp(-32.0 / 4.0), rel=1e-12)


def test_field_values_shot_kernel_sums_images():
    w = Window(10.0, 10.0, wrap=True)
    centers = PointSet(np.array([[1.0, 1.0]]))
    spec = EnergyFieldSpec(gamma=2.0, lambda_e=0.02, nu=40.0,
                           kernel=Kernel.SHOT_NOISE_EXP)
    real = FieldRealization(spec, centers, w)
    expect = 0.0
    for dx in (-10.0, 0.0, 10.0):
        for dy in (-10.0, 0.0, 10.0):
            expect += 2.0 * math.exp(-((8.0 + dx) ** 2 + (8.0 + dy) ** 2) / 40.0)
    assert field_values(real, (9.0, 9.0))[0, 0] == pytest.approx(expect, rel=1e-12)


def test_field_values_power_law_kernel():
    w = Window(10.0, 10.0, wrap=True)
    centers = PointSet(np.array([[1.0, 1.0], [4.0, 1.0]]))
    spec = EnergyFieldSpec(gamma=5.0, lambda_e=0.02, nu=2.0,
                           kernel=Kernel.BOOLEAN_MAX_PLAW)
    real = FieldRealization(spec, centers, w)
    assert field_values(real, (2.0, 1.0))[0, 0] == pytest.approx(
        5.0 / (1.0 + 1.0 / 2.0), rel=1e-12)


def test_every_realization_is_a_block():
    spec = exp_spec()
    w = Window(5.0, 4.0)
    centers = PointSet(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert FieldRealization(spec, centers, w).counts.tolist() == [2]
    assert FieldRealization(spec, centers, w, np.array([0, 2])).counts.tolist() == [0, 2]
    for bad in ([1], [3, -1], [[2]]):
        with pytest.raises(ValueError):
            FieldRealization(spec, centers, w, np.array(bad))
    # a drawn block of one is a Poisson count, then its uniform positions
    real, rng = draw_field(spec, w, substream(413, 0)), substream(413, 0)
    expect = uniform_points(w, rng.poisson(spec.lambda_e * w.area), rng)
    assert real.counts.tolist() == [len(expect)]
    assert np.array_equal(real.centers.points, expect)


def test_empty_field_values():
    w = Window(5.0, 5.0)
    for kernel in Kernel:
        spec = EnergyFieldSpec(1.0, 0.05, 1.0, kernel)
        real = FieldRealization(spec, PointSet(np.empty((0, 2))), w)
        assert field_values(real, (1.0, 1.0))[0, 0] == 0.0
        # the sampler's empty realizations read exactly 0 as well
        sparse = EnergyFieldSpec(1.0, 1e-9, 1.0, kernel)
        assert not sample_intensity(sparse, w, (1.0, 1.0), 200, substream(411, 0)).any()


def test_cdf_reference_values():
    assert cdf_boolean_exp(0.9, exp_spec()) == pytest.approx(CDF_EXP_09, rel=1e-14)
    plaw = EnergyFieldSpec(gamma=1.0, lambda_e=0.3, nu=1.0,
                           kernel=Kernel.BOOLEAN_MAX_PLAW)
    assert cdf_boolean_plaw(0.4, plaw) == pytest.approx(CDF_PLAW_04, rel=1e-14)
    # boundaries
    assert cdf_boolean_exp(1.0, exp_spec()) == pytest.approx(1.0)
    assert cdf_boolean_exp(0.0, exp_spec()) == pytest.approx(0.0)
    assert cdf_boolean_plaw(1.0, plaw) == pytest.approx(1.0)


def test_influence_radius_matches_cdf():
    # P(g <= x) equals the void probability of the influence disk
    for spec in (exp_spec(psi=0.17), EnergyFieldSpec(1.0, 0.17, 1.0,
                                                     Kernel.BOOLEAN_MAX_PLAW)):
        for x in (0.05, 0.3, 0.7, 0.95):
            r = influence_radius(x, spec)
            void = math.exp(-spec.lambda_e * math.pi * r * r)
            cdf = cdf_boolean_exp(x, spec) if spec.kernel is Kernel.BOOLEAN_MAX_EXP \
                else cdf_boolean_plaw(x, spec)
            assert cdf == pytest.approx(void, rel=1e-12)


def test_moment_reference_values():
    m = boolean_exp_moments(exp_spec())
    assert m.mean == pytest.approx(MEAN_005, rel=1e-14)
    assert m.second_moment == pytest.approx(SECOND_005, rel=1e-14)
    assert m.variance == pytest.approx(SECOND_005 - MEAN_005 ** 2, rel=1e-12)
    assert shot_noise_mean(exp_spec()) == pytest.approx(SHOT_MEAN_005, rel=1e-14)
    # gamma scaling
    m2 = boolean_exp_moments(exp_spec(gamma=3.0))
    assert m2.mean == pytest.approx(3.0 * MEAN_005, rel=1e-12)
    assert m2.second_moment == pytest.approx(9.0 * SECOND_005, rel=1e-12)


def test_sampled_moments_match_closed_forms():
    spec = exp_spec(psi=0.2)
    w = validation_window(spec, 20000)
    s = sample_intensity(spec, w, w.center, 20000, substream(404, 0))
    m = boolean_exp_moments(spec)
    se1 = s.std() / math.sqrt(len(s))
    assert abs(s.mean() - m.mean) < 3 * se1
    sq = s ** 2
    assert abs(sq.mean() - m.second_moment) < 3 * sq.std() / math.sqrt(len(s))


def test_shot_noise_campbell_mean():
    spec = EnergyFieldSpec(1.0, 0.05, 1.0, Kernel.SHOT_NOISE_EXP)
    w = validation_window(exp_spec(), 40000)
    s = sample_intensity(spec, w, w.center, 40000, substream(405, 0))
    se = s.std() / math.sqrt(len(s))
    assert abs(s.mean() - SHOT_MEAN_005) < max(3 * se, 0.01 * SHOT_MEAN_005)


def test_shot_dominates_max_realizationwise():
    w = Window(20.0, 20.0, wrap=True)
    spec_max = exp_spec(psi=0.3)
    spec_shot = EnergyFieldSpec(1.0, 0.3, 1.0, Kernel.SHOT_NOISE_EXP)
    rng = substream(406, 0)
    pts = rng.uniform((0, 0), (20, 20), size=(200, 2))
    for t in range(20):
        centers = draw_field(spec_max, w, substream(406, t + 1)).centers
        vmax = field_values(FieldRealization(spec_max, centers, w), pts)
        vshot = field_values(FieldRealization(spec_shot, centers, w), pts)
        assert np.all(vshot >= vmax - 1e-12)


def test_field_law_ks_smoke():
    # moderate-n KS at a loose level; the full acceptance test runs 1e5
    for spec in (exp_spec(psi=0.2), EnergyFieldSpec(1.0, 0.2, 1.0,
                                                    Kernel.BOOLEAN_MAX_PLAW)):
        w = validation_window(spec, 5000)
        s = sample_intensity(spec, w, w.center, 5000, substream(407, 0))
        cdf = (lambda x: cdf_boolean_exp(x, spec)) \
            if spec.kernel is Kernel.BOOLEAN_MAX_EXP \
            else (lambda x: cdf_boolean_plaw(x, spec))
        res = ks_statistic(s, cdf, level=0.001)
        assert res.passed, f"KS {res.statistic:.4f} > {res.critical:.4f}"


def test_disk_overlap_reference_values():
    assert disk_overlap_area(1.0, 1.0, 0.0) == pytest.approx(math.pi, rel=1e-12)
    assert disk_overlap_area(1.0, 1.0, 2.0) == 0.0
    assert disk_overlap_area(1.0, 1.0, 5.0) == 0.0
    assert disk_overlap_area(1.0, 1.0, 1.0) == pytest.approx(LENS_EQUAL, rel=1e-12)
    assert disk_overlap_area(1.0, 0.6, 1.2) == pytest.approx(LENS_ASYM, rel=1e-12)
    # containment: small disk inside big one
    assert disk_overlap_area(2.0, 0.5, 0.3) == pytest.approx(math.pi * 0.25, rel=1e-12)
    assert disk_overlap_area(0.5, 2.0, 0.3) == pytest.approx(math.pi * 0.25, rel=1e-12)


def test_joint_cdf_limits():
    spec = exp_spec(psi=0.1)
    x1, x2 = 0.3, 0.6
    r1 = influence_radius(x1, spec)
    r2 = influence_radius(x2, spec)
    # far separation: independence
    far = joint_cdf_boolean_exp(x1, x2, r1 + r2 + 1.0, spec)
    prod = cdf_boolean_exp(x1, spec) * cdf_boolean_exp(x2, spec)
    assert far == pytest.approx(prod, rel=1e-12)
    # coincident points: the joint law collapses to the smaller marginal.
    # This exercises the overlap-area route, which stays self-consistent at
    # d = 0 (a plain union-of-disks shorthand would not).
    assert joint_cdf_boolean_exp(x1, x2, 0.0, spec) == pytest.approx(
        cdf_boolean_exp(min(x1, x2), spec), rel=1e-12)
    # positive association: joint cdf is at least the product, at most the min
    mid = joint_cdf_boolean_exp(x1, x2, 0.5 * (r1 + r2), spec)
    assert prod <= mid <= cdf_boolean_exp(min(x1, x2), spec) + 1e-12
    # monotone decreasing in separation
    ds = np.linspace(0.0, r1 + r2 + 0.5, 12)
    vals = [joint_cdf_boolean_exp(x1, x2, float(d), spec) for d in ds]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_joint_cdf_against_paired_sampling():
    spec = exp_spec(psi=0.15)
    w = validation_window(spec, 200000)
    c = w.center
    d = 1.2
    p1 = (c[0] - d / 2, c[1])
    p2 = (c[0] + d / 2, c[1])
    pairs = sample_intensity_pair(spec, w, p1, p2, 200000, substream(408, 0))
    for x1, x2 in ((0.4, 0.4), (0.3, 0.7)):
        emp = np.mean((pairs[:, 0] <= x1) & (pairs[:, 1] <= x2))
        assert abs(emp - joint_cdf_boolean_exp(x1, x2, d, spec)) < 0.01


def test_pair_columns_equal_single_point_samples(monkeypatch):
    # both entries draw counts, then xs, then ys, so one seed gives one stream;
    # 19 expected centers a realization make draws of 1500 realizations
    monkeypatch.setattr(energy_field, "_DRAW_CENTERS", 1500 * 19)
    spec = exp_spec(psi=0.3)
    w = Window(9.0, 7.0, wrap=True)
    p1, p2 = (0.3, 6.5), (8.0, 1.0)
    pairs = sample_intensity_pair(spec, w, p1, p2, 5000, substream(410, 0))
    for col, p in enumerate((p1, p2)):
        single = sample_intensity(spec, w, p, 5000, substream(410, 0))
        assert np.array_equal(pairs[:, col], single)


@pytest.mark.parametrize("budget, draws", [(100, [5, 5, 5, 5, 3]), (10, [1] * 23),
                                           (1 << 20, [23])])
def test_sampler_draws_whole_realizations_within_the_budget(monkeypatch, budget, draws):
    # 19 expected centers a realization (lambda_e * area = 18.9): a budget of
    # 100 takes 5 realizations a draw, and one below 19 still draws one whole
    monkeypatch.setattr(energy_field, "_DRAW_CENTERS", budget)
    spec = exp_spec(psi=0.3)
    w = Window(9.0, 7.0, wrap=True)
    point = (2.5, 4.0)
    rng = substream(416, 0)
    expected = np.concatenate([field_values(draw_field(spec, w, rng, m), [point])[0]
                               for m in draws])
    assert np.array_equal(sample_intensity(spec, w, point, 23, substream(416, 0)),
                          expected)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_sampler_memory_is_bounded(kernel):
    # at psi = 1 the validation window holds 100 expected centers a
    # realization, so 50,000 realizations drawn at once would take 80 MB of
    # coordinates; draws of 2^20 expected centers take 16 MiB
    spec = EnergyFieldSpec(gamma=1.0, lambda_e=1.0, nu=1.0, kernel=kernel)
    w = validation_window(spec, 50_000)
    tracemalloc.start()
    try:
        sample_intensity(spec, w, w.center, 50_000, substream(417, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, f"sample_intensity peaked at {peak / 2**20:.1f} MiB"


def test_validation_window_controls_tail_mass():
    for psi, n in ((0.05, 100000), (0.2, 100000), (1.0, 10000)):
        spec = exp_spec(psi=psi)
        w = validation_window(spec, n)
        assert w.width >= 10.0 * math.sqrt(spec.nu)
        tail = math.exp(-spec.lambda_e * math.pi * (w.width / 2.0) ** 2)
        assert tail <= 0.1 * 1.63 / math.sqrt(n) + 1e-12


# The window law's cases: the fig4 square (side 10 / sqrt(0.78)) and a
# 10 x 14 rectangle, each wrapped and flat. At lambda_e 0.01-0.03 between
# 1.5% and 28% of their realizations hold no center, and between 3% and 28%
# of the others have their nearest center beyond half the shorter side,
# where the window cuts the disk.
_LAW_WINDOWS = [Window(10.0 / math.sqrt(0.78), 10.0 / math.sqrt(0.78), wrap=True),
                Window(10.0 / math.sqrt(0.78), 10.0 / math.sqrt(0.78), wrap=False),
                Window(10.0, 14.0, wrap=True), Window(10.0, 14.0, wrap=False)]


def _two_sample_ks(a, b):
    """Largest gap between two empirical CDFs, ties included."""
    grid = np.union1d(a, b)
    fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


@pytest.mark.parametrize("lambda_e", [0.01, 0.03])
@pytest.mark.parametrize("window", _LAW_WINDOWS)
@pytest.mark.parametrize("kernel", [Kernel.BOOLEAN_MAX_EXP, Kernel.BOOLEAN_MAX_PLAW])
def test_window_law_matches_brute_force_draws(kernel, window, lambda_e):
    spec = EnergyFieldSpec(gamma=1.0, lambda_e=lambda_e, nu=1.0, kernel=kernel)
    n = 50_000
    real = draw_field(spec, window, substream(61, 0), n)
    brute = field_values(real, window.center[None, :])[0]
    u = substream(61, 1).random(n)
    law = energy_field._boolean_kernel(
        spec, energy_field.nearest_center_distance(u, lambda_e, window))
    # a two-sample KS test at level 1e-6; the atom at 0 makes it conservative
    critical = 5.35 * math.sqrt(2.0 / n)
    assert _two_sample_ks(brute, law) < critical
    empty = math.exp(-lambda_e * window.area)
    for sample in (brute, law):
        assert abs(np.mean(sample == 0.0) - empty) < 5.0 * math.sqrt(empty / n)
    # the nearest drawn center's distance, mapped through its window law, is
    # uniform: Pr(D > d) = exp(-lambda_e A(d))
    xy = real.centers.points
    dist = np.hypot(xy[:, 0] - window.center[0], xy[:, 1] - window.center[1])
    held = real.counts > 0
    starts = (np.cumsum(real.counts) - real.counts)[held]
    nearest = np.minimum.reduceat(dist, starts)
    mass = -np.expm1(-lambda_e * energy_field.window_disk_area(nearest, window))
    res = ks_statistic(mass / -math.expm1(-lambda_e * window.area), lambda x: x, 1e-6)
    assert res.passed, res


@pytest.mark.parametrize("window", [Window(10.0, 3.0, wrap=True), Window(4.0, 9.0, wrap=False)])
def test_nearest_center_realizations_place_the_drawn_nearest_center(window):
    # one center each, at nearest_center_distance(u) from the window's center
    # and inside the window, none where the window is empty; its position
    # follows the nearest center of drawn realizations: on these narrow
    # windows most circles leave the window, and the angle keeps to the arcs
    # inside it
    lambda_e, n = 0.1, 40_000
    spec = EnergyFieldSpec(gamma=1.0, lambda_e=lambda_e, nu=1.0)
    rng = substream(63, 0)
    u, v = rng.random(n), rng.random(n)
    one = energy_field.nearest_center_realizations(spec, window, u, v)
    r = energy_field.nearest_center_distance(u, lambda_e, window)
    assert np.array_equal(one.counts, np.isfinite(r).astype(int))
    xy = one.centers.points
    assert np.all((xy >= 0) & (xy <= [window.width, window.height]))
    offset = xy - window.center
    assert np.allclose(np.hypot(*offset.T), r[np.isfinite(r)], rtol=1e-12, atol=1e-12)
    real = draw_field(spec, window, substream(63, 1), n)
    d2 = ((real.centers.points - window.center) ** 2).sum(axis=1)
    held = real.counts > 0
    starts = (np.cumsum(real.counts) - real.counts)[held]
    hits = np.flatnonzero(d2 == np.repeat(np.minimum.reduceat(d2, starts), real.counts[held]))
    drawn = real.centers.points[hits[np.searchsorted(hits, starts)]] - window.center
    # two-sample KS tests at level 1e-6 on each coordinate
    critical = 5.35 * math.sqrt(2.0 / n)
    for axis in (0, 1):
        assert _two_sample_ks(offset[:, axis], drawn[:, axis]) < critical, axis


@pytest.mark.parametrize("window", _LAW_WINDOWS[::2])
def test_window_disk_area_closed_form(window):
    half = 0.5 * min(window.width, window.height)
    # the plane's pi r^2 up to half the shorter side, so the plane laws hold there
    r = np.linspace(0.0, half, 101)
    assert np.array_equal(energy_field.window_disk_area(r, window), math.pi * (r * r))
    for spec in (EnergyFieldSpec(1.0, 0.02, 1.0, Kernel.BOOLEAN_MAX_EXP),
                 EnergyFieldSpec(1.0, 0.02, 1.0, Kernel.BOOLEAN_MAX_PLAW)):
        cdf = cdf_boolean_exp if spec.kernel is Kernel.BOOLEAN_MAX_EXP else cdf_boolean_plaw
        for x in (0.01, 0.2, 0.9):
            rx = influence_radius(x, spec)
            if rx <= half:
                window_cdf = math.exp(-spec.lambda_e * energy_field.window_disk_area(rx, window))
                assert float(cdf(x, spec)) == pytest.approx(window_cdf, rel=1e-13)
    # beyond it, against a midpoint-rule integral of the disk's chord lengths
    # clipped to the window's height
    corner = 0.5 * math.hypot(window.width, window.height)
    r = np.linspace(half, corner, 9)
    x = (np.arange(200_000) + 0.5) / 200_000 * window.width - 0.5 * window.width
    chords = np.minimum(2.0 * np.sqrt(np.maximum(r[:, None] ** 2 - x * x, 0.0)),
                        window.height)
    integral = chords.sum(axis=1) * window.width / 200_000
    assert np.allclose(energy_field.window_disk_area(r, window), integral, rtol=1e-8)
    assert energy_field.window_disk_area(corner, window) == pytest.approx(window.area,
                                                                          rel=1e-14)
    assert energy_field.window_disk_area([corner * 1.5, math.inf], window).tolist() == \
        [window.area] * 2
    with pytest.raises(ValueError):
        energy_field.window_disk_area(-1.0, window)


@pytest.mark.parametrize("window", _LAW_WINDOWS[::2])
def test_window_law_inverse_round_trips(window):
    lambda_e = 0.02
    empty = math.exp(-lambda_e * window.area)
    # uniforms across the whole law, and the last ones before no center, whose
    # nearest center sits in the window's corners
    u = np.concatenate([substream(62, 0).random(20_000),
                        (1.0 - empty) * (1.0 - np.logspace(-15, -1, 200))])
    d = energy_field.nearest_center_distance(u, lambda_e, window)
    target = -np.log1p(-u) / lambda_e
    held = np.isfinite(d)
    assert np.array_equal(held, target < window.area)
    area = energy_field.window_disk_area(d[held], window)
    assert np.max(np.abs(area - target[held]) / target[held]) < 1e-13
    # no center exactly where the uniform passes 1 - exp(-lambda_e * area)
    edge = -math.expm1(-lambda_e * window.area)
    assert np.isfinite(energy_field.nearest_center_distance(edge * (1 - 1e-12), lambda_e,
                                                            window))
    assert energy_field.nearest_center_distance(edge * (1 + 1e-12), lambda_e,
                                                window) == math.inf
    # each value is its own: one at a time gives the same bits as the batch
    some = np.linspace(0, len(u) - 1, 400).astype(int)
    alone = [energy_field.nearest_center_distance(u[i], lambda_e, window) for i in some]
    assert np.array_equal(alone, d[some])
    for bad in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="u must"):
            energy_field.nearest_center_distance([0.5, bad], lambda_e, window)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda_e"):
            energy_field.nearest_center_distance(0.5, bad, window)


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("kernel", list(Kernel))
def test_block_field_values_match_single_realizations(kernel, wrap):
    # a block evaluated in one grouped pass, in tiles of points, equals each
    # realization evaluated alone, and so does a part of it taken by select
    # or under a mask; psi 0.02 leaves some realizations empty
    spec = EnergyFieldSpec(gamma=3.0, lambda_e=0.02, nu=1.0, kernel=kernel)
    w = Window(9.0, 7.0, wrap=wrap)
    block = draw_field(spec, w, substream(412, 0), 40)
    assert (block.counts == 0).any() and len(block.centers) == block.counts.sum()
    pts = substream(412, 1).uniform(0.0, 7.0, size=(700, 2))
    values = field_values(block, pts)
    assert values.shape == (700, 40)
    starts = np.cumsum(block.counts) - block.counts
    for i, (a, c) in enumerate(zip(starts, block.counts)):
        single = FieldRealization(spec, PointSet(block.centers.points[a:a + c]), w)
        assert np.array_equal(values[:, i], field_values(single, pts)[:, 0])
    part = block.select(5, 17)
    assert np.array_equal(field_values(part, pts), values[:, 5:17])
    keep = (np.arange(40) % 3 == 0) | (block.counts == 0)
    assert np.array_equal(field_values(block.compress(keep), pts), values[:, keep])


def _brute_boolean_field(spec, window, centers, counts, pts):
    """Each realization alone: every point-center distance, its sqrt, then
    the minimum, then the kernel; an empty realization reads 0."""
    decay = decay_exp if spec.kernel is Kernel.BOOLEAN_MAX_EXP else decay_power_law
    out = np.zeros((len(pts), len(counts)))
    start = 0
    for i, c in enumerate(counts):
        cs = centers[start:start + c]
        start += c
        if c == 0:
            continue
        dx = np.abs(pts[:, None, 0] - cs[None, :, 0])
        dy = np.abs(pts[:, None, 1] - cs[None, :, 1])
        if window.wrap:
            dx = np.minimum(dx, window.width - dx)
            dy = np.minimum(dy, window.height - dy)
        out[:, i] = spec.gamma * decay(np.sqrt(dx * dx + dy * dy).min(axis=1), spec.nu)
    return out


def _brute_shot_noise(spec, window, centers, counts, pts):
    """Each realization alone: the kernel of every point-center pair and, on
    a wrapped window, of the center's eight images, summed; an empty
    realization reads 0."""
    shifts = (-1, 0, 1) if window.wrap else (0,)
    out = np.zeros((len(pts), len(counts)))
    start = 0
    for i, c in enumerate(counts):
        cs = centers[start:start + c]
        start += c
        for ox in shifts:
            for oy in shifts:
                dx = pts[:, None, 0] - cs[None, :, 0] + ox * window.width
                dy = pts[:, None, 1] - cs[None, :, 1] + oy * window.height
                out[:, i] += np.exp(-(dx * dx + dy * dy) / spec.nu).sum(axis=1)
    return spec.gamma * out


def _assert_matches_brute_force(spec, window, centers, counts, pts, values):
    """Boolean kernels bit for bit; shot noise to round-off, since a product
    of per-axis image sums rounds differently from the sum over images."""
    if spec.kernel is Kernel.SHOT_NOISE_EXP:
        expect = _brute_shot_noise(spec, window, centers, counts, pts)
        np.testing.assert_allclose(values, expect, rtol=1e-12, atol=0.0)
    else:
        expect = _brute_boolean_field(spec, window, centers, counts, pts)
        assert np.array_equal(values, expect)


_GRID = st.tuples(st.integers(0, 17), st.integers(0, 13))   # 0.5 km steps in 9 x 7


@settings(max_examples=80, deadline=None)
@given(kernel=st.sampled_from(list(Kernel)),
       wrap=st.booleans(),
       points=st.lists(_GRID, min_size=1, max_size=30),
       cells=st.lists(_GRID, min_size=1, max_size=20),
       counts=st.lists(st.integers(0, 5), min_size=1, max_size=10),
       tile_elements=st.sampled_from([1, 6, 40, 1 << 16]),
       tile_points=st.sampled_from([1, 4, 1024]))
@example(kernel=Kernel.BOOLEAN_MAX_PLAW, wrap=True, points=[(0, 0), (17, 13), (9, 7)],
         cells=[(1, 1), (17, 0), (9, 12)], counts=[2, 0, 3, 0], tile_elements=6,
         tile_points=1)
@example(kernel=Kernel.SHOT_NOISE_EXP, wrap=True, points=[(0, 0), (17, 13), (9, 7)],
         cells=[(1, 1), (17, 0), (9, 12)], counts=[2, 0, 3, 0], tile_elements=6,
         tile_points=1)
# one center per realization: tiles that skip the reduceat and are written
# as a slice, and with an empty realization, through their column indices
@example(kernel=Kernel.BOOLEAN_MAX_EXP, wrap=True, points=[(0, 0), (17, 13), (9, 7)],
         cells=[(1, 1), (17, 0), (9, 12)], counts=[1, 1, 1], tile_elements=6,
         tile_points=1)
@example(kernel=Kernel.SHOT_NOISE_EXP, wrap=False, points=[(0, 0), (17, 13), (9, 7)],
         cells=[(1, 1), (17, 0), (9, 12)], counts=[1, 0, 1, 1, 0], tile_elements=6,
         tile_points=1)
def test_factored_kernel_equals_brute_force(kernel, wrap, points, cells, counts,
                                            tile_elements, tile_points):
    # points and centers on a grid repeat coordinates and tie distances
    # exactly; small tiles split the points and the realizations of a block
    spec = EnergyFieldSpec(gamma=3.0, lambda_e=0.05, nu=2.0, kernel=kernel)
    w = Window(9.0, 7.0, wrap=wrap)
    centers = 0.5 * np.array([cells[i % len(cells)] for i in range(sum(counts))],
                             dtype=float).reshape(-1, 2)
    pts = 0.5 * np.array(points, dtype=float)
    block = FieldRealization(spec, PointSet(centers), w, np.array(counts))
    with mock.patch.multiple(energy_field, _TILE_ELEMENTS=tile_elements,
                             _TILE_POINTS=tile_points):
        for where in (pts, PointSet(pts)):
            _assert_matches_brute_force(spec, w, centers, counts, pts,
                                        field_values(block, where))


def _nearest_center_alone(block):
    """Each realization of a block reduced to its first center at the least
    squared distance from the window's center, as a block of one; None for
    an empty one."""
    cx, cy = block.window.center
    starts = np.cumsum(block.counts) - block.counts
    alone = []
    for a, c in zip(starts, block.counts):
        xy = block.centers.points[a:a + c]
        d2 = (xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2
        alone.append(FieldRealization(block.spec, PointSet(xy[np.argmin(d2)]), block.window)
                     if c else None)
    return alone


@settings(max_examples=80, deadline=None)
@given(kernel=st.sampled_from(list(Kernel)),
       wrap=st.booleans(),
       points=st.lists(_GRID, min_size=1, max_size=40),
       cells=st.lists(_GRID, min_size=1, max_size=20),
       counts=st.lists(st.integers(0, 5), min_size=1, max_size=10))
@example(kernel=Kernel.BOOLEAN_MAX_EXP, wrap=True, points=[(0, 0), (17, 13), (9, 7)],
         cells=[(8, 7), (10, 7), (9, 12)], counts=[2, 0, 3])
@example(kernel=Kernel.SHOT_NOISE_EXP, wrap=False, points=[(0, 0), (17, 13), (9, 7)],
         cells=[(9, 5), (9, 9), (7, 7), (11, 7)], counts=[4, 0, 0])
def test_the_field_at_the_nearest_center_alone_never_exceeds_the_field(kernel, wrap, points,
                                                                         cells, counts):
    # on a grid, centers tie in their distance from the window's center
    # (4.5, 3.5); field_values at nearest_center's block is the field of the
    # first tied center alone, bit for bit, and never exceeds the field of
    # all the centers. An empty realization's is 0
    spec = EnergyFieldSpec(gamma=3.0, lambda_e=0.05, nu=2.0, kernel=kernel)
    w = Window(9.0, 7.0, wrap=wrap)
    centers = 0.5 * np.array([cells[i % len(cells)] for i in range(sum(counts))],
                             dtype=float).reshape(-1, 2)
    pts = 0.5 * np.array(points, dtype=float)
    block = FieldRealization(spec, PointSet(centers), w, np.array(counts))
    bound = field_values(energy_field.nearest_center(block), pts)
    assert bound.shape == (len(pts), len(counts))
    for i, alone in enumerate(_nearest_center_alone(block)):
        expect = 0.0 if alone is None else field_values(alone, pts)[:, 0]
        assert np.array_equal(bound[:, i], np.broadcast_to(expect, len(pts)))
    assert np.all(bound <= field_values(block, pts))



@settings(max_examples=80, deadline=None)
@given(kernel=st.sampled_from([Kernel.BOOLEAN_MAX_EXP, Kernel.SHOT_NOISE_EXP]),
       wrap=st.booleans(),
       points=st.lists(_GRID, min_size=1, max_size=40),
       cells=st.lists(_GRID, min_size=1, max_size=20),
       counts=st.lists(st.integers(0, 5), min_size=1, max_size=10))
@example(kernel=Kernel.BOOLEAN_MAX_EXP, wrap=True, points=[(0, 0), (17, 13), (9, 7)],
         cells=[(8, 7), (10, 7), (9, 12)], counts=[2, 0, 3])
def test_nearest_center_total_sums_the_bound_by_axis(kernel, wrap, points, cells, counts):
    # the bound summed over the points from each axis's decays: the sum of
    # field_values at nearest_center's block to round-off, each realization's total
    # the same bits alone as in its block, and 0 for an empty one
    spec = EnergyFieldSpec(gamma=3.0, lambda_e=0.05, nu=2.0, kernel=kernel)
    w = Window(9.0, 7.0, wrap=wrap)
    centers = 0.5 * np.array([cells[i % len(cells)] for i in range(sum(counts))],
                             dtype=float).reshape(-1, 2)
    pts = PointSet(0.5 * np.array(points, dtype=float))
    block = FieldRealization(spec, PointSet(centers), w, np.array(counts))
    total = energy_field.nearest_center_total(block, pts)
    alone = field_values(energy_field.nearest_center(block), pts)
    np.testing.assert_allclose(total, alone.sum(axis=0), rtol=1e-12, atol=0.0)
    for i in range(len(counts)):
        assert np.array_equal(energy_field.nearest_center_total(block.select(i, i + 1), pts),
                              total[i:i + 1])
    assert np.all(total[np.array(counts) == 0] == 0.0)
    with pytest.raises(ValueError, match="power-law"):
        energy_field.nearest_center_total(
            FieldRealization(replace(spec, kernel=Kernel.BOOLEAN_MAX_PLAW), PointSet(centers),
                             w, np.array(counts)), pts)

def _fig5_harvesters_and_block(kernel, density=1.0):
    """The typical aggregator's 307 harvesters at fig5 cluster size 320, and
    the first field block its trials draw, with the given kernel and the
    center density scaled by `density`."""
    cfg = apply_sweep(_repro_experiment("fig5").scenario, "cluster_size", 320)
    supply = coverage._supply(cfg)
    window, positions = supply.window, supply.positions
    spec = replace(cfg.field, kernel=kernel, lambda_e=density * cfg.field.lambda_e)
    return positions, draw_field(spec, window, substream(420, 0, FIELD_STREAM), BLOCK)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_many_points_match_brute_force(kernel):
    # the fig5 harvesters, with about 13 centers a realization and with
    # about 100 at 8 x lambda_e: a whole block's field values equal the
    # brute-force oracles on its first realizations, the boolean kernels bit
    # for bit and shot noise to round-off
    for density, mean_centers in ((1.0, (5, 20)), (8.0, (80, 120))):
        pts, block = _fig5_harvesters_and_block(kernel, density)
        assert len(pts) == 307 and mean_centers[0] < block.counts.mean() < mean_centers[1]
        values = field_values(block, pts)
        head = block.select(0, 16)
        _assert_matches_brute_force(block.spec, block.window, head.centers.points,
                                    head.counts, pts.points, values[:, :16])


@pytest.mark.parametrize("kernel", list(Kernel))
def test_field_values_memory_is_bounded_on_a_large_block(kernel):
    # one point over a block of about 1.1M centers: one (points x centers)
    # array of it alone is 8.8 MB, while the tiled kernel peaks at 2.5 MB
    # (boolean) and 3.5 MB (shot noise)
    spec = EnergyFieldSpec(gamma=1.0, lambda_e=4.0, nu=1.0, kernel=kernel)
    w = Window(20.0, 20.0)
    block = draw_field(spec, w, substream(415, 0), 700)
    assert len(block.centers) >= 1_000_000
    point = PointSet(w.center)
    tracemalloc.start()
    try:
        values = field_values(block, point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"field_values peaked at {peak / 2**20:.1f} MB"
    head = block.select(0, 3)
    _assert_matches_brute_force(spec, w, head.centers.points, head.counts,
                                point.points, values[:, :3])


def test_field_values_memory_is_bounded_on_a_many_point_block():
    # 256 lattice points over 2,000 realizations of about 12 centers. One
    # (points x centers) array of it alone is 49 MB; past its (points x
    # realizations) output, a tile of all the points holds its pairs and the
    # other axis's gather, each within _TILE_ELEMENTS, beside its two
    # per-axis arrays
    spec = EnergyFieldSpec(gamma=1.0, lambda_e=0.03, nu=1.0)
    w = Window(20.0, 20.0, wrap=True)
    grid = np.arange(16) * 1.25
    pts = PointSet(np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2))
    block = draw_field(spec, w, substream(421, 0), 2000)
    assert len(pts) * len(block.centers) * 8 > 40 * 2**20
    _assert_field_values_within_tiles(spec, w, block, pts)


def test_field_values_memory_is_bounded_on_long_realizations():
    # 64 lattice points over 2,000 realizations of about 200 centers: one
    # (points x centers) array of it alone is 205 MB, and tiles of about
    # _TILE_ELEMENTS / 64 centers keep it within the same arrays
    spec = EnergyFieldSpec(gamma=1.0, lambda_e=0.5, nu=1.0)
    w = Window(20.0, 20.0, wrap=True)
    grid = np.arange(8) * 2.5
    pts = PointSet(np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2))
    block = draw_field(spec, w, substream(422, 0), 2000)
    assert len(pts) * len(block.centers) * 8 > 190 * 2**20
    _assert_field_values_within_tiles(spec, w, block, pts)


def _assert_field_values_within_tiles(spec, window, block, pts):
    """field_values of a boolean exponential block, at fewer points than a
    tile takes, peaks within four tile arrays of _TILE_ELEMENTS values past
    its output and matches brute force on the first realizations."""
    assert len(pts) <= energy_field._TILE_POINTS
    pts.axes   # the point set's own factorization is not the reduction's
    tracemalloc.start()
    try:
        values = field_values(block, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = 8 * 4 * energy_field._TILE_ELEMENTS
    assert peak < values.nbytes + budget + 2**20, \
        f"field_values peaked at {(peak - values.nbytes) / 2**20:.1f} MB past its output"
    head = block.select(0, 3)
    _assert_matches_brute_force(spec, window, head.centers.points, head.counts,
                                pts.points, values[:, :3])
