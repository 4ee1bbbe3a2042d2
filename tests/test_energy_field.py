"""Random energy field: kernels, exact laws, moments, joint statistics."""

import math

import numpy as np
import pytest

from renergy.energy_field import (EnergyFieldSpec, FieldRealization, Kernel,
                                  boolean_exp_moments, cdf_boolean_exp,
                                  cdf_boolean_plaw, decay_exp, decay_power_law,
                                  disk_overlap_area, draw_field,
                                  field_values, influence_radius,
                                  joint_cdf_boolean_exp, sample_intensity,
                                  sample_intensity_pair, shot_noise_mean,
                                  validation_window)
from renergy.geometry import PointSet, Window, substream, uniform_points
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


def test_pair_columns_equal_single_point_samples():
    # both entries draw counts, then xs, then ys, so one seed gives one stream
    spec = exp_spec(psi=0.3)
    w = Window(9.0, 7.0, wrap=True)
    p1, p2 = (0.3, 6.5), (8.0, 1.0)
    pairs = sample_intensity_pair(spec, w, p1, p2, 5000, substream(410, 0), chunk=1500)
    for col, p in enumerate((p1, p2)):
        single = sample_intensity(spec, w, p, 5000, substream(410, 0), chunk=1500)
        assert np.array_equal(pairs[:, col], single)


def test_validation_window_controls_tail_mass():
    for psi, n in ((0.05, 100000), (0.2, 100000), (1.0, 10000)):
        spec = exp_spec(psi=psi)
        w = validation_window(spec, n)
        assert w.width >= 10.0 * math.sqrt(spec.nu)
        tail = math.exp(-spec.lambda_e * math.pi * (w.width / 2.0) ** 2)
        assert tail <= 0.1 * 1.63 / math.sqrt(n) + 1e-12


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("kernel", list(Kernel))
def test_block_field_values_match_single_realizations(kernel, wrap):
    # a block evaluated in one grouped pass, in tiles of points, equals each
    # realization evaluated alone; psi 0.02 leaves some realizations empty
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
