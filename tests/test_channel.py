"""Channel layer: path loss, fading laws, required transmit power."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from renergy import channel
from renergy.channel import (ChannelSpec, ChiSquaredFading, TruncatedRicianFading,
                             mean_inverse_fading, path_gain, required_power,
                             sample_fading)
from renergy.geometry import substream

# theta * noise / gain at the reference distance with unit fading for the
# physical defaults: 8 * 1e-12 W / 1e-7 = 8e-5 W.
REQUIRED_AT_REF = 8e-5
# E[1/H] for the truncated Rician law at floor 0.1, by quadrature over the
# noncentral chi-squared law; cross-checked against an independent sampler below.
RICIAN_MEAN_INV_01 = 1.4875864134246701


def fading_cdf(fading, t):
    """Oracle: CDF of the fading gain; closed form for the chi-squared family."""
    if isinstance(fading, ChiSquaredFading):
        t = np.asarray(t, dtype=float)
        return special.gammainc(fading.omega, np.maximum(t, 0.0))
    raise NotImplementedError("no closed-form CDF for truncated Rician fading")


def rician_mean_inverse_by_quadrature(floor, scatter_var):
    """Oracle: E[1/max(H, floor)] = F(floor)/floor + int_floor^inf p(h)/h dh,
    the unfloored gain being s2 * ncx2(df=2, nc=1/s2) with s2 the per-branch
    scatter variance."""
    s2 = scatter_var / 2.0
    law = stats.ncx2(df=2, nc=1.0 / s2, scale=s2)
    tail, _ = integrate.quad(lambda h: law.pdf(h) / h, floor, np.inf)
    return float(law.cdf(floor)) / floor + tail


def test_fading_spec_validation():
    # a bool is no diversity order: True would build omega = 1
    for bad in (0, 1.5, math.inf, math.nan, True, False, np.True_):
        with pytest.raises(ValueError, match="omega"):
            ChiSquaredFading(bad)
    with pytest.raises(ValueError):
        TruncatedRicianFading(0.0)
    with pytest.raises(ValueError):
        TruncatedRicianFading(1.0)
    assert ChiSquaredFading(3).omega == 3


def test_channel_spec_validation_and_noise():
    spec = ChannelSpec()
    assert spec.noise_w == pytest.approx(1e-12, rel=1e-12)  # -90 dBm
    with pytest.raises(ValueError):
        ChannelSpec(alpha=2.0)
    for name in ("alpha", "ref_loss_db", "ref_dist", "noise_dbm"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                ChannelSpec(**{name: bad})
    with pytest.raises(ValueError):
        TruncatedRicianFading(math.nan)
    with pytest.raises(ValueError, match="unknown fading"):
        ChannelSpec(fading="rayleigh")
    norm = ChannelSpec.normalized(alpha=3.5)
    assert norm.noise_w == pytest.approx(1.0)
    assert path_gain(2.0, norm) == pytest.approx(2.0 ** -3.5, rel=1e-12)


def test_path_gain_reference_and_scaling():
    spec = ChannelSpec()
    assert path_gain(0.1, spec) == pytest.approx(1e-7, rel=1e-12)
    assert path_gain(0.2, spec) == pytest.approx(1e-7 / 16.0, rel=1e-12)
    with pytest.raises(ValueError):
        path_gain(0.0, spec)
    with pytest.raises(ValueError):
        path_gain(-1.0, spec)


def test_path_gain_clamps_tiny_distances():
    spec = ChannelSpec()
    assert spec.min_dist == spec.ref_dist / 100.0
    g_floor = path_gain(spec.min_dist, spec)
    assert g_floor == pytest.approx(1e-7 * 100.0 ** 4, rel=1e-12)
    assert path_gain(1e-9, spec) == g_floor
    assert np.array_equal(path_gain(np.array([1e-9, 0.05, 1e-8]), spec),
                          [g_floor, path_gain(0.05, spec), g_floor])


def test_required_power_reference_value():
    spec = ChannelSpec()
    assert required_power(8.0, 0.1, 1.0, spec) == pytest.approx(REQUIRED_AT_REF,
                                                                rel=1e-12)
    # halving fading doubles the requirement; distance enters at power alpha
    assert required_power(8.0, 0.1, 0.5, spec) == pytest.approx(2 * REQUIRED_AT_REF,
                                                                rel=1e-12)
    assert required_power(8.0, 0.2, 1.0, spec) == pytest.approx(16 * REQUIRED_AT_REF,
                                                                rel=1e-12)
    with pytest.raises(ValueError):
        required_power(8.0, 0.1, 0.0, spec)


def test_chi_squared_sampling_moments():
    fading = ChiSquaredFading(3)
    s = sample_fading(ChannelSpec(fading=fading), substream(611, 0), 200000)
    se = s.std() / math.sqrt(len(s))
    assert abs(s.mean() - 3.0) < 3 * se
    # unit-rate gamma: variance equals the shape
    assert abs(s.var() - 3.0) < 0.1


def test_chi_squared_cdf_matches_empirical():
    fading = ChiSquaredFading(2)
    s = sample_fading(ChannelSpec(fading=fading), substream(612, 0), 100000)
    for t in (0.3, 1.0, 2.5):
        emp = np.mean(s <= t)
        assert abs(emp - fading_cdf(fading, t)) < 0.006
    # closed form for omega = 2: 1 - exp(-t)(1 + t)
    assert fading_cdf(fading, 1.0) == pytest.approx(1 - math.exp(-1) * 2, rel=1e-12)


def test_chi_squared_small_t_regular_variation():
    # P(H <= t) ~ t^omega / omega! as t -> 0
    for omega in (2, 3):
        fading = ChiSquaredFading(omega)
        t = 1e-3
        ratio = fading_cdf(fading, t) / (t ** omega / math.factorial(omega))
        assert 0.9 < ratio <= 1.0


def test_truncated_rician_floor_binds():
    spec = ChannelSpec()  # default truncated Rician, floor 0.1
    s = sample_fading(spec, substream(613, 0), 200000)
    assert s.min() == 0.1
    frac = np.mean(s == 0.1)
    assert 0.02 < frac < 0.06
    assert 1.9 < s.mean() < 2.1  # specular power 1 plus scatter power 1


def test_rician_cdf_not_available():
    with pytest.raises(NotImplementedError):
        fading_cdf(TruncatedRicianFading(0.1), 0.5)


def test_mean_inverse_fading_chi_squared():
    assert mean_inverse_fading(ChiSquaredFading(2)) == pytest.approx(1.0)
    assert mean_inverse_fading(ChiSquaredFading(3)) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="infinite"):
        mean_inverse_fading(ChiSquaredFading(1))


def test_mean_inverse_fading_rician():
    v = mean_inverse_fading(TruncatedRicianFading(0.1))
    assert v == pytest.approx(RICIAN_MEAN_INV_01, rel=1e-6)
    # independent cross-check with a different stream
    s = sample_fading(ChannelSpec(), substream(614, 0), 1_000_000)
    mc = np.mean(1.0 / s)
    assert abs(v - mc) < 0.02
    # a higher floor can only lower E[1/H]
    assert mean_inverse_fading(TruncatedRicianFading(0.25)) < v



def test_rician_moment_follows_scatter_variance(monkeypatch):
    fading = TruncatedRicianFading(0.1)
    assert mean_inverse_fading(fading) == pytest.approx(RICIAN_MEAN_INV_01, rel=1e-6)
    # a changed variance takes effect at once, as it does in sample_fading
    monkeypatch.setattr(channel, "RICIAN_SCATTER_VAR", 2.0)
    assert mean_inverse_fading(fading) == pytest.approx(1.21341, rel=1e-5)
    monkeypatch.undo()
    assert mean_inverse_fading(fading) == pytest.approx(RICIAN_MEAN_INV_01, rel=1e-6)


@pytest.mark.parametrize("scatter_var", [0.5, 1.0, 2.0, 4.0])
def test_rician_moment_matches_scipy_quadrature(monkeypatch, scatter_var):
    monkeypatch.setattr(channel, "RICIAN_SCATTER_VAR", scatter_var)
    for floor in (1e-4, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9, 0.99):
        assert mean_inverse_fading(TruncatedRicianFading(floor)) == pytest.approx(
            rician_mean_inverse_by_quadrature(floor, scatter_var), rel=1e-12)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
def test_required_power_is_the_path_gains_inverse(alpha):
    # required_power(theta, d, h) * path_gain(d) * h == theta N, below, at
    # and above the clamp radius, for scalar and array inputs
    spec = ChannelSpec(alpha=alpha)
    theta, target = 8.0, 8.0 * spec.noise_w
    d = spec.min_dist * np.array([1e-3, 0.5, 1.0, 1.5, 100.0, 3e4])
    h = np.array([0.1, 0.7, 1.0, 2.5, 0.33, 9.0])
    product = required_power(theta, d, h, spec) * path_gain(d, spec) * h
    assert np.allclose(product, target, rtol=1e-14, atol=0.0)
    for di, hi in zip(d, h):
        q = required_power(theta, float(di), float(hi), spec)
        assert isinstance(q, float)
        assert q * path_gain(float(di), spec) * hi == pytest.approx(target, rel=1e-14)


def test_required_power_vectorized_consistency():
    spec = ChannelSpec.normalized()
    d = np.array([0.5, 1.0, 2.0])
    h = np.array([1.0, 2.0, 0.5])
    q = required_power(8.0, d, h, spec)
    for i in range(3):
        assert q[i] == pytest.approx(required_power(8.0, float(d[i]), float(h[i]),
                                                    spec), rel=1e-12)
