"""Closed-form bound library: frozen reference values and scaling laws.

Reference numbers were frozen from an independent 40-digit arithmetic script
evaluating the same formulas symbolically.
"""

import math

import pytest

from renergy.aggregation import certified_efficiency, delivered_power, sufficient_voltage
from renergy.bounds import (ASYMPTOTIC_MARGIN, BoundInputs, aggregated_outage_bound,
                            aggregation_power_floor, cell_distance_moment,
                            cell_radius_pow, energy_shortfall_bound,
                            fading_tail_terms_equal_split,
                            fading_tail_terms_inversion, in_asymptotic_regime,
                            max_power_markov_bound, poisson_raw_moment,
                            power_law_outage_bound, total_outage_bound)
from renergy.channel import ChannelSpec, required_power
from renergy.energy_field import (EnergyFieldSpec, Kernel, cdf_boolean_exp, cdf_boolean_plaw,
                                  decay_exp, decay_power_law)
from renergy.geometry import hex_cell_circumradius, hex_pitch

SHORTFALL_REF = 0.37912554244981446
MARKOV_REF = 0.0039506172839506173
TAIL_EQ_T2_REF = 7.7256515775034294e-5
TAIL_INV_T2_REF = 7.0233196159122085e-6
AGGREGATED_REF = 1.0775807611645835
PLAW_T1_REF = 0.0073273034416196455
FLOOR_REF = 8.6033954809814289


def base_inputs(**overrides):
    kw = dict(psi=0.05, gamma_eta=1000.0, theta=8.0, alpha=4.0, lambda_b=1.0,
              lambda_u=10.0, e_h_inv=1.0, omega=2)
    kw.update(overrides)
    return BoundInputs(**kw)


def test_cell_constants_alpha_4():
    assert cell_radius_pow(4.0) == pytest.approx(4.0 / 27.0, rel=1e-14)
    assert cell_distance_moment(4.0) == pytest.approx(4.0 / 81.0, rel=1e-14)
    assert cell_distance_moment(3.0) < cell_radius_pow(3.0)


def test_inputs_validation():
    with pytest.raises(ValueError):
        base_inputs(psi=0.0)
    with pytest.raises(ValueError):
        base_inputs(alpha=2.0)
    with pytest.raises(ValueError):
        base_inputs(tau=0.0)
    with pytest.raises(ValueError):
        base_inputs(tau=1.1)


def test_energy_shortfall_reference():
    assert energy_shortfall_bound(base_inputs()) == pytest.approx(SHORTFALL_REF,
                                                                  rel=1e-13)


def test_energy_shortfall_scaling_in_peak_power():
    # below pi*psi = 1 the bound scales as (1/peak)^(pi*psi)
    b1, b2 = base_inputs(), base_inputs(gamma_eta=10000.0)
    ratio = energy_shortfall_bound(b1) / energy_shortfall_bound(b2)
    assert ratio == pytest.approx(10.0 ** (math.pi * 0.05), rel=1e-12)
    # above pi*psi = 1 the exponent saturates at 1
    b3, b4 = base_inputs(psi=0.5), base_inputs(psi=0.5, gamma_eta=10000.0)
    assert energy_shortfall_bound(b3) / energy_shortfall_bound(b4) == \
        pytest.approx(10.0, rel=1e-12)


def test_markov_reference_and_exact_scaling():
    assert max_power_markov_bound(base_inputs()) == pytest.approx(MARKOV_REF,
                                                                  rel=1e-13)
    assert max_power_markov_bound(base_inputs(gamma_eta=2000.0)) == \
        pytest.approx(MARKOV_REF / 2.0, rel=1e-13)
    assert max_power_markov_bound(base_inputs(lambda_u=20.0)) == \
        pytest.approx(2.0 * MARKOV_REF, rel=1e-13)


def test_total_is_sum():
    b = base_inputs()
    assert total_outage_bound(b) == pytest.approx(
        energy_shortfall_bound(b) + max_power_markov_bound(b), rel=1e-14)


def test_missing_optional_inputs_raise():
    with pytest.raises(ValueError, match="e_h_inv"):
        energy_shortfall_bound(base_inputs(e_h_inv=None))
    with pytest.raises(ValueError, match="omega"):
        fading_tail_terms_equal_split(base_inputs(omega=None))
    with pytest.raises(ValueError, match="lambda_h"):
        aggregated_outage_bound(base_inputs())


def test_poisson_raw_moments():
    assert poisson_raw_moment(10.0, 0) == 1.0
    assert poisson_raw_moment(10.0, 1) == pytest.approx(10.0)
    assert poisson_raw_moment(10.0, 2) == pytest.approx(110.0)
    assert poisson_raw_moment(2.0, 3) == pytest.approx(22.0)
    assert poisson_raw_moment(10.0, 4) == pytest.approx(16710.0)
    # textbook identities for general mu
    for mu in (0.3, 1.7, 6.0):
        assert poisson_raw_moment(mu, 2) == pytest.approx(mu + mu * mu, rel=1e-12)
        assert poisson_raw_moment(mu, 3) == pytest.approx(
            mu ** 3 + 3 * mu ** 2 + mu, rel=1e-12)
    with pytest.raises(ValueError):
        poisson_raw_moment(1.0, -1)


def test_tail_terms_reference_values():
    t1e, t2e = fading_tail_terms_equal_split(base_inputs())
    # at omega = 2 the field term coincides with the shortfall bound at
    # unit mean inverse fading
    assert t1e == pytest.approx(SHORTFALL_REF, rel=1e-13)
    assert t2e == pytest.approx(TAIL_EQ_T2_REF, rel=1e-13)
    t1i, t2i = fading_tail_terms_inversion(base_inputs())
    assert t1i == pytest.approx(t1e, rel=1e-14)
    assert t2i == pytest.approx(TAIL_INV_T2_REF, rel=1e-13)
    # equal-split pays the second cell-load moment: ratio (mu + mu^2)/mu
    assert t2e / t2i == pytest.approx(1.0 + 10.0, rel=1e-12)


def test_tail_terms_need_omega_at_least_two():
    with pytest.raises(ValueError):
        fading_tail_terms_equal_split(base_inputs(omega=1))


def test_aggregated_reference_and_monotonicity():
    b = base_inputs(gamma_eta=100.0, tau=0.9, lambda_h=2.0, lambda_e=0.05, nu=1.0)
    assert aggregated_outage_bound(b) == pytest.approx(AGGREGATED_REF, rel=1e-13)
    # denser harvesting can only improve the bound here (the floor grows)
    b_dense = base_inputs(gamma_eta=100.0, tau=0.9, lambda_h=4.0, lambda_e=0.05, nu=1.0)
    assert aggregated_outage_bound(b_dense) < aggregated_outage_bound(b)
    # higher certified efficiency improves it too
    b_tau1 = base_inputs(gamma_eta=100.0, tau=1.0, lambda_h=2.0, lambda_e=0.05, nu=1.0)
    assert aggregated_outage_bound(b_tau1) == pytest.approx(
        0.9 * aggregated_outage_bound(b), rel=1e-12)


def test_power_floor_reference_and_limits():
    v = aggregation_power_floor(tau=1.0, gamma=10.0, eta=1.0, lambda_h=1.0,
                                lambda_b=0.5, lambda_e=1.0, nu=1.0)
    assert v == pytest.approx(FLOOR_REF, rel=1e-13)
    # with every cell occupied and no kernel decay the floor approaches the
    # lossless aggregate tau * gamma * eta * lambda_h / lambda_b
    v_lim = aggregation_power_floor(tau=0.5, gamma=10.0, eta=1.0, lambda_h=2.0,
                                    lambda_b=1.0, lambda_e=1e6, nu=1e6)
    assert v_lim == pytest.approx(0.5 * 10.0 * 2.0, rel=1e-3)
    with pytest.raises(ValueError):
        aggregation_power_floor(tau=0.0, gamma=1.0, eta=1.0, lambda_h=1.0,
                                lambda_b=1.0, lambda_e=1.0, nu=1.0)


# Valid keyword arguments of the public numeric helpers; each numeric
# parameter but an integer order must also reject NaN and +inf. A distance
# or line length may be +inf (the kernels read 0 there, and a path gain
# too), so may a voltage (a lossless line) and a fading gain (its required
# power is 0), and a CDF's x above gamma fails its range check already, so
# those are checked for NaN only.
_HELPER_ARGS = {
    sufficient_voltage: dict(tau=0.9, beta=1.0, eta=1.0, gamma=1.0, lambda_a=1.0),
    certified_efficiency: dict(voltage=1.0, beta=1.0, eta=1.0, gamma=1.0, lambda_a=1.0),
    delivered_power: dict(budget=8.0, length=1.0, voltage=3.0, beta=1.0),
    aggregation_power_floor: dict(tau=1.0, gamma=1.0, eta=1.0, lambda_h=1.0, lambda_b=1.0,
                                  lambda_e=0.05, nu=1.0),
    poisson_raw_moment: dict(mu=1.0, order=2),
    hex_pitch: dict(density=1.0),
    hex_cell_circumradius: dict(density=1.0),
    BoundInputs: dict(psi=0.05, gamma_eta=1000.0, theta=8.0, alpha=4.0, lambda_b=1.0,
                      lambda_u=10.0, e_h_inv=1.0, lambda_h=2.0, lambda_e=0.05, nu=1.0),
    decay_exp: dict(d=1.0, nu=1.0),
    decay_power_law: dict(d=1.0, nu=1.0),
    cdf_boolean_exp: dict(x=0.5, spec=EnergyFieldSpec(gamma=1.0, lambda_e=0.05, nu=1.0)),
    cdf_boolean_plaw: dict(x=0.5, spec=EnergyFieldSpec(gamma=1.0, lambda_e=0.05, nu=1.0,
                                                       kernel=Kernel.BOOLEAN_MAX_PLAW)),
    required_power: dict(theta=8.0, d=0.5, h=1.0, spec=ChannelSpec()),
}
_NAN_ONLY = ("length", "voltage", "d", "h", "x")
_NON_FINITE_CASES = [
    pytest.param(f, name, bad, id=f"{f.__name__}-{name}-{bad}")
    for f, kw in _HELPER_ARGS.items()
    for name, value in kw.items() if isinstance(value, float)
    for bad in (math.nan, math.inf)
    if not (name in _NAN_ONLY and bad == math.inf)
]


@pytest.mark.parametrize("func, name, bad", _NON_FINITE_CASES)
def test_numeric_helpers_reject_nan_and_inf(func, name, bad):
    kw = _HELPER_ARGS[func]
    func(**kw)
    with pytest.raises(ValueError, match=name):
        func(**{**kw, name: bad})


def test_power_law_reference_values():
    t1, t2 = power_law_outage_bound(base_inputs())
    assert t1 == pytest.approx(PLAW_T1_REF, rel=1e-13)
    assert t2 == pytest.approx(MARKOV_REF, rel=1e-13)
    # the field term decays at power omega of the peak power
    t1b, _ = power_law_outage_bound(base_inputs(gamma_eta=2000.0))
    assert t1 / t1b == pytest.approx(4.0, rel=1e-12)


def test_asymptotic_regime_threshold():
    # threshold at margin * (2 lambda_b / (3 sqrt 3))^(alpha/2) * theta
    thresh = ASYMPTOTIC_MARGIN * (2.0 / (3.0 * math.sqrt(3.0))) ** 2 * 8.0
    assert in_asymptotic_regime(base_inputs(gamma_eta=thresh * 1.01))
    assert not in_asymptotic_regime(base_inputs(gamma_eta=thresh * 0.99))
