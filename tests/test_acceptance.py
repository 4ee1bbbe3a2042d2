"""Acceptance gate: nine end-to-end checks of the simulator against its
closed-form laws, bounds, and reproducibility contract.

Each test prints a single PASS line with the measured numbers once its
assertions hold (run with -s to see them); a failed assertion is the FAIL
line.  The whole module is Monte Carlo heavy and takes a couple of minutes.
"""

import math
import time
from dataclasses import replace

import numpy as np

from renergy.aggregation import (Distributed, LineSpec, build_clusters,
                                 clustered_window, sufficient_voltage,
                                 supplied_power, supply_statistics)
from renergy.bounds import BoundInputs, aggregation_power_floor, in_asymptotic_regime
from renergy.channel import ChannelSpec, ChiSquaredFading
from renergy.coverage import (ScenarioConfig, Scheme, estimates_from_tally,
                              simulate_both)
from renergy.energy_field import (EnergyFieldSpec, Kernel, boolean_exp_moments,
                                  cdf_boolean_exp, draw_field, influence_radius,
                                  joint_cdf_boolean_exp, sample_intensity,
                                  sample_intensity_pair, shot_noise_mean,
                                  validation_window)
from renergy.geometry import Window, hex_pitch, substream
from renergy.harness import (emit_csv, parse_config_text, run_point, run_sweep,
                             validate_field_law)

_CHAN = ChannelSpec.normalized(fading=ChiSquaredFading(omega=2))


def _onsite(gamma_eta, psi=0.05, kernel=Kernel.BOOLEAN_MAX_EXP, lambda_u=10.0):
    field = EnergyFieldSpec(gamma=gamma_eta, lambda_e=psi, nu=1.0, kernel=kernel)
    return ScenarioConfig(field=field, channel=_CHAN, lambda_b=1.0,
                          lambda_u=lambda_u, theta=8.0, eta=1.0)


def test_acceptance_1_field_law_ks():
    worst = 0.0
    for kernel in (Kernel.BOOLEAN_MAX_EXP, Kernel.BOOLEAN_MAX_PLAW):
        for psi in (0.05, 0.2, 1.0):
            spec = EnergyFieldSpec(gamma=1.0, lambda_e=psi, nu=1.0, kernel=kernel)
            t0 = time.perf_counter()
            res = validate_field_law(spec, 100_000, 11)
            elapsed = time.perf_counter() - t0
            assert res.passed, (kernel, psi, res)
            assert elapsed < 60.0, (kernel, psi, elapsed)
            worst = max(worst, res.statistic / res.critical)
    print("ACCEPTANCE 1: PASS - field law KS at 1% for both kernels, "
          f"psi in (0.05, 0.2, 1.0), n=1e5 each; worst D/crit = {worst:.2f}")


def test_acceptance_2_moments():
    n = 200_000
    for psi in (0.05, 0.5):
        spec = EnergyFieldSpec(gamma=1.0, lambda_e=psi, nu=1.0,
                               kernel=Kernel.BOOLEAN_MAX_EXP)
        w = validation_window(spec, n)
        s = sample_intensity(spec, w, (w.width / 2, w.height / 2), n,
                             substream(12, 0))
        mom = boolean_exp_moments(spec)
        se_mean = s.std(ddof=1) / math.sqrt(n)
        assert abs(s.mean() - mom.mean) <= 3.0 * se_mean, psi
        v = s.var(ddof=1)
        m4 = np.mean((s - s.mean()) ** 4)
        se_var = math.sqrt(max(m4 - v * v, 0.0) / n)
        assert abs(v - mom.variance) <= 3.0 * se_var, psi

    shot = EnergyFieldSpec(gamma=1.0, lambda_e=0.05, nu=1.0,
                           kernel=Kernel.SHOT_NOISE_EXP)
    n_shot = 300_000
    w = validation_window(shot, n_shot)
    s = sample_intensity(shot, w, (w.width / 2, w.height / 2), n_shot,
                         substream(12, 1))
    rel = abs(s.mean() / shot_noise_mean(shot) - 1.0)
    assert rel <= 0.01, rel
    print("ACCEPTANCE 2: PASS - boolean mean/variance within 3 SE at "
          f"psi in (0.05, 0.5); shot-noise mean within {rel:.2%} of the "
          "Campbell value (tolerance 1%)")


def test_acceptance_3_joint_law():
    spec = EnergyFieldSpec(gamma=1.0, lambda_e=0.05, nu=1.0,
                           kernel=Kernel.BOOLEAN_MAX_EXP)
    points = [(0.3, 0.3, 0.0), (0.3, 0.3, 0.8), (0.3, 0.3, 2.0),
              (0.5, 0.5, 0.5), (0.5, 0.5, 1.5), (0.7, 0.7, 1.0),
              (0.3, 0.6, 1.0)]
    n = 1_000_000
    worst = 0.0
    for i, (x1, x2, d) in enumerate(points):
        r1, r2 = influence_radius(x1, spec), influence_radius(x2, spec)
        # both influence disks must embed in the torus without image overlap
        w = Window(d + r1 + r2 + 2.0, 2.0 * max(r1, r2) + 2.0)
        q1 = ((w.width - d) / 2.0, w.height / 2.0)
        q2 = ((w.width + d) / 2.0, w.height / 2.0)
        pair = sample_intensity_pair(spec, w, q1, q2, n, substream(13, i))
        emp = float(np.mean((pair[:, 0] <= x1) & (pair[:, 1] <= x2)))
        exact = joint_cdf_boolean_exp(x1, x2, d, spec)
        err = abs(emp - exact)
        assert err <= 0.005, (x1, x2, d, emp, exact)
        worst = max(worst, err)
        if d == 0.0:
            # at zero separation the joint law collapses to the marginal of
            # the smaller threshold, which the overlap-area form reproduces
            marginal = float(cdf_boolean_exp(min(x1, x2), spec))
            assert abs(exact - marginal) < 1e-12
    print(f"ACCEPTANCE 3: PASS - joint law matched at {len(points)} (x, d) "
          f"points incl. d=0, 1e6 realizations each; worst |err| = {worst:.5f} "
          "(tolerance 0.005)")


def test_acceptance_4_outage_scaling():
    psi = 0.05
    gammas = (1e2, 1e3, 1e4)
    t0 = time.perf_counter()
    p = []
    for i, ge in enumerate(gammas):
        cfg = _onsite(ge, psi=psi)
        tally = run_point(cfg, 100_000, 14 + i)
        est = estimates_from_tally(cfg, tally)[Scheme.CHANNEL_INDEPENDENT]
        p.append(est.p_out)
    elapsed = time.perf_counter() - t0
    slope = np.polyfit(np.log(gammas), np.log(p), 1)[0]
    target = -math.pi * psi
    assert abs(slope - target) <= 0.25 * abs(target), (slope, target, p)
    assert elapsed < 600.0, elapsed
    print(f"ACCEPTANCE 4: PASS - log-log outage slope {slope:.4f} vs "
          f"-pi*psi = {target:.4f} (tolerance 25%), 1e5 trials/point, "
          f"{elapsed:.0f}s")


def test_acceptance_5_bound_dominance():
    checks = 0

    # on-site exponential kernel: total bound for both schemes, components,
    # and the deep-tail fading bound where the asymptotic regime holds
    for i, ge in enumerate((100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4)):
        cfg = _onsite(ge)
        est = simulate_both(cfg, 20_000, 15 + i)
        b = BoundInputs(psi=0.05, gamma_eta=ge, theta=8.0, alpha=4.0,
                        lambda_b=1.0, lambda_u=10.0, e_h_inv=1.0, omega=2)
        deep = in_asymptotic_regime(b)
        for scheme, e in est.items():
            assert e.bound_values["total"] < 1.0, (scheme, ge)
            hw = 2.0 * e.ci_halfwidth
            assert e.p_out <= e.bound_values["total"] + hw, (scheme, ge)
            checks += 1
            if deep:
                assert e.p_out <= e.bound_values["tail_total"] + hw, (scheme, ge)
                checks += 1
        e = est[Scheme.CHANNEL_INDEPENDENT]
        hw = 2.0 * e.ci_halfwidth
        assert e.p_energy_random <= e.bound_values["energy_shortfall"] + hw, ge
        assert e.p_max_power <= e.bound_values["max_power_markov"] + hw, ge
        checks += 2

    # distributed aggregation bound, lossless lines
    field = EnergyFieldSpec(gamma=1.0, lambda_e=1.0, nu=0.05,
                            kernel=Kernel.BOOLEAN_MAX_EXP)
    arch = Distributed(lambda_h=20.0, lambda_a=0.5, line=LineSpec(voltage=math.inf))
    for i, ge in enumerate((50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)):
        cfg = ScenarioConfig(field=replace(field, gamma=ge), channel=_CHAN,
                             lambda_b=1.0, lambda_u=10.0, theta=8.0,
                             architecture=arch)
        est = simulate_both(cfg, 20_000, 25 + i)
        for scheme, e in est.items():
            assert e.bound_values["aggregated"] < 1.0, (scheme, ge)
            assert e.p_out <= e.bound_values["aggregated"] + 2.0 * e.ci_halfwidth
            checks += 1

    # power-law kernel tail bound, gated on the same asymptotic margin; the
    # heavy-tailed kernel keeps contributing from tens of units away, so the
    # window must be widened or empty-window realizations (g = 0, certain
    # outage, probability e^(-lambda_e side^2)) floor the estimate above the
    # shrinking bound
    for i, ge in enumerate((200.0, 500.0, 1e3, 2e3, 5e3, 1e4)):
        cfg = replace(_onsite(ge, kernel=Kernel.BOOLEAN_MAX_PLAW),
                      window_side=20.0)
        b = BoundInputs(psi=0.05, gamma_eta=ge, theta=8.0, alpha=4.0,
                        lambda_b=1.0, lambda_u=10.0, e_h_inv=1.0, omega=2)
        assert in_asymptotic_regime(b), ge
        est = simulate_both(cfg, 20_000, 35 + i)
        for scheme, e in est.items():
            assert e.bound_values["power_law_total"] < 1.0, (scheme, ge)
            assert e.p_out <= e.bound_values["power_law_total"] + 2.0 * e.ci_halfwidth
            checks += 1
    print(f"ACCEPTANCE 5: PASS - MC never exceeds a closed-form bound by more "
          f"than 2 CI halfwidths ({checks} point/bound/scheme checks across "
          "total, component, deep-tail, aggregated, and power-law bounds)")


def test_acceptance_6_scheme_ordering():
    gaps = []
    for i, psi in enumerate((0.02, 0.05, 0.1, 0.2, 0.35, 0.5)):
        est = simulate_both(_onsite(1e3, psi=psi), 5_000, 16 + i)
        ci, inv = est[Scheme.CHANNEL_INDEPENDENT], est[Scheme.INVERSION]
        # the schemes share every draw, so the ordering is per-trial exact,
        # far stronger than the 2-CI allowance
        assert inv.p_out <= ci.p_out, psi
        assert inv.p_out <= ci.p_out + 2.0 * (ci.ci_halfwidth + inv.ci_halfwidth)
        gaps.append(ci.p_out - inv.p_out)
    print("ACCEPTANCE 6: PASS - inversion outage <= channel-independent outage "
          f"at all six swept densities (paired draws); gaps {min(gaps):.4f}.."
          f"{max(gaps):.4f}")


def test_acceptance_7_aggregation_stabilization():
    field = EnergyFieldSpec(gamma=1.0, lambda_e=0.05, nu=1.0,
                            kernel=Kernel.BOOLEAN_MAX_EXP)
    line = LineSpec(voltage=math.inf)
    sizes = (1, 4, 16, 64, 256)
    variances = []
    stats_256 = None
    for size in sizes:
        s = supply_statistics(field, 1.0, 1.0, 1.0 / size, line, 1.0,
                              300, 4242, min_side=25.0)
        variances.append(s.var(ddof=1))
        if size == 256:
            stats_256 = s
    assert all(b < a for a, b in zip(variances, variances[1:])), variances

    floor = aggregation_power_floor(1.0, 1.0, 1.0, 1.0, 1.0, 0.05, 1.0)
    station_means = stats_256.mean(axis=0)
    station_se = stats_256.std(axis=0, ddof=1) / math.sqrt(stats_256.shape[0])
    assert np.all(station_means >= floor - 3.0 * station_se)
    sample_sd = stats_256.std(ddof=1)
    assert stats_256.min() >= floor - 3.0 * sample_sd

    # outage flattens once clusters pass a few dozen harvesters
    plateau_field = EnergyFieldSpec(gamma=15.0, lambda_e=0.5, nu=0.1,
                                    kernel=Kernel.BOOLEAN_MAX_EXP)
    p = {}
    for size in (64, 256):
        arch = Distributed(lambda_h=2.0, lambda_a=2.0 / size, line=line)
        cfg = ScenarioConfig(field=plateau_field, channel=_CHAN, lambda_b=1.0,
                             lambda_u=10.0, theta=8.0, architecture=arch,
                             window_side=15.0)
        p[size] = simulate_both(cfg, 10_000, 31)[Scheme.CHANNEL_INDEPENDENT].p_out
    rel_gap = abs(p[64] - p[256]) / p[256]
    assert rel_gap <= 0.10, p
    print("ACCEPTANCE 7: PASS - supply variance strictly falls over cluster "
          f"sizes {sizes} ({variances[0]:.3g} -> {variances[-1]:.3g}); "
          f"size-256 minimum {stats_256.min():.4f} >= floor {floor:.4f} - 3 SE; "
          f"outage plateau gap {rel_gap:.1%} (tolerance 10%)")


def test_acceptance_8_voltage_rule():
    rng = np.random.default_rng(88)
    n_configs = 1000
    harvesters = 0
    for i in range(n_configs):
        tau = rng.uniform(0.5, 0.95)
        beta = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
        eta = rng.uniform(0.3, 1.0)
        gamma = math.exp(rng.uniform(0.0, math.log(1e3)))
        lam_a = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
        lam_h = lam_a * rng.uniform(1.0, 8.0)
        lam_e = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
        nu = math.exp(rng.uniform(math.log(0.1), math.log(2.0)))
        window = clustered_window(lam_a, 1.2 * hex_pitch(lam_a))
        asg = build_clusters(lam_h, lam_a, window)
        spec = EnergyFieldSpec(gamma=gamma, lambda_e=lam_e, nu=nu,
                               kernel=Kernel.BOOLEAN_MAX_EXP)
        real = draw_field(spec, window, substream(880, i))
        line = LineSpec(beta=beta, voltage=None, tau=tau)
        res = supplied_power(asg, real, line, eta, lambda_b=lam_a)
        assert res.voltage == sufficient_voltage(tau, beta, eta, gamma, lam_a)
        # the rule voltage caps every line's loss at the (1 - tau) share
        assert np.all(res.delivered >= tau * res.harvested * (1.0 - 1e-9)), i
        harvesters += len(res.harvested)
        assert sufficient_voltage(tau, beta, eta, gamma, lam_a / 16.0) \
            == 2.0 * res.voltage
    print(f"ACCEPTANCE 8: PASS - rule voltage kept line loss within the "
          f"(1 - tau) budget for 100% of {harvesters} harvesters over "
          f"{n_configs} random configurations; exact lambda_a^(-1/4) scaling")


def test_acceptance_9_determinism(tmp_path):
    exp = parse_config_text(
        "sweep.param = psi\nsweep.values = 0.05, 0.2\n"
        "run.trials = 400\nrun.seed = 31\n")
    blobs = []
    for workers in (1, 8):
        for rep in ("a", "b"):
            rows = run_sweep(replace(exp, workers=workers))
            path = emit_csv(rows, tmp_path / f"det_{workers}_{rep}.csv")
            blobs.append(path.read_bytes())
    assert all(b == blobs[0] for b in blobs[1:])
    print("ACCEPTANCE 9: PASS - byte-identical CSV across repeated runs at 1 "
          "and 8 workers with a shared seed")
