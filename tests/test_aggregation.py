"""Clustering, feeder-line losses, and aggregated supply."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from renergy.aggregation import (Distributed, LineSpec, build_clusters,
                                 certified_efficiency, clustered_window,
                                 delivered_power,
                                 sufficient_voltage, supplied_power,
                                 supply_statistics)
from renergy import coverage
from renergy.channel import ChannelSpec
from renergy.cli import _repro_experiment
from renergy.coverage import ScenarioConfig, Scheme, estimates_from_tally, run_trials_chunk
from renergy.energy_field import EnergyFieldSpec, Kernel, draw_field, field_values
from renergy.geometry import (BLOCK, FIELD_STREAM, hex_cell_circumradius, hex_pitch,
                              nearest_site_indices, substream)
from renergy.harness import apply_sweep


def line_loss(power, length, voltage: float, beta: float):
    """Oracle: ohmic feeder loss beta * power^2 * length / voltage^2."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if voltage <= 0:
        raise ValueError("voltage must be positive")
    power = np.asarray(power, dtype=float)
    length = np.asarray(length, dtype=float)
    if np.any(power < 0) or np.any(length < 0):
        raise ValueError("power and length must be non-negative")
    if math.isinf(voltage):
        out = np.zeros(np.broadcast(power, length).shape)
        return float(out) if out.ndim == 0 else out
    out = beta * power * power * length / (voltage * voltage)
    return float(out) if out.ndim == 0 else out


def field_spec(gamma=10.0, psi=0.05):
    return EnergyFieldSpec(gamma=gamma, lambda_e=psi, nu=1.0,
                           kernel=Kernel.BOOLEAN_MAX_EXP)


def test_line_spec_validation():
    with pytest.raises(ValueError):
        LineSpec(beta=0.0)
    with pytest.raises(ValueError):
        LineSpec(voltage=-2.0)
    with pytest.raises(ValueError):
        LineSpec(tau=1.0)
    with pytest.raises(ValueError):
        LineSpec(mode="clip")
    with pytest.raises(ValueError):
        Distributed(lambda_h=1.0, lambda_a=2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="beta"):
            LineSpec(beta=bad)
        with pytest.raises(ValueError, match="lambda_a"):
            Distributed(lambda_h=1.0, lambda_a=bad)
        with pytest.raises(ValueError, match="lambda_h"):
            Distributed(lambda_h=bad, lambda_a=1.0)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="voltage"):
            LineSpec(voltage=bad)
        with pytest.raises(ValueError, match="tau"):
            LineSpec(tau=bad)
    assert LineSpec(voltage=math.inf).voltage == math.inf  # lossless


def test_clustered_window_is_commensurate():
    w = clustered_window(0.5, 11.0)
    a = hex_pitch(0.5)
    assert w.width >= 11.0 and w.height >= 11.0
    assert (w.width / a) == pytest.approx(round(w.width / a), abs=1e-12)
    assert (w.height / (math.sqrt(3) * a)) == pytest.approx(
        round(w.height / (math.sqrt(3) * a)), abs=1e-12)


def test_build_clusters_exact_sizes_and_line_bound():
    lambda_h, lambda_a = 2.0, 0.5
    w = clustered_window(lambda_a, 12.0)
    asg = build_clusters(lambda_h, lambda_a, w)
    sizes = np.bincount(asg.assignment, minlength=len(asg.aggregators.sites))
    # the torus conserves the total exactly; individual clusters can differ
    # because nested lattices put harvesters exactly on cell boundaries and
    # ties go to the lowest aggregator index
    assert sizes.sum() == len(asg.harvesters.sites)
    assert sizes.mean() == pytest.approx(lambda_h / lambda_a, rel=1e-12)
    assert sizes.min() >= 1
    # no line exceeds the aggregator cell corner radius
    assert asg.line_lengths.max() <= hex_cell_circumradius(lambda_a) + 1e-9
    with pytest.raises(ValueError):
        build_clusters(0.4, 0.5, w)


def test_line_loss_values():
    assert line_loss(2.0, 3.0, 4.0, 1.5) == pytest.approx(1.5 * 4.0 * 3.0 / 16.0)
    assert line_loss(2.0, 3.0, math.inf, 1.5) == 0.0
    assert line_loss(0.0, 3.0, 4.0, 1.5) == 0.0
    with pytest.raises(ValueError):
        line_loss(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        line_loss(-1.0, 1.0, 1.0, 1.0)


def test_sufficient_voltage_quarter_power_scaling():
    v1 = sufficient_voltage(0.7, 1.0, 1.0, 10.0, 2.0)
    v2 = sufficient_voltage(0.7, 1.0, 1.0, 10.0, 2.0 / 16.0)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
    with pytest.raises(ValueError):
        sufficient_voltage(1.0, 1.0, 1.0, 10.0, 2.0)


def test_certified_efficiency_inverts_voltage_rule():
    for tau in (0.5, 0.7, 0.9):
        v = sufficient_voltage(tau, 2.0, 0.8, 10.0, 0.5)
        assert certified_efficiency(v, 2.0, 0.8, 10.0, 0.5) == pytest.approx(
            tau, rel=1e-12)
    assert certified_efficiency(math.inf, 1.0, 1.0, 1.0, 1.0) == 1.0


def test_delivered_power_conserves_energy():
    rng = substream(900, 0)
    budgets = rng.uniform(0.0, 10.0, size=200)
    lengths = rng.uniform(0.0, 2.0, size=200)
    voltage, beta = 3.0, 1.2
    p = delivered_power(budgets, lengths, voltage, beta)
    losses = line_loss(p, lengths, voltage, beta)
    assert np.allclose(p + losses, budgets, rtol=1e-12, atol=1e-12)
    assert np.all(p <= budgets + 1e-15)
    assert np.all(p >= 0.0)


def test_delivered_power_worst_case_hits_tau_exactly():
    # at the rule voltage, a harvester at peak budget on the longest possible
    # line delivers exactly the certified fraction tau
    tau, beta, eta, gamma, lambda_a = 0.7, 1.3, 0.9, 25.0, 0.4
    v = sufficient_voltage(tau, beta, eta, gamma, lambda_a)
    worst_len = hex_cell_circumradius(lambda_a)
    budget = eta * gamma
    p = delivered_power(budget, worst_len, v, beta)
    assert p == pytest.approx(tau * budget, rel=1e-12)
    # shorter lines and smaller budgets do strictly better than tau
    assert delivered_power(budget, 0.5 * worst_len, v, beta) > tau * budget
    assert delivered_power(0.5 * budget, worst_len, v, beta) > tau * 0.5 * budget


def test_delivered_power_tau_floor_mode():
    p = delivered_power(8.0, 1.0, 3.0, 1.0, mode="tau_floor", tau=0.6)
    assert p == pytest.approx(4.8)
    with pytest.raises(ValueError):
        delivered_power(8.0, 1.0, 3.0, 1.0, mode="tau_floor", tau=None)


@pytest.mark.parametrize("mode", ["exact", "tau_floor"])
def test_delivered_power_rejects_bad_budgets_and_accepts_an_empty_one(mode):
    # a NaN, negative or infinite value anywhere in a budget array raises,
    # however the array is shaped; an empty one delivers an empty array
    kw = dict(length=1.0, voltage=3.0, beta=1.0, mode=mode, tau=0.6)
    for bad in (math.nan, -1e-300, -math.inf, math.inf):
        for budget in (bad, np.array([[2.0, 0.0], [1.0, bad]]), np.array([bad, 5.0])):
            with pytest.raises(ValueError, match="budget"):
                delivered_power(budget, **kw)
    assert delivered_power(np.empty((3, 0)), **kw).shape == (3, 0)
    assert delivered_power(np.array([0.0, -0.0, 4.0]), **kw).shape == (3,)


def test_supplied_power_conservation_and_split():
    lambda_h, lambda_a, lambda_b = 2.0, 0.5, 1.0
    w = clustered_window(lambda_a, 12.0)
    asg = build_clusters(lambda_h, lambda_a, w)
    real = draw_field(field_spec(), w, substream(901, 0))
    line = LineSpec(beta=1.0, voltage=5.0)
    res = supplied_power(asg, real, line, eta=0.9, lambda_b=lambda_b)
    losses = line_loss(res.delivered, asg.line_lengths[:, None], 5.0, 1.0)
    assert np.allclose(res.delivered + losses, res.harvested, rtol=1e-12)
    assert res.per_station.sum() == pytest.approx(res.per_aggregator.sum(), rel=1e-12)
    assert res.stations_per_aggregator == 2
    assert len(res.per_station) == 2 * len(asg.aggregators.sites)
    # lossless lines deliver everything
    res_inf = supplied_power(asg, real, LineSpec(voltage=math.inf), 0.9, lambda_b)
    assert np.allclose(res_inf.delivered, res_inf.harvested, rtol=1e-12)


@pytest.mark.parametrize("line", [LineSpec(beta=1.0, voltage=5.0), LineSpec(tau=0.7),
                                  LineSpec(mode="tau_floor")],
                         ids=["exact", "rule_voltage", "tau_floor"])
def test_block_supplied_power_matches_each_realization(line):
    # one pass over a block gives, column by column, what each realization
    # gives alone, and each aggregator total is np.bincount's sum exactly
    w = clustered_window(0.5, 12.0)
    asg = build_clusters(2.0, 0.5, w)
    block = draw_field(field_spec(psi=0.02), w, substream(903, 0), 24)
    assert (block.counts == 0).any()
    res = supplied_power(asg, block, line, eta=0.9, lambda_b=1.0)
    assert res.per_station.shape == (2 * len(asg.aggregators.sites), 24)
    for i in range(24):
        one = supplied_power(asg, block.select(i, i + 1), line, eta=0.9, lambda_b=1.0)
        for name in ("per_station", "per_aggregator", "harvested", "delivered"):
            assert np.array_equal(getattr(res, name)[:, i], getattr(one, name)[:, 0]), name
        totals = np.bincount(asg.assignment, weights=res.delivered[:, i],
                             minlength=len(asg.aggregators.sites))
        assert np.array_equal(res.per_aggregator[:, i], totals)


@pytest.mark.parametrize("cluster_size", [20, 320])
@pytest.mark.parametrize("kernel", list(Kernel))
def test_typical_station_power_equals_the_lattice(kernel, cluster_size):
    # the trial engine's typical station and the whole-lattice supply sum
    # the same cluster harvester after harvester, so its power is bit for
    # bit the lattice's at the typical aggregator; a trial evaluated alone
    # gets the same bits as in its block
    cfg = apply_sweep(_repro_experiment("fig5").scenario, "cluster_size", cluster_size)
    cfg = replace(cfg, field=replace(cfg.field, kernel=kernel))
    supply = coverage._supply(cfg)
    window = supply.window
    block = draw_field(cfg.field, window, substream(904, 0, FIELD_STREAM), BLOCK)
    budgets = cfg.eta * field_values(block, supply.positions)
    engine = supply.station_power(budgets)
    arch = cfg.architecture
    asg = build_clusters(arch.lambda_h, arch.lambda_a, window)
    lattice = supplied_power(asg, block, arch.line, cfg.eta, cfg.lambda_b)
    typical = int(nearest_site_indices(np.asarray(window.center)[None, :],
                                       asg.aggregators.sites.points, window)[0][0])
    assert np.array_equal(engine, lattice.per_station[typical * supply.stations_per_aggregator])
    for i in (0, 1, BLOCK - 1):
        assert supply.station_power(budgets[:, i:i + 1])[0] == engine[i]


_lattices = st.fixed_dictionaries({
    "lambda_a": st.floats(0.05, 2.0), "ratio": st.floats(1.0, 8.0),
    "tau": st.floats(0.5, 0.95), "beta": st.floats(0.1, 5.0), "eta": st.floats(0.3, 1.0),
    "gamma": st.floats(1.0, 1e3), "lambda_e": st.floats(0.05, 2.0),
    "nu": st.floats(0.1, 2.0),
    "voltage": st.one_of(st.none(), st.just(math.inf), st.floats(0.5, 1e6)),
    "mode": st.sampled_from(["exact", "tau_floor"]),
    "n": st.integers(1, 8), "seed": st.integers(0, 2**32)})


@settings(max_examples=40, deadline=None)
@given(c=_lattices)
def test_delivery_never_exceeds_harvest(c):
    # every harvester of every realization delivers at most its harvest; at
    # the rule voltage its line loses at most the (1 - tau) share
    lam_a = c["lambda_a"]
    w = clustered_window(lam_a, 1.2 * hex_pitch(lam_a))
    asg = build_clusters(c["ratio"] * lam_a, lam_a, w)
    spec = EnergyFieldSpec(gamma=c["gamma"], lambda_e=c["lambda_e"], nu=c["nu"])
    block = draw_field(spec, w, substream(c["seed"], 0), c["n"])
    line = LineSpec(beta=c["beta"], voltage=c["voltage"], tau=c["tau"], mode=c["mode"])
    res = supplied_power(asg, block, line, c["eta"], lambda_b=lam_a)
    assert res.delivered.shape == res.harvested.shape == (len(asg.harvesters.sites), c["n"])
    assert np.all(res.delivered <= res.harvested)
    if c["voltage"] is None:
        assert np.all(res.delivered >= c["tau"] * res.harvested * (1.0 - 1e-9))


def test_supplied_power_rejects_fractional_station_ratio():
    w = clustered_window(0.5, 12.0)
    asg = build_clusters(2.0, 0.5, w)
    real = draw_field(field_spec(), w, substream(902, 0))
    with pytest.raises(ValueError):
        supplied_power(asg, real, LineSpec(), eta=1.0, lambda_b=0.75)


def test_supply_statistics_shape_and_determinism():
    s1 = supply_statistics(field_spec(), 1.0, 2.0, 0.5, LineSpec(voltage=math.inf),
                           1.0, 8, 77, min_side=10.0)
    s2 = supply_statistics(field_spec(), 1.0, 2.0, 0.5, LineSpec(voltage=math.inf),
                           1.0, 8, 77, min_side=10.0)
    assert s1.shape[0] == 8 and s1.shape[1] > 0
    assert np.array_equal(s1, s2)
    assert np.all(s1 >= 0.0)


def test_supply_statistics_rows_keyed_by_absolute_trial():
    # trial t is realization t % BLOCK of block t // BLOCK, so a shorter run
    # is a prefix of a longer one, and rows past the block edge come from
    # the next block's field stream
    args = (field_spec(), 1.0, 2.0, 0.5, LineSpec(voltage=math.inf), 1.0)
    n = BLOCK + 44
    long = supply_statistics(*args, n, 78, min_side=10.0)
    assert long.shape[0] == n
    assert np.array_equal(long[:40], supply_statistics(*args, 40, 78, min_side=10.0))
    w = clustered_window(0.5, 10.0)
    second = draw_field(field_spec(), w, substream(78, 1, FIELD_STREAM), BLOCK).select(0, 44)
    res = supplied_power(build_clusters(2.0, 0.5, w), second, args[4], 1.0, 1.0)
    assert np.array_equal(long[BLOCK:], res.per_station.T)


def test_zero_length_lines_lose_nothing():
    # lambda_h = lambda_a puts one harvester at zero distance from each
    # aggregator; a zero-length line has no resistance, so a finite voltage
    # must reproduce the lossless tally bit for bit on the shared window
    field = field_spec(gamma=20.0)
    channel = ChannelSpec.normalized()
    lossless = ScenarioConfig(field=field, channel=channel, lambda_b=1.0,
                              lambda_u=10.0, theta=8.0,
                              architecture=Distributed(
                                  lambda_h=1.0, lambda_a=1.0,
                                  line=LineSpec(voltage=math.inf)))
    lossy = replace(lossless, architecture=Distributed(
        lambda_h=1.0, lambda_a=1.0, line=LineSpec(voltage=5.0)))
    t_inf = run_trials_chunk(lossless, 0, 250, 55)
    t_fin = run_trials_chunk(lossy, 0, 250, 55)
    assert t_inf == t_fin


def test_single_harvester_clusters_match_onsite():
    # one lossless harvester per station is the on-site architecture in
    # disguise, but cluster windows are commensurate rectangles rather than
    # squares, so the point processes differ and the check is statistical
    field = field_spec(gamma=20.0)
    channel = ChannelSpec.normalized()
    onsite = ScenarioConfig(field=field, channel=channel, lambda_b=1.0,
                            lambda_u=10.0, theta=8.0)
    dist = replace(onsite, architecture=Distributed(
        lambda_h=1.0, lambda_a=1.0, line=LineSpec(voltage=math.inf)))
    n_chunks, per_chunk = 10, 300
    p_on = np.empty(n_chunks)
    p_dist = np.empty(n_chunks)
    for c in range(n_chunks):
        for p, cfg, seed in ((p_on, onsite, 55), (p_dist, dist, 56)):
            tally = run_trials_chunk(cfg, c * per_chunk, (c + 1) * per_chunk, seed)
            p[c] = estimates_from_tally(cfg, tally)[Scheme.CHANNEL_INDEPENDENT].p_out
    # users share their station's budget within a trial, so chunk scatter is
    # the honest spread estimate
    se = math.sqrt(p_on.var(ddof=1) / n_chunks + p_dist.var(ddof=1) / n_chunks)
    assert abs(p_on.mean() - p_dist.mean()) < 4.0 * se + 1e-9

