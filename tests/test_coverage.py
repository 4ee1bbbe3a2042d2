"""Trial engine: tallies, scheme ordering, pairing, reproducibility."""

import math
import tracemalloc
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from renergy import coverage
from renergy.aggregation import Distributed, LineSpec, build_clusters
from renergy.channel import (ChannelSpec, ChiSquaredFading, TruncatedRicianFading,
                             required_power, sample_fading)
from renergy.coverage import (ScenarioConfig, Scheme, TrialTally, bound_values,
                              estimates_from_tally, resolve_window, run_group_chunk,
                              run_trials_chunk)
from renergy.energy_field import (EnergyFieldSpec, FieldRealization, Kernel, draw_field,
                                  field_values, nearest_center, window_disk_area)
from renergy.geometry import (BLOCK, FIELD_STREAM, USER_STREAM, PointSet,
                              hex_cell_circumradius, hex_pitch, sample_in_hex_cell,
                              substream)
from renergy.cli import _repro_experiment
from renergy.harness import apply_sweep, parse_config_text
from renergy.stats import t_quantile_975, wilson_ci, wilson_interval


def unit_cfg(gamma=20.0, psi=0.05, lambda_u=10.0, kernel=Kernel.BOOLEAN_MAX_EXP,
             fading=None, **kw):
    return ScenarioConfig(
        field=EnergyFieldSpec(gamma=gamma, lambda_e=psi, nu=1.0, kernel=kernel),
        channel=ChannelSpec.normalized(fading=fading),
        lambda_b=1.0, lambda_u=lambda_u, theta=8.0, **kw)


def test_scenario_validation():
    with pytest.raises(ValueError):
        unit_cfg(eta=0.0)
    with pytest.raises(ValueError, match="unknown architecture"):
        unit_cfg(architecture="distributed")
    with pytest.raises(ValueError):
        unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.3))  # 1/0.3
    with pytest.raises(ValueError):
        unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5), wrap=False)
    for bad in (math.nan, math.inf):
        for name in ("lambda_b", "lambda_u", "theta", "window_side"):
            with pytest.raises(ValueError, match=name):
                replace(unit_cfg(), **{name: bad})
        with pytest.raises(ValueError, match="eta"):
            unit_cfg(eta=bad)


def test_oversize_scenarios_are_rejected_when_built():
    # at most 2^26 expected centers and users per block of 256 trials; the
    # unit scenario's window is 10 x 10, so lambda_e may reach 2^26 / 25600
    # and lambda_u (one station per unit area) 2^26 / 256
    unit_cfg(psi=2621.0)
    unit_cfg(lambda_u=262144.0)
    with pytest.raises(ValueError, match="energy centers.*field.lambda_e"):
        unit_cfg(psi=2622.0)
    with pytest.raises(ValueError, match="energy centers.*field.nu"):
        replace(unit_cfg(), field=EnergyFieldSpec(gamma=20.0, lambda_e=0.05, nu=1e300))
    with pytest.raises(ValueError, match="users.*network.lambda_u"):
        unit_cfg(lambda_u=262145.0)
    with pytest.raises(ValueError, match="users.*network.lambda_u"):
        unit_cfg(lambda_u=1e308)
    # a distributed scenario also caps its harvester lattice, and its window
    # follows the aggregator lattice too
    dist = unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5))
    most = coverage._BLOCK_VALUES_CAP / resolve_window(dist).area
    unit_cfg(architecture=Distributed(lambda_h=0.999 * most, lambda_a=0.5))
    with pytest.raises(ValueError, match="harvesters.*distributed.lambda_h"):
        unit_cfg(architecture=Distributed(lambda_h=1.001 * most, lambda_a=0.5))
    with pytest.raises(ValueError, match="energy centers.*distributed.lambda_a"):
        unit_cfg(psi=1e4, architecture=Distributed(lambda_h=2.0, lambda_a=0.5))


def test_resolve_window_rules():
    cfg = unit_cfg()
    w = resolve_window(cfg)
    assert w.width == w.height == pytest.approx(10.0)  # max(10/sqrt(1), 10*1)
    # station pitch dominates at low density
    sparse = replace(cfg, lambda_b=0.25, lambda_u=2.5)
    assert resolve_window(sparse).width == pytest.approx(20.0)
    # a hard-edged arena gains a field guard on each side
    flat = replace(cfg, wrap=False)
    assert resolve_window(flat).width == pytest.approx(20.0)
    # distributed arenas are commensurate with the aggregator lattice
    dcfg = unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5))
    dw = resolve_window(dcfg)
    a = hex_pitch(0.5)
    assert dw.width / a == pytest.approx(round(dw.width / a), abs=1e-9)
    assert dw.height / (math.sqrt(3) * a) == pytest.approx(
        round(dw.height / (math.sqrt(3) * a)), abs=1e-9)
    assert dw.width >= 10.0 and dw.height >= 10.0
    explicit = replace(cfg, window_side=14.0)
    assert resolve_window(explicit).width == pytest.approx(14.0)


def test_tally_merge_is_exact():
    cfg = unit_cfg()
    whole = run_trials_chunk(cfg, 0, 100, 71)
    parts = run_trials_chunk(cfg, 0, 37, 71) + run_trials_chunk(cfg, 37, 100, 71)
    assert whole == parts


# One architecture per supply case: on-site, a lossy exact line at the rule
# voltage, and the tau floor.
_SPLIT_CASES = {
    "onsite": unit_cfg(),
    "exact_rule_voltage": unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5)),
    "tau_floor": unit_cfg(architecture=Distributed(
        lambda_h=2.0, lambda_a=0.5, line=LineSpec(mode="tau_floor"))),
    "tau_floor_one_harvester": unit_cfg(architecture=Distributed(
        lambda_h=1.0, lambda_a=1.0, line=LineSpec(mode="tau_floor"))),
}
_SPLIT_TRIALS, _SPLIT_SEED = 600, 19


def _outage_fields(cfg):
    """Where a point's tally holds its outages under equal split and under
    inversion: a center-law point's expected counts in law_*, any other's
    counts at its exact power."""
    return ("law_ci", "law_inv") if coverage._supply(cfg).by_law else ("out_ci", "out_inv")


def _split_tally(cfg, cuts):
    edges = [0, *sorted(cuts), _SPLIT_TRIALS]
    return sum((run_trials_chunk(cfg, a, b, _SPLIT_SEED) for a, b in zip(edges, edges[1:])),
               TrialTally())


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_tallies_do_not_depend_on_chunk_edges(case):
    # 600 trials are blocks [0, 256), [256, 512) and part of [512, 768)
    cfg = _SPLIT_CASES[case]
    whole = run_trials_chunk(cfg, 0, _SPLIT_TRIALS, _SPLIT_SEED)
    out_ci, out_inv = (getattr(whole, name) for name in _outage_fields(cfg))
    assert out_inv > 0 and out_ci > out_inv
    assert whole.gain_clamps > 0
    assert _split_tally(cfg, [1, 257]) == whole
    assert _split_tally(cfg, [255, 256, 513]) == whole
    assert _split_tally(cfg, [100, 200]) == whole            # inside one block
    assert _split_tally(cfg, [256, 512]) == whole            # at block edges
    assert _split_tally(cfg, [250, 260, 505, 520]) == whole  # across edges
    assert _split_tally(cfg, [254, 255, 256, 257]) == whole  # 1-trial chunks
    assert _split_tally(cfg, [10, 590]) == whole             # one chunk, 3 blocks
    singles = [run_trials_chunk(cfg, t, t + 1, _SPLIT_SEED) for t in range(250, 262)]
    assert sum(singles, TrialTally()) == run_trials_chunk(cfg, 250, 262, _SPLIT_SEED)


@settings(max_examples=10, deadline=None)
@given(cuts=st.lists(st.integers(0, _SPLIT_TRIALS), max_size=4))
@example(cuts=[0, 0, 600])
@example(cuts=[255, 256, 257])
@example(cuts=[256, 512])
@example(cuts=[3, 597])
def test_onsite_tally_split_property(cuts):
    cfg = _SPLIT_CASES["onsite"]
    assert _split_tally(cfg, cuts) == _split_tally(cfg, [])


@settings(max_examples=8, deadline=None)
@given(cuts=st.lists(st.integers(0, _SPLIT_TRIALS), max_size=4))
@example(cuts=[255, 256, 257])
@example(cuts=[3, 597])
def test_distributed_tally_split_property(cuts):
    cfg = _SPLIT_CASES["exact_rule_voltage"]
    assert _split_tally(cfg, cuts) == _split_tally(cfg, [])


def test_supply_is_built_once_per_scenario(monkeypatch):
    # run_trials_chunk looks build_clusters up in coverage's globals
    calls = []

    def counting_build(*args):
        calls.append(args)
        return build_clusters(*args)

    monkeypatch.setattr(coverage, "build_clusters", counting_build)
    coverage._supply.cache_clear()
    cfg = unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5))
    chunks = [run_trials_chunk(cfg, a, b, 23) for a, b in ((0, 100), (100, 300), (300, 520))]
    assert len(calls) == 1
    assert sum(chunks, TrialTally()) == run_trials_chunk(cfg, 0, 520, 23)
    assert len(calls) == 1
    other = replace(cfg, architecture=Distributed(lambda_h=2.0, lambda_a=0.25))
    run_trials_chunk(other, 0, 10, 23)
    assert len(calls) == 2 and calls[1][1] == 0.25
    run_trials_chunk(cfg, 0, 10, 23)
    assert len(calls) == 2


def test_wrap_must_be_a_bool():
    # a string such as "no" is truthy, so it would wrap the window it names off
    for bad in ("no", "false", 0, None):
        with pytest.raises(ValueError, match="wrap must be True or False"):
            unit_cfg(wrap=bad)
    assert resolve_window(unit_cfg(wrap=False)).wrap is False


_MEMO_CASES = {
    "onsite": unit_cfg(),
    "distributed": unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5)),
}


def _record_passes(monkeypatch):
    """The blocks drawn from each stream, the trials per pass and the calls
    to the outage count at drawn fields, filled as the engine runs, with the
    block memos emptied. Each pass's user side also records the peak powers
    it counts."""
    # run_group_chunk looks substream, _user_side, _outages and _coverage up in
    # coverage's globals
    drawn, passes = {FIELD_STREAM: [], USER_STREAM: []}, []
    outages = []
    user_side, count_outages, count_drawn = coverage._user_side, coverage._outages, \
        coverage._coverage

    def counting_substream(seed, block, stream):
        drawn[stream].append(block)
        return substream(seed, block, stream)

    def recording_user_side(supplies, seed, a, b):
        passes.append(b - a)
        outages.append(("peaks",))
        return user_side(supplies, seed, a, b)

    def counting_outages(side, power):
        # the user side counts at each peak
        outages[-1] += (power,)
        return count_outages(side, power)

    def counting_drawn(side, power, bound):
        # a point at its drawn powers and their bounds
        outages.append("count")
        return count_drawn(side, power, bound)

    monkeypatch.setattr(coverage, "substream", counting_substream)
    monkeypatch.setattr(coverage, "_user_side", recording_user_side)
    monkeypatch.setattr(coverage, "_outages", counting_outages)
    monkeypatch.setattr(coverage, "_coverage", counting_drawn)
    coverage._draw_fields.cache_clear()
    coverage._draw_users.cache_clear()
    return drawn, passes, outages


def _each_stream(blocks, fields=True):
    """Blocks drawn once from the user stream, and once from the field stream
    where the fields are drawn."""
    return {FIELD_STREAM: list(blocks) if fields else [], USER_STREAM: list(blocks)}


@pytest.mark.parametrize("case", sorted(_MEMO_CASES))
def test_consecutive_chunks_draw_each_block_once(monkeypatch, case):
    drawn, passes, _ = _record_passes(monkeypatch)
    cfg = _MEMO_CASES[case]
    n = 8 * BLOCK
    chunks = [run_trials_chunk(cfg, a, min(a + 200, n), 31) for a in range(0, n, 200)]
    # cutting the run at 200s drew 18 blocks; on-site draws no fields
    onsite = case == "onsite"
    assert drawn == _each_stream(range(8), fields=not onsite)
    # a chunk across a block edge is one pass over the tail and the head
    assert passes == [200] * 10 + [48]
    for blocks in (*drawn.values(), passes):
        blocks.clear()
    # at 520 B (on-site) and about 1240 B (distributed: its centers, and
    # the exact stage's tile arrays, beside the layout) per trial, all eight
    # blocks fit one pass
    whole = run_trials_chunk(cfg, 0, n, 31)
    assert drawn == _each_stream(range(8), fields=not onsite)
    assert passes == [n]
    assert sum(chunks, TrialTally()) == whole


@pytest.mark.parametrize("kernel, psi, start, stop, passes, blocks", [
    (Kernel.SHOT_NOISE_EXP, 6.0, 500, 1000, [256, 244], [1, 2, 3]),
    (Kernel.SHOT_NOISE_EXP, 6.0, 100, 612, [256, 256], [0, 1, 2]),
    (Kernel.SHOT_NOISE_EXP, 0.8, 100, 1300, [256, 256, 256, 256, 176], [0, 1, 2, 3, 4, 5]),
    (Kernel.SHOT_NOISE_EXP, 0.05, 500, 1000, [500], [1, 2, 3]),
    (Kernel.BOOLEAN_MAX_EXP, 6.0, 100, 6100, [5888, 112], list(range(24))),
])
def test_chunk_runs_in_fewest_passes(monkeypatch, kernel, psi, start, stop, passes, blocks):
    # a pass takes as many blocks of trials as keep the bytes it holds within
    # _PASS_BYTES (3 MiB: 12288 B per trial of one block), one at least. At 10
    # users per cell a trial's padded rows, beside the layout they fill, take
    # 520 B. A shot-noise point on the 10 x 10 window, 100 psi centers per
    # trial, keeps the layout and its thresholds (360 B) beside 32 B per
    # center and 32 B of each trial's nearest center, bound and power, and
    # then either the control's arrays (608 B) or the exact stage's tile
    # arrays (32 B per center, 65536 centers at most); the last block drawn
    # stays beside them (16 B per center of one block). At psi 6 one block
    # exceeds the budget; at psi 0.8 two blocks take 3.15 MB, just past it;
    # at psi 0.05 ten blocks take 1160 B per trial. By the center law the
    # rows' 520 B fit 23 blocks, whatever psi is. A chunk runs in the fewest
    # such passes wherever it starts, and each block it touches is drawn once
    drawn, seen, _ = _record_passes(monkeypatch)
    cfg = unit_cfg(psi=psi, kernel=kernel)
    tally = run_trials_chunk(cfg, start, stop, 19)
    assert seen == passes
    assert drawn == _each_stream(blocks, fields=kernel is Kernel.SHOT_NOISE_EXP)
    _assert_matches_oracle(cfg, tally, start, stop, 19)


def test_group_draws_and_evaluates_users_once_per_pass(monkeypatch):
    # fig4's sweep shape: psi points share every user draw and need, and the
    # one peak power's outages
    drawn, passes, outages = _record_passes(monkeypatch)
    group = tuple(unit_cfg(psi=psi) for psi in (0.05, 0.2, 0.5))
    n = 30 * BLOCK
    tallies = run_group_chunk(group, 0, n, 7)
    # by the center law every point holds 520 B per trial, so 23 blocks fill
    # a pass (see test_chunk_runs_in_fewest_passes) and each point alone
    # takes its group's passes. On-site, every point integrates its field
    # out over the pass's thresholds, so no field is drawn and no outage is
    # counted at a drawn power
    assert passes == [23 * BLOCK, 7 * BLOCK]
    assert drawn == _each_stream(range(30), fields=False)
    # each pass counts the peak's outages once, in the user side
    assert outages == [("peaks", 20.0)] * 2
    assert len({t.users for t in tallies}) == 1
    assert len({t.law_inv for t in tallies}) == 3
    assert len({t.persist_inv for t in tallies}) == 1
    passes.clear()
    run_trials_chunk(group[0], 0, n, 7)
    assert passes == [23 * BLOCK, 7 * BLOCK]
    # a gamma_eta group counts each distinct peak once per pass
    outages.clear()
    group = tuple(apply_sweep(unit_cfg(), "gamma_eta", g) for g in (5.0, 80.0, 5.0))
    tallies = run_group_chunk(group, 0, 10 * BLOCK, 7)
    assert outages == [("peaks", 5.0, 80.0)]
    assert tallies[0] == tallies[2] and tallies[0].persist_ci > tallies[1].persist_ci
    # a distributed group counts each point's outages at its drawn powers
    outages.clear()
    base = unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5))
    group = tuple(apply_sweep(base, "gamma_eta", g) for g in (5.0, 80.0))
    run_group_chunk(group, 0, 2 * BLOCK, 7)
    assert outages[1:] == ["count", "count"] and len(outages[0]) == 3
    with pytest.raises(ValueError, match="user_settings"):
        run_group_chunk((group[0], replace(group[0], theta=4.0)), 0, 10, 7)
    with pytest.raises(ValueError, match="user_settings"):
        run_group_chunk((), 0, 10, 7)


_BUDGET_CASES = {
    "onsite_psi_group": tuple(unit_cfg(psi=psi) for psi in (0.05, 0.2, 0.5)),
    "distributed_two_clusters": tuple(
        unit_cfg(architecture=Distributed(lambda_h=lambda_h, lambda_a=0.5))
        for lambda_h in (2.0, 6.0)),
    "shot_noise": (unit_cfg(kernel=Kernel.SHOT_NOISE_EXP),),
    "tau_floor_one_harvester_gamma_group": tuple(
        apply_sweep(_SPLIT_CASES["tau_floor_one_harvester"], "gamma_eta", g)
        for g in (5.0, 80.0)),
}


@pytest.mark.parametrize("case", sorted(_BUDGET_CASES))
def test_tallies_do_not_depend_on_the_pass_budget(monkeypatch, case):
    # no trial's arithmetic depends on its pass: one-block passes and a
    # whole chunk in one pass tally what the default budget does
    group = _BUDGET_CASES[case]
    default = run_group_chunk(group, 100, 1400, 29)
    assert all(getattr(t, _outage_fields(cfg)[1]) > 0 for cfg, t in zip(group, default))
    for budget in (1, 1 << 62):
        monkeypatch.setattr(coverage, "_PASS_BYTES", budget)
        assert run_group_chunk(group, 100, 1400, 29) == default


def _plaw_fig5():
    """fig5's lossless clusters under the power-law kernel at gamma = 0.5,
    whose bound is the station's power at the nearest center alone."""
    fig5 = _repro_experiment("fig5").scenario
    return replace(fig5, field=replace(fig5.field, kernel=Kernel.BOOLEAN_MAX_PLAW, gamma=0.5))


def _peak_cases():
    """The groups whose one-pass peaks the byte model is held to: fig5's
    cluster sizes 20 and 320, over lossless lines, and the faint CI sweep's
    80 and 320 at gamma = 0.01, where no trial settles and every slice of
    the exact stage is full; fig4's psi sweep; the lossy CI sweep's cluster
    sizes 20 and 80, over exact lines at the rule's voltage; fig5's cluster
    sizes 20 and 80 under the power law at gamma = 0.5, whose bound never
    factors by axis; fig4 at psi 0.02 under shot noise; fig4's scenario
    beside its shot-noise twin, and one harvester by the center law beside
    a cluster of seven, the two groups that mix the center law with drawn
    fields. The cluster of seven settles most of its trials at the bound,
    and none at gamma = 0.01, where every trial's field is evaluated and the
    tiles reach their cap."""
    fig4, fig5 = _repro_experiment("fig4"), _repro_experiment("fig5").scenario
    shot = replace(fig4.scenario, field=replace(fig4.scenario.field,
                                                kernel=Kernel.SHOT_NOISE_EXP))
    one = parse_config_text("scenario.architecture = distributed\n"
                            "distributed.lambda_h = 0.78\ndistributed.lambda_a = 0.78\n").scenario
    faint = replace(one, field=replace(one.field, gamma=0.01))
    faint_fig5 = replace(fig5, field=replace(fig5.field, gamma=0.01))
    lossy = parse_config_text("scenario.architecture = distributed\n"
                              "channel.ref_dist = 3\n").scenario
    plaw = _plaw_fig5()
    return {
        "fig4": tuple(apply_sweep(fig4.scenario, "psi", p) for p in fig4.sweep_values),
        "fig5": tuple(apply_sweep(fig5, "cluster_size", c) for c in (20.0, 320.0)),
        "fig5_gamma_0.01": tuple(apply_sweep(faint_fig5, "cluster_size", c)
                                 for c in (80.0, 320.0)),
        "lossy": tuple(apply_sweep(lossy, "cluster_size", c) for c in (20.0, 80.0)),
        "plaw_fig5": tuple(apply_sweep(plaw, "cluster_size", c) for c in (20.0, 80.0)),
        "fig4_shot_noise": (apply_sweep(shot, "psi", 0.02),),
        "onsite_with_shot_noise_twin": (fig4.scenario, shot),
        "cluster_sizes_1_and_7": tuple(apply_sweep(one, "cluster_size", c) for c in (1.0, 7.0)),
        "cluster_sizes_1_and_7_gamma_0.01": tuple(apply_sweep(faint, "cluster_size", c)
                                                  for c in (1.0, 7.0)),
    }


@pytest.mark.parametrize("case", sorted(_peak_cases()))
def test_a_pass_peaks_within_its_byte_model(case):
    # the bytes a pass holds at its peak, traced, lie between half and 1.1
    # times the estimate its length was chosen by. The first pass warms the
    # scenario records; the second draws its blocks afresh and is traced
    group = _peak_cases()[case]
    supplies = [coverage._supply(cfg) for cfg in group]
    if case.startswith(("onsite_with_shot_noise_twin", "cluster_sizes_1_and_7")):
        assert {s.by_law for s in supplies} == {True, False}
    step, estimate = coverage._pass_plan(supplies)
    if case == "fig5":   # 320 harvesters' values are held one slice at a time
        assert step >= 4 * BLOCK
    run_group_chunk(group, 0, step, 4242)
    coverage._draw_fields.cache_clear()
    coverage._draw_users.cache_clear()
    tracemalloc.start()
    try:
        run_group_chunk(group, step, 2 * step, 4242)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.5 <= peak / estimate <= 1.10, (peak, estimate)


def _bound_cases():
    """Points on the centers path, whose covered trials settle at a bound on
    the station's power: fig5 at cluster 320 (about 82% of trials with users
    settled), and at gamma = 0.01 (none); the CI's dense fig5 at 320 (all);
    distributed shot noise at clusters 20 and 80 (19 and 73 harvesters);
    fig5 at cluster 80 over exact lines at 2 V, and at 320 over tau_floor
    lines; fig5 at cluster 80 under the power law at gamma = 0.5 (73
    harvesters, p_inv about 1.8%); fig5 at cluster 20 (19 harvesters) and a
    cluster of 7 at lambda_h = 0.78; and on-site shot noise at psi 0.5 and
    gamma = 10 (about a quarter of the trials evaluated), on a wrapped
    window and on a flat one."""
    fig5 = _repro_experiment("fig5").scenario
    arch = fig5.architecture
    dense = parse_config_text("scenario.architecture = distributed\nfield.gamma = 10\n"
                              "field.lambda_e = 0.4\ndistributed.voltage = inf\n").scenario
    shot = parse_config_text("scenario.architecture = distributed\n"
                             "field.kernel = shot_noise_exp\n").scenario
    seven = parse_config_text("scenario.architecture = distributed\n"
                              "distributed.lambda_h = 0.78\n").scenario
    onsite_shot = parse_config_text("field.kernel = shot_noise_exp\nfield.gamma = 10\n").scenario
    tau_floor = replace(fig5, architecture=replace(arch, line=replace(arch.line,
                                                                      mode="tau_floor")))
    return {
        "fig5_320": apply_sweep(fig5, "cluster_size", 320.0),
        "fig5_gamma_0.01_320": apply_sweep(
            replace(fig5, field=replace(fig5.field, gamma=0.01)), "cluster_size", 320.0),
        "dense_fig5_320": apply_sweep(dense, "cluster_size", 320.0),
        "shot_noise_80": apply_sweep(shot, "cluster_size", 80.0),
        "lossy_2V_80": apply_sweep(apply_sweep(fig5, "voltage", 2.0), "cluster_size", 80.0),
        "tau_floor_320": apply_sweep(tau_floor, "cluster_size", 320.0),
        "plaw_80": apply_sweep(_plaw_fig5(), "cluster_size", 80.0),
        "fig5_20": apply_sweep(fig5, "cluster_size", 20.0),
        "exact_lambda_h_0.78_7": apply_sweep(seven, "cluster_size", 7.0),
        "shot_noise_20": apply_sweep(shot, "cluster_size", 20.0),
        "onsite_shot_noise_0.5": apply_sweep(onsite_shot, "psi", 0.5),
        "onsite_shot_noise_0.5_flat": replace(apply_sweep(onsite_shot, "psi", 0.5), wrap=False),
    }


def _nearest_center_fields(real, points):
    """field_values at each realization's first center at the least distance
    from the window's center alone, found by its own argmin, (k, n); 0 for
    an empty realization."""
    cx, cy = real.window.center
    out = np.zeros((len(points), len(real.counts)))
    starts = np.cumsum(real.counts) - real.counts
    for i, (a, c) in enumerate(zip(starts, real.counts)):
        if c:
            xy = real.centers.points[a:a + c]
            d2 = (xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2
            alone = FieldRealization(real.spec, PointSet(xy[np.argmin(d2)]), real.window)
            out[:, i] = field_values(alone, points)[:, 0]
    return out


def _drawn_block(cfg, seed, a, b):
    """Trials [a, b)'s field realizations, drawn block by block from the field
    stream."""
    window = coverage._supply(cfg).window
    blocks = [draw_field(cfg.field, window, substream(seed, block, FIELD_STREAM), BLOCK)
              for block in range(a // BLOCK, -(-b // BLOCK))]
    first = a // BLOCK * BLOCK
    return FieldRealization.join(blocks).select(a - first, b - first)


def _every_trial_tally(cfg, seed, a, b):
    """Trials [a, b) with every drawn realization evaluated: field_values at
    the typical cluster and _Supply.station_power of eta times them, then
    the outages and union events at those powers; and the control at every
    realization's one-center bound L, the station power at its nearest
    center alone (_nearest_center_fields): the outages and union events at
    L, their expectations under the bound's law, and the moments of
    Y + G - C, each user's outage at L but not at its power found by its
    own comparisons."""
    supply = coverage._supply(cfg)
    side = coverage._user_side([supply], seed, a, b)
    tally = replace(side.tally)
    real = _drawn_block(cfg, seed, a, b)
    busy, k, users = side.busy, side.k, side.tally.users
    power = supply.station_power(cfg.eta * field_values(real, supply.positions))[busy]
    bound = supply.station_power(cfg.eta * _nearest_center_fields(real, supply.positions))[busy]
    bound *= 1.0 - coverage._BOUND_MARGIN
    tally.persist_ci, tally.persist_inv = side.persist[supply.peak_station_power]
    need, csum, last = side.flat[:users], side.flat[users:], side.flat[side.last]

    def outages(at):
        # users in outage under equal split and under inversion, and union events
        return (int(np.count_nonzero(need > np.repeat(at / k, k))),
                int(np.count_nonzero(csum > np.repeat(at, k))), int(np.count_nonzero(last > at)))

    counts = list(zip(outages(power), outages(bound)))
    (tally.out_ci, tally.bound_ci), (tally.out_inv, tally.bound_inv), \
        (tally.union_trials, tally.bound_union) = counts
    # F_L at each threshold, less 1 at each user in outage at L but not at P
    low, high = np.repeat(bound / k, k), np.repeat(power / k, k)
    residual = np.concatenate(((need > low) & (need <= high),
                               (csum > np.repeat(bound, k)) & (csum <= np.repeat(power, k))))
    sums = coverage._law_sums(supply.bound_law.at(side.thresholds.values) - residual, side)
    tally.law_ci, tally.law_inv, tally.law_union = (
        s + ((n_c - n_y) << 32) for s, (n_y, n_c) in zip(sums, counts))
    tally.sq_ci, tally.sq_inv, tally.ek_ci, tally.ek_inv = sums[3:]
    tally.k_sq, tally.drawn_trials = int((k * k).sum()), len(k)
    return tally


@pytest.mark.parametrize("case", sorted(_bound_cases()))
def test_settled_trials_tally_as_every_trial_evaluated(case):
    # settling a trial at the bound changes no count: chunks cut inside
    # blocks and across their edges tally what evaluating every drawn
    # realization does
    cfg = _bound_cases()[case]
    edges = [100, 300, 650, 1100]
    tallies = [run_trials_chunk(cfg, a, b, 47) for a, b in zip(edges, edges[1:])]
    assert tallies == [_every_trial_tally(cfg, 47, a, b) for a, b in zip(edges, edges[1:])]
    if case != "dense_fig5_320":   # the dense field covers every user
        assert sum(t.out_inv for t in tallies) > 0


@pytest.mark.parametrize("case, settles", [("fig5_320", "some"),
                                           ("fig5_gamma_0.01_320", "none"),
                                           ("dense_fig5_320", "all"),
                                           ("shot_noise_80", "some"),
                                           ("plaw_80", "some"),
                                           ("fig5_20", "some"),
                                           ("onsite_shot_noise_0.5_flat", "some")])
def test_exact_stage_takes_the_unsettled_trials_with_users(monkeypatch, case, settles):
    # each pass evaluates field_values on the realizations of exactly the
    # trials with users that its bound leaves unsettled, slice by slice in
    # their order, counted here from the users' own sorted needs: all of
    # them settled, no call; none, every trial with users. Off the factored
    # path the bound is itself field_values at the nearest centers alone:
    # those calls, made inside _Supply.bound, are told apart and hold at
    # most one center per realization
    cfg = _bound_cases()[case]
    supply = coverage._supply(cfg)
    calls, bound_calls, in_bound = [], [], []

    def bound(self, real, fn=coverage._Supply.bound):
        in_bound.append(True)
        try:
            return fn(self, real)
        finally:
            in_bound.pop()

    def values(real, points, fn=field_values):
        (bound_calls if in_bound else calls).append(real)
        return fn(real, points)

    monkeypatch.setattr(coverage._Supply, "bound", bound)
    monkeypatch.setattr(coverage, "field_values", values)
    seen = set()
    for a, b in ((100, 356), (356, 600), (600, 612), (612, 868)):   # one pass each
        calls.clear()
        bound_calls.clear()
        run_trials_chunk(cfg, a, b, 47)
        assert bool(bound_calls) == (supply.gain is None)
        assert all(c.counts.max(initial=0) <= 1 for c in bound_calls)
        users = coverage._pass_draw(partial(coverage._draw_users, cfg, 47), a, b)
        needs = np.split(required_power(cfg.theta, users.distance, users.fading, cfg.channel),
                         np.cumsum(users.users)[:-1])
        real = _drawn_block(cfg, 47, a, b)
        bound = supply.station_power(cfg.eta * _nearest_center_fields(real, supply.positions))
        bound *= 1.0 - coverage._BOUND_MARGIN
        settled = np.array([len(n) > 0 and n.max() <= p / len(n) and np.cumsum(np.sort(n))[-1] <= p
                            for n, p in zip(needs, bound)])
        unsettled = (users.users > 0) & ~settled
        if not unsettled.any():
            seen.add("all")
            assert calls == []
            continue
        # in slices of at most _TILE_ELEMENTS // harvesters realizations
        assert all(len(c.counts) <= max(1, coverage._TILE_ELEMENTS // len(supply.positions))
                   for c in calls)
        call = FieldRealization.join(calls)
        seen.add("some" if settled.any() else "none")
        starts = np.cumsum(real.counts) - real.counts
        centers = [real.centers.points[s:s + c]
                   for s, c in zip(starts[unsettled], real.counts[unsettled])]
        assert np.array_equal(call.counts, real.counts[unsettled])
        assert np.array_equal(call.centers.points, np.concatenate(centers))
    assert seen == {settles}


def _factored_cfg(kernel, where, mode, eta, psi):
    """A scenario whose bound is summed by axis: fig5's clusters of 20, 80 and
    320 over lossless or tau_floor lines (wrapped windows), or on-site, on a
    wrapped window or a flat one."""
    if where in ("wrapped", "flat"):
        return unit_cfg(psi=psi, kernel=kernel, eta=eta, wrap=where == "wrapped")
    fig5 = _repro_experiment("fig5").scenario
    arch = fig5.architecture
    if mode == "tau_floor":
        arch = replace(arch, line=replace(arch.line, mode="tau_floor"))
    field = replace(fig5.field, kernel=kernel, lambda_e=psi / fig5.field.nu)
    return apply_sweep(replace(fig5, field=field, architecture=arch, eta=eta),
                       "cluster_size", where)


@settings(max_examples=40, deadline=None)
@given(kernel=st.sampled_from([Kernel.BOOLEAN_MAX_EXP, Kernel.SHOT_NOISE_EXP]),
       where=st.sampled_from(["wrapped", "flat", 20.0, 80.0, 320.0]),
       mode=st.sampled_from(["lossless", "tau_floor"]), eta=st.sampled_from([1.0, 0.6]),
       psi=st.sampled_from([0.05, 0.5]), seed=st.integers(0, 2**16))
def test_the_factored_bound_is_the_harvesters_bound_to_round_off(kernel, where, mode, eta,
                                                                psi, seed):
    # on a linear line under an exponential kernel the station's bound L is
    # summed by axis (_Supply.gain): it equals the station's power at the
    # nearest centers alone, harvester by harvester, to 1e-12, and after
    # _BOUND_MARGIN it never exceeds the exact power; a trial's L has the
    # same bits alone as in its block of 256
    cfg = _factored_cfg(kernel, where, mode, eta, psi)
    supply = coverage._supply(cfg)
    assert supply.gain is not None
    real = draw_field(cfg.field, supply.window, substream(seed, 0, FIELD_STREAM), BLOCK)
    bound = supply.bound(real)
    harvesters = supply.power(nearest_center(real))
    np.testing.assert_allclose(bound, harvesters * (1.0 - coverage._BOUND_MARGIN),
                               rtol=1e-12, atol=0.0)
    assert np.all(bound <= supply.power(real))
    for i in range(BLOCK):
        assert np.array_equal(supply.bound(real.select(i, i + 1)), bound[i:i + 1])


@pytest.mark.parametrize("case", ["fig5_320", "fig5_gamma_0.01_320", "tau_floor_320",
                                  "lossy_2V_80", "shot_noise_80", "plaw_80",
                                  "onsite_shot_noise_0.5_flat"])
def test_tallies_do_not_depend_on_the_stage_slices(monkeypatch, case):
    # the bound's stage and the exact stage take a pass's realizations in
    # slices of at most _TILE_ELEMENTS // harvesters; slices of one
    # realization each tally what the default slices do
    cfg = _bound_cases()[case]
    default = run_trials_chunk(cfg, 100, 1400, 29)
    assert default.out_inv > 0
    monkeypatch.setattr(coverage, "_TILE_ELEMENTS", 1)
    assert run_trials_chunk(cfg, 100, 1400, 29) == default

@pytest.mark.parametrize("kw, by_law", [
    ({}, True),
    ({"kernel": Kernel.BOOLEAN_MAX_PLAW, "wrap": False}, True),
    ({"architecture": Distributed(lambda_h=1.0, lambda_a=1.0)}, True),
    ({"architecture": Distributed(lambda_h=0.5, lambda_a=0.5, line=LineSpec(voltage=None))},
     True),
    ({"architecture": Distributed(lambda_h=1.0, lambda_a=1.0, line=LineSpec(voltage=50.0))},
     True),
    ({"kernel": Kernel.SHOT_NOISE_EXP}, False),
    ({"architecture": Distributed(lambda_h=2.0, lambda_a=0.5)}, False),
    # five harvesters: below lambda_h = 4 lambda_a the typical cluster is
    # the center harvester alone
    ({"architecture": Distributed(lambda_h=4.0, lambda_a=1.0, line=LineSpec(mode="tau_floor"))},
     False),
])
def test_the_scenario_alone_selects_the_center_law(monkeypatch, kw, by_law):
    # a boolean field at the window's center alone (on-site, or a cluster of
    # one harvester) is integrated out by its law and never draws centers
    calls = []
    for name in ("draw_field", "field_values"):
        monkeypatch.setattr(coverage, name, lambda *args, fn=getattr(coverage, name):
                            calls.append(fn) or fn(*args))
    coverage._draw_fields.cache_clear()
    cfg = unit_cfg(**kw)
    tally = run_trials_chunk(cfg, 0, 300, 5)
    assert coverage._supply(cfg).by_law == by_law
    assert (not calls) == by_law
    assert getattr(tally, _outage_fields(cfg)[0]) > 0


@settings(max_examples=60, deadline=None)
@given(lambda_a=st.floats(0.1, 2.0), ratio=st.one_of(st.just(1.0), st.floats(1.0, 8.0)),
       stations=st.integers(1, 4), pitches=st.one_of(st.none(), st.floats(1.01, 12.0)),
       kernel=st.sampled_from(list(Kernel)), voltage=st.sampled_from([None, 50.0, math.inf]),
       mode=st.sampled_from(["exact", "tau_floor"]))
def test_one_harvester_clusters_sit_at_the_center(lambda_a, ratio, stations, pitches,
                                                  kernel, voltage, mode):
    # both lattices put a site exactly at the window's center, so the center
    # harvester feeds the typical aggregator over a zero-length line: a
    # typical cluster of one is that harvester, and the center law asks only
    # for a boolean kernel and one harvester. An explicit window side spans
    # more than one aggregator pitch, as build_clusters needs.
    window_side = None if pitches is None else pitches * hex_pitch(lambda_a)
    cfg = ScenarioConfig(
        field=EnergyFieldSpec(gamma=20.0, lambda_e=0.05, nu=1.0, kernel=kernel),
        channel=ChannelSpec.normalized(), lambda_b=stations * lambda_a, lambda_u=10.0,
        architecture=Distributed(lambda_h=ratio * lambda_a, lambda_a=lambda_a,
                                 line=LineSpec(voltage=voltage, mode=mode)),
        window_side=window_side)
    supply = coverage._supply(cfg)
    one = len(supply.positions) == 1
    if one:
        assert np.array_equal(supply.positions.points[0], supply.window.center)
        assert not supply.line_lengths.any()
    assert supply.by_law == (kernel is not Kernel.SHOT_NOISE_EXP and one)


# Sweep edits that keep a scenario's user settings, by architecture; a
# cluster_size edit changes the distributed window as well.
_GROUP_BASES = {"onsite": unit_cfg(),
                "distributed": unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5))}
_GROUP_EDITS = {
    "onsite": [("psi", v) for v in (0.02, 0.2, 0.5)] + [("gamma_eta", v) for v in (5.0, 80.0)],
    "distributed": [("psi", v) for v in (0.02, 0.2)] + [("gamma_eta", 80.0)]
                   + [("cluster_size", v) for v in (2.0, 8.0)],
}
_GROUPS = st.sampled_from(sorted(_GROUP_EDITS)).flatmap(
    lambda arch: st.tuples(st.just(arch), st.lists(st.sampled_from(_GROUP_EDITS[arch]),
                                                   min_size=1, max_size=4)))


@settings(max_examples=15, deadline=None)
@given(group=_GROUPS, start=st.integers(0, 700), length=st.integers(0, 400),
       seed=st.integers(0, 2**32))
@example(group=("distributed", [("psi", 0.2), ("cluster_size", 8.0), ("gamma_eta", 80.0)]),
         start=250, length=300, seed=5)
def test_group_tallies_equal_points_run_alone(group, start, length, seed):
    arch, edits = group
    base = _GROUP_BASES[arch]
    cfgs = (base, *(apply_sweep(base, param, value) for param, value in edits))
    stop = start + length
    assert run_group_chunk(cfgs, start, stop, seed) == \
        [run_trials_chunk(cfg, start, stop, seed) for cfg in cfgs]


@pytest.mark.parametrize("param, values", [
    ("psi", _repro_experiment("fig4").sweep_values),
    ("gamma_eta", (250.0, 1000.0, 4000.0)),
])
def test_onsite_outages_fall_along_a_field_sweep(param, values):
    # the points of an on-site group integrate the same users over their
    # field's law, and a denser or stronger field is below any threshold less
    # often, so no chunk's expected outages rise from one point to the next
    base = _repro_experiment("fig4").scenario
    group = tuple(apply_sweep(base, param, v) for v in values)
    for a in range(0, 20 * 300, 300):
        tallies = run_group_chunk(group, a, a + 300, 17)
        for scheme in ("law_ci", "law_inv", "law_union"):
            counts = [getattr(t, scheme) for t in tallies]
            assert counts == sorted(counts, reverse=True), (scheme, a, counts)


def test_block_memo_is_read_only_and_keyed():
    cfg = unit_cfg()
    users = coverage._draw_users(cfg, 3, 1)
    real = coverage._draw_fields(cfg.field, resolve_window(cfg), 3, 1)
    for a in (users.users, users.distance, users.fading, real.counts,
              real.centers.points):
        with pytest.raises(ValueError):
            a[0] = 0
    # the memo holds one block: runs that take turns evict each other's
    runs = [(cfg, 5), (unit_cfg(psi=0.5), 5), (cfg, 6)]
    edges = range(0, 1000, 200)
    alone = [sum((run_trials_chunk(c, a, a + 200, s) for a in edges), TrialTally())
             for c, s in runs]
    taking_turns = [TrialTally() for _ in runs]
    for a in edges:
        for i, (c, s) in enumerate(runs):
            taking_turns[i] += run_trials_chunk(c, a, a + 200, s)
    assert taking_turns == alone
    assert alone == [run_trials_chunk(c, 0, 1000, s) for c, s in runs]
    assert len(set(map(str, alone))) == 3


def _oracle_shortfall(cfg, window, supply, x):
    """Pr(P < x) for the power P of a station run by the center law, one
    threshold at a time: the chance that no center lies within r of the
    window's center, r being where the peak station power times the kernel's
    decay falls to x."""
    c = supply.peak_station_power
    if x >= c:
        return 1.0
    ratio = c / x
    r2 = cfg.field.nu * (math.log(ratio) if cfg.field.kernel is Kernel.BOOLEAN_MAX_EXP
                         else ratio - 1.0)
    return math.exp(-cfg.field.lambda_e * float(window_disk_area(math.sqrt(r2), window)))


def _oracle_realization(cfg, window, seed, t):
    """Trial t's own centers of its block's field stream."""
    b, i = divmod(t, BLOCK)
    real = coverage._draw_fields(cfg.field, window, seed, b)
    c0 = int(real.counts[:i].sum())
    centers = PointSet(real.centers.points[c0:c0 + real.counts[i]])
    return FieldRealization(cfg.field, centers, window)


def _oracle_bound_law(supply, x):
    """The bound's law at threshold x, interpolated in ln x between the
    nodes of its table by np.interp."""
    law = supply.bound_law
    nodes = law.lo + np.arange(len(law.f)) / law.scale
    return float(np.interp(math.log(x), nodes, law.f))


def _fixed(v):
    """v in units of 2^-32, rounded half to even as np.rint rounds."""
    return round(v * 2 ** 32)


def _oracle_trials(cfg, start, stop, seed):
    """Scalar reference engine, one tally per trial: the engine's drawn
    blocks of users, evaluated trial by trial with np.sort, np.cumsum and
    searchsorted, as the per-trial loop the block engine replaced did. A
    scenario run by the center law adds each user's F at its threshold
    (_oracle_shortfall) into law_* and rounds the trial's sums and moments
    to 2^-32, its counts left at 0;
    any other counts the outages at its drawn field and at its one-center
    bound, adds each user's bound law at its threshold (_oracle_bound_law),
    and rounds those sums and the moments of Y + G - C to 2^-32."""
    supply = coverage._supply(cfg)
    window, law = supply.window, supply.by_law
    peak = supply.peak_station_power
    for t in range(start, stop):
        b, i = divmod(t, BLOCK)
        draws = coverage._draw_users(cfg, seed, b)
        k = int(draws.users[i])
        if k == 0:
            yield TrialTally(trials=1, zero_user_trials=1)
            continue
        u0 = int(draws.users[:i].sum())
        u = slice(u0, u0 + k)
        dist = draws.distance[u]
        need = required_power(cfg.theta, dist, draws.fading[u], cfg.channel)
        csum = np.cumsum(np.sort(need))
        tally = TrialTally(trials=1, users=k,
                           gain_clamps=int(np.count_nonzero(dist < cfg.channel.min_dist)),
                           persist_ci=int(np.count_nonzero(need > peak / k)),
                           persist_inv=k - int(np.searchsorted(csum, peak, side="right")))
        if law:
            def shortfall(x):
                return _oracle_shortfall(cfg, window, supply, float(x))
            e_ci = sum(shortfall(k * g) for g in need)
            e_inv = sum(shortfall(c) for c in csum)
            tally.law_ci, tally.law_inv = _fixed(e_ci), _fixed(e_inv)
            tally.law_union = _fixed(shortfall(csum[-1]))
            tally.sq_ci, tally.sq_inv = _fixed(e_ci * e_ci), _fixed(e_inv * e_inv)
            tally.ek_ci, tally.ek_inv = _fixed(e_ci * k), _fixed(e_inv * k)
            tally.k_sq = k * k
        else:
            real = _oracle_realization(cfg, window, seed, t)
            power = float(supply.station_power(cfg.eta * field_values(real, supply.positions))[0])
            bound = float(supply.station_power(
                cfg.eta * _nearest_center_fields(real, supply.positions))[0])
            bound *= 1.0 - coverage._BOUND_MARGIN
            counts = []
            for p in (power, bound):
                counts.append((int(np.count_nonzero(need > p / k)),
                               k - int(np.searchsorted(csum, p, side="right")),
                               int(csum[-1] > p)))
            (tally.out_ci, tally.out_inv, tally.union_trials), \
                (tally.bound_ci, tally.bound_inv, tally.bound_union) = counts
            g_ci = sum(_oracle_bound_law(supply, k * g) for g in need)
            g_inv = sum(_oracle_bound_law(supply, c) for c in csum)
            tally.law_ci, tally.law_inv = _fixed(g_ci), _fixed(g_inv)
            tally.law_union = _fixed(_oracle_bound_law(supply, csum[-1]))
            z_ci = tally.out_ci + g_ci - tally.bound_ci
            z_inv = tally.out_inv + g_inv - tally.bound_inv
            tally.sq_ci, tally.sq_inv = _fixed(z_ci * z_ci), _fixed(z_inv * z_inv)
            tally.ek_ci, tally.ek_inv = _fixed(z_ci * k), _fixed(z_inv * k)
            tally.k_sq, tally.drawn_trials = k * k, 1
        yield tally


def _oracle_tally(cfg, start, stop, seed):
    return sum(_oracle_trials(cfg, start, stop, seed), TrialTally())


# The fields a point with users tallies in 2^-32 units beside its counts:
# its expected counts G and the moments of its estimates.
_FIXED_FIELDS = ("law_ci", "law_inv", "law_union", "sq_ci", "sq_inv", "ek_ci", "ek_inv")


def _assert_close_to(tally, want):
    """Every count equal; the expected counts and moments, which the oracle
    reaches by other arithmetic, within one unit per trial and 1e-9 of
    their size."""
    for f in fields(TrialTally):
        got, expected = getattr(tally, f.name), getattr(want, f.name)
        if f.name in _FIXED_FIELDS and want.k_sq:
            assert abs(got - expected) <= want.trials + 1e-9 * abs(expected), f.name
        else:
            assert got == expected, f.name


def _assert_matches_oracle(cfg, tally, start, stop, seed):
    _assert_close_to(tally, _oracle_tally(cfg, start, stop, seed))


_ORACLE_SUPPLIES = {
    "onsite": {},
    "onsite_flat": {"wrap": False},
    "exact_voltage": {"architecture": Distributed(
        lambda_h=2.0, lambda_a=0.5, line=LineSpec(voltage=3.0))},
    "rule_voltage": {"architecture": Distributed(lambda_h=2.0, lambda_a=0.5)},
    "tau_floor": {"architecture": Distributed(
        lambda_h=2.0, lambda_a=0.5, line=LineSpec(mode="tau_floor"))},
    "one_harvester": {"architecture": Distributed(
        lambda_h=1.0, lambda_a=1.0, line=LineSpec(voltage=3.0))},
    "tau_floor_one_harvester": {"architecture": Distributed(
        lambda_h=1.0, lambda_a=1.0, line=LineSpec(mode="tau_floor"))},
}


@settings(max_examples=30, deadline=None)
@given(kernel=st.sampled_from(list(Kernel)),
       fading=st.sampled_from([ChiSquaredFading(1), ChiSquaredFading(2),
                               TruncatedRicianFading(0.1)]),
       supply=st.sampled_from(sorted(_ORACLE_SUPPLIES)),
       psi=st.sampled_from([0.05, 0.5]), lambda_u=st.sampled_from([0.5, 10.0]),
       ref_dist=st.sampled_from([1.0, 3.0]),
       start=st.integers(0, 700), length=st.integers(0, 400),
       seed=st.integers(0, 2**32))
@example(kernel=Kernel.BOOLEAN_MAX_EXP, fading=ChiSquaredFading(1), supply="onsite",
         psi=0.05, lambda_u=10.0, ref_dist=3.0, start=200, length=400, seed=8)
def test_block_engine_matches_scalar_oracle(kernel, fading, supply, psi, lambda_u,
                                            ref_dist, start, length, seed):
    # lambda_u 0.5 leaves most cells empty; ref_dist 3 puts a user inside the
    # path-gain clamp radius every few dozen trials. A center-law point's
    # expected counts are checked trial by trial too, on the chunk's first 20
    cfg = unit_cfg(psi=psi, lambda_u=lambda_u, kernel=kernel, fading=fading,
                   **_ORACLE_SUPPLIES[supply])
    cfg = replace(cfg, channel=replace(cfg.channel, ref_dist=ref_dist))
    stop = start + length
    _assert_matches_oracle(cfg, run_trials_chunk(cfg, start, stop, seed), start, stop, seed)
    for t, want in zip(range(start, stop), _oracle_trials(cfg, start, min(stop, start + 20),
                                                           seed)):
        _assert_close_to(run_trials_chunk(cfg, t, t + 1, seed), want)


def test_oracle_sees_clamps_and_both_outage_kinds():
    # the explicit example of the oracle property exercises every outage field
    cfg = unit_cfg(fading=ChiSquaredFading(1))
    cfg = replace(cfg, channel=replace(cfg.channel, ref_dist=3.0))
    tally = _oracle_tally(cfg, 200, 600, 8)
    assert tally.gain_clamps > 0 and tally.law_union > 0
    assert tally.law_ci > tally.law_inv > 0
    assert tally.persist_ci > tally.persist_inv > 0


@pytest.mark.parametrize("share", [0.05, 0.5, 1.0])
def test_gain_clamps_match_their_exact_probability(share):
    # a user lies nearer its station than min_dist <= r_in, the cell's
    # inradius, with probability pi min_dist^2 lambda_b: the disk's share of
    # the cell's area 1 / lambda_b. ref_dist is raised so that min_dist is
    # the given share of r_in and clamps are common
    cfg = unit_cfg()
    r_in = hex_cell_circumradius(cfg.lambda_b) * math.sqrt(3.0) / 2.0
    cfg = replace(cfg, channel=replace(cfg.channel, ref_dist=100.0 * share * r_in))
    p = math.pi * cfg.channel.min_dist ** 2 * cfg.lambda_b
    tally = run_trials_chunk(cfg, 0, 16 * BLOCK, 13)
    n = tally.users
    sigma = math.sqrt(n * p * (1.0 - p))
    assert abs(tally.gain_clamps - n * p) < 5.0 * sigma, (tally.gain_clamps, n * p, sigma)


def test_chunks_reproducible_and_seed_sensitive():
    cfg = unit_cfg()
    a = run_trials_chunk(cfg, 0, 150, 5)
    b = run_trials_chunk(cfg, 0, 150, 5)
    c = run_trials_chunk(cfg, 0, 150, 6)
    assert a == b
    assert a != c


def test_inversion_never_worse_than_equal_split():
    tally = run_trials_chunk(unit_cfg(), 0, 400, 11)
    assert tally.law_inv <= tally.law_ci
    assert tally.persist_inv <= tally.persist_ci
    est = estimates_from_tally(unit_cfg(), tally)
    assert est[Scheme.INVERSION].p_out <= est[Scheme.CHANNEL_INDEPENDENT].p_out


@settings(max_examples=100, deadline=None)
@given(supply=st.sampled_from(sorted(_ORACLE_SUPPLIES)),
       psi=st.sampled_from([0.05, 0.5]), gamma=st.sampled_from([5.0, 20.0, 80.0]),
       trial=st.integers(0, 2 * BLOCK), seed=st.integers(0, 2**32))
def test_inversion_never_worse_than_equal_split_per_trial(supply, psi, gamma, trial,
                                                          seed):
    # the users equal split covers (need <= P/k) have the smallest needs, and
    # m of them need at most m P/k <= P, so inversion covers them too
    cfg = unit_cfg(gamma=gamma, psi=psi, **_ORACLE_SUPPLIES[supply])
    tally = run_trials_chunk(cfg, trial, trial + 1, seed)
    out_ci, out_inv = (getattr(tally, name) for name in _outage_fields(cfg))
    assert out_inv <= out_ci
    assert tally.persist_inv <= tally.persist_ci


def test_union_event_equals_total_demand_exceedance():
    # under inversion, some user is uncovered exactly when the total demand
    # exceeds the budget, so per-trial the two events coincide at a drawn
    # field (a center-law point's expected counts are checked in
    # test_expected_outages)
    cfg = unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5))
    for t in range(120):
        tally = run_trials_chunk(cfg, t, t + 1, 202)
        if tally.users == 0:
            assert tally.union_trials == 0
            continue
        assert (tally.out_inv > 0) == (tally.union_trials == 1)


def test_single_user_schemes_coincide():
    # with exactly one user in the cell both schemes grant the whole budget;
    # one trial per chunk, so each tally is one trial's
    cfg = unit_cfg(lambda_u=1.0)
    single = [t for t in (run_trials_chunk(cfg, i, i + 1, 33) for i in range(400))
              if t.users == 1]
    assert len(single) > 100
    assert sum(t.law_ci for t in single) > 0
    for t in single:
        assert t.law_ci == t.law_inv
        assert t.persist_ci == t.persist_inv


def test_dense_centers_remove_field_randomness():
    # at psi = 50 the field sits at its peak essentially always, so almost no
    # outage is attributable to field randomness
    cfg = unit_cfg(psi=50.0)
    est = estimates_from_tally(cfg, run_trials_chunk(cfg, 0, 600, 17))
    assert est[Scheme.CHANNEL_INDEPENDENT].p_energy_random < 2e-3
    assert est[Scheme.INVERSION].p_energy_random < 2e-3


def test_peak_power_monotonicity_paired():
    # raising the peak field with shared draws can only shrink outage sets
    lo = unit_cfg(gamma=20.0)
    hi = unit_cfg(gamma=200.0)
    t_lo = run_trials_chunk(lo, 0, 300, 29)
    t_hi = run_trials_chunk(hi, 0, 300, 29)
    assert t_hi.users == t_lo.users
    assert t_hi.law_ci <= t_lo.law_ci
    assert t_hi.law_inv <= t_lo.law_inv
    assert t_hi.law_union <= t_lo.law_union


_TAGGED_STREAM = 2   # last key of a stream the engine does not draw from


def _tagged_outage_rate(cfg, start, stop, seed):
    """The tagged user's expected outage under equal split, averaged over
    trials [start, stop). Each trial's cell, the tagged user first and then
    a Poisson number of others, comes from a stream of the chunk's own that
    the engine does not use, and the field is integrated out by its law
    (_oracle_shortfall), as the engine integrates it."""
    supply = coverage._supply(cfg)
    window = supply.window
    rng = substream(seed, start, _TAGGED_STREAM)
    out = 0.0
    for t in range(start, stop):
        k = 1 + int(rng.poisson(cfg.mean_users_per_cell))
        pos = sample_in_hex_cell(hex_cell_circumradius(cfg.lambda_b), k, rng)
        fading = sample_fading(cfg.channel, rng, k)
        dist = np.maximum(np.hypot(pos[:1, 0], pos[:1, 1]), 1e-12)
        need = required_power(cfg.theta, dist, fading[:1], cfg.channel)
        out += _oracle_shortfall(cfg, window, supply, k * float(need[0]))
    return out / (stop - start)


def test_p_out_is_the_tagged_users_outage():
    # p_out counts every user of a Poisson number K per cell, E[out_K] / E[K],
    # which by the Poisson size-bias identity is the outage of a tagged user
    # sharing its cell with K others. Both sides integrate the field out, so
    # only their users differ; chunks are i.i.d., so their differences give
    # the standard error.
    cfg = unit_cfg(lambda_u=4.0)
    n_chunks, per_chunk, seed = 16, 400, 41
    gaps = []
    for c in range(n_chunks):
        a, b = c * per_chunk, (c + 1) * per_chunk
        est = estimates_from_tally(cfg, run_trials_chunk(cfg, a, b, seed))
        gaps.append(est[Scheme.CHANNEL_INDEPENDENT].p_out - _tagged_outage_rate(cfg, a, b, seed))
    gap = float(np.mean(gaps))
    se = float(np.std(gaps, ddof=1)) / math.sqrt(n_chunks)
    assert abs(gap) < 3.5 * se, f"p_out is not the tagged user's: gap={gap:.4f} se={se:.4f}"


def test_estimate_bookkeeping_matches_wilson():
    # a point on the centers path estimates p = sum Z / sum k from each
    # trial's Z = Y + G - C and reports Wilson's interval at its effective
    # users, from Z's per-trial moments, at the t quantile with n - 1 degrees
    # of freedom; here recomputed from one-trial tallies
    cfg = unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5))
    n = 200
    trials = [run_trials_chunk(cfg, t, t + 1, 77) for t in range(n)]
    tally = sum(trials, TrialTally())
    assert tally == run_trials_chunk(cfg, 0, n, 77)
    assert tally.drawn_trials == n - tally.zero_user_trials
    k = np.array([t.users for t in trials], dtype=float)

    def control(out, bound, law):
        return np.array([getattr(t, out) + getattr(t, law) / 2.0 ** 32 - getattr(t, bound)
                         for t in trials])

    for scheme, sums in ((Scheme.CHANNEL_INDEPENDENT, ("out_ci", "bound_ci", "law_ci")),
                         (Scheme.INVERSION, ("out_inv", "bound_inv", "law_inv"))):
        est = estimates_from_tally(cfg, tally)[scheme]
        z = control(*sums)
        p = z.sum() / k.sum()
        assert 0 < p < 1
        assert est.p_out == pytest.approx(p, rel=1e-12)
        assert est.n_outages == pytest.approx(z.sum(), rel=1e-12)
        var = ((z - p * k) ** 2).sum() / (n * (n - 1) * k.mean() ** 2)
        lo, hi = wilson_interval(p, p * (1 - p) / var, t_quantile_975(n - 1))
        # the lower end is at most G's rate less Wilson's upper limit on the
        # residual C - Y's
        g = sum(getattr(t, sums[2]) for t in trials) / 2.0 ** 32
        d = sum(getattr(t, sums[1]) - getattr(t, sums[0]) for t in trials)
        residual = g / k.sum() - wilson_ci(d, tally.users)[1]
        lo = max(0.0, min(lo, residual))
        assert est.ci_lo == pytest.approx(lo, rel=1e-6) and est.ci_hi == pytest.approx(hi, rel=1e-6)
        assert est.n_users == tally.users and est.n_trials == n
        assert not est.low_confidence
    union = control("union_trials", "bound_union", "law_union").sum() / n
    assert estimates_from_tally(cfg, tally)[Scheme.INVERSION].union_rate == \
        pytest.approx(union, rel=1e-12)
    few = estimates_from_tally(cfg, run_trials_chunk(cfg, 0, 3, 77))
    assert few[Scheme.CHANNEL_INDEPENDENT].low_confidence


def test_center_law_interval_is_wilson_at_the_effective_users():
    # a center-law point reports Wilson's interval at n_eff = p (1 - p) / var,
    # var the delta method's variance of sum e / sum k over its trials, at
    # the t quantile with n - 1 degrees of freedom; here recomputed from
    # one-trial tallies
    cfg = unit_cfg()
    n = 200
    trials = [run_trials_chunk(cfg, t, t + 1, 77) for t in range(n)]
    tally = sum(trials, TrialTally())
    for scheme, name in ((Scheme.CHANNEL_INDEPENDENT, "law_ci"), (Scheme.INVERSION, "law_inv")):
        est = estimates_from_tally(cfg, tally)[scheme]
        e = np.array([getattr(t, name) / 2.0 ** 32 for t in trials])
        k = np.array([t.users for t in trials], dtype=float)
        p = e.sum() / k.sum()
        assert est.p_out == pytest.approx(p, rel=1e-12)
        assert est.n_outages == getattr(tally, name) / 2.0 ** 32
        var = ((e - p * k) ** 2).sum() / (n * (n - 1) * k.mean() ** 2)
        lo, hi = wilson_interval(p, p * (1 - p) / var, t_quantile_975(n - 1))
        assert est.ci_lo == pytest.approx(lo, rel=1e-6) and est.ci_hi == pytest.approx(hi, rel=1e-6)
        # the field's spread integrated out, the interval is far narrower than
        # Wilson's at the users, and not capped there
        assert est.ci_halfwidth < 0.5 * np.diff(wilson_ci(est.n_outages, tally.users))[0] / 2
        assert not est.low_confidence
    inv = estimates_from_tally(cfg, tally)[Scheme.INVERSION]
    assert inv.union_rate == tally.law_union / 2.0 ** 32 / n


# A center-law tally of 5 trials and 500 users: 40 expected equal-split
# outages, spread over the trials.
_UNIT = 1 << 32
_SPREAD = TrialTally(trials=5, users=500, law_ci=40 * _UNIT, law_inv=30 * _UNIT,
                     law_union=2 * _UNIT, k_sq=60_000, sq_ci=400 * _UNIT,
                     sq_inv=200 * _UNIT, ek_ci=4_500 * _UNIT, ek_inv=3_300 * _UNIT)


@pytest.mark.parametrize("edit, low", [
    ({}, False),
    ({"trials": 1}, True),                          # one trial with users
    ({"trials": 9, "zero_user_trials": 8}, True),   # one of nine
    ({"law_ci": 0, "sq_ci": 0, "ek_ci": 0}, False),  # no expected outages
    ({"sq_ci": 384 * _UNIT, "ek_ci": 4_800 * _UNIT}, False),   # e = p k throughout
])
def test_center_law_interval_edge_rules(edit, low):
    # with fewer than 2 trials that have users, or outages without a spread,
    # a center-law point keeps Wilson's interval at its users; the former
    # sets low_confidence as well
    tally = replace(_SPREAD, **edit)
    est = estimates_from_tally(unit_cfg(), tally)[Scheme.CHANNEL_INDEPENDENT]
    wilson = wilson_ci(tally.law_ci / _UNIT, 500)
    assert ((est.ci_lo, est.ci_hi) == wilson) == bool(edit)
    assert est.low_confidence == low


def test_control_sum_below_zero_reads_as_no_outage():
    # on the centers path Z = Y + G - C may sum below zero where outages are
    # too rare for the run to resolve: the estimate reads no outage and keeps
    # Wilson's interval at the users, and a positive sum its effective users
    cfg = unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5))
    tally = replace(_SPREAD, drawn_trials=5, out_ci=1, bound_ci=3, law_ci=_UNIT, out_inv=0,
                    bound_inv=0, law_inv=0, union_trials=0, bound_union=1, law_union=0)
    ests = estimates_from_tally(cfg, tally)
    for est in ests.values():
        assert est.p_out == est.n_outages == est.p_energy_random == 0.0
        assert (est.ci_lo, est.ci_hi) == wilson_ci(0, 500)
    assert ests[Scheme.INVERSION].union_rate == 0.0
    tally = replace(tally, law_ci=3 * _UNIT)
    est = estimates_from_tally(cfg, tally)[Scheme.CHANNEL_INDEPENDENT]
    assert est.n_outages == 1.0 and (est.ci_lo, est.ci_hi) != wilson_ci(1, 500)


def test_control_lower_end_allows_for_the_residual():
    # on the centers path p = g - d: the lower end is Z's own, or G's rate
    # less Wilson's upper limit at the users on the residual C - Y's where
    # that is lower, floored at 0; the estimate and the upper end are Z's
    cfg = unit_cfg(architecture=Distributed(lambda_h=2.0, lambda_a=0.5))
    ci = Scheme.CHANNEL_INDEPENDENT
    only = dict(drawn_trials=5, out_inv=0, bound_inv=0, law_inv=0, union_trials=0,
                bound_union=0, law_union=0)
    z = estimates_from_tally(cfg, _SPREAD)[ci]   # sum Z = 40 with the same moments
    lows = []
    for law, residual in ((40, 0), (100, 60), (240, 200)):
        est = estimates_from_tally(cfg, replace(_SPREAD, out_ci=3, bound_ci=3 + residual,
                                                law_ci=law * _UNIT, **only))[ci]
        assert (est.p_out, est.ci_hi) == (z.p_out, z.ci_hi)
        lows.append(law / 500 - wilson_ci(residual, 500)[1])
        assert est.ci_lo == min(z.ci_lo, lows[-1])
    assert lows[0] > z.ci_lo > lows[2] > 0
    # a run that drew no residual, where G's rate is below Wilson's upper
    # limit on none: Z's own lower end is above 0
    assert estimates_from_tally(cfg, replace(_SPREAD, law_ci=2 * _UNIT))[ci].ci_lo > 0
    est = estimates_from_tally(cfg, replace(_SPREAD, out_ci=0, bound_ci=0, law_ci=2 * _UNIT,
                                            **only))[ci]
    assert est.p_out == 2 / 500 and est.ci_lo == 0.0


def test_bound_attachment_dispatch():
    # on-site, exponential kernel, chi-squared fading of order 2: everything
    keys = set(bound_values(unit_cfg(fading=ChiSquaredFading(2)),
                            Scheme.CHANNEL_INDEPENDENT))
    assert keys == {"energy_shortfall", "max_power_markov", "total", "tail_total"}
    # order 1 has no finite mean inverse and no tail moments
    assert bound_values(unit_cfg(fading=ChiSquaredFading(1)),
                        Scheme.CHANNEL_INDEPENDENT) == {}
    # truncated Rician: no diversity order, so no tail term
    keys = set(bound_values(unit_cfg(fading=TruncatedRicianFading(0.1)),
                            Scheme.CHANNEL_INDEPENDENT))
    assert keys == {"energy_shortfall", "max_power_markov", "total"}
    # power-law kernel
    assert set(bound_values(unit_cfg(kernel=Kernel.BOOLEAN_MAX_PLAW,
                                     fading=ChiSquaredFading(2)),
                            Scheme.CHANNEL_INDEPENDENT)) == {"power_law_total"}
    assert bound_values(unit_cfg(kernel=Kernel.BOOLEAN_MAX_PLAW,
                                 fading=TruncatedRicianFading(0.1)),
                        Scheme.CHANNEL_INDEPENDENT) == {}
    # shot-noise kernel has no closed-form law
    assert bound_values(unit_cfg(kernel=Kernel.SHOT_NOISE_EXP),
                        Scheme.CHANNEL_INDEPENDENT) == {}
    # distributed: the aggregated bound only
    dcfg = unit_cfg(fading=ChiSquaredFading(2),
                    architecture=Distributed(lambda_h=2.0, lambda_a=0.5))
    assert set(bound_values(dcfg, Scheme.CHANNEL_INDEPENDENT)) == {"aggregated"}


def test_tail_bound_scheme_dependence():
    cfg = unit_cfg(fading=ChiSquaredFading(2), lambda_u=10.0)
    ci = bound_values(cfg, Scheme.CHANNEL_INDEPENDENT)["tail_total"]
    inv = bound_values(cfg, Scheme.INVERSION)["tail_total"]
    assert inv < ci


def test_distributed_lossless_certifies_full_efficiency():
    lossless = unit_cfg(fading=ChiSquaredFading(2),
                        architecture=Distributed(lambda_h=2.0, lambda_a=0.5,
                                                 line=LineSpec(voltage=math.inf)))
    lossy = unit_cfg(fading=ChiSquaredFading(2),
                     architecture=Distributed(lambda_h=2.0, lambda_a=0.5,
                                              line=LineSpec(tau=0.8)))
    b_lossless = bound_values(lossless, Scheme.CHANNEL_INDEPENDENT)["aggregated"]
    b_lossy = bound_values(lossy, Scheme.CHANNEL_INDEPENDENT)["aggregated"]
    assert b_lossless == pytest.approx(0.8 * b_lossy, rel=1e-12)


def test_zero_user_accounting():
    cfg = unit_cfg(lambda_u=0.5)  # mean half a user per cell
    tally = run_trials_chunk(cfg, 0, 500, 13)
    assert tally.trials == 500
    assert 0 < tally.zero_user_trials < 500
    assert tally.users > 0
    # passes in which no cell has a user leave every count but the trials at 0
    empty = run_trials_chunk(unit_cfg(lambda_u=1e-9), 0, 500, 13)
    assert empty == TrialTally(trials=500, zero_user_trials=500)
