"""Trial engine: tallies, scheme ordering, pairing, reproducibility."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from renergy import coverage
from renergy.aggregation import Distributed, LineSpec, build_clusters
from renergy.channel import (ChannelSpec, ChiSquaredFading, TruncatedRicianFading,
                             required_power)
from renergy.coverage import (ScenarioConfig, Scheme, TrialTally, bound_values,
                              estimates_from_tally, resolve_window, run_trials_chunk)
from renergy.energy_field import EnergyFieldSpec, FieldRealization, Kernel, field_values
from renergy.geometry import BLOCK, PointSet, hex_pitch, substream
from renergy.stats import wilson_ci


def unit_cfg(gamma=20.0, psi=0.05, lambda_u=10.0, kernel=Kernel.BOOLEAN_MAX_EXP,
             fading=None, **kw):
    return ScenarioConfig(
        field=EnergyFieldSpec(gamma=gamma, lambda_e=psi, nu=1.0, kernel=kernel),
        channel=ChannelSpec.normalized(fading=fading),
        lambda_b=1.0, lambda_u=lambda_u, theta=8.0, **kw)


def test_scenario_validation():
    with pytest.raises(ValueError):
        unit_cfg(eta=0.0)
    with pytest.raises(ValueError):
        unit_cfg(estimator="typical")
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
}
_SPLIT_TRIALS, _SPLIT_SEED = 600, 19


def _split_tally(cfg, cuts):
    edges = [0, *sorted(cuts), _SPLIT_TRIALS]
    return sum((run_trials_chunk(cfg, a, b, _SPLIT_SEED) for a, b in zip(edges, edges[1:])),
               TrialTally())


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_tallies_do_not_depend_on_chunk_edges(case):
    # 600 trials are blocks [0, 256), [256, 512) and part of [512, 768)
    cfg = _SPLIT_CASES[case]
    whole = run_trials_chunk(cfg, 0, _SPLIT_TRIALS, _SPLIT_SEED)
    assert whole.out_inv > 0 and whole.out_ci > whole.out_inv
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


_MEMO_CASES = {
    f"{arch}-{estimator}": unit_cfg(estimator=estimator, **kw)
    for arch, kw in (("onsite", {}),
                     ("distributed", {"architecture": Distributed(lambda_h=2.0,
                                                                  lambda_a=0.5)}))
    for estimator in ("user_weighted", "palm")
}


@pytest.mark.parametrize("case", sorted(_MEMO_CASES))
def test_consecutive_chunks_draw_each_block_once(monkeypatch, case):
    # run_trials_chunk looks substream and _tally_block up in coverage's globals
    drawn, passes = [], []
    tally_block = coverage._tally_block

    def counting_substream(seed, block):
        drawn.append(block)
        return substream(seed, block)

    def recording_tally_block(cfg, supply, draws, lo, hi, *rest):
        passes.append(hi - lo)
        tally_block(cfg, supply, draws, lo, hi, *rest)

    monkeypatch.setattr(coverage, "substream", counting_substream)
    monkeypatch.setattr(coverage, "_tally_block", recording_tally_block)
    coverage._cut_block.cache_clear()
    cfg = _MEMO_CASES[case]
    n = 8 * BLOCK
    chunks = [run_trials_chunk(cfg, a, min(a + 200, n), 31) for a in range(0, n, 200)]
    assert drawn == list(range(8))   # cutting the run at 200s drew 18 blocks
    # a chunk across a block edge is one pass over the tail and the head
    assert passes == [200] * 10 + [48]
    del drawn[:], passes[:]
    memo = coverage._cut_block.cache_info()
    whole = run_trials_chunk(cfg, 0, n, 31)
    assert drawn == list(range(8)) and passes == [BLOCK] * 8
    assert coverage._cut_block.cache_info() == memo   # whole blocks bypass it
    assert sum(chunks, TrialTally()) == whole


def test_cut_block_memo_is_read_only_and_keyed():
    cfg = unit_cfg()
    draws = coverage._cut_block(cfg, resolve_window(cfg), 3, 1)
    for a in (draws.users, draws.offsets, draws.positions, draws.fading,
              draws.field.counts, draws.field.centers.points):
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


def _oracle_tally(cfg, start, stop, seed):
    """Scalar reference engine: the engine's drawn blocks, evaluated trial by
    trial with np.sort, np.cumsum and searchsorted, as the per-trial loop the
    block engine replaced did."""
    window = resolve_window(cfg)
    supply = coverage._supply(cfg, window)
    peak = supply.peak_station_power
    blocks = {}
    tally = TrialTally()
    clamp_box = [0]
    for t in range(start, stop):
        b, i = divmod(t, BLOCK)
        if b not in blocks:
            blocks[b] = coverage._draw_block(cfg, window, seed, b)
        draws = blocks[b]
        counts = draws.field.counts
        c0 = int(counts[:i].sum())
        centers = PointSet(draws.field.centers.points[c0:c0 + counts[i]])
        budgets = cfg.eta * field_values(FieldRealization(cfg.field, centers, window),
                                         supply.positions)
        power = float(supply.station_power(budgets)[0])
        k = int(draws.users[i])
        tally.trials += 1
        if k == 0:
            tally.zero_user_trials += 1
            continue
        tally.users += k
        u = slice(int(draws.offsets[i]), int(draws.offsets[i]) + k)
        pos = draws.positions[u]
        dist = np.maximum(np.hypot(pos[:, 0], pos[:, 1]), 1e-12)
        need = required_power(cfg.theta, dist, draws.fading[u], cfg.channel, clamp_box)
        tally.out_ci += int(np.count_nonzero(need > power / k))
        tally.persist_ci += int(np.count_nonzero(need > peak / k))
        csum = np.cumsum(np.sort(need))
        tally.out_inv += k - int(np.searchsorted(csum, power, side="right"))
        tally.persist_inv += k - int(np.searchsorted(csum, peak, side="right"))
        tally.union_trials += int(csum[-1] > power)
    tally.gain_clamps = clamp_box[0]
    return tally


_ORACLE_SUPPLIES = {
    "onsite": {},
    "onsite_flat": {"wrap": False},
    "exact_voltage": {"architecture": Distributed(
        lambda_h=2.0, lambda_a=0.5, line=LineSpec(voltage=3.0))},
    "rule_voltage": {"architecture": Distributed(lambda_h=2.0, lambda_a=0.5)},
    "tau_floor": {"architecture": Distributed(
        lambda_h=2.0, lambda_a=0.5, line=LineSpec(mode="tau_floor"))},
}


@settings(max_examples=30, deadline=None)
@given(kernel=st.sampled_from(list(Kernel)),
       fading=st.sampled_from([ChiSquaredFading(1), ChiSquaredFading(2),
                               TruncatedRicianFading(0.1)]),
       estimator=st.sampled_from(["user_weighted", "palm"]),
       supply=st.sampled_from(sorted(_ORACLE_SUPPLIES)),
       psi=st.sampled_from([0.05, 0.5]), lambda_u=st.sampled_from([0.5, 10.0]),
       ref_dist=st.sampled_from([1.0, 3.0]),
       start=st.integers(0, 700), length=st.integers(0, 400),
       seed=st.integers(0, 2**32))
@example(kernel=Kernel.BOOLEAN_MAX_EXP, fading=ChiSquaredFading(1),
         estimator="user_weighted", supply="onsite", psi=0.05, lambda_u=10.0,
         ref_dist=3.0, start=200, length=400, seed=3)
def test_block_engine_matches_scalar_oracle(kernel, fading, estimator, supply, psi,
                                            lambda_u, ref_dist, start, length, seed):
    # lambda_u 0.5 leaves most cells empty; ref_dist 3 puts a user inside the
    # path-gain clamp radius every few dozen trials
    cfg = unit_cfg(psi=psi, lambda_u=lambda_u, kernel=kernel, fading=fading,
                   estimator=estimator, **_ORACLE_SUPPLIES[supply])
    cfg = replace(cfg, channel=replace(cfg.channel, ref_dist=ref_dist))
    stop = start + length
    assert run_trials_chunk(cfg, start, stop, seed) == _oracle_tally(cfg, start, stop, seed)


def test_oracle_sees_clamps_and_both_outage_kinds():
    # the explicit example of the oracle property exercises every outage field
    cfg = unit_cfg(fading=ChiSquaredFading(1))
    cfg = replace(cfg, channel=replace(cfg.channel, ref_dist=3.0))
    tally = _oracle_tally(cfg, 200, 600, 3)
    assert tally.gain_clamps > 0 and tally.union_trials > 0
    assert tally.out_ci > tally.out_inv > 0
    assert tally.persist_ci > tally.persist_inv > 0


def test_chunks_reproducible_and_seed_sensitive():
    cfg = unit_cfg()
    a = run_trials_chunk(cfg, 0, 150, 5)
    b = run_trials_chunk(cfg, 0, 150, 5)
    c = run_trials_chunk(cfg, 0, 150, 6)
    assert a == b
    assert a != c


def test_inversion_never_worse_than_equal_split():
    tally = run_trials_chunk(unit_cfg(), 0, 400, 11)
    assert tally.out_inv <= tally.out_ci
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
    assert tally.out_inv <= tally.out_ci
    assert tally.persist_inv <= tally.persist_ci


def test_union_event_equals_total_demand_exceedance():
    # under inversion, some user is uncovered exactly when the total demand
    # exceeds the budget, so per-trial the two events coincide
    cfg = unit_cfg()
    for t in range(120):
        tally = run_trials_chunk(cfg, t, t + 1, 202)
        if tally.users == 0:
            assert tally.union_trials == 0
            continue
        assert (tally.out_inv > 0) == (tally.union_trials == 1)


def test_single_user_schemes_coincide():
    # with exactly one user per cell both schemes grant the whole budget
    cfg = unit_cfg(lambda_u=1e-9, estimator="palm")
    tally = run_trials_chunk(cfg, 0, 400, 33)
    assert tally.users == tally.trials  # palm: one deterministic user
    assert tally.out_ci == tally.out_inv
    assert tally.persist_ci == tally.persist_inv


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
    assert t_hi.out_ci <= t_lo.out_ci
    assert t_hi.out_inv <= t_lo.out_inv
    assert t_hi.union_trials <= t_lo.union_trials


def test_estimator_variants_agree():
    # counting all users of a random cell population and conditioning on a
    # deterministic extra user estimate the same per-user probability. Users
    # sharing a trial see the same field, so per-user Wilson intervals
    # understate the spread; compare with chunk-level standard errors instead.
    base = unit_cfg(lambda_u=4.0)
    palm = replace(base, estimator="palm")
    n_chunks, per_chunk = 16, 400
    ps = {}
    for name, cfg, seed in (("uw", base, 41), ("palm", palm, 42)):
        vals = []
        for c in range(n_chunks):
            t = run_trials_chunk(cfg, c * per_chunk, (c + 1) * per_chunk, seed)
            vals.append(t.out_ci / t.users)
        ps[name] = np.asarray(vals)
    gap = abs(ps["uw"].mean() - ps["palm"].mean())
    se = math.sqrt(ps["uw"].var(ddof=1) / n_chunks + ps["palm"].var(ddof=1) / n_chunks)
    assert gap < 3.5 * se, f"estimators disagree: gap={gap:.4f} se={se:.4f}"


def test_estimate_bookkeeping_matches_wilson():
    cfg = unit_cfg()
    tally = run_trials_chunk(cfg, 0, 200, 77)
    est = estimates_from_tally(cfg, tally)[Scheme.CHANNEL_INDEPENDENT]
    assert est.p_out == pytest.approx(tally.out_ci / tally.users)
    lo, hi = wilson_ci(tally.out_ci, tally.users)
    assert est.ci_lo == pytest.approx(lo) and est.ci_hi == pytest.approx(hi)
    assert est.n_users == tally.users and est.n_trials == 200
    assert not est.low_confidence
    few = estimates_from_tally(cfg, run_trials_chunk(cfg, 0, 3, 77))
    assert few[Scheme.CHANNEL_INDEPENDENT].low_confidence


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
