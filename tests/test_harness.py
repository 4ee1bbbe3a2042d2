"""Config parsing, sweep orchestration, CSV output, and the stats helpers."""

import math
import os
import re
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from renergy import coverage, harness, stats
from renergy.aggregation import Distributed, LineSpec, clustered_window
from renergy.channel import ChannelSpec, ChiSquaredFading, TruncatedRicianFading
from renergy.coverage import (OnSite, ScenarioConfig, TrialTally, resolve_window,
                              run_trials_chunk)
from renergy.energy_field import EnergyFieldSpec, Kernel
from renergy.geometry import BLOCK, default_window_side, hex_cell_circumradius
from renergy.harness import (DEFAULT_SEED, SEED_ENV_VAR, ConfigError, ExperimentConfig,
                             _CSV_COLUMNS, apply_sweep, chunk_edges, effective_seed,
                             emit_csv, ks_statistic, load_config,
                             normalized_equivalent, parse_config_text,
                             row_record, run_point, run_sweep,
                             serialize_config, validate_field_law)
from renergy.stats import wilson_ci


def test_empty_config_gives_defaults():
    exp = load_config(None)
    assert exp == parse_config_text("")
    assert exp.scenario.field.gamma == 1000.0
    assert exp.scenario.field.lambda_e == 0.05
    assert exp.scenario.lambda_b == 0.78
    assert exp.scenario.channel.ref_loss_db == 70.0
    assert exp.n_trials == 20000
    assert exp.seed == DEFAULT_SEED == 1729
    assert exp.sweep_param is None and exp.sweep_values is None


def test_windows_without_a_full_aggregator_cell_are_rejected_at_parse():
    # hex_lattice cannot fill a window narrower than one aggregator cell:
    # the config names the keys that size both before any trial runs
    text = ("scenario.architecture = distributed\nnetwork.lambda_b = 0.25\n"
            "distributed.lambda_a = 0.25\ndistributed.lambda_h = 0.5\n")
    with pytest.raises(ConfigError, match="^scenario: .*aggregator cell.*"
                       "scenario.window_side or distributed.lambda_a"):
        parse_config_text(text + "scenario.window_side = 2\n")
    # a side of two aggregator pitches holds a cell
    parse_config_text(text + "scenario.window_side = 4.3\n")


def test_config_parsing_errors_name_the_key():
    with pytest.raises(ConfigError, match="field.gamma"):
        parse_config_text("field.gamma = fast\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("# fine\nbadsection.key = 1\n")
    with pytest.raises(ConfigError, match="run.trials"):
        parse_config_text("run.trials = 2.5\n")
    with pytest.raises(ConfigError):
        parse_config_text("scenario.wrap = maybe\n")
    # run and sweep always report both schemes, so there is no scheme key
    with pytest.raises(ConfigError, match="scenario.scheme"):
        parse_config_text("scenario.scheme = inversion\n")
    # run and sweep settings are checked by ExperimentConfig, every sweep value
    # before any trial runs
    for text, key in (("run.trials = 0", "run.trials"), ("run.workers = 0", "run.workers"),
                      ("run.seed = -1", "run.seed"),
                      ("sweep.param = theta\nsweep.values = ,", "sweep.values"),
                      ("sweep.values = 4", "sweep.param and sweep.values"),
                      ("sweep.param = theta\nsweep.values = 4, -1",
                       "sweep.values: theta=-1.0: scenario: theta"),
                      ("sweep.param = nonsense\nsweep.values = 1", "sweep.param")):
        with pytest.raises(ConfigError, match=f"^{key}"):
            parse_config_text(text + "\n")
    # comments, blank lines, and repeated keys (last wins) are accepted
    exp = parse_config_text("\n# c\nrun.seed = 1\nrun.seed = 7\n")
    assert exp.seed == 7
    # replace() is held to the file's rules: trials, seed and workers are
    # integers, and a bool is not one
    for name, key in (("n_trials", "run.trials"), ("seed", "run.seed"),
                      ("workers", "run.workers")):
        for bad in (300.0, True, False, "3"):
            with pytest.raises(ConfigError, match=f"^{key}: expected an integer"):
                replace(exp, **{name: bad})


def test_readme_matches_defaults_and_csv_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    ini = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config_text(ini) == load_config(None)
    columns = re.search(r"Fixed column order:\n\n```\n(.*?)```", readme, re.S).group(1)
    assert columns.replace(",", " ").split() == _CSV_COLUMNS


def test_config_roundtrip_default():
    exp = load_config(None)
    assert parse_config_text(serialize_config(exp)) == exp


def test_config_roundtrip_distributed_profile():
    text = """
    field.gamma = 12.5
    field.kernel = boolean_max_plaw
    channel.fading = chi_squared
    channel.omega = 3
    scenario.architecture = distributed
    distributed.lambda_h = 3.12
    distributed.lambda_a = 0.39
    distributed.voltage = lossless
    run.output = out/results.csv
    sweep.param = theta
    sweep.values = 2, 4, 8
    """
    exp = parse_config_text(text)
    arch = exp.scenario.architecture
    assert isinstance(arch, Distributed)
    assert arch.line.voltage == math.inf
    assert isinstance(exp.scenario.channel.fading, ChiSquaredFading)
    assert exp.scenario.field.kernel is Kernel.BOOLEAN_MAX_PLAW
    assert exp.sweep_values == (2.0, 4.0, 8.0)
    assert exp.output == "out/results.csv"
    assert parse_config_text(serialize_config(exp)) == exp


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


def _under_cap(per_unit: float, top: float) -> float:
    """Largest draw, at most top, whose product with per_unit keeps within
    ScenarioConfig's cap on centers, users and harvesters."""
    return min(top, coverage._BLOCK_VALUES_CAP / per_unit * (1.0 - 1e-9))


@st.composite
def experiments(draw):
    """ExperimentConfigs over both architectures, both fading laws, every
    kernel, auto and explicit window side and voltage, with and without a
    sweep."""
    gamma, nu, kernel = draw(_POSITIVE), draw(_POSITIVE), draw(st.sampled_from(Kernel))
    fading = draw(st.builds(ChiSquaredFading, st.integers(1, 8))
                  | st.builds(TruncatedRicianFading, st.floats(1e-3, 0.999)))
    channel = ChannelSpec(alpha=draw(st.floats(2.001, 8.0)),
                          ref_loss_db=draw(st.floats(-200.0, 200.0)),
                          ref_dist=draw(_POSITIVE), noise_dbm=draw(st.floats(-200.0, 200.0)),
                          fading=fading)
    lambda_b = draw(_POSITIVE)
    window_side = draw(st.none() | _POSITIVE)
    distributed = draw(st.booleans())
    architecture = OnSite()
    if distributed:
        lambda_a = lambda_b / draw(st.integers(1, 8))
        line = LineSpec(beta=draw(_POSITIVE), tau=draw(st.floats(0.01, 0.99)),
                        voltage=draw(st.none() | _POSITIVE | st.just(math.inf)),
                        mode=draw(st.sampled_from(("exact", "tau_floor"))))
        side = window_side if window_side is not None else default_window_side(lambda_b, nu)
        window = clustered_window(lambda_a, side)  # resolve_window's distributed arena
        # the window holds one full aggregator cell, as hex_lattice needs
        cell = 2 * hex_cell_circumradius(lambda_a)
        assume(window.width >= cell and window.height >= cell)
        area = window.area
        most = _under_cap(lambda_a * area, 400.0)
        assume(most >= 1.0)  # the aggregator lattice alone exceeds the cap
        architecture = Distributed(lambda_h=lambda_a * draw(st.floats(1.0, most)),
                                   lambda_a=lambda_a, line=line)
    # lambda_e is drawn once the window is known: over [1e-3, 1e3], but never
    # past the cap on a block's expected centers in that window
    scenario = ScenarioConfig(field=EnergyFieldSpec(gamma=gamma, lambda_e=1e-3, nu=nu,
                                                    kernel=kernel),
                              channel=channel, lambda_b=lambda_b,
                              lambda_u=lambda_b * draw(_POSITIVE), theta=draw(_POSITIVE),
                              eta=draw(st.floats(0.01, 1.0)), architecture=architecture,
                              wrap=distributed or draw(st.booleans()),
                              window_side=window_side)
    area = resolve_window(scenario).area
    lambda_e = draw(st.floats(1e-3, _under_cap(BLOCK * area, 1e3)))
    scenario = replace(scenario, field=replace(scenario.field, lambda_e=lambda_e))
    sweep = draw(st.none() | st.tuples(
        st.sampled_from(("psi", "gamma", "gamma_eta", "lambda_e", "theta", "lambda_u", "eta")),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4).map(tuple)))
    param, values = sweep or (None, None)
    if param in ("psi", "lambda_e"):
        # a sweep point must keep the block within the cap too
        top = max(values) / (nu if param == "psi" else 1.0)
        assume(BLOCK * top * area <= coverage._BLOCK_VALUES_CAP)
    return ExperimentConfig(scenario=scenario, n_trials=draw(st.integers(1, 10**7)),
                            seed=draw(st.integers(0, 2**63)), workers=draw(st.integers(1, 64)),
                            output=draw(st.none() | st.from_regex(r"[\w./-]+", fullmatch=True)),
                            sweep_param=param, sweep_values=values)


@settings(max_examples=200, deadline=None)
@given(experiments())
def test_config_roundtrip_property(exp):
    assert parse_config_text(serialize_config(exp)) == exp


def test_apply_sweep_parameters():
    # every sweep point is its scenario's config with one setting edited; psi,
    # gamma_eta and cluster_size set lambda_e, gamma and lambda_a from the
    # other settings
    onsite = parse_config_text("field.nu = 4\nnetwork.eta = 0.5\n").scenario
    dist = parse_config_text("field.nu = 4\nnetwork.eta = 0.5\n"
                             "scenario.architecture = distributed\n").scenario
    edits = [("psi", 0.8, "field.lambda_e", 0.8 / 4.0),
             ("gamma_eta", 300.0, "field.gamma", 300.0 / 0.5),
             ("gamma", 50.0, "field.gamma", 50.0),
             ("lambda_e", 0.1, "field.lambda_e", 0.1),
             ("theta", 2.0, "network.theta", 2.0),
             ("lambda_u", 3.0, "network.lambda_u", 3.0),
             ("lambda_b", 1.56, "network.lambda_b", 1.56),
             ("eta", 0.25, "network.eta", 0.25),
             ("cluster_size", 40.0, "distributed.lambda_a", 15.6 / 40.0),
             ("lambda_h", 31.2, "distributed.lambda_h", 31.2),
             ("voltage", 5000.0, "distributed.voltage", 5000.0)]
    for base in (onsite, dist):
        text = serialize_config(ExperimentConfig(base))
        for param, value, key, setting in edits:
            if base is onsite and key.startswith("distributed."):
                with pytest.raises(ConfigError, match=f"^sweep.param: {param!r} needs"):
                    apply_sweep(base, param, value)
            else:
                expected = parse_config_text(f"{text}{key} = {setting!r}\n").scenario
                assert apply_sweep(base, param, value) == expected, param
    arch = apply_sweep(dist, "cluster_size", 40.0).architecture
    assert arch.lambda_h / arch.lambda_a == pytest.approx(40.0)
    with pytest.raises(ConfigError, match="^sweep.param: unknown"):
        apply_sweep(onsite, "nonsense", 1.0)


def test_effective_seed_precedence(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert effective_seed(42) == 42
    monkeypatch.setenv(SEED_ENV_VAR, "101")
    assert effective_seed(42) == 101
    assert effective_seed(42, override=7) == 7
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
    with pytest.raises(ConfigError, match=SEED_ENV_VAR):
        effective_seed(42)


def test_run_point_worker_invariance():
    # 600 trials are three blocks, so two workers split them over a pool
    scenario = load_config(None).scenario
    t1 = run_point(scenario, 600, 77, workers=1)
    t2 = run_point(scenario, 600, 77, workers=2)
    assert t1 == t2
    assert t1.trials == 600 and t1.cross > 0


def test_run_point_without_sched_getaffinity(monkeypatch):
    # platforms without os.sched_getaffinity count the machine's CPUs instead
    monkeypatch.delattr(os, "sched_getaffinity")
    scenario = load_config(None).scenario
    assert run_point(scenario, 600, 77, workers=1) == run_point(scenario, 600, 77, workers=2)


def test_run_sweep_csv_worker_invariance_with_one_pool(monkeypatch, tmp_path):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    exp = parse_config_text("sweep.param = psi\nsweep.values = 0.05, 0.1, 0.2, 0.35\n"
                            "run.trials = 600\nrun.seed = 12\n")
    csvs = []
    for workers in (1, 2):
        pools.clear()
        rows = run_sweep(replace(exp, workers=workers))
        assert len(pools) == (workers > 1)
        csvs.append(emit_csv(rows, tmp_path / f"w{workers}.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config", [
    "sweep.param = psi\nsweep.values = 0.05, 0.2, 0.5\n",
    "scenario.architecture = distributed\nsweep.param = cluster_size\nsweep.values = 20, 80\n",
], ids=["onsite_psi", "distributed_cluster_size"])
def test_fused_sweep_rows_equal_points_run_alone(tmp_path, config, workers):
    exp = replace(parse_config_text(config + "run.trials = 600\nrun.seed = 12\n"),
                  workers=workers)
    scenarios = [apply_sweep(exp.scenario, exp.sweep_param, v) for v in exp.sweep_values]
    assert len({s.user_settings for s in scenarios}) == 1   # one group
    fused = emit_csv(run_sweep(exp), tmp_path / "fused.csv").read_text().splitlines()
    alone = [emit_csv(run_sweep(replace(exp, sweep_values=(v,))),
                      tmp_path / f"alone-{i}.csv").read_text().splitlines()
             for i, v in enumerate(exp.sweep_values)]
    assert fused == alone[0][:1] + [row for lines in alone for row in lines[1:]]


class ChunkFailure(RuntimeError):
    pass


_CHUNK_LOG = "RENERGY_TEST_CHUNK_LOG"


def _failing_group(scenarios, start, stop, seed):
    """Stands in for harness.run_group_chunk in pool workers: logs each
    call's scenarios, fails every chunk at theta 4 and takes a while at other
    values. A theta sweep runs one group per point."""
    with open(os.environ[_CHUNK_LOG], "a", encoding="utf-8") as fh:
        fh.writelines(f"{scenario.theta}\n" for scenario in scenarios)
    if any(scenario.theta == 4.0 for scenario in scenarios):
        raise ChunkFailure(f"chunk [{start}, {stop}) at theta 4")
    time.sleep(0.2)
    return [TrialTally(trials=stop - start) for _ in scenarios]


def test_run_sweep_fails_fast_on_a_worker_error(monkeypatch, tmp_path):
    log = tmp_path / "chunks.log"
    monkeypatch.setenv(_CHUNK_LOG, str(log))
    monkeypatch.setattr(harness, "run_group_chunk", _failing_group)
    exp = parse_config_text("sweep.param = theta\nsweep.values = 4, 8, 16, 32\n"
                            "run.trials = 1024\nrun.workers = 2\n")
    assert chunk_edges(1024, 4) == [0, 256, 512, 768, 1024]
    with pytest.raises(ChunkFailure, match="at theta 4"):
        run_sweep(exp)
    # the queued chunks were cancelled: the last point never started
    ran = log.read_text(encoding="utf-8").split()
    assert "4.0" in ran and "32.0" not in ran


@pytest.mark.parametrize("n_trials, parts", [(20000, 4), (400, 16), (600, 4), (160, 4),
                                             (256, 2), (257, 2), (1, 3), (5000, 7)])
def test_chunk_edges_cut_at_blocks_and_draw_each_block_once(n_trials, parts):
    edges = chunk_edges(n_trials, parts)
    assert edges[0] == 0 and edges[-1] == n_trials
    assert all(a < b for a, b in zip(edges, edges[1:]))
    assert all(e % BLOCK == 0 for e in edges[:-1])
    assert len(edges) - 1 <= parts
    blocks = [b for a, e in zip(edges, edges[1:]) for b in range(a // BLOCK, -(-e // BLOCK))]
    assert sorted(blocks) == list(range(-(-n_trials // BLOCK)))


def test_run_point_merges_block_chunks_exactly():
    # 700 trials at 2 workers: three chunks, one per block
    scenario = load_config(None).scenario
    assert chunk_edges(700, 4) == [0, 256, 512, 700]
    assert run_point(scenario, 700, 78, workers=2) == run_trials_chunk(scenario, 0, 700, 78)


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    sizes, submits = [], []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records its size and its
        chunks, and runs each chunk as it is submitted, starting no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            submits.append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    scenario = load_config(None).scenario
    # 4096 workers on 3 CPUs cut 8 blocks into the 6 chunks of 3 workers, not
    # into 8 one-block chunks, run by no more processes than CPUs
    n = 8 * BLOCK
    assert len(chunk_edges(n, 2 * 4096)) == 9
    assert run_point(scenario, n, 5, workers=4096) == run_trials_chunk(scenario, 0, n, 5)
    assert sizes == [3] and len(submits) <= 6
    submits.clear()
    assert run_point(scenario, n, 5, workers=2) == run_trials_chunk(scenario, 0, n, 5)
    assert sizes == [3, 2] and len(submits) == 4


def test_run_sweep_row_structure():
    exp = parse_config_text(
        "sweep.param = theta\nsweep.values = 4, 8\nrun.trials = 60\nrun.seed = 9\n")
    rows = run_sweep(exp)
    assert len(rows) == 4
    assert [r.sweep_value for r in rows] == [4.0, 4.0, 8.0, 8.0]
    schemes = {(r.sweep_value, r.scheme) for r in rows}
    assert len(schemes) == 4
    for row in rows:
        assert row.estimate.scheme is row.scheme
        assert row.scenario.theta == row.sweep_value
        assert row.n_trials == 60 and row.seed == 9
        assert row.wall_time > 0.0


def test_run_sweep_without_param_is_single_point():
    exp = parse_config_text("run.trials = 50\nrun.seed = 4\n")
    rows = run_sweep(exp)
    assert len(rows) == 2
    assert all(r.sweep_param is None and r.sweep_value is None for r in rows)


def test_emit_csv_deterministic_and_complete(tmp_path):
    exp = parse_config_text(
        "sweep.param = theta\nsweep.values = 4, 8\nrun.trials = 40\nrun.seed = 2\n")
    rows = run_sweep(exp)
    p1 = emit_csv(rows, tmp_path / "a.csv")
    p2 = emit_csv(run_sweep(exp), tmp_path / "b.csv")
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == ",".join(_CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    plot = tmp_path / "a.csv.plot.py"
    assert plot.exists()
    compile(plot.read_text(), str(plot), "exec")


def test_row_record_float_fidelity():
    exp = parse_config_text(
        "field.gamma = 10\nscenario.architecture = distributed\n"
        "distributed.voltage = lossless\nrun.trials = 40\nrun.seed = 3\n")
    rows = run_sweep(exp)
    rec = row_record(rows[0])
    est = rows[0].estimate
    # %.17g preserves doubles exactly through the text round trip
    assert float(rec["p_out"]) == est.p_out
    assert float(rec["ci_lo"]) == est.ci_lo
    assert float(rec["ci_hi"]) == est.ci_hi
    assert rec["voltage"] == "inf"
    assert rec["architecture"] == "distributed"
    assert rec["sweep_param"] == "" and rec["sweep_value"] == ""
    assert "wall_time" not in rec
    # every scenario column, as text, pinned for three profiles
    columns = _CSV_COLUMNS[_CSV_COLUMNS.index("kernel"):_CSV_COLUMNS.index("window_side") + 1]
    shared = {"lambda_e": "0.050000000000000003", "nu": "1", "psi": "0.050000000000000003",
              "alpha": "4", "ref_loss_db": "70", "ref_dist": "0.10000000000000001",
              "noise_dbm": "-90", "lambda_b": "0.78000000000000003",
              "lambda_u": "7.7999999999999998", "theta": "8", "eta": "1"}
    onsite = {"fading": "truncated_rician", "fading_param": "0.10000000000000001",
              "architecture": "onsite", "lambda_h": "", "lambda_a": "", "tau": "",
              "beta": "", "voltage": "", "line_mode": ""}
    pinned = [
        ("scenario.architecture = distributed\n"
         "distributed.mode = tau_floor\nchannel.fading = chi_squared\n"
         "channel.omega = 3\nfield.gamma = 10\n",
         {"kernel": "boolean_max_exp", "gamma": "10", "fading": "chi_squared",
          "fading_param": "3", "architecture": "distributed", "lambda_h": "15.6",
          "lambda_a": "0.78000000000000003", "tau": "0.90000000000000002", "beta": "1",
          "voltage": "auto", "line_mode": "tau_floor", "wrap": "true",
          "window_side": "12.167108553861205"}),
        ("field.kernel = boolean_max_plaw\nscenario.wrap = false\n"
         "scenario.window_side = 14\n",
         {"kernel": "boolean_max_plaw", "gamma": "1000", **onsite, "wrap": "false",
          "window_side": "24"}),
        ("",
         {"kernel": "boolean_max_exp", "gamma": "1000", **onsite, "wrap": "true",
          "window_side": "11.322770341445958"}),
    ]
    for text, expected in pinned:
        rec = row_record(run_sweep(parse_config_text(text + "run.trials = 20\n"))[0])
        assert {col: rec[col] for col in columns} == {**shared, **expected}


def test_wilson_ci_reference_values():
    lo, hi = wilson_ci(50, 100)
    assert lo == pytest.approx(0.40383153036599563, rel=1e-12)
    assert hi == pytest.approx(0.59616846963400437, rel=1e-12)
    assert wilson_ci(0, 100)[0] == 0.0
    assert wilson_ci(100, 100)[1] == 1.0
    assert wilson_ci(0, 100)[1] < 0.05
    with pytest.raises(ValueError):
        wilson_ci(1, 0)
    with pytest.raises(ValueError):
        wilson_ci(5, 4)


def test_ks_statistic_behaviour():
    rng = np.random.default_rng(8)
    u = rng.uniform(size=5000)
    ident = lambda x: x
    res = ks_statistic(u, ident)
    assert res.passed and res.n == 5000
    assert res.critical == pytest.approx(1.6276 / math.sqrt(5000), rel=1e-3)
    # squared uniforms follow a sqrt law, which the identity CDF rejects
    assert not ks_statistic(u ** 2, ident).passed
    with pytest.raises(ValueError):
        ks_statistic(u[:50], ident)
    with pytest.raises(ValueError):
        ks_statistic(u, lambda x: x * 2.0)


def test_wilson_z_matches_scipy_normal_quantile():
    assert stats._Z95 == float(scipy.stats.norm.ppf(0.975))


def test_t_quantile_matches_scipy():
    # exact at 1 and 2 degrees of freedom; the series never exceeds the
    # quantile, and closes in on it as the degrees grow
    for dof, rel in ((1, 1e-14), (2, 1e-14), (3, 1.3e-3), (10, 4e-6), (50, 1e-8), (399, 1e-13),
                     (10 ** 6, 1e-15)):
        exact = float(scipy.stats.t.ppf(0.975, dof))
        assert stats.t_quantile_975(dof) == pytest.approx(exact, rel=rel)
        assert stats.t_quantile_975(dof) <= exact * (1 + 1e-15)
    with pytest.raises(ValueError):
        stats.t_quantile_975(0)


def test_kolmogorov_critical_value_matches_scipy():
    # levels on both sides of x = 1, where the survival series switches form
    for level in (1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.5, 0.9):
        assert stats._kolmogorov_isf(level) == pytest.approx(
            float(scipy.stats.kstwobign.isf(level)), rel=0, abs=1e-12)
    u = np.random.default_rng(8).uniform(size=400)
    assert ks_statistic(u, lambda x: x, level=0.05).critical == pytest.approx(
        float(scipy.stats.kstwobign.isf(0.05)) / 20.0, rel=1e-14)


def test_validate_field_law_smoke():
    spec = load_config(None).scenario.field
    res = validate_field_law(spec, 2000, 31)
    assert res.passed
    shot = replace(spec, kernel=Kernel.SHOT_NOISE_EXP)
    with pytest.raises(ValueError):
        validate_field_law(shot, 500, 31)


def test_normalized_equivalent_matches_physical():
    scenario = load_config(None).scenario
    norm = normalized_equivalent(scenario)
    assert norm.lambda_b == 1.0 and norm.eta == 1.0
    assert norm.field.nu == pytest.approx(scenario.field.nu * scenario.lambda_b)
    assert norm.field.lambda_e == pytest.approx(
        scenario.field.lambda_e / scenario.lambda_b)
    assert norm.field.gamma == pytest.approx(6084.0, rel=1e-12)
    t_phys = run_trials_chunk(scenario, 0, 200, 2024)
    t_norm = run_trials_chunk(norm, 0, 200, 2024)
    assert t_phys == t_norm
    dist = replace(scenario, architecture=Distributed(lambda_h=15.6, lambda_a=0.78))
    with pytest.raises(ValueError):
        normalized_equivalent(dist)
