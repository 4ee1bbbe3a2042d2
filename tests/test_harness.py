"""Config parsing, sweep orchestration, CSV output, and the stats helpers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from renergy.aggregation import Distributed
from renergy.channel import ChiSquaredFading
from renergy.coverage import run_trials_chunk
from renergy.energy_field import Kernel
from renergy.harness import (DEFAULT_SEED, SEED_ENV_VAR, ConfigError,
                             _CSV_COLUMNS, apply_sweep, effective_seed,
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
    # comments, blank lines, and repeated keys (last wins) are accepted
    exp = parse_config_text("\n# c\nrun.seed = 1\nrun.seed = 7\n")
    assert exp.seed == 7


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


def test_apply_sweep_parameters():
    base = load_config(None).scenario
    nu4 = replace(base, field=replace(base.field, nu=4.0))
    assert apply_sweep(nu4, "psi", 0.8).field.lambda_e == pytest.approx(0.2)
    half_eta = replace(base, eta=0.5)
    swept = apply_sweep(half_eta, "gamma_eta", 300.0)
    assert swept.field.gamma * swept.eta == pytest.approx(300.0)
    assert apply_sweep(base, "theta", 2.0).theta == 2.0
    assert apply_sweep(base, "lambda_u", 3.0).lambda_u == 3.0
    dist = replace(base, architecture=Distributed(lambda_h=15.6, lambda_a=0.78))
    swept = apply_sweep(dist, "cluster_size", 40.0)
    assert swept.architecture.lambda_a == pytest.approx(15.6 / 40.0)
    assert swept.architecture.cluster_size == pytest.approx(40.0)
    with pytest.raises(ConfigError):
        apply_sweep(base, "cluster_size", 4.0)
    with pytest.raises(ConfigError):
        apply_sweep(base, "nonsense", 1.0)


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
    scenario = load_config(None).scenario
    t1 = run_point(scenario, 160, 77, workers=1)
    t2 = run_point(scenario, 160, 77, workers=2)
    assert t1 == t2
    assert t1.trials == 160


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
    onsite_rec = row_record(run_sweep(parse_config_text("run.trials = 20\n"))[0])
    assert onsite_rec["architecture"] == "onsite"
    assert onsite_rec["lambda_h"] == "" and onsite_rec["voltage"] == ""


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
    with pytest.raises(ValueError):
        wilson_ci(1, 10, level=1.0)


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
