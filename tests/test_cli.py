"""End-to-end command-line behaviour and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renergy
from renergy import harness
from renergy.cli import main
from renergy.harness import SEED_ENV_VAR, ConfigError, load_config


def test_run_prints_table(capsys):
    rc = main(["run", "--trials", "40", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p_out" in out
    assert "channel_independent" in out and "inversion" in out


def test_run_writes_csv_and_plot_script(tmp_path, capsys):
    out = tmp_path / "point.csv"
    rc = main(["run", "--trials", "40", "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header.startswith("scheme,") and ",p_out," in header
    assert (tmp_path / "point.csv.plot.py").exists()
    assert "wrote" in capsys.readouterr().out


def test_sweeps_past_a_full_aggregator_cell_fail_before_any_trial(monkeypatch, tmp_path,
                                                                  capsys):
    # cluster_size 3120 thins the aggregators until one cell outgrows the
    # window; the sweep value is rejected with the keys that size both
    calls = []
    monkeypatch.setattr(harness, "run_group_chunk", lambda *args: calls.append(args))
    cfg = tmp_path / "distributed.cfg"
    cfg.write_text("scenario.architecture = distributed\n")
    assert main(["sweep", "--config", str(cfg), "--sweep", "cluster_size=320,3120"]) == 2
    err = capsys.readouterr().err
    assert "error: --sweep: cluster_size=3120" in err
    swept = tmp_path / "swept.cfg"
    swept.write_text("scenario.architecture = distributed\nsweep.param = cluster_size\n"
                     "sweep.values = 320,3120\n")
    assert main(["run", "--config", str(swept)]) == 2
    err += capsys.readouterr().err
    assert "error: sweep.values: cluster_size=3120" in err
    assert err.count("scenario.window_side or distributed.lambda_a") == 2
    assert calls == []


def test_sweep_smoke(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--sweep", "theta=4,8", "--trials", "30",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 values x 2 schemes


def test_sweep_flag_errors(monkeypatch, capsys):
    # record where the sweep runner looks up its trial engine
    calls = []
    run_group_chunk = harness.run_group_chunk

    def recording_group(scenarios, start, stop, seed):
        calls.extend(scenario.theta for scenario in scenarios)
        return run_group_chunk(scenarios, start, stop, seed)

    monkeypatch.setattr(harness, "run_group_chunk", recording_group)
    # errors name the flag, not the config key it sets
    assert main(["sweep", "--sweep", "nonsense=1,2", "--trials", "10"]) == 2
    assert "error: --sweep: unknown sweep parameter 'nonsense'" in capsys.readouterr().err
    assert main(["sweep", "--sweep", "psi="]) == 2
    assert "error: --sweep: needs at least one value" in capsys.readouterr().err
    assert main(["sweep", "--sweep", "theta"]) == 2
    assert main(["sweep", "--sweep", "theta=a,b"]) == 2
    # a bad later value stops the sweep before its first point runs
    assert main(["sweep", "--sweep", "theta=4,-1", "--trials", "2000"]) == 2
    assert "error: --sweep: theta=-1" in capsys.readouterr().err
    assert calls == []
    # the recorder sees every point of a good sweep
    assert main(["sweep", "--sweep", "theta=4,8", "--trials", "300"]) == 0
    assert calls == [4.0, 8.0]


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no.such.key = 1\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err
    # p_out is always the typical user's outage; no key picks an estimator
    cfg.write_text("scenario.estimator = user_weighted\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown key 'scenario.estimator'" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("line, section, name", [
    ("field.gamma = nan", "field", "gamma"),
    ("network.theta = nan", "scenario", "theta"),
    ("field.lambda_e = inf", "field", "lambda_e"),
])
def test_non_finite_config_values_exit_2(tmp_path, capsys, line, section, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ConfigError, match=f"^{section}: {name}"):
        load_config(cfg)
    assert main(["run", "--config", str(cfg), "--trials", "40"]) == 2
    assert f"error: {section}: {name}" in capsys.readouterr().err


@pytest.mark.parametrize("lines, key", [
    ("network.lambda_u = 1e308", "network.lambda_u"),
    ("field.nu = 1e300", "field.nu"),
    ("field.lambda_e = 1e6", "field.lambda_e"),
    ("scenario.architecture = distributed\ndistributed.lambda_h = 1e9",
     "distributed.lambda_h"),
])
def test_oversize_scenarios_exit_2(tmp_path, capsys, lines, key):
    # rejected when the config is built, before any block is drawn
    cfg = tmp_path / "big.cfg"
    cfg.write_text(lines + "\n")
    assert main(["run", "--config", str(cfg), "--trials", "40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario: ") and key in err


@pytest.mark.parametrize("args, seed_env, key", [
    (["--trials", "0"], None, "run.trials"),
    (["--trials", "5", "--workers", "0"], None, "run.workers"),
    (["--trials", "5", "--seed", "-1"], None, "run.seed"),
    (["--trials", "5"], "-1", "run.seed"),
], ids=["trials", "workers", "seed", "seed_env"])
def test_bad_run_overrides_exit_2(monkeypatch, capsys, args, seed_env, key):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if seed_env is not None:
        monkeypatch.setenv(SEED_ENV_VAR, seed_env)
    assert main(["run", *args]) == 2
    assert f"error: {key}:" in capsys.readouterr().err


def test_low_confidence_exit_code(tmp_path, capsys):
    # two trials observe ~20 users, far below the confidence floor
    rc = main(["run", "--trials", "2", "--seed", "11",
               "--out", str(tmp_path / "low.csv")])
    assert rc == 3
    assert "low confidence" in capsys.readouterr().err


def test_validate_field_smoke(capsys):
    rc = main(["validate-field", "--samples", "2000", "--psi", "0.2",
               "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("args, seed_env, key", [
    (["--seed", "-1"], None, "--seed"),
    ([], "-1", SEED_ENV_VAR),
], ids=["flag", "env"])
def test_validate_field_bad_seed_exits_2(monkeypatch, capsys, args, seed_env, key):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if seed_env is not None:
        monkeypatch.setenv(SEED_ENV_VAR, seed_env)
    assert main(["validate-field", "--samples", "200", "--psi", "0.2", *args]) == 2
    assert f"error: {key}: must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--samples", "0"], "--samples: the asymptotic KS test needs at least 100, got 0"),
    (["--samples", "50"], "--samples: the asymptotic KS test needs at least 100, got 50"),
    (["--psi", "nan"], "--psi: must be positive finite numbers, got 'nan'"),
    (["--psi", "0.2,inf"], "--psi: must be positive finite numbers, got '0.2,inf'"),
    (["--psi", "0.2,-1"], "--psi: must be positive finite numbers, got '0.2,-1'"),
    (["--psi", "x"], "--psi: expected comma-separated numbers"),
], ids=["samples", "samples_below_100", "psi_nan", "psi_inf", "psi_negative", "psi_text"])
def test_validate_field_bad_flags_exit_2(capsys, args, message):
    assert main(["validate-field", "--samples", "200", "--psi", "0.2", *args]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_bounds_verb(capsys):
    rc = main(["bounds"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "energy_shortfall" in out
    assert "[channel_independent]" in out and "[inversion]" in out
    assert "asymptotic regime" in out


def test_repro_fig4(tmp_path):
    out = tmp_path / "fig4.csv"
    rc = main(["repro", "fig4", "--trials", "20", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 6 * 2  # six densities, two schemes


def test_repro_fig5(tmp_path):
    out = tmp_path / "fig5.csv"
    rc = main(["repro", "fig5", "--trials", "20", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 5 * 2  # five cluster sizes, two schemes
    assert ",distributed," in lines[1]


def test_repro_takes_no_config_flag(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("field.gamma = nonsense\n")
    with pytest.raises(SystemExit) as exc:
        main(["repro", "fig4", "--config", str(cfg)])
    assert exc.value.code == 2


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _run_child(args):
    """Run python with `args` in a child that imports the same package as
    this process, installed or not."""
    src = str(Path(renergy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env=env)


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = _run_child(["-m", "renergy", "run", "--trials", "20", "--seed", "7",
                       "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_import_loads_no_scipy():
    # nor numpy.polynomial, which would add milliseconds to every fresh
    # import, also once the Rician moment has built its quadrature
    proc = _run_child(["-c", "import sys, renergy, renergy.cli; from renergy import channel; "
                             "channel.mean_inverse_fading(channel.TruncatedRicianFading(0.1)); "
                             "print(sorted(m for m in sys.modules "
                             "if m.startswith(('scipy', 'numpy.polynomial'))))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# A fresh child, so that the heap measurement sees malloc as the import left
# it. With scipy blocked, importing it raises ImportError.
_NO_SCIPY_CHILD = """
import json, sys
sys.modules["scipy"] = None
from renergy import cli, harness
from renergy.coverage import run_trials_chunk

faults = None
if sys.platform.startswith("linux"):
    import resource
    cfg = harness.apply_sweep(cli._repro_experiment("fig4").scenario, "psi", 0.5)
    run_trials_chunk(cfg, 0, 5120, 11)  # warm-up: the heap grows to a long pass's needs
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_trials_chunk(cfg, 5120, 2 * 5120, 11)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5120
codes = [cli.main(argv) for argv in (["repro", "fig4", "--trials", "300", "--out", sys.argv[1]],
                                     ["bounds"],
                                     ["validate-field", "--samples", "2000"])]
print(json.dumps({"codes": codes, "faults": faults}))
"""


def test_runs_without_scipy_and_without_heap_churn(tmp_path):
    proc = _run_child(["-c", _NO_SCIPY_CHILD, str(tmp_path / "fig4.csv")])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    if result["faults"] is not None:
        # without the malloc threshold raise in renergy.coverage, each block's
        # temporaries are returned to the kernel and faulted back in: about
        # 0.4 minor faults per trial at this point, against 0.002 with it
        assert result["faults"] < 0.05
