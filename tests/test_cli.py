"""End-to-end command-line behaviour and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import renergy
from renergy.cli import main
from renergy.harness import ConfigError, load_config


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


def test_sweep_smoke(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--sweep", "theta=4,8", "--trials", "30",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 values x 2 schemes


def test_sweep_flag_errors(capsys):
    assert main(["sweep", "--sweep", "nonsense=1,2", "--trials", "10"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sweep", "--sweep", "theta"]) == 2
    assert main(["sweep", "--sweep", "theta=a,b"]) == 2


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no.such.key = 1\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err
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


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    # the child imports the same package as this process, installed or not
    src = str(Path(renergy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "renergy", "run", "--trials", "20",
         "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
