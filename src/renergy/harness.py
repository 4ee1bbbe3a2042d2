"""Experiment harness: config files, sweeps, parallel runs, CSV output.

Config files are flat ``key = value`` lines (``#`` comments). Every key has a
default; an empty file reproduces the built-in reference profile (a suburban
macro deployment with on-site kilowatt-class harvesting). Unknown keys and
out-of-range values raise ConfigError naming the key.

Output CSV columns are fixed and documented in _CSV_COLUMNS order. All floats
are written with repr-stable 17-significant-digit formatting and runs are
keyed by (config, seed) only, so a rerun — at any worker count — produces a
byte-identical file. Wall-clock time is kept on the in-memory result rows
only, never serialized.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .aggregation import Distributed, LineSpec
from .channel import ChannelSpec, ChiSquaredFading, TruncatedRicianFading
from .coverage import (OnSite, OutageEstimate, Scheme, ScenarioConfig, TrialTally,
                       estimates_from_tally, resolve_window, run_trials_chunk)
from .energy_field import (EnergyFieldSpec, Kernel, cdf_boolean_exp,
                           cdf_boolean_plaw, sample_intensity, validation_window)
from .geometry import substream
from .stats import KSResult, ks_statistic

SEED_ENV_VAR = "RENERGY_SEED"
DEFAULT_SEED = 1729


class ConfigError(ValueError):
    """Bad configuration key, value, or combination."""


# Reference profile: 0.78 stations/km^2, ten users per station on average,
# 8 dB SINR target over 70 dB reference loss at 100 m with -90 dBm noise,
# truncated Rician fading, and a kilowatt-class peak harvest rate.
_DEFAULTS: dict[str, object] = {
    "field.gamma": 1000.0,
    "field.lambda_e": 0.05,
    "field.nu": 1.0,
    "field.kernel": "boolean_max_exp",
    "channel.alpha": 4.0,
    "channel.ref_loss_db": 70.0,
    "channel.ref_dist": 0.1,
    "channel.noise_dbm": -90.0,
    "channel.fading": "truncated_rician",
    "channel.omega": 2,
    "channel.floor": 0.1,
    "network.lambda_b": 0.78,
    "network.lambda_u": 7.8,
    "network.theta": 8.0,
    "network.eta": 1.0,
    "scenario.architecture": "onsite",
    "scenario.estimator": "user_weighted",
    "scenario.wrap": True,
    "scenario.window_side": None,
    "distributed.lambda_h": 15.6,
    "distributed.lambda_a": 0.78,
    "distributed.tau": 0.9,
    "distributed.beta": 1.0,
    "distributed.voltage": None,
    "distributed.mode": "exact",
    "run.trials": 20000,
    "run.seed": DEFAULT_SEED,
    "run.workers": 1,
    "run.output": None,
    "sweep.param": None,
    "sweep.values": None,
}

_KERNEL_TOKENS = {k.value for k in Kernel}
_BOOL_TOKENS = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOL_TOKENS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_value(key: str, raw: str) -> object:
    default = _DEFAULTS[key]
    raw = raw.strip()
    if key in ("scenario.window_side", "distributed.voltage") and raw.lower() == "auto":
        return None
    if key == "distributed.voltage" and raw.lower() in ("inf", "lossless"):
        return math.inf
    if key in ("run.output", "sweep.param"):
        return raw or None
    if key == "sweep.values":
        if not raw:
            return None
        try:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from None
    if isinstance(default, bool):
        return _parse_bool(key, raw)
    if isinstance(default, int):
        return _parse_int(key, raw)
    if isinstance(default, float) or key in ("scenario.window_side", "distributed.voltage"):
        return _parse_float(key, raw)
    return raw


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    n_trials: int = 20000
    seed: int = DEFAULT_SEED
    workers: int = 1
    output: str | None = None
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None


def _build_fading(values: dict[str, object]):
    name = values["channel.fading"]
    if name == "chi_squared":
        try:
            return ChiSquaredFading(int(values["channel.omega"]))
        except ValueError as exc:
            raise ConfigError(f"channel.omega: {exc}") from None
    if name == "truncated_rician":
        try:
            return TruncatedRicianFading(float(values["channel.floor"]))
        except ValueError as exc:
            raise ConfigError(f"channel.floor: {exc}") from None
    raise ConfigError(
        f"channel.fading: expected 'chi_squared' or 'truncated_rician', got {name!r}")


def build_experiment(values: dict[str, object]) -> ExperimentConfig:
    """Assemble a validated ExperimentConfig from a fully-populated key map."""
    kernel_token = values["field.kernel"]
    if kernel_token not in _KERNEL_TOKENS:
        raise ConfigError(f"field.kernel: expected one of {sorted(_KERNEL_TOKENS)}, "
                          f"got {kernel_token!r}")
    try:
        field = EnergyFieldSpec(gamma=float(values["field.gamma"]),
                                lambda_e=float(values["field.lambda_e"]),
                                nu=float(values["field.nu"]),
                                kernel=Kernel(kernel_token))
    except ValueError as exc:
        raise ConfigError(f"field: {exc}") from None
    try:
        channel = ChannelSpec(alpha=float(values["channel.alpha"]),
                              ref_loss_db=float(values["channel.ref_loss_db"]),
                              ref_dist=float(values["channel.ref_dist"]),
                              noise_dbm=float(values["channel.noise_dbm"]),
                              fading=_build_fading(values))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from None

    arch_token = values["scenario.architecture"]
    if arch_token == "onsite":
        architecture: OnSite | Distributed = OnSite()
    elif arch_token == "distributed":
        try:
            line = LineSpec(beta=float(values["distributed.beta"]),
                            voltage=values["distributed.voltage"],
                            tau=float(values["distributed.tau"]),
                            mode=str(values["distributed.mode"]))
            architecture = Distributed(lambda_h=float(values["distributed.lambda_h"]),
                                       lambda_a=float(values["distributed.lambda_a"]),
                                       line=line)
        except ValueError as exc:
            raise ConfigError(f"distributed: {exc}") from None
    else:
        raise ConfigError(f"scenario.architecture: expected 'onsite' or 'distributed', "
                          f"got {arch_token!r}")

    try:
        scenario = ScenarioConfig(field=field, channel=channel,
                                  lambda_b=float(values["network.lambda_b"]),
                                  lambda_u=float(values["network.lambda_u"]),
                                  theta=float(values["network.theta"]),
                                  eta=float(values["network.eta"]),
                                  architecture=architecture,
                                  estimator=str(values["scenario.estimator"]),
                                  wrap=bool(values["scenario.wrap"]),
                                  window_side=values["scenario.window_side"])
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None

    n_trials = int(values["run.trials"])
    workers = int(values["run.workers"])
    seed = int(values["run.seed"])
    if n_trials <= 0:
        raise ConfigError("run.trials: must be positive")
    if workers < 1:
        raise ConfigError("run.workers: must be at least 1")
    if seed < 0:
        raise ConfigError("run.seed: must be non-negative")
    sweep_param = values["sweep.param"]
    sweep_values = values["sweep.values"]
    if (sweep_param is None) != (sweep_values is None):
        raise ConfigError("sweep.param and sweep.values must be given together")
    if sweep_param is not None:
        apply_sweep(scenario, str(sweep_param), float(sweep_values[0]))  # validate early
    return ExperimentConfig(scenario=scenario, n_trials=n_trials, seed=seed,
                            workers=workers, output=values["run.output"],
                            sweep_param=sweep_param, sweep_values=sweep_values)


def parse_config_text(text: str) -> ExperimentConfig:
    values = dict(_DEFAULTS)
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    return build_experiment(values)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Experiment from a config file; None loads the built-in defaults."""
    if path is None:
        return build_experiment(dict(_DEFAULTS))
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def _fmt_value(key: str, value: object) -> str:
    if value is None:
        return "auto" if key in ("scenario.window_side", "distributed.voltage") else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.17g}"
    return str(value)


def serialize_config(exp: ExperimentConfig) -> str:
    """Config text that parses back to an equal ExperimentConfig."""
    s = exp.scenario
    ch = s.channel
    fading = ch.fading
    values = dict(_DEFAULTS)
    values.update({
        "field.gamma": s.field.gamma, "field.lambda_e": s.field.lambda_e,
        "field.nu": s.field.nu, "field.kernel": s.field.kernel.value,
        "channel.alpha": ch.alpha, "channel.ref_loss_db": ch.ref_loss_db,
        "channel.ref_dist": ch.ref_dist, "channel.noise_dbm": ch.noise_dbm,
        "network.lambda_b": s.lambda_b, "network.lambda_u": s.lambda_u,
        "network.theta": s.theta, "network.eta": s.eta,
        "scenario.estimator": s.estimator, "scenario.wrap": s.wrap,
        "scenario.window_side": s.window_side,
        "run.trials": exp.n_trials, "run.seed": exp.seed,
        "run.workers": exp.workers, "run.output": exp.output,
        "sweep.param": exp.sweep_param, "sweep.values": exp.sweep_values,
    })
    if isinstance(fading, ChiSquaredFading):
        values["channel.fading"] = "chi_squared"
        values["channel.omega"] = fading.omega
    else:
        values["channel.fading"] = "truncated_rician"
        values["channel.floor"] = fading.floor
    if isinstance(s.architecture, Distributed):
        arch = s.architecture
        values.update({
            "scenario.architecture": "distributed",
            "distributed.lambda_h": arch.lambda_h, "distributed.lambda_a": arch.lambda_a,
            "distributed.tau": arch.line.tau, "distributed.beta": arch.line.beta,
            "distributed.voltage": arch.line.voltage, "distributed.mode": arch.line.mode,
        })
    else:
        values["scenario.architecture"] = "onsite"
    return "".join(f"{key} = {_fmt_value(key, values[key])}\n" for key in _DEFAULTS)


def effective_seed(config_seed: int, override: int | None = None) -> int:
    """Resolve the master seed: explicit override, then the environment
    variable, then the configured value."""
    if override is not None:
        return int(override)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return int(config_seed)


def apply_sweep(scenario: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Scenario with one named parameter replaced by a sweep value.

    psi rescales the center density at fixed kernel scale; gamma_eta rescales
    the peak field at fixed aperture; cluster_size sets the aggregator density
    from the fixed harvester density.
    """
    f = scenario.field
    try:
        if param == "psi":
            return replace(scenario, field=replace(f, lambda_e=value / f.nu))
        if param == "gamma_eta":
            return replace(scenario, field=replace(f, gamma=value / scenario.eta))
        if param == "gamma":
            return replace(scenario, field=replace(f, gamma=value))
        if param == "lambda_e":
            return replace(scenario, field=replace(f, lambda_e=value))
        if param in ("theta", "lambda_u", "lambda_b", "eta"):
            return replace(scenario, **{param: value})
        if param in ("cluster_size", "lambda_h", "voltage"):
            if not isinstance(scenario.architecture, Distributed):
                raise ConfigError(f"sweep parameter {param!r} needs the distributed architecture")
            arch = scenario.architecture
            if param == "cluster_size":
                arch = replace(arch, lambda_a=arch.lambda_h / value)
            elif param == "lambda_h":
                arch = replace(arch, lambda_h=value)
            else:
                arch = replace(arch, line=replace(arch.line, voltage=value))
            return replace(scenario, architecture=arch)
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"sweep {param}={value}: {exc}") from None
    raise ConfigError(f"unknown sweep parameter {param!r}")


def run_point(scenario: ScenarioConfig, n_trials: int, seed: int,
              workers: int = 1) -> TrialTally:
    """Tally n_trials trials, splitting the trial range over processes.

    Trial substreams are keyed by absolute index, so the merged tally is
    identical for every worker count.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if workers <= 1 or n_trials < 2 * workers:
        return run_trials_chunk(scenario, 0, n_trials, seed)
    edges = np.linspace(0, n_trials, 2 * workers + 1).astype(int)
    total = TrialTally()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_trials_chunk, scenario, int(a), int(b), seed)
                   for a, b in zip(edges[:-1], edges[1:]) if b > a]
        for fut in futures:
            total = total + fut.result()
    return total


@dataclass(frozen=True)
class ResultRow:
    """One (sweep value, scheme) result. wall_time is diagnostics only and is
    deliberately excluded from CSV output."""

    scheme: Scheme
    sweep_param: str | None
    sweep_value: float | None
    scenario: ScenarioConfig
    estimate: OutageEstimate
    n_trials: int
    seed: int
    workers: int
    wall_time: float


def run_sweep(exp: ExperimentConfig, seed: int | None = None) -> list[ResultRow]:
    """Run every sweep point (or the single configured point) and return rows
    for both schemes at each point, computed from shared draws."""
    seed = exp.seed if seed is None else seed
    values: tuple[float | None, ...] = exp.sweep_values or (None,)
    rows: list[ResultRow] = []
    for value in values:
        scen = exp.scenario if value is None else \
            apply_sweep(exp.scenario, exp.sweep_param, value)
        t0 = perf_counter()
        tally = run_point(scen, exp.n_trials, seed, exp.workers)
        wall = perf_counter() - t0
        estimates = estimates_from_tally(scen, tally)
        for scheme in Scheme:
            rows.append(ResultRow(scheme=scheme, sweep_param=exp.sweep_param,
                                  sweep_value=value, scenario=scen,
                                  estimate=estimates[scheme], n_trials=exp.n_trials,
                                  seed=seed, workers=exp.workers, wall_time=wall))
    return rows


_CSV_COLUMNS = [
    "scheme", "sweep_param", "sweep_value",
    "kernel", "gamma", "lambda_e", "nu", "psi",
    "alpha", "ref_loss_db", "ref_dist", "noise_dbm", "fading", "fading_param",
    "lambda_b", "lambda_u", "theta", "eta",
    "architecture", "lambda_h", "lambda_a", "tau", "beta", "voltage", "line_mode",
    "estimator", "wrap", "window_side",
    "n_trials", "seed",
    "p_out", "ci_lo", "ci_hi",
    "n_users", "n_outages", "zero_user_trials", "union_rate",
    "p_energy_random", "p_max_power", "gain_clamps", "low_confidence",
    "bound_energy_shortfall", "bound_max_power_markov", "bound_total",
    "bound_tail_total", "bound_aggregated", "bound_power_law_total",
    "flags",
]

_BOUND_COLUMNS = {
    "bound_energy_shortfall": "energy_shortfall",
    "bound_max_power_markov": "max_power_markov",
    "bound_total": "total",
    "bound_tail_total": "tail_total",
    "bound_aggregated": "aggregated",
    "bound_power_law_total": "power_law_total",
}


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.17g}"
    return str(value)


def row_record(row: ResultRow) -> dict[str, str]:
    """Row rendered to the fixed CSV schema (all values already strings)."""
    s = row.scenario
    est = row.estimate
    fading = s.channel.fading
    distributed = isinstance(s.architecture, Distributed)
    flags = []
    if est.low_confidence:
        flags.append("low_confidence")
    flags.extend(f"bound_gt_1:{name}" for name, v in sorted(est.bound_values.items())
                 if v > 1.0)
    rec = {
        "scheme": row.scheme.value,
        "sweep_param": row.sweep_param,
        "sweep_value": row.sweep_value,
        "kernel": s.field.kernel.value,
        "gamma": s.field.gamma, "lambda_e": s.field.lambda_e, "nu": s.field.nu,
        "psi": s.field.psi,
        "alpha": s.channel.alpha, "ref_loss_db": s.channel.ref_loss_db,
        "ref_dist": s.channel.ref_dist, "noise_dbm": s.channel.noise_dbm,
        "fading": "chi_squared" if isinstance(fading, ChiSquaredFading) else "truncated_rician",
        "fading_param": float(fading.omega) if isinstance(fading, ChiSquaredFading)
                        else fading.floor,
        "lambda_b": s.lambda_b, "lambda_u": s.lambda_u, "theta": s.theta, "eta": s.eta,
        "architecture": "distributed" if distributed else "onsite",
        "lambda_h": s.architecture.lambda_h if distributed else None,
        "lambda_a": s.architecture.lambda_a if distributed else None,
        "tau": s.architecture.line.tau if distributed else None,
        "beta": s.architecture.line.beta if distributed else None,
        "voltage": (("auto" if s.architecture.line.voltage is None
                     else _csv_cell(s.architecture.line.voltage)) if distributed else None),
        "line_mode": s.architecture.line.mode if distributed else None,
        "estimator": s.estimator, "wrap": s.wrap,
        "window_side": resolve_window(s).width,
        "n_trials": row.n_trials, "seed": row.seed,
        "p_out": est.p_out, "ci_lo": est.ci_lo, "ci_hi": est.ci_hi,
        "n_users": est.n_users, "n_outages": est.n_outages,
        "zero_user_trials": est.zero_user_trials, "union_rate": est.union_rate,
        "p_energy_random": est.p_energy_random, "p_max_power": est.p_max_power,
        "gain_clamps": est.gain_clamps, "low_confidence": est.low_confidence,
        "flags": ";".join(flags),
    }
    for col, key in _BOUND_COLUMNS.items():
        rec[col] = est.bound_values.get(key)
    return {col: _csv_cell(rec[col]) for col in _CSV_COLUMNS}


_PLOT_TEMPLATE = '''"""Companion plot for {csv_name}: per-user outage per scheme{vs}."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

BOUND_COLS = ["bound_total", "bound_tail_total", "bound_aggregated",
              "bound_power_law_total"]

with open({csv_name!r}, newline="", encoding="utf-8") as fh:
    rows = list(csv.DictReader(fh))

curves = defaultdict(list)
for i, row in enumerate(rows):
    x = float(row["sweep_value"]) if row["sweep_value"] else float(i)
    curves[row["scheme"]].append((x, float(row["p_out"]),
                                  float(row["ci_lo"]), float(row["ci_hi"]), row))

fig, ax = plt.subplots(figsize=(6, 4.2))
for scheme, pts in sorted(curves.items()):
    pts.sort()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    ax.errorbar(xs, ys,
                yerr=[[p[1] - p[2] for p in pts], [p[3] - p[1] for p in pts]],
                marker="o", capsize=3, label=scheme)
    for col in BOUND_COLS:
        bys = [(p[0], float(p[4][col])) for p in pts if p[4][col]]
        if bys:
            ax.plot([b[0] for b in bys], [b[1] for b in bys], "--", alpha=0.6,
                    label=scheme + " " + col)
ax.set_xlabel({xlabel!r})
ax.set_ylabel("per-user outage probability")
ax.set_yscale("log")
ax.grid(True, which="both", alpha=0.3)
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig({png_name!r}, dpi=150)
print("wrote", {png_name!r})
'''


def emit_csv(rows: list[ResultRow], path: str | Path) -> Path:
    """Write results as CSV plus a standalone companion plot script.

    Column order is _CSV_COLUMNS; identical runs produce byte-identical files.
    """
    path = Path(path)
    lines = [",".join(_CSV_COLUMNS)]
    lines.extend(",".join(row_record(r)[c] for c in _CSV_COLUMNS) for r in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sweep = next((r.sweep_param for r in rows if r.sweep_param), None)
    script = _PLOT_TEMPLATE.format(
        csv_name=path.name,
        vs=f" vs {sweep}" if sweep else "",
        xlabel=sweep or "row index",
        png_name=path.stem + ".png")
    Path(str(path) + ".plot.py").write_text(script, encoding="utf-8")
    return path


def validate_field_law(spec: EnergyFieldSpec, n_samples: int, seed: int,
                       level: float = 0.01) -> KSResult:
    """KS test of sampled field values against the closed-form law.

    The sampling window is enlarged beyond the default arena so that the
    truncated far-tail mass is an order of magnitude below the test's
    resolution; see validation_window.
    """
    if spec.kernel is Kernel.SHOT_NOISE_EXP:
        raise ValueError("the shot-noise kernel has no closed-form law to test against")
    window = validation_window(spec, n_samples)
    samples = sample_intensity(spec, window, window.center, n_samples, substream(seed, 0))
    if spec.kernel is Kernel.BOOLEAN_MAX_EXP:
        cdf = lambda x: cdf_boolean_exp(x, spec)
    else:
        cdf = lambda x: cdf_boolean_plaw(x, spec)
    return ks_statistic(samples, cdf, level)


def normalized_equivalent(scenario: ScenarioConfig) -> ScenarioConfig:
    """Unit-profile scenario producing the same outage law as a physical one.

    Rescales lengths by sqrt(lambda_b) so the station density becomes 1, and
    folds reference loss, noise power, and aperture into the peak field so the
    channel becomes gain = d^-alpha with unit noise. Outage probabilities of
    the two profiles agree (the mapping is exact in real arithmetic).
    """
    if not isinstance(scenario.architecture, OnSite):
        raise ValueError("normalization is defined for the on-site architecture")
    ch = scenario.channel
    lb = scenario.lambda_b
    a = ch.alpha
    gamma = (scenario.field.gamma * scenario.eta * lb ** (a / 2.0) * ch.ref_dist ** a
             / (ch.noise_w * 10.0 ** (ch.ref_loss_db / 10.0)))
    field = replace(scenario.field, gamma=gamma,
                    lambda_e=scenario.field.lambda_e / lb,
                    nu=scenario.field.nu * lb)
    side = scenario.window_side * math.sqrt(lb) if scenario.window_side else None
    return replace(scenario, field=field,
                   channel=ChannelSpec.normalized(alpha=a, fading=ch.fading),
                   lambda_b=1.0, lambda_u=scenario.lambda_u / lb, eta=1.0,
                   window_side=side)
