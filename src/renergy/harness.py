"""Experiment harness: config files, sweeps, parallel runs, CSV output.

Config files are flat ``key = value`` lines (``#`` comments). Every key has a
default; an empty file reproduces the built-in reference profile (a suburban
macro deployment with on-site kilowatt-class harvesting). Unknown keys and
out-of-range values raise ConfigError naming the key.

Output CSV columns are fixed and documented in _CSV_COLUMNS order. A row's
scenario columns are its config settings named without their section
(``field.gamma`` -> ``gamma``), written as the config file writes them, with
the ``distributed`` columns empty on on-site rows; the estimate columns are
the OutageEstimate fields of the same names, and ``bound_<name>`` is bound
``<name>``. n_outages and union_rate are the one-center control's
estimates, expected counts at a point the engine runs by the center law,
where equal split's n_outages is its known mean's p times the users;
neither need be whole (see renergy.coverage).
Only psi, fading_param, line_mode and the resolved window_side are named by
hand. A sweep point is its scenario's settings with
one key edited.

All floats are written with repr-stable 17-significant-digit formatting and
runs are keyed by (config, seed) only, so a rerun — at any worker count —
produces a byte-identical file. Wall-clock time is kept on the in-memory
result rows only, never serialized.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from time import perf_counter
from typing import Iterator

from .aggregation import Distributed, LineSpec
from .channel import ChannelSpec, ChiSquaredFading, TruncatedRicianFading
# run_trials_chunk is re-exported for callers that run chunks of one point
# through the harness, as the benchmark's time-to-CI loop does
from .coverage import (OnSite, OutageEstimate, Scheme, ScenarioConfig, TrialTally,  # noqa: F401
                       estimates_from_tally, resolve_window, run_group_chunk,
                       run_trials_chunk)
from .energy_field import (EnergyFieldSpec, Kernel, cdf_boolean_exp,
                           cdf_boolean_plaw, sample_intensity, validation_window)
from .geometry import BLOCK, substream
from .stats import KSResult, ks_statistic

SEED_ENV_VAR = "RENERGY_SEED"
DEFAULT_SEED = 1729


class ConfigError(ValueError):
    """Bad configuration key, value, or combination."""


# Reference values the dataclasses have no defaults for. With the dataclass
# defaults they make the reference profile: 0.78 stations/km^2, ten users per
# station on average, 8 dB SINR target over 70 dB reference loss at 100 m with
# -90 dBm noise, truncated Rician fading, and a kilowatt-class peak harvest rate.
_REF_FIELD = EnergyFieldSpec(gamma=1000.0, lambda_e=0.05, nu=1.0)
_REF_DISTRIBUTED = Distributed(lambda_h=15.6, lambda_a=0.78)
_REF_CHI_SQUARED = ChiSquaredFading(2)
_REF_RICIAN = TruncatedRicianFading(0.1)

# Keys whose None value is written "auto".
_AUTO_KEYS = ("scenario.window_side", "distributed.voltage")
_KERNEL_TOKENS = {k.value for k in Kernel}
_BOOL_TOKENS = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A scenario plus its run and sweep settings; every check of the run and
    sweep settings is made here, so config files, CLI overrides and replace()
    are held to the same rules before any trial runs."""

    scenario: ScenarioConfig
    n_trials: int = 20000
    seed: int = DEFAULT_SEED
    workers: int = 1
    output: str | None = None
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for key, value in (("run.trials", self.n_trials), ("run.seed", self.seed),
                           ("run.workers", self.workers)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key}: expected an integer, got {value!r}")
        if not self.n_trials > 0:
            raise ConfigError(f"run.trials: must be positive, got {self.n_trials}")
        if not self.workers >= 1:
            raise ConfigError(f"run.workers: must be at least 1, got {self.workers}")
        if not self.seed >= 0:
            raise ConfigError(f"run.seed: must be non-negative, got {self.seed}")
        if self.sweep_values is not None and not self.sweep_values:
            raise ConfigError("sweep.values: needs at least one value")
        if (self.sweep_param is None) != (self.sweep_values is None):
            raise ConfigError("sweep.param and sweep.values must be given together")
        for value in self.sweep_values or ():
            apply_sweep(self.scenario, self.sweep_param, value)


def _settings(exp: ExperimentConfig) -> dict[str, object]:
    """Every config key with its value in exp, in file order. Settings of a
    fading law or an architecture that exp does not use keep the reference
    values."""
    s = exp.scenario
    fading = s.channel.fading
    chi_squared = isinstance(fading, ChiSquaredFading)
    distributed = isinstance(s.architecture, Distributed)
    arch = s.architecture if distributed else _REF_DISTRIBUTED
    return {
        "field.gamma": s.field.gamma,
        "field.lambda_e": s.field.lambda_e,
        "field.nu": s.field.nu,
        "field.kernel": s.field.kernel.value,
        "channel.alpha": s.channel.alpha,
        "channel.ref_loss_db": s.channel.ref_loss_db,
        "channel.ref_dist": s.channel.ref_dist,
        "channel.noise_dbm": s.channel.noise_dbm,
        "channel.fading": "chi_squared" if chi_squared else "truncated_rician",
        "channel.omega": (fading if chi_squared else _REF_CHI_SQUARED).omega,
        "channel.floor": (_REF_RICIAN if chi_squared else fading).floor,
        "network.lambda_b": s.lambda_b,
        "network.lambda_u": s.lambda_u,
        "network.theta": s.theta,
        "network.eta": s.eta,
        "scenario.architecture": "distributed" if distributed else "onsite",
        "scenario.wrap": s.wrap,
        "scenario.window_side": s.window_side,
        "distributed.lambda_h": arch.lambda_h,
        "distributed.lambda_a": arch.lambda_a,
        "distributed.tau": arch.line.tau,
        "distributed.beta": arch.line.beta,
        "distributed.voltage": arch.line.voltage,
        "distributed.mode": arch.line.mode,
        "run.trials": exp.n_trials,
        "run.seed": exp.seed,
        "run.workers": exp.workers,
        "run.output": exp.output,
        "sweep.param": exp.sweep_param,
        "sweep.values": exp.sweep_values,
    }


_DEFAULTS = _settings(ExperimentConfig(ScenarioConfig(field=_REF_FIELD,
                                                      channel=ChannelSpec(fading=_REF_RICIAN))))


def parse_numbers(key: str, raw: str) -> tuple[float, ...]:
    """Comma-separated numbers (empty items skipped); errors name the key."""
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from None


def _parse_value(key: str, raw: str) -> object:
    raw = raw.strip()
    if key in _AUTO_KEYS and raw.lower() == "auto":
        return None
    if key == "distributed.voltage" and raw.lower() == "lossless":
        return math.inf
    if key == "sweep.values":
        return parse_numbers(key, raw) if raw else None
    kind = float if key in _AUTO_KEYS else type(_DEFAULTS[key])
    if kind is type(None):  # run.output, sweep.param
        return raw or None
    if kind is str:
        return raw
    try:
        return _BOOL_TOKENS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}") from None


@contextmanager
def _section(name: str):
    """Report a spec constructor's ValueError as a ConfigError naming the section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _build_fading(values: dict[str, object]):
    name = values["channel.fading"]
    if name == "chi_squared":
        with _section("channel.omega"):
            return ChiSquaredFading(values["channel.omega"])
    if name == "truncated_rician":
        with _section("channel.floor"):
            return TruncatedRicianFading(values["channel.floor"])
    raise ConfigError(
        f"channel.fading: expected 'chi_squared' or 'truncated_rician', got {name!r}")


def build_experiment(values: dict[str, object]) -> ExperimentConfig:
    """ExperimentConfig from a fully-populated key map; the inverse of _settings."""
    v = values
    if v["field.kernel"] not in _KERNEL_TOKENS:
        raise ConfigError(f"field.kernel: expected one of {sorted(_KERNEL_TOKENS)}, "
                          f"got {v['field.kernel']!r}")
    with _section("field"):
        field = EnergyFieldSpec(gamma=v["field.gamma"], lambda_e=v["field.lambda_e"],
                                nu=v["field.nu"], kernel=Kernel(v["field.kernel"]))
    fading = _build_fading(v)
    with _section("channel"):
        channel = ChannelSpec(alpha=v["channel.alpha"], ref_loss_db=v["channel.ref_loss_db"],
                              ref_dist=v["channel.ref_dist"],
                              noise_dbm=v["channel.noise_dbm"], fading=fading)

    if v["scenario.architecture"] == "onsite":
        architecture: OnSite | Distributed = OnSite()
    elif v["scenario.architecture"] == "distributed":
        with _section("distributed"):
            line = LineSpec(beta=v["distributed.beta"], voltage=v["distributed.voltage"],
                            tau=v["distributed.tau"], mode=v["distributed.mode"])
            architecture = Distributed(lambda_h=v["distributed.lambda_h"],
                                       lambda_a=v["distributed.lambda_a"], line=line)
    else:
        raise ConfigError(f"scenario.architecture: expected 'onsite' or 'distributed', "
                          f"got {v['scenario.architecture']!r}")

    with _section("scenario"):
        scenario = ScenarioConfig(field=field, channel=channel,
                                  lambda_b=v["network.lambda_b"],
                                  lambda_u=v["network.lambda_u"],
                                  theta=v["network.theta"], eta=v["network.eta"],
                                  architecture=architecture,
                                  wrap=v["scenario.wrap"],
                                  window_side=v["scenario.window_side"])
    return ExperimentConfig(scenario=scenario, n_trials=v["run.trials"],
                            seed=v["run.seed"], workers=v["run.workers"],
                            output=v["run.output"], sweep_param=v["sweep.param"],
                            sweep_values=v["sweep.values"])


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
    return parse_config_text("" if path is None else Path(path).read_text(encoding="utf-8"))


def _cell(value: object) -> str:
    """A config value or CSV cell as text; floats keep 17 significant digits,
    which round-trips every double."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_cell(v) for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _setting_text(key: str, value: object) -> str:
    """A setting as a config file writes it."""
    return "auto" if value is None and key in _AUTO_KEYS else _cell(value)


def serialize_config(exp: ExperimentConfig) -> str:
    """Config text that parses back to an equal ExperimentConfig."""
    return "".join(f"{key} = {_setting_text(key, value)}\n"
                   for key, value in _settings(exp).items())


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


# Sweep parameters and the setting each one edits.
_SWEEP_KEYS = {"psi": "field.lambda_e", "gamma_eta": "field.gamma", "gamma": "field.gamma",
               "lambda_e": "field.lambda_e", "theta": "network.theta",
               "lambda_u": "network.lambda_u", "lambda_b": "network.lambda_b",
               "eta": "network.eta", "cluster_size": "distributed.lambda_a",
               "lambda_h": "distributed.lambda_h", "voltage": "distributed.voltage"}


def apply_sweep(scenario: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Scenario with the setting of one named parameter edited to a sweep value.

    psi rescales the center density at fixed kernel scale; gamma_eta rescales
    the peak field at fixed aperture; cluster_size sets the aggregator density
    from the fixed harvester density.
    """
    if param not in _SWEEP_KEYS:
        raise ConfigError(f"sweep.param: unknown sweep parameter {param!r}")
    key = _SWEEP_KEYS[param]
    values = _settings(ExperimentConfig(scenario))
    if key.startswith("distributed.") and values["scenario.architecture"] != "distributed":
        raise ConfigError(f"sweep.param: {param!r} needs the distributed architecture")
    try:
        if param == "psi":
            values[key] = value / values["field.nu"]
        elif param == "gamma_eta":
            values[key] = value / values["network.eta"]
        elif param == "cluster_size":
            values[key] = values["distributed.lambda_h"] / value
        else:
            values[key] = value
        return build_experiment(values).scenario
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"sweep.values: {param}={value}: {exc}") from None


def chunk_edges(n_trials: int, parts: int) -> list[int]:
    """Edges of at most `parts` chunks covering trials [0, n_trials), cut only
    at multiples of geometry.BLOCK, so that every block is drawn by exactly
    one chunk; the chunks hold near-equal numbers of blocks."""
    blocks = -(-n_trials // BLOCK)
    parts = max(1, min(parts, blocks))
    return [min(n_trials, BLOCK * (blocks * i // parts)) for i in range(parts + 1)]


def _tallies(scenarios: tuple[ScenarioConfig, ...], n_trials: int, seed: int,
             workers: int) -> Iterator[TrialTally]:
    """Tally n_trials trials at each scenario, yielding the tallies in order.

    Scenarios with equal user_settings form a group, in order of their first
    scenario, and each chunk of a group is one task, run_group_chunk, which
    draws and evaluates the users once for all of the group's scenarios.
    Workers beyond the CPUs this process may use are not counted. With
    several workers and more than one block per point, one process pool
    serves every group: all of their block-aligned chunks are queued at
    once, so no worker waits between groups, and each point's tally is
    merged as its group's chunks finish. A chunk that raises cancels the
    chunks not yet started and its exception propagates. Random streams are
    keyed by absolute trial block, so each tally is identical for every
    worker count and grouping.
    """
    groups: dict[tuple, tuple[ScenarioConfig, ...]] = {}
    places = []   # (group key, place in the group) of every point, in point order
    for scenario in scenarios:
        key = scenario.user_settings
        group = groups.get(key, ())
        places.append((key, len(group)))
        groups[key] = group + (scenario,)
    # os.sched_getaffinity exists only on some platforms, Linux among them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)   # more would only wait their turn
    edges = chunk_edges(n_trials, 2 * workers) if workers > 1 else [0, n_trials]
    if len(edges) <= 2:
        done: dict[tuple, list[TrialTally]] = {}
        for key, j in places:
            if key not in done:
                done[key] = run_group_chunk(groups[key], 0, n_trials, seed)
            yield done[key][j]
        return
    spans = list(zip(edges[:-1], edges[1:]))
    pool = ProcessPoolExecutor(max_workers=min(workers, len(spans)))
    try:
        futures = {key: [pool.submit(run_group_chunk, group, a, b, seed) for a, b in spans]
                   for key, group in groups.items()}
        for key, j in places:
            yield sum((fut.result()[j] for fut in futures[key]), TrialTally())
    finally:
        pool.shutdown(cancel_futures=True)


def run_point(scenario: ScenarioConfig, n_trials: int, seed: int,
              workers: int = 1) -> TrialTally:
    """Tally n_trials trials, splitting the trial range over processes; the
    merged tally is identical for every worker count."""
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    [tally] = _tallies((scenario,), n_trials, seed, workers)
    return tally


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
    wall_time: float


def run_sweep(exp: ExperimentConfig, seed: int | None = None) -> list[ResultRow]:
    """Run every sweep point (or the single configured point) and return rows
    for both schemes at each point, computed from shared draws.

    Each row's wall_time is its point's time from the previous point's rows
    to its own, so the points' times add up to the sweep's, pool start-up
    included in the first point. Points that run as one group (see
    _tallies) finish together, so the group's time falls on its first point.
    """
    seed = exp.seed if seed is None else seed
    values: tuple[float | None, ...] = exp.sweep_values or (None,)
    scenarios = tuple(exp.scenario if value is None else
                      apply_sweep(exp.scenario, exp.sweep_param, value) for value in values)
    rows: list[ResultRow] = []
    t0 = perf_counter()
    tallies = _tallies(scenarios, exp.n_trials, seed, exp.workers)
    # strict: zip exhausts the tallies, which shuts the pool down here
    for value, scen, tally in zip(values, scenarios, tallies, strict=True):
        estimates = estimates_from_tally(scen, tally)
        t1 = perf_counter()
        for scheme in Scheme:
            rows.append(ResultRow(scheme=scheme, sweep_param=exp.sweep_param,
                                  sweep_value=value, scenario=scen,
                                  estimate=estimates[scheme], n_trials=exp.n_trials,
                                  seed=seed, wall_time=t1 - t0))
        t0 = t1
    return rows


_CSV_COLUMNS = [
    "scheme", "sweep_param", "sweep_value",
    "kernel", "gamma", "lambda_e", "nu", "psi",
    "alpha", "ref_loss_db", "ref_dist", "noise_dbm", "fading", "fading_param",
    "lambda_b", "lambda_u", "theta", "eta",
    "architecture", "lambda_h", "lambda_a", "tau", "beta", "voltage", "line_mode",
    "wrap", "window_side",
    "n_trials", "seed",
    "p_out", "ci_lo", "ci_hi",
    "n_users", "n_outages", "zero_user_trials", "union_rate",
    "p_energy_random", "p_max_power", "gain_clamps", "low_confidence",
    "bound_energy_shortfall", "bound_max_power_markov", "bound_total",
    "bound_tail_total", "bound_aggregated", "bound_power_law_total",
    "flags",
]


def row_record(row: ResultRow) -> dict[str, str]:
    """Row rendered to the fixed CSV schema (all values already strings)."""
    s, est = row.scenario, row.estimate
    values = _settings(ExperimentConfig(s, seed=row.seed))
    onsite = values["scenario.architecture"] == "onsite"
    rec = {key.partition(".")[2]: "" if onsite and key.startswith("distributed.")
           else _setting_text(key, value) for key, value in values.items()}
    rec.update((f.name, getattr(est, f.name)) for f in fields(est))
    rec.update((col, est.bound_values.get(col.removeprefix("bound_")))
               for col in _CSV_COLUMNS if col.startswith("bound_"))
    flags = ["low_confidence"] if est.low_confidence else []
    flags.extend(f"bound_gt_1:{name}" for name, v in sorted(est.bound_values.items())
                 if v > 1.0)
    rec.update(scheme=row.scheme.value, sweep_param=row.sweep_param,
               sweep_value=row.sweep_value, psi=s.field.psi,
               fading_param=rec["omega" if rec["fading"] == "chi_squared" else "floor"],
               line_mode=rec["mode"], window_side=resolve_window(s).width,
               flags=";".join(flags))
    return {col: _cell(rec[col]) for col in _CSV_COLUMNS}


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
    lines.extend(",".join(row_record(r).values()) for r in rows)
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
