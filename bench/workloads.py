"""The benchmark's workloads: generated configs, set-up, timed passes, the
time-to-confidence-interval loop and the correctness checks.

Everything here calls renergy through module attributes (``harness.run_sweep``,
``coverage.bound_values``, ...) so that the traced run can swap in span
recorders without touching the package.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hostspeed import HostClock, Timing
from renergy import aggregation, cli, coverage, energy_field, geometry, harness, stats
from renergy.coverage import Scheme
from renergy.energy_field import EnergyFieldSpec, Kernel

WORKLOADS = ("onsite_fig4", "distributed_fig5", "sweep_parallel", "field_validate")

# The sweeps are the CLI's canned `repro fig4` and `repro fig5` ones. fig5
# keeps its smallest and largest cluster size: at 320 the field evaluation
# over the typical aggregator's harvesters dominates a trial, at 20 it does not.
FIG5_CLUSTER = (20.0, 320.0)
# Sweep value at which time_to_ci_s is measured, and the inversion Wilson
# half-width it must reach, per sweep family. Both targets take 7k-17k trials,
# so the blocks (200 trials, 1000 per round with two workers) quantize the
# time by a few percent at most.
CI_POINT = {"onsite_fig4": 0.1, "distributed_fig5": 320.0}
CI_TARGET = {"onsite_fig4": 0.001, "distributed_fig5": 0.0015}

KS_KERNELS = (Kernel.BOOLEAN_MAX_EXP, Kernel.BOOLEAN_MAX_PLAW)
KS_PSI = (0.05, 0.2, 1.0)
# A 1% KS level would fail one correct test in a hundred; every run makes
# dozens. At 1e-6 a correct sampler passes and a wrong law still fails.
KS_LEVEL = 1e-6
# Field time-to-CI estimates Pr(g <= FIELD_X) of the boolean exponential field
# at psi = FIELD_PSI (gamma = nu = 1), whose closed form is FIELD_X^(pi psi).
FIELD_PSI = 0.2
FIELD_X = 0.5

# Tolerance of an MC estimate against its reference, in standard deviations.
# Per-check false alarm odds are below 1e-8, so a correct engine with any
# random-stream layout passes every run while a biased one fails.
Z_TOL = 6.0
# Absolute slack of the outages of a few whole trials, for points where p is
# near 0. There a handful of trials with a weak field make all the outages,
# several users each, and the per-trial spread measured from the reference's
# few events says little.
EVENT_SLACK_TRIALS = 3.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Sizes:
    """Work per run. FULL is what the benchmark measures; SMOKE only checks
    that every workload and metric runs."""

    trials_per_point: int | None   # None: the repro's own run.trials (20000)
    block: int               # trials per run_trials_chunk call in time-to-CI
    parallel_block: int      # the same with several workers, per worker
    ci_scale: float          # multiplies the CI_TARGET half-widths
    ks_samples: int
    field_block: int         # samples per sample_intensity call in time-to-CI
    field_ci_target: float
    ci_repeats: int          # time-to-CI measurements per round
    setup_probes: int


# The field target needs 877k samples, comfortably inside the 18th block.
FULL = Sizes(trials_per_point=None, block=200, parallel_block=500, ci_scale=1.0,
             ks_samples=50_000, field_block=50_000, field_ci_target=0.001,
             ci_repeats=3, setup_probes=3)
SMOKE = Sizes(trials_per_point=300, block=100, parallel_block=100, ci_scale=10.0,
              ks_samples=2000, field_block=2000, field_ci_target=0.01,
              ci_repeats=1, setup_probes=1)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def derive_seed(seed: int, *key: int) -> int:
    """Seed of one pass or measurement, fixed by the workload seed."""
    return int(np.random.SeedSequence((seed,) + key).generate_state(1)[0])


def family(workload: str) -> str:
    """sweep_parallel runs the onsite_fig4 sweep."""
    return "onsite_fig4" if workload == "sweep_parallel" else workload


def workers_for(workload: str) -> int:
    return nproc() if workload == "sweep_parallel" else 1


@dataclass(frozen=True)
class Point:
    value: float
    scenario: coverage.ScenarioConfig
    field_points: int        # field evaluations per trial


@dataclass(frozen=True)
class Setup:
    workload: str
    sizes: Sizes
    exp: harness.ExperimentConfig | None = None
    points: tuple[Point, ...] = ()
    specs: tuple[EnergyFieldSpec, ...] = ()

    @property
    def ci_point(self) -> Point:
        return next(p for p in self.points if p.value == CI_POINT[family(self.workload)])


def _experiment(workload: str, sizes: Sizes) -> harness.ExperimentConfig:
    if family(workload) == "onsite_fig4":
        exp = cli._repro_experiment("fig4")
    else:
        exp = replace(cli._repro_experiment("fig5"), sweep_values=FIG5_CLUSTER)
    return replace(exp, n_trials=sizes.trials_per_point or exp.n_trials,
                   workers=workers_for(workload))


def _typical_cluster_size(scen: coverage.ScenarioConfig, window) -> int:
    arch = scen.architecture
    clusters = aggregation.build_clusters(arch.lambda_h, arch.lambda_a, window)
    idx, _ = geometry.nearest_site_indices(window.center[None, :],
                                           clusters.aggregators.sites.points, window)
    return int(np.count_nonzero(clusters.assignment == idx[0]))


def setup(workload: str, sizes: Sizes) -> Setup:
    """Everything a fresh process does before its first trial: config build,
    windows, harvester clusters and the lazy fading moment behind the bounds."""
    if workload == "field_validate":
        specs = tuple(EnergyFieldSpec(gamma=1.0, lambda_e=psi, nu=1.0, kernel=k)
                      for k in KS_KERNELS for psi in KS_PSI)
        return Setup(workload, sizes, specs=specs)
    exp = _experiment(workload, sizes)
    points = []
    for value in exp.sweep_values:
        scen = harness.apply_sweep(exp.scenario, exp.sweep_param, value)
        window = coverage.resolve_window(scen)
        n_field = 1 if isinstance(scen.architecture, coverage.OnSite) \
            else _typical_cluster_size(scen, window)
        for scheme in Scheme:
            coverage.bound_values(scen, scheme)
        points.append(Point(value, scen, n_field))
    return Setup(workload, sizes, exp=exp, points=tuple(points))


class Checks:
    """Correctness checks of one run; error_rate = failed / attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _ref_key(value: float) -> str:
    return repr(float(value))


def _slack(ref: dict, n_trials: int, ref_trials: int) -> float:
    sd = ref["sd_trial"] * math.sqrt(1.0 / n_trials + 1.0 / ref_trials)
    return Z_TOL * sd + EVENT_SLACK_TRIALS / n_trials


# Estimate each closed-form bound dominates, per scheme (acceptance 5).
_BOUNDED = {Scheme.CHANNEL_INDEPENDENT: {"total": "p_out", "aggregated": "p_out",
                                         "energy_shortfall": "p_energy_random",
                                         "max_power_markov": "p_max_power"},
            Scheme.INVERSION: {"total": "p_out", "aggregated": "p_out"}}


def _check_reference(checks: Checks, ref_table: dict, value: float, scheme: Scheme,
                     outages: int, users: int, trials: int) -> None:
    r = ref_table["points"][_ref_key(value)][scheme.value]
    p = outages / users if users else 0.0
    checks.check(abs(p - r["p"]) <= _slack(r, trials, ref_table["trials"]),
                 f"{scheme.value} p_out {p:.5g} over {trials} trials vs reference "
                 f"{r['p']:.5g} at {value}")


def check_point(checks: Checks, ref_table: dict, value: float, ests: dict,
                n_trials: int) -> None:
    """Scheme ordering and bound dominance of one point's estimates."""
    ref = ref_table["points"][_ref_key(value)]
    ci, inv = ests[Scheme.CHANNEL_INDEPENDENT], ests[Scheme.INVERSION]
    checks.check(inv.n_outages <= ci.n_outages, f"p_inv > p_ci at {value}")
    for scheme, est in ests.items():
        slack = _slack(ref[scheme.value], n_trials, ref_table["trials"])
        for bound, attr in _BOUNDED[scheme].items():
            if bound in est.bound_values:
                checks.check(getattr(est, attr) <= est.bound_values[bound] + slack,
                             f"{scheme.value} {attr} above bound {bound} at {value}")


def _by_value(rows) -> dict[float, dict]:
    by_value: dict[float, dict] = {}
    for row in rows:
        by_value.setdefault(row.sweep_value, {})[row.scheme] = row.estimate
    return by_value


def check_rows(checks: Checks, ref_table: dict, rows) -> None:
    for value, ests in _by_value(rows).items():
        check_point(checks, ref_table, value, ests, rows[0].n_trials)


class PooledCounts:
    """Outages, users and trials per (sweep value, scheme), summed over the
    run's independent seeds: sweep passes and time-to-CI measurements.
    Checking the pooled estimate against the reference narrows the tolerance
    by the square root of the number of trials pooled."""

    def __init__(self) -> None:
        self.counts: dict[tuple[float, Scheme], list[int]] = {}

    def add(self, value: float, ests: dict, n_trials: int) -> None:
        for scheme, est in ests.items():
            c = self.counts.setdefault((value, scheme), [0, 0, 0])
            c[0] += est.n_outages
            c[1] += est.n_users
            c[2] += n_trials

    def add_rows(self, rows) -> None:
        for value, ests in _by_value(rows).items():
            self.add(value, ests, rows[0].n_trials)

    def check(self, checks: Checks, ref_table: dict) -> None:
        for (value, scheme), (outages, users, trials) in self.counts.items():
            _check_reference(checks, ref_table, value, scheme, outages, users, trials)


@dataclass(frozen=True)
class Pass:
    """One full workload pass: a sweep with its CSV, or the six KS tests."""

    wall: Timing             # whole pass, CSV emit included
    run: Timing              # trial (or sampling) time only
    trials: int
    samples: int
    point_walls: tuple[float, ...] = ()   # per point, scaled like `run`
    csv: bytes = b""


def sweep_pass(st: Setup, seed: int, csv_path: Path, clock: HostClock) -> tuple[Pass, list]:
    start = clock.mark()
    rows = harness.run_sweep(st.exp, seed)
    run = clock.since(start)
    harness.emit_csv(rows, csv_path)
    wall = clock.since(start)
    n = st.exp.n_trials
    scale = run.scaled_s / run.raw_s
    walls = tuple(scale * r.wall_time for r in rows[::len(Scheme)])
    return Pass(wall, run, n * len(st.points),
                n * sum(p.field_points for p in st.points), walls,
                csv_path.read_bytes()), rows


def field_pass(st: Setup, seed: int, checks: Checks, clock: HostClock) -> Pass:
    n = st.sizes.ks_samples
    start = clock.mark()
    results = [harness.validate_field_law(spec, n, derive_seed(seed, i), KS_LEVEL)
               for i, spec in enumerate(st.specs)]
    wall = clock.since(start)
    for spec, res in zip(st.specs, results):
        checks.check(res.passed, f"KS {spec.kernel.value} psi={spec.psi:g} "
                                 f"D={res.statistic:.5f} > {res.critical:.5f}")
    return Pass(wall, wall, n * len(st.specs), n * len(st.specs))


@dataclass(frozen=True)
class TimeToCI:
    time: Timing
    trials: int


# Cap on blocks, so an engine whose interval never narrows still ends.
_MAX_BLOCKS = 400


def time_to_ci(st: Setup, seed: int, checks: Checks, ref_table: dict,
               pooled: PooledCounts | None, clock: HostClock) -> TimeToCI:
    """Wall time to bring the inversion Wilson half-width at the fixed point
    to the target, adding blocks of trials and merging their tallies. With
    several workers, each round runs one larger block per worker in a process
    pool, so that waiting for the round's slower worker weighs less.
    The final counts go to `pooled` when given."""
    point = st.ci_point
    scen, workers = point.scenario, st.exp.workers
    block = st.sizes.parallel_block if workers > 1 else st.sizes.block
    target = CI_TARGET[family(st.workload)] * st.sizes.ci_scale
    start = clock.mark()
    # fork, as run_point's pool uses on Linux, so both measure the same mechanics
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) \
        if workers > 1 else nullcontext()
    tally = coverage.TrialTally()
    done = 0
    with pool:
        while True:
            chunks = [(done + i * block, done + (i + 1) * block) for i in range(workers)]
            if workers > 1:
                futures = [pool.submit(harness.run_trials_chunk, scen, a, b, seed)
                           for a, b in chunks]
                parts = [f.result() for f in futures]
            else:
                parts = [harness.run_trials_chunk(scen, a, b, seed) for a, b in chunks]
            for part in parts:
                tally = tally + part
            done = chunks[-1][1]
            ests = harness.estimates_from_tally(scen, tally)
            hw = ests[Scheme.INVERSION].ci_halfwidth
            if hw <= target or done >= _MAX_BLOCKS * block:
                break
    time = clock.since(start)
    checks.check(hw <= target, f"half-width {hw:.5g} not reached")
    check_point(checks, ref_table, point.value, ests, done)
    if pooled is not None:
        pooled.add(point.value, ests, done)
    return TimeToCI(time, done)


def field_time_to_ci(st: Setup, seed: int, checks: Checks, clock: HostClock) -> TimeToCI:
    """Wall time to bring the Wilson half-width of the sampled Pr(g <= x) to
    the target, adding blocks of field samples."""
    spec = EnergyFieldSpec(gamma=1.0, lambda_e=FIELD_PSI, nu=1.0)
    block = st.sizes.field_block
    window = energy_field.validation_window(spec, block)
    start = clock.mark()
    below = n = 0
    while True:
        vals = energy_field.sample_intensity(spec, window, window.center, block,
                                             geometry.substream(seed, n // block))
        below += int(np.count_nonzero(vals <= FIELD_X))
        n += block
        lo, hi = stats.wilson_ci(below, n)
        hw = 0.5 * (hi - lo)
        if hw <= st.sizes.field_ci_target or n >= _MAX_BLOCKS * block:
            break
    time = clock.since(start)
    exact = float(energy_field.cdf_boolean_exp(FIELD_X, spec))
    # realizations with no center within half the side read 0 instead of g
    truncation = math.exp(-math.pi * spec.lambda_e * (0.5 * window.width) ** 2)
    slack = Z_TOL * math.sqrt(exact * (1.0 - exact) / n) + truncation
    checks.check(hw <= st.sizes.field_ci_target, f"field half-width {hw:.5g} not reached")
    checks.check(abs(below / n - exact) <= slack,
                 f"field Pr(g <= {FIELD_X}) {below / n:.5f} vs exact {exact:.5f}")
    return TimeToCI(time, n)
