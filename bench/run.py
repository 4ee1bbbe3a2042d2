"""renergy benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload onsite_fig4 --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A result file with the run's metadata
goes to .bench_out/ at the checkout root (or --out). See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
from hostspeed import HostClock, Timing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "trials_per_s": "1/s",
    "time_to_ci_s": "s",
    "samples_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

RTC = "coverage.run_trials_chunk"
# Every traced layer run_trials_chunk calls directly: most once or a few
# times per trial, the last three once per chunk (window and clusters).
PER_TRIAL_LAYERS = ("geometry.substream", "geometry.sample_in_hex_cell",
                    "energy_field.draw_field", "energy_field.field_values",
                    "channel.required_power", "channel.sample_fading",
                    "aggregation.delivered_power", "coverage.resolve_window",
                    "aggregation.build_clusters", "geometry.nearest_site_indices")
# Layers reported as mean seconds per call.
PER_CALL_LAYERS = ("energy_field.sample_intensity", "stats.ks_statistic",
                   "aggregation.build_clusters", "coverage.estimates_from_tally",
                   "bounds.bound_values", "harness.run_point", "harness.emit_csv")

PER_LAYER = {
    **{f"{n}.us_per_trial": "us" for n in PER_TRIAL_LAYERS},
    **{f"{n}.calls_per_trial": "count" for n in PER_TRIAL_LAYERS},
    "energy_field.centers_per_trial": "count",
    "energy_field.field_values.points_per_call": "count",
    "energy_field.pair_distances_per_trial": "count",
    **{f"{n}.s": "s" for n in PER_CALL_LAYERS},
    "channel.mean_inverse_fading.first_call_s": "s",
    "coverage.run_trials_chunk.us_per_trial": "us",
    "coverage.self.us_per_trial": "us",
    "coverage.users_per_trial": "count",
    "harness.pool_overhead_s": "s",
    "tracing_overhead_pct": "%",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="renergy benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few hundred trials per point: checks that everything runs")
    ap.add_argument("--out", help="result file (default .bench_out/<workload>-seed<n>-trace<t>.json)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    return args


# ---- work counts recorded by the traced run ------------------------------

def _count_centers(counters, real, *args):
    counters["centers"] += len(real.centers)


def _count_field_points(counters, values, real, points):
    counters["field_points"] += len(values)
    counters["pair_distances"] += len(values) * len(real.centers)


def _count_trials(counters, tally, *args):
    counters["trials"] += tally.trials
    counters["users"] += tally.users


def _register(tracer) -> None:
    """Wrap each layer function where its caller looks it up."""
    from renergy import aggregation, coverage, energy_field, harness
    counts = {"draw_field": _count_centers, "field_values": _count_field_points,
              "run_trials_chunk": _count_trials}
    lookups = [
        (coverage, "substream", "geometry.substream"),
        (coverage, "draw_field", "energy_field.draw_field"),
        (coverage, "field_values", "energy_field.field_values"),
        (coverage, "sample_in_hex_cell", "geometry.sample_in_hex_cell"),
        (coverage, "sample_fading", "channel.sample_fading"),
        (coverage, "required_power", "channel.required_power"),
        (coverage, "delivered_power", "aggregation.delivered_power"),
        (coverage, "build_clusters", "aggregation.build_clusters"),
        (coverage, "nearest_site_indices", "geometry.nearest_site_indices"),
        (coverage, "resolve_window", "coverage.resolve_window"),
        (coverage, "mean_inverse_fading", "channel.mean_inverse_fading"),
        (coverage, "bound_values", "bounds.bound_values"),
        (harness, "run_trials_chunk", RTC),
        (harness, "run_point", "harness.run_point"),
        (harness, "estimates_from_tally", "coverage.estimates_from_tally"),
        (harness, "emit_csv", "harness.emit_csv"),
        (harness, "validate_field_law", "harness.validate_field_law"),
        (harness, "sample_intensity", "energy_field.sample_intensity"),
        (harness, "ks_statistic", "stats.ks_statistic"),
        (energy_field, "sample_intensity", "energy_field.sample_intensity"),
        (aggregation, "build_clusters", "aggregation.build_clusters"),
    ]
    for module, attr, name in lookups:
        tracer.add(module, attr, name, counts.get(attr))


def _layer_metrics(summary, counters, first_moment_s, overhead_pct, pool_overhead_s,
                   checks):
    trials = counters["trials"]

    def per_trial(x):
        return x / trials if trials else 0.0

    def span(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "first_s": 0.0, "under": {}})

    m = {}
    for name in PER_TRIAL_LAYERS:
        under = span(name)["under"].get(RTC, {"calls": 0, "seconds": 0.0})
        m[f"{name}.us_per_trial"] = 1e6 * per_trial(under["seconds"])
        m[f"{name}.calls_per_trial"] = per_trial(under["calls"])
    for name in PER_CALL_LAYERS:
        s = span(name)
        m[f"{name}.s"] = s["total_s"] / s["calls"] if s["calls"] else 0.0
    fv_calls = span("energy_field.field_values")["calls"]
    m["energy_field.centers_per_trial"] = per_trial(counters["centers"])
    m["energy_field.field_values.points_per_call"] = \
        counters["field_points"] / fv_calls if fv_calls else 0.0
    m["energy_field.pair_distances_per_trial"] = per_trial(counters["pair_distances"])
    m["channel.mean_inverse_fading.first_call_s"] = first_moment_s
    rtc = span(RTC)
    m["coverage.run_trials_chunk.us_per_trial"] = 1e6 * per_trial(rtc["total_s"])
    m["coverage.self.us_per_trial"] = 1e6 * per_trial(rtc["self_s"])
    m["coverage.users_per_trial"] = per_trial(counters["users"])
    m["harness.pool_overhead_s"] = pool_overhead_s
    m["tracing_overhead_pct"] = overhead_pct
    # The reported layers under run_trials_chunk plus its self time must add
    # up to its span time; a direct child missing from PER_TRIAL_LAYERS fails.
    parts = sum(m[f"{n}.us_per_trial"] for n in PER_TRIAL_LAYERS) \
        + m["coverage.self.us_per_trial"]
    total = m["coverage.run_trials_chunk.us_per_trial"]
    checks.check(abs(parts - total) <= 1e-6 * max(1.0, total),
                 f"run_trials_chunk layers + self {parts:.6g} us != span {total:.6g} us")
    return m


# ---- metadata -------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    """HEAD commit read from .git without running git (a checkout without
    .git reports None)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(args, sizes, exp) -> dict:
    import scipy
    import workloads
    return {
        "nproc": workloads.nproc(), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(), "git_sha": _git_sha(),
        "start_method": multiprocessing.get_start_method(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "workers": exp.workers if exp else 1,
        "trials_per_point": exp.n_trials if exp else None,
        "sizes": asdict(sizes),
        "tick_interval_s": hostspeed.INTERVAL_S, "ref_tick_s": hostspeed.REF_TICK_S,
    }


# ---- measurement ------------------------------------------------------------

def _probe_setup(args) -> Timing:
    """Wall time of a fresh process that imports renergy, sets the workload
    up and exits before its first trial, scaled by the ticks it takes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.smoke:
        cmd.append("--smoke")
    t0 = perf_counter()
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
    wall = perf_counter() - t0
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = wall - probe["tick_spent_s"]
    tick = probe["mean_tick_s"]
    return Timing(raw, raw * hostspeed.REF_TICK_S / tick, tick, probe["ticks"])


def _run_probe(args) -> None:
    """Body of the set-up probe: the clock starts as soon as numpy is in."""
    clock = HostClock()
    clock.start()
    try:
        start = clock.mark()
        import workloads
        workloads.setup(args.workload, workloads.SMOKE if args.smoke else workloads.FULL)
        t = clock.since(start)
    finally:
        clock.stop()
    print(json.dumps({"mean_tick_s": t.mean_tick_s, "ticks": t.ticks,
                      "tick_spent_s": clock.spent}))


def _round(st, k, seed, checks, ref, csv_path, serial_csv, clock, pooled=None):
    """One workload pass and its time-to-CI measurements. Outage counts from
    independent seeds go to `pooled` when given."""
    import workloads
    # A field_validate round is short, so the run repeats rounds instead;
    # more rounds put more of the run into the KS passes.
    repeats = 1 if st.workload == "field_validate" else st.sizes.ci_repeats
    ci_seeds = [workloads.derive_seed(seed, 1, k, j) for j in range(repeats)]
    if st.workload == "field_validate":
        p = workloads.field_pass(st, workloads.derive_seed(seed, 0, k), checks, clock)
        return p, [workloads.field_time_to_ci(st, s, checks, clock) for s in ci_seeds]
    # sweep_parallel repeats one seed so every pass can be compared with the
    # one serial CSV
    pass_seed = workloads.derive_seed(seed, 0, 0 if serial_csv is not None else k)
    p, rows = workloads.sweep_pass(st, pass_seed, csv_path, clock)
    workloads.check_rows(checks, ref, rows)
    if serial_csv is not None:
        checks.check(p.csv == serial_csv, "parallel CSV differs from the serial CSV")
    elif pooled is not None:
        pooled.add_rows(rows)
    return p, [workloads.time_to_ci(st, s, checks, ref, pooled, clock) for s in ci_seeds]


def run(args) -> dict:
    clock = HostClock()
    clock.start()
    try:
        return _run(args, clock)
    finally:
        clock.stop()


def _run(args, clock: HostClock) -> dict:
    import workloads
    from tracing import Tracer

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    setup_tracer = tracer = None
    if args.trace:
        setup_tracer, tracer = Tracer(), Tracer()
        _register(setup_tracer)
        _register(tracer)
        setup_tracer.install()
    st = workloads.setup(args.workload, sizes)
    if setup_tracer:
        setup_tracer.uninstall()

    OUT_DIR.mkdir(exist_ok=True)
    csv_path = OUT_DIR / f"{args.workload}-{os.getpid()}.csv"
    checks = workloads.Checks()
    ref = workloads.load_reference()[workloads.family(args.workload)] \
        if st.exp is not None else None
    # Reference checks run on counts pooled over the run's independent seeds.
    # sweep_parallel repeats one sweep seed, so only its serial run is pooled.
    # Traced rounds rerun the seeds of untraced ones and are not pooled.
    pooled = workloads.PooledCounts()
    serial_csv, serial_walls = None, ()
    if st.exp is not None and st.exp.workers > 1:
        clock.follow_forked_workers()
        serial = replace(st, exp=replace(st.exp, workers=1))
        sp, rows = workloads.sweep_pass(serial, workloads.derive_seed(args.seed, 0, 0),
                                        OUT_DIR / f"{args.workload}-{os.getpid()}-serial.csv",
                                        clock)
        workloads.check_rows(checks, ref, rows)
        pooled.add_rows(rows)
        serial_csv, serial_walls = sp.csv, sp.point_walls

    rounds, traced = [], []
    timed = 0.0
    while not rounds or timed < args.seconds:
        k = len(rounds)
        t0 = perf_counter()
        rounds.append(_round(st, k, args.seed, checks, ref, csv_path, serial_csv, clock,
                             pooled))
        if tracer:
            tracer.install()
            try:
                traced.append(_round(st, k, args.seed, checks, ref, csv_path, serial_csv,
                                     clock))
            finally:
                tracer.uninstall()
        timed += perf_counter() - t0
    setups = [_probe_setup(args) for _ in range(0 if args.trace else sizes.setup_probes)]
    for path in OUT_DIR.glob(f"{args.workload}-{os.getpid()}*"):
        path.unlink()
    if ref is not None:
        pooled.check(checks, ref)

    passes = [p for p, _ in rounds]
    cis = [c for _, cs in rounds for c in cs]
    med = statistics.median
    pool_overhead = med(
        statistics.fmean(par - ser / st.exp.workers
                         for par, ser in zip(p.point_walls, serial_walls))
        for p in passes) if serial_walls else 0.0
    # Every time below is scaled to the reference host speed (hostspeed.py);
    # the raw wall-clock figures are kept beside them.
    stretches = [p.wall for p in passes] + [c.time for c in cis] + setups
    ticks = [t.mean_tick_s for t in stretches]
    raw_run_s = sum(p.run.raw_s for p in passes)
    extra = {
        "error_rate": {"value": len(checks.failures) / checks.attempted, "unit": "ratio"},
        "trials_to_ci": {"value": med(c.trials for c in cis), "unit": "count"},
        "raw_trials_per_s": {"value": sum(p.trials for p in passes) / raw_run_s,
                             "unit": "1/s"},
        "raw_time_to_ci_s": {"value": statistics.fmean(c.time.raw_s for c in cis),
                             "unit": "s"},
        "raw_wall_s": {"value": statistics.fmean(p.wall.raw_s for p in passes), "unit": "s"},
        "host_tick_ms": {"value": 1e3 * hostspeed.mean_tick(clock.tick_s), "unit": "ms"},
        "host_tick_max_over_min": {"value": max(ticks) / min(ticks), "unit": "ratio"},
        "rounds": {"value": len(rounds), "unit": "count"},
    }
    if setups:
        extra["raw_setup_s"] = {"value": med(t.raw_s for t in setups), "unit": "s"}
    summary = spans_file = None
    if tracer:
        def total(r):
            return r[0].wall.scaled_s + sum(c.time.scaled_s for c in r[1])
        overhead = 100.0 * (med(total(t) / total(u) for u, t in zip(rounds, traced)) - 1.0)
        summary = tracer.summary()
        spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz"
        np.savez_compressed(spans_file, names=np.array(tracer.names), **tracer.spans())
        first_moment = setup_tracer.summary()["channel.mean_inverse_fading"]["first_s"]
        metrics = _layer_metrics(summary, tracer.counters, first_moment, overhead,
                                 pool_overhead, checks)
        units = PER_LAYER
    else:
        run_s = sum(p.run.scaled_s for p in passes)
        metrics = {
            "trials_per_s": sum(p.trials for p in passes) / run_s,
            "time_to_ci_s": statistics.fmean(c.time.scaled_s for c in cis),
            "samples_per_s": sum(p.samples for p in passes) / run_s,
            "wall_s": statistics.fmean(p.wall.scaled_s for p in passes),
            "setup_s": med(t.scaled_s for t in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "metadata": _metadata(args, sizes, st.exp),
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures[:50],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "extra": extra,
        "samples": {
            "pass_wall_s": [asdict(p.wall) for p in passes],
            "pass_run_s": [asdict(p.run) for p in passes],
            "time_to_ci_s": [asdict(c.time) for c in cis],
            "trials_to_ci": [c.trials for c in cis],
            "setup_s": [asdict(t) for t in setups],
        },
        "trace": summary,
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "renergy" / "__init__.py").is_file():
        print(f"error: no renergy sources under {src}; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.probe_setup:
        _run_probe(args)
        return 0
    import workloads  # imports renergy from the checkout's src/
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result = run(args)
    out = Path(args.out) if args.out else \
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for name, m in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
