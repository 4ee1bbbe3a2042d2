"""Command-line front end.

Verbs:
  run             single configured point (both schemes)
  sweep           one-parameter sweep, e.g. --sweep psi=0.05,0.1,0.2
  validate-field  KS check of sampled field values against the closed law
  bounds          print the closed-form bounds applicable to a config
  repro           canned reference sweeps (fig4: center-density sweep of the
                  on-site profile; fig5: cluster-size sweep of the distributed
                  profile with lossless lines)

Exit codes: 0 success, 2 bad configuration or usage, 3 completed but
low-confidence (too few users observed) or a failed validation.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .bounds import in_asymptotic_regime
from .coverage import Scheme, bound_inputs, bound_values
from .energy_field import EnergyFieldSpec, Kernel
from .harness import (SEED_ENV_VAR, ConfigError, ExperimentConfig, effective_seed,
                      emit_csv, load_config, parse_config_text, parse_numbers,
                      run_sweep, validate_field_law)

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_LOW_CONFIDENCE = 3

_FIG4_PSI = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)
# Cluster sizes with an integer number of stations per aggregator for the
# default harvester/station densities (15.6 and 0.78 per km^2).
_FIG5_CLUSTER = (20.0, 40.0, 80.0, 160.0, 320.0)


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="CSV output path (prints a table if omitted)")
    p.add_argument("--trials", type=int, help="trials per point")
    p.add_argument("--seed", type=int, help="master seed (beats RENERGY_SEED)")
    p.add_argument("--workers", type=int, help="worker processes")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="renergy",
                                     description="Outage simulation and bounds for "
                                                 "renewably powered cellular downlinks")
    sub = parser.add_subparsers(dest="verb", required=True)

    rn = sub.add_parser("run", help="run the configured point")

    sp = sub.add_parser("sweep", help="run a one-parameter sweep")
    sp.add_argument("--sweep", required=True, metavar="KEY=V1,V2,...",
                    help="parameter name and comma-separated values")

    vf = sub.add_parser("validate-field", help="KS-test the field sampler")
    vf.add_argument("--kernel", default="exp", choices=("exp", "plaw", "both"))
    vf.add_argument("--psi", default="0.05,0.2,1.0",
                    help="comma-separated center-density/kernel-scale products")
    vf.add_argument("--samples", type=int, default=100_000)
    vf.add_argument("--seed", type=int, default=None)

    bp = sub.add_parser("bounds", help="print applicable closed-form bounds")

    # repro runs a canned profile, so it takes no --config
    rp = sub.add_parser("repro", help="rebuild a canned reference sweep")
    rp.add_argument("figure", choices=("fig4", "fig5"))

    for p in (rn, sp, bp):
        p.add_argument("--config", help="config file (defaults to the built-in profile)")
    for p in (rn, sp, rp):
        _add_run_args(p)
    return parser


def _apply_overrides(exp: ExperimentConfig, args: argparse.Namespace,
                     **changes) -> ExperimentConfig:
    """exp with the command-line settings; ExperimentConfig checks them all."""
    flags = {"n_trials": args.trials, "workers": args.workers, "output": args.out}
    changes.update({k: v for k, v in flags.items() if v is not None})
    return replace(exp, seed=effective_seed(exp.seed, args.seed), **changes)


def _sweep_overrides(args: argparse.Namespace) -> dict:
    """The sweep verb's --sweep flag as config changes; none for run."""
    if args.verb != "sweep":
        return {}
    key, sep, raw = args.sweep.partition("=")
    if not sep or not key.strip():
        raise ConfigError(f"--sweep: expected KEY=V1,V2,..., got {args.sweep!r}")
    return {"sweep_param": key.strip(), "sweep_values": parse_numbers("--sweep", raw)}


def _print_rows(rows) -> None:
    header = f"{'scheme':>20s} {'sweep':>16s} {'p_out':>12s} {'ci_lo':>12s} " \
             f"{'ci_hi':>12s} {'users':>9s} {'flags':>6s}"
    print(header)
    for row in rows:
        est = row.estimate
        sweep = "-" if row.sweep_value is None else f"{row.sweep_value:g}"
        flag = "LOW" if est.low_confidence else ""
        print(f"{row.scheme.value:>20s} {sweep:>16s} {est.p_out:12.5g} "
              f"{est.ci_lo:12.5g} {est.ci_hi:12.5g} {est.n_users:9d} {flag:>6s}")


def _finish_rows(rows, out: str | None) -> int:
    if out:
        path = emit_csv(rows, out)
        print(f"wrote {path} and {path}.plot.py")
    else:
        _print_rows(rows)
    if any(r.estimate.low_confidence for r in rows):
        print("warning: low confidence (fewer than 100 users, or an expected-count "
              "interval without a spread, at some point)", file=sys.stderr)
        return _EXIT_LOW_CONFIDENCE
    return _EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    exp, sweep = load_config(args.config), _sweep_overrides(args)
    try:
        exp = _apply_overrides(exp, args, **sweep)
    except ConfigError as exc:
        # ExperimentConfig's sweep errors name the config keys; these name the flag
        key, _, reason = str(exc).partition(": ")
        if not sweep or key not in ("sweep.param", "sweep.values"):
            raise
        raise ConfigError(f"--sweep: {reason}") from None
    return _finish_rows(run_sweep(exp), exp.output)


def _cmd_validate_field(args: argparse.Namespace) -> int:
    kernels = {"exp": (Kernel.BOOLEAN_MAX_EXP,),
               "plaw": (Kernel.BOOLEAN_MAX_PLAW,),
               "both": (Kernel.BOOLEAN_MAX_EXP, Kernel.BOOLEAN_MAX_PLAW)}[args.kernel]
    psis = parse_numbers("--psi", args.psi)
    if not psis or not all(0 < p < math.inf for p in psis):
        raise ConfigError(f"--psi: must be positive finite numbers, got {args.psi!r}")
    if args.samples < 100:
        raise ConfigError(f"--samples: the asymptotic KS test needs at least 100, "
                          f"got {args.samples}")
    seed = effective_seed(0, args.seed)
    if seed < 0:
        source = "--seed" if args.seed is not None else SEED_ENV_VAR
        raise ConfigError(f"{source}: must be a non-negative integer, got {seed}")
    all_ok = True
    for kernel in kernels:
        for psi in psis:
            spec = EnergyFieldSpec(gamma=1.0, lambda_e=psi, nu=1.0, kernel=kernel)
            res = validate_field_law(spec, args.samples, seed)
            ok = res.passed
            all_ok &= ok
            print(f"{kernel.value:18s} psi={psi:<6g} D={res.statistic:.5f} "
                  f"critical={res.critical:.5f} n={res.n}  "
                  f"{'PASS' if ok else 'FAIL'}")
    return _EXIT_OK if all_ok else _EXIT_LOW_CONFIDENCE


def _cmd_bounds(args: argparse.Namespace) -> int:
    exp = load_config(args.config)
    cfg = exp.scenario
    for scheme in Scheme:
        vals = bound_values(cfg, scheme)
        print(f"[{scheme.value}]")
        if not vals:
            print("  no closed-form bound applies to this configuration")
        for name, v in sorted(vals.items()):
            print(f"  {name} = {v:.6g}")
    b = bound_inputs(cfg)
    print(f"deep-tail asymptotic regime: {'yes' if in_asymptotic_regime(b) else 'no'}")
    return _EXIT_OK


def _repro_experiment(figure: str) -> ExperimentConfig:
    exp = load_config(None)
    if figure == "fig4":
        return replace(exp, sweep_param="psi", sweep_values=_FIG4_PSI)
    # fig5: distributed, lossless lines, modest peak harvest, cluster-size sweep
    text = "\n".join([
        "field.gamma = 10",
        "scenario.architecture = distributed",
        "distributed.lambda_h = 15.6",
        "distributed.lambda_a = 0.78",
        "distributed.voltage = inf",
    ])
    exp = parse_config_text(text)
    return replace(exp, sweep_param="cluster_size", sweep_values=_FIG5_CLUSTER)


def _cmd_repro(args: argparse.Namespace) -> int:
    exp = _apply_overrides(_repro_experiment(args.figure), args)
    out = exp.output or f"repro_{args.figure}.csv"
    return _finish_rows(run_sweep(exp), out)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_run,
                "validate-field": _cmd_validate_field,
                "bounds": _cmd_bounds, "repro": _cmd_repro}
    try:
        return handlers[args.verb](args)
    except (OSError, ValueError) as exc:   # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
