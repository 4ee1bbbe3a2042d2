"""Smoke test of the benchmark: every workload, untraced and traced, with a
few hundred trials per point.

    python3 bench/smoke.py

Each run must end with a result line whose metrics are exactly the ones
BENCHMARK.json names for its mode, each with its unit, with every correctness
check passed, and must write a result file carrying the run metadata. Prints
one line per run and exits non-zero if any run falls short.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
METADATA_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "git_sha",
                 "seed", "trials_per_point", "sizes")


def _problems(proc: subprocess.CompletedProcess, expected: dict, out: Path) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks: {result['failed']} of {result['attempted']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(expected))} "
                        f"{[n for n in got if n in expected and got[n] != expected[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} = {m['value']!r}")
    metadata = json.loads(out.read_text(encoding="utf-8"))["metadata"]
    problems.extend(f"metadata lacks {key}" for key in METADATA_KEYS if key not in metadata)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = ROOT / ".bench_out" / "smoke" / f"{workload}-trace{trace}.json"
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--smoke", "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            problems = _problems(proc, expected[trace], out)
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}"
                  + "".join(f"\n     {p}" for p in problems), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
