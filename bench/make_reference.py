"""Regenerate bench/reference.json, the outage table the benchmark checks
its sweep estimates against.

    python3 bench/make_reference.py

Each sweep point runs TRIALS trials in BLOCKS equal blocks of one fixed seed,
over one pool worker per CPU. The table keeps, per point and scheme, the
pooled p_out and the standard deviation of one trial's contribution
(sd_trial), estimated from the spread between blocks. That spread includes
the correlation between users of one trial, which a per-user binomial
interval leaves out.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from renergy import harness  # noqa: E402

REFERENCE_SEED = 20140408
TRIALS = 200_000
BLOCKS = 100


def _scheme_stats(tallies, out_attr: str) -> dict:
    users = sum(t.users for t in tallies)
    outs = sum(getattr(t, out_attr) for t in tallies)
    p = outs / users
    n_blocks = len(tallies)
    resid = sum((getattr(t, out_attr) - p * t.users) ** 2 for t in tallies)
    var_p = n_blocks / (n_blocks - 1) * resid / users ** 2
    trials = sum(t.trials for t in tallies)
    return {"p": p, "sd_trial": math.sqrt(var_p * trials)}


def main() -> int:
    block = TRIALS // BLOCKS
    table = {}
    with ProcessPoolExecutor(workloads.nproc()) as pool:
        for fam in ("onsite_fig4", "distributed_fig5"):
            st = workloads.setup(fam, workloads.FULL)
            points = {}
            for pt in st.points:
                tallies = list(pool.map(
                    harness.run_trials_chunk, [pt.scenario] * BLOCKS,
                    [b * block for b in range(BLOCKS)],
                    [(b + 1) * block for b in range(BLOCKS)],
                    [REFERENCE_SEED] * BLOCKS))
                points[repr(float(pt.value))] = {
                    "channel_independent": _scheme_stats(tallies, "out_ci"),
                    "inversion": _scheme_stats(tallies, "out_inv")}
                print(fam, pt.value, points[repr(float(pt.value))], flush=True)
            table[fam] = {"trials": block * BLOCKS, "seed": REFERENCE_SEED,
                          "points": points}
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=2) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
