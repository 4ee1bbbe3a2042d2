"""Host-speed sampling, to scale the benchmark's timings to a reference speed.

The benchmark runs on shared hosts whose speed changes by up to about 1.7x
within a second, as other tenants' work comes and goes on the same cores.
Process CPU time follows wall time there, so neither removes it. A
``HostClock`` runs a short fixed tick of interpreter work and small numpy
calls every ``INTERVAL_S`` seconds of wall time, from a SIGALRM handler in the
main thread, between the library's own Python-level steps. How long a tick
takes is a sample of the host's speed at that moment. A timed stretch of
work is reported twice: as raw seconds, and scaled to a host whose tick takes
``REF_TICK_S``:

    scaled = raw * REF_TICK_S / mean tick time during the stretch

The tick calls no renergy code, so a change to the program moves the raw and
the scaled figures alike. The driving process's tick time is left out of the
raw seconds. Each tick is clipped at twice the stretch's median tick, so that
one tick that lost the CPU for a while does not move the mean.
"""

from __future__ import annotations

import mmap
import os
import signal
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
# About the median tick during runs on the host the benchmark was built on
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4), so scaled figures read close
# to raw ones there. It only fixes the scale: any constant gives the same
# ratios between runs.
REF_TICK_S = 3.0e-4

# The tick mixes what a trial does: interpreter work, small numpy calls and
# an in-cache sort. Run beside the benchmark's own passes, this mix tracked
# their speed better than interpreter work alone, scattered reads from a
# large array, or a mix of those two.
_X = np.random.default_rng(0).random(2048)


def _tick() -> float:
    s = 0.0
    for i in range(700):
        s += (i & 7) * 0.5
    for i in range(40):
        s += np.count_nonzero(_X[i:i + 64] > 0.5)
        np.cumsum(_X[i:i + 64])
    np.sort(_X)
    return s


# A pool worker adds its ticks to a table shared with the driving process;
# it clips each at this cap, since it cannot see the stretch's median.
_WORKER_TICK_CAP_S = 4 * REF_TICK_S
# Fewest worker ticks for a CPU to count in a stretch.
_MIN_WORKER_TICKS = 4


@dataclass(frozen=True)
class Mark:
    t: float
    spent: float
    index: int
    workers: np.ndarray | None


@dataclass(frozen=True)
class Timing:
    raw_s: float             # wall seconds, tick time left out
    scaled_s: float          # raw_s at the reference host speed
    mean_tick_s: float
    ticks: int


def mean_tick(ticks) -> float:
    """Mean tick time, each tick clipped at twice the median."""
    cap = 2.0 * statistics.median(ticks)
    return statistics.fmean(min(t, cap) for t in ticks)


class HostClock:
    """Samples the tick while started; times stretches of work with it."""

    def __init__(self) -> None:
        self.tick_s = array("d")
        self.spent = 0.0
        self._busy = False
        self._workers: np.ndarray | None = None   # per CPU: tick seconds, ticks
        self._slot = -1                           # this worker's CPU row

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            _tick()
            dt = perf_counter() - t0
            self.tick_s.append(dt)
            self.spent += dt
            if self._slot >= 0:
                self._workers[self._slot] += (min(dt, _WORKER_TICK_CAP_S), 1.0)
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def follow_forked_workers(self) -> None:
        """Pin every process forked from now on to the next allowed CPU in
        turn, and tick in it too. Left to itself the kernel often wakes both
        workers of a pool on one CPU while the other idles, which doubles a
        parallel stretch at random. A stretch in which workers ran is scaled
        by the workers' ticks alone: the mean over CPUs of each CPU's mean."""
        cpus = sorted(os.sched_getaffinity(0))
        self._workers = np.frombuffer(mmap.mmap(-1, 16 * len(cpus)),
                                      dtype=np.float64).reshape(len(cpus), 2)
        forks = [0]

        def before():
            forks[0] += 1

        def after_in_child():
            self._slot = forks[0] % len(cpus)
            os.sched_setaffinity(0, {cpus[self._slot]})
            self.start()

        os.register_at_fork(before=before, after_in_child=after_in_child)

    def mark(self) -> Mark:
        """Start of a stretch; takes one tick so every stretch has two."""
        self._sample()
        workers = None if self._workers is None else self._workers.copy()
        return Mark(perf_counter(), self.spent, len(self.tick_s) - 1, workers)

    def since(self, mark: Mark) -> Timing:
        """The stretch from `mark` to now; takes one tick first."""
        t = perf_counter()
        raw = t - mark.t - (self.spent - mark.spent)
        self._sample()
        tick = mean_tick(self.tick_s[mark.index:])
        ticks = len(self.tick_s) - mark.index
        if self._workers is not None:
            d = self._workers - mark.workers
            busy = d[:, 1] >= _MIN_WORKER_TICKS
            if busy.any():
                tick = float(np.mean(d[busy, 0] / d[busy, 1]))
                ticks = int(d[busy, 1].sum())
        return Timing(raw, raw * REF_TICK_S / tick, tick, ticks)
