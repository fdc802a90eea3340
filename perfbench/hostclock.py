"""A clock that discounts the shared host's changing speed.

The benchmark's host gives it a few cores of a shared machine, and how fast a
core runs swings by up to 1.8x, from one millisecond to the next and from one
minute to the next, with the load of its neighbours.  A run's wall time
follows those swings, so two runs of the same code on the same inputs can
differ by a third.

``HostClock`` measures the swings from inside the worker.  While it runs, a
wall-clock timer interrupts the worker every ``INTERVAL_S`` seconds of its own
time and runs a fixed probe -- a small dict-and-frozenset loop and a small
numpy sort, the two kinds of work the package does -- and times it.  Then
``scaled(t, sensitivity)`` maps a ``perf_counter`` reading to scaled seconds:
each stretch of the worker's time between two probes counts its length over
the mean slowdown of the two probes around it, and the probes themselves
count zero.  A probe's slowdown is its time over ``REF_PROBE_S``, raised to
the power ``sensitivity``: how strongly the code being timed follows the
host's slow spells.  Pure-Python code follows them as the probe does (1.0);
code that spends its time in numpy over large arrays is slowed less (0.75).
On a host running at the speed where the probe takes ``REF_PROBE_S`` a scaled
second is a wall second; when the probe takes 1.8 times as long, a wall
second of pure-Python code counts about 0.55 scaled seconds.

The probes take 1.5-4% of a run.  The probe's working set is small and fixed, so a
change to the package does not change what a probe costs, only how much
program time lies between probes.  Python runs the probe between bytecodes,
so during one long call into C it runs late, and that stretch is scaled by
the probes around it.
"""

from __future__ import annotations

import functools
import gc
import random
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
# The timed probe's time with the host at its fast speed: the 5th percentile
# of 50,000 probes run back to back on a 2-core x86-64 Xeon at 2.0 GHz with
# Python 3.11 and numpy 2.4.  It only sets the scale of a scaled second.
REF_PROBE_S = 0.00025
# A probe that ran into a page fault or a descheduling longer than the host's
# slow speed would shrink its stretches to nothing; cap its weight.
MAX_SLOWDOWN = 3.0

_rng = random.Random(1)
_EDGES = [[_rng.randrange(400) for _ in range(3)] for _ in range(400)]
_KEYS = np.random.default_rng(1).integers(0, 1 << 20, 2048)


def probe() -> int:
    """A fixed unit of work: a subset walk over a random graph, then sorts."""
    seen: dict[frozenset, int] = {}
    todo = [frozenset((0,))]
    steps = 0
    while todo and steps < 240:
        s = todo.pop()
        for a in range(3):
            t = frozenset(_EDGES[q][a] for q in s)
            if t not in seen:
                seen[t] = len(seen)
                todo.append(t)
            steps += 1
    x = _KEYS
    for _ in range(3):
        x = np.sort(x ^ (x >> 3))
        x = x[np.argsort(x[::-1], kind="stable")]
    return len(seen) + int(x[0])


class HostClock:
    """Probe the host while running; afterwards map times to scaled seconds."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, float]] = []

    def start(self, origin: float) -> None:
        """Start probing.  Times from ``origin``, a ``perf_counter`` reading
        at or before now, can be scaled; the stretch before the first probe
        takes that probe's weight."""
        self._started = origin
        self._running = True
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        # A signal that arrived just before the timer is disarmed can still
        # have its handler run later: the flag keeps that handler from
        # probing or re-arming, and the ignore keeps the default action
        # (ending the process) from being taken on it.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._stopped = perf_counter()
        self._build()

    def _probe(self, signum, frame) -> None:
        if not self._running:
            return
        collecting = gc.isenabled()
        gc.disable()  # a collection of the worker's heap is not the host's speed
        start = perf_counter()
        probe()  # untimed: brings the probe's code and data back into cache
        mid = perf_counter()
        probe()
        self.probes.append((start, mid, perf_counter()))
        if collecting:
            gc.enable()
        # one-shot, re-armed here, so the worker always gets INTERVAL_S between probes
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def _build(self) -> None:
        if not self.probes:
            self._knots_t = np.array([self._started, self._stopped])
            return
        starts, mids, ends = np.array(self.probes).T
        self._slow = np.minimum((ends - mids) / REF_PROBE_S, MAX_SLOWDOWN)
        t = np.empty(2 * len(starts) + 2)
        t[0], t[-1] = min(self._started, starts[0]), max(self._stopped, ends[-1])
        t[1:-1:2], t[2:-1:2] = starts, ends
        self._knots_t = t

    @functools.cache
    def _knots_tau(self, sensitivity: float) -> np.ndarray:
        if not self.probes:
            return self._knots_t - self._knots_t[0]
        slow = self._slow ** sensitivity
        # weight of each stretch of worker time: before the first probe,
        # between each pair of probes, after the last one
        weight = 1 / np.concatenate([slow[:1], (slow[:-1] + slow[1:]) / 2, slow[-1:]])
        length = np.diff(self._knots_t)
        length[1::2] = 0.0  # the probes
        length[0::2] *= weight
        return np.concatenate([[0.0], np.cumsum(length)])

    def scaled(self, t, sensitivity: float):
        """Scaled seconds since the clock started at ``perf_counter`` time(s)
        ``t``, for code whose speed goes as the probe's to the power
        ``sensitivity`` (see workloads.HOST_SENSITIVITY)."""
        return np.interp(t, self._knots_t, self._knots_tau(sensitivity))

    def span(self, start: float, end: float, sensitivity: float) -> float:
        return float(self.scaled(end, sensitivity) - self.scaled(start, sensitivity))

    def summary(self) -> dict[str, float]:
        timed = [e - m for _, m, e in self.probes] or [0.0]
        run = self._stopped - self._started
        return {
            "probes": len(self.probes),
            "probe_ms_p10": 1e3 * statistics.quantiles(timed, n=10)[0] if len(timed) > 1 else 0.0,
            "probe_ms_median": 1e3 * statistics.median(timed),
            "probe_share": sum(e - s for s, _, e in self.probes) / run if run > 0 else 0.0,
        }
