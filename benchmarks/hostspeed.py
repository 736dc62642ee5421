"""The host's speed, sampled by a fixed kernel while the requests run.

On a shared host the same code runs at two speeds about 1.8x apart, and
the host switches between them within a second, as other tenants' load on
the same cores comes and goes; a 20-second run can fall mostly in one state
or the other. So a profiling timer interrupts the benchmark every
``PERIOD_S`` of its CPU time and runs a fixed kernel, independent of the
program, whose CPU time tracks the host's speed at that moment.

Every timed interval is then reported twice: raw, with the kernels' own time
taken out, and scaled to the speed at which one kernel takes
``REF_KERNEL_S``. Samples fall evenly in CPU time, so an interval's scaled
time is ``raw * REF_KERNEL_S * mean(1 / kernel time)`` over the samples taken
inside it; an interval shorter than a few periods uses the ``NEAREST``
samples closest to it.

The kernel mixes the kinds of work the program does: pure-Python dict and
tuple work (routing, sim), scalar float math and a small numpy call (geom,
georouting), and JSON encoding (cli). Each sample runs it once untimed, so
that the timed runs find it in cache whatever the program left there: the
program's own memory use must not move the scale. Contention that slows
the program's memory-heavy code more than the kernel is not followed.
"""
from __future__ import annotations

import json
import math
import signal
import time
from array import array

import numpy as np

# Median CPU time of one kernel on an Intel Xeon vCPU at 2.0 GHz in its
# fast state (Python 3.11.7, numpy 2.4.6). It is only a unit: scaled times
# read about as seconds of that host, and no comparison depends on it.
REF_KERNEL_S = 5.5e-5
PERIOD_S = 0.02   # CPU time between samples, of which a sample takes about 2%
WARM_REPS = 2     # timed kernels per sample, after one that warms the cache
NEAREST = 8       # samples that give the speed of an interval with fewer inside

_A = np.array([0.3, -0.5, 0.8])
_B = np.array([-0.6, 0.1, 0.7])
_DOC = {"nodes": [f"{i}.{i % 7}.{i % 3}" for i in range(12)],
        "edges": [[i, (i * 5) % 12, i % 4] for i in range(12)]}


def kernel() -> float:
    """One fixed unit of mixed work; returns a value so none of it is skipped."""
    table: dict[tuple[int, int], int] = {}
    acc = 0.0
    for i in range(30):
        key = (i % 7, (i * 7) % 11)
        table[key] = table.get(key, 0) + 1
        acc += math.sqrt(i + 0.5) * math.cos(i * 1e-3)
    acc += float(np.dot(np.cross(_A, _B), _A))
    acc += len(json.dumps(_DOC)) + max(table.values())
    return acc


class HostSpeed:
    """Samples the kernel's CPU time on ``clock`` while installed."""

    clock = staticmethod(time.thread_time)

    def __init__(self) -> None:
        self.at = array("d")      # clock reading when each sample started
        self.took = array("d")    # the kernel's CPU time in that sample
        self.spent = 0.0          # total time inside samples, to take out
        self._saved = None

    def _sample(self, signum, frame) -> None:
        clock = self.clock
        t0 = clock()
        kernel()  # brings the kernel's code and data back into cache
        best = math.inf
        for _ in range(WARM_REPS):
            t1 = clock()
            kernel()
            best = min(best, clock() - t1)
        self.at.append(t0)
        self.took.append(best)
        self.spent += clock() - t0

    def __enter__(self) -> "HostSpeed":
        """Takes NEAREST samples at once, so even one short request has its
        speed, then starts the timer."""
        for _ in range(NEAREST):
            self._sample(None, None)
        self._saved = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._saved)
        for _ in range(NEAREST):
            self._sample(None, None)

    def scales(self, starts, ends) -> np.ndarray:
        """``REF_KERNEL_S * mean(1 / kernel time)`` for each interval."""
        at = np.frombuffer(self.at, dtype=np.float64)
        inv = 1.0 / np.frombuffer(self.took, dtype=np.float64)
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        csum = np.concatenate(([0.0], np.cumsum(inv)))
        lo = np.searchsorted(at, starts, side="left")
        hi = np.searchsorted(at, ends, side="right")
        # Fewer than NEAREST samples inside: the NEAREST around the middle.
        few = hi - lo < NEAREST
        mid = np.searchsorted(at, 0.5 * (starts + ends))
        lo_few = np.clip(mid - NEAREST // 2, 0, len(at) - NEAREST)
        lo = np.where(few, lo_few, lo)
        hi = np.where(few, lo_few + NEAREST, hi)
        return REF_KERNEL_S * (csum[hi] - csum[lo]) / (hi - lo)

    def summary(self) -> dict:
        took = np.sort(np.frombuffer(self.took, dtype=np.float64))
        n = len(took)
        return {
            "samples": n,
            "kernel_p10_s": float(took[n // 10]) if n else 0.0,
            "kernel_median_s": float(took[n // 2]) if n else 0.0,
            "kernel_p90_s": float(took[9 * n // 10]) if n else 0.0,
            "spent_s": self.spent,
            "ref_kernel_s": REF_KERNEL_S,
        }
