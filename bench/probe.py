"""Speed probe: how fast the host runs the benchmark's process right now.

On a shared host the same work runs up to 1.8x slower, in phases that last
from under a second to minutes. A daemon thread in each worker process
wakes every ``PERIOD_S``, times a fixed loop by its own CPU time
(``time.thread_time``) and records the sample. A timed step (a chain
iteration or a set-up) is scaled by ``NOMINAL_S`` over the mean sample
taken while it ran, so it reads as seconds at a fixed machine speed. The
samples cover the whole step, so slow phases shorter than the step are
tracked too. The loop is Python-driven NumPy scalar indexing and small
NumPy calls, the kind of work that dominates tree growing, SMO steps, rank
ties and the GA; it tracked the ``ingest-stats`` chain better than a loop
of plain Python floats. It costs about 0.5 % of one core and allocates
nothing that outlives a sample.

    python3 bench/probe.py     # prints the median sample over two seconds
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# Median sample on a shared 2-core x86-64 virtual machine (Python 3.11,
# NumPy 2.4): scaled times read as seconds at that speed.
NOMINAL_S = 1.0e-4
PERIOD_S = 0.02

_rng = np.random.default_rng(20230526)
_KEYS = _rng.random(64)
_VALUES = _rng.random(64)


def _loop() -> float:
    order = np.argsort(_KEYS, kind="stable")
    acc = 0.0
    for i in range(100):
        if _VALUES[order[i & 63]] <= _VALUES[(7 * i) & 63]:
            acc += 1.0
    return acc + float(np.cumsum(_VALUES[order])[-1])


class Probe(threading.Thread):
    """Samples the loop's CPU time until ``stop``; ``(when, seconds)`` pairs."""

    def __init__(self):
        super().__init__(name="speed-probe", daemon=True)
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()
        self.start()

    def run(self) -> None:
        while not self._halt.wait(PERIOD_S):
            t0 = time.thread_time()
            _loop()
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def mean(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean sample taken between ``start`` and ``end`` (``perf_counter``)."""
        inside = [s for when, s in list(self.samples) if start <= when <= end]
        return statistics.fmean(inside) if inside else NOMINAL_S


def scaled(seconds: float, sample: float) -> float:
    """``seconds`` measured at the probe's ``sample``, at the nominal speed."""
    return seconds * NOMINAL_S / sample


if __name__ == "__main__":
    probe = Probe()
    time.sleep(2.0)
    probe.stop()
    print(repr(statistics.median(s for _, s in probe.samples)))
