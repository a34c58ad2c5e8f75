"""The machine's pace, sampled alongside the timed calls.

On a shared machine, load from outside changes how fast the same code runs,
by up to a factor of 1.5, over periods from under a second to many minutes.
A run of ten seeds spans minutes, so raw times, and even the fastest of a
run's repeats, move with that load. A fixed reference computation, timed
while the calls run, moves with it too; dividing by it leaves mostly the
program's own cost.

While a worker measures, a ``SIGALRM`` timer runs ``reference()`` every
``INTERVAL_S`` seconds, in between the program's bytecodes, so a long call
is sampled throughout and a short one by its neighbours. Each call's time,
less the time spent in the handler, is multiplied by ``REFERENCE_S`` over the
median reference time within ``MARGIN_S`` of the call: the seconds the call
would take on a machine that runs the reference in ``REFERENCE_S``. The
reference is the benchmark's own code, so a change to idgnn moves the call
time and leaves the reference alone.

Set-up runs before the timer starts (the reference needs numpy, and importing
it is part of set-up); it is scaled by a block of reference runs taken right
after it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
MARGIN_S = 0.3
REFERENCE_S = 0.001
SETUP_BLOCK = 40

_A = np.random.default_rng(0).random((40, 40))


def reference() -> int:
    """About 1 ms of interpreter work and small numpy calls, like idgnn's."""
    seen: dict[int, int] = {}
    total = 0
    for i in range(2000):
        key = i % 97
        seen[key] = seen.get(key, 0) + 1
        if i & 1:
            total += len(seen)
    x = _A
    for _ in range(25):
        x = np.tanh(x @ _A * 0.01)
    return total + int(x[0, 0] > 0)


def block_scale(runs: int = SETUP_BLOCK) -> float:
    """REFERENCE_S over the median of ``runs`` back-to-back reference runs."""
    reference()  # first numpy calls warm up
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


class Pace:
    """Reference timings taken on a timer, and the time they took."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self.samples.append((start, took))
        self.handler_s += took

    def start(self) -> None:
        reference()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Sample ``MARGIN_S`` more, so the last call has its margin, then stop."""
        end = time.perf_counter() + MARGIN_S
        while time.perf_counter() < end:
            time.sleep(0.01)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reference time within MARGIN_S of
        [start, end], or over the whole run if no sample fell there."""
        times = [took for t, took in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        return REFERENCE_S / statistics.median(times or [took for _, took in self.samples])
