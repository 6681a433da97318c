"""The host's speed, sampled while a round runs.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent within seconds, and wall time follows it.  ``Sampler``
measures that speed alongside the program: a wall-clock interval timer
interrupts the round every ``INTERVAL_S`` seconds and, in the signal
handler (on the main thread, between two bytecodes of the program), times
one run of a fixed reference computation.  The reference is the
benchmark's own code, the same kind of work the program does (a Python walk
of depth-3 trees of plain objects, row by row from numpy arrays), so it
slows down with the host as the program does, and no change to the program
can speed it up.

A round's normalised time is its wall time, less the time spent in the
handler, divided by the mean reference time sampled during the round: the
round's length in units of the reference computation.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.25
N_TREES = 2000
DEPTH = 3
N_FEATURES = 8
N_ROWS = 8


class _Node:
    def __init__(self, feature=-1, threshold=0.0, left=None, right=None, value=0.0):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value


def _tree(rng: random.Random, depth: int) -> _Node:
    if depth == 0:
        return _Node(value=rng.random())
    return _Node(rng.randrange(N_FEATURES), rng.random(), _tree(rng, depth - 1), _tree(rng, depth - 1))


class Reference:
    """A fixed computation: every row through every tree of a fixed forest."""

    def __init__(self):
        rng = random.Random(0)
        self.forest = [_tree(rng, DEPTH) for _ in range(N_TREES)]
        self.rows = np.random.default_rng(0).random((N_ROWS, N_FEATURES))

    def __call__(self) -> float:
        total = 0.0
        for x in self.rows:
            x = np.asarray(x, dtype=float)
            for node in self.forest:
                while node.left is not None:
                    node = node.left if x[node.feature] <= node.threshold else node.right
                total += node.value
        return total


class Sampler:
    """Times ``Reference`` every ``interval`` seconds between ``start`` and ``stop``.

    ``samples`` holds the reference times of the current measurement and
    ``spent_s`` the whole time spent in the handler, to be taken off the
    measured wall time.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.reference = Reference()
        self.reference()  # warm up
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        self.reference()
        end = perf_counter()
        self.samples.append(end - start)
        self.spent_s += perf_counter() - start

    def start(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL if self._previous is None else self._previous)

    def mean_s(self) -> float:
        """Mean reference time of the current measurement; one more sample
        is taken now if the measurement was shorter than the interval."""
        if not self.samples:
            start = perf_counter()
            self.reference()
            self.samples.append(perf_counter() - start)
        return sum(self.samples) / len(self.samples)
