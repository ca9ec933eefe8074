"""Reference kernel: how fast the machine is right now.

The machines the benchmark runs on change speed by up to 1.7x between
states lasting seconds to minutes (other tenants share the cores).  The
harness therefore reports times at reference speed: each op's wall time
divided by the machine's slowness next to it, where slowness is the
reference kernel's time over its reference time.
"""

from __future__ import annotations

import itertools
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

# one round of the reference kernel takes this long at reference speed
REFERENCE_ROUND_S = 0.3e-3


@dataclass(frozen=True)
class _Piece:
    start: Fraction
    length: int

    def end(self) -> Fraction:
        return self.start + self.length - 1


def reference_kernel(rounds: int) -> float:
    """Seconds taken by ``rounds`` rounds of fixed stdlib work.

    The work imitates the package's own style -- frozen dataclasses with
    ``Fraction`` fields, tuple enumeration, dict accumulation with tuple
    keys, frozenset hashing and keyed sorts -- so that it speeds up and
    slows down with the machine the way the package does.  It never
    touches ``htgroth``.
    """
    start = time.perf_counter()
    for _ in range(rounds):
        pieces = [_Piece(Fraction(j - 3, 2), 1 + j % 3) for j in range(6)]
        acc = {}
        for ks in itertools.product(range(3), repeat=3):
            key = (tuple(sorted(ks)), pieces[sum(ks) % 6].end())
            acc[key] = acc.get(key, 0) + (1 if sum(ks) % 2 else -1)
        hash(frozenset(acc.items()))
        sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return time.perf_counter() - start


def slowness(rounds: int) -> float:
    """The machine's current slowness: kernel time over its reference time."""
    return reference_kernel(rounds) / (rounds * REFERENCE_ROUND_S)


class Sampler:
    """Runs the kernel every ``INTERVAL_S`` from a timer signal.

    For ops too long to pair with one kernel run before and after (a
    whole ``verify`` process), this samples the machine's speed while the
    op runs, at a cost of about 1 % of its time.
    """

    ROUNDS = 4
    INTERVAL_S = 0.1

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(reference_kernel(self.ROUNDS))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self) -> dict:
        """Total kernel time, and the mean slowness (None without samples)."""
        mean = sum(self.samples) / len(self.samples) if self.samples else None
        return {
            "kernel_s": sum(self.samples),
            "slowness": mean / (self.ROUNDS * REFERENCE_ROUND_S) if mean else None,
        }
