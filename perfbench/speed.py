"""Correction of measured times for the machine's speed.

The benchmark runs on a few vCPUs of a shared host whose speed swings by
up to 1.7x, in phases from seconds to many minutes long: the same round
of jobs takes 2.3 s in one minute and 4 s in the next, with CPU time
tracking wall time.  Medians over a run cannot remove swings longer than
the run, so every gated time is corrected for the speed measured while
it was taken.

:class:`SpeedProbe` samples that speed on the program's own thread: a
fixed kernel of the benchmark's own (dict counting, integer arithmetic
and building a dict of small tuples and lists, about 0.5 ms) runs from
a ``SIGALRM`` handler every :data:`INTERVAL_S` of wall time while the
program works.  The speed of an interval is ``REFERENCE_S / kernel
time``; the mean over the intervals, taken uniformly in wall time, is
the interval's average speed relative to the reference.  A time
multiplied by it is the time the same work would take at the reference
speed.  The kernel never touches the program, and it is stdlib only, so
it can time the import of the program itself.  It costs about 2% of
the time it samples.

The kernel is interpreter work and small allocations, like the
program's, because that is what the slow phases slow down.  Timed side
by side in the same rounds (compare, agreement, 60-70 rounds each), it
tracked the rounds' times best of five candidates: the rounds' log
times rose 1.13-1.20 times as fast as its log time and scattered by
0.037-0.045 around it, against 1.21-1.25 and 0.046-0.051 for integer
arithmetic alone and 1.6-1.7 and 0.065-0.077 with scattered reads of an
8 MiB table added (memory reads slow down least in the slow phases).
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
#: The kernel's time at the reference speed: about its time on a 2-vCPU
#: Xeon VM (2.1 GHz, Python 3.11) in a fast phase.  Only a scale: it
#: makes corrected times read in seconds of that machine.
REFERENCE_S = 4.0e-4

_WORDS = " ".join(f"w{i * 7919 % 1000}" for i in range(400))


def kernel() -> int:
    counts: dict[str, int] = {}
    for token in _WORDS.split():
        counts[token] = counts.get(token, 0) + 1
    total = 0
    for i in range(1500):
        total += i * i % 7
    built = {}
    for i in range(300):
        built[(f"k{i * 31 % 997}", i)] = [i, str(i)]
    return total + len(counts) + len(built)


class SpeedProbe:
    """Context manager that samples the machine's speed while it is open."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> SpeedProbe:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one interval: sample once now
            self._sample(None, None)

    def speed(self) -> float:
        """Mean speed relative to the reference over the sampled intervals."""
        return statistics.fmean(REFERENCE_S / sample for sample in self.samples)
