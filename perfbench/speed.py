"""The host's speed, read from a fixed reference loop run between timed calls.

This machine is a small virtual machine on a shared host, and its CPU runs
faster or slower from one few-second stretch to the next: the same replay
took 26.9 and 35.5 CPU seconds in runs 13 minutes apart.  A fixed reference
loop that has nothing to do with flowdetect slows down with it.  The loop
mixes what the program spends its time on: interpreted Python and numpy
calls on small arrays.  A run samples the loop in between the program's
calls, once a chunk of work has taken some tens of milliseconds, which cuts
the timed phase into chunks.  Each chunk's CPU time is scaled by the
samples on either side of it, to a machine on which one loop takes
``NOMINAL_NS`` of CPU time:

    scaled = measured * NOMINAL_NS / median(the nearby reference samples)

A change to the program cannot change the loop, so the scaled figures move
with the program and not with the host.  The loop's own time is left out of
every timed figure, and the unscaled figures are kept in the results file.
"""

from __future__ import annotations

import statistics
from time import thread_time_ns

import numpy as np

#: CPU time of one reference loop on the machine all figures are scaled to,
#: about what it takes on this machine in its usual phase.
NOMINAL_NS = 2_000_000
#: Iterations of the interpreted part and of the numpy part, about 1 ms each.
PYTHON_LOOP = 10_000
NUMPY_LOOP = 60
_HOURS = np.linspace(0.0, 24.0, 200)


def reference() -> int:
    """Run the reference loop once; return the CPU nanoseconds it took."""
    start = thread_time_ns()
    total = 0
    for i in range(PYTHON_LOOP):
        total += i * i % 7
    for i in range(NUMPY_LOOP):
        np.sort(np.sin(_HOURS * i))
        np.exp(_HOURS).sum()
    return thread_time_ns() - start


class Speedometer:
    """Reference samples of one run, and the chunks of work between them.

    ``reach`` is how many samples on each side of a chunk set its scale.
    """

    def __init__(self, reach: int) -> None:
        self.reach = reach
        self.samples: list[int] = []  # CPU ns of each reference loop, in order
        self.chunks: list[tuple[int, int]] = []  # (CPU ns of work, samples before it)
        self.opened: int | None = None  # CPU time the open chunk began at

    def start(self) -> None:
        """Open a chunk: timed work begins."""
        self.opened = thread_time_ns()

    def stop(self) -> None:
        """Close the open chunk: timed work ends."""
        self.chunks.append((thread_time_ns() - self.opened, len(self.samples)))
        self.opened = None

    def sample(self, times: int = 1) -> None:
        """Close the open chunk if any, take ``times`` samples, open the next."""
        if self.opened is not None:
            self.stop()
        self.samples += [reference() for _ in range(times)]
        self.opened = thread_time_ns()

    def discard(self) -> None:
        """Drop the open chunk: no timed work followed the last samples."""
        self.opened = None

    def factor(self, before: int) -> float:
        """Scale for work done after the first ``before`` samples."""
        near = self.samples[max(0, before - self.reach) : before + self.reach]
        return NOMINAL_NS / statistics.median(near)

    def cpu_ns(self) -> int:
        """Unscaled CPU time of every chunk."""
        return sum(ns for ns, _ in self.chunks)

    def scaled_ns(self, chunks=None) -> float:
        """Scaled CPU time of ``chunks`` as (CPU ns, samples before), by default
        of every chunk."""
        chunks = self.chunks if chunks is None else chunks
        return sum(ns * self.factor(before) for ns, before in chunks)

    def scale(self) -> float:
        """The run's mean scale: scaled over unscaled time."""
        return self.scaled_ns() / self.cpu_ns() if self.chunks else 1.0
