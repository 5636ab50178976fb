"""A machine-speed probe, to take the host's speed out of the timings.

On a shared host the same work can run 1.6 times slower for seconds to
tens of seconds at a time, with CPU time tracking wall time, so repetitions
alone do not steady a run.  The probe is a fixed piece of exact-rational
arithmetic from the standard library (no ``prioritygames`` code, so a
change to the library cannot move it).  A run samples it between units of
work; the samples cut the run into chunks, and a time measured inside a
chunk is scaled by ``REFERENCE_S`` over the mean of the chunk's two
boundary samples.  Reported times are thus seconds at the reference speed:
what the run would have measured had the host run the probe in
``REFERENCE_S`` throughout.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# One probe on the reference host (2 vCPUs, Python 3.11.7) when quiet.
REFERENCE_S = 0.025


def probe_work() -> Fraction:
    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 3000):
        f = Fraction(i, 7) + Fraction(3, i + 1)
        table[(i % 13, i % 7)] = f
        acc = acc + f / 3 if f > acc else acc - f / 5
    return acc


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        # the collector's pauses grow with the caller's heap, not the host
        gc.disable()
        try:
            t0 = perf_counter()
            probe_work()
            self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()

    @property
    def chunk(self) -> int:
        """The chunk a time measured now falls into."""
        return len(self.samples) - 1

    def scale(self, seconds: float, chunk: int) -> float:
        """``seconds`` measured in ``chunk``, in reference-speed seconds."""
        return seconds * REFERENCE_S / statistics.fmean(self.samples[chunk : chunk + 2])
