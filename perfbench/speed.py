"""Machine-speed sampling, so that timings read the same on a busy host.

On a shared host the same code runs up to about 1.6x faster or slower from
one few seconds to the next, for every kind of Python code alike; a run's
raw wall time mostly measures its neighbours.  The sampler measures that
drift inside the pass itself: an interval timer (SIGALRM) runs a fixed,
pure-Python calibration loop every INTERVAL_S of wall time, with the
garbage collector off, and records when it ran.  The loop is the bench's
own code and calls nothing from ``src/``, so no change to the library can
speed it up or slow it down.

A timed span [a, b] is then reported at the reference speed:

    (b - a - sampler time inside [a, b]) * mean relative speed near [a, b]

where a sample's relative speed is REFERENCE_NS / its duration and "near"
means the samples that started within WINDOW_S of the span, so that a short
request is not read at the speed of one noisy sample.  On the reference
machine at its usual speed this reads as plain wall time.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array
from bisect import bisect_left

INTERVAL_S = 0.05
WINDOW_S = 0.25
# Typical duration of calibration_work on a shared 2-core x86-64 VM with
# Python 3.11; fixed, so that results stay comparable between commits.
REFERENCE_NS = 1_800_000


def calibration_work() -> int:
    """A fixed mix of what the library does most: dict and set lookups,
    tuple hashing, sorting and small allocations."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(2400):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + 1
        acc += hash((k, i & 15)) & 7
    xs = sorted((i * 40503) % 65521 for i in range(2400))
    kept = set(xs[::3])
    acc += sum(1 for x in range(0, 65521, 32) if x in kept)
    return acc + len(counts)


def calibration_ns() -> int:
    """One run of calibration_work, garbage collector off."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter_ns()
    calibration_work()
    t1 = time.perf_counter_ns()
    if collecting:
        gc.enable()
    return t1 - t0


def speed_now(repeats: int = 5) -> float:
    """The machine's relative speed from a few calibration runs in a row."""
    durations = sorted(calibration_ns() for _ in range(repeats))
    return REFERENCE_NS / durations[repeats // 2]


class SpeedSampler:
    """Runs calibration_work on a wall-clock timer while it is started."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts = array("q")
        self.ends = array("q")
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        self.starts.append(t0)
        self.ends.append(t0 + calibration_ns())
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def record(self, start_ns: int, end_ns: int) -> None:
        """Add one sample by hand (for checks of the arithmetic)."""
        self.starts.append(start_ns)
        self.ends.append(end_ns)

    def sampler_ns(self) -> int:
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def sampler_ns_within(self, a: int, b: int) -> int:
        """Time the sampler took from spans that started inside [a, b]."""
        starts, ends = self.starts, self.ends
        return sum(ends[k] - starts[k]
                   for k in range(bisect_left(starts, a), bisect_left(starts, b)))

    def mean_speed(self) -> float:
        """Mean relative speed over all samples (1.0 at the reference)."""
        speeds = [REFERENCE_NS / (e - s) for s, e in zip(self.starts, self.ends)]
        return sum(speeds) / len(speeds)

    def normalise_ns(self, a: int, b: int) -> float:
        """Duration of [a, b] at the reference speed, sampler time removed."""
        starts, ends = self.starts, self.ends
        if not starts:
            raise ValueError("no speed samples")
        inside = self.sampler_ns_within(a, b)
        window = int(WINDOW_S * 1e9)
        lo, hi = bisect_left(starts, a - window), bisect_left(starts, b + window)
        if lo == hi:  # no sample near: the one nearest the span's middle
            mid = (a + b) // 2
            lo = min((x for x in (lo - 1, lo) if 0 <= x < len(starts)),
                     key=lambda x: abs(starts[x] - mid))
            hi = lo + 1
        speeds = [REFERENCE_NS / (ends[k] - starts[k]) for k in range(lo, hi)]
        return (b - a - inside) * sum(speeds) / len(speeds)
