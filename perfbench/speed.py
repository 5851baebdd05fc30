"""Host-speed calibration: scale measured times to a nominal machine speed.

On a shared virtual machine the speed of a vCPU switches between a fast and
a slow mode (up to 1.6x apart) many times a second, and the share of time
spent in the slow mode drifts over seconds to minutes. Wall and CPU time
move together, so neither clock alone gives a steady figure. The benchmark
therefore runs a fixed calibration job, plain interpreter work, in short
batches between ops, and divides each op's time by the mean slowdown,
against `NOMINAL_S`, of the batches taken within `WINDOW_S` of it. A time
reported "at nominal speed" is the time the same work would take on a host
that runs the job in `NOMINAL_S`.

The job does not touch the program, so a change to the program moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

# One calibration job on the reference host (Intel Xeon vCPU, Python 3.11.7)
# in its fast mode. Any fixed value works: it only sets the scale on which
# times are reported.
NOMINAL_S = 0.5e-3
# Half-width of the stretch whose calibrations scale one op: wide enough to
# average over the fast switching, narrow enough to follow the drift.
WINDOW_S = 0.5


def _job() -> int:
    counts: dict[int, int] = {}
    rows = [[(i * j) & 1 for j in range(16)] for i in range(16)]
    s = 0
    for i in range(1500):
        key = i & 63
        counts[key] = counts.get(key, 0) + 1
        row = rows[i & 15]
        s += sum(row) + (i * i) % 7
    return s


def calibrate(jobs: int) -> list[float]:
    """Seconds taken by each of `jobs` calibration jobs run back to back."""
    clock = time.perf_counter
    times = []
    for _ in range(jobs):
        t0 = clock()
        _job()
        times.append(clock() - t0)
    return times


def slowdown(job_times: list[float]) -> float:
    """How much slower than nominal the host ran during these jobs."""
    return statistics.fmean(job_times) / NOMINAL_S


def scale(spans: list[tuple[float, float]], batches: list[tuple[float, list[float]]]):
    """Durations of the ops at nominal speed.

    `spans` holds the (start, end) clock readings of each op, `batches` the
    (clock reading, job times) of each calibration batch, both in time
    order. Each op is scaled by the batches within `WINDOW_S` of its
    midpoint, or by the nearest batch when none is that close.
    """
    stamps = [t for t, _ in batches]
    out = []
    for start, end in spans:
        mid = (start + end) / 2
        lo = bisect_left(stamps, mid - WINDOW_S)
        hi = bisect_right(stamps, mid + WINDOW_S)
        if lo == hi:
            lo = min(
                (i for i in (lo - 1, lo) if 0 <= i < len(stamps)),
                key=lambda i: abs(stamps[i] - mid),
            )
            hi = lo + 1
        jobs = [t for _, batch in batches[lo:hi] for t in batch]
        out.append((end - start) / slowdown(jobs))
    return out
