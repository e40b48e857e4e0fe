"""Host-speed calibration of the benchmark's timings.

On a shared host the same Python code runs at very different speeds
from one stretch of seconds to the next: a warm pass of this benchmark
took 24 ms in one stretch and 50 ms in the next, for minutes at a time,
on the 2-CPU container the benchmark was written on.  A run of a few
tens of seconds cannot average that out.

So every timing the benchmark reports end to end is normalised: while
it measures, it interleaves short *bursts* of a fixed calibration
kernel (plain interpreter work: JSON decode and encode, dict and
arithmetic loops; it calls nothing in the program) and scales the
measured host seconds by how fast those bursts ran::

    normalised_s = host_s * REFERENCE_BURST_S / mean(burst seconds)

A normalised second is a second on a host where one burst takes
:data:`REFERENCE_BURST_S`.  The kernel is frozen: a change to the
program moves the measured seconds but not the bursts, so it moves the
normalised seconds by the same share.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, List

#: Seconds one burst takes on the reference host: about the median on
#: the 2-CPU Xeon container the benchmark was written on.
REFERENCE_BURST_S = 0.008

_DOCUMENT = json.dumps([
    {"key": index, "values": [index * 0.5, index * 3, str(index)],
     "tags": {"mod": index % 7, "name": f"row-{index}"}}
    for index in range(1000)
])


def _kernel() -> int:
    rows = json.loads(_DOCUMENT)
    table = {}
    total = 0
    for row in rows:
        table[row["key"] & 63] = (row["values"][1], row["tags"]["mod"])
        total += row["key"] * row["values"][1] % 7
    for index in range(50000):
        total += (index * index) % 7
    return total + len(json.dumps(table, sort_keys=True))


class Calibration:
    """Burst timings of one measurement, and the speed they imply."""

    def __init__(self) -> None:
        self.bursts: List[float] = []
        _kernel()  # first-call costs are not host speed

    def sample(self, clock: Callable[[], float] = time.perf_counter) -> None:
        """Run one burst and record its duration on *clock*."""
        begin = clock()
        _kernel()
        self.bursts.append(clock() - begin)

    @property
    def speed(self) -> float:
        """Host speed relative to the reference host (2.0 = twice as fast)."""
        return REFERENCE_BURST_S * len(self.bursts) / sum(self.bursts)

    def normalise(self, host_seconds: float) -> float:
        return host_seconds * self.speed


class BackgroundSampler:
    """Samples bursts on a thread while a pool does the work elsewhere.

    Bursts are timed by the thread's CPU time, so the time the thread
    waits for a CPU held by a pool worker does not count as slowness.
    """

    def __init__(self, calibration: Calibration, interval_s: float) -> None:
        self.calibration = calibration
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.calibration.sample(time.thread_time)

    def __enter__(self) -> "BackgroundSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
