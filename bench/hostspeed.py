"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the same code runs at speeds up to 2x
apart, for milliseconds to minutes at a time, because other guests load
the physical cores.  Every timed run therefore interleaves a fixed
calibration chunk with the work, one after every GAP_S seconds of
trials and one at the end of every sweep.  The work between two chunks
is scaled by REFERENCE_CHUNK_S over the mean time of those two chunks,
which turns it into reference seconds: seconds on a host that runs a
chunk in REFERENCE_CHUNK_S.

On the 2-vCPU Xeon VM that recorded baseline.json, over 60 sweeps of
stm-power or ttm-demand, the log of a sweep's time and the log of its
chunk time correlated at 0.94-0.96.  Over ten 50 s runs the spread of
trials_per_s (interquartile distance over median) was 0.177 measured
and 0.018 in reference seconds on stm-power, 0.120 and 0.024 on
ttm-demand.

The chunk never calls uavwpt, so a change to the library moves the
scaled times in the same proportion as the raw ones.  Its mix, scalar Newton
steps plus ufuncs on small arrays, is that of the library's own
inner loops.
"""

import math
import time

import numpy as np

GAP_S = 0.05              # trial time between two chunks
REPS = 200                # iterations per chunk, about 2 ms
# chunk wall time of the 2-vCPU Xeon VM that recorded baseline.json in its
# faster state (its chunks took 1.6-3.2 ms), so a reference second is about
# a second of that host running uncontended
REFERENCE_CHUNK_S = 2.1e-3

_X = np.linspace(0.05, 3.0, 48)


def chunk(reps: int = REPS) -> float:
    """A fixed amount of interpreter and small-array work."""
    s = 0.0
    for i in range(reps):
        # scalar Newton iterations, like the library's root finders
        w = 0.5 + 0.001 * i
        for _ in range(6):
            ew = math.exp(w)
            w -= (w * ew - 1.7) / (ew * (w + 1.0))
        s += w
        # small-array ufuncs, like coefficient building
        y = np.exp(-_X * w) * np.log1p(_X)
        s += float(y.sum()) + float(np.max(y))
    return s


class HostClock:
    """Splits timed work into windows between calibration chunks.

    Scaling each window by its own two chunks, about GAP_S apart, rather
    than each sweep by the mean of its chunks, cut the spread of
    ttm-demand's trial_p50_ms over five runs from 0.095 to 0.038.  CPU
    seconds get the wall factor: on the host that recorded
    baseline.json a chunk's CPU time equals its wall time, so the host
    slows the CPU itself rather than taking it away.

    tick(t) after each trial of t seconds splits once GAP_S of trials
    has passed; split() also ends a sweep.  The trial latencies that
    the caller appends to `latencies` are rescaled in place as their
    window closes.
    """

    def __init__(self, latencies):
        self.latencies = latencies
        self.wall = self.cpu = 0.0          # reference seconds of work
        self.raw_wall = self.raw_cpu = 0.0  # measured seconds of work
        self._last = self._chunk()
        self._start_window()

    @staticmethod
    def _chunk() -> float:
        t0 = time.perf_counter()
        chunk()
        return time.perf_counter() - t0

    def _start_window(self):
        self._due = GAP_S
        self._t0, self._c0 = time.perf_counter(), time.process_time()
        self._first = len(self.latencies)

    def tick(self, worked_s: float):
        self._due -= worked_s
        if self._due <= 0.0:
            self.split()

    def split(self):
        """Close the current window with a chunk and start the next."""
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        now = self._chunk()
        scale = 2.0 * REFERENCE_CHUNK_S / (self._last + now)
        self._last = now
        self.raw_wall += wall
        self.raw_cpu += cpu
        self.wall += wall * scale
        self.cpu += cpu * scale
        for i in range(self._first, len(self.latencies)):
            self.latencies[i] *= scale
        self._start_window()
