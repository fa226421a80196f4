"""Host speed reference: a fixed kernel timed all through a repetition.

A shared virtual machine changes speed by up to twice, in spells of seconds
to minutes, for reasons outside the process (no CPU steal shows).  A median
over the repetitions of one run cannot average that out, since a whole run
can fall in a slow spell, and a few kernel runs around a repetition miss the
spells inside it.  So a :class:`HostClock` runs :func:`kernel`, a fixed
mix of interpreter, numpy and allocation work that is part of the
benchmark, not of the simulator, around the phases of a repetition and whenever a wrapped
``FLStore`` call comes in :data:`INTERVAL_S` or more after its last run.
Between two kernel runs the
host's speed is taken from the median time of the kernel runs around them,
and host time there is scaled by ``REFERENCE_S`` over that time; the kernel
runs themselves are left out.  A scaled time reads as host time on a machine
where the kernel takes ``REFERENCE_S``.  A change to the simulator moves it
as much as it moves raw host time, while a slow spell moves the kernel and
the simulator alike and mostly cancels.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Nominal kernel time: scaled times read as host times on a machine where
#: :func:`kernel` takes this long (about its median on a 2.1 GHz vCPU).
REFERENCE_S = 0.002
#: Least host time between two kernel runs started from wrapped calls.
INTERVAL_S = 0.03
#: Kernel runs before set-up, between set-up and serving, and after serving.
BRACKET_RUNS = 5
#: Kernel runs whose median gives the speed between two of them.
WINDOW = 4


#: Operands of the kernel's numpy parts: 1 MiB, beyond the CPU's L2 cache,
#: and 64 values.
_LARGE = np.linspace(0.0, 1.0, 1 << 17)
_SMALL = np.linspace(0.0, 1.0, 64)


class _Pair:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name


def kernel() -> float:
    """About 2 ms of the kinds of work the simulator does, in roughly equal
    parts: integer arithmetic and dict updates, streaming passes over a
    1 MiB array, operations on a small array, and allocating small objects.

    A slow spell slows these unequally (memory-bound passes more than
    interpreter work), so the mix follows the simulator more closely than
    any one part; interleaved with round-ingest's rounds its time tracked
    theirs with a correlation of 0.955.  Collection is off while it runs, so
    its time does not depend on the size of the simulator's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        table: dict[int, int] = {}
        for i in range(5000):
            total += i * i % 7
            table[i & 1023] = total
        acc = 0.0
        for _ in range(3):
            acc += float(np.add(_LARGE, 1.0).sum())
        values = _SMALL
        for _ in range(150):
            values = np.sqrt(values * 1.0001 + 1.0)
        pairs = []
        for i in range(1500):
            pair = _Pair(i, str(i))
            pairs.append((pair.key, pair.name))
        return total + acc + float(values[0]) + len(pairs)
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Kernel runs taken during one repetition, and host times scaled by them."""

    def __init__(self) -> None:
        #: ``(start, end)`` of every kernel run, in ``time.perf_counter`` seconds.
        self.runs: list[tuple[float, float]] = []
        self._due = 0.0

    def sample(self) -> None:
        """Run the kernel once and record when."""
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.runs.append((start, end))
        self._due = end + INTERVAL_S

    def maybe_sample(self) -> None:
        """Run the kernel if :data:`INTERVAL_S` has passed since the last run."""
        if time.perf_counter() >= self._due:
            self.sample()

    def bracket(self) -> None:
        for _ in range(BRACKET_RUNS):
            self.sample()

    def kernel_times(self) -> list[float]:
        return [end - start for start, end in self.runs]

    def scaled(self, starts, ends) -> np.ndarray:
        """Scaled host time of each ``[start, end]`` interval, kernel runs excluded.

        Scaled time from the first kernel run is piecewise linear in host
        time: flat across a kernel run, with slope ``REFERENCE_S`` over the
        local kernel time between runs, and the edge slopes beyond the first
        and last run.  Needs at least two kernel runs.
        """
        kernel_times = self.kernel_times()
        gaps = len(self.runs) - 1
        slopes = [
            REFERENCE_S
            / statistics.median(kernel_times[max(0, i - WINDOW // 2 + 1) : i + WINDOW // 2 + 1])
            for i in range(gaps)
        ]
        times = [self.runs[0][0] - 1e6]
        values = [-1e6 * slopes[0]]
        for i, (start, end) in enumerate(self.runs):
            level = values[-1] + (start - times[-1]) * (slopes[i - 1] if i else slopes[0])
            times += [start, end]
            values += [level, level]
        times.append(times[-1] + 1e6)
        values.append(values[-1] + 1e6 * slopes[-1])
        return np.interp(ends, times, values) - np.interp(starts, times, values)
