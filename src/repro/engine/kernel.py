"""A discrete-event simulation kernel: calendar queue, futures, timed processes.

The analytic simulator of :mod:`repro.core` serves one request at a time and
returns closed-form latencies.  This kernel supplies the missing substrate
for *load-dependent* behaviour — concurrent in-flight requests, queueing,
cold-start overlap — as a classic discrete-event engine:

* :class:`EventLoop` — a schedule of ``(virtual_time, sequence, action)``
  events.  Events at the same timestamp fire in scheduling order (the
  monotonically increasing sequence number breaks ties), which makes every
  run deterministic regardless of scheduler internals.  Internally the loop
  keeps a calendar queue (bucketed by time window, with an overflow heap for
  far-future events) instead of a single binary heap; the observable order
  is identical, which ``tests/test_kernel_equivalence.py`` drives with
  hypothesis against a reference ``(time, seq)`` heap.
* :meth:`EventLoop.schedule_many` — a bulk fast path for pre-known sorted
  instants (arrival times from :mod:`repro.traces.arrivals`): the array is
  consumed through a cursor and merged with the calendar during
  :meth:`EventLoop.run`, instead of paying N individual pushes.
* :class:`SimTask` — a future resolved at some virtual time.  Processes wait
  on tasks; external components (queue slots, completion signals) resolve
  them.
* **Processes** — plain Python generators driven by :meth:`EventLoop.process`.
  A process yields :class:`Timeout` to sleep on virtual time or a
  :class:`SimTask` to wait for another process/resource; its ``return`` value
  becomes the result of its task.

The kernel knows nothing about FLStore; :mod:`repro.engine.flstore` builds
the serving semantics on top of it.

Examples
--------
>>> loop = EventLoop()
>>> def worker(delay, out):
...     yield Timeout(delay)
...     out.append(loop.now)
...     return delay
>>> out = []
>>> task = loop.process(worker(2.5, out))
>>> loop.run()
>>> (out, task.result, loop.now)
([2.5], 2.5, 2.5)
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Timeout:
    """Yielded by a process to sleep for ``seconds`` of virtual time."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"Timeout must be non-negative, got {self.seconds}")


class SimTask:
    """A future resolved at some virtual time.

    Processes obtain one from :meth:`EventLoop.process`, or create one
    directly to model a resource grant (e.g. a queue slot) that another
    component will :meth:`resolve` later.
    """

    __slots__ = ("loop", "name", "_done", "_result", "_callbacks")

    def __init__(self, loop: "EventLoop", name: str | None = None) -> None:
        self.loop = loop
        self.name = name
        self._done = False
        self._result: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def done(self) -> bool:
        """Whether the task has been resolved."""
        return self._done

    @property
    def result(self) -> Any:
        """The task's result (raises if not yet resolved)."""
        if not self._done:
            raise RuntimeError(f"task {self.name or id(self)} is not done yet")
        return self._result

    def add_done_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(result)`` when the task resolves (immediately if done)."""
        if self._done:
            callback(self._result)
        else:
            self._callbacks.append(callback)

    def resolve(self, value: Any = None) -> None:
        """Resolve the task with ``value`` and fire waiting callbacks in order."""
        if self._done:
            raise RuntimeError(f"task {self.name or id(self)} is already resolved")
        self._done = True
        self._result = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"SimTask(name={self.name!r}, {state})"


#: A process is a generator yielding Timeout / SimTask and returning a value.
Process = Generator[Any, Any, Any]

#: One scheduled event: ``(virtual_time, sequence, action)``.
_Entry = tuple[float, int, Callable[[], None]]


class _CalendarQueue:
    """A bucketed schedule of ``(time, seq, action)`` entries.

    The window ``[base, base + buckets * width)`` is split into equal-width
    buckets; entries land in their bucket unsorted and a bucket is sorted
    lazily when the consuming cursor reaches it.  Entries at or beyond the
    window end sit in an overflow heap until a rollover advances the window
    (re-tuning the bucket width to the observed backlog density).  Pops are
    globally ordered by ``(time, seq)``: the active bucket always holds the
    earliest in-window entries and the overflow only holds later ones.
    """

    __slots__ = (
        "_buckets",
        "_num_buckets",
        "_width",
        "_base",
        "_year_end",
        "_cursor",
        "_active",
        "_head",
        "_overflow",
        "_size",
    )

    def __init__(self, start: float, num_buckets: int = 64, width: float = 1.0) -> None:
        self._num_buckets = num_buckets
        self._width = width
        self._base = start
        self._year_end = start + num_buckets * width
        self._buckets: list[list[_Entry]] = [[] for _ in range(num_buckets)]
        self._cursor = 0  # first bucket that may still hold entries
        self._active = -1  # bucket currently sorted and being consumed
        self._head = 0  # next entry index within the active bucket
        self._overflow: list[_Entry] = []  # entries at/past the window end
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, entry: _Entry) -> None:
        self._size += 1
        when = entry[0]
        if when >= self._year_end:
            heapq.heappush(self._overflow, entry)
            return
        index = int((when - self._base) / self._width)
        if index >= self._num_buckets:
            index = self._num_buckets - 1
        if self._active >= 0:
            if index <= self._active:
                # The active bucket is already sorted and partially consumed;
                # keep it sorted.  The new entry's (time, seq) exceeds every
                # consumed entry, so it always lands at or after the head.
                insort(self._buckets[self._active], entry)
                return
        elif index < self._cursor:
            # The scan cursor already passed this (drained) bucket; pull it
            # back so peek() revisits the bucket.  Everything in between is
            # empty, so the rescan is cheap and order is unaffected.
            self._cursor = index
        self._buckets[index].append(entry)

    def peek(self) -> _Entry | None:
        """The earliest entry by ``(time, seq)``, or ``None`` when empty."""
        while True:
            if self._active >= 0:
                bucket = self._buckets[self._active]
                if self._head < len(bucket):
                    return bucket[self._head]
                self._buckets[self._active] = []
                self._cursor = self._active + 1
                self._active = -1
                self._head = 0
            buckets = self._buckets
            cursor = self._cursor
            num_buckets = self._num_buckets
            while cursor < num_buckets and not buckets[cursor]:
                cursor += 1
            self._cursor = cursor
            if cursor < num_buckets:
                bucket = buckets[cursor]
                bucket.sort()
                self._active = cursor
                self._head = 0
                return bucket[0]
            if not self._overflow:
                return None
            self._rollover()

    def advance(self) -> None:
        """Consume the entry that :meth:`peek` just returned."""
        self._head += 1
        self._size -= 1

    def _rollover(self) -> None:
        """Advance the window to the earliest overflow entry and refill."""
        overflow = self._overflow
        base = overflow[0][0]
        num_buckets = self._num_buckets
        if len(overflow) > 1:
            # Re-tune the width so the new window captures a healthy slice
            # of the backlog: aim for a handful of entries per bucket.
            span = max(entry[0] for entry in overflow) - base
            if span > 0.0:
                per_entry = span / len(overflow)
                self._width = min(max(per_entry * 4.0, span / (num_buckets * 8.0)), span)
        year_end = base + num_buckets * self._width
        keep: list[_Entry] = []
        width = self._width
        buckets = self._buckets
        for entry in overflow:
            if entry[0] >= year_end:
                keep.append(entry)
                continue
            index = int((entry[0] - base) / width)
            if index >= num_buckets:
                index = num_buckets - 1
            buckets[index].append(entry)
        heapq.heapify(keep)
        self._overflow = keep
        self._base = base
        self._year_end = year_end
        self._cursor = 0
        self._active = -1
        self._head = 0


class _EventStream:
    """A sorted block of instants consumed through a cursor (`schedule_many`)."""

    __slots__ = ("times", "action", "cursor", "seq_base", "size")

    def __init__(self, times: np.ndarray, action: Callable[[int], None], seq_base: int) -> None:
        self.times = times
        self.action = action
        self.cursor = 0
        self.seq_base = seq_base
        self.size = int(times.size)

    def remaining(self) -> int:
        return self.size - self.cursor


class EventLoop:
    """A deterministic discrete-event loop over virtual time.

    Events are ordered by ``(time, sequence)``: two events scheduled for the
    same virtual instant fire in the order they were scheduled, so runs are
    reproducible by construction.  The backing store is a calendar queue
    (plus sorted-array streams from :meth:`schedule_many`); the ordering
    contract is identical to a single ``(time, seq)`` heap.
    """

    __slots__ = ("now", "_queue", "_seq", "_stream_heads", "events_fired")

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self._queue = _CalendarQueue(self.now)
        self._seq = 0
        # Min-heap of (head_time, head_seq, stream) across live streams.
        self._stream_heads: list[tuple[float, int, _EventStream]] = []
        self.events_fired = 0

    # ----------------------------------------------------------- scheduling

    def schedule_at(self, when: float, action: Callable[[], None]) -> None:
        """Schedule ``action()`` to fire at virtual time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        self._queue.push((float(when), seq, action))

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action()`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self.now + delay, action)

    def schedule_many(
        self, times: Sequence[float] | np.ndarray, action: Callable[[int], None]
    ) -> None:
        """Schedule ``action(i)`` at each ``times[i]`` from a sorted array.

        The bulk fast path for pre-known instants (e.g. arrival times):
        instead of N individual pushes, the block reserves a contiguous
        sequence range up front and :meth:`run` consumes it through a
        cursor, merging with individually scheduled events.  The total
        order is exactly as if each instant had been ``schedule_at``-ed in
        array order.  ``times`` must be non-decreasing and start at or
        after :attr:`now`.
        """
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"times must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            return
        first = float(arr[0])
        if first < self.now:
            raise ValueError(f"cannot schedule into the past ({first} < {self.now})")
        if arr.size > 1 and bool(np.any(np.diff(arr) < 0.0)):
            raise ValueError("times must be non-decreasing")
        seq_base = self._seq
        self._seq = seq_base + int(arr.size)
        stream = _EventStream(arr, action, seq_base)
        heapq.heappush(self._stream_heads, (first, seq_base, stream))

    def pending(self) -> int:
        """Number of events still scheduled (calendar plus stream tails)."""
        return len(self._queue) + sum(entry[2].remaining() for entry in self._stream_heads)

    # ------------------------------------------------------------ processes

    def process(
        self, generator: Process, task: SimTask | None = None, name: str | None = None
    ) -> SimTask:
        """Start driving ``generator`` as a timed process; returns its task.

        The generator may yield :class:`Timeout` (sleep) or :class:`SimTask`
        (wait; the task's result is sent back into the generator).  Its
        ``return`` value resolves the process task.
        """
        task = task if task is not None else SimTask(self, name=name)
        self._step(generator, task, None)
        return task

    def _step(self, generator: Process, task: SimTask, send_value: Any) -> None:
        try:
            yielded = generator.send(send_value)
        except StopIteration as stop:
            task.resolve(stop.value)
            return
        if isinstance(yielded, Timeout):
            self.schedule(yielded.seconds, lambda: self._step(generator, task, None))
        elif isinstance(yielded, SimTask):
            if yielded.done:
                # Already-resolved waits still go through the schedule so
                # that resumption order matches the scheduling order of
                # every other same-timestamp event.
                result = yielded.result
                self.schedule(0.0, lambda: self._step(generator, task, result))
            else:
                yielded.add_done_callback(lambda value: self._step(generator, task, value))
        else:
            raise TypeError(
                f"processes may yield Timeout or SimTask, got {type(yielded).__name__}"
            )

    # --------------------------------------------------------------- running

    def run(self, until: Optional[float] = None) -> float:
        """Fire events in order until the schedule drains (or past ``until``).

        Returns the final virtual time.  With ``until`` set, the boundary is
        inclusive: events at exactly ``until`` fire, events strictly later
        stay queued (calendar entries and stream tails alike), and the clock
        lands exactly on ``until``.
        """
        queue = self._queue
        stream_heads = self._stream_heads
        while True:
            entry = queue.peek()
            if stream_heads:
                head_time, head_seq, stream = stream_heads[0]
                if entry is None or head_time < entry[0] or (
                    head_time == entry[0] and head_seq < entry[1]
                ):
                    if until is not None and head_time > until:
                        break
                    index = stream.cursor
                    cursor = index + 1
                    stream.cursor = cursor
                    if cursor < stream.size:
                        heapq.heapreplace(
                            stream_heads,
                            (float(stream.times[cursor]), stream.seq_base + cursor, stream),
                        )
                    else:
                        heapq.heappop(stream_heads)
                    self.now = head_time
                    self.events_fired += 1
                    stream.action(index)
                    continue
            if entry is None:
                break
            when = entry[0]
            if until is not None and when > until:
                break
            queue.advance()
            self.now = when
            self.events_fired += 1
            entry[2]()
        if until is not None and until > self.now:
            self.now = until
        return self.now
