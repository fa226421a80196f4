"""An in-memory span tracer that wraps layer boundaries from outside.

The tracer never edits the program: it replaces a function or method at the
place its caller looks it up (a module attribute or a class attribute) with
a thin wrapper that records one :class:`Span` per call, and puts the
original object back afterwards.  Spans carry a name, start and end times
from ``time.perf_counter``, the index of the span that was open when the call
began (its parent), and the id of the request the call serves, inherited by
every span nested inside it.

Everything here is generic; :mod:`perfbench.layers` holds the table of the
simulator's boundaries and turns spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in the tracer's list, -1 at the root.
    parent: int
    request_id: str | None = None
    #: Counters read from the call's arguments or return value.
    attrs: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Boundary:
    """One wrapped attribute: ``owner.attr`` becomes a span named ``name``.

    ``owner`` is the module or class whose attribute callers look up, and
    ``attr`` must be defined on it directly (not inherited), so restoring it
    puts back exactly the object that was there.
    """

    owner: Any
    attr: str
    name: str
    #: Picks the span name from the call's first argument (e.g. ``self``)
    #: when one method serves several layers; overrides ``name``.
    name_of: Callable[[Any], str] | None = None
    #: Position of the argument carrying a ``request_id``.
    request_arg: int | None = None
    #: ``before(args) -> state`` runs before the call.
    before: Callable[[tuple], Any] | None = None
    #: ``annotate(span, args, result, state)`` runs after a call that returned.
    annotate: Callable[[Span, tuple, Any, Any], None] | None = None
    #: When set, the call returns a callable, which is wrapped as a span
    #: with this name.
    returns_span: str | None = None


@dataclass
class SpanStats:
    """Per-name totals over a span list."""

    #: Calls not nested inside another call of the same name.
    calls: int = 0
    #: Inclusive time of those outermost calls.
    total_s: float = 0.0
    #: Time inside spans of this name not covered by a child span.
    self_s: float = 0.0


class Tracer:
    """Records spans for a set of boundaries while installed.

    Use as a context manager: entering wraps every boundary, leaving
    restores every original attribute (in reverse order, so boundaries that
    share an owner unwind cleanly).  The span list stays readable after
    the tracer is uninstalled.
    """

    def __init__(
        self, boundaries: list[Boundary], on_call: Callable[[], None] | None = None
    ) -> None:
        self.boundaries = list(boundaries)
        #: Runs at the start of every wrapped call, before its span opens.
        self.on_call = on_call
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        try:
            for boundary in self.boundaries:
                try:
                    original = vars(boundary.owner)[boundary.attr]
                except KeyError:
                    raise AttributeError(
                        f"{boundary.owner!r} defines no attribute {boundary.attr!r}; "
                        "the boundary table is out of date"
                    ) from None
                setattr(boundary.owner, boundary.attr, self._wrap(original, boundary))
                self._installed.append((boundary.owner, boundary.attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ---------------------------------------------------------- recording

    def _open(self, name: str, request_id: str | None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if request_id is None and parent >= 0:
            request_id = self.spans[parent].request_id
        span = Span(name, 0.0, 0.0, parent, request_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span around a block of the caller's own code."""
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, original: Callable, boundary: Boundary) -> Callable:
        request_arg = boundary.request_arg
        name_of = boundary.name_of
        before = boundary.before
        annotate = boundary.annotate
        returns_span = boundary.returns_span

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.on_call is not None:
                self.on_call()
            request_id = None
            if request_arg is not None and len(args) > request_arg:
                request_id = getattr(args[request_arg], "request_id", None)
            state = before(args) if before is not None else None
            span = self._open(name_of(args[0]) if name_of else boundary.name, request_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                annotate(span, args, result, state)
            if returns_span is not None:
                result = self._wrap(result, Boundary(None, "", returns_span))
            return result

        return functools.wraps(original)(wrapper)


def write_spans(spans: list[Span], path: str) -> None:
    """Write ``spans`` as one JSON document: a column header plus one row each."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "columns": ["name", "start", "end", "parent", "request_id", "attrs"],
                "spans": [[s.name, s.start, s.end, s.parent, s.request_id, s.attrs] for s in spans],
            },
            handle,
            separators=(",", ":"),
        )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        covered = 0.0
        run_start = run_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            elif end > run_end:
                run_end = end
        if run_end is not None:
            covered += run_end - run_start
        result.append(max(span.duration - covered, 0.0))
    return result


def aggregate(spans: list[Span]) -> dict[str, SpanStats]:
    """Calls, inclusive time and self time per span name.

    ``calls`` and ``total_s`` count only the outermost call of a name, so a
    recursive or re-entrant boundary is not counted twice.
    """
    own = self_times(spans)
    stats: dict[str, SpanStats] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span.name, SpanStats())
        entry.self_s += own[index]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            entry.calls += 1
            entry.total_s += span.duration
    return stats


def descendants_of(spans: list[Span], root: int) -> list[int]:
    """Indices of every span nested (at any depth) inside ``spans[root]``."""
    inside = {root}
    found = []
    for index in range(root + 1, len(spans)):
        if spans[index].parent in inside:
            inside.add(index)
            found.append(index)
    return found

