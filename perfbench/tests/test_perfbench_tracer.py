"""The span tracer: self-time arithmetic, wrapping and restoring."""

from __future__ import annotations

import types

import pytest

from perfbench.tracer import Boundary, Span, Tracer, aggregate, descendants_of, self_times


def _tree() -> list[Span]:
    # root [0, 10]
    #   a [1, 4]           b [3, 6]  (overlaps a: merged, not counted twice)
    #     a1 [2, 3]
    #   c [9, 12]          (runs past the root: clipped to [9, 10])
    #     c1 [9.5, 11]     (c's child, also past the root)
    return [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),
        Span("c", 9.0, 12.0, 0),
        Span("c1", 9.5, 11.0, 4),
    ]


def test_self_time_subtracts_merged_child_intervals():
    own = self_times(_tree())
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 6
    assert own == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.5, 1.5])


def test_self_times_of_a_call_stack_add_up_to_the_root_span():
    spans = _tree()[:3]
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_aggregate_counts_only_outermost_calls_of_a_name():
    spans = [
        Span("bench", 0.0, 10.0, -1),
        Span("route", 1.0, 5.0, 0),
        Span("route", 2.0, 3.0, 1),  # re-entrant: not a second call
        Span("route", 6.0, 7.0, 0),
    ]
    stats = aggregate(spans)
    assert stats["route"].calls == 2
    assert stats["route"].total_s == pytest.approx(5.0)
    assert stats["route"].self_s == pytest.approx(5.0)
    assert stats["bench"].self_s == pytest.approx(5.0)


def test_descendants_follow_parents_at_any_depth():
    assert descendants_of(_tree(), 1) == [2]
    assert descendants_of(_tree(), 0) == [1, 2, 3, 4, 5]


class _Store:
    def serve(self, request):
        return self.lookup(request.request_id)

    def lookup(self, key):
        if key == "bad":
            raise KeyError(key)
        return key.upper()


def test_wrapping_records_nested_spans_and_restores_originals():
    module = types.ModuleType("fake")
    module.helper = lambda value: value * 2
    serve, lookup, helper = _Store.serve, _Store.lookup, module.helper
    tracer = Tracer(
        [
            Boundary(_Store, "serve", "store.serve", request_arg=1),
            Boundary(_Store, "lookup", "store.lookup"),
            Boundary(module, "helper", "fake.helper"),
        ]
    )
    request = types.SimpleNamespace(request_id="r1")
    with tracer:
        assert _Store().serve(request) == "R1"
        assert module.helper(3) == 6
        with pytest.raises(KeyError):
            _Store().serve(types.SimpleNamespace(request_id="bad"))
    assert vars(_Store)["serve"] is serve
    assert vars(_Store)["lookup"] is lookup
    assert module.helper is helper
    names = [(s.name, s.parent, s.request_id) for s in tracer.spans]
    assert names == [
        ("store.serve", -1, "r1"),
        ("store.lookup", 0, "r1"),  # inherits its parent's request id
        ("fake.helper", -1, None),
        ("store.serve", -1, "bad"),
        ("store.lookup", 3, "bad"),
    ]
    # The failed call's spans are closed too.
    assert all(span.end >= span.start > 0 for span in tracer.spans)


def test_stale_boundary_fails_loudly_and_leaves_nothing_wrapped():
    serve = _Store.serve
    tracer = Tracer(
        [Boundary(_Store, "serve", "store.serve"), Boundary(_Store, "missing", "x")]
    )
    with pytest.raises(AttributeError, match="out of date"):
        tracer.install()
    assert vars(_Store)["serve"] is serve


def test_traced_run_restores_every_wrapped_attribute():
    from perfbench.bench import run_rep
    from perfbench.layers import layer_boundaries
    from perfbench.workloads import make_workload

    boundaries = layer_boundaries()
    originals = [vars(b.owner)[b.attr] for b in boundaries]
    for name in ("fault-remediate", "round-ingest"):
        rep = run_rep(make_workload(name, seed=3, size="tiny"), boundaries, keep_spans=True)
        assert rep.failed == 0, rep.failures
        assert len(rep.spans) > 100
    for boundary, original in zip(boundaries, originals):
        assert vars(boundary.owner)[boundary.attr] is original, boundary
