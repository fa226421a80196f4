"""Repetition loop, metrics and output of the simulator benchmark.

One invocation measures one workload at one seed:

1. one warm-up repetition at the smoke size (checked, not timed);
2. untraced repetitions, each a set-up from empty caches plus a serving
   phase, until they add up to ``--seconds`` (half of it with
   ``--trace 1``);
3. without ``--trace``, extra set-ups until :data:`MIN_SETUPS` set-up times
   are in hand;
4. with ``--trace 1``, traced repetitions for the other half of the time,
   every layer boundary wrapped (:mod:`perfbench.layers`).

Every repetition runs the host speed reference (:mod:`perfbench.hostspeed`)
and its host times are scaled by it.  End-to-end metrics come from the
untraced repetitions only: medians over repetitions of throughput and of
set-up time, and percentiles over calls of the host time per
``FLStore.serve`` and per ``FLStore.ingest_round`` call (set-up and
serving), each call taken at its median over repetitions.
Those two methods are the only ones wrapped in an untraced run.  Per-layer
metrics are medians over the traced repetitions, in raw host time.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time

import numpy as np

from repro.analysis import setup_cache

from perfbench.hostspeed import HostClock
from perfbench.layers import PER_LAYER_UNITS, layer_boundaries, layer_metrics, probe_boundaries
from perfbench.tracer import Span, Tracer, write_spans
from perfbench.workloads import Rep, calibration_memo_entries, make_workload

#: Every end-to-end metric with its unit, in output order.
END_TO_END_UNITS: dict[str, str] = {
    "requests_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "ingest_p50_ms": "ms",
    "ingest_p95_ms": "ms",
}

#: Fewest untraced repetitions behind a median (without ``--trace``).
MIN_REPS = 3
#: Fewest set-ups behind the ``setup_s`` median.
MIN_SETUPS = 7
#: Stop adding repetitions after this much wall time, whatever the budget.
WALL_CAP_S = 120.0


def _cache_counters() -> dict:
    return {**setup_cache.stats.as_dict(), "calibration_memo": calibration_memo_entries()}


def run_rep(workload, boundaries, serve: bool = True, keep_spans: bool = False) -> Rep:
    """One repetition: empty the caches, set up, and (optionally) serve.

    Host times are scaled by the repetition's :class:`HostClock`, whose
    kernel runs before set-up, between set-up and serving, and after
    serving.  An untraced repetition also runs it from the wrapped calls; a
    traced one (``keep_spans``) does not, so no kernel run lands inside a
    span of the per-layer table.  The spans are reduced to the per-call
    host times the end-to-end metrics need (and, with ``keep_spans``, the
    per-layer table), so the process holds no more per repetition than it
    must: peak RSS must not grow with the number of repetitions a run fits
    in.
    """
    workload.reset()
    gc.collect()
    clock = HostClock()
    clock.bracket()
    tracer = Tracer(boundaries, on_call=None if keep_spans else clock.maybe_sample)
    served = error = None
    with tracer:
        with tracer.span("bench.setup") as setup_span:
            state = workload.setup()
        after_setup = _cache_counters()
        clock.bracket()
        with tracer.span("bench.serve") as serve_span:
            if serve:
                try:
                    served = workload.serve(state)
                except Exception as exc:  # a failed run, reported below
                    error = exc
    clock.bracket()
    del state
    after_serve = _cache_counters()
    spans = tracer.spans
    phases = [setup_span, serve_span]
    serve_calls = [span for span in spans if span.name == "core.serve"]
    ingest_calls = [span for span in spans if span.name == "core.ingest"]
    scaled_phases = clock.scaled(*_bounds(phases))
    rep = Rep(
        workload=workload.name,
        setup_s=float(scaled_phases[0]),
        serve_s=float(scaled_phases[1]),
        raw_setup_s=setup_span.duration,
        raw_serve_s=serve_span.duration,
        serve_ms=(clock.scaled(*_bounds(serve_calls)) * 1e3).tolist(),
        ingest_ms=(clock.scaled(*_bounds(ingest_calls)) * 1e3).tolist(),
        kernel_s=statistics.median(clock.kernel_times()),
        cache_stats={k: v for k, v in after_serve.items() if k != "calibration_memo"},
        provenance={
            **workload.provenance(),
            "cache_after_setup": after_setup,
            "cache_after_serve": after_serve,
        },
    )
    if serve and error is not None:
        rep.failed = workload.attempted()
        rep.failures = [f"serving raised {error!r}"]
    elif serve:
        workload.finish(served, spans, rep)
    if keep_spans:
        rep.spans = spans
    return rep


def _bounds(spans: list[Span]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([s.start for s in spans]), np.array([s.end for s in spans])


def _call_percentile(reps: list[Rep], attr: str, q: float) -> float:
    """``q``-th percentile over calls of each call's median time over ``reps``.

    Every repetition of a run makes the same calls in the same order (same
    seed, same inputs), so call ``i`` of one repetition is call ``i`` of
    every other; its median over repetitions drops the repetitions in which
    a host hiccup hit it.  :func:`measure` checks the counts match.
    """
    per_call = np.median(np.array([getattr(rep, attr) for rep in reps]), axis=0)
    return float(np.percentile(per_call, q)) if per_call.size else 0.0


def end_to_end(reps: list[Rep], setups: list[Rep]) -> dict[str, float]:
    """Medians over repetitions and percentiles over calls, scaled."""
    return {
        "requests_per_s": statistics.median(rep.requests_per_s for rep in reps),
        "setup_s": statistics.median(rep.setup_s for rep in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "serve_p50_ms": _call_percentile(reps, "serve_ms", 50),
        "serve_p99_ms": _call_percentile(reps, "serve_ms", 99),
        "ingest_p50_ms": _call_percentile(reps, "ingest_ms", 50),
        "ingest_p95_ms": _call_percentile(reps, "ingest_ms", 95),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    spans_dir: str | None = None,
) -> dict:
    """Run one workload; return the result object and its details."""
    started = time.perf_counter()
    workload = make_workload(name, seed, size)
    probe = probe_boundaries()

    def in_budget(elapsed: float, budget: float) -> bool:
        return elapsed < budget and time.perf_counter() - started < WALL_CAP_S

    # The warm-up runs the smoke size: it pays first-call costs (lazy
    # imports, first allocations) and is checked, but is not timed.
    warmup_workload = make_workload(name, seed, "tiny")
    warmup = run_rep(warmup_workload, probe)
    reps: list[Rep] = []
    budget = seconds / 2 if trace else seconds
    while len(reps) < (1 if trace else MIN_REPS) or in_budget(
        sum(r.raw_setup_s + r.raw_serve_s for r in reps), budget
    ):
        reps.append(run_rep(workload, probe))
    setups = list(reps)
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_rep(workload, probe, serve=False))
    traced: list[Rep] = []
    per_rep: list[dict[str, float]] = []
    if trace:
        boundaries = layer_boundaries()
        while not traced or in_budget(
            sum(r.raw_setup_s + r.raw_serve_s for r in traced), seconds / 2
        ):
            rep = run_rep(workload, boundaries, keep_spans=True)
            per_rep.append(layer_metrics(rep.spans, rep))
            if traced:
                traced[-1].spans = []
            traced.append(rep)

    checked = [*reps, *traced]
    digests = sorted({rep.digest for rep in checked if rep.digest})
    failures = [
        f"{i}: {message}" for i, rep in enumerate([warmup, *checked]) for message in rep.failures
    ]
    attempted = warmup_workload.attempted() + sum(workload.attempted() for _ in checked)
    failed = warmup.failed + sum(rep.failed for rep in checked)
    for attr in ("serve_ms", "ingest_ms"):
        counts = sorted({len(getattr(rep, attr)) for rep in reps})
        if len(counts) > 1:
            failed += workload.attempted()
            failures.append(f"{attr} call counts differ between repetitions: {counts}")
            for rep in reps:
                setattr(rep, attr, [])
    if len(digests) > 1:
        # Same seed, same inputs: every repetition, traced or not, must
        # simulate the same thing.
        majority = statistics.mode(rep.digest for rep in checked if rep.digest)
        for rep in checked:
            if rep.digest != majority and not rep.failed:
                failed += workload.attempted()
                failures.append(f"sim_digest {rep.digest} != {majority}")

    if trace:
        metrics = {
            key: statistics.median(values[key] for values in per_rep) for key in PER_LAYER_UNITS
        }
        untraced_rate = statistics.median(rep.requests_per_s for rep in reps)
        traced_rate = statistics.median(rep.requests_per_s for rep in traced)
        metrics["trace.overhead_ratio"] = traced_rate / untraced_rate if untraced_rate else 0.0
        units = PER_LAYER_UNITS
        if spans_dir is not None:
            os.makedirs(spans_dir, exist_ok=True)
            write_spans(traced[-1].spans, os.path.join(spans_dir, f"spans-{name}-seed{seed}.json"))
    else:
        metrics = end_to_end(reps, setups)
        units = END_TO_END_UNITS

    last = (traced or reps)[-1]
    details = {
        "workload": name,
        "seed": seed,
        "size": size,
        "repetitions": {"untraced": len(reps), "traced": len(traced), "setups": len(setups)},
        "requests_per_rep": last.requests,
        "calls_per_rep": {"serve": len(reps[-1].serve_ms), "ingest": len(reps[-1].ingest_ms)},
        "kernel_ms": {
            "median": statistics.median(rep.kernel_s for rep in checked) * 1e3,
            "min": min(rep.kernel_s for rep in checked) * 1e3,
            "max": max(rep.kernel_s for rep in checked) * 1e3,
        },
        "raw_requests_per_s": statistics.median(rep.requests / rep.raw_serve_s for rep in reps),
        "raw_setup_s": statistics.median(rep.raw_setup_s for rep in setups),
        "sim_digest": digests[0] if len(digests) == 1 else digests,
        "provenance": last.provenance,
        "failed_share": failed / attempted if attempted else 0.0,
        "failures": failures[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return {"details": details, "result": result}


def report_lines(outcome: dict) -> list[str]:
    """The human-readable lines, the details line and the result line."""
    details, result = outcome["details"], outcome["result"]
    lines = [
        f"{name:34s} {entry['value']:>16.6g} {entry['unit']}"
        for name, entry in result["metrics"].items()
    ]
    lines.append(f"{'failed_share':34s} {details['failed_share']:>16.6g} ratio")
    lines.append(json.dumps(details, sort_keys=True))
    lines.append(json.dumps(result))
    return lines


def combine(names: tuple[str, ...], outcomes: list[dict]) -> dict:
    """One result for several workloads run in one process."""
    results = [outcome["result"] for outcome in outcomes]
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {
            f"{name}/{metric}": entry
            for name, result in zip(names, results)
            for metric, entry in result["metrics"].items()
        },
    }
