"""The simulator's layer boundaries and the per-layer metrics derived from them.

:func:`layer_boundaries` lists, per layer, the public functions and methods
the traced run wraps, each at the place its caller looks it up: a module
attribute for functions imported by name (``repro.scenario.build`` imports
``run_fast_path`` and ``compute_recovery_metrics``, so those are wrapped
there), a class attribute for methods.  :func:`probe_boundaries` is the
two-entry subset every run installs, so ``FLStore.serve`` and
``FLStore.ingest_round`` host times and results are available without the
full trace.  :func:`layer_metrics` turns the spans of one traced repetition
into the ``<layer>.<what>`` table of ``BENCHMARK.json``.
"""

from __future__ import annotations

from repro.analysis import setup_cache
from repro.baselines.base import AggregatorBaseline
from repro.cloud.object_store import ObjectStore
from repro.core.cache_engine import CacheEngine
from repro.core.flstore import FLStore
from repro.core.serverless_cache import ServerlessCacheCluster
from repro.engine import flstore as engine_flstore
from repro.engine import sharded
from repro.engine.faults import FaultPlan
from repro.engine.kernel import EventLoop
from repro.engine.remediate import RemediationController
from repro.engine.streaming import StreamingLoadCollector
from repro.fl.trainer import FLJobSimulator
from repro.routing.router import ConsistentHashRouter, JoinShortestQueueRouter, ModuloRouter
from repro.scenario import build
from repro.serverless.platform import ServerlessPlatform
from repro.traces.arrivals import BurstyArrivals, DiurnalArrivals, PoissonArrivals
from repro.traces.generator import RequestTraceGenerator
from repro.workloads.registry import get_workload, list_workloads

from perfbench.tracer import Boundary, Span, aggregate
from perfbench.workloads import serve_phase_results

# ----------------------------------------------------------------- annotations


def _serve_result(span: Span, args: tuple, result, state) -> None:
    span.attrs = {
        "hits": result.cache_hits,
        "misses": result.cache_misses,
        "prefetched": result.prefetched_keys,
        "evicted": result.evicted_keys,
        "failovers": result.failovers,
        "latency_s": result.latency.total_seconds,
        "cost_usd": result.cost.total_dollars,
    }


def _ingest_report(span: Span, args: tuple, result, state) -> None:
    span.attrs = {"admitted": result.admitted_keys, "evicted": result.evicted_keys}


def _events_before(args: tuple) -> int:
    return args[0].events_fired


def _events_fired(span: Span, args: tuple, result, before: int) -> None:
    span.attrs = {"events": args[0].events_fired - before}


def _baseline_serve_name(system) -> str:
    return f"baselines.{system.system_name.replace('-', '_')}.serve"


# ------------------------------------------------------------------ boundaries


def probe_boundaries() -> list[Boundary]:
    """``FLStore.serve`` and ``FLStore.ingest_round``: timed in every run."""
    return [
        Boundary(FLStore, "serve", "core.serve", request_arg=1, annotate=_serve_result),
        Boundary(FLStore, "ingest_round", "core.ingest", annotate=_ingest_report),
    ]


def _defining_classes(classes, attr: str) -> list[type]:
    """The distinct classes that define ``attr`` for each of ``classes``."""
    owners: list[type] = []
    for cls in classes:
        owner = next(c for c in cls.__mro__ if attr in vars(c))
        if owner not in owners:
            owners.append(owner)
    return owners


def layer_boundaries() -> list[Boundary]:
    """Every boundary of the traced run, grouped by layer."""
    boundaries = [
        # traces
        *(
            Boundary(owner, attr, "traces.arrivals")
            for attr in ("times", "times_array")
            for owner in _defining_classes(
                (PoissonArrivals, BurstyArrivals, DiurnalArrivals), attr
            )
        ),
        *(
            Boundary(RequestTraceGenerator, attr, "traces.generator")
            for attr in ("mixed_trace", "tenant_trace", "workload_trace")
        ),
        # fl
        Boundary(FLJobSimulator, "run_rounds", "fl.simulate"),
        # scenario (module functions, wrapped where run() looks them up)
        Boundary(build, "run", "scenario.run"),
        Boundary(build, "build_tier", "scenario.build_tier"),
        Boundary(build, "calibrate_mean_service_seconds", "scenario.calibrate"),
        Boundary(build, "make_shadow_runner", "scenario.make_shadow_runner",
                 returns_span="engine.remediate.shadow"),
        # analysis.setup_cache
        Boundary(build, "prepare_setup", "setup_cache.prepare_setup"),
        Boundary(setup_cache, "simulate_job", "setup_cache.simulate_job"),
        Boundary(setup_cache, "get_system_snapshots", "setup_cache.snapshot_load"),
        Boundary(setup_cache, "put_system_snapshots", "setup_cache.snapshot_dump"),
        # engine.kernel (plus the front-door admission code inside run())
        Boundary(EventLoop, "run", "engine.loop", before=_events_before,
                 annotate=_events_fired),
        Boundary(engine_flstore.EngineFLStore, "run_open_loop", "engine.open_loop"),
        Boundary(sharded.ShardedEngineFLStore, "run_open_loop", "engine.open_loop"),
        # routing
        *(
            Boundary(owner, "route", "routing.route")
            for owner in _defining_classes(
                (ModuloRouter, ConsistentHashRouter, JoinShortestQueueRouter), "route"
            )
        ),
        # core: the serving oracle and the write path
        *probe_boundaries(),
        Boundary(ServerlessCacheCluster, "resolve_many", "core.resolve"),
        Boundary(ServerlessCacheCluster, "resolve", "core.resolve"),
        Boundary(CacheEngine, "plan_request", "core.plan"),
        Boundary(CacheEngine, "admit", "core.admit"),
        Boundary(CacheEngine, "apply_evictions", "core.evict"),
        # workloads: every registered workload's compute
        *(
            Boundary(owner, "compute", "workloads.compute", request_arg=1)
            for owner in _defining_classes(
                [type(get_workload(name)) for name in list_workloads()], "compute"
            )
        ),
        # cloud and serverless
        Boundary(ObjectStore, "get", "cloud.objstore.get"),
        Boundary(ObjectStore, "put", "cloud.objstore.put"),
        Boundary(ServerlessPlatform, "invoke", "serverless.invoke"),
        # engine.streaming and the report builders
        Boundary(StreamingLoadCollector, "fold", "engine.streaming.fold"),
        Boundary(StreamingLoadCollector, "fold_served_arrays", "engine.streaming.fold"),
        Boundary(StreamingLoadCollector, "build_report", "engine.report"),
        Boundary(engine_flstore, "build_load_report", "engine.report"),
        Boundary(sharded, "build_load_report", "engine.report"),
        # engine.vectorized
        Boundary(build, "run_fast_path", "engine.vectorized"),
        # engine.faults, engine.remediate, engine.sharded
        Boundary(build, "compute_recovery_metrics", "engine.faults.recovery"),
        Boundary(FaultPlan, "start", "engine.faults.start"),
        Boundary(RemediationController, "start", "engine.remediate.start"),
        Boundary(sharded.ShardedEngineFLStore, "add_shard", "engine.sharded.add_shard"),
        Boundary(sharded.ShardedEngineFLStore, "crash_shard", "engine.sharded.crash_shard"),
        # baselines
        Boundary(AggregatorBaseline, "serve", "baselines.serve", request_arg=1,
                 name_of=_baseline_serve_name),
        Boundary(AggregatorBaseline, "ingest_round", "baselines.ingest"),
    ]
    return boundaries


# --------------------------------------------------------------------- metrics

#: Every per-layer metric with its unit, in output order.
PER_LAYER_UNITS: dict[str, str] = {
    "workloads.compute.calls": "count",
    "workloads.compute.s": "s",
    "core.serve.calls": "count",
    "core.serve.self_s": "s",
    "core.resolve.s": "s",
    "core.plan.s": "s",
    "core.admit.s": "s",
    "core.evict.s": "s",
    "core.serve.calls_per_req": "ratio",
    "core.ingest.calls": "count",
    "core.ingest.s": "s",
    "core.ingest.admitted_keys": "count",
    "core.ingest.evicted_keys": "count",
    "engine.loop.self_s": "s",
    "engine.kernel.events": "count",
    "engine.kernel.ns_per_event": "ns",
    "routing.route.calls": "count",
    "routing.route.s": "s",
    "routing.max_shard_share": "ratio",
    "engine.report.s": "s",
    "engine.streaming.fold.s": "s",
    "engine.vectorized.self_s": "s",
    "traces.arrivals.s": "s",
    "traces.generator.s": "s",
    "fl.simulate.s": "s",
    "scenario.calibrate.s": "s",
    "scenario.build_tier.self_s": "s",
    "setup_cache.hits": "count",
    "setup_cache.misses": "count",
    "cloud.objstore.get.calls": "count",
    "cloud.objstore.get.s": "s",
    "cloud.objstore.put.s": "s",
    "serverless.invoke.s": "s",
    "engine.faults.recovery.s": "s",
    "engine.faults.events": "count",
    "engine.remediate.ticks": "count",
    "engine.remediate.shadow_runs": "count",
    "engine.remediate.shadow.s": "s",
    "engine.remediate.accept_ratio": "ratio",
    "engine.sharded.add_shard.calls": "count",
    "engine.sharded.add_shard.s": "s",
    "baselines.objstore_agg.serve.s": "s",
    "baselines.cache_agg.serve.s": "s",
    "baselines.ingest.s": "s",
    "model.hit_ratio": "ratio",
    "model.prefetched_per_req": "keys/req",
    "model.evicted_per_req": "keys/req",
    "model.failovers": "count",
    "model.requeued": "count",
    "model.shed_rate": "ratio",
    "model.sim_wait_mean_s": "s",
    "model.p99_sojourn_s": "s",
    "model.flstore.latency_mean_s": "s",
    "model.flstore.cost_per_req_usd": "USD",
    "model.objstore_agg.latency_mean_s": "s",
    "model.objstore_agg.cost_per_req_usd": "USD",
    "model.cache_agg.latency_mean_s": "s",
    "model.cache_agg.cost_per_req_usd": "USD",
    "model.latency_reduction_vs_objstore": "ratio",
    "model.cost_reduction_vs_objstore": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.self_s_sum": "s",
    "trace.spans": "count",
}


def layer_metrics(spans: list[Span], rep) -> dict[str, float]:
    """The per-layer table of one traced repetition (set-up and serving).

    ``rep`` is the :class:`perfbench.workloads.Rep` the spans were recorded
    in; it supplies the request count, the run report's control-layer
    counters and the modelled (``model.*``) values.  The tracer overhead
    ratio is filled in by the caller, which also ran untraced repetitions.
    """
    stats = aggregate(spans)

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    def total(name: str) -> float:
        return stats[name].total_s if name in stats else 0.0

    def own(name: str) -> float:
        return stats[name].self_s if name in stats else 0.0

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)

    events = attr_sum("engine.loop", "events")
    loop_self = own("engine.loop")
    root_wall = sum(s.duration for s in spans if s.parent < 0)
    metrics = {
        "workloads.compute.calls": calls("workloads.compute"),
        "workloads.compute.s": total("workloads.compute"),
        "core.serve.calls": calls("core.serve"),
        "core.serve.self_s": own("core.serve"),
        "core.resolve.s": total("core.resolve"),
        "core.plan.s": total("core.plan"),
        "core.admit.s": total("core.admit"),
        "core.evict.s": total("core.evict"),
        "core.serve.calls_per_req": len(serve_phase_results(spans)) / max(rep.requests, 1),
        "core.ingest.calls": calls("core.ingest"),
        "core.ingest.s": total("core.ingest"),
        "core.ingest.admitted_keys": attr_sum("core.ingest", "admitted"),
        "core.ingest.evicted_keys": attr_sum("core.ingest", "evicted"),
        "engine.loop.self_s": loop_self,
        "engine.kernel.events": events,
        "engine.kernel.ns_per_event": loop_self / events * 1e9 if events else 0.0,
        "routing.route.calls": calls("routing.route"),
        "routing.route.s": total("routing.route"),
        "engine.report.s": total("engine.report"),
        "engine.streaming.fold.s": total("engine.streaming.fold"),
        "engine.vectorized.self_s": own("engine.vectorized"),
        "traces.arrivals.s": total("traces.arrivals"),
        "traces.generator.s": total("traces.generator"),
        "fl.simulate.s": total("fl.simulate"),
        "scenario.calibrate.s": total("scenario.calibrate"),
        "scenario.build_tier.self_s": own("scenario.build_tier"),
        "setup_cache.hits": rep.cache_stats["rounds_hits"] + rep.cache_stats["snapshot_hits"],
        "setup_cache.misses": (
            rep.cache_stats["rounds_misses"] + rep.cache_stats["snapshot_misses"]
        ),
        "cloud.objstore.get.calls": calls("cloud.objstore.get"),
        "cloud.objstore.get.s": total("cloud.objstore.get"),
        "cloud.objstore.put.s": total("cloud.objstore.put"),
        "serverless.invoke.s": total("serverless.invoke"),
        "engine.faults.recovery.s": total("engine.faults.recovery"),
        "engine.remediate.shadow.s": total("engine.remediate.shadow"),
        "engine.sharded.add_shard.calls": calls("engine.sharded.add_shard"),
        "engine.sharded.add_shard.s": total("engine.sharded.add_shard"),
        "baselines.objstore_agg.serve.s": total("baselines.objstore_agg.serve"),
        "baselines.cache_agg.serve.s": total("baselines.cache_agg.serve"),
        "baselines.ingest.s": total("baselines.ingest"),
        **{
            name: rep.counters.get(name, 0)
            for name in (
                "routing.max_shard_share",
                "engine.faults.events",
                "engine.remediate.ticks",
                "engine.remediate.shadow_runs",
                "engine.remediate.accept_ratio",
            )
        },
        **{f"model.{key}": value for key, value in rep.model.items()},
        "trace.overhead_ratio": 0.0,
        "trace.wall_s": root_wall,
        "trace.self_s_sum": sum(entry.self_s for entry in stats.values()),
        "trace.spans": len(spans),
    }
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not derived: {sorted(missing)}")
    return {name: metrics[name] for name in PER_LAYER_UNITS}
