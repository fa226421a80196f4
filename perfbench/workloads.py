"""The benchmark's four workloads, their correctness checks and digests.

Each workload is a batch job with a set-up phase and a measured serving
phase, both driven through the simulator's public API:

* ``event-burst`` — the registered ``sharded-burst`` scenario (four hashed
  shards, bursty open-loop arrivals at utilization 2.0, drop at depth 8,
  full metrics) with more requests: every request crosses the event kernel,
  routing, admission and the FLStore serving oracle.
* ``fast-stream`` — the registered ``million-request`` scenario (plain tier,
  Poisson at 0.8, streaming metrics), served on the vectorized fast path.
* ``round-ingest`` — the paper's loop, closed-loop: each FL round is
  ingested into FLStore, ObjStore-Agg and Cache-Agg, then a batch of all
  eleven registered workloads is served on all three systems.
* ``fault-remediate`` — the registered ``fault-recovery`` scenario (three
  JSQ shards, a shard crash at 30 s, shadow-verified remediation) with more
  requests.

Set-up starts from empty set-up and calibration caches and ends with a tier
(or three systems) ready to serve.  The serving phase of a scenario
workload is the program's own :func:`repro.scenario.build.run`, handed the
tier built in set-up (see :func:`_prebuilt_tier`).  Every workload's seed
is the benchmark's ``--seed``; the simulator only sees the inputs generated
from it.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis import setup_cache
from repro.baselines.cache_agg import CacheAggregator
from repro.baselines.objstore_agg import ObjStoreAggregator
from repro.core.flstore import build_default_flstore
from repro.engine.vectorized import explain_fast_path
from repro.scenario import build, get_scenario
from repro.workloads.base import PolicyClass, WorkloadRequest
from repro.workloads.registry import get_workload, list_workloads

from perfbench.tracer import Span, descendants_of

#: Request (or round) counts per size.  ``full`` is what the benchmark
#: measures; ``tiny`` keeps the benchmark's own tests fast.
SIZES: dict[str, dict[str, int]] = {
    "full": {
        "event-burst": 12000,
        "fast-stream": 1_000_000,
        "round-ingest": 200,
        "fault-remediate": 4500,
    },
    "tiny": {
        "event-burst": 64,
        "fast-stream": 2000,
        "round-ingest": 4,
        "fault-remediate": 96,
    },
}

#: Registered scenario behind each scenario workload.
SCENARIOS = {
    "event-burst": "sharded-burst",
    "fast-stream": "million-request",
    "fault-remediate": "fault-recovery",
}

WORKLOAD_NAMES = ("event-burst", "fast-stream", "round-ingest", "fault-remediate")

#: Relative tolerance of the Little's-law check (float rounding only).
LITTLE_RTOL = 1e-9

#: Modelled systems of the round-ingest loop, keyed by their metric prefix.
SYSTEMS = ("flstore", "objstore_agg", "cache_agg")


@dataclass
class Rep:
    """One set-up plus (usually) one serving phase, checked."""

    workload: str
    #: Scaled host times (:mod:`perfbench.hostspeed`) of the two phases.
    setup_s: float
    serve_s: float
    #: Raw host times of the two phases, kernel runs included.
    raw_setup_s: float
    raw_serve_s: float
    #: Scaled host time (ms) of each ``FLStore.serve`` call, set-up included.
    serve_ms: list[float]
    #: Scaled host time (ms) of each ``FLStore.ingest_round`` call, set-up
    #: included.
    ingest_ms: list[float]
    #: Median time of the repetition's host speed kernel runs.
    kernel_s: float
    #: ``repro.analysis.setup_cache.stats`` at the end of the repetition.
    cache_stats: dict[str, int]
    provenance: dict[str, Any]
    #: Simulated requests finished (served, degraded or shed) while serving.
    requests: int = 0
    #: Requests that raised or failed a correctness check.
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    #: Modelled quantities (``model.*`` without the prefix).
    model: dict[str, float] = field(default_factory=dict)
    #: Control-layer counts read from the run report (``<layer>.<what>``
    #: names; empty on round-ingest).
    counters: dict[str, float] = field(default_factory=dict)
    #: The repetition's spans, kept only where per-layer metrics need them.
    spans: list[Span] = field(default_factory=list, repr=False)

    @property
    def requests_per_s(self) -> float:
        """Throughput in scaled host time."""
        return self.requests / self.serve_s if self.serve_s > 0 else 0.0


def digest_of(payload: Any) -> str:
    """SHA-256 of ``payload`` as canonical JSON (floats at full precision)."""

    def plain(value: Any) -> Any:
        if isinstance(value, np.generic):
            return value.item()
        return repr(value)

    text = json.dumps(payload, sort_keys=True, default=plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def serve_phase_results(spans: list[Span]) -> list[dict]:
    """Attributes of the ``FLStore.serve`` calls made while serving."""
    serve_root = next(i for i, s in enumerate(spans) if s.name == "bench.serve")
    return [
        spans[i].attrs
        for i in descendants_of(spans, serve_root)
        if spans[i].name == "core.serve" and spans[i].attrs
    ]


def oracle_model(results: list[dict]) -> dict[str, float]:
    """``model.*`` values read from FLStore's ``ServeResult``s."""
    count = len(results)
    hits = sum(r["hits"] for r in results)
    lookups = hits + sum(r["misses"] for r in results)
    return {
        "hit_ratio": hits / lookups if lookups else 0.0,
        "prefetched_per_req": sum(r["prefetched"] for r in results) / count if count else 0.0,
        "evicted_per_req": sum(r["evicted"] for r in results) / count if count else 0.0,
        "failovers": sum(r["failovers"] for r in results),
        "flstore.latency_mean_s": (
            sum(r["latency_s"] for r in results) / count if count else 0.0
        ),
        "flstore.cost_per_req_usd": sum(r["cost_usd"] for r in results) / count if count else 0.0,
    }


def _empty_caches() -> None:
    setup_cache.clear()
    build.clear_calibration_cache()


def calibration_memo_entries() -> int:
    """Entries in the scenario layer's calibration memo (it has no counters)."""
    return len(build._calibration_cache)


@contextmanager
def _prebuilt_tier(spec, tier):
    """Make ``run(spec)`` serve on ``tier`` instead of building its own.

    :func:`repro.scenario.build.run` builds its tier first; swapping the
    ``build_tier`` it looks up for one that returns the tier built (and
    timed) in set-up keeps set-up out of the serving measurement while the
    serving path stays the program's own.  Any other spec (the remediation
    controller's shadow runs) still builds normally.
    """
    build_tier = build.build_tier
    build.build_tier = lambda s: tier if s is spec else build_tier(s)
    try:
        yield
    finally:
        build.build_tier = build_tier


# ------------------------------------------------------------------ scenarios


class ScenarioWorkload:
    """A registered scenario with its request count scaled and its seed set."""

    def __init__(self, name: str, seed: int, size: str = "full") -> None:
        self.name = name
        self.spec = get_scenario(SCENARIOS[name]).with_overrides(
            {"seed": seed, "workload.num_requests": SIZES[size][name]}
        )

    def reset(self) -> None:
        _empty_caches()

    def setup(self):
        return build.build_tier(self.spec)

    def serve(self, tier):
        with _prebuilt_tier(self.spec, tier):
            return build.run(self.spec)

    def attempted(self) -> int:
        return self.spec.workload.num_requests

    def finish(self, report, spans: list[Span], rep: Rep) -> None:
        """Check ``report`` and record its outcome on ``rep``."""
        load = report.load
        requests = self.attempted()
        fast = not explain_fast_path(self.spec)
        failures = check_load_report(load, fast=fast, requests=requests)
        if any(count is None for _, count in failures):
            failed = requests
        else:
            failed = min(sum(count for _, count in failures), requests)
        model = oracle_model(serve_phase_results(spans))
        model.update(
            {
                "requeued": load.requeued,
                "shed_rate": load.shed_rate,
                "sim_wait_mean_s": load.mean_wait_seconds,
                "p99_sojourn_s": load.p99_sojourn_seconds,
                "objstore_agg.latency_mean_s": 0.0,
                "objstore_agg.cost_per_req_usd": 0.0,
                "cache_agg.latency_mean_s": 0.0,
                "cache_agg.cost_per_req_usd": 0.0,
                "latency_reduction_vs_objstore": 0.0,
                "cost_reduction_vs_objstore": 0.0,
            }
        )
        remediation = report.remediation
        shadow_runs = remediation.shadow_runs if remediation is not None else 0
        rep.requests = load.served + load.degraded + load.shed
        rep.failed = failed
        rep.failures = [message for message, _ in failures]
        rep.digest = digest_of(report.row())
        rep.model = model
        rep.counters = {
            "routing.max_shard_share": (
                report.max_shard_routed / load.submitted if report.max_shard_routed else 0.0
            ),
            "engine.faults.events": report.faults["fault_events"] if report.faults else 0,
            "engine.remediate.ticks": remediation.ticks if remediation is not None else 0,
            "engine.remediate.shadow_runs": shadow_runs,
            "engine.remediate.accept_ratio": (
                remediation.accepts / shadow_runs if shadow_runs else 0.0
            ),
        }

    def provenance(self) -> dict:
        reasons = explain_fast_path(self.spec)
        return {"path": "event" if reasons else "fast", "reasons": reasons}


def check_load_report(load, fast: bool, requests: int) -> list[tuple[str, int | None]]:
    """Correctness checks on a run's load report.

    Returns ``(message, failed requests)`` per failed check; ``None`` marks a
    whole-run check (conservation, Little's law) whose failure cannot be
    pinned on single requests, so every request of the run counts.
    """
    failures: list[tuple[str, int | None]] = []
    offered = load.submitted
    if load.served + load.degraded + load.shed != offered:
        failures.append(
            (f"conservation: {load.served} served + {load.degraded} degraded + "
             f"{load.shed} shed != {offered} offered", None)
        )
    if offered != requests:
        failures.append((f"offered {offered} != {requests} requests generated", None))
    lhs = load.mean_queue_depth * load.horizon_seconds
    rhs = load.completed * load.mean_wait_seconds
    if not math.isclose(lhs, rhs, rel_tol=LITTLE_RTOL, abs_tol=1e-12):
        failures.append(
            (f"Little's law: mean depth x horizon {lhs!r} != completed x mean wait {rhs!r}",
             None)
        )
    if fast and not (load.completed == load.served == requests):
        failures.append(
            (f"fast path: completed {load.completed}, served {load.served}, "
             f"requests {requests} differ", None)
        )
    outcomes = load.outcomes
    if outcomes:
        negative = sum(1 for o in outcomes if o.wait_seconds < 0)
        if negative:
            failures.append((f"{negative} negative waits", negative))
        backwards = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if b.completed_at < a.completed_at
        )
        if backwards:
            failures.append((f"{backwards} completion times out of order", backwards))
    return failures


# ---------------------------------------------------------------- round-ingest


class RoundIngestWorkload:
    """The paper's loop: ingest a round into three systems, then serve a batch.

    Set-up simulates the FL job, builds FLStore, ObjStore-Agg and Cache-Agg,
    and ingests :data:`WARM_ROUNDS` rounds into each, so every workload has
    history to read.  Serving then, for each further round, ingests it into
    the three systems and serves one request of each registered workload (in
    a seeded order, P3 requests following a seeded participant of the round)
    on all three.
    """

    WARM_ROUNDS = 2
    MODEL = "efficientnet_v2_small"

    def __init__(self, seed: int, size: str = "full") -> None:
        self.name = "round-ingest"
        self.seed = seed
        self.rounds = SIZES[size]["round-ingest"]

    def reset(self) -> None:
        _empty_caches()

    def attempted(self) -> int:
        return self.rounds * len(list_workloads()) * len(SYSTEMS)

    def setup(self):
        config = build.paper_experiment_config(self.MODEL, seed=self.seed)
        _, rounds = setup_cache.simulate_job(config, self.WARM_ROUNDS + self.rounds)
        systems = (
            build_default_flstore(config),
            ObjStoreAggregator(config),
            CacheAggregator(config),
        )
        for record in rounds[: self.WARM_ROUNDS]:
            for system in systems:
                system.ingest_round(record)
        return systems, rounds[self.WARM_ROUNDS :], self._batches(rounds[self.WARM_ROUNDS :])

    def _batches(self, rounds) -> list[list]:
        names = list_workloads()
        rng = np.random.default_rng([self.seed, 0x1A6E])
        batches = []
        for record in rounds:
            participants = record.participant_ids
            batch = []
            for index in rng.permutation(len(names)):
                name = names[int(index)]
                client_id = None
                if get_workload(name).policy_class is PolicyClass.P3_ACROSS_ROUNDS:
                    client_id = participants[int(rng.integers(len(participants)))]
                batch.append(
                    WorkloadRequest(
                        request_id=f"ri-{record.round_id}-{name}",
                        workload=name,
                        round_id=record.round_id,
                        client_id=client_id,
                    )
                )
            batches.append(batch)
        return batches

    def serve(self, state):
        systems, rounds, batches = state
        results: list[list] = [[] for _ in systems]
        errors: list[str] = []
        for record, batch in zip(rounds, batches):
            for system in systems:
                system.ingest_round(record)
            for request in batch:
                for system, out in zip(systems, results):
                    try:
                        out.append(system.serve(request))
                    except Exception as exc:  # counted as a failed request
                        errors.append(f"{request.request_id} on {system.system_name}: {exc!r}")
        return results, errors

    def finish(self, served, spans: list[Span], rep: Rep) -> None:
        """Check every result and record the outcome on ``rep``."""
        results, errors = served
        failures = list(errors)
        failed = len(errors)
        sums = {}
        for system, out in zip(SYSTEMS, results):
            bad = [
                r.request_id
                for r in out
                if r.latency.total_seconds < 0
                or r.cost.total_dollars < 0
                or r.cache_hits + r.cache_misses < 1
            ]
            if bad:
                failures.append(
                    f"{system}: {len(bad)} results with negative latency or cost, "
                    f"or no data lookups (first {bad[0]})"
                )
                failed += len(bad)
            sums[system] = {
                "requests": len(out),
                "latency_s": math.fsum(r.latency.total_seconds for r in out),
                "cost_usd": math.fsum(r.cost.total_dollars for r in out),
                "hits": sum(r.cache_hits for r in out),
                "misses": sum(r.cache_misses for r in out),
            }
        model = oracle_model(serve_phase_results(spans))
        flstore_latencies = [r.latency.total_seconds for r in results[0]]
        model.update(
            {
                "requeued": 0,
                "shed_rate": 0.0,
                "sim_wait_mean_s": 0.0,
                "p99_sojourn_s": (
                    float(np.percentile(flstore_latencies, 99)) if flstore_latencies else 0.0
                ),
            }
        )
        for system in SYSTEMS:
            count = max(sums[system]["requests"], 1)
            model[f"{system}.latency_mean_s"] = sums[system]["latency_s"] / count
            model[f"{system}.cost_per_req_usd"] = sums[system]["cost_usd"] / count
        for what, key in (("latency", "latency_mean_s"), ("cost", "cost_per_req_usd")):
            baseline = model[f"objstore_agg.{key}"]
            model[f"{what}_reduction_vs_objstore"] = (
                1.0 - model[f"flstore.{key}"] / baseline if baseline else 0.0
            )
        rep.requests = sum(len(out) for out in results) + len(errors)
        rep.failed = failed
        rep.failures = failures
        rep.digest = digest_of(sums)
        rep.model = model

    def provenance(self) -> dict:
        return {
            "path": "closed-loop",
            "reasons": ["FLStore, ObjStore-Agg and Cache-Agg called directly; no engine"],
        }


def make_workload(name: str, seed: int, size: str = "full"):
    """The workload called ``name`` at ``seed``."""
    if name == "round-ingest":
        return RoundIngestWorkload(seed, size)
    if name in SCENARIOS:
        return ScenarioWorkload(name, seed, size)
    raise KeyError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOAD_NAMES)}")
