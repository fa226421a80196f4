"""Scenario-API benchmark — spec build/validate/run overhead of the new layer.

Runs a small router-comparison sweep (``consistent-hash`` vs ``jsq`` on a
hot-keyed mix) entirely through the declarative scenario API — spec
validation, dotted-axis expansion, ``build_tier``, ``run`` with conservation
asserted — and merges the rows into ``BENCH_serve.json`` under the
``scenario`` section plus a top-level ``scenario_wall_seconds`` scalar, so
the spec layer's overhead is tracked alongside the sweeps it now powers.
"""

from repro.analysis.perf import merge_bench_json, merge_bench_scalar
from repro.scenario import ArrivalSpec, ScenarioSpec, TierSpec, WorkloadMixSpec, sweep


def test_scenario_sweep(report):
    base = ScenarioSpec(
        name="bench-router-compare",
        num_rounds=6,
        workload=WorkloadMixSpec(workloads=("inference", "scheduling_perf"), num_requests=32),
        arrival=ArrivalSpec(kind="bursty", utilization=2.0),
        tier=TierSpec(shards=4, router_kind="consistent-hash"),
    )

    axes = {"tier.router_kind": ("consistent-hash", "jsq"), "arrival.utilization": (1.0, 2.0)}
    result = report(
        lambda: {"rows": sweep(base, axes=axes)},
        "Scenario sweep (router comparison through the spec API)",
        columns=[
            "scenario",
            "router",
            "utilization",
            "p50_sojourn_seconds",
            "p99_sojourn_seconds",
            "max_shard_routed",
            "served",
            "shed",
            "conserved",
        ],
    )
    rows = result["rows"]
    merge_bench_json(
        "scenario",
        {"rows": rows, "wall_seconds": report.wall_seconds},
    )
    merge_bench_scalar("scenario_wall_seconds", report.wall_seconds)

    assert len(rows) == 4  # 2 routers x 2 utilization levels
    by_point = {(row["router"], row["utilization"]): row for row in rows}
    for row in rows:
        assert row["conserved"] is True
    # The load-aware placement spreads the hot key that hashing concentrates.
    assert (
        by_point[("jsq", 2.0)]["max_shard_routed"]
        < by_point[("consistent-hash", 2.0)]["max_shard_routed"]
    )
