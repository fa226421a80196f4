"""Tiny-size runs of every workload: metrics, units, checks and digests."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.bench import measure, report_lines, run_rep
from perfbench.layers import probe_boundaries
from perfbench.workloads import WORKLOAD_NAMES, check_load_report, make_workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


def _result(outcome: dict) -> dict:
    lines = report_lines(outcome)
    return json.loads(lines[-1])


def _measure(workload: str, trace: bool) -> dict:
    return measure(workload, seed=5, seconds=0.01, trace=trace, size="tiny")


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    outcome = _measure(workload, trace=False)
    result = _result(outcome)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, outcome["details"]["failures"]
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert isinstance(outcome["details"]["sim_digest"], str)
    provenance = outcome["details"]["provenance"]
    path = {"fast-stream": "fast", "round-ingest": "closed-loop"}.get(workload, "event")
    assert provenance["path"] == path
    assert bool(provenance["reasons"]) == (path != "fast")
    assert provenance["cache_after_setup"]["rounds_misses"] >= 1


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_per_layer_metric_is_printed_with_its_unit(workload):
    outcome = _measure(workload, trace=True)
    result = _result(outcome)
    assert result["correct"], outcome["details"]["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.self_s_sum"] <= metrics["trace.wall_s"] * (1 + 1e-9)
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["core.ingest.calls"] > 0
    if workload == "round-ingest":
        assert metrics["engine.kernel.events"] == 0
        assert metrics["routing.route.calls"] == 0
        assert metrics["baselines.objstore_agg.serve.s"] > 0
        assert 0 < metrics["model.latency_reduction_vs_objstore"] < 1
    else:
        assert metrics["engine.kernel.events"] > 0
    if workload == "fast-stream":
        assert metrics["core.serve.calls_per_req"] < 1
        assert metrics["engine.vectorized.self_s"] > 0
    if workload == "fault-remediate":
        assert metrics["engine.remediate.ticks"] > 0
        assert metrics["engine.remediate.shadow_runs"] >= 1


def test_same_seed_gives_the_same_digest_and_another_seed_does_not():
    probe = probe_boundaries()
    first = run_rep(make_workload("event-burst", seed=9, size="tiny"), probe)
    again = run_rep(make_workload("event-burst", seed=9, size="tiny"), probe)
    other = run_rep(make_workload("event-burst", seed=10, size="tiny"), probe)
    assert first.digest == again.digest != other.digest


def test_checks_catch_a_broken_report():
    workload = make_workload("event-burst", seed=5, size="tiny")
    workload.reset()
    report = workload.serve(workload.setup())
    load = report.load
    assert check_load_report(load, fast=False, requests=load.submitted) == []
    broken = dataclasses.replace(
        load, shed=load.shed + 1, mean_wait_seconds=load.mean_wait_seconds * 2
    )
    messages = [message for message, _ in check_load_report(broken, False, load.submitted)]
    assert any(m.startswith("conservation") for m in messages)
    assert any(m.startswith("Little's law") for m in messages)
    outcomes = list(load.outcomes)
    outcomes[0], outcomes[-1] = outcomes[-1], outcomes[0]
    reordered = dataclasses.replace(load, outcomes=outcomes)
    assert check_load_report(reordered, False, load.submitted)[0][1] >= 1


def test_command_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "event-burst", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
