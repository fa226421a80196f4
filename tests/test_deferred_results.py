"""Workload outputs computed on first read, and the serve-time validation beside them.

Every serving path (``FLStore.serve``, ``serve_degraded``, ObjStore-Agg and
Cache-Agg) validates a request's data when it serves it and returns a
:class:`DeferredResult` that runs ``Workload.compute`` on the first read of
``ServeResult.result``.  A deferred output must equal the eager one computed
at serve time, however much the systems change before it is read, and a
request that cannot be computed must still fail at serve time.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import setup_cache
from repro.baselines.cache_agg import CacheAggregator
from repro.baselines.objstore_agg import ObjStoreAggregator
from repro.common.errors import WorkloadError
from repro.core.flstore import build_default_flstore
from repro.engine.flstore import serve_degraded
from repro.workloads.base import DeferredResult
from repro.workloads.registry import get_workload, list_workloads

PATHS = ("flstore", "degraded", "objstore_agg", "cache_agg")


@pytest.fixture()
def systems(small_config, rounds):
    """FLStore, ObjStore-Agg and Cache-Agg with all but the last three rounds ingested."""
    built = (
        build_default_flstore(small_config),
        ObjStoreAggregator(small_config),
        CacheAggregator(small_config),
    )
    for record in rounds[:-3]:
        for system in built:
            system.ingest_round(record)
    return built


def _serve(path, systems, request):
    flstore, objstore_agg, cache_agg = systems
    if path == "flstore":
        return flstore.serve(request)
    if path == "degraded":
        return serve_degraded(flstore, request)
    return (objstore_agg if path == "objstore_agg" else cache_agg).serve(request)


def _request(flstore, name, round_id, **params):
    client = flstore.catalog.participants(round_id)[0]
    return flstore.make_request(name, round_id=round_id, client_id=client, **params)


def _record_validate(monkeypatch, workload):
    """Record a copy of every ``(request, data)`` that ``workload.validate`` sees."""
    seen = []
    validate = workload.validate

    def recording(request, data):
        seen.append((request, dict(data)))
        validate(request, data)

    monkeypatch.setattr(workload, "validate", recording)
    return seen


def _dumps(result):
    return json.dumps(result, sort_keys=True)


@pytest.mark.parametrize("path", PATHS)
def test_deferred_output_equals_eager_output(systems, rounds, path, monkeypatch):
    flstore = systems[0]
    round_id = flstore.catalog.latest_round
    pending = []
    resolved_keys = set()
    for name in list_workloads():
        workload = get_workload(name)
        seen = _record_validate(monkeypatch, workload)
        request = _request(flstore, name, round_id)
        served = _serve(path, systems, request)
        [(validated, data)] = seen
        assert validated is request
        resolved_keys.update(data)
        pending.append((name, served, _dumps(workload.compute(request, data))))
        assert not served.output.computed

    # Ingests clear FLStore's memo and evict keys; more serves refill both.
    for record in rounds[-3:]:
        for system in systems:
            system.ingest_round(record)
        for name in list_workloads():
            _serve(path, systems, _request(flstore, name, record.round_id))
    assert not all(flstore.engine.is_cached(key) for key in resolved_keys)

    for name, served, eager in pending:
        assert not served.output.computed, name
        assert _dumps(served.result) == eager, name
        assert served.output.computed


@pytest.mark.parametrize("name", list_workloads())
def test_unevaluated_result_survives_snapshot_copy(flstore, name):
    served = flstore.serve(_request(flstore, name, flstore.catalog.latest_round))
    copy = setup_cache.snapshot_copy(served)
    assert not copy.output.computed
    copied = _dumps(copy.result)
    assert not served.output.computed
    assert copied == _dumps(served.result)


def test_ready_cell_holds_its_value():
    value = {"admitted": False}
    cell = DeferredResult.ready(value)
    assert cell.computed
    assert cell.get() is value
    assert cell == DeferredResult.ready({"admitted": False})


def test_serve_results_compare_by_value(small_config, rounds):
    twins = [build_default_flstore(small_config) for _ in range(2)]
    for system in twins:
        for record in rounds:
            system.ingest_round(record)
    for name in list_workloads():
        first, second = (
            system.serve(_request(system, name, system.catalog.latest_round)) for system in twins
        )
        assert first.output is not second.output
        assert first == second, name


# ----------------------------------------------------------- errors stay loud


def _raises(call):
    try:
        call()
    except WorkloadError:
        return True
    return False


def _data_subsets(full, seeds=8):
    """Empty, full and seeded random halves of ``full`` (each key kept with p=1/2)."""
    keys = list(full)
    yield {}
    yield dict(full)
    for seed in range(seeds):
        keep = np.random.default_rng(seed).random(len(keys)) < 0.5
        yield {key: full[key] for key, kept in zip(keys, keep) if kept}


_INFERENCE_PARAMS = [{}, {"batch_size": 0}, {"batch_size": "8"}, {"batch_size": -1}]
_INFERENCE_PARAMS += [{"batch_size": "many"}, {"batch_size": None}]


@pytest.mark.parametrize("name", list_workloads())
def test_validate_raises_exactly_when_compute_raises(flstore, name):
    workload = get_workload(name)
    params_cases = _INFERENCE_PARAMS if name == "inference" else [{}]
    raised = 0
    cases = 0
    for round_id in (1, 5, flstore.catalog.latest_round):
        for params in params_cases:
            request = _request(flstore, name, round_id, **params)
            full = {
                key: flstore.persistent_store.get(key).value
                for key in workload.required_keys(request, flstore.catalog)
            }
            for data in _data_subsets(full):
                invalid = _raises(lambda: workload.validate(request, data))
                assert invalid == _raises(lambda: workload.compute(request, data)), (
                    round_id,
                    params,
                    sorted(map(str, data)),
                )
                raised += invalid
                cases += 1
    # Only inference can fail today; the others accept every subset.
    assert (raised > 0) == (name == "inference"), (raised, cases)


@pytest.mark.parametrize("path", PATHS)
def test_inference_without_aggregate_raises_at_serve(systems, path):
    flstore = systems[0]
    request = flstore.make_request("inference", round_id=999)
    with pytest.raises(WorkloadError):
        _serve(path, systems, request)


@pytest.mark.parametrize("path", PATHS)
def test_bad_batch_size_raises_at_serve(systems, path):
    flstore = systems[0]
    request = _request(flstore, "inference", flstore.catalog.latest_round, batch_size="many")
    with pytest.raises(WorkloadError):
        _serve(path, systems, request)
