"""FLStore's workload-result memo and the determinism it relies on.

``FLStore`` memoizes its deferred ``Workload.compute`` cells per data
signature (``Workload.result_key``): a hit must equal a fresh call, every
ingest must empty the memo, and workloads that opt out must compute once per
request, on the first read of its result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import WorkloadError
from repro.core.flstore import build_default_flstore
from repro.engine.flstore import serve_degraded
from repro.fl.keys import DataKey
from repro.workloads import registry
from repro.workloads.base import PolicyClass, Workload
from repro.workloads.inference import InferenceWorkload
from repro.workloads.registry import get_workload, list_workloads

SRC = Path(__file__).resolve().parents[1] / "src"


class ProbeWorkload(Workload):
    """Reads one round's aggregate and counts its ``compute`` calls."""

    name = "memo-probe"
    policy_class = PolicyClass.P1_INDIVIDUAL

    def __init__(self, memoize: bool = True, error: bool = False) -> None:
        self.memoize = memoize
        self.error = error
        self.calls = 0

    def required_keys(self, request, catalog):
        return [DataKey.aggregate(request.round_id)]

    def result_key(self, request, data):
        return super().result_key(request, data) if self.memoize else None

    def compute(self, request, data):
        self.calls += 1
        if self.error:
            raise WorkloadError(f"request {request.request_id}: probe failure")
        return {"round_id": request.round_id, "keys": len(data)}


@pytest.fixture()
def probe(monkeypatch):
    """Register a probe workload for one test; the registry is restored after."""

    def install(**kwargs) -> ProbeWorkload:
        workload = ProbeWorkload(**kwargs)
        monkeypatch.setitem(registry._REGISTRY, workload.name, workload)
        return workload

    return install


def _request_for(flstore, name: str, round_id: int, **params):
    client = flstore.catalog.participants(round_id)[0]
    return flstore.make_request(name, round_id=round_id, client_id=client, **params)


def _data_for(flstore, workload, request):
    """The objects ``request`` needs, read straight from the persistent store."""
    return {
        key: flstore.persistent_store.get(key).value
        for key in workload.required_keys(request, flstore.catalog)
        if flstore.persistent_store.contains(key)
    }


class TestMemoHits:
    @pytest.mark.parametrize("name", list_workloads())
    def test_hit_equals_fresh_compute(self, flstore, name):
        workload = get_workload(name)
        round_id = flstore.catalog.latest_round
        first = flstore.serve(_request_for(flstore, name, round_id))
        request = _request_for(flstore, name, round_id)
        second = flstore.serve(request)
        assert second.result == workload.compute(request, _data_for(flstore, workload, request))
        if workload.result_key(request, {}) is not None:
            assert second.result is first.result

    def test_degraded_serves_share_the_memo(self, flstore):
        round_id = flstore.catalog.latest_round
        served = flstore.serve(_request_for(flstore, "cosine_similarity", round_id))
        degraded = serve_degraded(flstore, _request_for(flstore, "cosine_similarity", round_id))
        assert degraded.result is served.result


class TestInvalidation:
    @pytest.fixture()
    def partial_flstore(self, small_config, rounds):
        """An FLStore with all but the last round ingested."""
        system = build_default_flstore(small_config)
        for record in rounds[:-1]:
            system.ingest_round(record)
        return system

    @pytest.mark.parametrize("ingest", ["ingest_round", "ingest_round_cold"])
    def test_ingest_empties_the_memo(self, partial_flstore, rounds, ingest):
        system = partial_flstore
        round_id = system.catalog.latest_round
        before = system.serve(_request_for(system, "cosine_similarity", round_id))
        assert system._results
        getattr(system, ingest)(rounds[-1])
        assert not system._results
        after = system.serve(_request_for(system, "cosine_similarity", round_id))
        assert after.result is not before.result
        assert after.result == before.result

    def test_missing_key_gets_its_own_entry(self, flstore):
        name = "cosine_similarity"
        round_id = flstore.catalog.latest_round
        complete = flstore.serve(_request_for(flstore, name, round_id))
        request = _request_for(flstore, name, round_id)
        lost = get_workload(name).required_keys(request, flstore.catalog)[0]
        flstore.engine.apply_evictions([lost])
        flstore.persistent_store.delete(lost)
        assert not flstore.engine.is_cached(lost)
        partial = flstore.serve(_request_for(flstore, name, round_id))
        assert partial.cache_misses >= 1
        assert partial.result != complete.result
        assert len(partial.result["clients"]) == len(complete.result["clients"]) - 1


class TestUnmemoized:
    def test_inference_computes_every_request(self, flstore, monkeypatch):
        calls = []
        compute = InferenceWorkload.compute

        def counting(self, request, data):
            calls.append(request.request_id)
            return compute(self, request, data)

        monkeypatch.setattr(InferenceWorkload, "compute", counting)
        round_id = flstore.catalog.latest_round
        served = [
            flstore.serve(flstore.make_request("inference", round_id=round_id)) for _ in range(3)
        ]
        assert len(calls) == 0
        for result in served:
            result.result
        assert len(calls) == 3
        for result in served:
            result.result
        assert len(calls) == 3

    def test_none_key_computes_every_request(self, flstore, probe):
        workload = probe(memoize=False)
        served = [flstore.serve(flstore.make_request(workload.name, round_id=3)) for _ in range(3)]
        assert workload.calls == 0
        for result in served:
            result.result
        assert workload.calls == 3
        for result in served:
            result.result
        assert workload.calls == 3

    def test_default_key_computes_once(self, flstore, probe):
        workload = probe()
        results = []
        for _ in range(3):
            results.append(flstore.serve(flstore.make_request(workload.name, round_id=3)).result)
        assert workload.calls == 1
        assert results[0] is results[1] is results[2]

    def test_raising_compute_raises_every_call(self, flstore, probe):
        workload = probe(error=True)
        served = [flstore.serve(flstore.make_request(workload.name, round_id=3)) for _ in range(2)]
        assert workload.calls == 0
        for calls, result in enumerate(served * 2, start=1):
            with pytest.raises(WorkloadError):
                result.result
            assert workload.calls == calls
        # Nothing was cached: one more read computes and raises again.
        with pytest.raises(WorkloadError):
            served[0].result
        assert workload.calls == 5

    def test_unhashable_params_compute_without_the_memo(self, flstore, probe):
        workload = probe()
        for _ in range(2):
            served = flstore.serve(flstore.make_request(workload.name, round_id=3, tags=["a"]))
            assert served.result == {"round_id": 3, "keys": 1}
        assert workload.calls == 2
        assert not flstore._results


_INFERENCE_SCRIPT = """
import json
import numpy as np
from repro.fl.keys import DataKey
from repro.fl.models import ModelUpdate
from repro.workloads.base import WorkloadRequest
from repro.workloads.inference import InferenceWorkload

weights = np.linspace(-1.0, 1.0, 16)
aggregate = ModelUpdate(-1, 4, "efficientnet_v2_small", weights, size_bytes=1024)
request = WorkloadRequest("req-000007", "inference", round_id=4)
result = InferenceWorkload().compute(request, {DataKey.aggregate(4): aggregate})
print(json.dumps(result, sort_keys=True))
"""


def _inference_in_subprocess(hash_seed: str) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _INFERENCE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_inference_result_is_independent_of_the_hash_seed():
    assert _inference_in_subprocess("1") == _inference_in_subprocess("2")
