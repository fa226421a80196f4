"""Model inference / serving (policy P1).

Serves predictions from the latest aggregated model.  In the paper this is
the canonical P1 workload: only the final (or latest) aggregated model is
needed, so FLStore caches exactly that object.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.common.errors import WorkloadError
from repro.common.rng import derive_rng
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.models import ModelUpdate
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest


class InferenceWorkload(Workload):
    """Run a batch of predictions against the round's aggregated model."""

    name = "inference"
    display_name = "Inference"
    policy_class = PolicyClass.P1_INDIVIDUAL
    base_compute_seconds = 0.4
    per_item_compute_seconds = 0.6

    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """Only the aggregated model of the requested round is needed."""
        del catalog
        return [DataKey.aggregate(request.round_id)]

    def result_key(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> None:
        """Never memoized: every request draws its own input batch."""
        del request, data
        return None

    def validate(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> None:
        """The round's aggregate must be present and ``batch_size`` a positive integer."""
        self.validate_data(request, data, [DataKey.aggregate(request.round_id)])
        self._batch_size(request)

    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        keys = [DataKey.aggregate(request.round_id)]
        self.validate_data(request, data, keys)
        aggregate: ModelUpdate = data[keys[0]]
        batch_size = self._batch_size(request)
        rng = derive_rng(request.round_id, "inference-batch", request.request_id)
        inputs = rng.normal(0.0, 1.0, size=(batch_size, aggregate.dim))
        logits = inputs @ aggregate.weights
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        predictions = (probabilities >= 0.5).astype(int)
        return {
            "round_id": request.round_id,
            "batch_size": batch_size,
            "positive_fraction": float(predictions.mean()),
            "mean_confidence": float(np.abs(probabilities - 0.5).mean() * 2.0),
            "predictions": predictions.tolist(),
        }

    def _batch_size(self, request: WorkloadRequest) -> int:
        """The requested batch size (default 64); raises :class:`WorkloadError` unless positive."""
        value = request.params.get("batch_size", 64)
        try:
            batch_size = int(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise WorkloadError(
                f"request {request.request_id} ({self.name}): bad batch_size {value!r}"
            ) from exc
        if batch_size < 1:
            raise WorkloadError(
                f"request {request.request_id} ({self.name}): batch_size {batch_size} < 1"
            )
        return batch_size
