"""Hyperparameter tracking and tuning (policy P4).

Aggregates the hyperparameter/performance metadata of the most recent ``R``
rounds to recommend the next round's configuration — the single-shot/federated
hyperparameter-tuning use cases of Table 1.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.metadata import ClientRoundMetadata
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest, group_means


class HyperparameterTuningWorkload(Workload):
    """Recommend the next round's hyperparameters from recent round metadata."""

    name = "hyperparameter_tuning"
    display_name = "Hyperparam. tuning"
    policy_class = PolicyClass.P4_METADATA
    base_compute_seconds = 0.3
    per_item_compute_seconds = 0.008

    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """Metadata of every participant in the most recent ``R`` rounds."""
        recent = int(request.params.get("recent_rounds", 10))
        keys: list[DataKey] = []
        for round_id in catalog.recent_rounds(recent, up_to=request.round_id):
            keys.extend(
                DataKey.metadata(cid, round_id) for cid in catalog.metadata_clients(round_id)
            )
        return keys

    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        records = [value for value in data.values() if isinstance(value, ClientRoundMetadata)]
        if not records:
            return {"round_id": request.round_id, "recommended": {}, "num_configurations": 0}

        # Group observed configurations by (learning-rate bucket, batch size)
        # and score each group by mean local accuracy.  A bucket is the
        # learning rate rounded to a power of ten; ``slot`` numbers the
        # (exponent, batch size) groups in order of first appearance.
        learning_rates = np.array([r.hyperparameters.learning_rate for r in records])
        exponents = np.round(np.log10(np.maximum(learning_rates, 1e-6))).tolist()
        slot: dict[tuple[float, int], int] = {}
        groups = [
            slot.setdefault((exponent, record.hyperparameters.batch_size), len(slot))
            for exponent, record in zip(exponents, records)
        ]
        means = group_means(
            np.array([r.local_accuracy for r in records]), np.array(groups), len(slot)
        )
        scored = {(10.0**exponent, bs): mean for (exponent, bs), mean in zip(slot, means.tolist())}
        best_key = max(scored, key=scored.get)
        return {
            "round_id": request.round_id,
            "num_configurations": len(scored),
            "configuration_scores": {f"lr~{k[0]:g}/bs{k[1]}": v for k, v in scored.items()},
            "recommended": {"learning_rate": best_key[0], "batch_size": best_key[1]},
            "expected_accuracy": scored[best_key],
        }
