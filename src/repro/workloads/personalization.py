"""Personalized FL model construction (policy P2).

Builds per-group personalized models by grouping a round's clients by update
similarity and blending each group's mean update with the global aggregate
(the clustered-personalization family of approaches cited in Table 1).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest
from repro.workloads.clustering import kmeans


class PersonalizationWorkload(Workload):
    """Produce per-cluster personalized models from a round's updates."""

    name = "personalization"
    display_name = "Personalized"
    policy_class = PolicyClass.P2_ROUND
    base_compute_seconds = 0.8
    per_item_compute_seconds = 0.25

    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """Every client update of the requested round plus its aggregate."""
        keys = [
            DataKey.update(cid, request.round_id) for cid in catalog.participants(request.round_id)
        ]
        keys.append(DataKey.aggregate(request.round_id))
        return keys

    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        updates, matrix = self.round_updates(request, data)
        aggregate_key = DataKey.aggregate(request.round_id)
        if not updates or aggregate_key not in data:
            return {"round_id": request.round_id, "groups": {}, "personalized_models": 0}
        aggregate = data[aggregate_key]
        mix = float(request.params.get("personalization_mix", 0.5))
        k = int(request.params.get("num_groups", 3))
        labels, centers = kmeans(matrix, k, seed=request.round_id + 1)
        # kmeans leaves every non-empty cluster's center at its members' mean.
        clusters = np.unique(labels).tolist()
        personalized = mix * centers[clusters] + (1.0 - mix) * aggregate.weights
        norms = np.linalg.norm(personalized, axis=1)
        groups: dict[int, list[int]] = {cluster: [] for cluster in clusters}
        for label, update in zip(labels.tolist(), updates):
            groups[label].append(update.client_id)
        for members in groups.values():
            members.sort()
        return {
            "round_id": request.round_id,
            "groups": groups,
            "personalized_models": len(groups),
            "personalized_model_norms": dict(zip(clusters, norms.tolist())),
            "mix": mix,
        }
