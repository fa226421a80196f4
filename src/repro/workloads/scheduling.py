"""Client-selection scheduling workloads.

Two schedulers from the paper's evaluation:

* **Sched. (Cluster)** — clustered/tier-based scheduling (TiFL-style): groups
  a round's clients into performance tiers from their model updates and
  round metadata; mapped to policy **P2** because it needs every update of
  the round.
* **Sched. (Perf.)** — performance-aware guided selection (Oort-style):
  scores clients from their recent metadata (train time, accuracy,
  availability) to pick the next round's participants; mapped to policy
  **P4** because it only needs recent configuration/performance metadata.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.metadata import ClientRoundMetadata
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest, group_means
from repro.workloads.clustering import kmeans


class ClusterSchedulingWorkload(Workload):
    """Tier clients of a round by update direction and training speed."""

    name = "scheduling_cluster"
    display_name = "Sched. (Cluster)"
    policy_class = PolicyClass.P2_ROUND
    base_compute_seconds = 0.3
    per_item_compute_seconds = 0.075

    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """All updates plus the metadata of the requested round."""
        participants = catalog.participants(request.round_id)
        keys = [DataKey.update(cid, request.round_id) for cid in participants]
        keys.extend(
            DataKey.metadata(cid, request.round_id)
            for cid in catalog.metadata_clients(request.round_id)
        )
        return keys

    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        updates, matrix = self.round_updates(request, data)
        if not updates:
            return {"round_id": request.round_id, "tiers": {}, "num_tiers": 0}
        num_tiers = int(request.params.get("num_tiers", 3))
        labels, _ = kmeans(matrix, num_tiers, seed=request.round_id + 17)

        train_seconds = {
            value.client_id: value.train_seconds
            for value in data.values()
            if isinstance(value, ClientRoundMetadata)
        }
        tiers: dict[int, list[int]] = {}
        for label, update in zip(labels.tolist(), updates):
            tiers.setdefault(label, []).append(update.client_id)
        tier_speed = {
            tier: float(np.mean([train_seconds.get(cid, 60.0) for cid in members]))
            for tier, members in tiers.items()
        }
        schedule = [
            cid for tier in sorted(tier_speed, key=tier_speed.get) for cid in sorted(tiers[tier])
        ]
        return {
            "round_id": request.round_id,
            "tiers": {tier: sorted(members) for tier, members in tiers.items()},
            "tier_mean_train_seconds": tier_speed,
            "num_tiers": len(tiers),
            "schedule": schedule,
        }


class PerformanceSchedulingWorkload(Workload):
    """Score clients from recent metadata and propose the next round's participants."""

    name = "scheduling_perf"
    display_name = "Sched. (Perf.)"
    policy_class = PolicyClass.P4_METADATA
    base_compute_seconds = 0.35
    per_item_compute_seconds = 0.01

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
            return {"round_id": request.round_id, "selected_clients": [], "scores": {}}
        target = int(request.params.get("clients_to_select", 10))
        deadline = float(request.params.get("round_deadline_seconds", 120.0))

        # Oort-style utility: statistical utility (accuracy) discounted by
        # how badly the client overshoots the round deadline.
        durations = np.array([r.round_duration_seconds for r in records])
        time_penalty = np.minimum(1.0, deadline / np.maximum(durations, 1e-3))
        utility = (
            np.array([r.local_accuracy for r in records])
            * np.array([r.resources.availability for r in records])
            * time_penalty
            * np.where([r.dropped_out for r in records], 0.5, 1.0)
        )
        # Clients in order of first appearance, as ``slot`` numbers them.
        slot: dict[int, int] = {}
        groups = np.array([slot.setdefault(r.client_id, len(slot)) for r in records])
        scores = dict(zip(slot, group_means(utility, groups, len(slot)).tolist()))
        ranked = sorted(scores, key=scores.get, reverse=True)
        return {
            "round_id": request.round_id,
            "scores": scores,
            "selected_clients": ranked[:target],
            "num_candidates": len(scores),
        }
