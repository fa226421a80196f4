"""Incentive / payout distribution (policy P4).

Computes token payouts for clients from their recent participation metadata
(accuracy, samples contributed, dropouts) over the most recent ``R`` rounds —
the TIFF-style incentive mechanisms of Table 1.  Only small metadata records
are needed, which is why the paper maps incentive monitoring to policy P4.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Mapping

import numpy as np

from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.metadata import ClientRoundMetadata
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest


class IncentivesWorkload(Workload):
    """Distribute a per-round incentive budget according to recent contributions."""

    name = "incentives"
    display_name = "Incentives"
    policy_class = PolicyClass.P4_METADATA
    base_compute_seconds = 0.4
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
            return {"round_id": request.round_id, "payouts": {}, "budget": 0.0}
        budget = float(request.params.get("budget_dollars", 100.0))
        contributions = (
            np.array([r.local_accuracy for r in records])
            * np.log1p([r.num_samples for r in records])
            * np.where([r.dropped_out for r in records], 0.25, 1.0)
        )
        scores: dict[int, float] = defaultdict(float)
        for record, contribution in zip(records, contributions.tolist()):
            scores[record.client_id] += contribution
        total = sum(scores.values()) or 1e-9
        payouts = {cid: budget * score / total for cid, score in scores.items()}
        return {
            "round_id": request.round_id,
            "budget": budget,
            "payouts": payouts,
            "num_clients": len(payouts),
            "top_earner": max(payouts, key=payouts.get),
        }
