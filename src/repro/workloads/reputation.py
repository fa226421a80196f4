"""Client reputation / contribution calculation (policy P2).

Approximates per-client contribution to the round's aggregate with a
leave-one-out marginal-contribution score — a cheap proxy for the Shapley
value contribution measures cited in Table 1 (ShapleyFL and similar) — and
combines it with the client's reported local accuracy into a reputation
score in [0, 1].
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest


class ReputationWorkload(Workload):
    """Compute leave-one-out contribution and reputation scores for a round."""

    name = "reputation"
    display_name = "Reputation calc."
    policy_class = PolicyClass.P2_ROUND
    base_compute_seconds = 0.5
    per_item_compute_seconds = 0.2

    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """Every client update of the requested round."""
        return [
            DataKey.update(cid, request.round_id) for cid in catalog.participants(request.round_id)
        ]

    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        updates, matrix = self.round_updates(request, data)
        n = len(updates)
        if n < 2:
            return {"round_id": request.round_id, "reputations": {}, "contributions": {}}
        weights = np.array([float(u.metrics.get("num_samples", 1.0)) for u in updates])
        weights = weights / weights.sum()
        full_aggregate = weights @ matrix

        # Leave-one-out aggregates, all at once: row i of ``others`` lists every
        # client but i, so ``reduced[i]`` holds the renormalized weights of the
        # round without client i.  Each batched product below runs the same
        # BLAS call per row as a one-client-at-a-time loop would, so every
        # value equals that loop's bit for bit.
        columns = np.arange(n - 1)
        others = columns + (columns >= np.arange(n)[:, None])
        reduced = weights[others]
        reduced /= reduced.sum(axis=1, keepdims=True)
        without = np.matmul(reduced[:, None, :], matrix[others])[:, 0, :]
        # Marginal contribution: how much the aggregate moves when the
        # client is removed (larger movement toward degradation = more
        # valuable client, negative alignment = harmful client).
        shifts = full_aggregate - without
        shift_norms = np.sqrt(np.matmul(shifts[:, None, :], shifts[:, :, None])[:, 0, 0])
        toward_full = np.matmul(shifts[:, None, :], full_aggregate[:, None])[:, 0, 0]
        full_norm = np.linalg.norm(full_aggregate) or 1e-9
        alignments = toward_full / (np.where(shift_norms == 0, 1e-9, shift_norms) * full_norm)
        values = alignments * shift_norms

        lowest = values.min()
        spread = values.max() - lowest or 1e-9
        accuracies = np.array([float(u.metrics.get("local_accuracy", 0.5)) for u in updates])
        scores = 0.6 * ((values - lowest) / spread) + 0.4 * accuracies
        client_ids = [u.client_id for u in updates]
        contributions = dict(zip(client_ids, values.tolist()))
        reputations = {
            client_id: min(max(score, 0.0), 1.0)
            for client_id, score in zip(client_ids, scores.tolist())
        }
        return {
            "round_id": request.round_id,
            "contributions": contributions,
            "reputations": reputations,
            "top_client": max(reputations, key=reputations.get),
        }
