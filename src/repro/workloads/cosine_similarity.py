"""Pairwise cosine-similarity analysis of a round's client updates (policy P2).

Used by client-clustering and scheduling systems (Auxo and similar) to group
clients whose updates point in similar directions.  The computation is a
single vectorised pairwise-similarity matrix, which is why it is the fastest
workload in the paper's Figure 12 (~0.03 s of compute).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest


def pairwise_cosine(matrix: np.ndarray) -> np.ndarray:
    """Pairwise cosine-similarity matrix of the rows of ``matrix``."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms == 0, 1.0, norms)
    normalized = matrix / norms
    return normalized @ normalized.T


class CosineSimilarityWorkload(Workload):
    """Compute the pairwise cosine-similarity matrix of a round's updates."""

    name = "cosine_similarity"
    display_name = "Cosine similarity"
    policy_class = PolicyClass.P2_ROUND
    base_compute_seconds = 0.01
    per_item_compute_seconds = 0.002

    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """Every client update of the requested round."""
        return [
            DataKey.update(cid, request.round_id) for cid in catalog.participants(request.round_id)
        ]

    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        updates, matrix = self.round_updates(request, data)
        if not updates:
            return {"round_id": request.round_id, "clients": [], "mean_similarity": 0.0}
        similarity = pairwise_cosine(matrix)
        off_diagonal = similarity[~np.eye(len(updates), dtype=bool)]
        return {
            "round_id": request.round_id,
            "clients": [u.client_id for u in updates],
            "similarity_matrix": similarity.tolist(),
            "mean_similarity": float(off_diagonal.mean()) if off_diagonal.size else 1.0,
            "min_similarity": float(off_diagonal.min()) if off_diagonal.size else 1.0,
        }
