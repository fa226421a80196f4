"""Malicious-client filtering (policy P2).

Screens every client update of a round for adversarial behaviour using two
complementary signals: the update's distance from the round's robust centre
(coordinate-wise median) and its cosine alignment with that centre.  Updates
that are both far and misaligned are flagged, mirroring the per-round
filtering systems cited by the paper (TIFF and similar).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest


def _median(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)`` for finite ``values``, from one sort.

    Equal to ``np.median`` (the mean of the two middle values, or the middle
    one), without its per-call overhead, which dominates on a round's few rows.
    """
    ordered = np.sort(values, axis=0)
    n = ordered.shape[0]
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2


class MaliciousFilteringWorkload(Workload):
    """Flag adversarial updates in a round via robust-distance and alignment tests."""

    name = "malicious_filtering"
    display_name = "Malicious Filtering"
    policy_class = PolicyClass.P2_ROUND
    base_compute_seconds = 0.3
    per_item_compute_seconds = 0.075

    #: Robust z-score beyond which a distance is considered anomalous.
    distance_threshold: float = 2.5
    #: Cosine alignment below which an update is considered misaligned.
    alignment_threshold: float = 0.0

    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """Every client update of the requested round."""
        return [
            DataKey.update(cid, request.round_id) for cid in catalog.participants(request.round_id)
        ]

    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        updates, matrix = self.round_updates(request, data)
        if len(updates) < 2:
            return {"round_id": request.round_id, "flagged_clients": [], "scores": {}}
        center = _median(matrix)
        distances = np.linalg.norm(matrix - center, axis=1)
        med = _median(distances)
        mad = _median(np.abs(distances - med)) or 1e-9
        robust_z = (distances - med) / (1.4826 * mad)

        center_norm = np.linalg.norm(center) or 1e-9
        row_norms = np.linalg.norm(matrix, axis=1)
        row_norms = np.where(row_norms == 0, 1e-9, row_norms)
        alignments = (matrix @ center) / (row_norms * center_norm)

        client_ids = [u.client_id for u in updates]
        flagged = (robust_z > self.distance_threshold) & (alignments < self.alignment_threshold)
        scores = {
            client_id: {"robust_z": z, "alignment": alignment}
            for client_id, z, alignment in zip(client_ids, robust_z.tolist(), alignments.tolist())
        }
        return {
            "round_id": request.round_id,
            "flagged_clients": sorted(c for c, bad in zip(client_ids, flagged.tolist()) if bad),
            "scores": scores,
            "num_examined": len(updates),
        }
