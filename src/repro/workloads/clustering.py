"""Client clustering over a round's updates (policy P2).

Groups the clients of a round by the direction of their model updates using
k-means on the reduced weight vectors (the clustered-FL approach of Ghosh et
al. and Auxo).  Clustering is the heaviest non-training computation in the
paper's Figure 12 (~6 s for EfficientNet-sized updates).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.common.rng import derive_rng
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest


def kmeans(
    matrix: np.ndarray, k: int, seed: int = 0, max_iterations: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Plain k-means (Lloyd's algorithm) on the rows of ``matrix``.

    Returns ``(labels, centers)``; the center of every non-empty cluster is
    the mean of its members.  Implemented here (rather than depending on
    scikit-learn) because the simulator only needs a small, deterministic
    clustering primitive.  Points are assigned by squared Euclidean distance,
    which has the same argmin as the distance and skips the square root.
    """
    n = matrix.shape[0]
    k = max(1, min(k, n))
    rng = derive_rng(seed, "kmeans-init")
    centers = matrix[rng.choice(n, size=k, replace=False)]
    labels = np.zeros(n, dtype=int)
    for iteration in range(max_iterations):
        offsets = matrix[:, None, :] - centers
        new_labels = np.square(offsets, out=offsets).sum(axis=2).argmin(axis=1)
        if iteration > 0 and (new_labels == labels).all():
            break
        labels = new_labels
        # Move every non-empty cluster's center to its members' mean.  Sorting
        # the rows stably by label makes each cluster one slice, summed in row
        # order exactly as ``matrix[labels == cluster].mean(axis=0)`` would.
        grouped = matrix[np.argsort(labels, kind="stable")]
        stop = 0
        for cluster, size in enumerate(np.bincount(labels, minlength=k).tolist()):
            start, stop = stop, stop + size
            if size:
                centers[cluster] = grouped[start:stop].sum(axis=0) / size
    return labels, centers


class ClusteringWorkload(Workload):
    """Cluster a round's client updates into ``k`` groups."""

    name = "clustering"
    display_name = "Clustering"
    policy_class = PolicyClass.P2_ROUND
    base_compute_seconds = 1.0
    per_item_compute_seconds = 0.5

    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """Every client update of the requested round."""
        return [
            DataKey.update(cid, request.round_id) for cid in catalog.participants(request.round_id)
        ]

    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        updates, matrix = self.round_updates(request, data)
        if not updates:
            return {"round_id": request.round_id, "assignments": {}, "num_clusters": 0}
        k = int(request.params.get("num_clusters", 3))
        labels, centers = kmeans(matrix, k, seed=request.round_id)
        residuals = matrix - centers[labels]
        return {
            "round_id": request.round_id,
            "assignments": dict(zip([u.client_id for u in updates], labels.tolist())),
            "num_clusters": int(centers.shape[0]),
            "cluster_sizes": np.bincount(labels, minlength=centers.shape[0]).tolist(),
            "inertia": float(np.vdot(residuals, residuals)),
        }
