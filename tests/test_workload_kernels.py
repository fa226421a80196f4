"""Differential tests of the workload kernels against per-element reference oracles.

The ``_reference_*`` functions below are the per-element kernels the
vectorized ``Workload.compute`` implementations replaced, kept verbatim
(each takes the workload instance as ``self``).  Every registered workload
must return the same result as its oracle: the same keys in the same order,
the same types, equal discrete fields (ids, labels, tiers, rankings, flagged
lists) and floats within ``rel_tol=1e-9, abs_tol=1e-12``.  The inputs are
every request FLStore serves in the paper's round loop at two seeds, plus
hypothesis-generated rounds with duplicated and all-zero rows, ``k > n`` and
long per-client metadata histories.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import setup_cache
from repro.common.rng import derive_rng
from repro.core.flstore import FLStore, build_default_flstore
from repro.fl.keys import DataKey
from repro.fl.metadata import ClientRoundMetadata, HyperParameters, ResourceProfile
from repro.fl.models import ModelUpdate
from repro.scenario.build import paper_experiment_config
from repro.workloads.base import PolicyClass, WorkloadRequest, group_means
from repro.workloads.registry import get_workload, list_workloads

REL_TOL = 1e-9
ABS_TOL = 1e-12

# --------------------------------------------------------------------------
# Reference oracles: the per-element kernels, verbatim.
# --------------------------------------------------------------------------


def _reference_kmeans(
    matrix: np.ndarray, k: int, seed: int = 0, max_iterations: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    n = matrix.shape[0]
    k = max(1, min(k, n))
    rng = derive_rng(seed, "kmeans-init")
    centers = matrix[rng.choice(n, size=k, replace=False)]
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iterations):
        distances = np.linalg.norm(matrix[:, None, :] - centers[None, :, :], axis=2)
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for cluster in range(k):
            members = matrix[labels == cluster]
            if len(members):
                centers[cluster] = members.mean(axis=0)
    return labels, centers


def _reference_clustering(self, request, data):
    keys = sorted(k for k in data if k.is_update and k.round_id == request.round_id)
    updates = self.updates_from(data, keys)
    if not updates:
        return {"round_id": request.round_id, "assignments": {}, "num_clusters": 0}
    k = int(request.params.get("num_clusters", 3))
    matrix = np.stack([u.weights for u in updates])
    labels, centers = _reference_kmeans(matrix, k, seed=request.round_id)
    assignments = {u.client_id: int(labels[i]) for i, u in enumerate(updates)}
    sizes = np.bincount(labels, minlength=centers.shape[0]).tolist()
    inertia = float(
        sum(np.linalg.norm(matrix[i] - centers[labels[i]]) ** 2 for i in range(len(updates)))
    )
    return {
        "round_id": request.round_id,
        "assignments": assignments,
        "num_clusters": int(centers.shape[0]),
        "cluster_sizes": sizes,
        "inertia": inertia,
    }


def _reference_pairwise_cosine(matrix):
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms == 0, 1.0, norms)
    normalized = matrix / norms
    return normalized @ normalized.T


def _reference_cosine_similarity(self, request, data):
    keys = sorted(k for k in data if k.is_update and k.round_id == request.round_id)
    updates = self.updates_from(data, keys)
    if not updates:
        return {"round_id": request.round_id, "clients": [], "mean_similarity": 0.0}
    matrix = np.stack([u.weights for u in updates])
    similarity = _reference_pairwise_cosine(matrix)
    off_diagonal = similarity[~np.eye(len(updates), dtype=bool)]
    return {
        "round_id": request.round_id,
        "clients": [u.client_id for u in updates],
        "similarity_matrix": similarity.tolist(),
        "mean_similarity": float(off_diagonal.mean()) if off_diagonal.size else 1.0,
        "min_similarity": float(off_diagonal.min()) if off_diagonal.size else 1.0,
    }


def _reference_debugging(self, request, data):
    update_keys = sorted(k for k in data if k.is_update)
    updates = self.updates_from(data, update_keys)
    if not updates:
        return {"client_id": request.client_id, "rounds": [], "anomalous_rounds": []}
    client_id = updates[0].client_id
    rounds = [u.round_id for u in updates]
    norms = [u.l2_norm() for u in updates]
    drifts = [0.0]
    for previous, current in zip(updates, updates[1:]):
        drifts.append(previous.distance_to(current))

    divergence: dict[int, float] = {}
    for update in updates:
        aggregate_key = DataKey.aggregate(update.round_id)
        if aggregate_key in data:
            divergence[update.round_id] = float(update.distance_to(data[aggregate_key]))

    anomalous = []
    for i in range(1, len(norms)):
        if norms[i - 1] > 0 and norms[i] / norms[i - 1] > self.norm_growth_threshold:
            anomalous.append(rounds[i])
    if divergence:
        values = np.array(list(divergence.values()))
        threshold = values.mean() + 2.0 * (values.std() or 1e-9)
        anomalous.extend(r for r, d in divergence.items() if d > threshold)

    return {
        "client_id": client_id,
        "rounds": rounds,
        "update_norms": norms,
        "round_to_round_drift": drifts,
        "divergence_from_aggregate": divergence,
        "anomalous_rounds": sorted(set(anomalous)),
    }


def _reference_hyperparameter_tuning(self, request, data):
    records = [value for value in data.values() if isinstance(value, ClientRoundMetadata)]
    if not records:
        return {"round_id": request.round_id, "recommended": {}, "num_configurations": 0}

    # Group observed configurations by (learning-rate bucket, batch size)
    # and score each group by mean local accuracy.
    grouped: dict[tuple[float, int], list[float]] = defaultdict(list)
    for record in records:
        lr_bucket = float(10 ** np.round(np.log10(max(record.hyperparameters.learning_rate, 1e-6))))
        key = (lr_bucket, record.hyperparameters.batch_size)
        grouped[key].append(record.local_accuracy)
    scored = {key: float(np.mean(values)) for key, values in grouped.items()}
    best_key = max(scored, key=scored.get)
    return {
        "round_id": request.round_id,
        "num_configurations": len(scored),
        "configuration_scores": {f"lr~{k[0]:g}/bs{k[1]}": v for k, v in scored.items()},
        "recommended": {"learning_rate": best_key[0], "batch_size": best_key[1]},
        "expected_accuracy": scored[best_key],
    }


def _reference_incentives(self, request, data):
    records = [value for value in data.values() if isinstance(value, ClientRoundMetadata)]
    if not records:
        return {"round_id": request.round_id, "payouts": {}, "budget": 0.0}
    budget = float(request.params.get("budget_dollars", 100.0))
    scores: dict[int, float] = defaultdict(float)
    for record in records:
        contribution = record.local_accuracy * np.log1p(record.num_samples)
        if record.dropped_out:
            contribution *= 0.25
        scores[record.client_id] += float(contribution)
    total = sum(scores.values()) or 1e-9
    payouts = {cid: budget * score / total for cid, score in scores.items()}
    return {
        "round_id": request.round_id,
        "budget": budget,
        "payouts": payouts,
        "num_clients": len(payouts),
        "top_earner": max(payouts, key=payouts.get),
    }


def _reference_inference(self, request, data):
    keys = [DataKey.aggregate(request.round_id)]
    self.validate_data(request, data, keys)
    aggregate: ModelUpdate = data[keys[0]]
    batch_size = int(request.params.get("batch_size", 64))
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


def _reference_malicious_filtering(self, request, data):
    keys = sorted(k for k in data if k.is_update and k.round_id == request.round_id)
    updates = self.updates_from(data, keys)
    if len(updates) < 2:
        return {"round_id": request.round_id, "flagged_clients": [], "scores": {}}
    matrix = np.stack([u.weights for u in updates])
    center = np.median(matrix, axis=0)
    distances = np.linalg.norm(matrix - center, axis=1)
    med = np.median(distances)
    mad = np.median(np.abs(distances - med)) or 1e-9
    robust_z = (distances - med) / (1.4826 * mad)

    center_norm = np.linalg.norm(center) or 1e-9
    row_norms = np.linalg.norm(matrix, axis=1)
    row_norms = np.where(row_norms == 0, 1e-9, row_norms)
    alignments = (matrix @ center) / (row_norms * center_norm)

    flagged = [
        updates[i].client_id
        for i in range(len(updates))
        if robust_z[i] > self.distance_threshold and alignments[i] < self.alignment_threshold
    ]
    scores = {
        updates[i].client_id: {
            "robust_z": float(robust_z[i]),
            "alignment": float(alignments[i]),
        }
        for i in range(len(updates))
    }
    return {
        "round_id": request.round_id,
        "flagged_clients": sorted(flagged),
        "scores": scores,
        "num_examined": len(updates),
    }


def _reference_personalization(self, request, data):
    update_keys = sorted(k for k in data if k.is_update and k.round_id == request.round_id)
    updates = self.updates_from(data, update_keys)
    aggregate_key = DataKey.aggregate(request.round_id)
    if not updates or aggregate_key not in data:
        return {"round_id": request.round_id, "groups": {}, "personalized_models": 0}
    aggregate = data[aggregate_key]
    mix = float(request.params.get("personalization_mix", 0.5))
    k = int(request.params.get("num_groups", 3))
    matrix = np.stack([u.weights for u in updates])
    labels, _ = _reference_kmeans(matrix, k, seed=request.round_id + 1)
    groups: dict[int, list[int]] = {}
    personalized_norms: dict[int, float] = {}
    for cluster in sorted(set(labels.tolist())):
        members = [updates[i] for i in range(len(updates)) if labels[i] == cluster]
        groups[cluster] = sorted(u.client_id for u in members)
        group_mean = np.stack([u.weights for u in members]).mean(axis=0)
        personalized = mix * group_mean + (1.0 - mix) * aggregate.weights
        personalized_norms[cluster] = float(np.linalg.norm(personalized))
    return {
        "round_id": request.round_id,
        "groups": groups,
        "personalized_models": len(groups),
        "personalized_model_norms": personalized_norms,
        "mix": mix,
    }


def _reference_reputation(self, request, data):
    keys = sorted(k for k in data if k.is_update and k.round_id == request.round_id)
    updates = self.updates_from(data, keys)
    if len(updates) < 2:
        return {"round_id": request.round_id, "reputations": {}, "contributions": {}}
    matrix = np.stack([u.weights for u in updates])
    weights = np.array([float(u.metrics.get("num_samples", 1.0)) for u in updates])
    weights = weights / weights.sum()
    full_aggregate = weights @ matrix

    contributions: dict[int, float] = {}
    for i, update in enumerate(updates):
        mask = np.ones(len(updates), dtype=bool)
        mask[i] = False
        reduced_weights = weights[mask] / weights[mask].sum()
        without_i = reduced_weights @ matrix[mask]
        # Marginal contribution: how much the aggregate moves when the
        # client is removed (larger movement toward degradation = more
        # valuable client, negative alignment = harmful client).
        shift = full_aggregate - without_i
        alignment = float(
            np.dot(shift, full_aggregate)
            / ((np.linalg.norm(shift) or 1e-9) * (np.linalg.norm(full_aggregate) or 1e-9))
        )
        contributions[update.client_id] = alignment * float(np.linalg.norm(shift))

    values = np.array(list(contributions.values()))
    spread = values.max() - values.min() or 1e-9
    reputations = {}
    for update in updates:
        normalized = (contributions[update.client_id] - values.min()) / spread
        accuracy = float(update.metrics.get("local_accuracy", 0.5))
        reputations[update.client_id] = float(np.clip(0.6 * normalized + 0.4 * accuracy, 0.0, 1.0))
    return {
        "round_id": request.round_id,
        "contributions": contributions,
        "reputations": reputations,
        "top_client": max(reputations, key=reputations.get),
    }


def _reference_scheduling_cluster(self, request, data):
    update_keys = sorted(k for k in data if k.is_update and k.round_id == request.round_id)
    updates = self.updates_from(data, update_keys)
    if not updates:
        return {"round_id": request.round_id, "tiers": {}, "num_tiers": 0}
    num_tiers = int(request.params.get("num_tiers", 3))
    matrix = np.stack([u.weights for u in updates])
    labels, _ = _reference_kmeans(matrix, num_tiers, seed=request.round_id + 17)

    train_seconds = {}
    for key, value in data.items():
        if isinstance(value, ClientRoundMetadata):
            train_seconds[value.client_id] = value.train_seconds

    tiers: dict[int, list[int]] = defaultdict(list)
    for i, update in enumerate(updates):
        tiers[int(labels[i])].append(update.client_id)
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


def _reference_scheduling_perf(self, request, data):
    records = [value for value in data.values() if isinstance(value, ClientRoundMetadata)]
    if not records:
        return {"round_id": request.round_id, "selected_clients": [], "scores": {}}
    target = int(request.params.get("clients_to_select", 10))
    deadline = float(request.params.get("round_deadline_seconds", 120.0))

    utility: dict[int, list[float]] = defaultdict(list)
    for record in records:
        # Oort-style utility: statistical utility (accuracy) discounted by
        # how badly the client overshoots the round deadline.
        time_penalty = min(1.0, deadline / max(record.round_duration_seconds, 1e-3))
        score = record.local_accuracy * record.resources.availability * time_penalty
        if record.dropped_out:
            score *= 0.5
        utility[record.client_id].append(float(score))
    scores = {cid: float(np.mean(values)) for cid, values in utility.items()}
    ranked = sorted(scores, key=scores.get, reverse=True)
    return {
        "round_id": request.round_id,
        "scores": scores,
        "selected_clients": ranked[:target],
        "num_candidates": len(scores),
    }


REFERENCES = {
    "clustering": _reference_clustering,
    "cosine_similarity": _reference_cosine_similarity,
    "debugging": _reference_debugging,
    "hyperparameter_tuning": _reference_hyperparameter_tuning,
    "incentives": _reference_incentives,
    "inference": _reference_inference,
    "malicious_filtering": _reference_malicious_filtering,
    "personalization": _reference_personalization,
    "reputation": _reference_reputation,
    "scheduling_cluster": _reference_scheduling_cluster,
    "scheduling_perf": _reference_scheduling_perf,
}

UPDATE_WORKLOADS = (
    "clustering",
    "cosine_similarity",
    "inference",
    "malicious_filtering",
    "personalization",
    "reputation",
    "scheduling_cluster",
)
METADATA_WORKLOADS = ("hyperparameter_tuning", "incentives", "scheduling_perf")

# --------------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------------


def assert_matches(actual: Any, expected: Any, path: str = "result") -> None:
    """Same structure, key order, types and discrete values; floats within tolerance."""
    assert type(actual) is type(expected), (
        f"{path}: {type(actual).__name__} != {type(expected).__name__}"
    )
    if isinstance(expected, dict):
        assert list(actual) == list(expected), f"{path}: keys {list(actual)} != {list(expected)}"
        for key, value in expected.items():
            assert_matches(actual[key], value, f"{path}[{key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), f"{path}: length {len(actual)} != {len(expected)}"
        for index, (got, want) in enumerate(zip(actual, expected)):
            assert_matches(got, want, f"{path}[{index}]")
    elif isinstance(expected, float):
        same = math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        assert same or (math.isnan(actual) and math.isnan(expected)), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def check_against_reference(name: str, request: WorkloadRequest, data: Mapping) -> None:
    workload = get_workload(name)
    expected = REFERENCES[name](workload, request, data)
    assert_matches(workload.compute(request, data), expected, name)


def test_every_registered_workload_has_an_oracle():
    assert sorted(REFERENCES) == list_workloads()


# --------------------------------------------------------------------------
# The paper's round loop: every request FLStore serves
# --------------------------------------------------------------------------

WARM_ROUNDS = 2
SERVED_ROUNDS = 14


def _round_loop_calls(seed: int) -> list[tuple[str, WorkloadRequest, dict]]:
    """``(workload, request, data)`` of every compute FLStore runs in the round loop.

    Ingests each round into a fresh FLStore, then serves one request of every
    registered workload (P3 requests on a seeded participant), recording the
    inputs of each ``Workload.compute`` call.
    """
    config = paper_experiment_config("efficientnet_v2_small", seed=seed)
    _, rounds = setup_cache.simulate_job(config, WARM_ROUNDS + SERVED_ROUNDS)
    flstore = build_default_flstore(config)
    calls: list[tuple[str, WorkloadRequest, dict]] = []

    def recording(self, workload, request, data):
        calls.append((workload.name, request, dict(data)))
        return original(self, workload, request, data)

    original = FLStore._compute_result
    FLStore._compute_result = recording
    try:
        rng = np.random.default_rng([seed, 0x1A6E])
        for index, record in enumerate(rounds):
            flstore.ingest_round(record)
            if index < WARM_ROUNDS:
                continue
            participants = record.participant_ids
            for name in list_workloads():
                client_id = None
                if get_workload(name).policy_class is PolicyClass.P3_ACROSS_ROUNDS:
                    client_id = participants[int(rng.integers(len(participants)))]
                request = WorkloadRequest(
                    request_id=f"ri-{record.round_id}-{name}",
                    workload=name,
                    round_id=record.round_id,
                    client_id=client_id,
                )
                flstore.serve(request)
    finally:
        FLStore._compute_result = original
    return calls


@pytest.fixture(scope="module", params=[3, 11], ids=lambda seed: f"seed{seed}")
def round_loop_calls(request):
    return _round_loop_calls(request.param)


def test_round_loop_results_match_reference(round_loop_calls):
    assert len(round_loop_calls) == SERVED_ROUNDS * len(list_workloads())
    for name, request, data in round_loop_calls:
        check_against_reference(name, request, data)


def test_round_loop_covers_every_workload_with_data(round_loop_calls):
    served = {name for name, _, data in round_loop_calls if data}
    assert served == set(list_workloads())


# --------------------------------------------------------------------------
# Hypothesis-generated rounds
# --------------------------------------------------------------------------

KERNEL_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _metadata(client_id: int, round_id: int, **fields: Any) -> ClientRoundMetadata:
    return ClientRoundMetadata(
        client_id=client_id,
        round_id=round_id,
        hyperparameters=HyperParameters(
            learning_rate=fields.get("learning_rate", 0.01),
            batch_size=fields.get("batch_size", 32),
        ),
        resources=ResourceProfile(availability=fields.get("availability", 0.9)),
        local_accuracy=fields.get("local_accuracy", 0.5),
        train_seconds=fields.get("train_seconds", 30.0),
        upload_seconds=fields.get("upload_seconds", 5.0),
        num_samples=fields.get("num_samples", 100),
        dropped_out=fields.get("dropped_out", False),
    )


def _update(client_id: int, round_id: int, weights: np.ndarray, **metrics: float) -> ModelUpdate:
    return ModelUpdate(
        client_id=client_id,
        round_id=round_id,
        model_name="resnet18",
        weights=np.array(weights, dtype=np.float64),
        size_bytes=1024,
        metrics=metrics,
    )


@st.composite
def update_rounds(draw) -> tuple[int, dict, dict]:
    """One round's updates (with duplicated and all-zero rows), aggregate and metadata."""
    n = draw(st.integers(1, 24))
    dim = draw(st.sampled_from([1, 2, 64]))
    elements = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
    matrix = draw(hnp.arrays(np.float64, (n, dim), elements=elements))
    for target in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        matrix[target] = matrix[draw(st.integers(0, n - 1))]
    for target in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        matrix[target] = 0.0
    if draw(st.booleans()):
        matrix[:] = matrix[0] if draw(st.booleans()) else 0.0
    round_id = draw(st.integers(0, 40))
    client_ids = draw(st.lists(st.integers(0, 300), min_size=n, max_size=n, unique=True))
    data: dict = {}
    for row, client_id in zip(matrix, client_ids):
        data[DataKey.update(client_id, round_id)] = _update(
            client_id,
            round_id,
            row,
            num_samples=float(draw(st.integers(1, 5000))),
            local_accuracy=draw(st.floats(0.0, 1.0)),
        )
        if draw(st.booleans()):
            data[DataKey.metadata(client_id, round_id)] = _metadata(
                client_id, round_id, train_seconds=draw(st.floats(0.0, 600.0))
            )
    aggregate = matrix.mean(axis=0) if draw(st.booleans()) else matrix[-1]
    data[DataKey.aggregate(round_id)] = _update(-1, round_id, aggregate)
    items = list(data.items())
    order = draw(st.permutations(range(len(items))))
    data = {items[i][0]: items[i][1] for i in order}
    k = draw(st.integers(1, 30))
    params = {
        "num_clusters": k,
        "num_groups": k,
        "num_tiers": k,
        "personalization_mix": draw(st.floats(0.0, 1.0)),
        "batch_size": draw(st.integers(1, 64)),
    }
    return round_id, params, data


@st.composite
def metadata_histories(draw) -> tuple[int, dict, dict]:
    """Metadata of a few clients over up to 12 rounds, with dropouts and lr at the floor."""
    num_clients = draw(st.integers(1, 12))
    num_rounds = draw(st.integers(1, 12))
    cells = num_clients * num_rounds

    def column(dtype, elements) -> list:
        return draw(hnp.arrays(dtype, cells, elements=elements)).tolist()

    learning_rates = column(
        np.float64,
        st.one_of(
            st.sampled_from([1e-6, 1e-7, 1e-9, 3.1622776601683795e-4, 0.01, 0.05, 0.1, 1.0]),
            st.floats(1e-9, 2.0),
        ),
    )
    batch_sizes = column(np.int64, st.sampled_from([16, 32, 64]))
    availability = column(np.float64, st.floats(0.0, 1.0))
    accuracies = column(
        np.float64, st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), st.floats(0.0, 1.0))
    )
    train_seconds = column(np.float64, st.floats(0.0, 400.0))
    upload_seconds = column(np.float64, st.floats(0.0, 100.0))
    num_samples = column(np.int64, st.integers(1, 5000))
    dropped_out = column(np.bool_, st.booleans())
    present = column(np.bool_, st.booleans())
    if draw(st.booleans()):
        # Client 0 reports in every round: up to 12 records for one client.
        present[::num_clients] = [True] * num_rounds
    if not any(present):
        present[0] = True
    data: dict = {}
    for cell, client_id in enumerate(list(range(num_clients)) * num_rounds):
        if present[cell]:
            round_id = cell // num_clients
            data[DataKey.metadata(client_id, round_id)] = _metadata(
                client_id,
                round_id,
                learning_rate=learning_rates[cell],
                batch_size=batch_sizes[cell],
                availability=availability[cell],
                local_accuracy=accuracies[cell],
                train_seconds=train_seconds[cell],
                upload_seconds=upload_seconds[cell],
                num_samples=num_samples[cell],
                dropped_out=dropped_out[cell],
            )
    items = list(data.items())
    if draw(st.booleans()):
        items.reverse()
    params = {
        "clients_to_select": draw(st.integers(1, 20)),
        "round_deadline_seconds": draw(st.floats(1.0, 300.0)),
        "budget_dollars": draw(st.floats(1.0, 1000.0)),
    }
    return num_rounds - 1, params, dict(items)


@st.composite
def client_histories(draw) -> tuple[int, dict, dict]:
    """One client's updates over several rounds plus some of the rounds' aggregates."""
    num_rounds = draw(st.integers(1, 8))
    dim = draw(st.sampled_from([1, 2, 64]))
    elements = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
    matrix = draw(hnp.arrays(np.float64, (num_rounds, dim), elements=elements))
    data: dict = {}
    for round_id, row in enumerate(matrix):
        data[DataKey.update(5, round_id)] = _update(5, round_id, row)
        if draw(st.booleans()):
            data[DataKey.aggregate(round_id)] = _update(-1, round_id, matrix.mean(axis=0))
    return num_rounds - 1, {}, data


def _request(name: str, round_id: int, params: dict, client_id: int | None = None):
    return WorkloadRequest(
        request_id=f"hyp-{name}-{round_id}",
        workload=name,
        round_id=round_id,
        client_id=client_id,
        params=params,
    )


@KERNEL_SETTINGS
@given(update_rounds())
def test_update_kernels_match_reference(case):
    round_id, params, data = case
    for name in UPDATE_WORKLOADS:
        check_against_reference(name, _request(name, round_id, params), data)


@KERNEL_SETTINGS
@given(metadata_histories())
def test_metadata_kernels_match_reference(case):
    round_id, params, data = case
    for name in METADATA_WORKLOADS:
        check_against_reference(name, _request(name, round_id, params), data)


@KERNEL_SETTINGS
@given(client_histories())
def test_debugging_matches_reference(case):
    round_id, params, data = case
    check_against_reference("debugging", _request("debugging", round_id, params, 5), data)


# --------------------------------------------------------------------------
# Means in the reference's summation order
# --------------------------------------------------------------------------


def test_group_means_equal_np_mean_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        count = int(rng.integers(1, 40))
        sizes = rng.integers(1, 40, size=count)
        groups = rng.permutation(np.repeat(np.arange(count), sizes))
        values = rng.choice([0.1, 0.2, 0.3, 0.7, 1.1], size=groups.size)
        if rng.random() < 0.5:
            values = rng.random(groups.size) * 10.0 ** rng.integers(-3, 4)
        expected = [float(np.mean(values[groups == group].tolist())) for group in range(count)]
        assert group_means(values, groups, count).tolist() == expected


@pytest.mark.parametrize("history", [3, 9, 12])
def test_near_ties_rank_as_in_reference(history):
    """Clients whose scores differ only by summation order rank as in the reference."""
    rng = np.random.default_rng(history)
    scores = rng.choice([0.1, 0.2, 0.3, 0.6, 0.7], size=history).tolist()
    data = {}
    for client_id in range(8):
        order = rng.permutation(history).tolist()
        for round_id, index in enumerate(order):
            data[DataKey.metadata(client_id, round_id)] = _metadata(
                client_id,
                round_id,
                local_accuracy=scores[index],
                availability=1.0,
                train_seconds=1.0,
                upload_seconds=0.0,
            )
    for name in METADATA_WORKLOADS:
        check_against_reference(name, _request(name, history - 1, {"clients_to_select": 3}), data)


# --------------------------------------------------------------------------
# Edge inputs run clean
# --------------------------------------------------------------------------


def _edge_round(rows: np.ndarray) -> dict:
    round_id = 4
    data: dict = {}
    for client_id, row in enumerate(rows):
        data[DataKey.update(client_id, round_id)] = _update(
            client_id, round_id, row, num_samples=float(10 + client_id), local_accuracy=0.5
        )
        data[DataKey.metadata(client_id, round_id)] = _metadata(client_id, round_id)
    data[DataKey.aggregate(round_id)] = _update(-1, round_id, rows.mean(axis=0))
    return data


_EDGE_ROW = np.linspace(-1.0, 2.0, 64)

EDGE_ROUNDS = {
    "identical": np.tile(_EDGE_ROW, (6, 1)),
    "all-zero": np.zeros((6, 64)),
    "single": _EDGE_ROW[None, :],
    "two": np.stack([_EDGE_ROW, -0.5 * _EDGE_ROW]),
}


def _assert_finite(value: Any, path: str) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _assert_finite(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _assert_finite(item, f"{path}[{index}]")
    elif isinstance(value, float):
        assert math.isfinite(value), f"{path}: {value!r}"


@pytest.mark.parametrize("num_clusters", [3, 20], ids=["k3", "k-above-n"])
@pytest.mark.parametrize("case", sorted(EDGE_ROUNDS))
def test_edge_rounds_run_clean(case, num_clusters):
    rows = EDGE_ROUNDS[case]
    data = _edge_round(rows)
    params = {"num_clusters": num_clusters, "num_groups": num_clusters, "num_tiers": num_clusters}
    for name in UPDATE_WORKLOADS + METADATA_WORKLOADS:
        request = _request(name, 4, params)
        workload = get_workload(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The per-element kernels handle these inputs without warnings ...
            expected = REFERENCES[name](workload, request, data)
            # ... and so must the vectorized ones.
            result = workload.compute(request, data)
        _assert_finite(result, name)
        assert_matches(result, expected, name)

