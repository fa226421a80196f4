"""Workload abstraction: data requirements, computation, and compute-time model.

Every non-training application in the paper (Table 1) is expressed as a
:class:`Workload` that declares

* which taxonomy category it belongs to (:class:`PolicyClass`, P1-P4), which
  tells FLStore's Cache Engine which tailored caching policy to apply,
* which concrete metadata objects a request needs (``required_keys``), which
  the serving systems use to fetch data (baselines) or route requests to the
  right functions (FLStore), and
* the actual computation (``compute``) plus an analytic compute-time model
  (``compute_seconds``) calibrated to the per-workload execution times the
  paper measures on serverless functions (Figure 4: ~2.8 s average;
  Figure 12: e.g. 0.03 s cosine similarity, ~1 s filtering/scheduling,
  ~6 s clustering for EfficientNet-sized updates).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Mapping

import numpy as np

from repro.common.errors import WorkloadError
from repro.common.units import KB
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey, DataKind
from repro.fl.models import ModelSpec, ModelUpdate


class PolicyClass(enum.Enum):
    """Taxonomy categories of Table 1, named after their caching policies."""

    #: Individual client updates / the final aggregated model.
    P1_INDIVIDUAL = "P1"
    #: All client updates of a specific round.
    P2_ROUND = "P2"
    #: One client's updates across consecutive rounds.
    P3_ACROSS_ROUNDS = "P3"
    #: Configuration and performance metadata (hyperparameters, resources).
    P4_METADATA = "P4"


@dataclass(frozen=True)
class WorkloadRequest:
    """One non-training request submitted to a serving system."""

    request_id: str
    workload: str
    round_id: int
    client_id: int | None = None
    #: For across-round workloads: how many past rounds of history to examine.
    history_rounds: int = 2
    params: Mapping[str, Any] = field(default_factory=dict)
    #: The tenant this request belongs to (``None`` on single-tenant traces).
    tenant_id: str | None = None

    def __post_init__(self) -> None:
        if self.round_id < 0:
            raise WorkloadError(f"request {self.request_id}: round_id must be non-negative")
        if self.history_rounds < 1:
            raise WorkloadError(f"request {self.request_id}: history_rounds must be >= 1")


#: Reference model size the compute-time coefficients are calibrated against
#: (EfficientNetV2-Small, the paper's headline model).
_REFERENCE_SIZE_MB = 82.7


class Workload(abc.ABC):
    """Base class of every non-training workload."""

    #: Machine-friendly name used in requests, registries, and traces.
    name: str = "workload"
    #: Label used by the paper's figures (e.g. ``"Sched. (Cluster)"``).
    display_name: str = "Workload"
    #: Taxonomy category, which selects the FLStore caching policy (Table 1).
    policy_class: PolicyClass = PolicyClass.P2_ROUND
    #: Fixed per-request computation time on the reference serverless function.
    base_compute_seconds: float = 0.1
    #: Additional computation time per required object, for a reference-sized model.
    per_item_compute_seconds: float = 0.05
    #: Serialized size of the result written back after execution.
    result_size_bytes: int = 16 * KB

    # ------------------------------------------------------------ interface

    @abc.abstractmethod
    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """The metadata objects needed to serve ``request``."""

    @abc.abstractmethod
    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        """Execute the workload over ``data`` and return its result.

        ``compute`` is a pure function of the request fields and ``data``: it
        keeps no state between calls, and any randomness is seeded from the
        request.  The serving systems rely on this: they only capture
        ``(request, data)`` at serve time in a :class:`DeferredResult`, and
        ``compute`` runs at most once per cell, at any time after the serve,
        on the first read of the output.  FLStore's result memo
        (:meth:`result_key`) and the differential kernel tests rely on it too.
        Errors belong in :meth:`validate`, which runs at serve time:
        ``compute`` must not raise on inputs that ``validate`` accepted.
        Kernels work in whole-array numpy, a few array operations per call
        rather than one numpy call per update or record, because the inputs
        are small and per-call overhead dominates.
        """

    # ----------------------------------------------------- shared behaviour

    def validate(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> None:
        """Raise :class:`WorkloadError` if ``compute(request, data)`` would raise.

        Every serving path calls this at serve time, before it defers
        ``compute``, so a bad request still fails where it is served.  The
        default accepts everything: a workload whose ``compute`` can raise
        overrides it.
        """
        del request, data

    def result_key(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> tuple | None:
        """Key under which ``compute(request, data)`` may be memoized.

        The key holds every request field ``compute`` reads plus the keys of
        the objects actually present in ``data`` (a request that lost one to a
        reclamation and a persistent miss gets its own entry).  It assumes
        ``compute`` is deterministic in those inputs; a workload whose result
        varies per request returns ``None``, meaning "do not memoize".  The
        key may be unhashable when a ``params`` value is (e.g. a list).
        """
        return (
            self.name,
            request.round_id,
            request.client_id,
            request.history_rounds,
            tuple(sorted(request.params.items())),
            tuple(data),
        )

    def compute_seconds(self, model_spec: ModelSpec, num_items: int) -> float:
        """Analytic computation time on the reference serverless function.

        Scales linearly with the number of required objects and with model
        size relative to EfficientNetV2-Small.
        """
        size_scale = model_spec.size_mb / _REFERENCE_SIZE_MB
        return self.base_compute_seconds + self.per_item_compute_seconds * num_items * size_scale

    def validate_data(
        self, request: WorkloadRequest, data: Mapping[DataKey, Any], keys: list[DataKey]
    ) -> None:
        """Raise :class:`WorkloadError` if any required object is missing."""
        missing = [key for key in keys if key not in data]
        if missing:
            raise WorkloadError(
                f"request {request.request_id} ({self.name}): missing {len(missing)} required "
                f"objects, e.g. {missing[0]}"
            )

    # --------------------------------------------------------------- helpers

    @staticmethod
    def updates_from(data: Mapping[DataKey, Any], keys: list[DataKey]) -> list[ModelUpdate]:
        """Extract the :class:`ModelUpdate` objects referenced by ``keys`` in order."""
        return [data[key] for key in keys if key in data and isinstance(data[key], ModelUpdate)]

    @staticmethod
    def round_updates(
        request: WorkloadRequest, data: Mapping[DataKey, Any]
    ) -> tuple[list[ModelUpdate], np.ndarray | None]:
        """The requested round's client updates in client order, and their stacked weights.

        Returns ``(updates, matrix)`` where row ``i`` of ``matrix`` is
        ``updates[i].weights``; ``matrix`` is ``None`` when there are no updates.
        """
        round_id = request.round_id
        update_kind = DataKind.CLIENT_UPDATE
        pairs = [
            (key.client_id, value)
            for key, value in data.items()
            if key.kind is update_kind and key.round_id == round_id
        ]
        pairs.sort(key=itemgetter(0))
        updates = [value for _, value in pairs if isinstance(value, ModelUpdate)]
        if not updates:
            return updates, None
        return updates, np.stack([u.weights for u in updates])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name} ({self.policy_class.value})>"


class DeferredResult:
    """A workload's output, computed on the first read of :meth:`get`.

    The cell captures ``(workload, request, data)`` at serve time.  The first
    :meth:`get` calls ``workload.compute`` once, caches the value and drops
    the inputs; a read that raises caches nothing, so the next read calls
    ``compute`` again and raises again.  Serving never reads the output
    (latency and cost come from the resolved data and ``compute_seconds``),
    so a result nobody reads is never computed.  Two cells are equal when
    their outputs are, which computes both.
    """

    __slots__ = ("_inputs", "_value")

    def __init__(
        self, workload: Workload, request: WorkloadRequest, data: Mapping[DataKey, Any]
    ) -> None:
        self._inputs = (workload, request, data)
        self._value = None

    @classmethod
    def ready(cls, value: dict[str, Any]) -> DeferredResult:
        """A cell that already holds ``value`` (for outputs made without a workload)."""
        cell = cls.__new__(cls)
        cell._inputs = None
        cell._value = value
        return cell

    @property
    def computed(self) -> bool:
        """Whether the output has been computed (or was given ready)."""
        return self._inputs is None

    def get(self) -> dict[str, Any]:
        """The output, computing it on the first call."""
        inputs = self._inputs
        if inputs is not None:
            workload, request, data = inputs
            self._value = workload.compute(request, data)
            self._inputs = None
        return self._value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeferredResult):
            return NotImplemented
        return self is other or self.get() == other.get()


def group_means(values: np.ndarray, groups: np.ndarray, count: int) -> np.ndarray:
    """Mean of ``values`` per group, for non-empty groups ``0..count-1``.

    Every mean equals ``np.mean`` of that group's values, in their order, bit
    for bit: the groups of one size are the rows of one matrix, and a row sum
    adds its elements as ``np.mean`` does.  Costs a few numpy calls per
    distinct group size, not per group.
    """
    sizes = np.bincount(groups, minlength=count)
    # Values ordered by (group size, group), each group's own order kept.
    ordered = values[np.argsort(sizes[groups] * count + groups, kind="stable")]
    rows = []
    start = 0
    for size, many in enumerate(np.bincount(sizes).tolist()):
        if many:
            stop = start + size * many
            rows.append(ordered[start:stop].reshape(many, size).sum(axis=1))
            start = stop
    sums = np.empty(count)
    sums[np.argsort(sizes, kind="stable")] = np.concatenate(rows)
    return sums / sizes
