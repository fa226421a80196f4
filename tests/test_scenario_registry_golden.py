"""Byte-identity of every registered scenario against a recorded golden.

``tests/data/golden_scenarios.json`` holds, per ``list_scenarios()`` entry
run at a reduced size (``num_rounds=6``, ``workload.num_requests=1500``,
``tenants.<i>.num_requests=600``), two pins:

* ``report`` — the run's :meth:`RunReport.to_json` text, byte for byte;
* ``outcomes`` — a sha256 over ``(request_id, arrived_at, started_at,
  completed_at, disposition, latency, cost)`` of every retained outcome,
  in report order.

Together they pin each topology whole — plain, sharded, replicated,
autoscaled, faulted, multi-tenant and fast path — so a refactor of the
serving stack that keeps these bytes keeps every row.  Regenerate (from
code whose behaviour is known good, never from a change under test) with::

    PYTHONPATH=src python tests/test_scenario_registry_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.scenario import get_scenario, list_scenarios, run

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_scenarios.json"

NUM_ROUNDS = 6
NUM_REQUESTS = 1500
TENANT_REQUESTS = 600


def golden_spec(name: str):
    """The registered scenario ``name`` at the golden's reduced size."""
    spec = get_scenario(name)
    overrides: dict = {"num_rounds": NUM_ROUNDS, "workload.num_requests": NUM_REQUESTS}
    for index in range(len(spec.tenants)):
        overrides[f"tenants.{index}.num_requests"] = TENANT_REQUESTS
    return spec.with_overrides(overrides)


def outcome_digest(outcomes) -> str:
    """sha256 of every outcome's identity, timing, disposition and charges."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        row = (
            outcome.request.request_id,
            outcome.arrived_at,
            outcome.started_at,
            outcome.completed_at,
            outcome.disposition,
            repr(outcome.result.latency),
            repr(outcome.result.cost),
        )
        digest.update(repr(row).encode("utf-8"))
    return digest.hexdigest()


def capture(name: str) -> dict:
    """The golden entry of one registered scenario."""
    report = run(golden_spec(name))
    return {"report": report.to_json(), "outcomes": outcome_digest(report.load.outcomes)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_registered_scenario(golden):
    assert sorted(golden) == list_scenarios()


@pytest.mark.parametrize("name", list_scenarios())
def test_registered_scenario_is_byte_identical_to_golden(name, golden):
    entry = capture(name)
    assert entry["report"] == golden[name]["report"]
    assert entry["outcomes"] == golden[name]["outcomes"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: capture(name) for name in list_scenarios()}, indent=2) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
