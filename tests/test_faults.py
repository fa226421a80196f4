"""Fault injection: clauses, scheduled events, and recovery metrics."""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.config import SimulationConfig
from repro.core.flstore import build_default_flstore
from repro.engine import (
    EngineFLStore,
    FaultClause,
    FaultPlan,
    ShardedEngineFLStore,
    compute_recovery_metrics,
)
from repro.engine.faults import RecoveryMetrics
from repro.fl.trainer import FLJobSimulator
from repro.scenario import get_scenario, run
from repro.traces.arrivals import make_arrival_process
from repro.traces.generator import RequestTraceGenerator


@pytest.fixture(scope="module")
def fault_config():
    return SimulationConfig.small(seed=11)


@pytest.fixture(scope="module")
def fault_rounds(fault_config):
    return FLJobSimulator(fault_config).run_rounds(8)


def _tier(config, rounds, shards=2, **kwargs):
    tier = ShardedEngineFLStore.build(shards, config=config, **kwargs)
    for record in rounds:
        tier.ingest_round(record)
    return tier


def _engine(config, rounds):
    flstore = build_default_flstore(config)
    for record in rounds:
        flstore.ingest_round(record)
    return EngineFLStore(flstore)


def _trace(tier, count, spacing=0.5, seed=3):
    generator = RequestTraceGenerator(tier.catalog, seed=seed)
    trace = generator.mixed_trace(["inference", "clustering", "scheduling_perf"], count)
    return trace, [spacing * i for i in range(count)]


# ---------------------------------------------------------------------------
# Clause validation
# ---------------------------------------------------------------------------


class TestFaultClause:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "quake", "onset_seconds": 0.0},
            {"kind": "shard-crash", "onset_seconds": -1.0},
            {"kind": "shard-crash", "onset_seconds": 0.0, "duration_seconds": -1.0},
            {"kind": "shard-crash", "onset_seconds": 0.0, "magnitude": 0.0},
            {
                "kind": "reclamation-storm",
                "onset_seconds": 0.0,
                "duration_seconds": 10.0,
                "interval_seconds": 0.0,
            },
            {
                "kind": "reclamation-storm",
                "onset_seconds": 0.0,
                "duration_seconds": 10.0,
                "zipf_exponent": 1.0,
            },
            {"kind": "slow-shard", "onset_seconds": 0.0, "duration_seconds": 0.0},
            {"kind": "network-spike", "onset_seconds": 0.0, "duration_seconds": 0.0},
            {"kind": "reclamation-storm", "onset_seconds": 0.0, "duration_seconds": 0.0},
        ],
    )
    def test_invalid_clauses_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultClause(**kwargs)

    def test_crash_clause_needs_a_sharded_tier(self, fault_config, fault_rounds):
        engine = _engine(fault_config, fault_rounds)
        with pytest.raises(ConfigurationError, match="sharded tier"):
            FaultPlan(engine, [FaultClause(kind="shard-crash", onset_seconds=1.0)])

    def test_plan_drives_exactly_one_run(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds)
        plan = FaultPlan(tier, [FaultClause(kind="shard-crash", onset_seconds=1.0)])
        plan.start()
        with pytest.raises(RuntimeError):
            plan.start()


# ---------------------------------------------------------------------------
# Injection through the serving tier
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_crash_mid_run_conserves_and_records_sim_time(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=2, max_queue_depth=0)
        trace, arrivals = _trace(tier, 30)
        plan = FaultPlan(tier, [FaultClause(kind="shard-crash", onset_seconds=3.0)], seed=7)
        report = tier.run_open_loop(trace, arrivals, fault_plan=plan)
        assert tier.num_shards == 1
        assert report.served + report.degraded + report.shed == report.submitted
        assert len(plan.records) == 1
        record = plan.records[0]
        # The event carries the virtual time it actually fired at.
        assert record.time == pytest.approx(3.0)
        assert record.kind == "shard-crash"
        summary = plan.summary()
        assert summary["fault_clauses"] == 1
        assert summary["fault_events_by_kind"] == {"shard-crash": 1}

    def test_crashing_the_last_shard_raises(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=1)
        with pytest.raises(ConfigurationError):
            tier.crash_shard()

    def test_storm_reclaims_warm_functions_on_every_shard(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=2)
        trace, arrivals = _trace(tier, 40)
        clause = FaultClause(
            kind="reclamation-storm",
            onset_seconds=2.0,
            duration_seconds=10.0,
            interval_seconds=4.0,
            magnitude=2.0,
        )
        plan = FaultPlan(tier, [clause], seed=7)
        report = tier.run_open_loop(trace, arrivals, fault_plan=plan)
        assert report.served + report.degraded + report.shed == report.submitted
        # Bursts at t=2, 6, 10 (interval 4 inside a [2, 12] window).
        assert [r.time for r in plan.records] == pytest.approx([2.0, 6.0, 10.0])
        assert all("reclaimed" in r.detail for r in plan.records)

    def test_storm_streams_are_derived_per_clause(self, fault_config, fault_rounds):
        """Clause RNG streams derive from (seed, kind, index): the same run
        twice is identical, and appending a later clause leaves the first
        clause's draws untouched."""
        clause = FaultClause(
            kind="reclamation-storm", onset_seconds=2.0, duration_seconds=8.0,
            interval_seconds=3.0,
        )
        extra = FaultClause(kind="slow-shard", onset_seconds=50.0, duration_seconds=5.0)

        def storm_details(clauses):
            tier = _tier(fault_config, fault_rounds, shards=2)
            trace, arrivals = _trace(tier, 30)
            plan = FaultPlan(tier, clauses, seed=7)
            tier.run_open_loop(trace, arrivals, fault_plan=plan)
            return [r.detail for r in plan.records if r.kind == "reclamation-storm"]

        assert storm_details([clause]) == storm_details([clause])
        assert storm_details([clause]) == storm_details([clause, extra])

    def test_slow_shard_degrades_then_heals(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=2)
        trace, arrivals = _trace(tier, 30)
        # The window must cover execution *starts* (the multiplier is read
        # when a slot is acquired), so it spans the whole arrival ramp.
        clause = FaultClause(
            kind="slow-shard", onset_seconds=0.0, duration_seconds=30.0, magnitude=4.0
        )
        plan = FaultPlan(tier, [clause], seed=7)
        report = tier.run_open_loop(trace, arrivals, fault_plan=plan)
        assert report.served + report.degraded + report.shed == report.submitted
        # The multiplier is gone by end of run (the heal event fired) ...
        assert all(s.service_time_multiplier == 1.0 for s in tier.active_shards)
        details = [r.detail for r in plan.records]
        assert any("service time x4" in d for d in details)
        assert "slow shard healed" in details
        # ... and the slowdown showed up in sojourn times, not in errors.
        healthy_tier = _tier(fault_config, fault_rounds, shards=2)
        healthy = healthy_tier.run_open_loop(*_trace(healthy_tier, 30))
        assert report.mean_sojourn_seconds > healthy.mean_sojourn_seconds

    def test_network_spike_raises_latency_then_clears(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=2)
        trace, arrivals = _trace(tier, 30)
        clause = FaultClause(
            kind="network-spike", onset_seconds=0.0, duration_seconds=30.0, magnitude=5.0
        )
        plan = FaultPlan(tier, [clause], seed=7)
        report = tier.run_open_loop(trace, arrivals, fault_plan=plan)
        assert report.served + report.degraded + report.shed == report.submitted
        assert all(s.network_fault_multiplier == 1.0 for s in tier.active_shards)
        details = [r.detail for r in plan.records]
        assert any("network x5" in d for d in details)
        assert "network spike cleared" in details
        healthy_tier = _tier(fault_config, fault_rounds, shards=2)
        healthy = healthy_tier.run_open_loop(*_trace(healthy_tier, 30))
        assert report.mean_sojourn_seconds > healthy.mean_sojourn_seconds

    def test_plain_engine_takes_storm_and_spike(self, fault_config, fault_rounds):
        engine = _engine(fault_config, fault_rounds)
        generator = RequestTraceGenerator(engine.catalog, seed=3)
        trace = generator.mixed_trace(["inference", "clustering"], 20)
        arrivals = [0.5 * i for i in range(len(trace))]
        clauses = [
            FaultClause(
                kind="reclamation-storm", onset_seconds=1.0, duration_seconds=4.0,
                interval_seconds=2.0,
            ),
            FaultClause(
                kind="network-spike", onset_seconds=1.0, duration_seconds=4.0, magnitude=3.0
            ),
        ]
        plan = FaultPlan(engine, clauses, seed=7)
        report = engine.run_open_loop(trace, arrivals, fault_plan=plan)
        assert report.served + report.degraded + report.shed == report.submitted
        assert plan.summary()["fault_events"] >= 3


# ---------------------------------------------------------------------------
# Recovery metrics
# ---------------------------------------------------------------------------


def _outcomes(completed_times, arrived_offset=0.5):
    return [
        SimpleNamespace(
            arrived_at=max(0.0, t - arrived_offset), completed_at=t, disposition="served"
        )
        for t in completed_times
    ]


class TestRecoveryMetrics:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            compute_recovery_metrics([], 0.0, 10.0, window_seconds=0.0)
        with pytest.raises(ConfigurationError):
            compute_recovery_metrics([], 0.0, 10.0, recovery_fraction=0.0)
        with pytest.raises(ConfigurationError):
            compute_recovery_metrics([], 0.0, 10.0, recovery_fraction=1.5)

    def test_steady_service_recovers_with_zero_dip(self):
        outcomes = _outcomes([0.5 + i for i in range(30)])  # 1 rps throughout
        metrics = compute_recovery_metrics(
            outcomes, onset_seconds=0.0, end_seconds=30.0, baseline_goodput_rps=1.0
        )
        assert metrics.goodput_dip_area == pytest.approx(0.0)
        assert metrics.recovered is True
        # Only the initial cumulative ramp counts against the clock.
        assert metrics.time_to_recovery_seconds < 10.0

    def test_total_outage_never_recovers(self):
        outcomes = _outcomes([0.5 + i for i in range(10)])  # served only before onset
        metrics = compute_recovery_metrics(
            outcomes, onset_seconds=10.0, end_seconds=40.0, baseline_goodput_rps=1.0
        )
        assert metrics.recovered is False
        assert metrics.time_to_recovery_seconds == pytest.approx(30.0)
        assert metrics.goodput_dip_area == pytest.approx(30.0)  # 1 rps x 30 s destroyed

    def test_gap_then_catchup_sets_the_clock_at_the_catchup_point(self):
        # 1 rps, a [10, 20) outage, then 2 rps catch-up until fully caught up.
        times = [0.5 + i for i in range(10)]
        times += [20.0 + 0.5 * i for i in range(20)]
        metrics = compute_recovery_metrics(
            _outcomes(times), onset_seconds=10.0, end_seconds=30.0, baseline_goodput_rps=1.0
        )
        assert metrics.recovered is True
        # Behind until well after service resumes at t=20 (10 s after onset).
        assert 10.0 < metrics.time_to_recovery_seconds < 20.0
        # The dip area is the outage decade's worth of requests.
        assert metrics.goodput_dip_area == pytest.approx(10.0)

    def test_explicit_baseline_overrides_the_pre_onset_estimate(self):
        outcomes = _outcomes([0.5 + i for i in range(30)])
        estimated = compute_recovery_metrics(outcomes, onset_seconds=10.0, end_seconds=30.0)
        pinned = compute_recovery_metrics(
            outcomes, onset_seconds=10.0, end_seconds=30.0, baseline_goodput_rps=2.0
        )
        assert estimated.baseline_goodput_rps == pytest.approx(1.0)
        assert pinned.baseline_goodput_rps == 2.0
        # A doubled baseline means the steady 1 rps stream never catches up.
        assert pinned.recovered is False

    def test_metrics_are_deterministic(self):
        times = [0.5 + i for i in range(10)] + [20.0 + 0.5 * i for i in range(20)]
        first = compute_recovery_metrics(
            _outcomes(times), onset_seconds=10.0, end_seconds=30.0, baseline_goodput_rps=1.0
        )
        second = compute_recovery_metrics(
            _outcomes(times), onset_seconds=10.0, end_seconds=30.0, baseline_goodput_rps=1.0
        )
        assert first == second


# ---------------------------------------------------------------------------
# Recovery metrics against the per-window scan
# ---------------------------------------------------------------------------


def _reference_recovery_metrics(
    outcomes,
    onset_seconds: float,
    end_seconds: float,
    window_seconds: float = 5.0,
    recovery_fraction: float = 0.9,
    baseline_goodput_rps: float | None = None,
) -> RecoveryMetrics:
    """The original O(N x W) body of ``compute_recovery_metrics``, kept as
    the oracle: every window rescans every served completion."""
    if window_seconds <= 0:
        raise ConfigurationError(f"window_seconds must be > 0, got {window_seconds}")
    if not 0 < recovery_fraction <= 1:
        raise ConfigurationError(f"recovery_fraction must be in (0, 1], got {recovery_fraction}")
    served_times = sorted(o.completed_at for o in outcomes if o.disposition == "served")
    if baseline_goodput_rps is not None:
        baseline = baseline_goodput_rps
    else:
        start = min((o.arrived_at for o in outcomes), default=0.0)
        pre_span = onset_seconds - start
        pre_count = sum(1 for t in served_times if t < onset_seconds)
        baseline = pre_count / pre_span if pre_span > 0 else 0.0
    horizon = end_seconds - onset_seconds
    if horizon <= 0 or baseline == 0.0:
        return RecoveryMetrics(
            onset_seconds=onset_seconds,
            window_seconds=window_seconds,
            baseline_goodput_rps=baseline,
            time_to_recovery_seconds=0.0,
            goodput_dip_area=0.0,
            recovered=baseline > 0.0,
        )
    threshold = recovery_fraction * baseline
    dip_area = 0.0
    num_windows = int(math.ceil(horizon / window_seconds))
    for k in range(num_windows):
        lo = onset_seconds + k * window_seconds
        hi = min(lo + window_seconds, end_seconds)
        width = hi - lo
        if width <= 0:
            break
        count = sum(1 for t in served_times if lo <= t < hi)
        dip_area += max(0.0, baseline - count / width) * width
    post = [t for t in served_times if onset_seconds < t <= end_seconds]
    last_below = 0.0
    for index, t in enumerate(post):
        elapsed = t - onset_seconds
        if index / elapsed < threshold:
            last_below = elapsed
    if len(post) / horizon < threshold:
        last_below = horizon
    recovered = last_below < horizon
    return RecoveryMetrics(
        onset_seconds=onset_seconds,
        window_seconds=window_seconds,
        baseline_goodput_rps=baseline,
        time_to_recovery_seconds=last_below,
        goodput_dip_area=dip_area,
        recovered=recovered,
    )


#: ``served`` twice, so about half the drawn outcomes count as goodput.
_DISPOSITIONS = ("served", "served", "requeued", "degraded", "shed")


@st.composite
def recovery_cases(draw):
    """Arguments for one differential check, biased onto the comparison edges.

    Times are integer-valued or float; completion times mix free draws with
    the exact window bounds (``onset + k * window`` and ``lo + window``,
    computed as the function computes them), ``onset_seconds`` and
    ``end_seconds``, plus repeats of drawn times.  ``end_seconds`` may sit at
    or before the onset, and the horizon need not be a multiple of the
    window, so the last window may be partial.
    """
    if draw(st.booleans()):
        onset = draw(st.integers(0, 40))
        window = draw(st.integers(1, 7))
        end = onset + draw(st.integers(-10, 90))
        free_times = st.integers(-5, 140)
        lags = st.integers(0, 30)
    else:
        onset = draw(st.floats(0.0, 40.0))
        window = draw(st.floats(0.1, 7.0))
        end = onset + draw(st.floats(-10.0, 90.0))
        free_times = st.floats(-5.0, 140.0)
        lags = st.floats(0.0, 30.0)
    edges = [onset, end]
    for k in range(min(math.ceil(max(end - onset, 0) / window), 40) + 1):
        lo = onset + k * window
        edges += [lo, lo + window]
    times = draw(st.lists(st.one_of(free_times, st.sampled_from(edges)), max_size=60))
    if times:
        times += draw(st.lists(st.sampled_from(times), max_size=10))
    outcomes = [
        SimpleNamespace(
            arrived_at=t - draw(lags),
            completed_at=t,
            disposition=draw(st.sampled_from(_DISPOSITIONS)),
        )
        for t in times
    ]
    kwargs = {
        "onset_seconds": onset,
        "end_seconds": end,
        "window_seconds": window,
        "recovery_fraction": draw(st.one_of(st.just(0.9), st.just(1.0), st.floats(0.01, 1.0))),
        "baseline_goodput_rps": draw(
            st.one_of(st.none(), st.just(0.0), st.integers(1, 5), st.floats(0.01, 20.0))
        ),
    }
    return draw(st.permutations(outcomes)), kwargs


class TestRecoveryMetricsMatchTheScan:
    """Binary-search counts equal the per-window scan, bit for bit.

    For a sorted list, ``bisect_left(times, x)`` is the number of times
    ``< x``, so a half-open window ``[lo, hi)`` with ``lo < hi`` holds
    ``bisect_left(hi) - bisect_left(lo)`` of them: the same integer the scan
    counts.  Every float the metrics are built from is then computed from
    the same operands in the same order, so equality is exact (``==`` on the
    dataclass, no tolerance).
    """

    @given(recovery_cases())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_reference_on_random_cases(self, case):
        outcomes, kwargs = case
        expected = _reference_recovery_metrics(outcomes, **kwargs)
        assert compute_recovery_metrics(outcomes, **kwargs) == expected

    def test_completions_on_every_boundary(self):
        # Windows [10, 15), [15, 20), [20, 22): completions sit on the onset,
        # on each lo/hi and on the horizon, out of order and duplicated.
        times = [22.0, 15.0, 10.0, 20.0, 15.0, 9.0, 22.0]
        outcomes = _outcomes(times)
        outcomes.append(SimpleNamespace(arrived_at=0.0, completed_at=12.0, disposition="shed"))
        kwargs = {"onset_seconds": 10.0, "end_seconds": 22.0, "baseline_goodput_rps": 1.0}
        metrics = compute_recovery_metrics(outcomes, **kwargs)
        assert metrics == _reference_recovery_metrics(outcomes, **kwargs)
        # Windows hold 1 (10), 2 (15, 15) and 1 (20): the 22s sit on the
        # open end of the last window and the shed row is not goodput.
        assert metrics.goodput_dip_area == pytest.approx(4.0 + 3.0 + 1.0)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_equals_the_reference_on_a_real_faulted_run(self, seed):
        spec = get_scenario("fault-recovery").with_overrides(
            {"workload.num_requests": 1500, "seed": seed}
        )
        report = run(spec)
        # The arguments run() passes: first onset, last arrival, the
        # remediation control interval and the offered rate.
        process = make_arrival_process(spec.arrival.kind, report.offered_rate_rps, seed=spec.seed)
        expected = _reference_recovery_metrics(
            report.load.outcomes,
            onset_seconds=min(clause.onset_seconds for clause in spec.faults),
            end_seconds=float(process.times_array(spec.workload.num_requests).max()),
            window_seconds=spec.remediation.control_interval_seconds,
            baseline_goodput_rps=report.offered_rate_rps,
        )
        assert report.recovery == expected

    def test_scales_to_a_hundred_thousand_completions(self):
        # 10^5 served completions over 2 x 10^5 five-second windows: the
        # per-window scan would make 2 x 10^10 comparisons here.
        rng = np.random.default_rng(5)
        horizon = 1_000_000.0
        times = (10.0 + rng.random(100_000) * horizon).tolist()
        outcomes = _outcomes(times)
        started = time.perf_counter()
        metrics = compute_recovery_metrics(
            outcomes,
            onset_seconds=10.0,
            end_seconds=10.0 + horizon,
            window_seconds=5.0,
            baseline_goodput_rps=0.1,
        )
        elapsed = time.perf_counter() - started
        assert math.ceil(horizon / metrics.window_seconds) >= 200_000
        assert elapsed < 5.0
