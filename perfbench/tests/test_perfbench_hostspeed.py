"""Scaled host time on synthetic kernel runs."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import hostspeed
from perfbench.hostspeed import REFERENCE_S, HostClock


def _clock(runs: list[tuple[float, float]]) -> HostClock:
    clock = HostClock()
    clock.runs = runs
    return clock


def test_kernel_runs_are_left_out_and_steady_speed_scales_linearly():
    k = 2 * REFERENCE_S  # a host at half the reference speed
    clock = _clock([(t, t + k) for t in (0.0, 1.0, 2.0, 3.0)])
    starts = np.array([0.0, k, 0.5, 1.0 + k / 2, -1.0, 3.0])
    ends = np.array([k, 1.0, 2.5, 1.0 + k, 0.0, 5.0])
    expected = np.array([0.0, 1.0 - k, 2.0 - 2 * k, 0.0, 1.0, 2.0 - k]) / 2
    assert clock.scaled(starts, ends) == pytest.approx(expected, abs=1e-9)


def test_each_gap_takes_the_speed_of_the_kernel_runs_around_it(monkeypatch):
    monkeypatch.setattr(hostspeed, "WINDOW", 2)
    fast, slow = REFERENCE_S, 4 * REFERENCE_S
    clock = _clock([(0.0, fast), (1.0, 1.0 + fast), (2.0, 2.0 + slow), (3.0, 3.0 + slow)])
    gaps = clock.scaled(
        np.array([fast, 1.0 + fast, 2.0 + slow]), np.array([1.0, 2.0, 3.0])
    )
    median_of_pair = (fast + slow) / 2
    assert gaps == pytest.approx(
        [1.0 - fast, (1.0 - fast) * REFERENCE_S / median_of_pair, (1.0 - slow) / 4],
        abs=1e-9,
    )


def test_maybe_sample_waits_for_the_interval():
    clock = HostClock()
    clock.sample()
    clock.maybe_sample()
    assert len(clock.runs) == 1
    clock._due = 0.0
    clock.maybe_sample()
    assert len(clock.runs) == 2
