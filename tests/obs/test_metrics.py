"""Metrics registry unit tests: instruments and snapshots."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import units
from repro.core import basic_scrub
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim import SimulationConfig, run_experiment


class TestInstruments:
    def test_counter_increments_and_rejects_negative(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets(self):
        gauge = Gauge()
        gauge.set(3)
        assert gauge.value == 3.0
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_observe_caps_overflow(self):
        histogram = Histogram(4)
        histogram.observe([0, 1, 1, 3, 7, 100])
        assert histogram.to_list() == [1, 2, 0, 3]

    def test_histogram_set_from_copies(self):
        histogram = Histogram(3)
        source = np.array([1, 2, 3], dtype=np.int64)
        histogram.set_from(source)
        source[0] = 99
        assert histogram.to_list() == [1, 2, 3]
        with pytest.raises(ValueError):
            histogram.set_from(np.zeros(5, dtype=np.int64))


class TestRegistry:
    def test_create_on_first_use_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h", 4) is registry.histogram("h", 4)
        with pytest.raises(ValueError):
            registry.histogram("h", 8)

    def test_snapshot_flattens_groups_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(3)
        registry.gauge("temp").set(2.5)
        registry.histogram("errs", 2).observe([0, 1, 1])
        snapshot = registry.snapshot()
        assert snapshot == {
            "runs": 3,
            "temp": 2.5,
            "errs": [1, 2],
        }
        json.dumps(snapshot)  # JSON-serializable as-is

    def test_observe_stats_mirrors_summary_energy_and_histogram(self):
        result = run_experiment(
            basic_scrub(interval=units.HOUR),
            SimulationConfig(
                num_lines=256, region_size=64, horizon=units.DAY, endurance=None
            ),
        )
        registry = MetricsRegistry()
        registry.observe_stats(result.stats)
        snapshot = registry.snapshot()
        for key, value in result.stats.summary().items():
            assert snapshot[key] == value
        for stage, joules in result.stats.energy_breakdown().items():
            assert snapshot[f"energy.{stage}"] == joules
        assert snapshot["observed_errors"] == [
            int(v) for v in result.stats.error_histogram
        ]
