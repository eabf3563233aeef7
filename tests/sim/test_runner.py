"""End-to-end runner: reproducibility and wiring."""

from __future__ import annotations

import pytest

from repro import units
from repro.core import basic_scrub, combined_scrub
from repro.params import CellSpec
from repro.sim import runner
from repro.sim.analytic import tabulation_cache_key
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    DISTRIBUTION_CACHE_COUNTERS,
    build_stats,
    crossing_distribution_for,
    run_experiment,
)
from repro.workloads.generators import uniform_rates

SMALL = SimulationConfig(
    num_lines=512, region_size=128, horizon=2 * units.DAY, endurance=None
)


class TestRunner:
    def test_result_metadata(self):
        result = run_experiment(basic_scrub(units.HOUR), SMALL)
        assert result.policy_name == "basic(secded)"
        assert result.workload_name == "idle"
        assert result.runtime_seconds > 0
        assert result.stats.visits == 512 * 48  # hourly for 2 days

    def test_reproducible_across_calls(self):
        a = run_experiment(basic_scrub(units.HOUR), SMALL)
        b = run_experiment(basic_scrub(units.HOUR), SMALL)
        assert a.stats.summary() == b.stats.summary()

    def test_seed_changes_results(self):
        import dataclasses

        other = dataclasses.replace(SMALL, seed=999)
        a = run_experiment(basic_scrub(units.HOUR), SMALL)
        b = run_experiment(basic_scrub(units.HOUR), other)
        assert a.stats.summary() != b.stats.summary()

    def test_workload_name_propagates(self):
        rates = uniform_rates(512, 10.0)
        result = run_experiment(basic_scrub(units.HOUR), SMALL, rates)
        assert result.workload_name == "uniform"

    def test_default_config(self):
        # Just the construction path; a full default run is benchmark-sized.
        stats = build_stats(combined_scrub(units.HOUR), SimulationConfig())
        assert stats.costs.decode_energy > 0

    def test_distribution_memoized(self):
        a = crossing_distribution_for(SMALL)
        b = crossing_distribution_for(SMALL)
        assert a is b

    def test_stats_priced_by_scheme(self):
        weak = build_stats(basic_scrub(units.HOUR), SMALL)
        strong = build_stats(combined_scrub(units.HOUR), SMALL)
        # bch8+crc carries more bits than secded: costlier reads/writes.
        assert strong.costs.read_energy > weak.costs.read_energy
        assert strong.costs.decode_energy > weak.costs.decode_energy


class TestDistributionCacheEviction:
    """LRU bound, recency refresh and source counters through the chain.

    The store's own LRU is tested once, for both caches, in
    ``test_cache.py``; these drive it through ``cached_crossing_distribution``.
    """

    @pytest.fixture(autouse=True)
    def _small_cache(self, monkeypatch):
        runner.clear_distribution_cache()
        monkeypatch.setattr(runner.TABULATIONS, "capacity", 2)
        yield
        runner.clear_distribution_cache()

    def test_insert_evicts_oldest_beyond_max(self):
        runner.TABULATIONS.put("stale-a", object())
        runner.TABULATIONS.put("stale-b", object())
        dist = runner.cached_crossing_distribution(CellSpec(), 300.0)
        key = tabulation_cache_key(CellSpec(), 300.0, False)
        assert len(runner.TABULATIONS) == 2
        assert runner.TABULATIONS.get("stale-a") is None  # LRU victim
        assert runner.TABULATIONS.get(key) is dist

    def test_memory_hit_refreshes_recency(self):
        first = runner.cached_crossing_distribution(CellSpec(), 300.0)
        # A newer entry would otherwise make the real one the LRU victim.
        runner.TABULATIONS.put("filler", object())
        hit = runner.cached_crossing_distribution(CellSpec(), 300.0)
        assert hit is first
        assert DISTRIBUTION_CACHE_COUNTERS["memory"] == 1
        # The hit made the real entry most recent, so the filler goes next.
        runner.TABULATIONS.put("filler-2", object())
        assert runner.TABULATIONS.get("filler") is None
        assert runner.cached_crossing_distribution(CellSpec(), 300.0) is first

    def test_counters_track_the_source_chain(self):
        runner.cached_crossing_distribution(CellSpec(), 300.0)
        cold = (
            DISTRIBUTION_CACHE_COUNTERS["disk"]
            + DISTRIBUTION_CACHE_COUNTERS["tabulated"]
        )
        assert cold == 1
        assert DISTRIBUTION_CACHE_COUNTERS["memory"] == 0
        runner.cached_crossing_distribution(CellSpec(), 300.0)
        assert DISTRIBUTION_CACHE_COUNTERS["memory"] == 1

    def test_evicted_entry_reloads_from_disk_not_memory(self):
        runner.cached_crossing_distribution(CellSpec(), 300.0)
        # Two newer entries push the real one out of the two-slot LRU.
        runner.TABULATIONS.put("filler-1", object())
        runner.TABULATIONS.put("filler-2", object())
        key = tabulation_cache_key(CellSpec(), 300.0, False)
        before = DISTRIBUTION_CACHE_COUNTERS["memory"]
        assert runner.TABULATIONS.get(key) is None
        runner.cached_crossing_distribution(CellSpec(), 300.0)
        # The refetch was not a memory hit: it went back down the chain.
        assert DISTRIBUTION_CACHE_COUNTERS["memory"] == before
        assert DISTRIBUTION_CACHE_COUNTERS["disk"] >= 1

    def test_clear_resets_memo_and_counters(self):
        runner.cached_crossing_distribution(CellSpec(), 300.0)
        runner.clear_distribution_cache()
        assert len(runner.TABULATIONS) == 0
        assert DISTRIBUTION_CACHE_COUNTERS["memory"] == 0
        assert DISTRIBUTION_CACHE_COUNTERS["disk"] == 0
        assert DISTRIBUTION_CACHE_COUNTERS["tabulated"] == 0
