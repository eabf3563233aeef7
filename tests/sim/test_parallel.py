"""Determinism and cache suite for the parallel execution layer.

The contract under test: ``run_many`` is bit-identical to serial execution
for any ``jobs`` (randomness derives from each spec's config seed, never
worker identity), and the tabulation cache chain rebuilds distributions
exactly from disk and re-tabulates over a corrupted entry.  The store's
own behaviours are tested once, for both caches, in ``test_cache.py``.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path

import numpy as np
import pytest

from repro import units
from repro.core import basic_scrub
from repro.params import CellSpec
from repro.sim import RunSpec, SimulationConfig, run_experiment, run_many
from repro.sim.analytic import tabulation_cache_key
from repro.sim.parallel import parallel_map
from repro.sim.runner import (
    DISTRIBUTION_CACHE_COUNTERS,
    TABULATIONS,
    cached_crossing_distribution,
    clear_distribution_cache,
    crossing_distribution_for,
)
from repro.analysis.sweeps import sweep_intervals

SMALL = SimulationConfig(
    num_lines=256, region_size=64, horizon=2 * units.DAY, endurance=None
)
INTERVALS = [0.5 * units.HOUR, units.HOUR, 2 * units.HOUR, 4 * units.HOUR]


def _specs() -> list[RunSpec]:
    return [
        RunSpec("basic", SMALL, {"interval": interval}) for interval in INTERVALS
    ]


def _fingerprint(result):
    return (
        result.uncorrectable,
        result.scrub_writes,
        result.scrub_energy,
        result.stats.visits,
        tuple(sorted(result.final_state.items())),
    )


class TestRunManyDeterminism:
    def test_jobs4_bit_identical_to_serial(self):
        specs = _specs()
        sequential = [spec.run() for spec in specs]
        serial = run_many(specs, jobs=1)
        parallel = run_many(specs, jobs=4)
        for seq, one, four in zip(sequential, serial, parallel):
            assert _fingerprint(seq) == _fingerprint(one) == _fingerprint(four)

    def test_matches_plain_run_experiment(self):
        spec = _specs()[0]
        direct = run_experiment(basic_scrub(INTERVALS[0]), SMALL)
        (via_many,) = run_many([spec], jobs=4)
        assert _fingerprint(direct) == _fingerprint(via_many)

    def test_order_preserved(self):
        results = run_many(_specs(), jobs=2)
        # Shorter intervals scrub more often: visits strictly ordered.
        visits = [result.stats.visits for result in results]
        assert visits == sorted(visits, reverse=True)

    def test_empty_and_single(self):
        assert run_many([], jobs=4) == []
        (only,) = run_many(_specs()[:1], jobs=4)
        assert only.policy_name == "basic(secded)"

    def test_specs_pickle(self):
        for spec in _specs():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy factory"):
            RunSpec("nonsense", SMALL, {"interval": units.HOUR})

    def test_worker_failure_surfaces_spec(self):
        bad = RunSpec("basic", SMALL, {"interval": units.HOUR, "bogus": 1})
        with pytest.raises(RuntimeError, match="bogus"):
            run_many([_specs()[0], bad], jobs=2)


class TestSweepParity:
    def test_named_factory_matches_callable(self):
        by_name = sweep_intervals("basic", INTERVALS[:2], SMALL, jobs=2)
        by_callable = sweep_intervals(basic_scrub, INTERVALS[:2], SMALL, jobs=1)
        for a, b in zip(by_name, by_callable):
            assert _fingerprint(a) == _fingerprint(b)


def _mark_then_fail_first(item: tuple[int, str]) -> int:
    """Leave a marker for each started item; item 0 fails, the rest take 0.3 s."""
    index, directory = item
    (Path(directory) / f"{index}.started").touch()
    if index == 0:
        raise ValueError("item 0 fails")
    time.sleep(0.3)
    return index


class TestParallelMap:
    def test_inline_fallback_and_order(self):
        assert parallel_map(abs, [-3, 1, -2], jobs=1) == [3, 1, 2]

    def test_pool_preserves_order(self):
        assert parallel_map(abs, [-3, 1, -2, -9], jobs=2) == [3, 1, 2, 9]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_result_sees_each_item_once(self, jobs):
        seen = []
        results = parallel_map(
            abs, [-3, 1, -2, -9, 5], jobs=jobs,
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert results == [3, 1, 2, 9, 5]
        assert sorted(seen) == list(enumerate(results))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_result_error_propagates_as_itself(self, jobs):
        def journal_full(index, result):
            raise OSError("journal full")

        with pytest.raises(OSError, match="journal full"):
            parallel_map(abs, [-3, 1, -2], jobs=jobs, on_result=journal_full)

    def test_failure_cancels_queued_items(self, tmp_path):
        items = [(index, str(tmp_path)) for index in range(24)]
        with pytest.raises(RuntimeError, match="item 0 fails"):
            parallel_map(_mark_then_fail_first, items, jobs=2)
        # Only the items already running or handed to a worker start; the
        # queued rest are cancelled rather than run before the error.
        assert len(list(tmp_path.glob("*.started"))) < len(items) // 2


class TestDiskCache:
    def test_round_trip_exact(self, _isolated_disk_cache):
        fresh = crossing_distribution_for(SMALL)
        clear_distribution_cache()
        reloaded = crossing_distribution_for(SMALL)
        assert DISTRIBUTION_CACHE_COUNTERS["disk"] == 1
        assert np.array_equal(fresh.grid, reloaded.grid)
        assert np.array_equal(fresh.per_level_cdf, reloaded.per_level_cdf)
        assert np.array_equal(fresh.cdf_values, reloaded.cdf_values)
        times = np.logspace(-1, 11, 64)
        assert np.array_equal(fresh.cdf(times), reloaded.cdf(times))
        u = np.linspace(0.0, 1.0, 129)
        assert np.array_equal(fresh.quantile(u), reloaded.quantile(u))

    def test_corrupted_file_ignored(self, _isolated_disk_cache):
        spec = CellSpec()
        key = tabulation_cache_key(spec, 300.0)
        TABULATIONS.path(key).write_bytes(b"not an npz archive")
        # The full chain re-tabulates instead of failing, and the rewritten
        # entry serves the next cold process.
        cached_crossing_distribution(spec, 300.0)
        assert DISTRIBUTION_CACHE_COUNTERS["tabulated"] == 1
        clear_distribution_cache()
        cached_crossing_distribution(spec, 300.0)
        assert DISTRIBUTION_CACHE_COUNTERS["disk"] == 1

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        crossing_distribution_for(SMALL)
        clear_distribution_cache()
        crossing_distribution_for(SMALL)
        assert DISTRIBUTION_CACHE_COUNTERS["disk"] == 0
        assert DISTRIBUTION_CACHE_COUNTERS["tabulated"] == 1


class TestMemoryCache:
    def test_lru_bounded(self, monkeypatch):
        # The tabulation chain keeps its memo inside the store's bound.
        monkeypatch.setattr(TABULATIONS, "capacity", 2)
        spec = CellSpec()
        for temperature in (300.0, 305.0, 310.0):
            cached_crossing_distribution(spec, temperature)
        assert len(TABULATIONS) == 2

    def test_memory_hit_counted(self):
        first = crossing_distribution_for(SMALL)
        second = crossing_distribution_for(SMALL)
        assert first is second
        assert DISTRIBUTION_CACHE_COUNTERS["memory"] == 1

    def test_clear_resets(self):
        crossing_distribution_for(SMALL)
        clear_distribution_cache()
        assert DISTRIBUTION_CACHE_COUNTERS == {
            "memory": 0,
            "disk": 0,
            "tabulated": 0,
        }


class TestSparesPlumbing:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="spares_per_region"):
            SimulationConfig(num_lines=256, region_size=64, spares_per_region=-1)

    def test_final_state_reports_pool(self):
        config = SimulationConfig(
            num_lines=256,
            region_size=64,
            horizon=units.DAY,
            retire_hard_limit=2,
            spares_per_region=2,
        )
        result = run_experiment(basic_scrub(units.HOUR), config)
        assert "spares_used" in result.final_state
        assert "spare_refusals" in result.final_state
        assert "spare_exhausted_regions" in result.final_state

    def test_no_pool_when_unset(self):
        result = run_experiment(basic_scrub(units.HOUR), SMALL)
        assert "spares_used" not in result.final_state
