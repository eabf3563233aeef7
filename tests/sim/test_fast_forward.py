"""Quiescent-visit fast-forward: bit-identical to the naive walk.

The fast-forward layer's contract is absolute: with ``fast_forward`` on or
off, every stat, every joule, every histogram bucket, and the final device
state must match bit for bit.  These tests pin that contract across the
policy matrix, the standdown paths, and the supporting machinery (bulk
ledger charges, RNG advancement, per-region caches).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import units
from repro.core import (
    adaptive_scrub,
    basic_scrub,
    strong_ecc_scrub,
    threshold_scrub,
)
from repro.core.stats import ScrubStats
from repro.obs.config import ObsConfig
from repro.params import EnduranceSpec
from repro.pcm.energy import OperationCosts
from repro.sim import SimulationConfig, run_experiment
from repro.sim.population import _RNG_ADVANCE_CHUNK, _advance_rng
from repro.sim.runner import build_population
from repro.sim.rng import RngStreams
from repro.workloads.generators import DemandRates, uniform_rates

#: Drift-compensated sensing removes the systematic drift error floor, so
#: idle regions spend most of the horizon genuinely error-free — the
#: operating point where fast-forward actually engages.
QUIET = SimulationConfig(
    num_lines=1024,
    region_size=256,
    horizon=4 * units.DAY,
    endurance=None,
    compensated_sensing=True,
)
#: Single region: the only layout where detector-gated policies (which draw
#: engine RNG every visit) may fast-forward.
QUIET_ONE_REGION = dataclasses.replace(QUIET, region_size=QUIET.num_lines)


def run_pair(policy_factory, config, rates=None):
    """The same experiment with fast-forward on and off."""
    on = run_experiment(policy_factory(), config, rates)
    off = run_experiment(
        policy_factory(),
        dataclasses.replace(config, fast_forward=False),
        rates,
    )
    return on, off


def assert_identical(on, off):
    assert on.stats.summary() == off.stats.summary()
    assert on.stats.energy_breakdown() == off.stats.energy_breakdown()
    assert on.stats.error_histogram.tolist() == off.stats.error_histogram.tolist()
    assert on.stats.visits_with_errors == off.stats.visits_with_errors
    assert on.stats.partial_cells == off.stats.partial_cells
    assert on.final_state == off.final_state


class TestBitIdentity:
    def test_basic_multi_region(self):
        on, off = run_pair(lambda: basic_scrub(2 * units.HOUR), QUIET)
        assert_identical(on, off)
        assert on.fast_forward["skipped_visits"] > 0
        assert off.fast_forward is None

    def test_strong_multi_region(self):
        on, off = run_pair(lambda: strong_ecc_scrub(2 * units.HOUR, 4), QUIET)
        assert_identical(on, off)
        assert on.fast_forward["skipped_visits"] > 0

    def test_threshold_single_region_detector(self):
        on, off = run_pair(
            lambda: threshold_scrub(2 * units.HOUR, 3), QUIET_ONE_REGION
        )
        assert_identical(on, off)
        assert on.fast_forward["skipped_visits"] > 0

    def test_adaptive_single_region_clamped(self):
        # max_interval == base interval: relax is a no-op, so the adaptive
        # policy is fast-forward eligible from the first visit.
        on, off = run_pair(
            lambda: adaptive_scrub(
                2 * units.HOUR, 3, max_interval=2 * units.HOUR
            ),
            QUIET_ONE_REGION,
        )
        assert_identical(on, off)
        assert on.fast_forward["skipped_visits"] > 0

    def test_hot_config_rarely_engages_but_stays_identical(self):
        # Uncompensated sensing at 300 K: drift errors are near-constant,
        # regions are almost never quiescent — identity must hold anyway.
        hot = dataclasses.replace(QUIET, compensated_sensing=False)
        on, off = run_pair(lambda: basic_scrub(2 * units.HOUR), hot)
        assert_identical(on, off)

    def test_identity_with_retirement_limit(self):
        config = dataclasses.replace(
            QUIET, endurance=EnduranceSpec(), retire_hard_limit=4
        )
        on, off = run_pair(lambda: basic_scrub(2 * units.HOUR), config)
        assert_identical(on, off)

    def test_jump_counter_consistent(self):
        on, __ = run_pair(lambda: basic_scrub(2 * units.HOUR), QUIET)
        ff = on.fast_forward
        # Each jump folds at least two visits (one is never worth a jump).
        assert ff["jumps"] >= 1
        assert ff["skipped_visits"] >= 2 * ff["jumps"]


class TestStanddownPaths:
    def trace_config(self, base):
        return dataclasses.replace(base, obs=ObsConfig(trace=True))

    def disabled_reasons(self, result):
        return {
            e["reason"]
            for e in result.trace
            if e["event"] == "fast_forward_disabled"
        }

    def test_demand_loaded_regions_stand_down(self):
        rates = uniform_rates(QUIET.num_lines, QUIET.num_lines / units.HOUR)
        result = run_experiment(
            basic_scrub(2 * units.HOUR), self.trace_config(QUIET), rates
        )
        assert "demand" in self.disabled_reasons(result)
        assert result.fast_forward["skipped_visits"] == 0

    def test_read_refresh_stands_down(self):
        config = self.trace_config(
            dataclasses.replace(QUIET, read_refresh=True)
        )
        reads = DemandRates(
            write_rate=np.zeros(QUIET.num_lines),
            read_rate=np.full(QUIET.num_lines, 2e-4),
            name="read-only",
        )
        result = run_experiment(basic_scrub(2 * units.HOUR), config, reads)
        assert self.disabled_reasons(result) == {"read_refresh"}
        assert result.fast_forward["skipped_visits"] == 0

    def test_multi_region_detector_stands_down(self):
        result = run_experiment(
            threshold_scrub(2 * units.HOUR, 3), self.trace_config(QUIET)
        )
        assert "detector_interleaving" in self.disabled_reasons(result)
        assert result.fast_forward["skipped_visits"] == 0

    def test_ineligible_policy_stands_down(self):
        # Adaptive below max_interval relaxes on zero-error visits, so it
        # reports no fast-forward interval until the ladder tops out.
        result = run_experiment(
            adaptive_scrub(2 * units.HOUR, 3), self.trace_config(QUIET_ONE_REGION)
        )
        assert "policy" in self.disabled_reasons(result)

    def test_fast_forward_off_emits_nothing(self):
        config = self.trace_config(
            dataclasses.replace(QUIET, fast_forward=False)
        )
        result = run_experiment(basic_scrub(2 * units.HOUR), config)
        events = {e["event"] for e in result.trace}
        assert "fast_forward" not in events
        assert "fast_forward_disabled" not in events
        assert result.fast_forward is None

    def test_engaged_run_emits_fast_forward_events(self):
        result = run_experiment(
            basic_scrub(2 * units.HOUR), self.trace_config(QUIET)
        )
        jumps = [e for e in result.trace if e["event"] == "fast_forward"]
        assert len(jumps) == result.fast_forward["jumps"]
        assert sum(e["skipped"] for e in jumps) == (
            result.fast_forward["skipped_visits"]
        )


class TestBulkPrimitives:
    def costs(self):
        return OperationCosts(
            read_energy=2e-12,
            write_energy=2.5e-11,
            detect_energy=1e-12,
            decode_energy=1.1e-11,
            read_latency=1e-7,
            write_latency=1e-6,
            decode_latency=1e-8,
        )

    @pytest.mark.parametrize("detector", [True, False])
    def test_record_zero_error_visits_matches_loop(self, detector):
        bulk = ScrubStats(costs=self.costs())
        loop = ScrubStats(costs=self.costs())
        visits, lines = 137, 256
        bulk.record_zero_error_visits(
            visits, lines, detector=detector, decode_all=not detector
        )
        for __ in range(visits):
            loop.record_reads(lines)
            if detector:
                loop.record_detects(lines)
                loop.record_decodes(0)
            else:
                loop.record_decodes(lines)
                loop.record_error_counts(np.zeros(lines, dtype=np.int64))
        # Bitwise: same iterated float additions, not a fused product.
        assert bulk.summary() == loop.summary()
        assert bulk.energy_breakdown() == loop.energy_breakdown()
        assert bulk.error_histogram.tolist() == loop.error_histogram.tolist()

    def test_record_zero_error_visits_rejects_negative(self):
        stats = ScrubStats(costs=self.costs())
        with pytest.raises(ValueError):
            stats.record_zero_error_visits(-1, 4, detector=False, decode_all=True)

    def test_add_repeated_matches_iterated_add(self):
        a = ScrubStats(costs=self.costs()).ledger
        b = ScrubStats(costs=self.costs()).ledger
        a.add("scrub_read", 3.3e-12, 64, repeats=1000)
        for __ in range(1000):
            b.add("scrub_read", 3.3e-12, 64)
        assert a.energy == b.energy
        assert a.counts == b.counts

    def test_rng_advance_matches_per_visit_draws(self):
        # numpy's Generator fills sequentially: random(k * n) in chunks
        # consumes the same stream as k separate random(n) calls.  This is
        # the property the detector fast-forward path leans on.
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        visits, lines = 13, 100
        for __ in range(visits):
            a.random(lines)
        _advance_rng(b, visits * lines)
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_rng_advance_chunks_large_counts(self):
        a = np.random.default_rng(11)
        b = np.random.default_rng(11)
        count = _RNG_ADVANCE_CHUNK + 12345
        a.random(count)
        _advance_rng(b, count)
        assert a.random(3).tolist() == b.random(3).tolist()


class TestRegionCaches:
    def population(self, seed=3, num_lines=64):
        config = dataclasses.replace(
            QUIET, num_lines=num_lines, region_size=num_lines // 4, seed=seed
        )
        pop = build_population(config, RngStreams(config.seed))
        pop.enable_region_tracking(config.region_size)
        return pop, config.region_size

    def direct_actionable(self, pop, region, size):
        sl = slice(region * size, (region + 1) * size)
        if pop.hard_mismatch[sl].any():
            return -np.inf
        return float(pop.crossing[sl, 0].min())

    def test_cache_matches_direct_computation(self):
        pop, size = self.population()
        for region in range(pop.num_lines // size):
            assert pop.region_actionable_time(region) == (
                self.direct_actionable(pop, region, size)
            )

    def test_rewrite_invalidates_cache(self):
        pop, size = self.population()
        before = pop.region_actionable_time(1)
        lines = np.arange(size, 2 * size)
        pop.rewrite(lines, np.full(size, 1e6), data_changed=False)
        after = pop.region_actionable_time(1)
        assert after == self.direct_actionable(pop, 1, size)
        assert after > before  # fresh draws anchored far in the future

    def test_partial_rewrite_invalidates_cache(self):
        pop, size = self.population()
        # Rewrite past the region's first crossing so cells have drifted.
        horizon = pop.region_actionable_time(0) + units.DAY
        pop.region_actionable_time(0)  # warm the cache
        pop.partial_rewrite(np.arange(size), horizon)
        assert pop.region_actionable_time(0) == (
            self.direct_actionable(pop, 0, size)
        )

    def test_hard_mismatch_makes_region_immediately_actionable(self):
        pop, size = self.population()
        pop.region_actionable_time(2)  # warm the cache
        pop.hard_mismatch[2 * size] = 1
        pop._mark_regions_dirty(np.array([2 * size]))
        assert pop.region_actionable_time(2) == -np.inf

    def test_general_theta_consistent_with_cached_theta_one(self):
        pop, size = self.population()
        for region in range(pop.num_lines // size):
            cached = pop.region_actionable_time(region)
            general = pop.region_actionable_time(region, theta=1)
            assert cached == general
            # More errors take longer (or equally long) to accumulate.
            assert pop.region_actionable_time(region, theta=3) >= cached

    def test_theta_folds_hard_mismatches(self):
        pop, size = self.population()
        pop.hard_mismatch[0] = 3
        pop._mark_regions_dirty(np.array([0]))
        # Three standing hard errors: theta up to 3 is already reached.
        assert pop.region_actionable_time(0, theta=3) == -np.inf
        # theta=4: line 0 needs one more crossing (its first); the clean
        # lines need four (their fourth order statistic).
        expected = min(
            float(pop.crossing[0, 0]), float(pop.crossing[1:size, 3].min())
        )
        assert pop.region_actionable_time(0, theta=4) == expected

    def test_tracking_requires_divisible_region_size(self):
        pop, __ = self.population()
        with pytest.raises(ValueError):
            pop.enable_region_tracking(7)

    def test_queries_require_tracking(self):
        config = dataclasses.replace(QUIET, num_lines=64, region_size=16)
        pop = build_population(config, RngStreams(config.seed))
        with pytest.raises(RuntimeError):
            pop.region_actionable_time(0)
        with pytest.raises(RuntimeError):
            pop.region_max_stuck(0)


class TestObservability:
    def test_timeseries_identical_on_and_off(self):
        obs = ObsConfig(sample_every=QUIET.horizon / 8)
        on, off = run_pair(
            lambda: basic_scrub(2 * units.HOUR),
            dataclasses.replace(QUIET, obs=obs),
        )
        assert on.fast_forward["skipped_visits"] > 0
        # The skipped-visit counter is a diagnostic column that only exists
        # when fast-forward is on; every measured column must match exactly.
        strip = lambda s: {
            k: v for k, v in s.items() if k != "fast_forward_skipped_visits"
        }
        assert len(on.timeseries) == len(off.timeseries)
        for a, b in zip(on.timeseries, off.timeseries):
            assert strip(a) == strip(b)

    def test_invariant_checker_accepts_fast_forward(self):
        config = dataclasses.replace(
            QUIET,
            verify=dataclasses.replace(QUIET.verify, invariants=True),
        )
        result = run_experiment(basic_scrub(2 * units.HOUR), config)
        assert result.fast_forward["skipped_visits"] > 0

    def test_result_dict_omits_fast_forward(self):
        # to_dict feeds the export tables; the counters are diagnostics,
        # not results, and must not perturb golden exports.
        result = run_experiment(basic_scrub(2 * units.HOUR), QUIET)
        assert "fast_forward" not in result.to_dict()
