"""Batched visit engine: bit-identical to the scalar walk on its domain.

The batch engine's contract (:mod:`repro.sim.batch`) has two regimes:
wherever batching preserves each RNG stream's draw order — idle devices,
single-region devices — every stat, joule, and histogram bucket must
match the scalar engine bit for bit; multi-region demand in round mode
reorders the workload stream and is held to a statistical band instead.
Policies without a uniform static cadence (adaptive, combined) never
batch: they run on the scalar walk itself.  These tests pin all three,
plus the interactions (fast-forward, invariants, tracing, process pools)
and the round-sized charge of the per-visit operations.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import units
from repro.core import (
    adaptive_scrub,
    basic_scrub,
    combined_scrub,
    light_scrub,
    partial_scrub,
    strong_ecc_scrub,
    threshold_scrub,
)
from repro.core.policy import VisitDecision
from repro.obs.config import ObsConfig
from repro.params import EnduranceSpec
from repro.sim import (
    BatchPopulationEngine,
    RunSpec,
    SimulationConfig,
    build_engine,
    run_experiment,
    run_many,
)
from repro.sim.parallel import POLICY_FACTORIES
from repro.verify.invariants import VerifyConfig
from repro.workloads.generators import uniform_rates

#: Multi-region device, errors arriving every round: the busy operating
#: point the batch engine exists for (fast-forward can never engage).
MULTI = SimulationConfig(
    num_lines=1024,
    region_size=256,
    horizon=3 * units.DAY,
    endurance=None,
    fast_forward=False,
)
#: Single region: every workload is in the bit-identity domain.
SINGLE = dataclasses.replace(MULTI, region_size=MULTI.num_lines)
#: Compensated sensing: long quiescent stretches, so the round-level
#: fast-forward actually engages.
QUIET = dataclasses.replace(
    MULTI, compensated_sensing=True, fast_forward=True, horizon=5 * units.DAY
)


def busy_rates(num_lines: int = MULTI.num_lines, per_line_per_day: float = 2.0):
    return uniform_rates(
        num_lines, total_write_rate=num_lines * per_line_per_day / units.DAY
    )


def run_engines(policy_factory, config, rates=None):
    """The same experiment on the batch and scalar engines."""
    batch = run_experiment(
        policy_factory(), dataclasses.replace(config, engine="batch"), rates
    )
    scalar = run_experiment(
        policy_factory(), dataclasses.replace(config, engine="scalar"), rates
    )
    return batch, scalar


def assert_identical(batch, scalar):
    assert batch.stats.summary() == scalar.stats.summary()
    assert batch.stats.energy_breakdown() == scalar.stats.energy_breakdown()
    assert (
        batch.stats.error_histogram.tolist()
        == scalar.stats.error_histogram.tolist()
    )
    assert batch.stats.visits_with_errors == scalar.stats.visits_with_errors
    assert batch.stats.partial_cells == scalar.stats.partial_cells
    assert batch.final_state == scalar.final_state


POLICY_MATRIX = {
    "basic": lambda: basic_scrub(2 * units.HOUR),
    "strong": lambda: strong_ecc_scrub(2 * units.HOUR, 4),
    "light": lambda: light_scrub(2 * units.HOUR),
    "threshold": lambda: threshold_scrub(2 * units.HOUR, 3),
    "partial": lambda: partial_scrub(2 * units.HOUR, 3),
}


class TestRoundModeIdentity:
    """Static uniform-interval policies replay the stagger in whole rounds."""

    @pytest.mark.parametrize("name", sorted(POLICY_MATRIX))
    def test_idle_multi_region(self, name):
        batch, scalar = run_engines(POLICY_MATRIX[name], MULTI)
        assert_identical(batch, scalar)

    @pytest.mark.parametrize("name", ["threshold", "light"])
    def test_busy_single_region(self, name):
        batch, scalar = run_engines(
            POLICY_MATRIX[name], SINGLE, busy_rates()
        )
        assert_identical(batch, scalar)

    def test_idle_multi_region_with_retirement_and_spares(self):
        config = dataclasses.replace(
            MULTI,
            endurance=EnduranceSpec(mean_writes=20),
            retire_hard_limit=2,
            spares_per_region=4,
        )
        batch, scalar = run_engines(POLICY_MATRIX["threshold"], config)
        assert_identical(batch, scalar)
        assert batch.stats.retired > 0

    def test_busy_single_region_read_refresh(self):
        config = dataclasses.replace(SINGLE, read_refresh=True)
        rates = uniform_rates(
            SINGLE.num_lines,
            total_write_rate=SINGLE.num_lines * 2.0 / units.DAY,
            read_write_ratio=5.0,
        )
        batch, scalar = run_engines(POLICY_MATRIX["threshold"], config, rates)
        assert_identical(batch, scalar)


class TestCohortModeIdentity:
    """Scheduler-driven policies are identical under any workload: with
    no batch interval, ``engine="batch"`` falls back to the scalar walk."""

    def test_adaptive_idle_multi_region(self):
        batch, scalar = run_engines(
            lambda: adaptive_scrub(2 * units.HOUR, 3), MULTI
        )
        assert_identical(batch, scalar)

    def test_adaptive_busy_multi_region(self):
        batch, scalar = run_engines(
            lambda: adaptive_scrub(2 * units.HOUR, 3), MULTI, busy_rates()
        )
        assert_identical(batch, scalar)

    def test_combined_busy_multi_region(self):
        batch, scalar = run_engines(
            lambda: combined_scrub(2 * units.HOUR), MULTI, busy_rates()
        )
        assert_identical(batch, scalar)


class TestScalarFallback:
    """Only round mode batches; every other policy takes the scalar walk."""

    @pytest.mark.parametrize(
        "factory",
        [lambda: adaptive_scrub(2 * units.HOUR, 3),
         lambda: combined_scrub(2 * units.HOUR)],
        ids=["adaptive", "combined"],
    )
    def test_scheduler_policies_never_batch(self, factory, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("steered-interval policy entered a batched visit")

        monkeypatch.setattr(BatchPopulationEngine, "_process_cohort", refuse)
        result = run_experiment(
            factory(), dataclasses.replace(MULTI, engine="batch"), busy_rates()
        )
        assert result.stats.visits > 0

    @pytest.mark.parametrize("name", sorted(POLICY_FACTORIES))
    def test_batch_interval_implies_visit_batch(self, name):
        policy = POLICY_FACTORIES[name](interval=2 * units.HOUR)
        if policy.batch_interval() is not None:
            assert callable(getattr(policy, "visit_batch", None))


class TestRoundModeBand:
    """Multi-region demand in round mode: statistically equivalent only."""

    def test_busy_multi_region_within_band(self):
        batch, scalar = run_engines(
            POLICY_MATRIX["threshold"], MULTI, busy_rates()
        )
        for metric in ("uncorrectable", "scrub_writes", "demand_writes"):
            observed = float(getattr(batch.stats, metric))
            expected = float(getattr(scalar.stats, metric))
            assert expected > 0
            # Generous 4-sigma-ish band on two independent samples of the
            # same process; the verify suite carries the calibrated one.
            rel = max(0.15, 6.0 / np.sqrt(expected))
            assert abs(observed - expected) <= rel * expected

    def test_visit_count_exact_even_off_domain(self):
        # The visit schedule is deterministic either way; only the RNG
        # consumption order differs.
        batch, scalar = run_engines(
            POLICY_MATRIX["threshold"], MULTI, busy_rates()
        )
        assert batch.stats.visits == scalar.stats.visits


class TestFastForwardInterplay:
    def test_round_skip_engages_for_multi_region_detector(self):
        # The scalar fast-forward must stand down for multi-region detector
        # runs (per-region skips cannot reproduce the interleaved detector
        # draws); the batch engine skips whole rounds, whose draw order it
        # already owns — and the results still match the scalar walk.
        batch, scalar = run_engines(POLICY_MATRIX["threshold"], QUIET)
        assert_identical(batch, scalar)
        assert batch.fast_forward["skipped_visits"] > 0
        assert scalar.fast_forward["skipped_visits"] == 0

    def test_round_skip_decode_all(self):
        batch, scalar = run_engines(POLICY_MATRIX["basic"], QUIET)
        assert_identical(batch, scalar)
        assert batch.fast_forward["skipped_visits"] > 0
        # Round skips count whole rounds: multiples of the region count.
        regions = QUIET.num_lines // QUIET.region_size
        assert batch.fast_forward["skipped_visits"] % regions == 0

    def test_no_fast_forward_flag_respected(self):
        config = dataclasses.replace(QUIET, fast_forward=False)
        batch, scalar = run_engines(POLICY_MATRIX["basic"], config)
        assert_identical(batch, scalar)
        assert batch.fast_forward is None


class TestObservability:
    def test_invariants_hold_on_batch_runs(self):
        config = dataclasses.replace(
            MULTI, verify=VerifyConfig(invariants=True), engine="batch"
        )
        result = run_experiment(
            POLICY_MATRIX["threshold"](), config, busy_rates()
        )
        assert result.stats.visits > 0

    def test_invariants_do_not_perturb_results(self):
        verified = run_experiment(
            POLICY_MATRIX["threshold"](),
            dataclasses.replace(
                MULTI, verify=VerifyConfig(invariants=True), engine="batch"
            ),
        )
        plain = run_experiment(
            POLICY_MATRIX["threshold"](),
            dataclasses.replace(MULTI, engine="batch"),
        )
        assert_identical(verified, plain)

    def test_trace_identity_and_engine_mode_header(self):
        obs = ObsConfig(trace=True)
        config = dataclasses.replace(MULTI, obs=obs)
        batch, scalar = run_engines(POLICY_MATRIX["threshold"], config)
        assert batch.trace[0]["event"] == "engine_mode"
        assert batch.trace[0]["engine"] == "batch"
        assert scalar.trace[0]["engine"] == "scalar"

        def body(trace):
            return [e for e in trace if e["event"] != "engine_mode"]

        assert body(batch.trace) == body(scalar.trace)

    def test_demand_bursts_identical_on_single_region(self):
        config = dataclasses.replace(SINGLE, obs=ObsConfig(trace=True))
        batch, scalar = run_engines(
            POLICY_MATRIX["threshold"], config, busy_rates()
        )
        bursts = [e for e in batch.trace if e["event"] == "demand_burst"]
        assert bursts
        assert bursts == [
            e for e in scalar.trace if e["event"] == "demand_burst"
        ]

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_demand_bursts_account_for_demand_writes(self, engine):
        config = dataclasses.replace(
            MULTI,
            region_size=MULTI.num_lines // 8,
            obs=ObsConfig(trace=True),
            engine=engine,
        )
        result = run_experiment(
            POLICY_MATRIX["threshold"](), config, busy_rates()
        )
        bursts = [e for e in result.trace if e["event"] == "demand_burst"]
        visits = {
            (e["t"], e["region"])
            for e in result.trace
            if e["event"] == "scrub_visit"
        }
        assert len({e["region"] for e in bursts}) == 8
        assert sum(e["writes"] for e in bursts) == result.stats.demand_writes
        assert all((e["t"], e["region"]) in visits for e in bursts)

    def test_timeseries_final_sample_identical(self):
        config = dataclasses.replace(
            MULTI, obs=ObsConfig(sample_every=MULTI.horizon / 4)
        )
        batch, scalar = run_engines(POLICY_MATRIX["basic"], config)
        assert len(batch.timeseries) == len(scalar.timeseries)
        assert batch.timeseries.final == scalar.timeseries.final


class TestParallelInterplay:
    def test_batch_specs_through_run_many(self):
        specs = [
            RunSpec(
                policy="threshold",
                config=dataclasses.replace(MULTI, engine=engine),
                policy_kwargs={"interval": 2 * units.HOUR, "strength": 3},
            )
            for engine in ("batch", "scalar")
        ]
        pooled = run_many(specs, jobs=2)
        serial = run_many(specs, jobs=1)
        for a, b in zip(pooled, serial):
            assert_identical(a, b)
        assert_identical(pooled[0], pooled[1])


class TestConfigAndDecision:
    def test_bogus_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SimulationConfig(engine="vectorized")

    def test_engine_mode_attribute(self):
        assert BatchPopulationEngine.engine_mode == "batch"

    def test_batch_decision_validation(self):
        ok = dict(
            decoded=np.ones((2, 4), dtype=bool),
            written_back=np.zeros((2, 4), dtype=bool),
            uncorrectable=np.zeros((2, 4), dtype=bool),
            missed=np.zeros((2, 4), dtype=bool),
            next_interval=np.full(2, 60.0),
        )
        VisitDecision(**ok)
        with pytest.raises(ValueError, match="next_interval"):
            VisitDecision(**{**ok, "next_interval": 60.0})
        with pytest.raises(ValueError, match="next_interval"):
            VisitDecision(
                **{**ok, "decoded": np.ones(4, dtype=bool),
                   "written_back": np.zeros(4, dtype=bool),
                   "uncorrectable": np.zeros(4, dtype=bool),
                   "missed": np.zeros(4, dtype=bool)}
            )
        with pytest.raises(ValueError, match="next_interval"):
            VisitDecision(**{**ok, "next_interval": np.full(3, 60.0)})
        with pytest.raises(ValueError, match="positive"):
            VisitDecision(**{**ok, "next_interval": np.array([60.0, 0.0])})
        bad = np.zeros((2, 4), dtype=bool)
        bad[0, 0] = True
        with pytest.raises(ValueError, match="both"):
            VisitDecision(
                **{**ok, "written_back": bad, "uncorrectable": bad}
            )


class TestRoundCharge:
    """A round's dense charge is one visit per row, in row order."""

    @pytest.mark.parametrize("name", ["basic", "threshold"])
    def test_round_charge_matches_per_row_charges(self, name):
        # 64 regions: enough per-visit additions that a fused product
        # would round differently from the iterated ones.
        config = dataclasses.replace(MULTI, region_size=16)
        whole = build_engine(POLICY_MATRIX[name](), config)
        per_row = build_engine(POLICY_MATRIX[name](), config)
        regions = np.arange(whole.num_regions)
        idx2 = whole._region_index
        error_counts = np.random.default_rng(5).integers(0, 6, size=idx2.shape)
        decision = whole.policy.visit_batch(
            np.full(regions.shape, 60.0),
            regions,
            error_counts,
            np.random.default_rng(9),
        )
        whole._charge_visit(idx2, error_counts, decision)
        for i in regions:
            per_row._charge_visit(idx2[i], error_counts[i], decision.row(i))
        a, b = whole.stats, per_row.stats
        assert a.summary() == b.summary()
        assert a.energy_breakdown() == b.energy_breakdown()
        assert a.error_histogram.tolist() == b.error_histogram.tolist()
        assert a.visits_with_errors == b.visits_with_errors
        assert a.detector_misses == b.detector_misses
