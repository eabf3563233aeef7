"""Renewal model: internal consistency and agreement with Monte Carlo."""

from __future__ import annotations

import math

import pytest

from repro import units
from repro.core import threshold_scrub
from repro.params import CellSpec
from repro.sim import SimulationConfig, run_experiment
from repro.sim.analytic import CrossingDistribution
from repro.sim.renewal import RenewalModel
from repro.sim.renewal_batch import RenewalTask
from repro.verify.equivalence import scalar_finite_horizon


@pytest.fixture(scope="module")
def model() -> RenewalModel:
    return RenewalModel(CrossingDistribution(CellSpec()), cells_per_line=256)


def finite_horizon(model, interval, t_ecc, threshold, horizon):
    """One ``model`` question through the scalar finite-horizon oracle."""
    task = RenewalTask(
        model.distribution, model.cells_per_line, interval, t_ecc, threshold
    )
    return scalar_finite_horizon([task], horizon)[0]


class TestBasics:
    def test_probabilities_are_probabilities(self, model):
        solution = model.solve(units.HOUR, t_ecc=4, threshold=3)
        assert 0 <= solution.ue_probability <= 1
        assert 0 <= solution.error_visit_fraction <= 1
        assert solution.expected_cycle_visits >= 1
        assert solution.ue_rate >= 0
        assert solution.write_rate > 0

    def test_higher_threshold_fewer_writes_more_ue(self, model):
        eager = model.solve(units.HOUR, t_ecc=4, threshold=1)
        lazy = model.solve(units.HOUR, t_ecc=4, threshold=3)
        assert lazy.write_rate < eager.write_rate
        assert lazy.ue_rate >= eager.ue_rate
        assert lazy.expected_cycle_visits > eager.expected_cycle_visits

    def test_stronger_code_fewer_ues(self, model):
        weak = model.solve(units.HOUR, t_ecc=2, threshold=1)
        strong = model.solve(units.HOUR, t_ecc=8, threshold=1)
        assert strong.ue_rate < weak.ue_rate

    def test_longer_interval_fewer_visits_per_second(self, model):
        short = model.solve(0.5 * units.HOUR, t_ecc=4, threshold=3)
        long = model.solve(2 * units.HOUR, t_ecc=4, threshold=3)
        # Cycle *visits* shrink with longer intervals (errors accumulate
        # faster relative to the visit cadence).
        assert long.expected_cycle_visits < short.expected_cycle_visits

    def test_validation(self, model):
        with pytest.raises(ValueError):
            model.solve(0.0, 4, 1)
        with pytest.raises(ValueError):
            model.solve(1.0, 4, 5)
        with pytest.raises(ValueError):
            RenewalModel(CrossingDistribution(CellSpec()), 0)
        for interval in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"interval .* got {interval}"):
                model.solve(interval, 4, 3)


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_write_rate_matches_engine(self, model, threshold):
        interval = units.HOUR
        config = SimulationConfig(
            num_lines=4096, region_size=512, horizon=14 * units.DAY,
            endurance=None,
        )
        result = run_experiment(
            threshold_scrub(interval, strength=4, threshold=threshold), config
        )
        mc_write_rate = result.scrub_writes / (
            config.num_lines * config.horizon
        )
        solution = model.solve(interval, t_ecc=4, threshold=threshold)
        assert mc_write_rate == pytest.approx(solution.write_rate, rel=0.1)

    def test_ue_rate_matches_engine(self, model):
        # Pick a configuration with measurable UE counts.
        interval = units.HOUR
        config = SimulationConfig(
            num_lines=8192, region_size=1024, horizon=14 * units.DAY,
            endurance=None,
        )
        result = run_experiment(
            threshold_scrub(interval, strength=4, threshold=3), config
        )
        mc_ue_rate = result.uncorrectable / (config.num_lines * config.horizon)
        solution = model.solve(interval, t_ecc=4, threshold=3)
        assert solution.ue_rate > 0
        # Poisson noise on a few hundred events: generous 30% tolerance.
        assert mc_ue_rate == pytest.approx(solution.ue_rate, rel=0.3)

    def test_error_visit_fraction_matches_decode_ratio(self, model):
        interval = units.HOUR
        config = SimulationConfig(
            num_lines=4096, region_size=512, horizon=14 * units.DAY,
            endurance=None,
        )
        result = run_experiment(
            threshold_scrub(interval, strength=4, threshold=3), config
        )
        mc_fraction = result.stats.scrub_decodes / result.stats.visits
        solution = model.solve(interval, t_ecc=4, threshold=3)
        assert mc_fraction == pytest.approx(
            solution.error_visit_fraction, rel=0.1
        )


class TestFiniteHorizon:
    def test_visit_count_includes_boundary_visit(self, model):
        T = units.HOUR
        assert finite_horizon(model, T, 4, 3, 3 * T).visits == 3
        assert finite_horizon(model, T, 4, 3, 2.5 * T).visits == 2
        # Sub-interval horizon: no visit ever happens.
        short = finite_horizon(model, T, 4, 3, 0.5 * T)
        assert short.visits == 0
        assert short.expected_ue == 0.0
        assert short.expected_writes == 0.0
        assert short.no_ue_probability == 1.0

    def test_validation(self, model):
        with pytest.raises(ValueError):
            finite_horizon(model, 0.0, 4, 3, units.DAY)
        with pytest.raises(ValueError):
            finite_horizon(model, units.HOUR, 4, 3, 0.0)
        with pytest.raises(ValueError):
            finite_horizon(model, units.HOUR, 4, 5, units.DAY)
        with pytest.raises(ValueError, match="horizon .* got nan"):
            finite_horizon(model, units.HOUR, 4, 3, math.nan)

    def test_long_horizon_recovers_steady_state_rates(self, model):
        T = units.HOUR
        steady = model.solve(T, t_ecc=4, threshold=3)
        fh = finite_horizon(model, T, 4, 3, 120 * units.DAY)
        assert fh.ue_rate == pytest.approx(steady.ue_rate, rel=0.02)
        assert fh.write_rate == pytest.approx(steady.write_rate, rel=0.02)

    def test_transient_shape(self, model):
        # A fresh line needs a visit or two before it can accumulate more
        # than ``threshold`` errors, so the very first visits see *fewer*
        # writes and UEs than rate x horizon; once cycles start resolving
        # the fast-early crossing CDF pushes the UE count *above* the
        # steady-state approximation.  Both deviations are what
        # ``finite_horizon`` corrects.
        T = 2 * units.HOUR
        steady = model.solve(T, t_ecc=3, threshold=2)
        for visits in (1, 2, 3):
            fh = finite_horizon(model, T, 3, 2, visits * T)
            assert fh.expected_writes < steady.write_rate * visits * T
        for visits in (3, 6, 12):
            fh = finite_horizon(model, T, 3, 2, visits * T)
            assert fh.expected_ue > steady.ue_rate * visits * T


class TestFiniteHorizonAgainstMonteCarlo:
    """Short-horizon regression: the corrected expectation is what the
    engine produces, where the steady-state ``rate x horizon``
    approximation is measurably off."""

    def test_short_horizon_ue_counts(self, model):
        interval = 2 * units.HOUR
        horizon = units.DAY
        config = SimulationConfig(
            num_lines=8192, region_size=8192, horizon=horizon,
            endurance=None,
        )
        result = run_experiment(
            threshold_scrub(
                interval, strength=3, threshold=2, with_detector=False
            ),
            config,
        )
        fh = finite_horizon(model, interval, 3, 2, horizon)
        expected = fh.expected_ue * config.num_lines
        # Pure-Poisson band around the exact expectation (the same width
        # verify.equivalence enforces).
        band = 4.0 / expected**0.5
        assert abs(result.uncorrectable - expected) / expected < band

    def test_short_horizon_write_counts_beat_steady_state(self, model):
        interval = 4 * units.HOUR
        horizon = units.DAY
        config = SimulationConfig(
            num_lines=8192, region_size=8192, horizon=horizon,
            endurance=None,
        )
        result = run_experiment(
            threshold_scrub(
                interval, strength=4, threshold=3, with_detector=False
            ),
            config,
        )
        fh = finite_horizon(model, interval, 4, 3, horizon)
        expected = fh.expected_writes * config.num_lines
        band = 4.0 / expected**0.5
        assert abs(result.scrub_writes - expected) / expected < band
        # The uncorrected steady-state estimate misses by more than the
        # band at this horizon - the correction is load-bearing.
        steady = model.solve(interval, t_ecc=4, threshold=3)
        approx = steady.write_rate * horizon * config.num_lines
        assert abs(result.scrub_writes - approx) / approx > band
