"""Drift-compensated read references."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.params import CellSpec
from repro.pcm.drift import DriftModel
from repro.pcm.reference import CompensatedSensing
from repro.sim.analytic import CrossingDistribution


@pytest.fixture(scope="module")
def compensated() -> CompensatedSensing:
    return CompensatedSensing(CellSpec())


@pytest.fixture(scope="module")
def plain() -> DriftModel:
    return DriftModel(CellSpec())


class TestBoundaryShift:
    def test_zero_before_t0(self, compensated):
        assert compensated.boundary_shift(2, 0.5) == 0.0

    def test_tracks_mean_drift(self, compensated):
        spec = compensated.spec
        age = units.DAY
        expected = spec.drift[2].nu_mean * np.log10(age)
        assert compensated.boundary_shift(2, age) == pytest.approx(expected)

    def test_out_of_range(self, compensated):
        with pytest.raises(ValueError):
            compensated.boundary_shift(3, 1.0)


class TestErrorProbability:
    @pytest.mark.parametrize("age", [units.HOUR, units.DAY, units.WEEK])
    def test_orders_of_magnitude_better_than_plain(self, compensated, plain, age):
        worst_plain = max(plain.error_probability(l, age) for l in range(4))
        worst_comp = max(compensated.error_probability(l, age) for l in range(4))
        assert worst_comp < worst_plain / 20

    def test_still_nonzero_at_long_ages(self, compensated):
        # Compensation delays errors; the spread wins eventually.
        assert compensated.error_probability(2, units.YEAR) > 0

    def test_downward_misreads_exist(self, compensated):
        # Level 3 never errs upward (top), but the moving boundary beneath
        # it (tracking L2's fast mean) overtakes slow L3 cells.
        probability = compensated.error_probability(3, 10 * units.YEAR)
        assert probability > 0

    def test_level0_upward_only_and_tiny(self, compensated):
        assert compensated.error_probability(0, units.YEAR) < 1e-9

    def test_validation(self, compensated):
        with pytest.raises(ValueError):
            compensated.error_probability(5, 1.0)
        with pytest.raises(ValueError):
            compensated.error_probability(1, -1.0)
        with pytest.raises(ValueError, match="elapsed time must be >= 0, got nan"):
            compensated.error_probability(1, np.array([[10.0], [np.nan]]))


class TestMonteCarlo:
    @pytest.mark.parametrize("level,age", [(2, units.WEEK), (3, 10 * units.YEAR)])
    def test_sampling_matches_analytic(self, compensated, level, age):
        rng = np.random.default_rng(9)
        symbols = np.full(300_000, level, dtype=np.int8)
        crossing = compensated.sample_crossing_times(symbols, rng)
        mc = (crossing <= age).mean()
        analytic = compensated.error_probability(level, age)
        sigma = np.sqrt(max(analytic, 1e-12) / symbols.size)
        assert abs(mc - analytic) < 5 * sigma + 3e-5


class TestEngineComposition:
    def test_crossing_distribution_accepts_model(self, compensated):
        distribution = CrossingDistribution(model=compensated)
        plain_distribution = CrossingDistribution(CellSpec())
        age = units.DAY
        assert float(distribution.cdf(age)) < float(plain_distribution.cdf(age)) / 20

    def test_population_runs_on_compensated_distribution(self, compensated):
        from repro.sim.population import LinePopulation

        distribution = CrossingDistribution(model=compensated)
        population = LinePopulation(
            num_lines=512,
            cells_per_line=256,
            distribution=distribution,
            rng=np.random.default_rng(4),
        )
        idx = np.arange(512)
        compensated_errors = population.error_counts(idx, units.WEEK).sum()

        plain_population = LinePopulation(
            num_lines=512,
            cells_per_line=256,
            distribution=CrossingDistribution(CellSpec()),
            rng=np.random.default_rng(4),
        )
        plain_errors = plain_population.error_counts(idx, units.WEEK).sum()
        assert compensated_errors < plain_errors / 10
