"""Analytic models: crossing distribution, binomial tails, UE math."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import units
from repro.params import CellSpec
from repro.pcm.drift import DriftModel
from repro.sim.analytic import (
    AnalyticModel,
    CrossingDistribution,
    _binomial_pmf,
    _binomial_tail,
)


@pytest.fixture(scope="module")
def distribution() -> CrossingDistribution:
    return CrossingDistribution(CellSpec())


@pytest.fixture(scope="module")
def model(distribution) -> AnalyticModel:
    return AnalyticModel(distribution, cells_per_line=256)


class TestCrossingDistribution:
    def test_cdf_monotone(self, distribution):
        times = np.logspace(0, 9, 40)
        values = distribution.cdf(times)
        assert (np.diff(values) >= 0).all()

    def test_cdf_is_level_mixture(self, distribution):
        drift = DriftModel(CellSpec())
        t = units.DAY
        expected = np.mean([drift.error_probability(l, t) for l in range(4)])
        assert distribution.cdf(t) == pytest.approx(expected, rel=0.02)

    def test_quantile_inverts_cdf(self, distribution):
        for u in (1e-6, 1e-4, 1e-2, 0.05):
            if u >= distribution.max_probability:
                continue
            t = distribution.quantile(np.array([u]))[0]
            assert distribution.cdf(t) == pytest.approx(u, rel=0.05)

    def test_quantile_above_mass_is_inf(self, distribution):
        u = np.array([distribution.max_probability + 1e-6, 0.999])
        assert np.isinf(distribution.quantile(u)).all()

    def test_level_cdf_top_level_zero(self, distribution):
        assert distribution.level_cdf(3, units.YEAR) == 0.0
        with pytest.raises(ValueError):
            distribution.level_cdf(7, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CrossingDistribution(t_min=0.0)
        with pytest.raises(ValueError):
            CrossingDistribution(points=2)
        with pytest.raises(ValueError, match="t_min=nan"):
            CrossingDistribution(t_min=math.nan)
        with pytest.raises(ValueError, match="t_max=inf"):
            CrossingDistribution(t_max=math.inf)


class TestOrderStatistics:
    def test_sorted_rows(self, distribution, rng):
        sample = distribution.sample_smallest(200, 256, 16, rng)
        assert sample.shape == (200, 16)
        finite = np.where(np.isfinite(sample), sample, np.inf)
        assert (np.diff(finite, axis=1) >= 0).all()

    def test_first_order_statistic_matches_theory(self, distribution, rng):
        # P(min of C crossings <= T) = 1 - (1 - F(T))^C.
        sample = distribution.sample_smallest(50_000, 256, 1, rng)
        T = units.DAY
        empirical = (sample[:, 0] <= T).mean()
        F = float(distribution.cdf(T))
        theory = 1 - (1 - F) ** 256
        assert empirical == pytest.approx(theory, abs=0.01)

    def test_counts_match_binomial_mean(self, distribution, rng):
        sample = distribution.sample_smallest(20_000, 256, 24, rng)
        T = units.DAY
        counts = (sample <= T).sum(axis=1)
        expected = 256 * float(distribution.cdf(T))
        assert counts.mean() == pytest.approx(expected, rel=0.05)

    def test_validation(self, distribution, rng):
        with pytest.raises(ValueError):
            distribution.sample_smallest(10, 8, 9, rng)
        with pytest.raises(ValueError):
            distribution.sample_smallest(10, 8, 0, rng)


class TestBinomialHelpers:
    def test_pmf_sums_to_one(self):
        pmf = _binomial_pmf(20, 0.3, 20)
        assert pmf.sum() == pytest.approx(1.0)

    def test_pmf_degenerate(self):
        assert _binomial_pmf(10, 0.0, 5)[0] == 1.0
        assert _binomial_pmf(10, 1.0, 10)[-1] == 1.0

    def test_tail_matches_complement(self):
        n, p, t = 50, 0.1, 3
        pmf = _binomial_pmf(n, p, n)
        assert _binomial_tail(n, p, t) == pytest.approx(pmf[t + 1 :].sum(), rel=1e-9)

    def test_tail_tiny_p_stable(self):
        tail = _binomial_tail(256, 1e-9, 1)
        assert 0 < tail < 1e-12

    def test_tail_t_at_n(self):
        assert _binomial_tail(10, 0.5, 10) == 0.0


class TestAnalyticModel:
    def test_line_failure_monotone_in_interval(self, model):
        intervals = [units.MINUTE, units.HOUR, units.DAY, units.WEEK]
        probs = [model.line_failure_probability(T, 4) for T in intervals]
        assert probs == sorted(probs)

    def test_stronger_ecc_always_safer(self, model):
        T = units.HOUR
        probs = [model.line_failure_probability(T, t) for t in (1, 2, 4, 8)]
        assert probs == sorted(probs, reverse=True)
        # In the low-error regime each extra corrected error buys orders
        # of magnitude - the paper's strong-ECC argument.
        assert probs[0] > 1e3 * probs[-1]

    def test_ue_rate_scaling(self, model):
        rate = model.ue_rate_per_line(units.HOUR, 1)
        total = model.ue_per_population(units.HOUR, 1, 1000, units.DAY)
        assert total == pytest.approx(rate * 1000 * units.DAY)

    def test_required_interval_meets_target(self, model):
        target = 1e-9
        interval = model.required_interval(4, target)
        assert model.line_failure_probability(interval, 4) <= target
        # And it is not absurdly conservative (the boundary is nearby).
        assert model.line_failure_probability(interval * 2.5, 4) > target

    def test_required_interval_strong_ecc_longer(self, model):
        target = 1e-9
        weak = model.required_interval(1, target)
        strong = model.required_interval(4, target)
        assert strong > 5 * weak

    def test_expected_errors(self, model):
        errors = model.expected_errors_per_line(units.DAY)
        assert errors == pytest.approx(
            256 * model.cell_error_probability(units.DAY)
        )

    def test_validation(self, model):
        with pytest.raises(ValueError):
            model.line_failure_probability(1.0, -1)
        with pytest.raises(ValueError):
            model.ue_rate_per_line(0.0, 1)
        with pytest.raises(ValueError):
            AnalyticModel(model.distribution, 0)
