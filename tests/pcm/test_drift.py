"""Drift model: power law, crossing times, temperature, analytic validation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.params import CellSpec, DriftParams, replace
from repro.pcm.drift import DriftModel, arrhenius_acceleration


@pytest.fixture
def model(cell_spec) -> DriftModel:
    return DriftModel(cell_spec)


class TestArrhenius:
    def test_reference_temperature_is_unity(self):
        assert arrhenius_acceleration(300.0, 300.0, 0.2) == pytest.approx(1.0)

    def test_hotter_is_faster(self):
        assert arrhenius_acceleration(330.0, 300.0, 0.2) > 1.0
        assert arrhenius_acceleration(270.0, 300.0, 0.2) < 1.0

    def test_monotone_in_temperature(self):
        temps = [280, 300, 320, 340, 360]
        accs = [arrhenius_acceleration(t, 300.0, 0.2) for t in temps]
        assert accs == sorted(accs)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            arrhenius_acceleration(-1, 300, 0.2)
        with pytest.raises(ValueError, match="got nan"):
            DriftModel(CellSpec(), temperature_k=math.nan)
        with pytest.raises(ValueError, match="got inf"):
            arrhenius_acceleration(math.inf, 300, 0.2)


class TestPowerLaw:
    def test_no_drift_before_t0(self, model):
        r0 = np.array([5.1])
        nu = np.array([0.06])
        assert model.resistance_at(r0, nu, 0.5)[0] == pytest.approx(5.1)

    def test_one_decade_per_inverse_nu(self, model):
        # r(t) - r0 = nu * log10(t); at t = 10^(1/nu) the shift is 1 decade.
        nu = 0.05
        t = 10 ** (1 / nu)
        shifted = model.resistance_at(np.array([5.0]), np.array([nu]), t)[0]
        assert shifted == pytest.approx(6.0, abs=1e-9)

    def test_monotone_in_time(self, model):
        r0 = np.array([5.1])
        nu = np.array([0.06])
        values = [model.resistance_at(r0, nu, t)[0] for t in (1, 10, 1e3, 1e6)]
        assert values == sorted(values)

    def test_negative_elapsed_rejected(self, model):
        with pytest.raises(ValueError):
            model.resistance_at(np.array([5.0]), np.array([0.1]), -1.0)


class TestCrossingTimes:
    def test_top_level_never_crosses(self, model, rng):
        times = model.sample_crossing_times(np.full(1000, 3, dtype=np.int8), rng)
        assert np.isinf(times).all()

    def test_zero_nu_never_crosses(self, cell_spec):
        frozen = replace(
            cell_spec,
            drift=tuple(DriftParams(0.0, 0.0) for __ in cell_spec.drift),
        )
        model = DriftModel(frozen)
        rng = np.random.default_rng(0)
        times = model.sample_crossing_times(np.full(100, 2, dtype=np.int8), rng)
        assert np.isinf(times).all()

    def test_crossing_formula(self, model):
        # Hand-check: t_cross = t0 * 10^((B - r0)/nu).
        spec = model.spec
        boundary = spec.levels[2].read_high
        r0, nu = 5.1, 0.05
        expected = spec.t0 * 10 ** ((boundary - r0) / nu)
        got = model.crossing_time(
            np.array([2]), np.array([r0]), np.array([nu])
        )[0]
        assert got == pytest.approx(expected)

    def test_crossing_matches_resistance_evolution(self, model, rng):
        # At the crossing time the resistance equals the boundary.
        symbols = np.full(50, 2, dtype=np.int8)
        r0 = model.sample_programmed_resistance(symbols, rng)
        nu = model.sample_drift_exponent(symbols, rng)
        t_cross = model.crossing_time(symbols, r0, nu)
        finite = np.isfinite(t_cross) & (t_cross > model.spec.t0)
        boundary = model.spec.levels[2].read_high
        at_cross = np.array(
            [
                model.resistance_at(r0[i : i + 1], nu[i : i + 1], t_cross[i])[0]
                for i in np.flatnonzero(finite)
            ]
        )
        assert np.allclose(at_cross, boundary, atol=1e-9)

    def test_hot_crossing_is_sooner(self, cell_spec, rng):
        cold = DriftModel(cell_spec, temperature_k=300.0)
        hot = DriftModel(cell_spec, temperature_k=350.0)
        symbols = np.array([2])
        r0 = np.array([5.1])
        nu = np.array([0.06])
        assert hot.crossing_time(symbols, r0, nu)[0] < cold.crossing_time(
            symbols, r0, nu
        )[0]


class TestSampling:
    def test_programmed_resistance_in_band(self, model, rng):
        for level, band in enumerate(model.spec.levels):
            symbols = np.full(2000, level, dtype=np.int8)
            r0 = model.sample_programmed_resistance(symbols, rng)
            assert (r0 >= band.program_low).all()
            assert (r0 <= band.program_high).all()

    def test_drift_exponents_nonnegative(self, model, rng):
        symbols = np.repeat(np.arange(4, dtype=np.int8), 500)
        nu = model.sample_drift_exponent(symbols, rng)
        assert (nu >= 0).all()

    def test_drift_exponent_means_match_spec(self, model, rng):
        for level, params in enumerate(model.spec.drift):
            symbols = np.full(20000, level, dtype=np.int8)
            nu = model.sample_drift_exponent(symbols, rng)
            # Truncation at 0 is >2 sigma away, so means match to ~1%.
            assert nu.mean() == pytest.approx(params.nu_mean, rel=0.05)


class TestAnalyticErrorProbability:
    def test_zero_at_t0(self, model):
        for level in range(4):
            assert model.error_probability(level, 0.5) == 0.0

    def test_top_level_always_zero(self, model):
        assert model.error_probability(3, units.YEAR) == 0.0

    def test_monotone_in_time(self, model):
        times = [60, 3600, 86400, units.YEAR]
        probs = [model.error_probability(2, t) for t in times]
        assert probs == sorted(probs)
        assert probs[-1] > 0.1

    def test_l2_dominates(self, model):
        # L2 has the worst drift-to-guard-band ratio in the default spec.
        t = units.DAY
        p = [model.error_probability(level, t) for level in range(4)]
        assert p[2] == max(p)

    @pytest.mark.parametrize("elapsed", [units.HOUR, units.DAY])
    def test_matches_monte_carlo(self, model, elapsed):
        rng = np.random.default_rng(7)
        n = 400_000
        times = model.sample_crossing_times(np.full(n, 2, dtype=np.int8), rng)
        mc = (times <= elapsed).mean()
        analytic = model.error_probability(2, elapsed)
        # MC stderr ~ sqrt(p/n); allow 4 sigma plus small absolute slack.
        sigma = math.sqrt(max(analytic, 1e-12) / n)
        assert abs(mc - analytic) < 4 * sigma + 2e-5

    def test_hotter_is_worse(self, cell_spec):
        cold = DriftModel(cell_spec, temperature_k=300.0)
        hot = DriftModel(cell_spec, temperature_k=340.0)
        assert hot.error_probability(2, units.HOUR) > cold.error_probability(
            2, units.HOUR
        )

    def test_invalid_arguments(self, model):
        with pytest.raises(ValueError):
            model.error_probability(9, 10.0)
        with pytest.raises(ValueError):
            model.error_probability(1, -1.0)
        with pytest.raises(ValueError, match="elapsed time must be >= 0, got nan"):
            model.error_probability(1, math.nan)
        with pytest.raises(ValueError, match="elapsed time must be >= 0, got nan"):
            model.error_probability(3, np.array([10.0, math.nan]))


@given(
    nu_mean=st.floats(0.01, 0.2),
    margin=st.floats(0.1, 1.0),
)
@settings(max_examples=30, deadline=None)
def test_property_larger_nu_crosses_sooner(nu_mean, margin):
    """Deterministic crossing times shrink as nu grows, for any margin."""
    spec = CellSpec()
    model = DriftModel(spec)
    boundary = spec.levels[2].read_high
    r0 = np.array([boundary - margin])
    slow = model.crossing_time(np.array([2]), r0, np.array([nu_mean]))[0]
    fast = model.crossing_time(np.array([2]), r0, np.array([nu_mean * 2]))[0]
    assert fast <= slow
