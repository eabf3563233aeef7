"""Age arrays through ``error_probability``: bitwise the per-age integral.

Both analytic models answer a whole array of ages in one call, which is
how :class:`CrossingDistribution` tabulates.  Every tabulation
``content_hash`` (and so every disk-cache file and report digest) depends
on that array path reproducing the one-age integral bit for bit.  The
references below are that one-age integral, kept here as the oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.params import CellSpec, replace
from repro.pcm.drift import DriftModel, _truncated_normal_pdf, _truncnorm_upper_tail
from repro.pcm.reference import CompensatedSensing
from repro.sim.analytic import TABULATION_POINTS, CrossingDistribution


def _plain_reference(model: DriftModel, symbol: int, elapsed: float) -> float:
    """``DriftModel.error_probability`` for one valid age, loop form."""
    if symbol == model.spec.num_levels - 1:
        return 0.0
    effective = elapsed * model.acceleration
    if effective <= model.spec.t0:
        return 0.0
    shift = math.log10(effective / model.spec.t0)
    band = model.spec.levels[symbol]
    drift = model.spec.drift[symbol]
    boundary = band.read_high
    grid = np.linspace(band.program_low, band.program_high, 257)
    r0_pdf = _truncated_normal_pdf(
        grid, band.program_center, model.spec.program_sigma,
        band.program_low, band.program_high,
    )
    threshold = (boundary - grid) / shift
    if drift.nu_sigma == 0:
        err_given_r0 = (threshold < drift.nu_mean).astype(float)
    else:
        err_given_r0 = _truncnorm_upper_tail(threshold, drift.nu_mean, drift.nu_sigma)
    integrand = r0_pdf * err_given_r0
    return float(np.trapezoid(integrand, grid))


def _compensated_reference(
    model: CompensatedSensing, symbol: int, elapsed: float
) -> float:
    """``CompensatedSensing.error_probability`` for one valid age, loop form."""
    effective = elapsed * model.acceleration
    if effective <= model.spec.t0:
        return 0.0
    shift = math.log10(effective / model.spec.t0)
    band = model.spec.levels[symbol]
    drift = model.spec.drift[symbol]
    grid = np.linspace(band.program_low, band.program_high, 257)
    r0_pdf = _truncated_normal_pdf(
        grid, band.program_center, model.spec.program_sigma,
        band.program_low, band.program_high,
    )
    total = np.zeros_like(grid)
    if symbol < model.spec.num_levels - 1:
        tracked = model.spec.drift[symbol].nu_mean
        threshold = tracked + (band.read_high - grid) / shift
        if drift.nu_sigma == 0:
            total += (drift.nu_mean > threshold).astype(float)
        else:
            total += _truncnorm_upper_tail(threshold, drift.nu_mean, drift.nu_sigma)
    if symbol > 0:
        tracked_below = model.spec.drift[symbol - 1].nu_mean
        ceiling = tracked_below - (grid - band.read_low) / shift
        if drift.nu_sigma == 0:
            total += (drift.nu_mean < ceiling).astype(float)
        else:
            total += 1.0 - _truncnorm_upper_tail(ceiling, drift.nu_mean, drift.nu_sigma)
    integrand = r0_pdf * np.clip(total, 0.0, 1.0)
    return float(np.trapezoid(integrand, grid))


MODELS = {
    "plain": (DriftModel, _plain_reference),
    "compensated": (CompensatedSensing, _compensated_reference),
}

#: The default spec with level 1's drift spread removed (the indicator
#: branch of both integrands).
ZERO_SIGMA_SPEC = replace(
    CellSpec(),
    drift=tuple(
        replace(d, nu_sigma=0.0) if level == 1 else d
        for level, d in enumerate(CellSpec().drift)
    ),
)

#: The default tabulation grid.
GRID = np.logspace(math.log10(1e-2), math.log10(1e12), TABULATION_POINTS)


def _ages(model) -> np.ndarray:
    """0, the t0 edge and one age below it, every grid age, and inf."""
    edge = model.spec.t0 / model.acceleration
    return np.concatenate([[0.0, np.nextafter(edge, 0.0), edge], GRID, [math.inf]])


@pytest.mark.parametrize("temperature", [250.0, 300.0, 330.0, 400.0])
@pytest.mark.parametrize("spec", [CellSpec(), ZERO_SIGMA_SPEC], ids=["default", "zero-sigma"])
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_array_matches_per_age_integral_bitwise(kind, spec, temperature):
    cls, reference = MODELS[kind]
    model = cls(spec, temperature_k=temperature)
    ages = _ages(model)
    for level in range(spec.num_levels):
        expected = np.array([reference(model, level, age) for age in ages])
        got = model.error_probability(level, ages)
        assert got.shape == ages.shape
        mismatched = ages[got != expected]
        assert mismatched.size == 0, (
            f"level {level}: {mismatched.size} ages differ, first {mismatched[:3]}"
        )


@pytest.mark.parametrize("kind", sorted(MODELS))
class TestShapes:
    def test_scalar_in_float_out(self, kind):
        cls, reference = MODELS[kind]
        model = cls(CellSpec())
        for age in (3600.0, 3600, np.float64(3600.0), 0.5, 0.0):
            for level in range(4):
                got = model.error_probability(level, age)
                assert type(got) is float
                assert got == reference(model, level, float(age))

    def test_two_dimensional_ages_keep_their_shape(self, kind):
        model = MODELS[kind][0](CellSpec())
        ages = np.array([[0.0, 60.0, 3600.0], [86400.0, 1e7, math.inf]])
        for level in range(4):
            got = model.error_probability(level, ages)
            assert got.shape == (2, 3)
            flat = model.error_probability(level, ages.ravel())
            assert np.array_equal(got.ravel(), flat)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_tabulation_equals_per_age_tabulation(kind):
    cls, reference = MODELS[kind]
    model = cls(CellSpec())
    distribution = CrossingDistribution(model=model)
    per_level = np.array(
        [[reference(model, level, t) for t in distribution.grid] for level in range(4)]
    )
    assert np.array_equal(distribution.grid, GRID)
    assert np.array_equal(distribution.per_level_cdf, per_level)
    from_reference = CrossingDistribution(
        model=model, _tabulation=(distribution.grid, per_level)
    )
    assert distribution.content_hash() == from_reference.content_hash()
