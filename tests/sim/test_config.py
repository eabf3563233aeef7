"""Simulation configuration validation and derived values."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.core import basic_scrub
from repro.sim.config import SimulationConfig


class TestDefaults:
    def test_default_geometry(self):
        config = SimulationConfig()
        assert config.cells_per_line == 256
        assert config.num_lines % config.region_size == 0
        assert config.horizon == 30 * units.DAY

    def test_replace_for_sweeps(self):
        config = SimulationConfig()
        hot = dataclasses.replace(config, temperature_k=340.0)
        assert hot.temperature_k == 340.0
        assert hot.num_lines == config.num_lines


class TestValidation:
    def test_region_must_divide_lines(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_lines=1000, region_size=512)

    def test_positive_horizon(self):
        with pytest.raises(ValueError):
            SimulationConfig(horizon=0.0)

    def test_positive_temperature(self):
        with pytest.raises(ValueError):
            SimulationConfig(temperature_k=-5.0)

    def test_keep_must_exceed_strongest_ecc(self):
        with pytest.raises(ValueError):
            SimulationConfig(keep=8)

    def test_positive_lines(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_lines=0, region_size=1)


#: The run inputs that reach the event loop as floats, each built alone.
RUN_INPUTS = {
    "horizon": lambda value: SimulationConfig(horizon=value),
    "temperature_k": lambda value: SimulationConfig(temperature_k=value),
    "interval": basic_scrub,
}


class TestNonFiniteInputs:
    @given(field=st.sampled_from(sorted(RUN_INPUTS)), value=st.floats())
    def test_positive_finite_or_value_error_naming_the_field(self, field, value):
        build = RUN_INPUTS[field]
        if math.isfinite(value) and value > 0:
            build(value)
        else:
            with pytest.raises(ValueError, match=field):
                build(value)

