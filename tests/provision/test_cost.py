"""CostModel: ECC overhead scaling, carbon accounting, validation."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.provision import CostModel, J_PER_KWH, ProvisionError


class TestOverhead:
    def test_identity_without_ecc(self):
        assert CostModel.overhead_factor(0, 512) == 1.0

    def test_scales_with_check_bits(self):
        # 64 check bits on a 512-bit line: 12.5% storage overhead.
        assert CostModel.overhead_factor(64, 512) == pytest.approx(1.125)

    def test_dollars_per_usable_gib(self):
        model = CostModel(dollars_per_gib=4.0)
        assert model.dollars_per_usable_gib(64, 512) == pytest.approx(4.5)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            CostModel.overhead_factor(-1, 512)
        with pytest.raises(ValueError):
            CostModel.overhead_factor(0, 0)


class TestCarbon:
    def test_operational_converts_joules_to_kwh(self):
        model = CostModel(carbon_intensity_kg_per_kwh=0.5)
        assert model.operational_carbon_per_gib(J_PER_KWH) == pytest.approx(0.5)

    def test_embodied_amortizes_linearly(self):
        model = CostModel(embodied_kg_per_gib=0.1, amortization_years=5.0)
        # A one-year horizon carries one fifth of the embodied carbon.
        assert model.embodied_carbon_per_gib(units.YEAR) == pytest.approx(0.02)
        # A full amortization period carries all of it.
        assert model.embodied_carbon_per_gib(5 * units.YEAR) == pytest.approx(0.1)

    def test_embodied_scaled_by_ecc_overhead(self):
        model = CostModel(embodied_kg_per_gib=0.1, amortization_years=1.0)
        assert model.embodied_carbon_per_gib(
            units.YEAR, overhead_bits=64, data_bits=512
        ) == pytest.approx(0.1125)

    def test_total_is_operational_plus_embodied(self):
        model = CostModel()
        energy, horizon = 1e5, 2 * units.YEAR
        total = model.carbon_per_gib(energy, horizon, 40, 512)
        assert total == pytest.approx(
            model.operational_carbon_per_gib(energy)
            + model.embodied_carbon_per_gib(horizon, 40, 512)
        )


class TestValidationAndSerialization:
    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(dollars_per_gib=-1.0)
        with pytest.raises(ValueError):
            CostModel(carbon_intensity_kg_per_kwh=-0.1)
        with pytest.raises(ValueError):
            CostModel(embodied_kg_per_gib=-0.1)
        with pytest.raises(ValueError):
            CostModel(amortization_years=0.0)

    @given(
        dollars=st.floats(),
        intensity=st.floats(),
        embodied=st.floats(),
        years=st.floats(),
    )
    def test_any_float_is_valid_or_names_the_field(
        self, dollars, intensity, embodied, years
    ):
        values = {
            "dollars_per_gib": dollars,
            "carbon_intensity_kg_per_kwh": intensity,
            "embodied_kg_per_gib": embodied,
            "amortization_years": years,
        }
        invalid = {
            name
            for name, value in values.items()
            if not math.isfinite(value)
            or value < 0
            or (name == "amortization_years" and value == 0)
        }
        try:
            CostModel(**values)
        except ProvisionError as error:
            assert any(name in str(error) for name in invalid), (invalid, error)
            return
        assert not invalid

    def test_round_trip(self):
        model = CostModel(
            dollars_per_gib=2.5,
            carbon_intensity_kg_per_kwh=0.25,
            embodied_kg_per_gib=0.05,
            amortization_years=3.0,
        )
        assert CostModel.from_dict(json.loads(json.dumps(model.to_dict()))) == model

    def test_from_dict_defaults_missing_keys(self):
        assert CostModel.from_dict({}) == CostModel()
