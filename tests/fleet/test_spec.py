"""Fleet specifications: sampling, apportionment, serialization."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.fields import FieldError
from repro.fleet import FleetSpec, Lot, LotParameter
from repro.sim.config import SimulationConfig

from ..strategies import JSON_VALUES


def base_config(**overrides) -> SimulationConfig:
    defaults = dict(
        num_lines=256,
        region_size=256,
        horizon=1 * units.DAY,
        seed=2012,
        endurance=None,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def make_spec(**overrides) -> FleetSpec:
    defaults = dict(
        name="test-fleet",
        devices=8,
        policy="threshold",
        policy_kwargs={"interval": 4 * units.HOUR, "strength": 3, "threshold": 1},
        base_config=base_config(),
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestLotParameter:
    def test_zero_spread_is_exact(self):
        p = LotParameter(mean=1.25)
        assert p.sample(np.random.default_rng(0)) == 1.25

    def test_spread_draws_and_clips(self):
        p = LotParameter(mean=0.0, spread=10.0, low=-1.0, high=1.0)
        rng = np.random.default_rng(1)
        values = [p.sample(rng) for _ in range(50)]
        assert all(-1.0 <= v <= 1.0 for v in values)
        assert min(values) == -1.0 and max(values) == 1.0  # clipping engaged

    def test_sample_always_consumes_one_variate(self):
        # Zero-spread draws must still advance the stream, so adding
        # spread to one parameter never shifts later parameters' draws.
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        LotParameter(mean=1.0).sample(a)
        LotParameter(mean=1.0, spread=0.5).sample(b)
        assert float(a.standard_normal()) == float(b.standard_normal())

    def test_validation(self):
        with pytest.raises(ValueError):
            LotParameter(mean=1.0, spread=-0.1)
        with pytest.raises(ValueError):
            LotParameter(mean=1.0, low=2.0, high=1.0)

    def test_round_trip(self):
        p = LotParameter(mean=1.1, spread=0.2, low=0.0)
        assert LotParameter.from_dict(json.loads(json.dumps(p.to_dict()))) == p


class TestLotValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Lot(name="")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Lot(name="x", weight=0.0)


class TestApportionment:
    def test_largest_remainder(self):
        spec = make_spec(
            devices=64,
            lots=(
                Lot(name="a", weight=3),
                Lot(name="b", weight=2),
                Lot(name="c", weight=1),
            ),
        )
        assert spec.lot_counts() == [32, 21, 11]
        assert sum(spec.lot_counts()) == 64

    def test_single_lot_takes_all(self):
        spec = make_spec(devices=5)
        assert spec.lot_counts() == [5]

    def test_block_layout(self):
        spec = make_spec(
            devices=10, lots=(Lot(name="a", weight=1), Lot(name="b", weight=1))
        )
        assert spec.lot_counts() == [5, 5]
        assert [spec.lot_of(i).name for i in range(10)] == ["a"] * 5 + ["b"] * 5
        with pytest.raises(IndexError):
            spec.lot_of(10)

    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=5
        ),
        devices=st.integers(min_value=1, max_value=60),
    )
    def test_lot_of_agrees_with_lot_indices(self, weights, devices):
        spec = make_spec(
            devices=devices,
            lots=tuple(
                Lot(name=f"lot{i}", weight=weight) for i, weight in enumerate(weights)
            ),
        )
        owners = {
            index: lot.name
            for lot in spec.lots
            for index in spec.lot_indices(lot.name)
        }
        assert sorted(owners) == list(range(devices))
        assert [spec.lot_of(i).name for i in range(devices)] == [
            owners[i] for i in range(devices)
        ]
        assert [len(r) for r in spec.lot_ranges()] == spec.lot_counts()

    def test_cached_lot_bounds_leave_identity_alone(self):
        spec = make_spec(
            devices=10, lots=(Lot(name="a", weight=1), Lot(name="b", weight=2))
        )
        fresh = make_spec(
            devices=10, lots=(Lot(name="a", weight=1), Lot(name="b", weight=2))
        )
        before = (pickle.dumps(spec), spec.content_hash())
        spec.lot_of(9)
        assert (pickle.dumps(spec), spec.content_hash()) == before
        assert pickle.dumps(fresh) == before[0]
        assert spec == fresh and pickle.loads(before[0]) == spec
        assert pickle.loads(pickle.dumps(spec)).lot_of(9).name == "b"

    def test_counts_always_sum_to_devices(self):
        for devices in (1, 7, 13, 64):
            spec = make_spec(
                devices=devices,
                lots=(
                    Lot(name="a", weight=1.7),
                    Lot(name="b", weight=0.9),
                    Lot(name="c", weight=0.4),
                ),
            )
            assert sum(spec.lot_counts()) == devices


class TestDeviceSampling:
    def test_deterministic(self):
        spec = make_spec(
            lots=(Lot(name="a", nu_mu_scale=LotParameter(1.0, 0.1, low=0.0)),)
        )
        assert spec.device_spec(3) == spec.device_spec(3)

    def test_device_params_independent_of_fleet_size(self):
        lots = (Lot(name="a", nu_mu_scale=LotParameter(1.0, 0.1, low=0.0)),)
        small = make_spec(devices=4, lots=lots)
        large = make_spec(devices=8, lots=lots)
        for index in range(4):
            assert small.device_spec(index) == large.device_spec(index)

    def test_degenerate_lot_is_bit_transparent(self):
        spec = make_spec(devices=1)
        device = spec.device_spec(0)
        # Scales are exactly 1.0, temperature inherited, seed + 0: the
        # device config must be the base config, field for field.
        assert device.config == spec.base_config
        assert device.nu_mu_scale == 1.0

    def test_seed_offsets_by_index(self):
        spec = make_spec()
        assert spec.device_spec(5).config.seed == spec.base_config.seed + 5

    def test_lot_overrides_apply(self):
        spec = make_spec(
            lots=(
                Lot(
                    name="hot",
                    nu_mu_scale=LotParameter(1.2),
                    temperature_k=LotParameter(320.0),
                    endurance_mean=LotParameter(1e6),
                ),
            )
        )
        device = spec.device_spec(0)
        assert device.temperature_k == 320.0
        assert device.config.temperature_k == 320.0
        assert device.config.endurance.mean_writes == 1e6
        base_nu = spec.base_config.line.cell.drift[1].nu_mean
        assert device.config.line.cell.drift[1].nu_mean == base_nu * 1.2


class TestValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_spec(devices=0)
        with pytest.raises(ValueError):
            make_spec(policy="nonesuch")
        with pytest.raises(ValueError):
            make_spec(lots=())
        with pytest.raises(ValueError):
            make_spec(lots=(Lot(name="a"), Lot(name="a")))
        with pytest.raises(ValueError):
            make_spec(capacity_gib_per_device=0.0)
        with pytest.raises(ValueError):
            make_spec(demand_write_rate=-1.0)
        with pytest.raises(ValueError):
            make_spec(name="")

    def test_rejects_thermal_profile(self):
        from repro.pcm.thermal import ThermalProfile

        profile = ThermalProfile.constant(330.0)
        with pytest.raises(ValueError, match="thermal profiles"):
            make_spec(base_config=base_config(thermal_profile=profile))


class TestSerialization:
    def test_round_trip(self):
        spec = make_spec(
            devices=12,
            lots=(
                Lot(name="a", weight=2, nu_mu_scale=LotParameter(1.05, 0.02, low=0.0)),
                Lot(name="b", temperature_k=LotParameter(310.0, 2.0, low=250.0)),
            ),
            demand_write_rate=5.0,
        )
        clone = FleetSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.content_hash() == spec.content_hash()

    def test_hash_sensitivity(self):
        spec = make_spec()
        assert spec.content_hash() != make_spec(devices=9).content_hash()
        assert (
            spec.content_hash()
            != make_spec(base_config=base_config(seed=13)).content_hash()
        )

    def test_horizon_days_alias(self):
        data = make_spec().to_dict()
        data["config"]["horizon_days"] = 2.0
        del data["config"]["horizon"]
        assert FleetSpec.from_dict(data).base_config.horizon == 2 * units.DAY

    def test_unknown_version_rejected(self):
        data = make_spec().to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            FleetSpec.from_dict(data)

    def test_bad_config_key_rejected(self):
        data = make_spec().to_dict()
        data["config"]["nonesuch"] = 1
        with pytest.raises(ValueError, match="config block"):
            FleetSpec.from_dict(data)

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(make_spec().to_dict()))
        assert FleetSpec.from_file(path).content_hash() == make_spec().content_hash()
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            FleetSpec.from_file(path)

    def test_obs_and_verify_ride_through(self):
        data = make_spec().to_dict()
        data["config"]["verify"] = {"invariants": True, "check_every": 16}
        spec = FleetSpec.from_dict(data)
        assert spec.base_config.verify.invariants
        assert spec.device_spec(0).config.verify.check_every == 16


class TestGeometry:
    def test_capacity_scale_and_device_hours(self):
        spec = make_spec(capacity_gib_per_device=16.0)
        assert spec.simulated_gib_per_device == pytest.approx(
            256 * spec.base_config.line.data_bytes / (1024**3)
        )
        assert spec.capacity_scale == pytest.approx(
            16.0 / spec.simulated_gib_per_device
        )
        assert spec.device_hours == pytest.approx(8 * 24.0)


class TestLotPolicies:
    def lot_spec(self, **lot_overrides) -> FleetSpec:
        return make_spec(
            lots=(
                Lot(name="plain"),
                Lot(name="tuned", **lot_overrides),
            )
        )

    def test_inherit_by_default(self):
        spec = self.lot_spec()
        assert spec.policy_for("plain") == (spec.policy, spec.policy_kwargs)
        assert spec.policy_for("tuned") == (spec.policy, spec.policy_kwargs)
        assert not spec.has_lot_policies

    def test_kwargs_merge_over_fleet_for_same_policy(self):
        spec = self.lot_spec(policy_kwargs={"interval": 900.0})
        policy, kwargs = spec.policy_for("tuned")
        assert policy == spec.policy
        assert kwargs["interval"] == 900.0
        assert kwargs["strength"] == spec.policy_kwargs["strength"]
        assert spec.has_lot_policies

    def test_different_policy_takes_lot_kwargs_verbatim(self):
        # Fleet kwargs are factory-specific (``basic`` takes only
        # ``interval``), so they must not leak across factories.
        spec = self.lot_spec(policy="basic", policy_kwargs={"interval": 600.0})
        assert spec.policy_for("tuned") == ("basic", {"interval": 600.0})
        assert spec.run_spec(spec.lot_indices("tuned")[0]).policy == "basic"

    def test_run_spec_uses_lot_policy(self):
        spec = self.lot_spec(policy_kwargs={"interval": 1234.0})
        tuned_index = spec.lot_indices("tuned")[0]
        plain_index = spec.lot_indices("plain")[0]
        assert spec.run_spec(tuned_index).policy_kwargs["interval"] == 1234.0
        assert spec.run_spec(plain_index).policy_kwargs["interval"] == (
            spec.policy_kwargs["interval"]
        )

    def test_lot_indices_and_named(self):
        spec = self.lot_spec()
        assert spec.lot_named("tuned").name == "tuned"
        indices = spec.lot_indices("tuned")
        assert all(spec.device_spec(i).lot == "tuned" for i in indices)
        with pytest.raises(KeyError):
            spec.lot_named("nonesuch")
        with pytest.raises(KeyError):
            spec.lot_indices("nonesuch")

    def test_unknown_lot_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            Lot(name="x", policy="nonesuch")

    def test_hash_backward_compatible_without_overrides(self):
        # A spec whose lots carry no overrides must serialize (and hash)
        # exactly as it did before per-lot provisioning existed: the new
        # keys are omitted, not emitted as null.
        spec = self.lot_spec()
        for lot in spec.to_dict()["lots"]:
            assert "policy" not in lot
            assert "policy_kwargs" not in lot
        pre_provisioning = json.loads(json.dumps(spec.to_dict()))
        assert FleetSpec.from_dict(pre_provisioning).content_hash() == (
            spec.content_hash()
        )

    def test_overrides_change_hash_and_round_trip(self):
        plain = self.lot_spec()
        tuned = self.lot_spec(
            policy="threshold",
            policy_kwargs={"interval": 900.0, "strength": 2, "threshold": 1},
        )
        assert tuned.content_hash() != plain.content_hash()
        round_tripped = FleetSpec.from_dict(
            json.loads(json.dumps(tuned.to_dict()))
        )
        assert round_tripped.content_hash() == tuned.content_hash()
        assert round_tripped.policy_for("tuned") == tuned.policy_for("tuned")

    def test_overrides_leave_device_sampling_alone(self):
        plain = self.lot_spec()
        tuned = self.lot_spec(policy="basic", policy_kwargs={"interval": 60.0})
        for index in range(plain.devices):
            assert plain.device_spec(index).config == (
                tuned.device_spec(index).config
            )


EXAMPLES = Path(__file__).resolve().parents[2] / "examples/specs"
SMOKE_SPEC = json.loads((EXAMPLES / "fleet_smoke.json").read_text())

#: Every field the format defines, addressed as (lot index or None, block,
#: key): top-level keys, config keys (the ``horizon_days`` alias
#: included), and each smoke lot's keys.
SPEC_FIELDS = (
    [(None, None, key) for key in make_spec().to_dict()]
    + [(None, "config", key) for key in make_spec().to_dict()["config"]]
    + [(None, "config", "horizon_days")]
    + [
        (index, "lots", key)
        for index in range(len(SMOKE_SPEC["lots"]))
        for key in (
            "name", "weight", "nu_mu_scale", "nu_sigma_scale", "temperature_k",
            "endurance_mean", "policy", "policy_kwargs",
        )
    ]
)


def smoke_with(index, block, key, value) -> dict:
    data = copy.deepcopy(SMOKE_SPEC)
    target = data if block is None else data[block]
    target = target if index is None else target[index]
    target[key] = value
    return data


#: Malformed specs, each with the field its error must name.
MALFORMED_CASES = [
    (lambda data: data.clear(), "name"),
    (lambda data: data.update(config=5), "config"),
    (lambda data: data.update(lots=[5]), "lots[0]"),
    (lambda data: data.update(lots=[]), "lots"),
    (lambda data: data.update(policy_kwargs=[1]), "policy_kwargs"),
    (lambda data: data["config"].update(obs=5), "config.obs"),
    (lambda data: data.update(devices=2.7), "devices"),
    (lambda data: data.update(devices=2**60), "devices"),
    (lambda data: data.update(capacity_gib_per_device=float("nan")),
     "capacity_gib_per_device"),
    (lambda data: data.update(demand_write_rate=float("inf")),
     "demand_write_rate"),
    (lambda data: data["lots"][0].update(weight=float("nan")),
     "lots[0].weight"),
    (lambda data: data["lots"][1]["temperature_k"].update(
        spread=float("inf")), "lots[1].temperature_k.spread"),
    (lambda data: data["config"].update(seed="x"), "config.seed"),
    (lambda data: data["config"].update(seed=-1), "config.seed"),
    (lambda data: data["config"].update(horizon_days=1e305),
     "config.horizon_days"),
    (lambda data: data["lots"][0].update(nonesuch=1), "nonesuch"),
    (lambda data: data["policy_kwargs"].update(strenght=4),
     "policy_kwargs: threshold_scrub()"),
    (lambda data: data["lots"][0].update(policy_kwargs={"strenght": 4}),
     "lots[0].policy_kwargs"),
]


class TestMalformedJson:
    """``from_dict`` either loads a usable spec or names the bad field."""

    @pytest.mark.parametrize(
        "mutation, field", MALFORMED_CASES, ids=[field for _, field in MALFORMED_CASES]
    )
    def test_reproduced_cases_name_the_field(self, mutation, field):
        data = copy.deepcopy(SMOKE_SPEC)
        mutation(data)
        with pytest.raises(ValueError) as error:
            FleetSpec.from_dict(data)
        assert field in str(error.value)

    def test_replaced_spec_with_unbuildable_kwargs_names_the_field(self):
        spec = FleetSpec.from_file(EXAMPLES / "fleet_screen.json")
        with pytest.raises(FieldError, match=r"^fleet spec field policy_kwargs: .*'strenght'"):
            dataclasses.replace(spec, policy_kwargs={**spec.policy_kwargs, "strenght": 4})
        lots = (dataclasses.replace(spec.lots[0], policy_kwargs={"strenght": 4}),
                *spec.lots[1:])
        with pytest.raises(FieldError, match=r"^fleet spec field lots\[0\]\.policy_kwargs: "):
            dataclasses.replace(spec, lots=lots)

    def test_integral_float_device_count_loads(self):
        data = copy.deepcopy(SMOKE_SPEC)
        data["devices"] = float(data["devices"])
        spec = FleetSpec.from_dict(data)
        assert spec.content_hash() == FleetSpec.from_dict(SMOKE_SPEC).content_hash()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(address=st.sampled_from(SPEC_FIELDS), value=JSON_VALUES)
    def test_any_field_value_loads_or_names_the_field(self, address, value):
        index, block, key = address
        data = json.loads(json.dumps(smoke_with(index, block, key, value)))
        try:
            spec = FleetSpec.from_dict(data)
        except ValueError as error:
            assert key in str(error)
            return
        spec.device_spec(0)
        spec.device_spec(spec.devices - 1)
        spec.content_hash()

