"""Fleet aggregation: FIT math, invariant cross-checks, survival curves."""

from __future__ import annotations

import json
import math

import pytest

from repro import units
from repro.analysis.stats import binomial_interval
from repro.fleet import FleetInvariantError, FleetSpec, Lot, aggregate
from repro.fleet.report import FIT_HOURS, DeviceRecord
from repro.sim.config import SimulationConfig


def make_spec(devices=4, lots=None) -> FleetSpec:
    return FleetSpec(
        name="agg-test",
        devices=devices,
        policy="threshold",
        policy_kwargs={"interval": 4 * units.HOUR, "strength": 3, "threshold": 1},
        base_config=SimulationConfig(
            num_lines=256, region_size=256, horizon=units.DAY, seed=1, endurance=None
        ),
        lots=lots if lots is not None else (Lot(name="default"),),
        capacity_gib_per_device=16.0,
    )


def record(index, lot="default", ue=0, energy=0.5, writes=10) -> DeviceRecord:
    return DeviceRecord(
        index=index,
        lot=lot,
        seed=1 + index,
        temperature_k=300.0,
        nu_mu_scale=1.0,
        nu_sigma_scale=1.0,
        endurance_mean=None,
        summary={
            "uncorrectable": float(ue),
            "scrub_writes": float(writes),
            "scrub_energy_j": energy,
            "visits": 100.0,
        },
    )


class TestAggregate:
    def test_fit_and_totals(self):
        spec = make_spec(devices=4)
        records = [record(i, ue=i) for i in range(4)]
        report = aggregate(spec, records)
        assert report.uncorrectable == 6
        assert report.counts["scrub_writes"] == 40
        assert report.scrub_energy_j == pytest.approx(2.0)
        assert report.device_hours == pytest.approx(4 * 24.0)
        assert report.fit == pytest.approx(6 / (4 * 24.0) * FIT_HOURS)
        assert report.fit_low < report.fit < report.fit_high
        # Linear capacity scale-up.
        scale = spec.capacity_scale
        assert report.fit_scaled == pytest.approx(report.fit * scale)

    def test_availability_and_survival(self):
        spec = make_spec(devices=4)
        report = aggregate(spec, [record(i, ue=(0 if i < 3 else 5)) for i in range(4)])
        assert report.availability == pytest.approx(0.75)
        low, high = binomial_interval(3, 4)
        assert (report.availability_low, report.availability_high) == (low, high)
        assert dict(report.survival) == {0: 1.0, 5: 0.25}

    def test_order_independent(self):
        spec = make_spec(devices=4)
        records = [record(i, ue=i) for i in range(4)]
        forward = aggregate(spec, records)
        backward = aggregate(spec, list(reversed(records)))
        assert forward.to_dict() == backward.to_dict()

    def test_lot_partition(self):
        spec = make_spec(
            devices=4, lots=(Lot(name="a", weight=1), Lot(name="b", weight=1))
        )
        records = [record(i, lot=("a" if i < 2 else "b"), ue=i) for i in range(4)]
        report = aggregate(spec, records)
        assert [lot.name for lot in report.lots] == ["a", "b"]
        assert [lot.counts["uncorrectable"] for lot in report.lots] == [1, 5]
        assert sum(lot.counts["uncorrectable"] for lot in report.lots) == (
            report.uncorrectable
        )

    def test_energy_per_gib(self):
        spec = make_spec(devices=2)
        report = aggregate(spec, [record(0, energy=1.0), record(1, energy=3.0)])
        total_gib = 2 * spec.simulated_gib_per_device
        assert report.energy_per_gib_j == pytest.approx(4.0 / total_gib)


class TestInvariants:
    def test_missing_record_raises(self):
        spec = make_spec(devices=4)
        with pytest.raises(FleetInvariantError, match="expected device records"):
            aggregate(spec, [record(i) for i in (0, 1, 3)])

    def test_duplicate_index_raises(self):
        spec = make_spec(devices=2)
        with pytest.raises(FleetInvariantError):
            aggregate(spec, [record(0), record(0)])

    def test_unknown_lot_raises(self):
        spec = make_spec(devices=2)
        with pytest.raises(FleetInvariantError):
            aggregate(spec, [record(0), record(1, lot="phantom")])

    def test_lot_apportionment_mismatch_raises(self):
        spec = make_spec(
            devices=4, lots=(Lot(name="a", weight=1), Lot(name="b", weight=1))
        )
        records = [record(i, lot="a") for i in range(4)]  # all in one lot
        with pytest.raises(FleetInvariantError, match="apportions"):
            aggregate(spec, records)


class TestDeviceRecord:
    def test_round_trip(self):
        original = record(3, ue=2, energy=0.123456789)
        clone = DeviceRecord.from_dict(json.loads(json.dumps(original.to_dict())))
        assert clone == original

    def test_normalized_is_value_identity(self):
        original = record(0, energy=1 / 3)
        assert original.normalized() == original

    def test_uncorrectable_property(self):
        assert record(0, ue=7).uncorrectable == 7


class TestBinomialInterval:
    def test_midpoint(self):
        low, high = binomial_interval(5, 10)
        assert 0.0 < low < 0.5 < high < 1.0

    def test_extremes_stay_in_unit_interval(self):
        low, high = binomial_interval(0, 10)
        assert low == 0.0 and 0.0 < high < 0.5
        low, high = binomial_interval(10, 10)
        assert 0.5 < low < 1.0 and high == pytest.approx(1.0)

    def test_wider_at_smaller_n(self):
        narrow = binomial_interval(50, 100)
        wide = binomial_interval(5, 10)
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_interval(-1, 10)
        with pytest.raises(ValueError):
            binomial_interval(11, 10)
        with pytest.raises(ValueError):
            binomial_interval(0, 0)

    def test_interval_is_finite(self):
        low, high = binomial_interval(3, 7, confidence=0.99)
        assert math.isfinite(low) and math.isfinite(high)


class TestMergeRecords:
    """Shard-merge algebra: union of records, associative and exact."""

    def _records(self, spec):
        return [record(i, ue=i % 3, energy=0.1 + 0.01 * i) for i in range(spec.devices)]

    def test_any_bracketing_aggregates_identically(self):
        from repro.fleet import merge_records

        spec = make_spec(devices=9)
        records = self._records(spec)
        a, b, c = records[:3], records[3:5], records[5:]
        left = merge_records(merge_records(a, b), c)
        right = merge_records(a, merge_records(b, c))
        assert aggregate(spec, left.values()).to_dict() == \
            aggregate(spec, right.values()).to_dict()

    def test_random_partitions_equal_unsharded_report(self):
        import numpy as np

        from repro.fleet import merge_records

        spec = make_spec(devices=12)
        records = self._records(spec)
        unsharded = aggregate(spec, records).to_json()
        rng = np.random.default_rng(42)
        for _ in range(10):
            order = rng.permutation(spec.devices)
            cuts = sorted(rng.choice(range(1, spec.devices), size=3, replace=False))
            parts = [
                [records[i] for i in order[lo:hi]]
                for lo, hi in zip([0, *cuts], [*cuts, spec.devices])
            ]
            rng.shuffle(parts)
            merged = merge_records(*parts)
            assert aggregate(spec, merged.values()).to_json() == unsharded

    def test_identical_duplicates_tolerated(self):
        from repro.fleet import merge_records

        first = record(0, ue=2)
        merged = merge_records([first], [record(0, ue=2)])
        assert merged[0] == first

    def test_conflicting_duplicates_raise(self):
        from repro.fleet import merge_records

        with pytest.raises(FleetInvariantError, match="conflicting"):
            merge_records([record(0, ue=1)], [record(0, ue=2)])


class TestAggregatePartial:
    def test_complete_set_is_byte_identical_to_aggregate(self):
        from repro.fleet import aggregate_partial

        spec = make_spec(devices=5)
        records = [record(i, ue=i) for i in range(5)]
        assert aggregate_partial(spec, records).to_json() == \
            aggregate(spec, records).to_json()

    def test_partial_uses_completed_denominators(self):
        from repro.fleet import aggregate_partial

        spec = make_spec(devices=10)
        records = [record(i, ue=(1 if i == 0 else 0)) for i in range(4)]
        report = aggregate_partial(spec, records)
        assert report.devices == 4
        assert report.device_hours == pytest.approx(4 * 24.0)
        assert report.availability == pytest.approx(3 / 4)
        assert report.fit == pytest.approx(1 / (4 * 24.0) * FIT_HOURS)

    def test_monotone_growth_never_shrinks(self):
        from repro.fleet import aggregate_partial

        spec = make_spec(devices=6)
        records = [record(i, ue=1) for i in range(6)]
        seen = 0
        for upto in range(1, 7):
            report = aggregate_partial(spec, records[:upto])
            assert report.devices >= seen
            seen = report.devices

    def test_relaxes_lot_apportionment(self):
        from repro.fleet import aggregate_partial

        spec = make_spec(
            devices=4, lots=(Lot(name="a", weight=1), Lot(name="b", weight=1))
        )
        # Only lot-a devices done so far: full aggregate would reject this.
        lot_of = {i: spec.device_spec(i).lot for i in range(4)}
        a_indices = [i for i, lot in lot_of.items() if lot == "a"]
        records = [record(i, lot="a") for i in a_indices[:1]]
        report = aggregate_partial(spec, records)
        assert report.devices == 1

    def test_empty_rejected(self):
        from repro.fleet import aggregate_partial

        with pytest.raises(FleetInvariantError, match="at least one"):
            aggregate_partial(make_spec(devices=3), [])

    def test_duplicate_and_out_of_range_rejected(self):
        from repro.fleet import aggregate_partial

        spec = make_spec(devices=3)
        with pytest.raises(FleetInvariantError, match="duplicate"):
            aggregate_partial(spec, [record(1), record(1)])
        with pytest.raises(FleetInvariantError, match="outside"):
            aggregate_partial(spec, [record(7)])


class TestPerGib:
    def test_zero_capacity_zero_total_reads_as_zero(self):
        from repro.fleet.report import per_gib

        assert per_gib(0.0, 0.0, "test metric") == 0.0

    def test_zero_capacity_nonzero_total_raises_invariant_error(self):
        # Regression: this used to surface as a bare ZeroDivisionError
        # deep inside report aggregation.
        from repro.fleet.report import per_gib

        with pytest.raises(FleetInvariantError, match="test metric"):
            per_gib(1.5, 0.0, "test metric")

    def test_positive_capacity_divides(self):
        from repro.fleet.report import per_gib

        assert per_gib(6.0, 3.0, "test metric") == pytest.approx(2.0)

    def test_lot_summaries_carry_energy_per_gib(self):
        spec = make_spec(
            devices=4, lots=(Lot(name="a", weight=1), Lot(name="b", weight=1))
        )
        records = [
            record(i, lot=("a" if i < 2 else "b"), energy=float(i))
            for i in range(4)
        ]
        report = aggregate(spec, records)
        for lot, expected_energy in zip(report.lots, (1.0, 5.0)):
            gib = lot.devices * spec.simulated_gib_per_device
            assert lot.energy_per_gib_j == pytest.approx(expected_energy / gib)
            assert lot.to_dict()["energy_per_gib_j"] == lot.energy_per_gib_j

    def test_empty_lot_in_partial_aggregate_reports_zero_per_gib(self):
        # A mid-fill campaign can have a lot with no completed devices
        # yet; its per-GiB energy is legitimately zero, not an error.
        from repro.fleet import aggregate_partial

        spec = make_spec(
            devices=4, lots=(Lot(name="a", weight=1), Lot(name="b", weight=1))
        )
        a_only = [record(i, lot="a", energy=1.0) for i in range(2)]
        report = aggregate_partial(spec, a_only)
        by_name = {lot.name: lot for lot in report.lots}
        assert by_name["b"].devices == 0
        assert by_name["b"].energy_per_gib_j == 0.0
