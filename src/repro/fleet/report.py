"""Fleet-level aggregation: FIT rates, availability, survival, energy.

Per-device :class:`repro.core.stats.ScrubStats` summaries roll up into
the numbers datacenter reliability budgets are written in:

* **FIT** - uncorrectable errors per 10^9 device-hours, with an exact
  Poisson (Garwood) confidence band, both for the simulated population
  and scaled linearly to the spec's real per-device capacity (per-line
  independence makes UE counts linear in capacity; see
  ``SimulationConfig.num_lines``);
* **availability** - the fraction of devices that survive the horizon
  with zero uncorrectable errors, with a Wilson binomial interval;
* the **UE survival curve** - the fraction of devices with at least
  ``k`` uncorrectables, at every observed count;
* **energy** - total scrub energy, per device, and per simulated GiB.

Aggregation is pure and order-fixed (records sorted by device index),
so a report is a deterministic function of the device records - the
property the checkpoint/resume machinery relies on.  Every report is
*invariant-checked* on construction: fleet totals must equal both the
direct per-device sum and the sum of the per-lot partial sums, the
device index set must be exactly ``0..devices-1``, and per-lot device
counts must match the spec's apportionment.  A mismatch raises
:class:`FleetInvariantError` rather than producing a silently wrong
report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from ..analysis.stats import binomial_interval, poisson_interval
from ..fields import dump, load
from ..sim.results import RunResult
from .spec import DeviceSpec, FleetSpec

#: Per-10^9-hours scale that defines the FIT unit.
FIT_HOURS = 1e9

#: Integer counters summed exactly across devices and lots.
_COUNT_KEYS = (
    "uncorrectable",
    "scrub_reads",
    "scrub_decodes",
    "scrub_writes",
    "visits",
    "detector_misses",
    "retired",
    "demand_writes",
)


class FleetInvariantError(RuntimeError):
    """A fleet aggregate failed its internal cross-check."""


def per_gib(value: float, gib: float, what: str) -> float:
    """``value / gib`` with a guarded zero-capacity denominator.

    Per-GiB metrics (energy/GiB, $/GiB, carbon/GiB) divide by simulated
    or provisioned capacity.  A zero-device lot in a partial aggregate
    legitimately has zero capacity *and* zero accumulated totals - that
    reads as ``0.0`` per GiB.  Zero capacity with a *nonzero* total means
    the aggregate is inconsistent (records without capacity to carry
    them), so rather than a bare ``ZeroDivisionError`` deep in a report,
    it raises :class:`FleetInvariantError` naming the metric.
    """
    if gib > 0:
        return value / gib
    if value == 0:
        return 0.0
    raise FleetInvariantError(
        f"{what}: nonzero total {value!r} over zero GiB of capacity; "
        "per-GiB metrics need a positive denominator"
    )


@dataclass(frozen=True)
class DeviceRecord:
    """One completed device, as persisted in the checkpoint journal."""

    index: int
    lot: str
    seed: int
    temperature_k: float
    nu_mu_scale: float
    nu_sigma_scale: float
    endurance_mean: float | None = None
    #: ``ScrubStats.summary()`` of the device run.
    summary: dict = field(default_factory=dict)
    final_state: dict = field(default_factory=dict)
    #: Wall-clock seconds the device simulation took.  Operational
    #: metadata only - never aggregated into the report, which must be
    #: bit-identical across reruns.
    runtime_seconds: float = 0.0

    @property
    def uncorrectable(self) -> int:
        return int(self.summary.get("uncorrectable", 0.0))

    @classmethod
    def from_result(cls, device: DeviceSpec, result: RunResult) -> "DeviceRecord":
        return cls(
            index=device.index,
            lot=device.lot,
            seed=device.seed,
            temperature_k=device.temperature_k,
            nu_mu_scale=device.nu_mu_scale,
            nu_sigma_scale=device.nu_sigma_scale,
            endurance_mean=device.endurance_mean,
            summary=result.stats.summary(),
            final_state=dict(result.final_state),
            runtime_seconds=result.runtime_seconds,
        )

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "DeviceRecord":
        """Parse a journal record; a malformed field raises ``FieldError`` naming it."""
        return load(cls, data, path, ignore=("kind",))

    def normalized(self) -> "DeviceRecord":
        """The record as it reads back from a JSON journal.

        JSON round-trips finite floats exactly, so this is value-identity;
        it exists so fresh in-memory records and journal-loaded records
        aggregate from byte-identical structures.
        """
        return DeviceRecord.from_dict(json.loads(json.dumps(self.to_dict())))


def _sum_counts(records: Sequence[DeviceRecord]) -> dict[str, int]:
    totals = dict.fromkeys(_COUNT_KEYS, 0)
    for record in records:
        for key in _COUNT_KEYS:
            totals[key] += int(record.summary.get(key, 0.0))
    return totals


def _sum_energy(records: Sequence[DeviceRecord]) -> float:
    return math.fsum(record.summary.get("scrub_energy_j", 0.0) for record in records)


@dataclass(frozen=True)
class LotSummary:
    """Per-lot aggregate row of a fleet report."""

    name: str
    devices: int
    counts: dict[str, int]
    scrub_energy_j: float
    fit: float
    #: Scrub energy per simulated GiB of this lot's devices (0.0 for an
    #: empty lot in a partial aggregate; the provisioning cost model
    #: prices lots off this figure).
    energy_per_gib_j: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "devices": self.devices,
            **self.counts,
            "scrub_energy_j": self.scrub_energy_j,
            "fit": self.fit,
            "energy_per_gib_j": self.energy_per_gib_j,
        }


@dataclass(frozen=True)
class FleetReport:
    """The deterministic aggregate of one completed campaign."""

    name: str
    devices: int
    device_hours: float
    capacity_gib_per_device: float
    simulated_gib_per_device: float
    counts: dict[str, int]
    scrub_energy_j: float
    #: Simulated-population FIT (UE per 1e9 device-hours) and Garwood band.
    fit: float
    fit_low: float
    fit_high: float
    #: FIT scaled to the real per-device capacity.
    fit_scaled: float
    fit_scaled_low: float
    fit_scaled_high: float
    #: Fraction of devices with zero uncorrectables, with Wilson band.
    availability: float
    availability_low: float
    availability_high: float
    #: Scrub energy per simulated GiB over the horizon.
    energy_per_gib_j: float
    #: ``[(ue_threshold, fraction of devices with >= threshold UEs), ...]``.
    survival: tuple[tuple[int, float], ...]
    lots: tuple[LotSummary, ...]

    @property
    def uncorrectable(self) -> int:
        return self.counts["uncorrectable"]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "devices": self.devices,
            "device_hours": self.device_hours,
            "capacity_gib_per_device": self.capacity_gib_per_device,
            "simulated_gib_per_device": self.simulated_gib_per_device,
            **self.counts,
            "scrub_energy_j": self.scrub_energy_j,
            "fit": self.fit,
            "fit_low": self.fit_low,
            "fit_high": self.fit_high,
            "fit_scaled": self.fit_scaled,
            "fit_scaled_low": self.fit_scaled_low,
            "fit_scaled_high": self.fit_scaled_high,
            "availability": self.availability,
            "availability_low": self.availability_low,
            "availability_high": self.availability_high,
            "energy_per_gib_j": self.energy_per_gib_j,
            "survival": [[k, fraction] for k, fraction in self.survival],
            "lots": [lot.to_dict() for lot in self.lots],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def merge_records(
    *record_sets: Iterable[DeviceRecord] | dict[int, DeviceRecord],
) -> dict[int, DeviceRecord]:
    """Associative, commutative merge of per-shard device records.

    The shard-merge layer deliberately unions *records*, not pre-summed
    partial reports: ``math.fsum`` partial sums do not recombine exactly,
    but a union of records followed by one :func:`aggregate` pass is a
    pure function of the record set - so ``merge(merge(A, B), C)`` and
    ``merge(A, merge(B, C))`` (and any other bracketing of any partition)
    aggregate to byte-identical reports.

    Identical duplicates are tolerated (a shard rerun after a worker
    death re-journals its devices); conflicting duplicates raise
    :class:`FleetInvariantError` - two different results for one device
    index mean the journals mix campaigns or spec evaluation broke.
    """
    merged: dict[int, DeviceRecord] = {}
    for records in record_sets:
        if isinstance(records, dict):
            records = records.values()
        for record in records:
            existing = merged.get(record.index)
            if existing is None:
                merged[record.index] = record
            elif existing != record:
                raise FleetInvariantError(
                    f"conflicting records for device {record.index}: shard "
                    "journals disagree (mixed campaigns?)"
                )
    return merged


def aggregate(spec: FleetSpec, records: Iterable[DeviceRecord]) -> FleetReport:
    """Roll per-device records up into a :class:`FleetReport`.

    Raises :class:`FleetInvariantError` when the records are not exactly
    one per device of ``spec``, when the per-lot partial sums do not
    re-add to the fleet totals, or when lot populations disagree with
    the spec's apportionment.
    """
    ordered = sorted(records, key=lambda record: record.index)
    indices = [record.index for record in ordered]
    if indices != list(range(spec.devices)):
        raise FleetInvariantError(
            f"expected device records 0..{spec.devices - 1}, got "
            f"{len(indices)} records"
            + (f" (first mismatch near index {next((i for i, v in enumerate(indices) if i != v), len(indices))})" if indices else "")
        )
    return _aggregate(spec, ordered, complete=True)


def aggregate_partial(
    spec: FleetSpec, records: Iterable[DeviceRecord]
) -> FleetReport:
    """Aggregate whatever device records exist *so far* into a report.

    The streaming-``status`` view: any non-empty subset of the fleet's
    devices produces a report over the completed population (``devices``,
    device-hours, availability, and survival denominators are the
    completed count, not the fleet size).  Apportionment checks are
    relaxed - an in-flight campaign legitimately has lots mid-fill - but
    the summation cross-checks still run.  A *complete* record set takes
    the exact :func:`aggregate` path, so the final streamed report is
    byte-identical to the batch one.
    """
    ordered = sorted(records, key=lambda record: record.index)
    if not ordered:
        raise FleetInvariantError(
            "aggregate_partial needs at least one device record"
        )
    indices = [record.index for record in ordered]
    if len(set(indices)) != len(indices):
        raise FleetInvariantError("duplicate device indices in partial records")
    if indices[0] < 0 or indices[-1] >= spec.devices:
        raise FleetInvariantError(
            f"device indices {indices[0]}..{indices[-1]} outside the spec's "
            f"0..{spec.devices - 1}"
        )
    if len(ordered) == spec.devices:
        return _aggregate(spec, ordered, complete=True)
    return _aggregate(spec, ordered, complete=False)


def _aggregate(
    spec: FleetSpec, ordered: Sequence[DeviceRecord], complete: bool
) -> FleetReport:
    counts = _sum_counts(ordered)
    scrub_energy = _sum_energy(ordered)

    # Per-lot partials, then the cross-check: lot sums must re-add to the
    # fleet totals (exactly for counters, to rounding for energy).  This
    # is what the acceptance invariant "fleet UE total equals the sum of
    # per-device UEs" rides on - two independent summation orders.
    by_lot: dict[str, list[DeviceRecord]] = {}
    for record in ordered:
        by_lot.setdefault(record.lot, []).append(record)
    expected_counts = {
        lot.name: count for lot, count in zip(spec.lots, spec.lot_counts())
    }
    horizon_hours = spec.base_config.horizon / 3600.0
    lot_rows = []
    for lot in spec.lots:
        members = by_lot.get(lot.name, [])
        if complete and len(members) != expected_counts[lot.name]:
            raise FleetInvariantError(
                f"lot {lot.name!r} has {len(members)} device records but the "
                f"spec apportions {expected_counts[lot.name]}"
            )
        lot_counts = _sum_counts(members)
        lot_hours = len(members) * horizon_hours
        lot_energy = _sum_energy(members)
        lot_rows.append(
            LotSummary(
                name=lot.name,
                devices=len(members),
                counts=lot_counts,
                scrub_energy_j=lot_energy,
                fit=(
                    lot_counts["uncorrectable"] / lot_hours * FIT_HOURS
                    if lot_hours > 0
                    else 0.0
                ),
                energy_per_gib_j=per_gib(
                    lot_energy,
                    len(members) * spec.simulated_gib_per_device,
                    f"lot {lot.name!r} energy/GiB",
                ),
            )
        )
    unknown = set(by_lot) - set(expected_counts)
    if unknown:
        raise FleetInvariantError(f"records name lots absent from the spec: {sorted(unknown)}")
    for key in _COUNT_KEYS:
        refolded = sum(row.counts[key] for row in lot_rows)
        if refolded != counts[key]:
            raise FleetInvariantError(
                f"lot partial sums for {key!r} re-add to {refolded}, "
                f"fleet total is {counts[key]}"
            )
    refolded_energy = math.fsum(row.scrub_energy_j for row in lot_rows)
    if not math.isclose(refolded_energy, scrub_energy, rel_tol=1e-9, abs_tol=0.0):
        raise FleetInvariantError(
            f"lot scrub-energy partial sums re-add to {refolded_energy!r}, "
            f"fleet total is {scrub_energy!r}"
        )

    # Denominators cover the aggregated population: the whole fleet for a
    # complete record set (``spec.device_hours`` exactly, so the complete
    # path is byte-identical to historical reports), the completed device
    # count for a streaming partial view.
    population = spec.devices if complete else len(ordered)
    device_hours = (
        spec.device_hours if complete else population * horizon_hours
    )
    total_ue = counts["uncorrectable"]
    ue_low, ue_high = poisson_interval(total_ue)
    fit = total_ue / device_hours * FIT_HOURS
    fit_low = ue_low / device_hours * FIT_HOURS
    fit_high = ue_high / device_hours * FIT_HOURS
    scale = spec.capacity_scale

    survivors = sum(1 for record in ordered if record.uncorrectable == 0)
    availability = survivors / population
    availability_low, availability_high = binomial_interval(
        survivors, population
    )

    ue_counts = [record.uncorrectable for record in ordered]
    thresholds = sorted({0, *ue_counts})[:32]
    survival = tuple(
        (k, sum(1 for ue in ue_counts if ue >= k) / population)
        for k in thresholds
    )

    simulated_gib_total = population * spec.simulated_gib_per_device
    return FleetReport(
        name=spec.name,
        devices=population,
        device_hours=device_hours,
        capacity_gib_per_device=spec.capacity_gib_per_device,
        simulated_gib_per_device=spec.simulated_gib_per_device,
        counts=counts,
        scrub_energy_j=scrub_energy,
        fit=fit,
        fit_low=fit_low,
        fit_high=fit_high,
        fit_scaled=fit * scale,
        fit_scaled_low=fit_low * scale,
        fit_scaled_high=fit_high * scale,
        availability=availability,
        availability_low=availability_low,
        availability_high=availability_high,
        energy_per_gib_j=per_gib(
            scrub_energy, simulated_gib_total, "fleet energy/GiB"
        ),
        survival=survival,
        lots=tuple(lot_rows),
    )
