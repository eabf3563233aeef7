"""Screened-fleet aggregation: exact surrogate mass + Garwood-banded MC.

A screened campaign resolves most devices analytically and Monte-Carlos
only the escalated subset, so its report composes two populations:

* **surrogate devices** contribute their *exact expectations* - the
  finite-horizon renewal solution's expected UE count and UE-free
  probability carry no sampling error, so they add no width to the
  confidence band;
* **MC devices** contribute *observed counts*, whose sampling error is
  what the band must cover: the exact Poisson (Garwood) interval on the
  MC UE total, and the Wilson interval on MC UE-free devices.

The composed FIT band is therefore

``(sum_surrogate lambda_i + garwood(mc_ue)) / device_hours * 1e9``

- MC-calibrated bounds around a mostly-analytic point estimate.  (The
surrogate term is an expectation, not a realization; treating it as
exact is what screening *means*, and the equivalence harness is what
earns that treatment - see ``docs/screening.md``.)

Every report records per-device provenance (surrogate vs MC, the
escalation reason) and re-checks the partition invariant on
construction: surrogate indices and MC record indices must tile the
fleet exactly, else :class:`~repro.screen.planner.ScreenInvariantError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Iterable

from ..analysis.stats import binomial_interval, poisson_interval
from ..fields import dump
from ..fleet.report import FIT_HOURS, DeviceRecord, FleetReport, aggregate_partial
from ..fleet.spec import FleetSpec
from .planner import MC, ScreenInvariantError, ScreenPlan


@dataclass(frozen=True)
class ScreenedFleetReport:
    """The deterministic aggregate of one screened campaign."""

    name: str
    devices: int
    device_hours: float
    capacity_gib_per_device: float
    #: Devices resolved by the surrogate / escalated to MC.
    surrogate_devices: int
    mc_devices: int
    mc_fraction: float
    #: Exact expected UE count summed over surrogate devices.
    surrogate_expected_ue: float
    #: Observed UE count over the MC subset.
    mc_uncorrectable: int
    #: Composed FIT point estimate and MC-calibrated band.
    fit: float
    fit_low: float
    fit_high: float
    fit_scaled: float
    fit_scaled_low: float
    fit_scaled_high: float
    #: Composed availability (exact surrogate probabilities + observed
    #: MC survivors) with the MC share Wilson-banded.
    availability: float
    availability_low: float
    availability_high: float
    #: Classification counts from the plan (pass / fail / uncertain).
    classifications: dict
    #: Per-device provenance rows (index, lot, method, classification,
    #: reasons, expected vs observed UE).
    provenance: tuple[dict, ...]
    #: The MC subset aggregated on its own (``None`` when nothing
    #: escalated) - energy, per-lot counters, survival for that share.
    mc_report: FleetReport | None

    @property
    def escalation_ratio(self) -> float:
        """MC device-runs saved: fleet size over MC runs (inf when 0 MC)."""
        return self.devices / self.mc_devices if self.mc_devices else float("inf")

    def to_dict(self) -> dict:
        return dump(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def compose_screened_report(
    spec: FleetSpec,
    plan: ScreenPlan,
    mc_records: Iterable[DeviceRecord],
) -> ScreenedFleetReport:
    """Fold a screen plan and its MC escalation records into one report.

    Raises :class:`ScreenInvariantError` unless the plan covers exactly
    ``spec``'s fleet and ``mc_records`` are exactly one per escalated
    device - surrogate devices plus MC devices must tile the fleet.
    """
    if plan.spec_hash != spec.content_hash():
        raise ScreenInvariantError(
            "screen plan was computed for a different spec "
            f"({plan.spec_hash[:12]} != {spec.content_hash()[:12]})"
        )
    if plan.devices != spec.devices:
        raise ScreenInvariantError(
            f"screen plan covers {plan.devices} devices, spec has {spec.devices}"
        )
    records = sorted(mc_records, key=lambda record: record.index)
    mc_indices = tuple(record.index for record in records)
    if len(set(mc_indices)) != len(mc_indices):
        raise ScreenInvariantError("duplicate MC records in screened campaign")
    if mc_indices != plan.escalated:
        raise ScreenInvariantError(
            f"MC records cover {len(mc_indices)} devices but the plan "
            f"escalated {len(plan.escalated)}; surrogate + MC must tile "
            "the fleet"
        )
    surrogate = set(plan.surrogate_indices)
    if surrogate | set(mc_indices) != set(range(spec.devices)) or (
        surrogate & set(mc_indices)
    ):
        raise ScreenInvariantError(
            "surrogate and MC device sets do not partition the fleet"
        )

    horizon_hours = spec.base_config.horizon / 3600.0
    device_hours = spec.devices * horizon_hours
    by_index = {record.index: record for record in records}

    surrogate_ue = 0.0
    surrogate_p0 = 0.0
    provenance = []
    for decision in plan.decisions:
        observed = None
        if decision.method == MC:
            observed = by_index[decision.index].uncorrectable
        else:
            surrogate_ue += decision.expected_ue
            surrogate_p0 += decision.no_ue_probability
        provenance.append(
            {
                "index": decision.index,
                "lot": decision.lot,
                "method": decision.method,
                "classification": decision.classification,
                "reasons": list(decision.reasons),
                "expected_ue": decision.expected_ue,
                "observed_ue": observed,
            }
        )

    mc_ue = sum(record.uncorrectable for record in records)
    ue_low, ue_high = poisson_interval(mc_ue) if records else (0.0, 0.0)
    fit = (surrogate_ue + mc_ue) / device_hours * FIT_HOURS
    fit_low = (surrogate_ue + ue_low) / device_hours * FIT_HOURS
    fit_high = (surrogate_ue + ue_high) / device_hours * FIT_HOURS
    scale = spec.capacity_scale

    mc_survivors = sum(1 for record in records if record.uncorrectable == 0)
    availability = (surrogate_p0 + mc_survivors) / spec.devices
    if records:
        # Wilson-band only the MC share; the surrogate share is exact.
        mc_avail_low, mc_avail_high = binomial_interval(mc_survivors, len(records))
        availability_low = (surrogate_p0 + mc_avail_low * len(records)) / spec.devices
        availability_high = (surrogate_p0 + mc_avail_high * len(records)) / spec.devices
    else:
        availability_low = availability_high = availability

    mc_report = aggregate_partial(spec, records) if records else None

    return ScreenedFleetReport(
        name=spec.name,
        devices=spec.devices,
        device_hours=device_hours,
        capacity_gib_per_device=spec.capacity_gib_per_device,
        surrogate_devices=len(surrogate),
        mc_devices=len(records),
        mc_fraction=plan.mc_fraction,
        surrogate_expected_ue=surrogate_ue,
        mc_uncorrectable=mc_ue,
        fit=fit,
        fit_low=fit_low,
        fit_high=fit_high,
        fit_scaled=fit * scale,
        fit_scaled_low=fit_low * scale,
        fit_scaled_high=fit_high * scale,
        availability=availability,
        availability_low=availability_low,
        availability_high=availability_high,
        classifications=plan.counts(),
        provenance=tuple(provenance),
        mc_report=mc_report,
    )
