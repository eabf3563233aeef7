"""Datacenter-scale scrub campaigns over heterogeneous device fleets.

The single-region simulator answers "how does this scrub policy behave
on one memory array"; this package lifts it to the question reliability
budgets are actually written against: "what FIT rate and availability
does a fleet of thousands of DIMMs - drawn from different manufacturing
lots, racked at different temperatures - see under this policy?"

* :mod:`repro.fleet.spec` - declarative campaign descriptions
  (:class:`FleetSpec`, :class:`Lot`, :class:`LotParameter`), with
  deterministic per-device parameter sampling and JSON round-tripping;
* :mod:`repro.fleet.campaign` - :class:`CampaignRunner`, which sends
  every pending device through one :func:`repro.sim.parallel.run_many`
  pool, journaling each device to a durable JSONL checkpoint as it
  completes, with bit-identical resume;
* :mod:`repro.fleet.checkpoint` - the journal format;
* :mod:`repro.fleet.report` - FIT / availability / survival / energy
  aggregation with internal cross-checks
  (:class:`FleetReport`, :func:`aggregate`).

The CLI front end is ``pcm-scrub fleet``; see ``docs/fleet.md``.
"""

from __future__ import annotations

from .campaign import CampaignOutcome, CampaignRunner, run_campaign
from .checkpoint import CheckpointError, load_journal
from .report import (
    DeviceRecord,
    FleetInvariantError,
    FleetReport,
    aggregate,
    aggregate_partial,
    merge_records,
)
from .spec import DeviceSpec, FleetSpec, Lot, LotParameter

__all__ = [
    "CampaignOutcome",
    "CampaignRunner",
    "CheckpointError",
    "DeviceRecord",
    "DeviceSpec",
    "FleetInvariantError",
    "FleetReport",
    "FleetSpec",
    "Lot",
    "LotParameter",
    "aggregate",
    "aggregate_partial",
    "load_journal",
    "merge_records",
    "run_campaign",
]
