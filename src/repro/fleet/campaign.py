"""Campaign execution: fan a fleet out over the process pool, durably.

:class:`CampaignRunner` turns a :class:`repro.fleet.spec.FleetSpec` into
per-device :class:`repro.sim.parallel.RunSpec` work units and executes
every pending one in a single :func:`repro.sim.parallel.run_many` call -
one worker pool per run - inheriting the pool's
bit-identical-for-any-``jobs`` guarantee and the persistent
crossing-distribution cache (devices from the same lot corner share a
tabulation).

With a checkpoint path, each device is appended to the JSONL journal
(:mod:`repro.fleet.checkpoint`) as soon as its result reaches the
parent, in completion order, so a killed campaign loses only the
devices still in flight.  ``resume=True``
validates the journal's spec hash, skips every journaled device, and -
crucially - aggregates *from the journal records*, so an interrupted and
resumed campaign produces a report bit-identical to an uninterrupted
one.  Without a checkpoint the runner keeps records in memory but
normalizes them through the same JSON round-trip, so the report is
byte-for-byte the same either way.
"""

from __future__ import annotations

import logging
import time as _time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..sim.parallel import run_many
from ..sim.results import RunResult
from .checkpoint import CheckpointError, append_device, append_pending, device_records, open_journal
from .report import DeviceRecord, FleetReport, aggregate
from .spec import FleetSpec

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CampaignOutcome:
    """What one :meth:`CampaignRunner.run` invocation accomplished."""

    #: The fleet report; ``None`` when the campaign was checkpointed
    #: before completion (``stop_after``) and needs a resume, or when the
    #: runner covered only a subset of the fleet (``indices``) - a subset
    #: cannot aggregate into a full :class:`FleetReport`.
    report: FleetReport | None
    #: Devices completed across all invocations (journal + this run).
    completed: int
    #: Devices simulated by *this* invocation (excludes resumed ones).
    executed: int
    #: Devices this runner is responsible for (the fleet size, or the
    #: subset length when ``indices`` was given).
    total: int
    #: Wall-clock seconds of this invocation.
    wall_seconds: float
    #: The completed device records, in index order, once finished
    #: (empty until then).  This is what subset runs - the screening
    #: escalation path - aggregate from.
    records: tuple[DeviceRecord, ...] = field(default=())

    @property
    def finished(self) -> bool:
        return self.completed == self.total


class CampaignRunner:
    """Execute a fleet campaign, optionally durable and resumable.

    Parameters
    ----------
    spec:
        The campaign description.
    jobs:
        Worker processes for the device fan-out (1 = inline).
    checkpoint:
        JSONL journal path; ``None`` runs in memory only.
    resume:
        Continue an existing journal (required when ``checkpoint``
        already exists; when it does not, the journal is created as on a
        fresh run).
    stop_after:
        Checkpoint and return after completing this many devices in
        this invocation - the programmatic form of killing a campaign
        mid-flight, used by the resume round-trip tests and by
        operators slicing a long campaign across maintenance windows.
    until:
        Incremental stop by device *index*: complete every device with
        index < ``until``, journal the remainder as a ``pending`` record,
        and return without aggregating.  Unlike ``stop_after`` (a
        per-invocation work budget), ``until`` is an absolute position in
        the campaign, so repeated invocations with growing ``until``
        values walk the fleet front-to-back.
    indices:
        Restrict the run to this subset of device indices (sorted,
        deduplicated internally).  Devices are simulated exactly as they
        would be in a full run - per-device seeding makes results
        independent of which subset they execute in - but the outcome
        carries no :class:`FleetReport` (a subset cannot aggregate);
        callers compose from :attr:`CampaignOutcome.records`.  This is
        the MC-escalation path of :mod:`repro.screen`.
    """

    def __init__(
        self,
        spec: FleetSpec,
        jobs: int = 1,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        stop_after: int | None = None,
        until: int | None = None,
        indices: Sequence[int] | None = None,
    ):
        if stop_after is not None and stop_after <= 0:
            raise ValueError("stop_after must be positive (or None)")
        if until is not None and until <= 0:
            raise ValueError("until must be positive (or None)")
        if resume and checkpoint is None:
            raise ValueError("resume requires a checkpoint path")
        if indices is not None:
            indices = sorted(set(int(i) for i in indices))
            bad = [i for i in indices if not 0 <= i < spec.devices]
            if bad:
                raise ValueError(
                    f"subset indices {bad[:4]} outside fleet of {spec.devices}"
                )
        self.spec = spec
        self.jobs = max(1, jobs)
        self.checkpoint = None if checkpoint is None else Path(checkpoint)
        self.resume = resume
        self.stop_after = stop_after
        self.until = until
        self.indices = None if indices is None else tuple(indices)

    # -- execution ------------------------------------------------------------

    def run(self) -> CampaignOutcome:
        """Run (or continue) the campaign; see :class:`CampaignOutcome`."""
        started = _time.perf_counter()
        spec = self.spec
        spec_hash = spec.content_hash()

        done: dict[int, DeviceRecord] = {}
        if self.checkpoint is not None:
            if self.checkpoint.exists() and not self.resume:
                raise CheckpointError(
                    f"checkpoint {self.checkpoint} already exists; "
                    "resume it or remove it to restart"
                )
            journaled = open_journal(self.checkpoint, spec_hash, spec.name)
            done = device_records(self.checkpoint, journaled)
            if self.resume:
                logger.info(
                    "campaign %s: resuming with %d/%d devices journaled",
                    spec.name, len(done), spec.devices,
                )

        targets = (
            list(range(spec.devices)) if self.indices is None else list(self.indices)
        )
        pending = [i for i in targets if i not in done]
        if self.until is not None:
            pending = [i for i in pending if i < self.until]
        if self.stop_after is not None:
            pending = pending[: self.stop_after]

        devices = [spec.device_spec(index) for index in pending]
        workload = spec.workload()
        specs = [
            device.run_spec(*spec.policy_for(device.lot), workload)
            for device in devices
        ]

        def journal(position: int, result: RunResult) -> None:
            device = devices[position]
            record = DeviceRecord.from_result(device, result).normalized()
            if self.checkpoint is not None:
                append_device(self.checkpoint, record.to_dict())
            done[device.index] = record

        run_many(specs, jobs=self.jobs, on_result=journal)
        executed = len(pending)

        completed = sum(1 for i in targets if i in done)
        wall = _time.perf_counter() - started
        if completed < len(targets):
            if self.until is not None and self.checkpoint is not None:
                append_pending(
                    self.checkpoint,
                    [i for i in targets if i not in done],
                )
            logger.info(
                "campaign %s: checkpointed %d/%d devices (resume to finish)",
                spec.name, completed, len(targets),
            )
            return CampaignOutcome(
                report=None, completed=completed, executed=executed,
                total=len(targets), wall_seconds=wall,
            )

        records = tuple(done[i] for i in targets)
        # A subset run cannot make the full-fleet report; the caller
        # (repro.screen) composes from the records instead.
        report = aggregate(spec, records) if self.indices is None else None
        logger.info(
            "campaign %s: %d devices, %d executed this run, wall %.2fs",
            spec.name, completed, executed, wall,
        )
        return CampaignOutcome(
            report=report, completed=completed, executed=executed,
            total=len(targets), wall_seconds=wall, records=records,
        )


def run_campaign(
    spec: FleetSpec,
    jobs: int = 1,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    stop_after: int | None = None,
    until: int | None = None,
    indices: Sequence[int] | None = None,
) -> CampaignOutcome:
    """One-call convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(
        spec, jobs=jobs, checkpoint=checkpoint, resume=resume,
        stop_after=stop_after, until=until, indices=indices,
    ).run()
