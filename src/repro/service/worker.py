"""The worker loop: claim a shard, run its devices resumably, repeat.

A worker is a plain function over a campaign directory - no sockets, no
broker.  It scans the shard plan in order, skips shards whose ``.done``
marker exists (it reads no journal to decide), breaks stale leases (dead
workers' shards re-queue automatically), and claims the first free shard
via exclusive lease creation.  Within a shard it drives each device
through :func:`repro.sim.snapshot.run_resumable`, so a
multi-year-horizon device suspends to ``snapshots/device-N.npz`` every
``snapshot_budget`` events and a successor worker resumes it
*mid-horizon*, bit-identically, instead of restarting the device.

Durability ordering per device: journal append (fsynced) first, then
snapshot deletion - a kill between the two leaves a snapshot that is
simply ignored (the journal says the device is done).  The shard's
marker follows its last append, so a marker implies a complete journal;
a shard killed between the two is claimed again, runs nothing and gets
its marker.  Heartbeats ride on the same callbacks as snapshots, so
"lease is fresh" implies "work is checkpointed no older than the
heartbeat", which is what makes the lease timeout a bound on lost work.
"""

from __future__ import annotations

import logging
import time as _time
import uuid

from ..fleet.checkpoint import append_device, open_journal
from ..fleet.report import DeviceRecord
from ..obs.metrics import GLOBAL_REGISTRY
from ..sim.snapshot import DEFAULT_SNAPSHOT_BUDGET, run_resumable
from . import leases
from .jobs import Campaign, load_campaign, write_json
from .shards import CampaignShard

logger = logging.getLogger(__name__)

#: Process-lifetime worker counters (devices and shards this process
#: completed, lease steals it performed).
WORKER_COUNTERS = GLOBAL_REGISTRY.group(
    "service_worker", ("devices", "shards", "steals")
)


class _Heartbeat:
    """Throttled lease refresher, callable from snapshot checkpoints."""

    def __init__(self, lease_path, lease: leases.Lease, min_interval: float):
        self.lease_path = lease_path
        self.lease = lease
        self.min_interval = min_interval
        self._last = 0.0

    def beat(self) -> None:
        now = _time.monotonic()
        if now - self._last < self.min_interval:
            return
        self.lease = leases.refresh(self.lease_path, self.lease)
        self._last = now


def run_shard(
    campaign: Campaign,
    shard: CampaignShard,
    heartbeat: _Heartbeat | None = None,
    snapshot_budget: int = DEFAULT_SNAPSHOT_BUDGET,
) -> int:
    """Run (or finish) one shard's devices; returns devices executed now.

    Resumes from whatever the shard journal already holds, and from any
    mid-horizon device snapshot left by a previous (possibly killed)
    worker.  Idempotent: running a complete shard executes nothing and
    just (re)writes the completion marker.
    """
    spec = campaign.spec
    journal = campaign.journal_path(shard)
    done = set(open_journal(journal, campaign.spec_hash, spec.name))

    workload = spec.workload()
    started = _time.perf_counter()
    executed = 0
    for index in shard.indices:
        if index in done:
            continue
        device = spec.device_spec(index)
        run_spec = device.run_spec(*spec.policy_for(device.lot), workload)
        snapshot_path = campaign.snapshot_path(index)
        result = run_resumable(
            run_spec.build_policy(),
            run_spec.config,
            run_spec.rates,
            snapshot_path=snapshot_path,
            fingerprint=campaign.device_fingerprint(index),
            snapshot_budget=snapshot_budget,
            on_checkpoint=heartbeat.beat if heartbeat is not None else None,
        )
        record = DeviceRecord.from_result(device, result).normalized()
        append_device(journal, record.to_dict())
        snapshot_path.unlink(missing_ok=True)
        executed += 1
        WORKER_COUNTERS["devices"] += 1
        if heartbeat is not None:
            heartbeat.beat()

    write_json(
        campaign.marker_path(shard),
        {
            "shard": shard.shard_id,
            "devices": shard.count,
            "executed": executed,
            "wall_seconds": _time.perf_counter() - started,
            "worker": heartbeat.lease.worker if heartbeat is not None else None,
        },
    )
    WORKER_COUNTERS["shards"] += 1
    return executed


def run_worker(
    root,
    worker_id: str | None = None,
    lease_timeout: float = leases.DEFAULT_LEASE_TIMEOUT,
    snapshot_budget: int = DEFAULT_SNAPSHOT_BUDGET,
    poll_seconds: float = 0.2,
    wait_for_complete: bool = True,
) -> dict:
    """Claim and run shards until every shard is marked complete.

    With ``wait_for_complete`` (the service default) a worker that finds
    every incomplete shard leased elsewhere keeps polling - so it picks
    up a dead peer's shard the moment its lease expires.  With it off,
    the worker returns as soon as it can make no immediate progress
    (useful for one-shot "drain what you can" invocations).
    """
    campaign = load_campaign(root)
    if worker_id is None:
        worker_id = f"worker-{uuid.uuid4().hex[:8]}"
    heartbeat_interval = max(0.05, lease_timeout / 10.0)

    shards_done: list[int] = []
    devices_executed = 0
    while True:
        progress = False
        all_complete = True
        for shard in campaign.shards:
            if campaign.marker_path(shard).exists():
                continue
            all_complete = False
            lease_path = campaign.lease_path(shard)
            broken = leases.break_if_stale(lease_path, lease_timeout)
            if broken is not None:
                WORKER_COUNTERS["steals"] += 1
                logger.warning(
                    "worker %s: broke stale lease on %s (held by %s, "
                    "heartbeat %.1fs ago)",
                    worker_id, shard.name, broken.worker, broken.age(),
                )
            lease = leases.try_acquire(lease_path, worker_id)
            if lease is None:
                continue
            heart = _Heartbeat(lease_path, lease, heartbeat_interval)
            try:
                executed = run_shard(
                    campaign, shard, heart, snapshot_budget=snapshot_budget
                )
            finally:
                leases.release(lease_path)
            logger.info(
                "worker %s: finished %s (%d devices run)",
                worker_id, shard.name, executed,
            )
            shards_done.append(shard.shard_id)
            devices_executed += executed
            progress = True
        if all_complete:
            break
        if not progress:
            if not wait_for_complete:
                break
            _time.sleep(poll_seconds)

    return {
        "worker": worker_id,
        "shards": shards_done,
        "devices_executed": devices_executed,
    }
