"""Streaming campaign views: status snapshots, watch loops, final reports.

``campaign_status`` is a pure read over the campaign directory: it
parses the append-only shard journals, merges their records
(:func:`repro.fleet.report.merge_records` - a union, so any bracketing
aggregates identically), and rolls the union into a partial
:class:`repro.fleet.report.FleetReport` via ``aggregate_partial``.
Journals only ever grow, so successive status snapshots have monotone
non-decreasing device counts; once every device is present the partial
path collapses to the exact :func:`repro.fleet.report.aggregate`, making
the final streamed report byte-identical to a batch ``pcm-scrub fleet``
run of the same spec.  Each snapshot also carries service health: queue
depth, live/stale worker counts, and mean shard latency from the
``.done`` markers.
"""

from __future__ import annotations

import json
import math
import time as _time

from ..fleet.report import aggregate, aggregate_partial, merge_records
from ..screen import compose_screened_report
from . import leases
from .jobs import load_campaign


def campaign_status(
    root,
    lease_timeout: float = leases.DEFAULT_LEASE_TIMEOUT,
    include_report: bool = True,
) -> dict:
    """One JSON-able snapshot of campaign progress.

    ``report`` is the partial (or, when finished, final) fleet report as
    a dict, or ``None`` while no device has completed yet.  For screened
    campaigns ``devices_total`` counts the *escalated* subset (the
    service's MC work), ``screen`` summarizes the surrogate plan, and the
    finished ``report`` is the composed
    :class:`~repro.screen.ScreenedFleetReport`; partial snapshots report
    the MC subset only.
    """
    campaign = load_campaign(root)
    shard_rows = []
    all_records = {}
    shard_latencies = []
    queue_depth = 0
    workers_alive = 0
    workers_stale = 0
    for shard in campaign.shards:
        records = campaign.shard_records(shard)
        all_records = merge_records(all_records, records)
        complete = len(records) == shard.count
        lease = leases.load_lease(campaign.lease_path(shard))
        if complete:
            state = "complete"
        elif lease is None:
            state = "queued"
            queue_depth += 1
        elif lease.is_stale(lease_timeout):
            state = "stalled"
            workers_stale += 1
        else:
            state = "running"
            workers_alive += 1
        marker = campaign.marker_path(shard)
        wall = None
        if marker.exists():
            try:
                wall = float(json.loads(marker.read_text())["wall_seconds"])
                shard_latencies.append(wall)
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                wall = None
        shard_rows.append(
            {
                "shard": shard.shard_id,
                "range": [shard.start, shard.stop],
                "done": len(records),
                "total": shard.count,
                "state": state,
                "worker": lease.worker if lease is not None else None,
                "heartbeat_age": (
                    round(lease.age(), 3) if lease is not None else None
                ),
                "wall_seconds": wall,
            }
        )

    targets = campaign.target_indices
    devices_done = len(all_records)
    finished = devices_done == len(targets)
    mean_latency = (
        math.fsum(shard_latencies) / len(shard_latencies)
        if shard_latencies
        else None
    )

    report = None
    if include_report:
        if campaign.screen is not None and finished:
            report = compose_screened_report(
                campaign.spec, campaign.screen, all_records.values()
            ).to_dict()
        elif all_records:
            report = aggregate_partial(campaign.spec, all_records.values()).to_dict()

    screen_summary = None
    if campaign.screen is not None:
        screen_summary = {
            "devices": campaign.screen.devices,
            "counts": campaign.screen.counts(),
            "mc_fraction": campaign.screen.mc_fraction,
        }

    return {
        "name": campaign.spec.name,
        "spec_hash": campaign.spec_hash,
        "devices_done": devices_done,
        "devices_total": len(targets),
        "finished": finished,
        "queue_depth": queue_depth,
        "workers_alive": workers_alive,
        "workers_stale": workers_stale,
        "shard_wall_seconds_mean": mean_latency,
        "screen": screen_summary,
        "shards": shard_rows,
        "report": report,
    }


def final_report(root):
    """The completed campaign's report.

    A :class:`~repro.fleet.report.FleetReport` for full-MC campaigns, a
    :class:`~repro.screen.ScreenedFleetReport` for screened ones.
    Raises :class:`~repro.fleet.report.FleetInvariantError` (or
    :class:`~repro.screen.ScreenInvariantError`) while any target device
    is still missing - use :func:`campaign_status` for partials.
    """
    campaign = load_campaign(root)
    all_records = {}
    for shard in campaign.shards:
        all_records = merge_records(all_records, campaign.shard_records(shard))
    if campaign.screen is not None:
        return compose_screened_report(
            campaign.spec, campaign.screen, all_records.values()
        )
    return aggregate(campaign.spec, all_records.values())


def watch_campaign(
    root,
    interval: float = 1.0,
    timeout: float | None = None,
    on_status=None,
    lease_timeout: float = leases.DEFAULT_LEASE_TIMEOUT,
) -> dict:
    """Poll ``campaign_status`` until the campaign finishes.

    Calls ``on_status(status)`` after every poll (the CLI prints a
    progress line from it); returns the final status.  ``timeout`` bounds
    the wait in seconds; expiry raises :class:`TimeoutError` so a wedged
    campaign is loud, not silent.
    """
    deadline = None if timeout is None else _time.monotonic() + timeout
    while True:
        status = campaign_status(root, lease_timeout=lease_timeout)
        if on_status is not None:
            on_status(status)
        if status["finished"]:
            return status
        if deadline is not None and _time.monotonic() > deadline:
            raise TimeoutError(
                f"campaign {status['name']} not finished after {timeout}s "
                f"({status['devices_done']}/{status['devices_total']} devices)"
            )
        _time.sleep(interval)


def repair_campaign(
    root, lease_timeout: float = leases.DEFAULT_LEASE_TIMEOUT
) -> dict:
    """Re-queue dead workers' shards and sweep orphaned snapshots.

    Breaks every stale lease (freeing those shards for the next worker
    scan) and deletes snapshots for devices the journals already record
    as complete - the kill-between-append-and-unlink leftovers.  Live
    leases and snapshots of genuinely in-flight devices are untouched,
    so repair is safe to run at any time, including while workers run.
    """
    campaign = load_campaign(root)
    freed = []
    for shard in campaign.shards:
        broken = leases.break_if_stale(campaign.lease_path(shard), lease_timeout)
        if broken is not None:
            freed.append(
                {
                    "shard": shard.shard_id,
                    "worker": broken.worker,
                    "heartbeat_age": round(broken.age(), 3),
                }
            )
    swept = []
    done_indices = set()
    for shard in campaign.shards:
        done_indices.update(campaign.shard_records(shard))
    for path in sorted(campaign.snapshots_dir.glob("device-*.npz")):
        try:
            index = int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            continue
        if index in done_indices:
            path.unlink(missing_ok=True)
            swept.append(index)
    return {"leases_broken": freed, "snapshots_swept": swept}
