"""The ``serve`` supervisor: a worker pool with crash detection.

``serve_campaign`` spawns N worker processes (spawn context - same
bit-identical-under-parallelism regime as :mod:`repro.sim.parallel`)
over one campaign directory and waits on their exits.  It reads no
journal while they run, because each question it asks has a cheaper
answer:

* which shard next - the ``.done`` markers and leases each worker scans;
  a marker is published only after its shard's last device is journaled
  and fsynced, so it never claims more than the journal holds;
* is ``serve`` done - a worker's exit code: it exits 0 only once it has
  found every shard marked complete;
* status, resume and the report - the journals, read by one
  :func:`repro.service.status.campaign_status` call after the workers
  are gone.

A worker that dies - any nonzero exit, including SIGKILL - gets its
shards re-queued through :func:`repro.service.status.repair_campaign`
and is replaced, up to ``max_restarts`` replacements total.  Because
every worker checkpoints each device mid-horizon and journals each
completed device durably, a replacement resumes from at most
``snapshot_budget`` events of lost work; the final report is
byte-identical to an undisturbed run.  When the journals still hold
pending devices after the workers are gone, ``serve_campaign`` raises
so operators see a wedged campaign instead of a silent partial result.
"""

from __future__ import annotations

import logging
import multiprocessing
from multiprocessing.connection import wait

from ..sim.snapshot import DEFAULT_SNAPSHOT_BUDGET
from . import leases
from .jobs import load_campaign
from .status import campaign_status, repair_campaign
from .worker import run_worker

logger = logging.getLogger(__name__)

#: Replacement workers the supervisor will spawn before giving up.
DEFAULT_MAX_RESTARTS = 3


class ServeFailed(RuntimeError):
    """Devices were still pending once the supervised workers were gone."""


def _worker_main(
    root: str,
    worker_id: str,
    lease_timeout: float,
    snapshot_budget: int,
) -> None:
    run_worker(
        root,
        worker_id=worker_id,
        lease_timeout=lease_timeout,
        snapshot_budget=snapshot_budget,
    )


def serve_campaign(
    root,
    workers: int = 2,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    lease_timeout: float = leases.DEFAULT_LEASE_TIMEOUT,
    snapshot_budget: int = DEFAULT_SNAPSHOT_BUDGET,
) -> dict:
    """Run the campaign under a supervised worker pool; return a summary.

    Raises :class:`ServeFailed` when devices are still pending once the
    workers are gone.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts!r}")
    campaign = load_campaign(root)
    context = multiprocessing.get_context("spawn")

    def spawn(index: int, generation: int):
        process = context.Process(
            target=_worker_main,
            args=(
                str(root),
                f"serve-{index}g{generation}",
                lease_timeout,
                snapshot_budget,
            ),
            daemon=True,
        )
        process.start()
        return process

    pool = {index: spawn(index, 0) for index in range(workers)}
    generations = {index: 0 for index in range(workers)}
    restarts = 0
    deaths = 0
    try:
        while pool:
            ready = wait([process.sentinel for process in pool.values()])
            index = next(i for i, p in pool.items() if p.sentinel in ready)
            process = pool.pop(index)
            process.join()
            if process.exitcode == 0:
                # run_worker returns only once every shard is marked complete.
                break
            deaths += 1
            logger.warning(
                "serve: worker %d died (exit %s); repairing and %s",
                index, process.exitcode,
                "replacing" if restarts < max_restarts else "NOT replacing",
            )
            repair_campaign(root, lease_timeout=lease_timeout)
            if restarts < max_restarts:
                restarts += 1
                generations[index] += 1
                pool[index] = spawn(index, generations[index])
    finally:
        for process in pool.values():
            process.join(timeout=2 * lease_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)

    status = campaign_status(root, lease_timeout=lease_timeout,
                             include_report=False)
    if not status["finished"]:
        raise ServeFailed(
            f"campaign {campaign.spec.name}: all workers gone with "
            f"{status['devices_total'] - status['devices_done']} devices "
            f"pending ({deaths} worker deaths, restart budget {max_restarts})"
        )
    return {
        "finished": status["finished"],
        "devices_done": status["devices_done"],
        "devices_total": status["devices_total"],
        "workers": workers,
        "worker_deaths": deaths,
        "restarts": restarts,
    }
