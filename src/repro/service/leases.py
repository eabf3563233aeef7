"""Shard leases: exclusive-create claim files with heartbeats.

A worker claims a shard by publishing ``leases/<shard>.json`` with an
exclusive :func:`repro.durable.atomic_write` - the filesystem
arbitrates, exactly one claimant wins.  While it holds the shard it
refreshes the lease's ``heartbeat`` timestamp through an atomic
rewrite, so readers never see a torn lease.  A lease whose heartbeat is
older than the timeout (or whose pid is provably dead on this host) is
*stale*: any worker - or an explicit ``pcm-scrub repair`` - may break it
and re-queue the shard.

The steal path (read, judge stale, unlink, re-acquire) has a classic
window: between the staleness read and the unlink, the original owner
could refresh.  That race is accepted deliberately rather than papered
over, because the journal layer makes it harmless: device records are
deterministic functions of ``(spec, index)`` and journals key by device
index, so two workers transiently driving one shard duplicate compute
but can never corrupt the record set or change the final report.  The
timeout only trades re-work latency against the odds of that window.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path

from ..durable import atomic_write
from ..fields import dump, load

#: Seconds without a heartbeat before a lease is presumed dead.  Workers
#: heartbeat at every device completion *and* every mid-device snapshot
#: checkpoint, so a healthy worker refreshes far more often than this.
DEFAULT_LEASE_TIMEOUT = 30.0


@dataclass(frozen=True)
class Lease:
    """The claim record stored in a lease file."""

    worker: str
    pid: int
    host: str
    acquired: float
    heartbeat: float

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "Lease":
        return load(cls, data, path)

    def age(self, now: float | None = None) -> float:
        return (time.time() if now is None else now) - self.heartbeat

    def is_stale(self, timeout: float, now: float | None = None) -> bool:
        """Heartbeat expired, or the owning process is dead on this host."""
        if self.age(now) > timeout:
            return True
        if self.host == socket.gethostname() and not _pid_alive(self.pid):
            return True
        return False


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def _write_lease(path: Path, lease: Lease, exclusive: bool) -> None:
    atomic_write(
        path, json.dumps(lease.to_dict(), sort_keys=True).encode(), exclusive
    )


def try_acquire(path: str | Path, worker: str) -> Lease | None:
    """Claim the lease file exclusively; ``None`` when someone holds it."""
    path = Path(path)
    if path.exists():
        # Polling workers retry held leases constantly; losing costs a
        # stat, not the fsynced temp file the exclusive write would make.
        return None
    now = time.time()
    lease = Lease(
        worker=worker,
        pid=os.getpid(),
        host=socket.gethostname(),
        acquired=now,
        heartbeat=now,
    )
    try:
        _write_lease(path, lease, exclusive=True)
    except FileExistsError:
        return None
    return lease


def refresh(path: str | Path, lease: Lease) -> Lease:
    """Atomically bump the lease's heartbeat."""
    path = Path(path)
    refreshed = Lease(
        worker=lease.worker,
        pid=lease.pid,
        host=lease.host,
        acquired=lease.acquired,
        heartbeat=time.time(),
    )
    _write_lease(path, refreshed, exclusive=False)
    return refreshed


def read_lease(path: str | Path) -> Lease | None:
    """Parse a lease file; ``None`` when absent or unreadable."""
    try:
        data = json.loads(Path(path).read_text())
        return Lease.from_dict(data)
    except (OSError, ValueError):  # JSONDecodeError and FieldError included
        return None


def release(path: str | Path) -> None:
    Path(path).unlink(missing_ok=True)


def break_if_stale(
    path: str | Path, timeout: float = DEFAULT_LEASE_TIMEOUT
) -> Lease | None:
    """Remove the lease if its holder looks dead; return the broken lease.

    Returns ``None`` when the lease is absent or still fresh.  Losing an
    unlink race with another breaker is fine - the shard just becomes
    claimable either way.
    """
    path = Path(path)
    lease = read_lease(path)
    if lease is None or not lease.is_stale(timeout):
        return None
    try:
        path.unlink()
    except FileNotFoundError:
        return None
    return lease
