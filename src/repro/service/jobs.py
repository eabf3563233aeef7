"""Campaign directories: the on-disk job format the service executes.

``submit_campaign`` turns a :class:`repro.fleet.spec.FleetSpec` into a
self-describing directory; everything after that - workers, status,
repair - operates on the directory alone, so any process on any host
sharing the filesystem can participate:

.. code-block:: text

    <root>/
      spec.json              # the FleetSpec + its content hash
      plan.json              # deterministic shard plan (shards.py)
      screen.json            # screen plan (screened campaigns only)
      shards/shard-0000.jsonl   # per-shard checkpoint journal
      shards/shard-0000.done    # completion marker {wall_seconds, worker}
      leases/shard-0000.json    # live claim (leases.py)
      snapshots/device-00003.npz  # mid-horizon EngineSnapshot, transient

The shard *journals* (append-only, spec-hash-validated) answer status,
resume and reports.  ``.done`` markers and leases answer "which shard
next": a worker skips a marked shard, and a marker is published only
after its shard's last device is journaled and fsynced.  The spec hash
stored in ``spec.json`` binds every journal and snapshot fingerprint to
one campaign, so directories can never silently mix work from two specs.

A campaign submitted with :class:`repro.screen.ScreenConstraints` is a
*screened* campaign: ``screen.json`` records every device's surrogate
classification, and the shard plan covers only the escalated subset -
workers Monte-Carlo exactly those devices, and the final report composes
surrogate expectations with the journaled MC records
(:func:`repro.screen.compose_screened_report`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..durable import atomic_write
from ..fields import array
from ..fleet.checkpoint import device_records, load_journal
from ..fleet.report import DeviceRecord
from ..fleet.spec import FleetSpec
from ..screen import ScreenConstraints, ScreenInvariantError, ScreenPlan, plan_screen
from .shards import CampaignShard, plan_shards, plan_subset_shards

#: Campaign directory format version.
PLAN_VERSION = 1


class ServiceError(RuntimeError):
    """A campaign directory is missing, malformed, or mismatched."""


def write_json(path: Path, payload: dict) -> None:
    """Atomically write one campaign-directory JSON file."""
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=2).encode())


@dataclass(frozen=True)
class Campaign:
    """A loaded campaign directory."""

    root: Path
    spec: FleetSpec
    spec_hash: str
    shards: tuple[CampaignShard, ...]
    #: The screen plan for screened campaigns; ``None`` for full-MC ones.
    screen: ScreenPlan | None = None

    @property
    def target_indices(self) -> tuple[int, ...]:
        """Device indices the service Monte-Carlos (the whole fleet, or
        the screened campaign's escalated subset)."""
        if self.screen is not None:
            return self.screen.escalated
        return tuple(range(self.spec.devices))

    # -- paths ----------------------------------------------------------------

    @property
    def shards_dir(self) -> Path:
        return self.root / "shards"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def snapshots_dir(self) -> Path:
        return self.root / "snapshots"

    @property
    def screen_path(self) -> Path:
        return self.root / "screen.json"

    def journal_path(self, shard: CampaignShard) -> Path:
        return self.shards_dir / f"{shard.name}.jsonl"

    def marker_path(self, shard: CampaignShard) -> Path:
        return self.shards_dir / f"{shard.name}.done"

    def lease_path(self, shard: CampaignShard) -> Path:
        return self.leases_dir / f"{shard.name}.json"

    def snapshot_path(self, index: int) -> Path:
        return self.snapshots_dir / f"device-{index:05d}.npz"

    def device_fingerprint(self, index: int) -> str:
        """Binds a mid-horizon snapshot to this campaign and device."""
        return f"{self.spec_hash}/device-{index}"

    # -- progress -------------------------------------------------------------

    def shard_records(self, shard: CampaignShard) -> dict[int, DeviceRecord]:
        """Completed device records journaled for ``shard`` (may be empty)."""
        path = self.journal_path(shard)
        if not path.exists():
            return {}
        _, journaled = load_journal(path, expected_hash=self.spec_hash)
        for index in journaled:
            if index not in shard.indices:
                raise ServiceError(
                    f"{path} holds device {index}, outside shard "
                    f"[{shard.start}, {shard.stop})"
                )
        return device_records(path, journaled)


def submit_campaign(
    spec: FleetSpec,
    root: str | Path,
    shards: int,
    constraints: ScreenConstraints | None = None,
) -> Campaign:
    """Create (or idempotently re-open) a campaign directory for ``spec``.

    With ``constraints`` the campaign is *screened*: the surrogate plan
    is computed up front, persisted as ``screen.json``, and the shard
    plan covers only the escalated device subset (possibly no shards at
    all when the surrogate resolves every device).

    Re-submitting the same spec (and constraints) to an existing
    directory is a no-op that returns the existing campaign - the
    natural "resubmit after a crash" flow.  A *different* spec (by
    content hash), different constraints, or a different shard count is
    refused: a directory belongs to exactly one plan.
    """
    root = Path(root)
    spec_hash = spec.content_hash()
    screen = None if constraints is None else plan_screen(spec, constraints)
    if screen is None:
        plan = plan_shards(spec.devices, shards)
    elif screen.escalated:
        plan = plan_subset_shards(screen.escalated, shards)
    else:
        plan = []

    spec_path = root / "spec.json"
    plan_path = root / "plan.json"
    if spec_path.exists():
        existing = load_campaign(root)
        if existing.spec_hash != spec_hash:
            raise ServiceError(
                f"{root} already holds campaign {existing.spec_hash[:12]}; "
                f"refusing to overwrite with {spec_hash[:12]}"
            )
        existing_screen = (
            None if existing.screen is None else existing.screen.to_dict()
        )
        if existing_screen != (None if screen is None else screen.to_dict()):
            raise ServiceError(
                f"{root} was submitted with different screening constraints; "
                "a directory belongs to exactly one screen plan"
            )
        if [s.to_dict() for s in existing.shards] != [s.to_dict() for s in plan]:
            raise ServiceError(
                f"{root} was planned with {len(existing.shards)} shards; "
                f"resubmit with the same count (got {len(plan)})"
            )
        return existing

    root.mkdir(parents=True, exist_ok=True)
    for sub in ("shards", "leases", "snapshots"):
        (root / sub).mkdir(exist_ok=True)
    write_json(
        spec_path, {"spec_hash": spec_hash, "spec": spec.to_dict()}
    )
    if screen is not None:
        write_json(root / "screen.json", screen.to_dict())
    write_json(
        plan_path,
        {
            "version": PLAN_VERSION,
            "spec_hash": spec_hash,
            "devices": spec.devices,
            "shards": [shard.to_dict() for shard in plan],
        },
    )
    return Campaign(
        root=root, spec=spec, spec_hash=spec_hash, shards=tuple(plan),
        screen=screen,
    )


#: What ``json`` and the ``from_dict`` constructors raise on malformed
#: content (``JSONDecodeError`` and ``UnicodeDecodeError`` are ``ValueError``).
_MALFORMED = (
    LookupError, TypeError, ValueError, AttributeError, ArithmeticError,
    ScreenInvariantError,
)


def load_campaign(root: str | Path) -> Campaign:
    """Load a submitted campaign directory, validating its internal hash.

    Missing or malformed metadata raises :class:`ServiceError`.
    """
    root = Path(root)
    try:
        return _load_campaign(root)
    except FileNotFoundError as error:
        raise ServiceError(
            f"{root} is not a campaign directory (missing {error.filename})"
        ) from None
    except _MALFORMED as error:
        raise ServiceError(
            f"corrupt campaign metadata under {root}: {error!r}"
        ) from error


def _load_campaign(root: Path) -> Campaign:
    spec_path = root / "spec.json"
    plan_path = root / "plan.json"
    spec_payload = json.loads(spec_path.read_text())
    plan_payload = json.loads(plan_path.read_text())

    if plan_payload.get("version") != PLAN_VERSION:
        raise ServiceError(
            f"{plan_path} has plan version {plan_payload.get('version')!r}; "
            f"this build reads version {PLAN_VERSION}"
        )
    spec = FleetSpec.from_dict(spec_payload["spec"])
    spec_hash = spec.content_hash()
    if spec_payload.get("spec_hash") != spec_hash:
        raise ServiceError(
            f"{spec_path} does not hash to its recorded spec_hash; "
            "the spec file was edited after submission"
        )
    if plan_payload.get("spec_hash") != spec_hash:
        raise ServiceError(f"{plan_path} belongs to a different spec")

    screen = None
    screen_path = root / "screen.json"
    if screen_path.exists():
        screen = ScreenPlan.from_dict(json.loads(screen_path.read_text()))
        if screen.spec_hash != spec_hash:
            raise ServiceError(f"{screen_path} belongs to a different spec")
        if screen.devices != spec.devices:
            raise ServiceError(
                f"{screen_path} covers {screen.devices} devices, "
                f"spec has {spec.devices}"
            )

    shards = array(CampaignShard.from_dict)(plan_payload["shards"], "shards")
    expected = (
        list(range(spec.devices)) if screen is None else list(screen.escalated)
    )
    # Counts first: a malformed shard can span far more indices than exist.
    if sum(shard.count for shard in shards) != len(expected) or [
        index for shard in shards for index in shard.indices
    ] != expected:
        what = (
            f"0..{spec.devices - 1}"
            if screen is None
            else "the screened campaign's escalated subset"
        )
        raise ServiceError(f"{plan_path} shards do not tile {what}")
    return Campaign(
        root=root, spec=spec, spec_hash=spec_hash, shards=shards, screen=screen
    )
