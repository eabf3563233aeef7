"""Deterministic shard planning over a fleet's device index space.

A shard is a slice of device indices.  The default form is a contiguous
half-open range ``[start, stop)``; screened campaigns
(:mod:`repro.screen`) instead shard an *explicit subset* - the escalated
device indices - which a shard carries as a sorted ``devices`` tuple.
Both planners use floor apportionment - shard ``k`` of ``n`` over ``d``
items covers positions ``[floor(k*d/n), floor((k+1)*d/n))`` - so a plan
is a pure function of its inputs: sizes differ by at most one, the union
is exactly the input index set, and re-planning with the same arguments
always yields the same slices.

Apportionment stability of the *results* is deeper than the plan:
:meth:`repro.fleet.spec.FleetSpec.device_spec` seeds every device from
``(campaign_seed, index)`` alone, so a device's simulation is identical
no matter which shard - or how many shards - it lands in.  Sharding is
purely an execution concern; the record set (and therefore the report)
is invariant under it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..fields import array, integer, optional, read


@dataclass(frozen=True)
class CampaignShard:
    """One slice of a campaign's device index space.

    With ``devices`` unset the shard covers the contiguous range
    ``[start, stop)``; with it set the shard covers exactly that sorted
    index tuple (the screened-campaign subset form), and ``start`` /
    ``stop`` are its tight bounding range.
    """

    shard_id: int
    start: int
    stop: int
    devices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if not 0 <= self.start < self.stop:
            raise ValueError(
                f"shard {self.shard_id}: need 0 <= start < stop, "
                f"got [{self.start}, {self.stop})"
            )
        if self.devices is not None:
            devices = tuple(int(i) for i in self.devices)
            if not devices:
                raise ValueError(f"shard {self.shard_id}: explicit devices is empty")
            if list(devices) != sorted(set(devices)):
                raise ValueError(
                    f"shard {self.shard_id}: explicit devices must be "
                    "sorted and unique"
                )
            if devices[0] != self.start or devices[-1] != self.stop - 1:
                raise ValueError(
                    f"shard {self.shard_id}: [start, stop) must tightly "
                    f"bound the explicit devices, got [{self.start}, "
                    f"{self.stop}) around {devices[0]}..{devices[-1]}"
                )
            object.__setattr__(self, "devices", devices)

    @property
    def indices(self) -> Sequence[int]:
        return range(self.start, self.stop) if self.devices is None else self.devices

    @property
    def count(self) -> int:
        return self.stop - self.start if self.devices is None else len(self.devices)

    @property
    def name(self) -> str:
        return f"shard-{self.shard_id:04d}"

    def to_dict(self) -> dict:
        out: dict = {"id": self.shard_id, "start": self.start, "stop": self.stop}
        if self.devices is not None:
            out["devices"] = list(self.devices)
        return out

    @classmethod
    def from_dict(cls, data: dict, path: str = "") -> "CampaignShard":
        fields = read(data, path, _SHARD_FIELDS, required=("id", "start", "stop"))
        return cls(shard_id=fields.pop("id"), **fields)


#: A shard's JSON keys; ``id`` names the ``shard_id`` field.
_SHARD_FIELDS = {
    "id": integer,
    "start": integer,
    "stop": integer,
    "devices": optional(array(integer)),
}


def plan_shards(devices: int, shards: int) -> list[CampaignShard]:
    """Split ``devices`` indices into ``shards`` contiguous slices.

    Empty slices are never emitted: asking for more shards than devices
    yields one single-device shard per device.
    """
    if devices <= 0:
        raise ValueError("devices must be positive")
    if shards <= 0:
        raise ValueError("shards must be positive")
    shards = min(shards, devices)
    plan = []
    for k in range(shards):
        start = k * devices // shards
        stop = (k + 1) * devices // shards
        plan.append(CampaignShard(shard_id=k, start=start, stop=stop))
    return plan


def plan_subset_shards(indices: Sequence[int], shards: int) -> list[CampaignShard]:
    """Split an explicit sorted device subset into ``shards`` slices.

    The screened-campaign planner: apportions *positions* in the subset
    exactly like :func:`plan_shards` apportions a contiguous range, so
    the plan is a pure function of ``(indices, shards)``.  Empty slices
    are never emitted.
    """
    subset = [int(i) for i in indices]
    if not subset:
        raise ValueError("subset must be non-empty")
    if subset != sorted(set(subset)) or subset[0] < 0:
        raise ValueError("subset indices must be sorted, unique, non-negative")
    if shards <= 0:
        raise ValueError("shards must be positive")
    shards = min(shards, len(subset))
    plan = []
    for k in range(shards):
        chunk = subset[k * len(subset) // shards : (k + 1) * len(subset) // shards]
        plan.append(
            CampaignShard(
                shard_id=k,
                start=chunk[0],
                stop=chunk[-1] + 1,
                devices=tuple(chunk),
            )
        )
    return plan
