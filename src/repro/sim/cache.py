"""Content-keyed array caches: a bounded in-process LRU over ``.npz`` files.

Crossing-distribution tabulations (:mod:`repro.sim.runner`) and renewal
propagations (:mod:`repro.sim.renewal_batch`) are expensive, deterministic
and reused across runs and processes.  Each is keyed by a content hash of
everything its arrays depend on, so equal keys mean bit-identical arrays,
and each is one :class:`ArrayCache`.  Files live in ``~/.cache/repro``,
or ``REPRO_CACHE_DIR`` when set; ``REPRO_NO_DISK_CACHE`` (any non-empty
value) turns persistence off.

The disk layer is best effort both ways: a failed save is skipped, and an
absent, corrupt, stale (embedded key differs), misshapen, non-finite or
otherwise invalid file is a miss, so the caller recomputes - a bad entry
never becomes a bad number.  Saves go through
:func:`repro.durable.atomic_write`, so racing writers never expose a
partial file.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from ..durable import atomic_write
from ..obs.metrics import GLOBAL_REGISTRY


def cache_dir() -> Path | None:
    """Directory for persisted arrays, or ``None`` when disabled."""
    if os.environ.get("REPRO_NO_DISK_CACHE"):
        return None
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class ArrayCache:
    """A bounded LRU of values in front of ``<prefix>-<key>.npz`` files.

    The LRU holds whatever the owner builds from the arrays; the files
    hold the float arrays named by ``members``.  :meth:`get` and
    :meth:`load` count their hits in ``counters["memory"]`` and
    ``counters["disk"]`` (a registry group named ``name``); the owner
    counts each computation under ``miss``.  ``check`` is the owner's
    extra validity test on loaded arrays.
    """

    def __init__(
        self,
        name: str,
        prefix: str,
        members: Sequence[str],
        capacity: int,
        miss: str,
        check: Callable[..., bool] | None = None,
    ):
        self.prefix = prefix
        self.members = tuple(members)
        self.capacity = capacity
        self.check = check
        self.counters = GLOBAL_REGISTRY.group(name, ("memory", "disk", miss))
        self._memory: OrderedDict[str, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, key: str) -> Any | None:
        """The in-process value for ``key`` (now most recent), or ``None``."""
        value = self._memory.get(key)
        if value is not None:
            self.counters["memory"] += 1
            self._memory.move_to_end(key)
        return value

    def put(self, key: str, value: Any) -> None:
        """Keep ``value`` in process, evicting the least recently used."""
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def path(self, key: str) -> Path | None:
        directory = cache_dir()
        return None if directory is None else directory / f"{self.prefix}-{key}.npz"

    def load(
        self, key: str, shapes: Sequence[tuple[int, ...]]
    ) -> tuple[np.ndarray, ...] | None:
        """The arrays persisted for ``key`` with these shapes, or ``None``."""
        path = self.path(key)
        if path is None:
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                if str(data["key"]) != key:
                    return None
                arrays = tuple(
                    np.asarray(data[member], dtype=np.float64) for member in self.members
                )
        except Exception:
            return None
        if [array.shape for array in arrays] != [tuple(shape) for shape in shapes]:
            return None
        if not all(np.isfinite(array).all() for array in arrays):
            return None
        if self.check is not None and not self.check(*arrays):
            return None
        self.counters["disk"] += 1
        return arrays

    def save(self, key: str, arrays: Sequence[np.ndarray]) -> Path | None:
        """Persist ``arrays`` under ``key``; the path, or ``None`` if skipped."""
        path = self.path(key)
        if path is None:
            return None
        members = dict(zip(self.members, arrays))
        try:
            atomic_write(
                path, lambda handle: np.savez(handle, key=np.array(key), **members)
            )
        except OSError:
            return None
        return path

    def clear(self) -> None:
        """Drop the in-process layer and zero the counters; files stay."""
        self._memory.clear()
        self.counters.reset()
