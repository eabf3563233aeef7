"""Mid-horizon engine snapshots: suspend a device run, resume it bit-exactly.

A multi-year-horizon device simulation is the unit of work the fleet
service schedules, and it can be hours of wall-clock on a busy workload -
far longer than a worker lease.  This module makes the *device* itself
checkpointable: :class:`EngineSnapshot` captures the complete mutable
state of a suspended :class:`repro.sim.population.PopulationEngine` (or
its batch subclass) at an event boundary, and restores it into a freshly
built engine in another process such that the continued run is
**bit-identical** to the uninterrupted one.

Why this is exact
-----------------

Between loop events the engine's behaviour is a pure function of:

* the population order-statistics arrays (``crossing``, ``writes``,
  ``hard_mismatch``, fractional wear, ``lifetime``),
* the per-line last-visit clock,
* the scheduler (heap entries + current time) or, in the batch engine's
  round mode, the per-region round clock,
* the stats ledger (integer counters, the error histogram, and the
  per-category float energy accumulators),
* the policy's mutable state (:meth:`repro.core.policy.ScrubPolicy.state_dict`,
  e.g. the adaptive controller's per-region intervals),
* the spare-pool budget, and
* the ``bit_generator`` state of every named RNG stream.

All of it is captured here.  Arrays travel in an ``.npz`` payload (binary
float64, bitwise-exact); scalars travel in an embedded JSON document
(Python's ``json`` round-trips finite floats exactly via ``repr``).  The
per-region fast-forward caches are deliberately *not* captured: they are
lazily derived from the arrays and rebuilt dirty on resume, with no RNG
involved.

Compatibility guard
-------------------

Snapshots refuse to capture runs with observability or verification
enabled (both hold in-memory event state a resume cannot reconstruct;
fleet devices run with both off).  Each snapshot embeds a format version
and a caller-supplied *fingerprint* (the service uses
``"<spec-hash>/device-<index>"``).  :meth:`EngineSnapshot.load` refuses a
file it cannot read or of another format version, and
:meth:`EngineSnapshot.apply` refuses fingerprint, engine-mode, or
geometry mismatches rather than resuming into a different experiment.
:func:`run_resumable` treats the first as absent - the device is
deterministic, so rerunning it from the start gives the same result -
and raises on the second, which points to a mixed-up directory.

Snapshot files are written with :func:`repro.durable.atomic_write`, so
a worker killed mid-save leaves the previous snapshot intact, never a
torn one.
"""

from __future__ import annotations

import json
import logging
import time as _time
import zipfile
from pathlib import Path

import numpy as np

from ..core.policy import ScrubPolicy
from ..durable import atomic_write
from ..core.scheduler import ScrubScheduler
from ..pcm.energy import LEDGER_CATEGORIES
from ..workloads.generators import DemandRates
from .config import SimulationConfig
from .population import PopulationEngine
from .results import RunResult
from .runner import build_engine, finalize_result

logger = logging.getLogger(__name__)

#: Snapshot format version; bumped on any layout or semantics change.
SNAPSHOT_VERSION = 1

#: Integer counters of :class:`repro.core.stats.ScrubStats` captured
#: verbatim (the histogram and ledger are handled separately).
_STATS_COUNTERS = (
    "uncorrectable",
    "visits_with_errors",
    "visits",
    "detector_misses",
    "retired",
    "demand_writes",
    "partial_cells",
)


class SnapshotError(RuntimeError):
    """The engine cannot be snapshotted, or a snapshot cannot be applied."""


class EngineSnapshot:
    """Complete suspended-engine state: JSON metadata + binary arrays."""

    def __init__(self, meta: dict, arrays: dict[str, np.ndarray]):
        self.meta = meta
        self.arrays = arrays

    # -- capture --------------------------------------------------------------

    @classmethod
    def capture(cls, engine: PopulationEngine, fingerprint: str) -> "EngineSnapshot":
        """Snapshot a suspended engine (after ``simulate(budget=...)``)."""
        if engine.obs is not None:
            raise SnapshotError(
                "cannot snapshot a run with observability enabled: traces "
                "and time series hold in-memory state a resume cannot rebuild"
            )
        if engine._verifier.enabled:
            raise SnapshotError(
                "cannot snapshot a run with invariant verification enabled"
            )
        if engine.complete:
            raise SnapshotError("engine already ran to completion")
        if not engine._prepared:
            raise SnapshotError(
                "engine has not started; call simulate(budget=...) first"
            )

        population = engine.population
        stats = engine.stats
        ledger = stats.ledger

        meta: dict = {
            "version": SNAPSHOT_VERSION,
            "fingerprint": fingerprint,
            "engine_mode": engine.engine_mode,
            "batch_mode": cls._batch_mode(engine),
            "scheduler": (
                engine._scheduler.state() if engine._scheduler is not None else None
            ),
            "streams": {
                name: generator.bit_generator.state
                for name, generator in engine.streams._streams.items()
            },
            "policy": engine.policy.state_dict(),
            "stats": {key: int(getattr(stats, key)) for key in _STATS_COUNTERS},
            "ledger_counts": {
                key: int(ledger.counts[key]) for key in LEDGER_CATEGORIES
            },
            "fast_forward_skipped_visits": int(engine.fast_forward_skipped_visits),
            "fast_forward_jumps": int(engine.fast_forward_jumps),
            "ff_disabled_reported": sorted(engine._ff_disabled_reported),
        }
        arrays: dict[str, np.ndarray] = {
            "crossing": population.crossing,
            "writes": population.writes,
            "hard_mismatch": population.hard_mismatch,
            "fractional_wear": population._fractional_wear,
            "lifetime": population.lifetime,
            "last_visit": engine._last_visit,
            "error_histogram": stats.error_histogram,
            "ledger_energy": np.array(
                [ledger.energy[key] for key in LEDGER_CATEGORIES]
            ),
        }
        round_times = getattr(engine, "_round_times", None)
        if round_times is not None:
            arrays["round_times"] = round_times
        if engine.spare_pool is not None:
            arrays["spare_used"] = engine.spare_pool.used
            meta["spare_refused"] = int(engine.spare_pool.refused)
        return cls(meta, {key: np.array(value) for key, value in arrays.items()})

    @staticmethod
    def _batch_mode(engine: PopulationEngine) -> str:
        """Which loop drives the run: the batch engine's round clock, or
        the heap scheduler of the scalar walk (which the batch engine also
        takes for policies without a batch interval)."""
        if engine.engine_mode == "batch" and engine.policy.batch_interval() is not None:
            return "rounds"
        return "heap"

    # -- restore --------------------------------------------------------------

    def apply(self, engine: PopulationEngine, fingerprint: str) -> None:
        """Restore this snapshot into a freshly built, unstarted engine."""
        meta = self.meta
        if meta["fingerprint"] != fingerprint:
            raise SnapshotError(
                f"snapshot belongs to {meta['fingerprint']!r}, not "
                f"{fingerprint!r}; refusing to resume a different run"
            )
        if meta["engine_mode"] != engine.engine_mode:
            raise SnapshotError(
                f"snapshot was taken by the {meta['engine_mode']!r} engine, "
                f"resume target is {engine.engine_mode!r}"
            )
        if meta["batch_mode"] != self._batch_mode(engine):
            raise SnapshotError(
                "snapshot and resume target disagree on the batch driving mode"
            )
        if engine._prepared or engine.complete:
            raise SnapshotError("snapshots restore only into unstarted engines")

        population = engine.population
        expected = {
            "crossing": population.crossing.shape,
            "lifetime": population.lifetime.shape,
            "last_visit": engine._last_visit.shape,
        }
        for key, shape in expected.items():
            if self.arrays[key].shape != shape:
                raise SnapshotError(
                    f"snapshot array {key!r} has shape "
                    f"{self.arrays[key].shape}, engine expects {shape}"
                )

        population.crossing[:] = self.arrays["crossing"]
        population.writes[:] = self.arrays["writes"]
        population.hard_mismatch[:] = self.arrays["hard_mismatch"]
        population._fractional_wear[:] = self.arrays["fractional_wear"]
        population.lifetime[:] = self.arrays["lifetime"]
        engine._last_visit[:] = self.arrays["last_visit"]

        stats = engine.stats
        for key in _STATS_COUNTERS:
            setattr(stats, key, int(meta["stats"][key]))
        stats.error_histogram[:] = self.arrays["error_histogram"]
        ledger = stats.ledger
        energy = self.arrays["ledger_energy"]
        for position, key in enumerate(LEDGER_CATEGORIES):
            ledger.counts[key] = int(meta["ledger_counts"][key])
            ledger.energy[key] = float(energy[position])

        for name, state in meta["streams"].items():
            engine.streams.get(name).bit_generator.state = state
        engine.policy.load_state_dict(meta["policy"])

        if meta["scheduler"] is not None:
            engine._scheduler = ScrubScheduler.from_state(
                engine.num_regions, meta["scheduler"]
            )
        if "round_times" in self.arrays:
            engine._round_times = self.arrays["round_times"].copy()
        if engine.spare_pool is not None:
            if "spare_used" not in self.arrays:
                raise SnapshotError(
                    "engine has a spare pool but the snapshot carries no "
                    "spare state"
                )
            engine.spare_pool.used[:] = self.arrays["spare_used"]
            engine.spare_pool.refused = int(meta["spare_refused"])

        engine.fast_forward_skipped_visits = int(
            meta["fast_forward_skipped_visits"]
        )
        engine.fast_forward_jumps = int(meta["fast_forward_jumps"])
        engine._ff_disabled_reported = set(meta["ff_disabled_reported"])
        # _prepared stays False: the next simulate() re-arms the derived
        # fast-forward caches (deterministic, RNG-free) and skips the
        # scheduler/round-clock setup the restore just provided.

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the snapshot atomically."""
        payload = dict(self.arrays)
        payload["__meta__"] = np.frombuffer(
            json.dumps(self.meta, sort_keys=True).encode(), dtype=np.uint8
        )
        atomic_write(path, lambda handle: np.savez(handle, **payload))

    @classmethod
    def load(cls, path: str | Path) -> "EngineSnapshot":
        """Read a snapshot that :meth:`save` wrote in this build's format."""
        try:
            # np.load leaks the file it opened when the zip directory is
            # bad, so it reads from a handle this ``with`` closes.
            with open(path, "rb") as handle, np.load(handle) as payload:
                arrays = {
                    key: payload[key] for key in payload.files if key != "__meta__"
                }
                meta = json.loads(bytes(payload["__meta__"]).decode())
            version = meta["version"]
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as error:
            raise SnapshotError(f"snapshot {path} is unreadable: {error}") from None
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot {path} has format version {version!r}; this build "
                f"reads version {SNAPSHOT_VERSION}"
            )
        return cls(meta, arrays)


#: Default events (visits/rounds/jumps) between mid-device checkpoints.
DEFAULT_SNAPSHOT_BUDGET = 256


def run_resumable(
    policy: ScrubPolicy,
    config: SimulationConfig,
    rates: DemandRates | None = None,
    *,
    snapshot_path: str | Path,
    fingerprint: str,
    snapshot_budget: int = DEFAULT_SNAPSHOT_BUDGET,
    on_checkpoint=None,
) -> RunResult:
    """Run one device with periodic mid-horizon snapshots.

    If ``snapshot_path`` holds a snapshot this build can read, the run
    resumes from it; otherwise it starts fresh, and an unreadable file is
    deleted with a warning.  A readable snapshot of another run raises
    :class:`SnapshotError`.  Every ``snapshot_budget`` engine events the
    current state is saved atomically (and ``on_checkpoint()`` invoked - the
    service worker heartbeats there), so a SIGKILL at any point loses at
    most one budget's worth of events and the rerun is bit-identical to
    an uninterrupted one.  The snapshot file is left in place on return;
    the caller deletes it after journaling the completed device.
    """
    if snapshot_budget <= 0:
        raise ValueError("snapshot_budget must be positive")
    snapshot_path = Path(snapshot_path)
    engine = build_engine(policy, config, rates)
    started = _time.perf_counter()
    if snapshot_path.exists():
        try:
            snapshot = EngineSnapshot.load(snapshot_path)
        except SnapshotError as error:
            logger.warning("%s; running the device from the start", error)
            snapshot_path.unlink(missing_ok=True)
        else:
            snapshot.apply(engine, fingerprint)
    while True:
        engine.simulate(budget=snapshot_budget)
        if engine.complete:
            break
        EngineSnapshot.capture(engine, fingerprint).save(snapshot_path)
        if on_checkpoint is not None:
            on_checkpoint()
    elapsed = _time.perf_counter() - started
    return finalize_result(engine, policy, config, elapsed)
