"""Structured event tracing.

The simulation engine and the scrub policies emit *typed* events - each
event name has a declared field set (:data:`EVENT_FIELDS`) and tracers
validate emissions against it, so a trace is a schema'd record of what the
scrubber observed and did, not free-form logging.

Two tracer implementations share the tiny :class:`Tracer` interface:

* the base :class:`Tracer` (shared as :data:`NULL_TRACER`) - the default;
  ``enabled`` is ``False`` so hot paths skip even building the event
  payload;
* :class:`RecordingTracer` - appends events to an in-memory list.  This is
  what runs inside (possibly worker) processes: the list rides back on
  :class:`repro.sim.results.RunResult` and is merged/persisted by the
  parent.

:func:`merge_traces` interleaves per-run event lists deterministically
(by time, then run order, then per-run sequence), so a sweep's merged
trace is identical whether the runs executed serially or on a pool.
:func:`write_trace` publishes an event list as a JSONL file, one JSON
object per line, through :func:`repro.durable.atomic_write`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path

from ..durable import atomic_write

#: Event schema: required payload fields per event type (beyond the
#: implicit ``event``/``t``/``seq`` every record carries).  Emissions may
#: add extra fields; missing required fields or unknown event names raise.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    #: One scrub pass over a region: what the hardware observed and did.
    "scrub_visit": (
        "region",
        "lines",
        "errors",
        "max_errors",
        "decoded",
        "written_back",
        "uncorrectable",
        "next_interval",
    ),
    #: Lines found uncorrectable (at a scrub visit or a demand read).
    "uncorrectable": ("region", "count"),
    #: Lines retired to spares.
    "retire": ("region", "count"),
    #: Spare-pool grant for a retirement request.
    "spare_allocated": ("region", "requested", "granted"),
    #: Poisson demand writes replayed against a region since its last visit.
    "demand_burst": ("region", "lines", "writes"),
    #: An adaptive policy moved a region's scrub interval.
    "interval_adapted": ("region", "action", "interval", "worst"),
    #: Fast-forward folded ``skipped`` consecutive zero-error visits of a
    #: region into one bulk charge and resumed at ``to_time``.
    "fast_forward": ("region", "skipped", "to_time"),
    #: Fast-forward stood down (once per run per cause: ``read_refresh``,
    #: ``policy``, ``demand``, ``detector_interleaving``).
    "fast_forward_disabled": ("reason",),
    #: Trace header (once per run, at t=0): which visit engine produced the
    #: run (``scalar`` or ``batch``), so downstream tooling can tell traces
    #: apart.
    "engine_mode": ("engine",),
}


def _validate(event: str, fields: dict) -> None:
    try:
        required = EVENT_FIELDS[event]
    except KeyError:
        raise ValueError(
            f"unknown trace event {event!r}; known: {sorted(EVENT_FIELDS)}"
        ) from None
    missing = [name for name in required if name not in fields]
    if missing:
        raise ValueError(f"event {event!r} missing fields {missing}")


class Tracer:
    """No-op base tracer.

    ``enabled`` is the hot-path guard: emitters check it before building
    the event payload, so a disabled tracer costs one attribute read.
    """

    enabled: bool = False

    def emit(self, event: str, time: float, **fields) -> None:
        """Record one event at simulated ``time``."""


#: Shared default instance; safe because the null tracer is stateless.
NULL_TRACER = Tracer()


class RecordingTracer(Tracer):
    """Collects events as plain dicts, in emission order.

    Each record carries ``event``, ``t`` (simulated seconds), ``seq`` (a
    per-tracer emission counter - the deterministic tiebreak for merges),
    and the event's payload fields.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: str, time: float, **fields) -> None:
        _validate(event, fields)
        self.events.append(
            {"event": event, "t": float(time), "seq": len(self.events), **fields}
        )


def write_trace(events: Iterable[dict], path: str | Path) -> int:
    """Publish recorded events at ``path`` as JSONL; returns the line count."""
    lines = [json.dumps(event) + "\n" for event in events]
    atomic_write(path, "".join(lines).encode())
    return len(lines)


def merge_traces(traces: Sequence[Sequence[dict] | None]) -> list[dict]:
    """Deterministically interleave per-run traces into one event list.

    Each event gains a ``run`` index (position in ``traces``); the merged
    order is by ``(t, run, seq)``, which depends only on the events
    themselves - never on worker placement - so serial and pooled sweeps
    merge identically.  ``None`` entries (runs without tracing) are skipped.
    """
    merged: list[dict] = []
    for run, events in enumerate(traces):
        if not events:
            continue
        merged.extend({**event, "run": run} for event in events)
    merged.sort(key=lambda e: (e["t"], e["run"], e["seq"]))
    return merged
