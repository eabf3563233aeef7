"""Durable campaign checkpoints: an append-only JSONL journal.

A campaign writes one journal per run: a header record binding the file
to the spec's content hash, then one record per completed device, in
completion order.  The header is published whole and each record is a
single fsynced line append (:mod:`repro.durable`), so a reader never
finds a journal present but empty, and a killed campaign leaves at
worst one torn trailing line - which :func:`load_journal` detects and
drops, everything before it being intact.

On ``--resume`` the header hash is revalidated against the spec, so a
journal can never silently mix devices from two different campaigns; a
mismatch is a hard :class:`CheckpointError`.  Resume aggregation reads
completed devices back *from the journal* (not from memory), which is
what makes a resumed campaign's report bit-identical to an
uninterrupted one: both aggregate the same serialized records.
"""

from __future__ import annotations

import json
from contextlib import suppress
from pathlib import Path

from ..durable import append_line, atomic_write
from .report import DeviceRecord

#: Journal format version (independent of the spec version).
JOURNAL_VERSION = 1


class CheckpointError(RuntimeError):
    """The journal is unusable: wrong spec, wrong version, or corrupt."""


def _header(spec_hash: str, name: str) -> bytes:
    record = {
        "kind": "header",
        "version": JOURNAL_VERSION,
        "name": name,
        "spec_hash": spec_hash,
    }
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def write_header(path: str | Path, spec_hash: str, name: str) -> None:
    """Create (or replace) the journal holding just its header record."""
    atomic_write(path, _header(spec_hash, name))


def open_journal(path: str | Path, spec_hash: str, name: str) -> dict[int, dict]:
    """Ready a journal for appends; returns the device records it holds.

    An absent journal is created holding just its header - exclusively,
    so racing openers agree on one file.  An existing one is loaded and
    its spec hash checked; a torn final line left by a killed append is
    cut off, so the next append starts a line of its own.
    """
    with suppress(FileExistsError):
        atomic_write(path, _header(spec_hash, name), exclusive=True)
        return {}
    _, devices = load_journal(path, expected_hash=spec_hash)
    data = Path(path).read_bytes()
    if not data.endswith(b"\n"):
        atomic_write(path, data[: data.rfind(b"\n") + 1])
    return devices


def append_device(path: str | Path, record: dict) -> None:
    """Append one completed-device record as a single fsynced line."""
    append_line(path, json.dumps({"kind": "device", **record}, sort_keys=True))


def append_pending(path: str | Path, indices: list[int]) -> None:
    """Journal the device indices an ``--until`` stop left unfinished.

    Purely informational: :func:`load_journal` skips ``pending`` records,
    so a later resume recomputes the remaining set from the spec exactly
    as it would after a crash.  The record exists so ``status`` tooling
    (and humans reading the journal) can tell a deliberate early stop
    from an interrupted run.
    """
    record = {"kind": "pending", "indices": sorted(int(i) for i in indices)}
    append_line(path, json.dumps(record, sort_keys=True))


def load_journal(
    path: str | Path, expected_hash: str | None = None
) -> tuple[dict, dict[int, dict]]:
    """Parse a journal into ``(header, {device_index: record})``.

    A torn *final* line (the kill-mid-append case) is dropped silently;
    any other malformed content - corruption before the final line, a
    missing or alien header, an unsupported version, a record that is
    not an object or whose index is not an integer - and a ``spec_hash``
    mismatch raise :class:`CheckpointError`.
    """
    path = Path(path)
    try:
        lines = path.read_bytes().decode().splitlines()
    except UnicodeDecodeError:
        raise CheckpointError(f"checkpoint {path} is not UTF-8 text") from None
    if not lines:
        raise CheckpointError(f"checkpoint {path} is empty")

    parsed: list[dict] = []
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines) - 1:
                break  # torn tail from a killed append; everything before is good
            raise CheckpointError(
                f"checkpoint {path} line {number + 1} is corrupt "
                "(not the final line, so this is not a torn append)"
            ) from None
        if not isinstance(record, dict):
            raise CheckpointError(
                f"checkpoint {path} line {number + 1} is not a JSON object"
            )
        parsed.append(record)

    if not parsed or parsed[0].get("kind") != "header":
        raise CheckpointError(f"checkpoint {path} does not start with a header")
    header = parsed[0]
    if header.get("version") != JOURNAL_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has journal version {header.get('version')!r}; "
            f"this build reads version {JOURNAL_VERSION}"
        )
    if expected_hash is not None and header.get("spec_hash") != expected_hash:
        raise CheckpointError(
            f"checkpoint {path} was written for a different campaign spec "
            f"(journal {header.get('spec_hash')!r}, expected {expected_hash!r}); "
            "refusing to mix campaigns"
        )

    devices: dict[int, dict] = {}
    for number, record in enumerate(parsed[1:], start=2):
        if record.get("kind") == "pending":
            continue  # informational --until marker; remaining work is recomputed
        index = record.get("index")
        if record.get("kind") != "device" or type(index) is not int:
            raise CheckpointError(
                f"checkpoint {path} line {number} is not a device record"
            )
        devices[index] = record
    return header, devices


def device_records(path: str | Path, journaled: dict[int, dict]) -> dict[int, DeviceRecord]:
    """Convert :func:`load_journal`'s device records; a bad one raises CheckpointError."""
    records = {}
    for index, record in journaled.items():
        try:
            records[index] = DeviceRecord.from_dict(record)
        except ValueError as error:
            raise CheckpointError(
                f"checkpoint {path} device {index} is malformed: {error}"
            ) from None
    return records
