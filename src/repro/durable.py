"""Crash-safe file writes: the one module that knows the fsync protocol.

Every on-disk store (campaign metadata, shard markers, leases, engine
snapshots, the tabulation and propagation caches, checkpoint journals)
writes through :func:`atomic_write` or :func:`append_line`.  Crash
model: after a SIGKILL or a power loss, a whole file holds its old or
its new bytes (or is still absent), never a mix, and an appended file
loses at most a torn final line.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO


def atomic_write(
    path: str | Path,
    content: bytes | Callable[[BinaryIO], object],
    exclusive: bool = False,
) -> None:
    """Publish ``content`` at ``path`` whole, or not at all.

    ``content`` is the bytes, or a callable that writes them to the open
    binary handle (so ``np.savez`` streams straight in).  They go to a
    same-directory temp file ending in ``.tmp``, so no store's glob
    matches a leftover; it is fsynced and renamed into place, then the
    directory is fsynced so the new name survives a power loss.
    ``exclusive`` publishes with ``os.link`` instead, which raises
    :class:`FileExistsError` when ``path`` exists: of racing writers
    exactly one wins.  On failure the temp file is removed.
    """
    path = Path(path)
    directory = path.parent
    directory.mkdir(parents=True, exist_ok=True)
    # Not mkstemp: its 0600 mode would ignore the umask.
    tmp = directory / f".{path.name}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            if callable(content):
                content(handle)
            else:
                handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        if exclusive:
            os.link(tmp, path)
        else:
            os.replace(tmp, path)
    finally:
        with suppress(OSError):  # already gone after os.replace
            os.unlink(tmp)
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def append_line(path: str | Path, line: str) -> None:
    """Append ``line`` and a newline to an existing file, then fsync.

    One ``write`` call, so a kill tears at most this line.  The file is
    never created here: a store publishes it whole with
    :func:`atomic_write` first (a journal's header, for instance).
    """
    data = (line + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        if os.write(fd, data) != len(data):
            raise OSError(f"short write appending to {path}")
        os.fsync(fd)
    finally:
        os.close(fd)
