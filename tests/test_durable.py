"""The durability helper: fault injection, exclusive publish, races, ordering.

Every on-disk store writes through :mod:`repro.durable`, so its crash
guarantees are tested here once: whatever step of a whole-file write
fails, the target holds complete old or complete new bytes (or stays
absent) and no temp file is left behind.
"""

from __future__ import annotations

import os
import stat
import sys
import threading

import pytest

from repro.durable import append_line, atomic_write

OLD = b"old bytes\n" * 100
NEW = b"new bytes, longer than the old ones\n" * 100


class Crash(RuntimeError):
    """An injected fault."""


def _names(directory) -> list[str]:
    return sorted(path.name for path in directory.iterdir())


def _fail_nth_fsync(monkeypatch, n: int) -> None:
    real = os.fsync
    calls = []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == n:
            raise OSError("injected fsync failure")
        return real(fd)

    monkeypatch.setattr(os, "fsync", fsync)


def _fail(monkeypatch, name: str) -> None:
    def fail(*args, **kwargs):
        raise OSError(f"injected {name} failure")

    monkeypatch.setattr(os, name, fail)


STAGES = ("write", "file_fsync", "publish", "dir_fsync")


class TestFaultInjection:
    @pytest.mark.parametrize("exclusive", [False, True], ids=["replace", "exclusive"])
    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_failure_leaves_whole_bytes_and_no_temp(
        self, tmp_path, monkeypatch, stage, existing, exclusive
    ):
        target = tmp_path / "store.bin"
        if existing:
            target.write_bytes(OLD)

        def content(handle):
            handle.write(NEW[: len(NEW) // 2])
            if stage == "write":
                raise Crash("killed mid-write")
            handle.write(NEW[len(NEW) // 2 :])

        if stage == "file_fsync":
            _fail_nth_fsync(monkeypatch, 1)
        elif stage == "publish":
            _fail(monkeypatch, "link" if exclusive else "replace")
        elif stage == "dir_fsync":
            _fail_nth_fsync(monkeypatch, 2)

        with pytest.raises((OSError, Crash)):
            atomic_write(target, content, exclusive=exclusive)
        monkeypatch.undo()

        # Only a failure after publication (the directory fsync) may
        # expose the new bytes; an exclusive write never replaces a file.
        published = stage == "dir_fsync" and not (exclusive and existing)
        if published:
            assert target.read_bytes() == NEW
        elif existing:
            assert target.read_bytes() == OLD
        else:
            assert not target.exists()
        assert _names(tmp_path) == (["store.bin"] if published or existing else [])

    def test_success_replaces_whole_file(self, tmp_path):
        target = tmp_path / "nested" / "store.bin"
        atomic_write(target, OLD)
        atomic_write(target, lambda handle: handle.write(NEW))
        assert target.read_bytes() == NEW
        assert _names(target.parent) == ["store.bin"]

    def test_new_files_honour_the_umask(self, tmp_path):
        target = tmp_path / "store.bin"
        atomic_write(target, OLD)
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


class TestExclusive:
    def test_loses_cleanly_to_an_existing_file(self, tmp_path):
        target = tmp_path / "lease.json"
        target.write_bytes(OLD)
        with pytest.raises(FileExistsError):
            atomic_write(target, NEW, exclusive=True)
        assert target.read_bytes() == OLD
        assert _names(tmp_path) == ["lease.json"]

    def test_creates_when_absent(self, tmp_path):
        target = tmp_path / "lease.json"
        atomic_write(target, NEW, exclusive=True)
        assert target.read_bytes() == NEW
        assert _names(tmp_path) == ["lease.json"]


class TestConcurrentWriters:
    THREADS = 8

    def _run(self, threads):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)

    def test_racing_writers_leave_one_writers_bytes(self, tmp_path):
        target = tmp_path / "store.bin"
        payloads = [bytes([i]) * 65536 for i in range(self.THREADS)]
        atomic_write(target, payloads[0])
        start = threading.Barrier(self.THREADS + 2)
        errors: list[BaseException] = []

        def writer(payload):
            try:
                start.wait()
                for _ in range(10):
                    atomic_write(target, payload)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        def reader():
            try:
                start.wait()
                for _ in range(50):
                    assert target.read_bytes() in payloads
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        self._run(
            [threading.Thread(target=writer, args=(p,)) for p in payloads]
            + [threading.Thread(target=reader) for _ in range(2)]
        )
        assert errors == []
        assert target.read_bytes() in payloads
        assert _names(tmp_path) == ["store.bin"]

    def test_racing_exclusive_writers_have_one_winner(self, tmp_path):
        target = tmp_path / "lease.json"
        start = threading.Barrier(self.THREADS)
        winners: list[bytes] = []
        losers: list[int] = []

        def claimant(payload):
            start.wait()
            try:
                atomic_write(target, payload, exclusive=True)
            except FileExistsError:
                losers.append(1)
            else:
                winners.append(payload)

        self._run(
            [
                threading.Thread(target=claimant, args=(f"w{i}".encode(),))
                for i in range(self.THREADS)
            ]
        )
        assert len(winners) == 1 and len(losers) == self.THREADS - 1
        assert target.read_bytes() == winners[0]
        assert _names(tmp_path) == ["lease.json"]


class TestOrdering:
    def _record(self, monkeypatch) -> list[str]:
        events: list[str] = []
        real = {name: getattr(os, name) for name in ("fsync", "replace", "link")}

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(f"fsync:{kind}")
            return real["fsync"](fd)

        def publish(name):
            def call(*args, **kwargs):
                events.append(name)
                return real[name](*args, **kwargs)

            return call

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", publish("replace"))
        monkeypatch.setattr(os, "link", publish("link"))
        return events

    @pytest.mark.parametrize("exclusive", [False, True])
    def test_directory_fsync_follows_publication(
        self, tmp_path, monkeypatch, exclusive
    ):
        events = self._record(monkeypatch)
        atomic_write(tmp_path / "store.bin", NEW, exclusive=exclusive)
        publish = "link" if exclusive else "replace"
        assert events == ["fsync:file", publish, "fsync:dir"]

    def test_append_is_one_fsynced_write(self, tmp_path, monkeypatch):
        target = tmp_path / "journal.jsonl"
        atomic_write(target, b"header\n")
        writes = []
        real_write = os.write

        def write(fd, data):
            writes.append(data)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write)
        events = self._record(monkeypatch)
        append_line(target, "first")
        append_line(target, "second")
        assert writes == [b"first\n", b"second\n"]
        assert events == ["fsync:file", "fsync:file"]
        assert target.read_bytes() == b"header\nfirst\nsecond\n"

    def test_append_never_creates_the_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            append_line(tmp_path / "journal.jsonl", "orphan")
        assert _names(tmp_path) == []
