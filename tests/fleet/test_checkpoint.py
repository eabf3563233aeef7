"""Checkpoint journal: durability, corruption handling, hash binding."""

from __future__ import annotations

import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.checkpoint import (
    JOURNAL_VERSION,
    CheckpointError,
    append_device,
    device_records,
    load_journal,
    open_journal,
    write_header,
)
from repro.fleet.report import DeviceRecord

from ..strategies import JSON_VALUES

HASH = "a" * 64


#: Device records holding every field, each with arbitrary JSON in it.
DEVICE_RECORDS = st.fixed_dictionaries(
    {
        "kind": st.just("device"),
        "index": st.integers(min_value=0, max_value=3),
        **{
            name: JSON_VALUES
            for name in (
                "lot", "seed", "temperature_k", "nu_mu_scale", "nu_sigma_scale",
                "endurance_mean", "summary", "final_state", "runtime_seconds",
            )
        },
    }
)


def journal_with(tmp_path, records):
    path = tmp_path / "journal.jsonl"
    write_header(path, HASH, "test")
    for record in records:
        append_device(path, record)
    return path


class TestRoundTrip:
    def test_header_and_devices(self, tmp_path):
        path = journal_with(
            tmp_path,
            [{"index": 0, "summary": {"uncorrectable": 1.0}}, {"index": 1}],
        )
        header, devices = load_journal(path, expected_hash=HASH)
        assert header["version"] == JOURNAL_VERSION
        assert header["name"] == "test"
        assert set(devices) == {0, 1}
        assert devices[0]["summary"] == {"uncorrectable": 1.0}
        assert devices[0]["kind"] == "device"

    def test_header_truncates_existing_file(self, tmp_path):
        path = journal_with(tmp_path, [{"index": 0}])
        write_header(path, HASH, "restart")
        header, devices = load_journal(path)
        assert header["name"] == "restart"
        assert devices == {}

    def test_duplicate_index_last_wins(self, tmp_path):
        path = journal_with(
            tmp_path, [{"index": 0, "v": 1}, {"index": 0, "v": 2}]
        )
        __, devices = load_journal(path)
        assert devices[0]["v"] == 2


class TestCorruption:
    def test_torn_final_line_dropped(self, tmp_path):
        path = journal_with(tmp_path, [{"index": 0}, {"index": 1}])
        with open(path, "a") as handle:
            handle.write('{"kind": "device", "index": 2, "summ')  # killed mid-append
        __, devices = load_journal(path)
        assert set(devices) == {0, 1}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = journal_with(tmp_path, [{"index": 0}])
        content = path.read_text()
        path.write_text(content.replace('"index": 0', '"index": 0 GARBAGE'))
        append_device(path, {"index": 1})
        with pytest.raises(CheckpointError, match="corrupt"):
            load_journal(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            load_journal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "device", "index": 0}\n')
        with pytest.raises(CheckpointError, match="header"):
            load_journal(path)

    def test_non_device_record_raises(self, tmp_path):
        path = journal_with(tmp_path, [])
        with open(path, "a") as handle:
            handle.write('{"kind": "mystery"}\n{"kind": "device", "index": 0}\n')
        with pytest.raises(CheckpointError, match="not a device record"):
            load_journal(path)

    @pytest.mark.parametrize(
        "body",
        [
            "5\n",
            "HEADER[1]\n",
            'HEADER{"kind": "device", "index": "zz"}\n',
            'HEADER{"kind": "device", "index": 1.5}\n',
        ],
        ids=["scalar-header", "array-record", "string-index", "float-index"],
    )
    def test_malformed_records_raise_checkpoint_error(self, tmp_path, body):
        path = journal_with(tmp_path, [])
        path.write_text(body.replace("HEADER", path.read_text()))
        with pytest.raises(CheckpointError):
            load_journal(path)

    def test_record_missing_a_field_names_journal_and_field(self, tmp_path):
        path = journal_with(tmp_path, [{"index": 0, "lot": "vendor-a"}])
        _, devices = load_journal(path, expected_hash=HASH)
        with pytest.raises(
            CheckpointError,
            match=re.escape(f"{path} device 0 is malformed: field seed: is required"),
        ):
            device_records(path, devices)

    def test_record_with_a_malformed_value_raises(self, tmp_path):
        record = DeviceRecord(
            index=0, lot="a", seed=1, temperature_k=300.0, nu_mu_scale=1.0,
            nu_sigma_scale=1.0, endurance_mean=None,
        ).to_dict()
        path = journal_with(tmp_path, [{**record, "seed": "not a seed"}])
        _, devices = load_journal(path, expected_hash=HASH)
        with pytest.raises(CheckpointError, match="device 0 is malformed"):
            device_records(path, devices)

    @pytest.mark.parametrize(
        "field, value", [("seed", "x"), ("summary", [1, 2])]
    )
    def test_malformed_value_names_its_field(self, tmp_path, field, value):
        record = DeviceRecord(
            index=3, lot="a", seed=1, temperature_k=300.0, nu_mu_scale=1.0,
            nu_sigma_scale=1.0, endurance_mean=None,
        ).to_dict()
        path = journal_with(tmp_path, [{**record, field: value}])
        _, devices = load_journal(path, expected_hash=HASH)
        with pytest.raises(
            CheckpointError,
            match=re.escape(f"{path} device 3 is malformed: field {field}: expected"),
        ):
            device_records(path, devices)

    def test_undecodable_bytes_raise_checkpoint_error(self, tmp_path):
        path = journal_with(tmp_path, [])
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "device", "index": 0, "lot": "\xff"}\n')
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_journal(path)

    @settings(max_examples=200)
    @given(
        with_header=st.booleans(),
        lines=st.lists(
            st.one_of(
                JSON_VALUES.map(json.dumps),
                st.fixed_dictionaries(
                    {"kind": st.sampled_from(["device", "pending"]),
                     "index": JSON_VALUES}
                ).map(json.dumps),
                DEVICE_RECORDS.map(json.dumps),
                st.text(max_size=12),
            ),
            max_size=6,
        ),
    )
    def test_any_content_loads_or_raises_checkpoint_error(
        self, tmp_path_factory, with_header, lines
    ):
        path = tmp_path_factory.mktemp("fuzz") / "journal.jsonl"
        if with_header:
            write_header(path, HASH, "fuzz")
        with open(path, "a") as handle:
            handle.write("\n".join(lines))
        try:
            header, devices = load_journal(path, expected_hash=HASH)
            records = device_records(path, devices)
        except CheckpointError:
            return
        assert header["kind"] == "header"
        assert all(type(index) is int for index in devices)
        assert all(isinstance(record, DeviceRecord) for record in records.values())


class TestBinding:
    def test_hash_mismatch_raises(self, tmp_path):
        path = journal_with(tmp_path, [{"index": 0}])
        with pytest.raises(CheckpointError, match="different campaign"):
            load_journal(path, expected_hash="b" * 64)

    def test_version_mismatch_raises(self, tmp_path):
        path = journal_with(tmp_path, [])
        content = path.read_text().replace(
            f'"version": {JOURNAL_VERSION}', '"version": 99'
        )
        path.write_text(content)
        with pytest.raises(CheckpointError, match="version"):
            load_journal(path)


class TestPublication:
    def test_interrupted_header_write_leaves_no_journal(self, tmp_path, monkeypatch):
        # Regression: the journal used to be created before its header was
        # written, so a crash in between left a file no reader could load.
        path = tmp_path / "journal.jsonl"

        def power_loss(fd):
            raise OSError("power lost")

        monkeypatch.setattr(os, "fsync", power_loss)
        with pytest.raises(OSError, match="power lost"):
            write_header(path, HASH, "test")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []


class TestOpenJournal:
    def test_absent_journal_is_created_with_its_header(self, tmp_path):
        path = tmp_path / "shards" / "journal.jsonl"
        assert open_journal(path, HASH, "test") == {}
        header, devices = load_journal(path, expected_hash=HASH)
        assert header["name"] == "test"
        assert devices == {}

    def test_existing_journal_is_loaded_not_rewritten(self, tmp_path):
        path = journal_with(tmp_path, [{"index": 0}, {"index": 3}])
        before = path.read_bytes()
        assert set(open_journal(path, HASH, "other name")) == {0, 3}
        assert path.read_bytes() == before

    def test_foreign_journal_refused(self, tmp_path):
        path = journal_with(tmp_path, [])
        with pytest.raises(CheckpointError, match="different campaign"):
            open_journal(path, "b" * 64, "test")

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        path = journal_with(tmp_path, [{"index": 0}])
        with open(path, "a") as handle:
            handle.write('{"kind": "device", "index": 1, "summ')  # killed append
        assert set(open_journal(path, HASH, "test")) == {0}
        append_device(path, {"index": 1})
        __, devices = load_journal(path, expected_hash=HASH)
        assert set(devices) == {0, 1}
