"""Tracer unit tests: schema validation, sinks, and deterministic merge."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    EVENT_FIELDS,
    NULL_TRACER,
    RecordingTracer,
    Tracer,
    merge_traces,
    write_trace,
)


class TestSchema:
    def test_unknown_event_raises(self):
        tracer = RecordingTracer()
        with pytest.raises(ValueError, match="unknown trace event"):
            tracer.emit("nonsense", 0.0)

    def test_missing_required_field_raises(self):
        tracer = RecordingTracer()
        with pytest.raises(ValueError, match="missing fields"):
            tracer.emit("uncorrectable", 0.0, region=3)  # no count

    def test_extra_fields_allowed(self):
        tracer = RecordingTracer()
        tracer.emit("retire", 1.0, region=0, count=2, note="extra")
        assert tracer.events[0]["note"] == "extra"

    def test_every_event_type_emittable(self):
        tracer = RecordingTracer()
        for name, fields in EVENT_FIELDS.items():
            tracer.emit(name, 0.0, **{field: 0 for field in fields})
        assert len(tracer.events) == len(EVENT_FIELDS)


class TestRecordingTracer:
    def test_records_event_time_seq_and_payload(self):
        tracer = RecordingTracer()
        tracer.emit("uncorrectable", 10.0, region=1, count=3)
        tracer.emit("retire", 20.0, region=1, count=1)
        assert tracer.events == [
            {"event": "uncorrectable", "t": 10.0, "seq": 0, "region": 1, "count": 3},
            {"event": "retire", "t": 20.0, "seq": 1, "region": 1, "count": 1},
        ]

    def test_null_tracer_is_disabled_noop(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, Tracer)
        NULL_TRACER.emit("not even validated", -1.0)  # must not raise


class TestJsonlSinks:
    def test_write_trace_roundtrip(self, tmp_path):
        tracer = RecordingTracer()
        tracer.emit("uncorrectable", 1.0, region=0, count=1)
        tracer.emit("retire", 2.0, region=0, count=1)
        path = tmp_path / "trace.jsonl"
        assert write_trace(tracer.events, path) == 2
        back = [json.loads(line) for line in path.read_text().splitlines()]
        assert back == tracer.events


class TestMergeTraces:
    def test_merge_orders_by_time_then_run_then_seq(self):
        a = RecordingTracer()
        a.emit("retire", 5.0, region=0, count=1)
        a.emit("retire", 5.0, region=0, count=2)
        b = RecordingTracer()
        b.emit("retire", 1.0, region=1, count=1)
        b.emit("retire", 5.0, region=1, count=3)
        merged = merge_traces([a.events, b.events])
        assert [(e["t"], e["run"], e["seq"]) for e in merged] == [
            (1.0, 1, 0),
            (5.0, 0, 0),
            (5.0, 0, 1),
            (5.0, 1, 1),
        ]

    def test_merge_skips_none_and_empty(self):
        tracer = RecordingTracer()
        tracer.emit("retire", 1.0, region=0, count=1)
        merged = merge_traces([None, [], tracer.events])
        assert len(merged) == 1
        assert merged[0]["run"] == 2

    def test_merge_independent_of_input_placement(self):
        a = RecordingTracer()
        b = RecordingTracer()
        for t in (1.0, 3.0):
            a.emit("retire", t, region=0, count=1)
        for t in (2.0, 3.0):
            b.emit("retire", t, region=1, count=1)
        once = merge_traces([a.events, b.events])
        again = merge_traces([list(a.events), list(b.events)])
        assert once == again
