"""Tests for JSONL timeline export, capture scopes, and the summarizer."""

import pytest

from repro.sim import Kernel
from repro.telemetry import (
    TimelineError,
    TraceBus,
    capture_to_jsonl,
    load_timeline,
    read_timeline,
    summarize_timeline,
    tracing_enabled_by_default,
    write_timeline,
)


def test_write_read_roundtrip(tmp_path):
    bus_a = TraceBus(enabled=True, label="alpha")
    bus_b = TraceBus(enabled=True, label="beta")
    bus_a.publish("request.end", operation="ViewItem", duration=0.2)
    bus_b.publish("rm.decision", level="ejb")
    path = tmp_path / "timeline.jsonl"

    written = write_timeline(path, [bus_a, bus_b])
    records = read_timeline(path)

    assert written == len(records) == 2
    assert records[0]["bus"] == "alpha"
    assert records[0]["kind"] == "request.end"
    assert records[0]["operation"] == "ViewItem"
    assert records[1]["bus"] == "beta"
    assert records[1]["level"] == "ejb"


def test_unlabelled_buses_get_positional_ids(tmp_path):
    buses = [TraceBus(enabled=True), TraceBus(enabled=True)]
    for bus in buses:
        bus.publish("tick")
    path = tmp_path / "timeline.jsonl"
    write_timeline(path, buses)
    assert [r["bus"] for r in read_timeline(path)] == [0, 1]


def test_capture_to_jsonl_exports_buses_created_inside(tmp_path):
    outside = Kernel()  # exists before the capture: must not leak in
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        assert tracing_enabled_by_default()
        inside = Kernel()
        assert inside.trace.enabled
        inside.trace.publish("tick", origin="inside")
        outside.trace.publish("tick", origin="outside")
    assert not tracing_enabled_by_default()

    records = read_timeline(path)
    assert [r.get("origin") for r in records] == ["inside"]


def test_capture_to_jsonl_survives_kernel_garbage_collection(tmp_path):
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        kernel = Kernel()
        kernel.trace.publish("tick")
        del kernel  # capture scope keeps the bus alive for export
    assert len(read_timeline(path)) == 1


def test_load_timeline_returns_records(tmp_path):
    bus = TraceBus(enabled=True, label="run")
    bus.publish("tick")
    path = tmp_path / "timeline.jsonl"
    write_timeline(path, [bus])
    records = load_timeline(path)
    assert len(records) == 1 and records[0]["kind"] == "tick"


def test_load_timeline_classifies_errors(tmp_path):
    with pytest.raises(TimelineError, match="no such trace file"):
        load_timeline(tmp_path / "nope.jsonl")

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(TimelineError, match="empty timeline"):
        load_timeline(empty)

    unreadable = tmp_path / "dir.jsonl"
    unreadable.mkdir()
    with pytest.raises(TimelineError, match="cannot read"):
        load_timeline(unreadable)

    good = '{"t": 0.5, "kind": "tick"}\n'
    for name, body, message in (
        ("latin1.jsonl", good.encode() + b'{"t": 1.0, "kind": "caf\xe9"}\n',
         "latin1.jsonl:2: not UTF-8"),
        ("t-string.jsonl", good + '{"t": "x", "kind": "fault.injected"}\n',
         "t-string.jsonl:2: 't' must be a finite number"),
        ("t-bool.jsonl", '{"t": true, "kind": "tick"}\n',
         "t-bool.jsonl:1: 't' must be a finite number"),
        ("t-nan.jsonl", '{"t": NaN, "kind": "tick"}\n',
         "t-nan.jsonl:1: 't' must be a finite number"),
        ("kind-int.jsonl", good + '{"t": 1.0, "kind": 7}\n',
         "kind-int.jsonl:2: 'kind' must be a string"),
    ):
        bad = tmp_path / name
        if isinstance(body, bytes):
            bad.write_bytes(body)
        else:
            bad.write_text(body)
        with pytest.raises(TimelineError, match=message):
            load_timeline(bad)


def test_summarize_empty_timeline():
    assert "empty timeline" in summarize_timeline([])


def test_summarize_timeline_sections():
    records = [
        {"t": 0.5, "seq": 0, "kind": "request.end", "bus": 0,
         "operation": "ViewItem", "ok": True, "duration": 0.21},
        {"t": 1.0, "seq": 1, "kind": "request.end", "bus": 0,
         "operation": "MakeBid", "ok": False, "duration": 7.9,
         "failure": "timeout"},
        {"t": 2.0, "seq": 2, "kind": "rm.decision", "bus": 0,
         "level": "ejb", "target": ["SB_ViewItem"]},
        {"t": 2.0, "seq": 3, "kind": "lb.failover.begin", "bus": 0,
         "node": "node-1", "mode": "micro"},
        {"t": 2.2, "seq": 4, "kind": "lb.failover", "bus": 0,
         "from_node": "node-1", "to_node": "node-2"},
        {"t": 2.6, "seq": 5, "kind": "component.microreboot.end", "bus": 0,
         "components": ["SB_ViewItem"], "duration": 0.55},
        {"t": 3.0, "seq": 6, "kind": "lb.failover.end", "bus": 0,
         "node": "node-1"},
        {"t": 9.0, "seq": 7, "kind": "lb.failover.begin", "bus": 0,
         "node": "node-3", "mode": "full"},
    ]
    text = summarize_timeline(records)
    assert "8 events from 1 bus(es)" in text
    assert "events by kind" in text
    assert "recovery timeline (2 events)" in text
    assert "rm.decision" in text and "level=ejb" in text
    assert "node-1: micro failover t=2.000..3.000s (1.000s)" in text
    assert "requests redirected during failover: 1" in text
    assert "never ended (wedged?)" in text  # node-3's window stayed open
    assert "slowest requests (of 2 completed)" in text
    assert "FAILED(timeout)" in text


def test_summarize_respects_slowest_limit():
    records = [
        {"t": float(i), "seq": i, "kind": "request.end", "bus": 0,
         "operation": f"Op{i}", "ok": True, "duration": float(i)}
        for i in range(10)
    ]
    text = summarize_timeline(records, slowest=3)
    listed = [line for line in text.splitlines() if "  Op" in line]
    assert len(listed) == 3
    assert "Op9" in listed[0]  # slowest first
