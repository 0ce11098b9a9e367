"""Exporter tests: output-path preparation, JSONL/Chrome/CSV writers,
and the span schema validator."""

import json
import os

import pytest

from repro.obs.export import (
    SPAN_SCHEMA_VERSION,
    prepare_output_path,
    spans_to_chrome,
    spans_to_jsonl,
    validate_span_file,
    validate_span_lines,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.obs.trace import NodeObs


def sample_spans():
    obs = NodeObs("n0", enabled=True)
    root = obs.start("mcast.root", 0.0, kind="JOIN")
    child = obs.start("mcast.hop", 0.5, parent=root.ref(1), depth=1)
    obs.end(child, 1.0)
    obs.end(root, 2.0)
    still_open = obs.start("probe", 3.0)  # noqa: F841 - stays open
    return obs.spans


class TestPrepareOutputPath:
    def test_creates_missing_parent_dirs(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.jsonl"
        assert prepare_output_path(str(target)) == str(target)
        assert (tmp_path / "a" / "b").is_dir()

    def test_directory_target_rejected_with_clear_error(self, tmp_path):
        with pytest.raises(OSError, match="is a directory"):
            prepare_output_path(str(tmp_path))

    def test_unwritable_parent_rejected(self, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            if os.access(str(locked), os.W_OK):  # pragma: no cover - root
                pytest.skip("running as a user that ignores mode bits")
            with pytest.raises(OSError, match="not writable"):
                prepare_output_path(str(locked / "x.json"), what="metrics")
        finally:
            locked.chmod(0o700)

    def test_uncreatable_parent_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError, match="cannot create directory"):
            prepare_output_path(str(blocker / "sub" / "x.json"))


class TestWriters:
    def test_jsonl_round_trip_and_validation(self, tmp_path):
        path = tmp_path / "nested" / "spans.jsonl"
        write_spans_jsonl(str(path), sample_spans())
        assert validate_span_file(str(path)) == []
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # version header + 3 spans
        header = json.loads(lines[0])
        assert header == {"schema": "repro.span",
                          "schema_version": SPAN_SCHEMA_VERSION}
        first = json.loads(lines[1])
        assert first["name"] == "mcast.root"
        assert first["attrs"] == {"kind": "JOIN"}

    def test_validator_rejects_future_schema_version(self):
        header = json.dumps({"schema": "repro.span",
                             "schema_version": SPAN_SCHEMA_VERSION + 1})
        problems = validate_span_lines([header])
        assert any("unsupported schema_version" in p for p in problems)

    def test_chrome_export_shape(self, tmp_path):
        doc = spans_to_chrome(sample_spans())
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"X", "i"}
        complete = next(e for e in events if e["name"] == "mcast.hop")
        assert complete["ts"] == pytest.approx(0.5e6)
        assert complete["dur"] == pytest.approx(0.5e6)
        assert complete["tid"] == "n0"
        assert complete["cat"] == "mcast"
        path = tmp_path / "chrome.json"
        write_chrome_trace(str(path), sample_spans())
        assert json.loads(path.read_text())["traceEvents"]

    def test_metrics_json_and_csv(self, tmp_path):
        snap = {
            "counters": {"c": 2},
            "gauges": {"g": 1.5},
            "dists": {"d": {"count": 1, "mean": 3.0, "min": 3.0, "max": 3.0}},
        }
        jpath = tmp_path / "m.json"
        write_metrics_json(str(jpath), snap)
        assert json.loads(jpath.read_text())["counters"]["c"] == 2
        cpath = tmp_path / "m.csv"
        write_metrics_csv(str(cpath), snap)
        rows = cpath.read_text().splitlines()
        assert rows[0] == "kind,name,value"
        assert "counter,c,2" in rows


class TestValidator:
    def test_rejects_bad_json_and_missing_fields(self):
        problems = validate_span_lines(["not json", '{"span_id": 3}'])
        assert any("not valid JSON" in p for p in problems)
        assert any("missing field" in p for p in problems)

    def test_rejects_duplicate_ids(self):
        line = spans_to_jsonl(sample_spans()[:1]).strip()
        problems = validate_span_lines([line, line])
        assert any("duplicate span_id" in p for p in problems)

    def test_rejects_dangling_or_cross_trace_parent(self):
        spans = sample_spans()
        lines = spans_to_jsonl(spans).splitlines()
        # Drop the root: the hop's parent is now dangling.
        problems = validate_span_lines(lines[1:])
        assert any("not in file" in p for p in problems)
        hop = json.loads(lines[1])
        hop["trace_id"] = "someone-else"
        problems = validate_span_lines([lines[0], json.dumps(hop)])
        assert any("trace_id differs" in p for p in problems)

    def test_accepts_valid_lines(self):
        assert validate_span_lines(spans_to_jsonl(sample_spans()).splitlines()) == []
