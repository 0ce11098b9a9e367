"""Live telemetry sidecars: argv plumbing + the swarm-side merges.

Exercises the merge path with synthetic per-node sidecar files —
the real UDP swarm is covered by the (slower) mini-swarm test — so the
ordering and tolerance rules are pinned without spawning processes.
"""

import json
import os

import pytest

from repro.live.node import live_config
from repro.live.swarm import (
    _node_argv,
    _settled_frames,
    launch_swarm,
    merge_metrics,
    merge_telemetry,
    swarm_specs,
)
from repro.obs import metrics as m
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import (
    WindowAggregator,
    WindowBucket,
    frame_line,
    load_frames_file,
    telemetry_header_line,
)


#: One ended probe as the fold takes it: name, status, attrs.
PROBE = ("probe", "ok", {})


def _specs(n=2, telemetry_window=2.0):
    return swarm_specs(
        n, 47000, master_seed=0, epoch=0.0, duration=10.0,
        telemetry_window=telemetry_window,
    )


def _write_sidecar(outdir, spec, probes_per_window, truncate=False):
    agg = WindowAggregator()
    path = os.path.join(outdir, f"telemetry_{spec.port}.jsonl")
    with open(path, "w") as fh:
        fh.write(telemetry_header_line() + "\n")
        for i, probes in enumerate(probes_per_window):
            bucket = WindowBucket()
            bucket.add_node(
                [PROBE] * probes, {"x": float(probes)}
            )
            fh.write(frame_line(
                agg.close_window(i, i * 2.0, (i + 1) * 2.0, bucket)
            ) + "\n")
        if truncate:
            fh.write('{"window": 99, "t0"')  # killed mid-flush
    return path


def test_node_argv_carries_telemetry_window():
    with_flag, without = _specs(telemetry_window=2.0), _specs(telemetry_window=0.0)
    argv = _node_argv(with_flag[0], "/tmp/out")
    assert argv[argv.index("--telemetry-window") + 1] == "2.0"
    assert "--telemetry-window" not in _node_argv(without[0], "/tmp/out")


def test_watch_requires_a_telemetry_window(tmp_path):
    with pytest.raises(ValueError, match="telemetry_window"):
        launch_swarm(2, 5.0, str(tmp_path), watch=True, telemetry_window=0.0)


def test_merge_telemetry_folds_windows_across_nodes(tmp_path):
    specs = _specs()
    _write_sidecar(str(tmp_path), specs[0], [2, 1])
    _write_sidecar(str(tmp_path), specs[1], [1, 0, 3], truncate=True)
    out = merge_telemetry(str(tmp_path), specs)
    frames, version, skipped = load_frames_file(out)
    assert (version, skipped) == (1, 0)  # merged file itself is clean
    assert [f["window"] for f in frames] == [0, 1, 2, 3]
    assert [f.get("final", False) for f in frames] == [
        False, False, False, True,
    ]
    assert [f["probe"]["count"] for f in frames] == [3, 1, 3, 7]
    assert frames[0]["counters"] == {"x": 3.0}
    assert frames[-1]["counters"] == {"x": 7.0}  # cumulative final


def test_merge_telemetry_is_node_order_invariant(tmp_path):
    specs = _specs()
    _write_sidecar(str(tmp_path), specs[0], [1, 2])
    _write_sidecar(str(tmp_path), specs[1], [2, 1])
    one = open(merge_telemetry(str(tmp_path), specs)).read()
    two = open(merge_telemetry(str(tmp_path), list(reversed(specs)))).read()
    assert one == two


def test_settled_frames_waits_for_every_node(tmp_path):
    """The live watcher only renders windows every sidecar has closed —
    otherwise a slow node's contribution would be silently dropped from
    an already-painted window."""
    specs = _specs()
    _write_sidecar(str(tmp_path), specs[0], [1, 1, 1])
    _write_sidecar(str(tmp_path), specs[1], [1, 1])
    frames = _settled_frames(str(tmp_path), specs)
    assert [f["window"] for f in frames] == [0, 1]
    assert all(f["taps"] == 2 for f in frames)


def test_settled_frames_empty_until_all_sidecars_exist(tmp_path):
    specs = _specs()
    _write_sidecar(str(tmp_path), specs[0], [1])
    assert _settled_frames(str(tmp_path), specs) == []


def test_merge_metrics_keeps_what_the_runtimes_dropped(tmp_path):
    """A datagram that left one node and reached no handler must show in
    the swarm's ``metrics.json``: it is how version skew or a codec bug
    looks from outside, whether or not any SLO breaches."""
    def result(address, **transport):
        return {"address": address, "registry": MetricsRegistry().snapshot(),
                "transport": {"by_kind": {"probe": 2}, "bytes_by_kind": {"probe": 1000},
                              **transport}}

    results = [
        result("127.0.0.1:2", malformed=3, socket_errors=0, retransmit_giveups=1),
        result("127.0.0.1:1", malformed=1, socket_errors=2, retransmit_giveups=0),
    ]
    path = merge_metrics(str(tmp_path), results, live_config(), 2, 0, 5.0)
    counters = json.load(open(path))["counters"]
    assert counters[m.LIVE_MALFORMED] == 4
    assert counters[m.LIVE_SOCKET_ERRORS] == 2
    assert counters[m.LIVE_RETRANSMIT_GIVEUP] == 1
    assert counters[f"{m.TRANSPORT_MSGS}.probe"] == 4
