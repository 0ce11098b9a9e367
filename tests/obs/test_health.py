"""Health engine: SLO bands, spec round-trips, EWMA, metrics signals,
the in-run judge's quiescence gate."""

import json
from types import SimpleNamespace

import pytest

from repro.chaos.runner import _InRunJudge
from repro.core.config import ProtocolConfig
from repro.core.protocol import PeerWindowNetwork
from repro.obs.health import (
    EwmaHealthMonitor,
    HealthSpec,
    Slo,
    evaluate,
    metrics_signals,
)
from repro.obs.stream import StreamWindower


def test_slo_band_semantics():
    band = Slo("x", lo=0.2, hi=0.8)
    assert band.ok(0.2) and band.ok(0.5) and band.ok(0.8)
    assert not band.ok(0.19) and not band.ok(0.81)
    assert Slo("x", hi=1.0).ok(-100.0)      # unbounded below
    assert Slo("x", lo=0.0).ok(1e9)         # unbounded above
    assert Slo("x").ok(float("nan")) is True  # no bounds, nothing to breach


def test_default_spec_derives_from_config_and_scale():
    config = ProtocolConfig(id_bits=16)
    spec = HealthSpec.default(config, n_nodes=1000)
    names = [slo.name for slo in spec]
    assert "mcast.tree_completeness" in names
    assert "bandwidth.model_ratio" in names
    assert "peerlist.error_rate" in names
    completeness = spec.get("mcast.tree_completeness")
    assert completeness is not None and completeness.lo == 0.99
    depth = spec.get("mcast.max_depth")
    # ceil(log2 1000) + 2 = 12, capped by id_bits.
    assert depth is not None and depth.hi == 12
    # Scale moves the depth bound; the cap is the address width.
    assert HealthSpec.default(config, 2 ** 20).get("mcast.max_depth").hi == 16


def test_spec_round_trips_through_dict_and_disk(tmp_path):
    spec = HealthSpec.default(ProtocolConfig(id_bits=16), n_nodes=500)
    clone = HealthSpec.from_dict(spec.to_dict())
    assert clone.name == spec.name
    assert clone.slos == spec.slos

    path = str(tmp_path / "spec.json")
    spec.save(path)
    loaded = HealthSpec.load(path)
    assert loaded.slos == spec.slos
    # The on-disk form is plain versioned JSON.
    doc = json.loads(open(path).read())
    assert doc["schema_version"] == 1


def test_spec_rejects_future_schema_version():
    with pytest.raises(ValueError, match="schema_version"):
        HealthSpec.from_dict({"schema_version": 99, "slos": []})


def test_evaluate_skips_missing_signals_and_keeps_spec_order():
    spec = HealthSpec(slos=[
        Slo("b.second", hi=1.0),
        Slo("a.first", lo=0.5, description="too low"),
        Slo("c.absent", hi=0.0),
    ])
    traces = {"a.first": ("t-1", "t-2")}
    verdicts = evaluate(spec, {"a.first": 0.1, "b.second": 0.2},
                        now=42.0, traces=traces)
    assert [v.slo for v in verdicts] == ["b.second", "a.first"]
    assert verdicts[0].ok and verdicts[0].traces == ()
    breach = verdicts[1]
    assert not breach.ok
    assert breach.time == 42.0
    assert breach.detail == "too low"
    assert breach.traces == ("t-1", "t-2")
    assert "BREACH" in breach.describe()


def test_ewma_warmup_suppresses_startup_transients():
    spec = HealthSpec(slos=[Slo("err", hi=0.1)])
    mon = EwmaHealthMonitor(spec, alpha=1.0, warmup=2)
    # Two terrible warm-up samples: folded in, never judged.
    assert mon.observe({"err": 9.0}) == []
    assert mon.observe({"err": 9.0}) == []
    third = mon.observe({"err": 0.05})
    assert [v.ok for v in third] == [True]  # alpha=1: no memory of warm-up


def test_ewma_warmup_is_counted_per_signal():
    """Warm-up is a per-signal sample count, not a global tick: a
    signal that first appears late (rates only exist once their
    denominator is non-zero) still gets its own full warm-up."""
    spec = HealthSpec(slos=[Slo("early", hi=0.1), Slo("late", hi=0.1)])
    mon = EwmaHealthMonitor(spec, alpha=1.0, warmup=1)
    assert mon.observe({"early": 9.0}) == []           # early warm-up
    judged = mon.observe({"early": 9.0, "late": 9.0})  # late's first sample
    assert [(v.slo, v.ok) for v in judged] == [("early", False)]
    judged = mon.observe({"early": 0.0, "late": 0.05})
    assert [(v.slo, v.ok) for v in judged] == [
        ("early", True), ("late", True),
    ]


def test_ewma_warmup_zero_judges_immediately():
    spec = HealthSpec(slos=[Slo("err", hi=0.1)])
    mon = EwmaHealthMonitor(spec, alpha=1.0, warmup=0)
    first = mon.observe({"err": 9.0})
    assert [v.ok for v in first] == [False]


def test_ewma_warmup_samples_still_shape_the_average():
    """Warm-up suppresses *verdicts*, not the fold: with alpha < 1 the
    first judged value carries the warm-up history, so a network that
    never recovers breaches as soon as judging starts."""
    spec = HealthSpec(slos=[Slo("err", hi=0.5)])
    mon = EwmaHealthMonitor(spec, alpha=0.5, warmup=2)
    assert mon.observe({"err": 1.0}) == []
    assert mon.observe({"err": 1.0}) == []
    third = mon.observe({"err": 1.0})  # ewma stayed at 1.0 throughout
    assert [v.ok for v in third] == [False]
    assert mon.smoothed("err") == pytest.approx(1.0)


def test_ewma_smoothing_converges_to_breach():
    spec = HealthSpec(slos=[Slo("err", hi=0.5)])
    mon = EwmaHealthMonitor(spec, alpha=0.5, warmup=0)
    assert mon.observe({"err": 0.0})[0].ok          # ewma 0
    assert mon.observe({"err": 1.0})[0].ok          # ewma 0.5, on the line
    assert not mon.observe({"err": 1.0})[0].ok      # ewma 0.75
    assert mon.smoothed("err") == pytest.approx(0.75)


def test_ewma_validates_parameters():
    spec = HealthSpec()
    with pytest.raises(ValueError):
        EwmaHealthMonitor(spec, alpha=0.0)
    with pytest.raises(ValueError):
        EwmaHealthMonitor(spec, alpha=1.5)
    with pytest.raises(ValueError):
        EwmaHealthMonitor(spec, warmup=-1)


def test_metrics_signals_arithmetic():
    config = ProtocolConfig(id_bits=16)
    snapshot = {
        "nodes": 4,
        "counters": {
            "transport.msgs.mcast": 200,
            "mcast.ack_timeouts": 10,
            "mcast.originated": 5,
            "transport.bits.mcast": 5 * 10.0 * config.event_message_bits,
        },
        "gauges": {
            "peers.size.level.1": 16.0,
            "peers.size.level.2": 24.0,
            "other.gauge": 1e9,
        },
    }
    signals = metrics_signals(snapshot, config,
                              meta={"mean_error_rate": 0.01})
    assert signals["mcast.ack_retry_rate"] == pytest.approx(0.05)
    # mean list size = (16 + 24) / 4 = 10 pointers/node => ratio 1.
    assert signals["bandwidth.model_ratio"] == pytest.approx(1.0)
    assert signals["peerlist.error_rate"] == pytest.approx(0.01)
    # No traffic => no signals, rather than zero-division or zeros.
    assert metrics_signals({"nodes": 0, "counters": {}, "gauges": {}},
                           config) == {}


def _judged_net(quiescent):
    """A small observed network windowed every 10 s under an impossible
    band, with the chaos runner's in-run judge as the windower's sink
    and its quiescence gate pinned to ``quiescent``."""
    net = PeerWindowNetwork(
        config=ProtocolConfig(id_bits=16), master_seed=3, observability=True,
    )
    net.seed_nodes([4000.0] * 16)
    judge = _InRunJudge(net)
    judge.monitor = SimpleNamespace(quiescent=quiescent)
    spec = HealthSpec(slos=[Slo("peerlist.error_rate", hi=-1.0)])
    windower = StreamWindower(net, window=10.0, spec=spec, sinks=[judge])
    return windower, judge


def test_live_monitor_records_gated_breaches():
    windower, judge = _judged_net(quiescent=True)
    windower.run(until=100.0)
    windower.finish()
    assert windower.agg.windows_closed >= 9
    # The default warm-up suppresses the first two windows; every later
    # one breaches the impossible band and is kept, stamped in-run.
    assert [v.time for v in judge.verdicts] == [30.0 + 10.0 * k for k in range(8)]
    assert all(not v.ok and v.traces is not None for v in judge.verdicts)
    assert {v.slo for v in judge.verdicts} == {"peerlist.error_rate"}


def test_live_monitor_gate_suppresses_recording():
    windower, judge = _judged_net(quiescent=False)
    windower.run(until=60.0)
    windower.finish()
    assert windower.agg.windows_closed >= 5
    assert judge.verdicts == []  # EWMA fed, breaches never recorded
    assert windower.agg.monitor.smoothed("peerlist.error_rate") is not None
