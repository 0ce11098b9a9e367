"""Protocol metrics: deterministic counters, gauges, and distributions.

Each node owns a :class:`MetricsRegistry` (reachable as
``ctx.obs.registry``); the instrumentation sites record the signals the
paper's cost model predicts — multicast fan-out and depth, redirect
rate, ack timeouts, probe RTT, join latency, peer-list size per level,
bytes by message kind — and :func:`aggregate_snapshots` folds all node
registries into one network-wide view for comparison against
``repro.core.analytic``.

Design constraints (shared with :mod:`repro.obs.trace`):

* a **disabled** registry turns every ``inc``/``observe`` into a single
  ``if`` — the default for all simulations, keeping the no-op overhead
  within the benchmarked budget;
* everything is exact arithmetic on the recorded values — no sampling,
  no RNG, no wall clock — so snapshots are byte-identical between
  sequential and partitioned runs of the same seed;
* distributions are moment accumulators (count/sum/sumsq/min/max)
  rather than binned histograms: mergeable across nodes without a
  pre-agreed bin layout, and enough to report mean/stdev/extremes.
"""

from __future__ import annotations

import math
import re
from functools import reduce
from itertools import repeat
from operator import add
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: The documented metric-name convention: lowercase dotted
#: ``subsystem.noun_verb`` segments (``mcast.ack_timeouts``,
#: ``join.latency``).  The catalog below enforces it at declaration time.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

_METRIC_KINDS = ("counter", "gauge", "dist")


class MetricSpec(NamedTuple):
    """One declared metric: its canonical name, kind, and meaning."""

    name: str
    kind: str
    help: str
    #: Prefix metrics gain a dynamic final segment at record time
    #: (``peers.size.level`` -> ``peers.size.level.3``).
    per_key: bool = False


#: Every metric the instrumentation may record, keyed by canonical name.
#: Call sites import the declared constants instead of retyping string
#: literals, so a typo'd name is a NameError at import instead of a
#: silently empty series.
METRIC_CATALOG: Dict[str, MetricSpec] = {}


def declare_metric(name: str, kind: str, help: str, per_key: bool = False) -> str:
    """Register one metric in :data:`METRIC_CATALOG`; returns ``name`` so
    declarations double as the constants call sites import."""
    if not METRIC_NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} violates the subsystem.noun_verb "
            f"convention ({METRIC_NAME_RE.pattern})"
        )
    if kind not in _METRIC_KINDS:
        raise ValueError(f"metric kind {kind!r} not one of {_METRIC_KINDS}")
    if name in METRIC_CATALOG:
        raise ValueError(f"metric {name!r} declared twice")
    # Import-time declaration registry: populated only while modules
    # load, frozen before any LP runs (declared-twice guard above).
    METRIC_CATALOG[name] = MetricSpec(name, kind, help, per_key)  # detlint: ignore[ISO003]
    return name


# -- the catalog -----------------------------------------------------------

PROBE_RTT = declare_metric(
    "probe.rtt", "dist", "round-trip seconds of answered §4.1 ring probes")
PROBE_TIMEOUTS = declare_metric(
    "probe.timeouts", "counter", "ring/verify probes that got no ack in time")
FAILURES_DETECTED = declare_metric(
    "failures.detected", "counter", "probe-based failure declarations (§4.1)")
JOIN_LATENCY = declare_metric(
    "join.latency", "dist", "seconds from join_via to installed state (§4.3)")
JOIN_FAILURES = declare_metric(
    "join.failures", "counter", "joining handshakes that exhausted retries")
JOIN_ASSISTS = declare_metric(
    "join.assists", "counter", "get-top handshake requests served")
DOWNLOADS_SERVED = declare_metric(
    "downloads.served", "counter", "§4.3 peer-list downloads served")
LEVEL_LOWER = declare_metric(
    "level.lower", "counter", "autonomic level lowers (list shrink)")
LEVEL_RAISE = declare_metric(
    "level.raise", "counter", "autonomic level raises (list growth)")
REFRESH_SENT = declare_metric(
    "refresh.sent", "counter", "§4.6 self-refresh events originated")
SWEEP_EXPIRED = declare_metric(
    "sweep.expired", "counter", "pointers expired by the §4.6 sweep")
MCAST_ORIGINATED = declare_metric(
    "mcast.originated", "counter", "multicast trees rooted (top nodes)")
MCAST_RECEIVED = declare_metric(
    "mcast.received", "counter", "multicast messages received (fresh + dup)")
MCAST_DUPLICATES = declare_metric(
    "mcast.duplicates", "counter", "multicast receipts acked as duplicates")
MCAST_REDIRECTS = declare_metric(
    "mcast.redirects", "counter", "§4.2 stale-pointer redirects while relaying")
MCAST_STALE_REMOVED = declare_metric(
    "mcast.stale_removed", "counter", "pointers removed after 3 unacked sends")
MCAST_ACK_TIMEOUTS = declare_metric(
    "mcast.ack_timeouts", "counter", "multicast send attempts that timed out")
MCAST_DEPTH = declare_metric(
    "mcast.depth", "dist", "tree depth at which fresh multicasts arrive")
MCAST_FANOUT = declare_metric(
    "mcast.fanout", "dist", "targets contacted per relay/root forward")
REPORT_SENT = declare_metric(
    "report.sent", "counter", "§4.5 event reports sent toward a top node")
REPORT_FAILED = declare_metric(
    "report.failed", "counter", "reports abandoned after every retry")
REPORT_SERVED = declare_metric(
    "report.served", "counter", "report messages served (top or relay)")
PEERS_SIZE_LEVEL = declare_metric(
    "peers.size.level", "gauge", "peer-list size, sampled per level",
    per_key=True)
NODES_LEVEL = declare_metric(
    "nodes.level", "gauge", "live-node population per level", per_key=True)
TRANSPORT_MSGS = declare_metric(
    "transport.msgs", "counter", "messages sent, per wire kind", per_key=True)
TRANSPORT_BITS = declare_metric(
    "transport.bits", "counter", "bits sent, per wire kind", per_key=True)
OBIT_VERIFICATIONS = declare_metric(
    "obituary.verifications", "counter",
    "verify-before-believe probe chains started (DESIGN §16)")
OBIT_CONFIRMED = declare_metric(
    "obituary.confirmed", "counter",
    "verified obituaries whose subject never answered (believed)")
OBIT_REFUTED = declare_metric(
    "obituary.refuted", "counter",
    "verified obituaries refuted by a live subject's probe ack")
OBIT_QUARANTINE_DROPS = declare_metric(
    "obituary.quarantine_drops", "counter",
    "obituaries dropped unheard because the accuser is quarantined")
QUARANTINE_ADDITIONS = declare_metric(
    "quarantine.additions", "counter",
    "accusers quarantined after quarantine_strikes refuted obituaries")
JOIN_POW_REJECTED = declare_metric(
    "join.pow_rejected", "counter",
    "get-top requests dropped for missing/invalid proof-of-work")
JOIN_POW_COST = declare_metric(
    "join.pow_cost", "dist",
    "modeled seconds a joiner spent grinding its admission token")
JOIN_THROTTLED = declare_metric(
    "join.throttled", "counter",
    "get-top requests dropped by the per-server join-rate throttle")
AUDIT_CHECKS = declare_metric(
    "audit.checks", "counter", "claim audits started (DESIGN §16)")
AUDIT_PASSES = declare_metric(
    "audit.passes", "counter", "claim audits the claimant's list passed")
AUDIT_DEMOTIONS = declare_metric(
    "audit.demotions", "counter",
    "level claims demoted after a failed claim audit")
LIVE_RETRANSMIT_GIVEUP = declare_metric(
    "live.retransmit_giveup", "counter",
    "live requests that exhausted every datagram retransmit and timed out")
LIVE_MALFORMED = declare_metric(
    "live.malformed", "counter",
    "datagrams a live runtime refused as wire-schema violations and dropped")
LIVE_SOCKET_ERRORS = declare_metric(
    "live.socket_errors", "counter",
    "live sends that hit a closed socket or an error the OS reported back")
DETECT_LATENCY = declare_metric(
    "detect.latency", "dist",
    "seconds from a member's death to a detector noticing it "
    "(baseline tournament instrumentation)")
WALKS_LAUNCHED = declare_metric(
    "walk.launched", "counter",
    "random-walk collection walks started (random-walk baseline)")
WALK_STEPS = declare_metric(
    "walk.steps", "dist",
    "hops taken per collection walk (random-walk baseline)")
PULL_EXCHANGES = declare_metric(
    "pull.exchanges", "counter",
    "anti-entropy pull exchanges completed (push-pull gossip baseline)")
PULL_ENTRIES = declare_metric(
    "pull.entries", "counter",
    "membership entries transferred by pull exchanges (push-pull baseline)")


class Dist:
    """A mergeable moment accumulator for one distribution-valued signal."""

    __slots__ = ("count", "total", "sumsq", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_repeat(self, value: float, k: int) -> None:
        """:meth:`observe` ``value`` ``k`` times: the sums take ``k``
        additions in turn, never ``k * value``, so they round as the
        ``k`` single observations would."""
        if k <= 0:
            return
        value = float(value)
        self.count += k
        self.total = reduce(add, repeat(value, k), self.total)
        self.sumsq = reduce(add, repeat(value * value, k), self.sumsq)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Dist") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.sumsq += other.sumsq
        if self.min is None or (other.min is not None and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None and other.max > self.max):
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stdev(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.sumsq / self.count - self.mean ** 2
        return math.sqrt(var) if var > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "sumsq": self.sumsq,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "stdev": self.stdev,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "Dist":
        dist = cls()
        dist.count = int(d.get("count", 0))
        dist.total = float(d.get("sum", 0.0))
        dist.sumsq = float(d.get("sumsq", 0.0))
        if dist.count:
            dist.min = float(d.get("min", 0.0))
            dist.max = float(d.get("max", 0.0))
        return dist


class MetricsRegistry:
    """Per-node counters, gauges, and :class:`Dist` accumulators.

    Keys are flat dotted strings (``"mcast.redirects"``,
    ``"peers.level.3"``); the flat namespace keeps snapshots trivially
    mergeable and CSV-exportable.
    """

    __slots__ = ("enabled", "counters", "gauges", "dists", "sink")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.dists: Dict[str, Dist] = {}
        #: Optional streaming subscriber (``repro.obs.stream``), notified
        #: on counter increments.  The check sits after the ``enabled``
        #: early-return, so the disabled hot path stays one ``if``.
        self.sink = None

    def inc(self, name: str, value: float = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value
        if self.sink is not None:
            self.sink.on_inc(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        dist = self.dists.get(name)
        if dist is None:
            dist = self.dists[name] = Dist()
        dist.observe(value)

    def observe_repeat(self, name: str, value: float, k: int) -> None:
        """:meth:`observe` ``value`` ``k`` times (:meth:`Dist.observe_repeat`);
        ``k == 0`` records nothing, not even an empty distribution."""
        if not self.enabled or k <= 0:
            return
        dist = self.dists.get(name)
        if dist is None:
            dist = self.dists[name] = Dist()
        dist.observe_repeat(value, k)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-compatible snapshot with deterministic key order."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "dists": {k: self.dists[k].as_dict() for k in sorted(self.dists)},
        }


def aggregate_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-node snapshots into one network-wide snapshot.

    Counters and gauges sum (a summed gauge like ``peers.level.3`` reads
    as the network-wide total, which is what the cost-model comparison
    wants); dists merge exactly.  ``nodes`` counts contributors.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    dists: Dict[str, Dist] = {}
    n = 0
    for snap in snapshots:
        n += 1
        for k, v in snap.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, v in snap.get("gauges", {}).items():
            gauges[k] = gauges.get(k, 0) + v
        for k, d in snap.get("dists", {}).items():
            dist = dists.get(k)
            if dist is None:
                dist = dists[k] = Dist()
            dist.merge(Dist.from_dict(d))
    return {
        "nodes": n,
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "dists": {k: dists[k].as_dict() for k in sorted(dists)},
    }


def add_transport_counters(
    snapshot: Dict[str, Any],
    msgs_by_kind: Dict[str, int],
    bits_by_kind: Dict[str, float],
) -> Dict[str, Any]:
    """Write a transport's message and bit totals per wire kind into
    ``snapshot``'s counters; returns ``snapshot``."""
    counters = snapshot["counters"]
    for kind in sorted(msgs_by_kind):
        counters[f"{TRANSPORT_MSGS}.{kind}"] = msgs_by_kind[kind]
    for kind in sorted(bits_by_kind):
        counters[f"{TRANSPORT_BITS}.{kind}"] = bits_by_kind[kind]
    return snapshot


def flatten_snapshot(snapshot: Dict[str, Any]) -> List[Tuple[str, str, float]]:
    """``(kind, name, value)`` rows for tables/CSV, deterministic order.

    Dists expand into ``name.count`` / ``name.mean`` / ``name.min`` /
    ``name.max`` rows.
    """
    rows: List[Tuple[str, str, float]] = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append(("counter", name, value))
    for name, value in snapshot.get("gauges", {}).items():
        rows.append(("gauge", name, value))
    for name, d in snapshot.get("dists", {}).items():
        for stat in ("count", "mean", "min", "max"):
            rows.append(("dist", f"{name}.{stat}", d[stat]))
    return rows
