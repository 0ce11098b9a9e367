"""Protocol health SLOs: declarative specs, streaming evaluation, verdicts.

Where :mod:`repro.chaos.monitor` checks hard *safety* invariants (things
that must never be false), this module checks *statistical* service
levels — the quantities the paper itself bounds:

* multicast tree completeness and non-delivery (§4.2's reliable tree),
* measured-vs-analytic bandwidth ratio (§2's ``p = W·L/(m·r·i)``),
* peer-list error rate against §5.3's ``delay / lifetime`` envelope,
* failure-detector false positives (§4.1),
* join failure rate and multicast depth against the O(log n) bound.

A :class:`HealthSpec` is a list of :class:`Slo` bands — each a named
signal with optional lower/upper bounds — serializable to JSON so chaos
scenarios and CI can pin their expectations (``repro chaos --health
spec.json``).  :func:`HealthSpec.default` derives the bands from a
:class:`~repro.core.config.ProtocolConfig` plus the analytic model, so
the defaults tighten automatically when the config does.

Evaluation comes in two shapes:

* **post-hoc** — :func:`evaluate` over :func:`run_signals`: the signals
  of an :class:`~repro.obs.analyze.AnalysisReport` plus the
  metrics-derived ones from :func:`metrics_signals`;
* **streaming** — :class:`EwmaHealthMonitor` smooths noisy signals with
  an exponentially-weighted moving average before judging them.  Inside
  a run it has one host, the
  :class:`~repro.obs.stream.WindowAggregator` of a
  :class:`~repro.obs.stream.StreamWindower`: the chaos runner keeps a
  window's breaches when the network is quiescent at its boundary.

Determinism: evaluation is pure arithmetic over its inputs; the
windower samples between simulation strides and sends no messages, so
an in-run judge never perturbs the protocol it judges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.analytic import expected_error_rate, expected_multicast_steps
from repro.obs.analyze import AnalysisReport, SchemaError
from repro.paths import prepare_output_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import ProtocolConfig

__all__ = [
    "EwmaHealthMonitor",
    "HealthSpec",
    "Slo",
    "Verdict",
    "evaluate",
    "metrics_signals",
    "run_signals",
]

#: Version stamp for serialized HealthSpec documents.
HEALTH_SPEC_VERSION = 1


@dataclass(frozen=True)
class Slo:
    """One service-level band over a named scalar signal.

    The signal is healthy iff ``lo <= value <= hi`` (either bound may be
    ``None`` = unbounded on that side).
    """

    name: str
    description: str = ""
    lo: Optional[float] = None
    hi: Optional[float] = None

    def ok(self, value: float) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "lo": self.lo,
            "hi": self.hi,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any], where: str = "slo") -> "Slo":
        """Raises :class:`~repro.obs.analyze.SchemaError`, prefixed with
        ``where``, for anything but an object with a string ``name`` and
        numeric-or-null ``lo`` / ``hi``."""
        if not isinstance(d, dict) or not isinstance(d.get("name"), str):
            raise SchemaError(f"{where}: expected an object with a string 'name'")
        bounds: Dict[str, Optional[float]] = {}
        for side in ("lo", "hi"):
            try:
                bounds[side] = None if d.get(side) is None else float(d[side])
            except (TypeError, ValueError):
                raise SchemaError(
                    f"{where} ({d['name']}): {side!r} must be a number or "
                    f"null, got {d[side]!r}"
                ) from None
        return cls(name=d["name"], description=str(d.get("description", "")), **bounds)


@dataclass(frozen=True)
class Verdict:
    """The outcome of judging one :class:`Slo` against one value.

    ``traces`` carries trace ids implicated in the breach when the
    evaluator had any (the chaos runner's in-run judge attaches the
    in-flight traces of the worst node).
    """

    slo: str
    value: float
    lo: Optional[float]
    hi: Optional[float]
    ok: bool
    time: float = 0.0
    detail: str = ""
    traces: Tuple[str, ...] = ()

    def describe(self) -> str:
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "inf" if self.hi is None else f"{self.hi:g}"
        band = f"[{lo}, {hi}]"
        state = "ok" if self.ok else "BREACH"
        text = f"{state} {self.slo}={self.value:.6g} band={band}"
        if self.detail:
            text += f" ({self.detail})"
        if self.traces:
            text += f" traces={','.join(self.traces[:5])}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "value": self.value,
            "lo": self.lo,
            "hi": self.hi,
            "ok": self.ok,
            "time": self.time,
            "detail": self.detail,
            "traces": list(self.traces),
        }


@dataclass
class HealthSpec:
    """A named collection of :class:`Slo` bands."""

    slos: List[Slo] = field(default_factory=list)
    name: str = "default"

    def __iter__(self):
        return iter(self.slos)

    def get(self, name: str) -> Optional[Slo]:
        for slo in self.slos:
            if slo.name == name:
                return slo
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": HEALTH_SPEC_VERSION,
            "name": self.name,
            "slos": [slo.to_dict() for slo in self.slos],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any], where: str = "health spec") -> "HealthSpec":
        """Raises :class:`~repro.obs.analyze.SchemaError`, prefixed with
        ``where``, naming the first field that is not what a spec holds."""
        if not isinstance(d, dict):
            raise SchemaError(
                f"{where}: expected a JSON object, got {type(d).__name__}")
        declared = d.get("schema_version", HEALTH_SPEC_VERSION)
        if not isinstance(declared, int) or declared > HEALTH_SPEC_VERSION:
            raise SchemaError(
                f"{where} has schema_version {declared!r}; this build "
                f"reads <= {HEALTH_SPEC_VERSION}"
            )
        slos = d.get("slos", [])
        if not isinstance(slos, list):
            raise SchemaError(
                f"{where}: 'slos' must be a list, got {type(slos).__name__}")
        return cls(
            slos=[Slo.from_dict(s, f"{where}: slos[{i}]") for i, s in enumerate(slos)],
            name=str(d.get("name", "default")),
        )

    def save(self, path: str) -> str:
        prepare_output_path(path, "health spec")
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "HealthSpec":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(doc, where=path)

    @classmethod
    def default(
        cls,
        config: "ProtocolConfig",
        n_nodes: int,
        mean_lifetime_s: float = 3600.0,
    ) -> "HealthSpec":
        """Derive SLO bands from the config and the §2/§5.3 model.

        The bands are deliberately generous — they flag *protocol-level*
        sickness (trees not forming, the detector burying live nodes,
        bandwidth an order of magnitude off the model), not benchmark
        noise.
        """
        # §5.3: staleness a peer list accumulates before an event
        # propagates = detection delay + the O(log n) multicast delay.
        detect = (
            config.probe_interval * config.probe_misses_to_fail
            + config.probe_timeout
        )
        mcast_delay = (
            expected_multicast_steps(max(2, n_nodes))
            * (config.multicast_processing_delay + config.multicast_ack_timeout)
        )
        err = expected_error_rate(detect + mcast_delay, mean_lifetime_s)
        depth_bound = math.ceil(expected_multicast_steps(max(2, n_nodes))) + 2
        return cls(
            name="default",
            slos=[
                Slo(
                    "mcast.tree_completeness",
                    "fraction of multicast spans whose parent chain "
                    "resolves to a recorded root (§4.2 tree integrity)",
                    lo=0.99,
                ),
                Slo(
                    "mcast.non_delivery_rate",
                    "multicast spans that died in flight or never closed",
                    hi=0.02,
                ),
                Slo(
                    "mcast.redirect_rate",
                    "stale-pointer redirects per multicast span "
                    "(§4.2 repair traffic)",
                    hi=0.20,
                ),
                Slo(
                    "mcast.max_depth",
                    "deepest observed tree level vs the O(log n) bound",
                    hi=float(min(depth_bound, config.id_bits)),
                ),
                Slo(
                    "mcast.ack_retry_rate",
                    "multicast ack timeouts per multicast message sent; "
                    "timeouts toward crashed peers are the §4.1 detection "
                    "path, so churn pushes this up — a systemic retry "
                    "storm (every send retried) approaches "
                    "(attempts-1)/attempts ≈ 0.67",
                    hi=0.5,
                ),
                Slo(
                    "bandwidth.model_ratio",
                    "measured multicast bits per event-member vs the §2 "
                    "model's W (acks/retries push it above 1; partial "
                    "audiences below)",
                    lo=0.2,
                    hi=5.0,
                ),
                Slo(
                    "peerlist.error_rate",
                    "measured stale+absent pointer fraction vs §5.3's "
                    "delay/lifetime envelope (3x headroom, 2% floor)",
                    hi=max(0.02, 3.0 * err),
                ),
                Slo(
                    "detector.false_positive_rate",
                    "obituaries whose subject was demonstrably alive "
                    "(§4.1 should only bury the dead)",
                    hi=0.05,
                ),
                Slo(
                    "join.failure_rate",
                    "§4.3 handshakes that exhausted retries",
                    hi=0.05,
                ),
            ],
        )

    @classmethod
    def byzantine(
        cls,
        config: "ProtocolConfig",
        n_nodes: int,
        mean_lifetime_s: float = 3600.0,
    ) -> "HealthSpec":
        """The default bands adapted for adversarial (DESIGN §16) runs,
        plus the ``byz.*`` invariant signals the byzantine runner emits.

        Three default bands are dropped because the adversary breaks
        their premises, not the protocol's:

        * ``mcast.tree_completeness`` / ``mcast.non_delivery_rate`` —
          targeted forgeries are *rootless by construction* (an eclipse
          send has no ``mcast.root``), so every adversary injection
          counts as an orphan hop regardless of how well the honest
          trees behave;
        * ``join.failure_rate`` — under admission control, *rejected*
          sybil joins are the success condition, not a failure.
        """
        dropped = {
            "mcast.tree_completeness",
            "mcast.non_delivery_rate",
            "join.failure_rate",
        }
        base = cls.default(config, n_nodes, mean_lifetime_s=mean_lifetime_s)
        slos = [slo for slo in base.slos if slo.name not in dropped]
        slos += [
            Slo(
                "byz.forged_evictions",
                "monitor ticks that caught a live forgery victim evicted "
                "from an honest peer list (§16: verify before believe)",
                hi=0.0,
            ),
            Slo(
                "byz.eclipse_isolation",
                "monitor ticks on which an eclipse victim's audience "
                "coverage fell below half",
                hi=0.0,
            ),
            Slo(
                "byz.sybil_fraction",
                "aggregate sybil share of honest peer-list slots at the "
                "end of the run (§16: PoW admission + join throttle keep "
                "sybils a small minority; per-node majority capture is "
                "the monitor's sybil-occupancy invariant)",
                hi=0.35,
            ),
            Slo(
                "byz.inflated_claims",
                "pointers still carrying a level-inflated claim after "
                "quiescence (§16: the claim audit demotes liars)",
                hi=0.0,
            ),
        ]
        return cls(name="byzantine", slos=slos)


def evaluate(
    spec: HealthSpec,
    signals: Dict[str, float],
    now: float = 0.0,
    traces: Optional[Dict[str, Tuple[str, ...]]] = None,
) -> List[Verdict]:
    """Judge every SLO whose signal is present in ``signals``.

    Missing signals are skipped rather than failed: an un-instrumented
    run (no metrics file, say) should not breach the SLOs it cannot
    measure.  Verdict order follows the spec, so output is deterministic.
    """
    verdicts: List[Verdict] = []
    for slo in spec:
        if slo.name not in signals:
            continue
        value = float(signals[slo.name])
        ok = slo.ok(value)
        verdicts.append(
            Verdict(
                slo=slo.name,
                value=value,
                lo=slo.lo,
                hi=slo.hi,
                ok=ok,
                time=now,
                detail=slo.description if not ok else "",
                traces=() if ok or traces is None else traces.get(slo.name, ()),
            )
        )
    return verdicts


def metrics_signals(
    snapshot: Dict[str, Any],
    config: "ProtocolConfig",
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """Signals derivable from a metrics snapshot (not from spans).

    * ``mcast.ack_retry_rate`` — ack timeouts per multicast sent;
    * ``bandwidth.model_ratio`` — measured multicast bits divided by the
      §2 prediction ``events × mean_list_size × i`` (every event should
      cost each audience member one ``i``-bit message, §4.2 redundancy
      ``r ≈ 1``);
    * ``peerlist.error_rate`` — passed through from run ``meta`` when the
      producer measured it against the membership oracle.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    nodes = snapshot.get("nodes", 0)
    signals: Dict[str, float] = {}

    mcast_msgs = counters.get("transport.msgs.mcast", 0)
    if mcast_msgs:
        signals["mcast.ack_retry_rate"] = (
            counters.get("mcast.ack_timeouts", 0) / mcast_msgs
        )

    events = counters.get("mcast.originated", 0)
    bits = counters.get("transport.bits.mcast", 0)
    total_pointers = sum(
        v for k, v in gauges.items() if k.startswith("peers.size.level.")
    )
    mean_list = total_pointers / nodes if nodes else 0.0
    predicted = events * mean_list * config.event_message_bits
    if predicted > 0:
        signals["bandwidth.model_ratio"] = bits / predicted

    if meta and "mean_error_rate" in meta:
        signals["peerlist.error_rate"] = float(meta["mean_error_rate"])
    return signals


def run_signals(
    report: AnalysisReport,
    snapshot: Optional[Dict[str, Any]],
    config: "ProtocolConfig",
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """The signals of a run, as every post-hoc judge of one sees them:
    the span analytics of ``report`` plus what the run's metrics
    ``snapshot`` (``None`` when it recorded none) adds through
    :func:`metrics_signals`."""
    signals = dict(report.signals())
    if snapshot is not None:
        signals.update(metrics_signals(snapshot, config, meta=meta))
    return signals


class EwmaHealthMonitor:
    """Streaming SLO evaluation over EWMA-smoothed signals.

    ``alpha`` is the usual smoothing factor (1 = no smoothing); the
    first ``warmup`` observations of each signal update the average but
    produce no verdicts, so start-up transients (empty peer lists, no
    traffic yet) cannot fire spurious breaches.
    """

    def __init__(self, spec: HealthSpec, alpha: float = 0.3, warmup: int = 2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.spec = spec
        self.alpha = alpha
        self.warmup = warmup
        self._ewma: Dict[str, float] = {}
        self._count: Dict[str, int] = {}

    def smoothed(self, name: str) -> Optional[float]:
        return self._ewma.get(name)

    def observe(
        self,
        signals: Dict[str, float],
        now: float = 0.0,
        traces: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> List[Verdict]:
        """Fold one sample in; judge the signals that are past warm-up."""
        ready: Dict[str, float] = {}
        for name in sorted(signals):
            value = float(signals[name])
            prev = self._ewma.get(name)
            cur = value if prev is None else (
                self.alpha * value + (1.0 - self.alpha) * prev
            )
            self._ewma[name] = cur
            seen = self._count.get(name, 0) + 1
            self._count[name] = seen
            if seen > self.warmup:
                ready[name] = cur
        return evaluate(self.spec, ready, now=now, traces=traces)
