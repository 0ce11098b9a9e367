"""The chaos run driver: scenario -> network -> plan -> verdict.

:class:`ChaosRunner` builds a fresh sequential
:class:`~repro.core.protocol.PeerWindowNetwork`, seeds it, lets it
settle, installs the scenario's :class:`~repro.chaos.faults.FaultPlan`
and an :class:`~repro.chaos.monitor.InvariantMonitor`, runs past the
plan horizon plus the quiescence bound, forces a final full check, and
returns a :class:`ChaosResult`.

Everything in the run — victim selection, fault times, the trace — is a
pure function of ``(scenario, n_nodes, seed)``: the emitted trace ends
with a per-node peer-list digest, so two same-seed runs can be compared
byte-for-byte (`ChaosResult.trace`), which is exactly how the
determinism tests and the acceptance criterion check replayability.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.obs.stream import StreamConfig

from repro.chaos.faults import ChaosTrace
from repro.chaos.monitor import InvariantMonitor, Violation
from repro.chaos.scenarios import Scenario
from repro.core.protocol import PeerWindowNetwork
from repro.obs.health import (
    HealthSpec,
    LiveHealthMonitor,
    Verdict,
    evaluate,
    run_signals,
)
from repro.obs.trace import Span


@dataclass
class ChaosResult:
    """Everything a caller (CLI, test) needs from one chaos run."""

    scenario: str
    n_nodes: int
    seed: int
    duration: float
    live_nodes: int
    mean_error_rate: float
    faults_injected: int
    safety_checks: int
    convergence_checks: int
    violations: List[Violation]
    trace: str
    #: Recorded spans (empty unless the runner was built with
    #: ``observe=True``) and the network-wide metrics snapshot.
    spans: List[Span] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: SLO verdicts (empty unless built with ``health_spec=...``):
    #: breaches the live monitor recorded during the run, plus one
    #: post-hoc evaluation over the whole span log at the end.
    health_verdicts: List[Verdict] = field(default_factory=list)
    #: The signals that post-hoc evaluation judged (empty without one).
    health_signals: Dict[str, float] = field(default_factory=dict)
    #: DetSan findings (empty unless the run was sanitized; see
    #: :mod:`repro.analysis.detsan`), as human-readable strings.
    detsan_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def detsan_ok(self) -> bool:
        """No sanitizer finding (vacuously true when DetSan was off)."""
        return not self.detsan_violations

    @property
    def healthy(self) -> bool:
        """No SLO breach (vacuously true when health was not evaluated)."""
        return all(v.ok for v in self.health_verdicts)


class ChaosRunner:
    """Run one named scenario deterministically on the sequential engine."""

    #: Extra simulated seconds past ``horizon + quiescence`` so async
    #: tails (a recovery handshake started at the horizon) can land.
    MARGIN = 10.0

    def __init__(
        self,
        scenario: Scenario,
        n_nodes: Optional[int] = None,
        seed: int = 0,
        monitor_interval: float = 5.0,
        observe: bool = False,
        health_spec: Optional[HealthSpec] = None,
        stream: Optional["StreamConfig"] = None,
        detsan: Optional[bool] = None,
    ):
        self.scenario = scenario
        self.n_nodes = scenario.default_nodes if n_nodes is None else int(n_nodes)
        self.seed = int(seed)
        self.monitor_interval = monitor_interval
        #: Run under the DetSan sanitizer (None = honor REPRO_DETSAN).
        if detsan is None:
            from repro.analysis.detsan import detsan_requested

            detsan = detsan_requested()
        self.detsan = bool(detsan)
        #: Record spans + metrics during the run.  Tracing adds no
        #: messages and draws no randomness, so the chaos trace (and its
        #: determinism digest) is byte-identical with or without it.
        #: A health spec needs the instrumentation, so it forces this on.
        #: Streaming telemetry taps the same instrumentation, so it
        #: forces it on too.
        self.health_spec = health_spec
        self.stream = stream
        self.observe = (
            bool(observe) or health_spec is not None or stream is not None
        )

    def run(self) -> ChaosResult:
        scenario = self.scenario
        config = scenario.make_config()
        net = PeerWindowNetwork(
            config=config, master_seed=self.seed, observability=self.observe
        )
        sanitizer = None
        if self.detsan:
            from repro.analysis.detsan import DetSan

            sanitizer = DetSan()
            sanitizer.attach(net)
        try:
            return self._execute(net, config, sanitizer)
        finally:
            # The tripwires monkeypatch process globals (time/random):
            # always restore, even when the run raises.
            if sanitizer is not None:
                sanitizer.detach()

    def _execute(self, net, config, sanitizer) -> ChaosResult:
        scenario = self.scenario
        # All simulation advances route through the stream windower when
        # one is configured, so window boundaries land on the same grid
        # no matter how this driver slices its run calls.
        windower = self.stream.build(net) if self.stream is not None else None
        advance = net.run if windower is None else windower.run
        self._seed(net)
        advance(until=scenario.settle)

        trace = ChaosTrace()
        plan = scenario.build_plan(self.n_nodes, self.seed)
        monitor = self._make_monitor(net, plan)
        trace.add(net.sim.now, f"begin scenario={scenario.name} "
                               f"nodes={self.n_nodes} seed={self.seed}")
        plan.install(net, trace, on_disruption=monitor.note_disruption)
        monitor.start()
        health_mon: Optional[LiveHealthMonitor] = None
        if self.health_spec is not None:
            # Breaches only count while the network is quiescent: the SLOs
            # judge what the protocol *recovers to*, not the injected chaos
            # itself.  The EWMA still folds mid-fault samples in, so a
            # network that never recovers breaches as soon as it settles.
            health_mon = LiveHealthMonitor(
                net,
                self.health_spec,
                interval=self.monitor_interval * 4,
                gate=lambda: monitor.quiescent,
            )
            health_mon.start()

        advance(until=scenario.settle + plan.horizon + monitor.quiescence
                + self.MARGIN)
        # Late async disruptions (recovery completions, retried joins)
        # push the quiescence clock forward; keep running until the full
        # budget has elapsed after the *last* of them.
        for _ in range(8):
            target = monitor.last_disruption + monitor.quiescence + self.MARGIN
            if net.sim.now >= target:
                break
            advance(until=target)
        monitor.stop()
        monitor.check()  # one forced, quiescent, full check
        if not monitor.quiescent:  # pragma: no cover - runner bug guard
            raise RuntimeError("chaos run ended before quiescence")

        health_verdicts: List[Verdict] = []
        health_signals: Dict[str, float] = {}
        if health_mon is not None:
            health_mon.stop()
            health_verdicts.extend(health_mon.breaches)
            health_signals = self._posthoc_signals(net, config, monitor)
            assert self.health_spec is not None
            health_verdicts.extend(
                evaluate(self.health_spec, health_signals, now=net.sim.now))

        if windower is not None:
            windower.finish()
        self._trace_final_state(net, trace, monitor)
        detsan_violations: List[str] = []
        if sanitizer is not None:
            sanitizer.final_scan()
            detsan_violations = [v.describe() for v in sanitizer.violations]
        return ChaosResult(
            scenario=scenario.name,
            n_nodes=self.n_nodes,
            seed=self.seed,
            duration=net.sim.now,
            live_nodes=len(net.live_nodes()),
            mean_error_rate=net.mean_error_rate(),
            faults_injected=len(plan.events),
            safety_checks=monitor.safety_checks,
            convergence_checks=monitor.convergence_checks,
            violations=list(monitor.violations),
            trace=trace.text(),
            spans=net.spans() if self.observe else [],
            metrics=net.metrics_snapshot() if self.observe else {},
            health_verdicts=health_verdicts,
            health_signals=health_signals,
            detsan_violations=detsan_violations,
        )

    # -- subclass hooks ----------------------------------------------------

    def _seed(self, net) -> None:
        """Install the initial population (hook: the byzantine runner
        pins the seeded level so group geometry is controlled)."""
        net.seed_nodes([self.scenario.threshold_bps] * self.n_nodes)

    def _make_monitor(self, net, plan) -> InvariantMonitor:
        """Build the in-run invariant checker (hook: the byzantine runner
        substitutes a monitor that also asserts adversarial invariants)."""
        return InvariantMonitor(net, interval=self.monitor_interval)

    def _extra_signals(self, net, monitor) -> Dict[str, float]:
        """Scenario-family signals merged into the post-hoc health
        evaluation (hook: ``byz.*`` signals; empty by default)."""
        return {}

    def _posthoc_signals(self, net, config, monitor) -> Dict[str, float]:
        """What the one authoritative spec evaluation judges: the signals
        of the quiesced end state plus the scenario family's own."""
        from repro.obs.analyze import analyze_spans

        signals = run_signals(
            analyze_spans(net.spans()),
            net.metrics_snapshot(),
            config,
            meta={"mean_error_rate": net.mean_error_rate()},
        )
        signals.update(self._extra_signals(net, monitor))
        return signals

    def _trace_final_state(self, net, trace: ChaosTrace,
                           monitor: InvariantMonitor) -> None:
        """Append the determinism footer: one digest line per live node
        (key, level, peer-list CRC over the sorted ids) plus totals."""
        for key in sorted(net.nodes):
            node = net.nodes[key]
            if not node.alive:
                continue
            ids = ",".join(format(v, "x") for v in sorted(node.peer_list.ids()))
            crc = zlib.crc32(ids.encode())
            trace.add(net.sim.now,
                      f"state key={key} level={node.level} "
                      f"peers={len(node.peer_list)} crc={crc:08x}")
        trace.add(net.sim.now,
                  f"end live={len(net.live_nodes())} "
                  f"violations={len(monitor.violations)} "
                  f"error_rate={net.mean_error_rate():.6f}")
