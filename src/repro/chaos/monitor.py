"""Live invariant checking during chaos runs.

Two invariant classes, checked on a periodic tick *while the faults are
being injected*:

* **safety** — must hold at every instant, disrupted or not:

  - every live node's level is within ``[0, id_bits]``;
  - a live node's peer list contains its own pointer;
  - every held pointer is **audience-recognizable**: the owner can prove
    from the ``(nodeId, level)`` pair alone that the pointee belongs in
    its peer list (the ``in_peer_list`` prefix relation — peer-list
    property 1);

* **convergence** — must hold once the network has been quiescent (no
  fault injected or reversed) for :func:`quiescence_bound` seconds:

  - every live node's peer list equals the oracle: pointers to departed
    nodes (**stale**) and missing live audience members (**absent**) are
    both violations, reported separately;
  - the §4.1 failure-detection ring of every eigenstring group is
    closed: each member's ``ring_successor`` is exactly the next live
    member of its group in id order (wrapping).

Convergence is *gated, not skipped*: the fault plan calls
:meth:`InvariantMonitor.note_disruption` whenever it perturbs the
network, and the checker holds its convergence assertions until the
protocol has had the full repair budget to re-converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.audience import in_peer_list, prefix_range
from repro.core.config import ProtocolConfig


def quiescence_bound(config: ProtocolConfig) -> float:
    """How long after the last disruption the network must be given
    before its convergence invariants are asserted.

    The bound is the worst-case repair pipeline, end to end:

    * *detect* — a failed neighbor is noticed at worst one probe period
      plus ``probe_misses_to_fail`` back-to-back probe timeouts after the
      fault;
    * *disseminate* — the obituary travels the §4.5 report path (two
      report hops with timeout/retry budget) and the §4.2 tree (retries
      plus per-hop processing delay over the deepest possible tree);
    * *verify* — with ``config.obituary_verify`` on (DESIGN §16), every
      believer probes the reported-dead subject before evicting, adding
      one full verification window ahead of each application;
    * one extra probe period of slack for repairs that themselves
      trigger a second detection round (e.g. crash-recovery's stale
      cache verification).
    """
    detect = config.probe_interval + (
        config.probe_misses_to_fail * config.probe_timeout
    )
    disseminate = (
        2 * config.report_timeout
        + config.multicast_attempts * config.multicast_ack_timeout
        + config.id_bits * config.multicast_processing_delay
    )
    verify = (
        config.probe_misses_to_fail * config.probe_timeout
        if config.obituary_verify
        else 0.0
    )
    return detect + disseminate + verify + config.probe_interval


@dataclass(frozen=True)
class Violation:
    """One invariant failure observed at one node at one instant.

    ``traces`` carries the ids of the traces with an in-flight span at
    the violating node when the check fired (empty when the network runs
    without observability) — the operations most likely implicated.
    """

    time: float
    invariant: str
    node_key: object
    detail: str
    traces: Tuple[str, ...] = ()

    def describe(self) -> str:
        base = f"t={self.time:.3f} {self.invariant} node={self.node_key}: {self.detail}"
        if self.traces:
            base += f" [in-flight traces: {', '.join(self.traces)}]"
        return base


class InvariantMonitor:
    """Periodic in-run checker for a sequential :class:`PeerWindowNetwork`."""

    def __init__(
        self,
        net,
        interval: float = 5.0,
        quiescence: Optional[float] = None,
        max_violations: int = 1000,
    ):
        if net.sim is None:
            raise ValueError("InvariantMonitor needs the sequential engine")
        self.net = net
        self.interval = float(interval)
        self.quiescence = (
            quiescence_bound(net.config) if quiescence is None else float(quiescence)
        )
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self.safety_checks = 0
        self.convergence_checks = 0
        self.last_disruption = net.sim.now
        self._task = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._task = self.net.sim.every(self.interval, self.check, start_delay=self.interval)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def note_disruption(self, time: Optional[float] = None) -> None:
        """Restart the quiescence clock (called by the fault plan on every
        injection *and* reversal)."""
        t = self.net.sim.now if time is None else time
        self.last_disruption = max(self.last_disruption, t)

    @property
    def quiescent(self) -> bool:
        """Whether the repair budget has fully elapsed since the last
        disruption (and no fault is still being held open)."""
        transport = self.net.transport
        if transport.partitioned or transport._zombies:
            return False
        return self.net.sim.now >= self.last_disruption + self.quiescence

    # -- checking ----------------------------------------------------------

    def check(self) -> List[Violation]:
        """One monitor tick: safety always, convergence when quiescent.
        Returns the violations found *by this tick*."""
        found: List[Violation] = []
        self._check_safety(found)
        self.safety_checks += 1
        if self.quiescent:
            self._check_convergence(found)
            self.convergence_checks += 1
        room = self.max_violations - len(self.violations)
        if room > 0:
            self.violations.extend(found[:room])
        return found

    def _record(self, out: List[Violation], invariant: str, key, detail: str) -> None:
        traces: Tuple[str, ...] = ()
        obs = getattr(self.net, "obs", None)
        if obs is not None and obs.enabled:
            traces = tuple(obs.open_traces(key))
        out.append(Violation(self.net.sim.now, invariant, key, detail, traces))

    def _check_safety(self, out: List[Violation]) -> None:
        bits = self.net.config.id_bits
        for node in self.net.live_nodes():
            if not 0 <= node.level <= bits:
                self._record(out, "level-range", node.address,
                             f"level {node.level} outside [0, {bits}]")
                continue
            if node.peer_list.get(node.node_id) is None:
                self._record(out, "self-pointer", node.address,
                             "live node missing from its own peer list")
            for p in node.peer_list:
                if not in_peer_list(node.node_id, node.level, p.node_id):
                    self._record(
                        out, "audience-recognizable", node.address,
                        f"holds {p.node_id!r} outside its level-{node.level} prefix",
                    )

    def _check_convergence(self, out: List[Violation]) -> None:
        live = self.net.live_nodes()
        population = sorted((n.node_id.value, n.level) for n in live)
        values = [value for value, _lvl in population]
        for node in live:
            # Everyone under the node's eigenstring: one run of the
            # id-sorted population.
            start, stop = prefix_range(
                values, node.node_id.value, node.node_id.bits, node.level
            )
            oracle = set(values[start:stop])
            actual = set(node.peer_list.ids())
            for value in sorted(actual - oracle):
                self._record(out, "stale-pointer", node.address,
                             f"points at departed/foreign id {value:#x}")
            for value in sorted(oracle - actual):
                self._record(out, "missing-peer", node.address,
                             f"live audience member {value:#x} absent")
            self._check_ring(out, node, population[start:stop])

    def _check_ring(self, out: List[Violation], node, covered) -> None:
        """Ring closure: the §4.1 ring runs over the node's eigenstring
        group (same level, same prefix); its successor must be the next
        live group member in id order, wrapping.  ``covered`` is the
        id-sorted ``(id, level)`` of the live nodes under its prefix."""
        group = [value for value, lvl in covered if lvl == node.level]
        successor = node.peer_list.ring_successor(node.node_id)
        if len(group) <= 1:
            if successor is not None and successor.node_id.value not in group:
                self._record(out, "ring-closed", node.address,
                             f"singleton group but probes {successor.node_id!r}")
            return
        own = node.node_id.value
        larger = [v for v in group if v > own]
        expected = larger[0] if larger else group[0]
        if expected == own:
            return
        if successor is None:
            self._record(out, "ring-closed", node.address,
                         f"no ring successor; expected {expected:#x}")
        elif successor.node_id.value != expected:
            self._record(
                out, "ring-closed", node.address,
                f"probes {successor.node_id.value:#x}, expected {expected:#x}",
            )

    # -- summaries ---------------------------------------------------------

    def summary(self) -> str:
        kinds: dict = {}
        for v in self.violations:
            kinds[v.invariant] = kinds.get(v.invariant, 0) + 1
        inner = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())) or "none"
        return (f"{len(self.violations)} violation(s) [{inner}] over "
                f"{self.safety_checks} safety / {self.convergence_checks} "
                f"convergence checks")
