"""Byzantine fault injection: seeded adversaries and the invariants
that judge the hardening against them (DESIGN §16).

The chaos layer so far injects *non-malicious* faults — crashes, cuts,
loss — against which the protocol's §4 machinery was designed.  This
module injects *lies*: a :class:`ByzantinePlan` wraps selected nodes in
misbehaving personas that speak valid protocol messages with false
content:

* **level inflation** — a liar announces REFRESH events claiming a far
  stronger level than it serves, poisoning audience sets and top-node
  lists (countered by the §16 claim audit);
* **forged obituaries** — liars report LEAVE events for live victims
  through the ordinary §4.5 report path (countered by verify-before-
  believe and the false-accuser quarantine);
* **eclipse** — group mates of one victim send *targeted* forged
  obituaries (``start_bit = id_bits``: zero fanout, so the multicast
  never reaches the victim and the refutation path never fires) to every
  other holder of the victim's pointer (countered by verification; the
  targeted shape is exactly what earns accuser strikes);
* **sybil flood** — a burst of protocol-correct joins from throwaway
  identities through a small set of bootstraps (countered by the
  proof-of-work admission gate and per-server join throttling);
* **flash crowd** — a legitimate join surge with power-law lifetimes;
  not an attack, but the scenario that admission control must *not*
  break.

Everything an adversary does is scheduled through the same seeded
machinery as :class:`~repro.chaos.faults.FaultPlan` — same seed, same
liars, same forged sequence numbers, byte-identical chaos trace.
Adversary forgeries emit ``byz.forge`` spans (never ``obituary`` spans,
which belong to the honest failure detector and feed its
false-positive-rate signal).

:class:`ByzantineMonitor` extends the invariant checker with the
adversarial invariants the hardening must enforce:

* **forged-eviction** — no live forgery victim disappears from an
  honest holder's peer list;
* **eclipse-isolation** — an eclipse victim stays reachable: at least
  half its oracle audience still holds its pointer;
* **sybil-occupancy** — sybil identities never dominate an honest
  node's peer list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from repro.chaos.faults import FaultPlan
from repro.chaos.monitor import InvariantMonitor, Violation
from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import Scenario
from repro.core.events import EventKind, EventRecord
from repro.net.message import Message


class ByzantinePlan(FaultPlan):
    """A seeded schedule of adversarial behaviors.

    Beyond the base plan's events, the plan records — at fire time, so
    the record is replay-deterministic — which keys played adversary and
    which were designated victims; the byzantine monitor and the
    ``byz.*`` health signals read these lists.
    """

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        #: Keys that actively lied (liars, eclipse adversaries).
        self.adversaries: List[Hashable] = []
        #: Keys the plan forged network-wide obituaries for.
        self.forgery_victims: List[Hashable] = []
        #: Keys targeted by an eclipse.
        self.eclipse_victims: List[Hashable] = []
        #: Keys that inflated their level claims.
        self.level_liars: List[Hashable] = []
        #: Keys of every sybil identity that *started* a join.
        self.sybil_keys: List[Hashable] = []
        self.sybil_attempts = 0
        self.sybil_admitted = 0
        self.flash_joins = 0

    def _remember(self, seen: List[Hashable], keys) -> None:
        for key in keys:
            if key not in seen:
                seen.append(key)

    # -- builders ----------------------------------------------------------

    def level_inflate(
        self,
        time: float,
        count: int = 1,
        claim_level: int = 0,
        period: float = 3.0,
        duration: float = 20.0,
    ) -> "ByzantinePlan":
        """``count`` liars periodically announce REFRESH events claiming
        ``claim_level`` (0 = strongest) instead of their true level."""
        self._require(count >= 1, f"level_inflate: count must be >= 1, got {count!r}")
        self._require(
            claim_level >= 0 and int(claim_level) == claim_level,
            f"level_inflate: claim_level must be a non-negative integer, "
            f"got {claim_level!r}",
        )
        self._require(period > 0, f"level_inflate: period must be positive, got {period!r}")
        self._add(
            time, "level_inflate",
            count=count, claim_level=claim_level, period=period, duration=duration,
        )
        return self

    def forge_obituaries(
        self,
        time: float,
        liars: int = 1,
        victims: int = 4,
        period: float = 3.0,
        duration: float = 20.0,
    ) -> "ByzantinePlan":
        """``liars`` keep reporting forged LEAVE events for ``victims``
        live nodes through the ordinary §4.5 report path, with sequence
        numbers chosen to outrun each victim's refutations."""
        self._require(liars >= 1, f"forge_obituaries: liars must be >= 1, got {liars!r}")
        self._require(victims >= 1,
                      f"forge_obituaries: victims must be >= 1, got {victims!r}")
        self._require(period > 0,
                      f"forge_obituaries: period must be positive, got {period!r}")
        self._add(
            time, "forge_obituaries",
            liars=liars, victims=victims, period=period, duration=duration,
        )
        return self

    def eclipse(
        self,
        time: float,
        adversaries: int = 2,
        period: float = 2.0,
        duration: float = 20.0,
    ) -> "ByzantinePlan":
        """``adversaries`` group mates of one victim send *targeted*
        forged obituaries (zero-fanout multicasts) to every other holder
        of the victim's pointer — the victim never hears its own
        obituary, so the refutation path never fires."""
        self._require(adversaries >= 1,
                      f"eclipse: adversaries must be >= 1, got {adversaries!r}")
        self._require(period > 0, f"eclipse: period must be positive, got {period!r}")
        self._add(time, "eclipse", adversaries=adversaries, period=period,
                  duration=duration)
        return self

    def sybil_flood(
        self,
        time: float,
        count: int = 20,
        spacing: float = 0.5,
        bootstraps: int = 2,
        threshold: float = 1e9,
    ) -> "ByzantinePlan":
        """``count`` throwaway identities join ``spacing`` seconds apart
        through a fixed set of ``bootstraps`` servers.  (Stored under the
        ``join`` key — like churn's joins, the count may exceed the
        current population.)"""
        self._require(count >= 1, f"sybil_flood: count must be >= 1, got {count!r}")
        self._require(spacing > 0, f"sybil_flood: spacing must be positive, got {spacing!r}")
        self._require(bootstraps >= 1,
                      f"sybil_flood: bootstraps must be >= 1, got {bootstraps!r}")
        self._require(threshold > 0,
                      f"sybil_flood: threshold must be positive, got {threshold!r}")
        self._add(
            time, "sybil_flood",
            join=count, spacing=spacing, bootstraps=bootstraps,
            threshold=threshold, duration=spacing * count,
        )
        return self

    def flash_crowd(
        self,
        time: float,
        joins: int = 20,
        window: float = 30.0,
        alpha: float = 1.5,
        lifetime: float = 20.0,
        threshold: float = 1e9,
    ) -> "ByzantinePlan":
        """``joins`` legitimate joiners arrive uniformly over ``window``
        seconds and stay for Pareto(``alpha``)-distributed lifetimes
        scaled by ``lifetime`` (clamped at 3x so the run terminates)."""
        self._require(joins >= 1, f"flash_crowd: joins must be >= 1, got {joins!r}")
        self._require(window > 0, f"flash_crowd: window must be positive, got {window!r}")
        self._require(alpha > 1.0,
                      f"flash_crowd: alpha must be > 1 (finite mean), got {alpha!r}")
        self._require(lifetime > 0,
                      f"flash_crowd: lifetime must be positive, got {lifetime!r}")
        self._require(threshold > 0,
                      f"flash_crowd: threshold must be positive, got {threshold!r}")
        self._add(
            time, "flash_crowd",
            join=joins, window=window, alpha=alpha, lifetime=lifetime,
            threshold=threshold, duration=window + 3.0 * lifetime,
        )
        return self

    # -- forgery helpers ---------------------------------------------------

    @staticmethod
    def _forged_leave(net, victim, seq: int) -> EventRecord:
        ctx = victim.ctx
        return EventRecord(
            kind=EventKind.LEAVE,
            subject_id=ctx.node_id,
            subject_level=ctx.level,
            subject_address=ctx.address,
            seq=seq,
            origin_time=net.sim.now,
            attached_info=ctx.attached_info,
        )

    @staticmethod
    def _forge_span(liar, **attrs):
        """An adversary action marker: ``byz.forge``, deliberately *not*
        an ``obituary`` span (those belong to the honest detector and
        feed its false-positive-rate signal)."""
        ctx = liar.ctx
        if not ctx.obs.enabled:
            return None
        return ctx.obs.instant("byz.forge", liar.runtime.now, **attrs)

    # -- firing: level inflation -------------------------------------------

    def _fire_level_inflate(self, net, trace, ev, index, rng) -> None:
        liars = self._pick(rng, self._live_keys(net), int(ev.get("count", 1)))
        claim = int(ev.get("claim_level", 0))
        period = ev.get("period", 3.0)
        end = net.sim.now + ev.get("duration", 20.0)
        self._remember(self.adversaries, liars)
        self._remember(self.level_liars, liars)
        for key in liars:
            self._inflate_tick(net, trace, key, claim, period, end)
        self._note(net, trace, f"level_inflate liars={liars} claim={claim}")

    def _inflate_tick(self, net, trace, key, claim, period, end) -> None:
        node = net.nodes.get(key)
        if node is None or not node.alive or net.sim.now > end:
            return
        ctx = node.ctx
        level = max(0, min(int(claim), ctx.node_id.bits))
        event = EventRecord(
            kind=EventKind.REFRESH,
            subject_id=ctx.node_id,
            subject_level=level,
            subject_address=ctx.address,
            seq=ctx.next_seq(),
            origin_time=net.sim.now,
            attached_info=ctx.attached_info,
        )
        span = self._forge_span(node, kind="level_inflate", claimed=level)
        ctx.report_event(event, trace=span.ref() if span is not None else None)
        self._note(net, trace,
                   f"level_inflate_tick key={key} claimed={level} seq={event.seq}")
        net.sim.schedule(period, self._inflate_tick, net, trace, key, claim,
                         period, end)

    # -- firing: forged obituaries -----------------------------------------

    def _fire_forge_obituaries(self, net, trace, ev, index, rng) -> None:
        # Liars and victims come from ONE eigenstring group: an event
        # about a subject outside the receiver's prefix is ignored on
        # arrival (the apply_event audience rule), so a cross-group
        # forgery evicts nobody — the believable lie is about a peer.
        pool = self._live_keys(net)
        picked = self._pick(rng, pool, 1)
        if not picked:
            return
        anchor = net.nodes[picked[0]]
        group = [
            k for k in pool
            if net.nodes[k].ctx.node_id.shares_prefix(
                anchor.ctx.node_id, anchor.ctx.level
            )
        ]
        liars = self._pick(rng, group, int(ev.get("liars", 1)))
        victims = self._pick(rng, [k for k in group if k not in liars],
                             int(ev.get("victims", 4)))
        if not liars or not victims:
            self._note(net, trace, "forge_obituaries aborted: group too small")
            return
        period = ev.get("period", 3.0)
        end = net.sim.now + ev.get("duration", 20.0)
        self._remember(self.adversaries, liars)
        self._remember(self.forgery_victims, victims)
        self._forge_tick(net, trace, liars, victims, period, end)

    def _forge_tick(self, net, trace, liars, victims, period, end) -> None:
        if net.sim.now > end:
            return
        live_liars = [k for k in liars
                      if k in net.nodes and net.nodes[k].alive]
        if not live_liars:
            return
        forged: List[Hashable] = []
        for i, vkey in enumerate(victims):
            victim = net.nodes.get(vkey)
            if victim is None or not victim.alive:
                continue
            liar = net.nodes[live_liars[i % len(live_liars)]]
            # Outrun the victim's refutations: forge one past the newest
            # sequence the liar has heard for the victim (or, for victims
            # outside the liar's audience, the victim's own counter).
            held = liar.ctx.peer_list.get(victim.ctx.node_id)
            seq = (held.last_event_seq if held is not None else victim.ctx.seq) + 1
            event = self._forged_leave(net, victim, seq)
            span = self._forge_span(liar, kind="obituary", subject=str(vkey))
            liar.ctx.report_event(
                event, trace=span.ref() if span is not None else None
            )
            forged.append(vkey)
        self._note(net, trace,
                   f"forge_obituary liars={live_liars} victims={forged}")
        net.sim.schedule(period, self._forge_tick, net, trace, liars, victims,
                         period, end)

    # -- firing: eclipse ---------------------------------------------------

    def _fire_eclipse(self, net, trace, ev, index, rng) -> None:
        pool = self._live_keys(net)
        picked = self._pick(rng, pool, 1)
        if not picked:
            return
        victim_key = picked[0]
        victim = net.nodes[victim_key]
        mates = [
            k for k in pool
            if k != victim_key
            and net.nodes[k].ctx.node_id.shares_prefix(
                victim.ctx.node_id, victim.ctx.level
            )
        ]
        adversaries = self._pick(rng, mates, int(ev.get("adversaries", 2)))
        if not adversaries:
            self._note(net, trace,
                       f"eclipse aborted: no group mates for {victim_key}")
            return
        period = ev.get("period", 2.0)
        end = net.sim.now + ev.get("duration", 20.0)
        self._remember(self.adversaries, adversaries)
        self._remember(self.eclipse_victims, [victim_key])
        self._note(net, trace,
                   f"eclipse victim={victim_key} adversaries={adversaries}")
        self._eclipse_tick(net, trace, victim_key, adversaries, period, end, 0)

    def _eclipse_tick(self, net, trace, victim_key, adversaries, period, end,
                      bump) -> None:
        victim = net.nodes.get(victim_key)
        if victim is None or not victim.alive or net.sim.now > end:
            return
        live_advs = [k for k in adversaries
                     if k in net.nodes and net.nodes[k].alive]
        if not live_advs:
            return
        forged = 0
        # Target every *other* current holder of the victim's pointer with
        # a zero-fanout multicast (start_bit = id_bits): the lie lands and
        # stops — the victim is never in the tree, so it cannot refute.
        for ptr in sorted(list(victim.ctx.peer_list),
                          key=lambda p: p.node_id.value):
            tkey = ptr.address
            if tkey == victim_key or tkey in adversaries:
                continue
            target = net.nodes.get(tkey)
            if target is None or not target.alive:
                continue
            liar = net.nodes[live_advs[forged % len(live_advs)]]
            # Escalate the forged sequence each round (``bump``): a
            # hardened target refuses the first lie but records its seq
            # as seen, so a repeat at the same seq dies in the duplicate
            # path — an adaptive adversary outruns that, and the repeat
            # accusations are exactly what earns it quarantine strikes.
            held = target.ctx.peer_list.get(victim.ctx.node_id)
            base = held.last_event_seq if held is not None else victim.ctx.seq
            event = self._forged_leave(net, victim, base + 1 + bump)
            span = self._forge_span(liar, kind="eclipse", subject=str(victim_key),
                                    target=str(tkey))
            liar.runtime.send(
                Message(
                    liar.ctx.address,
                    tkey,
                    "mcast",
                    payload=(event, liar.ctx.node_id.bits),
                    size_bits=liar.ctx.config.event_message_bits,
                    trace=span.ref() if span is not None else None,
                )
            )
            forged += 1
        if forged:
            self._note(net, trace,
                       f"eclipse_tick victim={victim_key} targeted={forged}")
        net.sim.schedule(period, self._eclipse_tick, net, trace, victim_key,
                         adversaries, period, end, bump + 1)

    # -- firing: sybil flood -----------------------------------------------

    def _fire_sybil_flood(self, net, trace, ev, index, rng) -> None:
        boots = self._pick(rng, self._live_keys(net),
                           int(ev.get("bootstraps", 2)))
        if not boots:
            return
        count = int(ev.get("join", 20))
        spacing = ev.get("spacing", 0.5)
        threshold = ev.get("threshold", 1e9)
        self.sybil_attempts += count
        for i in range(count):
            net.sim.schedule(spacing * i, self._sybil_join, net, trace, boots,
                             threshold, index, i)
        self._note(net, trace,
                   f"sybil_flood count={count} spacing={spacing:g} bootstraps={boots}")

    def _sybil_join(self, net, trace, boots, threshold, index, i) -> None:
        rng = self._rng((index + 3) * 1_000_003 + i)
        live_boots = [k for k in boots
                      if k in net.nodes and net.nodes[k].alive]
        pool = live_boots or self._live_keys(net)
        if not pool:
            return
        boot = pool[int(rng.integers(len(pool)))]

        def done(ok: bool, i=i, boot=boot) -> None:
            if ok:
                self.sybil_admitted += 1
            self._note(net, trace, f"sybil_join i={i} via={boot} ok={ok}")

        key = net.add_node(threshold, boot, on_done=done)
        self.sybil_keys.append(key)

    # -- firing: flash crowd -----------------------------------------------

    def _fire_flash_crowd(self, net, trace, ev, index, rng) -> None:
        count = int(ev.get("join", 20))
        window = ev.get("window", 30.0)
        alpha = ev.get("alpha", 1.5)
        lifetime = ev.get("lifetime", 20.0)
        threshold = ev.get("threshold", 1e9)
        offsets = sorted(float(x) for x in rng.uniform(0.0, window, size=count))
        lifetimes = [
            min(float(lifetime * (x + 1.0)), 3.0 * lifetime)
            for x in rng.pareto(alpha, size=count)
        ]
        self.flash_joins += count
        for i in range(count):
            net.sim.schedule(offsets[i], self._flash_join, net, trace,
                             threshold, lifetimes[i], index, i)
        self._note(net, trace,
                   f"flash_crowd joins={count} window={window:g} alpha={alpha:g}")

    def _flash_join(self, net, trace, threshold, lifetime, index, i) -> None:
        live = self._live_keys(net)
        if not live:
            return
        rng = self._rng((index + 7) * 1_000_003 + i)
        boot = live[int(rng.integers(len(live)))]

        def done(ok: bool, i=i) -> None:
            self._note(net, trace, f"flash_join i={i} ok={ok}")

        key = net.add_node(threshold, boot, on_done=done)
        net.sim.schedule(lifetime, self._flash_depart, net, trace, key)

    def _flash_depart(self, net, trace, key) -> None:
        node = net.nodes.get(key)
        if node is None or not node.alive:
            return
        if len(self._live_keys(net)) <= self.MIN_SURVIVORS:
            return
        net.crash(key)
        self._note(net, trace, f"flash_depart key={key}")


class ByzantineMonitor(InvariantMonitor):
    """The invariant checker plus the DESIGN §16 adversarial invariants.

    The byzantine checks are *safety-class* — asserted on every tick,
    disrupted or not: an eviction-by-forgery is a violation the instant
    it exists, however briefly the refutation path later heals it.
    A tight default interval (1 s) is what catches those windows.
    """

    def __init__(
        self,
        net,
        plan: ByzantinePlan,
        interval: float = 1.0,
        quiescence: Optional[float] = None,
        max_violations: int = 1000,
    ):
        super().__init__(net, interval=interval, quiescence=quiescence,
                         max_violations=max_violations)
        self.plan = plan
        self.forged_evictions = 0
        self.eclipse_alarms = 0
        self.sybil_alarms = 0

    def check(self) -> List[Violation]:
        found = super().check()
        extra: List[Violation] = []
        self._check_forged_evictions(extra)
        self._check_eclipse(extra)
        self._check_sybil(extra)
        room = self.max_violations - len(self.violations)
        if room > 0:
            self.violations.extend(extra[:room])
        return found + extra

    def _holders_of(self, victim) -> List[object]:
        """Live honest nodes whose oracle audience contains ``victim``."""
        adversaries = set(self.plan.adversaries)
        return [
            n for n in self.net.live_nodes()
            if n.address != victim.address
            and n.address not in adversaries
            and victim.node_id.shares_prefix(n.node_id, n.level)
        ]

    def _check_forged_evictions(self, out: List[Violation]) -> None:
        """No live node is evicted by forgery: every honest audience
        member still holds each live forgery victim's pointer."""
        for vkey in self.plan.forgery_victims:
            victim = self.net.nodes.get(vkey)
            if victim is None or not victim.alive:
                continue
            for holder in self._holders_of(victim):
                if holder.peer_list.get(victim.node_id) is None:
                    self.forged_evictions += 1
                    self._record(
                        out, "forged-eviction", holder.address,
                        f"live victim {vkey} evicted by forged obituary",
                    )

    def _check_eclipse(self, out: List[Violation]) -> None:
        """An eclipse victim stays reachable: at least half its oracle
        audience still holds its pointer."""
        for vkey in self.plan.eclipse_victims:
            victim = self.net.nodes.get(vkey)
            if victim is None or not victim.alive:
                continue
            holders = self._holders_of(victim)
            if not holders:
                continue
            holding = sum(
                1 for h in holders if h.peer_list.get(victim.node_id) is not None
            )
            coverage = holding / len(holders)
            if coverage < 0.5:
                self.eclipse_alarms += 1
                self._record(
                    out, "eclipse-isolation", vkey,
                    f"only {holding}/{len(holders)} audience members "
                    f"still hold the victim",
                )

    def _check_sybil(self, out: List[Violation]) -> None:
        """Bounded sybil occupancy: sybil identities never make up the
        majority of an honest node's peer list."""
        if not self.plan.sybil_keys:
            return
        sybil_keys = set(self.plan.sybil_keys)
        sybil_ids = {
            self.net.nodes[k].node_id.value
            for k in sybil_keys
            if k in self.net.nodes
        }
        for node in self.net.live_nodes():
            if node.address in sybil_keys:
                continue
            others = [v for v in node.peer_list.ids()
                      if v != node.node_id.value]
            if not others:
                continue
            share = sum(1 for v in others if v in sybil_ids) / len(others)
            if share > 0.5:
                self.sybil_alarms += 1
                self._record(
                    out, "sybil-occupancy", node.address,
                    f"sybils hold {share:.0%} of the peer list",
                )


def sybil_fraction(net, plan: ByzantinePlan) -> float:
    """Aggregate sybil occupancy: the sybil share of all honest live
    nodes' peer-list slots at the end of the run (0.0 when no sybil was
    ever admitted).  Per-node *majority* capture is the monitor's
    sybil-occupancy invariant; this signal judges how much of the
    network's pointer real estate the flood bought overall."""
    sybil_keys = set(plan.sybil_keys)
    sybil_ids = {
        net.nodes[k].node_id.value for k in sybil_keys if k in net.nodes
    }
    held = 0
    total = 0
    for node in net.live_nodes():
        if node.address in sybil_keys:
            continue
        others = [v for v in node.peer_list.ids() if v != node.node_id.value]
        held += sum(1 for v in others if v in sybil_ids)
        total += len(others)
    return held / total if total else 0.0


def inflated_claims(net, plan: ByzantinePlan) -> int:
    """Pointers across honest live nodes still carrying a level-inflated
    liar's false claim (level below the liar's true level)."""
    count = 0
    for key in plan.level_liars:
        liar = net.nodes.get(key)
        if liar is None or not liar.alive:
            continue
        true_level = liar.ctx.level
        for node in net.live_nodes():
            if node.address == key:
                continue
            held = node.peer_list.get(liar.node_id)
            if held is not None and held.level < true_level:
                count += 1
            for top in node.ctx.top_list.pointers():
                if (top.node_id.value == liar.node_id.value
                        and top.level < true_level):
                    count += 1
    return count


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

#: The full §16 hardening switch block.  ``join_pow_bits=10`` at 200
#: hashes/s means an expected ~5 s of grinding per admission attempt
#: (and a retry re-grinds — retries are not free); the 12 s per-server
#: throttle bounds each bootstrap to 5 admissions/min.
HARDENING: Dict[str, float] = {
    "obituary_verify": True,
    "quarantine_strikes": 2,
    "join_pow_bits": 10,
    "join_pow_hash_rate": 200.0,
    "join_throttle_interval": 12.0,
    "claim_audit_interval": 8.0,
}

#: Flash crowds are legitimate: keep the PoW cost but relax the throttle
#: so honest joiners clear the gate within their retry budget.
FLASH_HARDENING: Dict[str, float] = dict(HARDENING, join_throttle_interval=1.0)


@dataclass(frozen=True)
class ByzantineScenario(Scenario):
    """A chaos scenario with an adversary in it.

    ``forced_level`` pins every seeded node's level (controlled group
    geometry: with ``id_bits=16`` and level 2, four parts whose members
    hold each other); ``hardened`` records whether the §16 defenses are
    on — the ``-unhardened`` variants exist to *demonstrate the breach*
    and are expected to fail their SLOs.
    """

    forced_level: Optional[int] = None
    hardened: bool = True


def _forged_obituary_plan(n: int, seed: int) -> ByzantinePlan:
    plan = ByzantinePlan(seed)
    plan.forge_obituaries(6.0, liars=2, victims=4, period=2.5, duration=18.0)
    return plan


def _eclipse_plan(n: int, seed: int) -> ByzantinePlan:
    plan = ByzantinePlan(seed)
    plan.eclipse(6.0, adversaries=2, period=2.0, duration=16.0)
    return plan


def _sybil_flood_plan(n: int, seed: int) -> ByzantinePlan:
    plan = ByzantinePlan(seed)
    plan.sybil_flood(5.0, count=max(16, n), spacing=0.75, bootstraps=2)
    return plan


def _level_inflation_plan(n: int, seed: int) -> ByzantinePlan:
    plan = ByzantinePlan(seed)
    plan.level_inflate(6.0, count=2, claim_level=0, period=4.0, duration=20.0)
    return plan


def _flash_crowd_plan(n: int, seed: int) -> ByzantinePlan:
    plan = ByzantinePlan(seed)
    plan.flash_crowd(5.0, joins=max(8, n // 2), window=20.0, alpha=1.5,
                     lifetime=15.0)
    return plan


def _byz_pair(
    name: str,
    description: str,
    plan,
    default_nodes: int = 24,
    hardening: Optional[Dict[str, float]] = None,
    breaches: bool = True,
) -> List[ByzantineScenario]:
    """One scenario, two configs: hardened (defenses on, must stay
    healthy) and ``-unhardened`` (stock protocol — demonstrates the
    breach, except for benign surges like the flash crowd)."""
    overrides = HARDENING if hardening is None else hardening
    note = ": expected to breach" if breaches else ""
    return [
        ByzantineScenario(
            name=name,
            description=description + " (hardening on)",
            default_nodes=default_nodes,
            settle=10.0,
            plan=plan,
            config_overrides=dict(overrides),
            forced_level=2,
            hardened=True,
        ),
        ByzantineScenario(
            name=name + "-unhardened",
            description=description + f" (stock protocol{note})",
            default_nodes=default_nodes,
            settle=10.0,
            plan=plan,
            forced_level=2,
            hardened=False,
        ),
    ]


BYZANTINE_SCENARIOS: Dict[str, ByzantineScenario] = {
    s.name: s
    for s in (
        _byz_pair(
            "forged-obituary",
            "liars report forged LEAVE events for live victims through "
            "the §4.5 report path",
            _forged_obituary_plan,
        )
        + _byz_pair(
            "eclipse",
            "group mates isolate one victim with targeted zero-fanout "
            "forged obituaries",
            _eclipse_plan,
        )
        + _byz_pair(
            "sybil-flood",
            "a burst of throwaway identities joins through two bootstraps",
            _sybil_flood_plan,
            default_nodes=32,
        )
        + _byz_pair(
            "level-inflation",
            "liars claim level 0 to poison audience sets and top lists",
            _level_inflation_plan,
        )
        + _byz_pair(
            "flash-crowd",
            "a legitimate power-law join surge admission control must "
            "not break",
            _flash_crowd_plan,
            hardening=FLASH_HARDENING,
            breaches=False,
        )
    )
}


class ByzantineRunner(ChaosRunner):
    """The chaos driver specialized for adversarial scenarios: pinned
    seed levels, the byzantine monitor (tight 1 s tick), and ``byz.*``
    health signals."""

    def __init__(
        self,
        scenario: Scenario,
        n_nodes: Optional[int] = None,
        seed: int = 0,
        monitor_interval: float = 1.0,
        observe: bool = False,
        health_spec=None,
        stream=None,
        detsan=False,
    ):
        super().__init__(
            scenario,
            n_nodes=n_nodes,
            seed=seed,
            monitor_interval=monitor_interval,
            observe=observe,
            health_spec=health_spec,
            stream=stream,
            detsan=detsan,
        )

    def _seed(self, net) -> None:
        net.seed_nodes(
            [self.scenario.threshold_bps] * self.n_nodes,
            forced_level=getattr(self.scenario, "forced_level", None),
        )

    def _make_monitor(self, net, plan) -> InvariantMonitor:
        return ByzantineMonitor(net, plan, interval=self.monitor_interval)

    def _extra_signals(self, net, monitor) -> Dict[str, float]:
        """Only signals the plan actually exercised are emitted, so the
        byzantine SLO bands are skipped (not vacuously passed or failed)
        for scenarios that never injected the matching adversary."""
        plan = monitor.plan
        signals: Dict[str, float] = {}
        if plan.forgery_victims:
            signals["byz.forged_evictions"] = float(monitor.forged_evictions)
        if plan.eclipse_victims:
            signals["byz.eclipse_isolation"] = float(monitor.eclipse_alarms)
        if plan.sybil_attempts:
            signals["byz.sybil_fraction"] = sybil_fraction(net, plan)
        if plan.level_liars:
            signals["byz.inflated_claims"] = float(inflated_claims(net, plan))
        return signals


__all__ = [
    "BYZANTINE_SCENARIOS",
    "ByzantineMonitor",
    "ByzantinePlan",
    "ByzantineRunner",
    "ByzantineScenario",
    "FLASH_HARDENING",
    "HARDENING",
    "inflated_claims",
    "sybil_fraction",
]
