"""Verify-before-believe obituaries (DESIGN §16, satellite of ISSUE 7).

A hardened node probes a reported-dead subject before evicting it:
silence confirms the obituary, a probe ack refutes it.  These tests
drive the report path directly with forged and genuine obituaries and
assert the unit contracts the byzantine scenarios rely on:

* a refuted obituary leaves the victim in place and earns the accuser a
  strike;
* *duplicated* obituaries about one subject coalesce onto a single
  probe chain (one verification, every accusation judged);
* *conflicting* accounts resolve by probing reality — an obituary for a
  genuinely dead node is believed (and costs the reporter nothing),
  one for a live node is refuted no matter how often it is retold;
* repeat false accusers cross ``quarantine_strikes`` and their later
  obituaries are dropped unheard.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.events import EventKind, EventRecord
from repro.core.protocol import PeerWindowNetwork
from repro.net.message import Message


def hardened_config(**overrides) -> ProtocolConfig:
    base = dict(
        id_bits=16,
        probe_interval=8.0,
        probe_timeout=2.0,
        probe_misses_to_fail=3,
        multicast_ack_timeout=2.0,
        report_timeout=4.0,
        level_check_interval=1e6,
        multicast_processing_delay=0.25,
        join_retry_attempts=2,
        join_retry_backoff=2.0,
        obituary_verify=True,
        quarantine_strikes=2,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def hardened_network(n=16, seed=3, **overrides):
    """A settled network seeded at a forced level so every node is a top
    of its own eigenstring part (4 groups at level 2 with 16 id bits)."""
    net = PeerWindowNetwork(
        config=hardened_config(**overrides), master_seed=seed, observability=True
    )
    keys = net.seed_nodes([1e9] * n, forced_level=2)
    net.run(until=12.0)
    return net, keys


def group_mates(net, anchor_key):
    """Keys of the anchor's eigenstring group, anchor first."""
    anchor = net.nodes[anchor_key]
    mates = [
        k for k in sorted(net.nodes)
        if net.nodes[k].alive
        and net.nodes[k].node_id.shares_prefix(anchor.node_id, anchor.level)
    ]
    mates.remove(anchor_key)
    return [anchor_key] + mates


def forged_leave(net, victim_key, bump=1) -> EventRecord:
    victim = net.nodes[victim_key]
    held_seq = victim.ctx.seq
    return EventRecord(
        kind=EventKind.LEAVE,
        subject_id=victim.node_id,
        subject_address=victim.address,
        subject_level=victim.level,
        seq=held_seq + bump,
        origin_time=net.sim.now,
        attached_info=victim.ctx.attached_info,
    )


def send_report(net, src_key, dst_key, event) -> None:
    """Deliver a §4.5 report carrying ``event`` from src to dst, exactly
    as a (possibly lying) reporter would."""
    src = net.nodes[src_key]
    src.runtime.send(
        Message(src.address, net.nodes[dst_key].address, "report", payload=event)
    )


def counters(net):
    return net.metrics_snapshot()["counters"]


def holds(net, holder_key, victim_key):
    victim_id = net.nodes[victim_key].node_id
    return net.nodes[holder_key].ctx.peer_list.get(victim_id) is not None


class TestRefutedObituary:
    def test_live_victim_survives_and_accuser_is_struck(self):
        net, keys = hardened_network()
        target, liar, victim = group_mates(net, keys[0])[:3]
        assert holds(net, target, victim)
        send_report(net, liar, target, forged_leave(net, victim))
        net.run(until=net.sim.now + 20.0)
        assert holds(net, target, victim), "refuted obituary must not evict"
        tnode = net.nodes[target]
        assert tnode.ctx.obit_strikes.get(net.nodes[liar].address) == 1
        assert tnode.ctx.obit_quarantine is None  # allocated at the first quarantine
        snap = counters(net)
        assert snap.get("obituary.verifications", 0) == 1
        assert snap.get("obituary.refuted", 0) == 1
        assert snap.get("obituary.confirmed", 0) == 0

    def test_foreign_subject_needs_no_verification(self):
        """An obituary about a node the receiver does not hold is a
        no-op; probing it would be wasted work, so none happens."""
        net, keys = hardened_network()
        group = group_mates(net, keys[0])
        target = group[0]
        outsider = next(k for k in keys if k not in group)
        send_report(net, group[1], target, forged_leave(net, outsider))
        net.run(until=net.sim.now + 20.0)
        assert counters(net).get("obituary.verifications", 0) == 0


class TestDuplicatedObituaries:
    def test_duplicates_coalesce_onto_one_probe_chain(self):
        net, keys = hardened_network()
        target, liar, victim = group_mates(net, keys[0])[:3]
        event = forged_leave(net, victim)
        send_report(net, liar, target, event)
        send_report(net, liar, target, event)  # duplicate, probes in flight
        net.run(until=net.sim.now + 20.0)
        snap = counters(net)
        assert snap.get("obituary.verifications", 0) == 1, "waiters must coalesce"
        assert snap.get("obituary.refuted", 0) == 1
        assert holds(net, target, victim)
        # Every coalesced accusation is judged: the accuser who retold
        # the lie twice crossed quarantine_strikes=2 in one refutation.
        tnode = net.nodes[target]
        liar_addr = net.nodes[liar].address
        assert tnode.ctx.obit_strikes.get(liar_addr) == 2
        assert liar_addr in tnode.ctx.obit_quarantine
        assert snap.get("quarantine.additions", 0) == 1

    def test_conflicting_accusers_each_earn_one_strike(self):
        """Two different reporters accuse the same live subject (at
        different sequence numbers) while one probe chain is pending:
        both wait on it, both are struck once, neither is quarantined."""
        net, keys = hardened_network()
        target, liar_a, liar_b, victim = group_mates(net, keys[0])[:4]
        send_report(net, liar_a, target, forged_leave(net, victim, bump=1))
        send_report(net, liar_b, target, forged_leave(net, victim, bump=2))
        net.run(until=net.sim.now + 20.0)
        snap = counters(net)
        assert snap.get("obituary.verifications", 0) == 1
        tnode = net.nodes[target]
        assert tnode.ctx.obit_strikes.get(net.nodes[liar_a].address) == 1
        assert tnode.ctx.obit_strikes.get(net.nodes[liar_b].address) == 1
        assert tnode.ctx.obit_quarantine is None  # allocated at the first quarantine
        assert holds(net, target, victim)


class TestConfirmedObituary:
    def test_true_obituary_is_believed_and_costs_nothing(self):
        net, keys = hardened_network()
        target, reporter, victim = group_mates(net, keys[0])[:3]
        event = forged_leave(net, victim)  # true once the victim dies
        victim_id = net.nodes[victim].node_id
        net.crash(victim)  # removes the node from net.nodes
        send_report(net, reporter, target, event)
        net.run(until=net.sim.now + 30.0)
        assert net.nodes[target].ctx.peer_list.get(victim_id) is None, (
            "silence confirms the obituary"
        )
        snap = counters(net)
        assert snap.get("obituary.confirmed", 0) >= 1
        tnode = net.nodes[target]
        assert tnode.ctx.obit_strikes is None  # allocated at the first strike


class TestQuarantine:
    def test_repeat_false_accuser_is_silenced(self):
        net, keys = hardened_network()
        target, liar, victim = group_mates(net, keys[0])[:3]
        # Two refuted accusations (sequentially, each fully settled)
        # cross quarantine_strikes=2 ...
        for bump in (1, 2):
            send_report(net, liar, target, forged_leave(net, victim, bump=bump))
            net.run(until=net.sim.now + 20.0)
        tnode = net.nodes[target]
        liar_addr = net.nodes[liar].address
        assert liar_addr in tnode.ctx.obit_quarantine
        before = counters(net)
        # ... so a third obituary is dropped unheard: no new probe chain,
        # no strike bookkeeping, victim untouched.
        send_report(net, liar, target, forged_leave(net, victim, bump=3))
        net.run(until=net.sim.now + 20.0)
        snap = counters(net)
        assert snap.get("obituary.quarantine_drops", 0) >= 1
        assert snap.get("obituary.verifications", 0) == before.get(
            "obituary.verifications", 0
        )
        assert holds(net, target, victim)

    def test_stock_config_never_verifies(self):
        net, keys = hardened_network(obituary_verify=False)
        target, liar, victim = group_mates(net, keys[0])[:3]
        send_report(net, liar, target, forged_leave(net, victim))
        # The stock protocol believes the forgery on receipt: the live
        # victim is evicted the moment the report lands ...
        evicted = False
        for _ in range(80):
            net.run(until=net.sim.now + 0.25)
            if not holds(net, target, victim):
                evicted = True
                break
        assert evicted, (
            "the stock protocol trusts the forgery — the behavior the "
            "byzantine scenarios demonstrate as a breach"
        )
        assert counters(net).get("obituary.verifications", 0) == 0
        # ... and only heals later, when the victim hears its own
        # obituary in the multicast and refutes with a fresher REFRESH.
        net.run(until=net.sim.now + 20.0)
        assert holds(net, target, victim)
