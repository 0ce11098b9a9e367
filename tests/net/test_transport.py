"""Simulated transport tests: latency, loss, death, request/response."""

import pytest

from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim.engine import Simulator


def make_transport(latency=0.1, loss_rate=0.0):
    sim = Simulator()
    topo = UniformLatencyModel(latency=latency)
    return sim, Transport(sim, topo, loss_rate=loss_rate)


class TestDelivery:
    def test_message_arrives_after_latency(self):
        sim, tr = make_transport(latency=0.25)
        arrived = []
        tr.register("a", lambda m: None)
        tr.register("b", lambda m: arrived.append(sim.now))
        tr.send(Message("a", "b", "ping"))
        sim.run()
        assert arrived == [pytest.approx(0.25)]

    def test_handler_gets_message(self):
        sim, tr = make_transport()
        got = []
        tr.register("a", lambda m: None)
        tr.register("b", got.append)
        msg = Message("a", "b", "data", payload={"x": 1})
        tr.send(msg)
        sim.run()
        assert got[0].payload == {"x": 1}
        assert got[0].kind == "data"

    def test_duplicate_registration_rejected(self):
        _, tr = make_transport()
        tr.register("a", lambda m: None)
        with pytest.raises(ValueError):
            tr.register("a", lambda m: None)

    def test_message_to_dead_endpoint_vanishes(self):
        sim, tr = make_transport()
        tr.register("a", lambda m: None)
        tr.send(Message("a", "ghost", "ping"))
        sim.run()
        assert tr.dropped_dead == 1
        assert tr.delivered == 0

    def test_death_mid_flight_drops_message(self):
        sim, tr = make_transport(latency=1.0)
        got = []
        tr.register("a", lambda m: None)
        tr.register("b", got.append)
        tr.send(Message("a", "b", "ping"))
        sim.schedule(0.5, tr.unregister, "b")
        sim.run()
        assert got == []
        assert tr.dropped_dead == 1


class TestBandwidthAccounting:
    def test_sender_and_receiver_billed(self):
        sim, tr = make_transport()
        tr.register("a", lambda m: None)
        tr.register("b", lambda m: None)
        tr.send(Message("a", "b", "x", size_bits=1000))
        sim.run()
        assert tr.endpoint("a").bw_out.total_bits == 1000
        assert tr.endpoint("b").bw_in.total_bits == 1000
        assert tr.endpoint("a").bw_in.total_bits == 0

    def test_kind_statistics(self):
        sim, tr = make_transport()
        tr.register("a", lambda m: None)
        tr.register("b", lambda m: None)
        for _ in range(3):
            tr.send(Message("a", "b", "probe"))
        tr.send(Message("a", "b", "event"))
        sim.run()
        assert tr.stats()["by_kind"] == {"probe": 3, "event": 1}


class TestLoss:
    def test_zero_loss_delivers_all(self):
        sim, tr = make_transport(loss_rate=0.0)
        got = []
        tr.register("a", lambda m: None)
        tr.register("b", got.append)
        for _ in range(50):
            tr.send(Message("a", "b", "x"))
        sim.run()
        assert len(got) == 50

    def test_loss_rate_drops_fraction(self):
        sim, tr = make_transport(loss_rate=0.5)
        got = []
        tr.register("a", lambda m: None)
        tr.register("b", got.append)
        for _ in range(400):
            tr.send(Message("a", "b", "x"))
        sim.run()
        assert 120 < len(got) < 280  # ~200 expected
        assert tr.lost == 400 - len(got)

    def test_invalid_loss_rate(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Transport(sim, UniformLatencyModel(), loss_rate=1.0)


class TestRequestResponse:
    def _echo_pair(self, loss_rate=0.0):
        sim, tr = make_transport(loss_rate=loss_rate)
        tr.register("client", lambda m: None)

        def server(msg):
            tr.send(msg.make_reply("echo", payload=msg.payload))

        tr.register("server", server)
        return sim, tr

    def test_reply_routed_to_callback(self):
        sim, tr = self._echo_pair()
        replies = []
        tr.request(
            Message("client", "server", "ask", payload=42),
            timeout=5.0,
            on_reply=lambda r: replies.append(r.payload),
            on_timeout=lambda: replies.append("timeout"),
        )
        sim.run()
        assert replies == [42]

    def test_timeout_fires_when_no_reply(self):
        sim, tr = make_transport()
        outcomes = []
        tr.register("client", lambda m: None)
        tr.request(
            Message("client", "ghost", "ask"),
            timeout=2.0,
            on_reply=lambda r: outcomes.append("reply"),
            on_timeout=lambda: outcomes.append("timeout"),
        )
        sim.run()
        assert outcomes == ["timeout"]
        assert sim.now == pytest.approx(2.0)

    def test_exactly_one_of_reply_or_timeout(self):
        sim, tr = self._echo_pair()
        outcomes = []
        tr.request(
            Message("client", "server", "ask"),
            timeout=100.0,
            on_reply=lambda r: outcomes.append("reply"),
            on_timeout=lambda: outcomes.append("timeout"),
        )
        sim.run()
        assert outcomes == ["reply"]
        assert tr.stats()["pending_requests"] == 0

    def test_late_reply_goes_to_handler(self):
        """A reply arriving after the timeout reaches the endpoint handler
        (stale-ack path) instead of vanishing."""
        sim, tr = make_transport(latency=5.0)
        late = []
        tr.register("client", late.append)

        def server(msg):
            tr.send(msg.make_reply("echo"))

        tr.register("server", server)
        tr.request(
            Message("client", "server", "ask"),
            timeout=1.0,  # times out before the 10s round trip
            on_reply=lambda r: late.append("via-callback"),
            on_timeout=lambda: None,
        )
        sim.run()
        assert len(late) == 1
        assert late[0] != "via-callback"
        assert late[0].kind == "echo"

    def test_invalid_timeout(self):
        sim, tr = make_transport()
        tr.register("a", lambda m: None)
        with pytest.raises(ValueError):
            tr.request(Message("a", "a", "x"), timeout=0.0, on_reply=lambda r: None, on_timeout=lambda: None)


class TestMessage:
    def test_reply_links_and_swaps(self):
        msg = Message("a", "b", "ask", payload=1)
        reply = msg.make_reply("ans", payload=2)
        assert reply.src == "b" and reply.dst == "a"
        assert reply.reply_to == msg.msg_id

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message("a", "b", "x", size_bits=-1)


class TestUnregisterCancelsPending:
    def test_unregister_cancels_own_pending_timeouts(self):
        """A departed endpoint's outstanding request timeouts are cancelled:
        its callbacks are dead weight, and the timer events would otherwise
        linger in the queue for the full timeout."""
        sim, tr = make_transport()
        fired = []
        tr.register("a", lambda m: None)
        tr.register("ghost-target", lambda m: None)
        tr.unregister("ghost-target")  # requests below can never be answered
        for i in range(5):
            tr.request(
                Message("a", "ghost-target", "ask", payload=i),
                timeout=1000.0,
                on_reply=lambda r: fired.append("reply"),
                on_timeout=lambda: fired.append("timeout"),
            )
        assert tr.stats()["pending_requests"] == 5
        queued_before = len(sim)
        tr.unregister("a")
        assert tr.stats()["pending_requests"] == 0
        # Cancellation is lazy (entries stay queued until popped), but the
        # queue must drain immediately instead of idling to t=1000.
        assert len(sim) == queued_before
        sim.run()
        assert fired == []
        assert sim.now < 1000.0

    def test_unregister_keeps_timeouts_of_requests_to_it(self):
        """Timeouts of requests sent *to* the departed endpoint must keep
        running — they are exactly how live peers detect the departure."""
        sim, tr = make_transport()
        outcomes = []
        tr.register("prober", lambda m: None)
        tr.register("victim", lambda m: None)
        tr.request(
            Message("prober", "victim", "probe"),
            timeout=2.0,
            on_reply=lambda r: outcomes.append("reply"),
            on_timeout=lambda: outcomes.append("timeout"),
        )
        tr.unregister("victim")
        assert tr.stats()["pending_requests"] == 1
        sim.run()
        assert outcomes == ["timeout"]
