"""RealtimeRuntime specifics: binding, addressing, malformed-datagram
hygiene, the RealtimeClock, and Transport-compatible stats."""

import asyncio

import pytest

from repro.kernel.clock import Clock
from repro.live.clock import RealtimeClock
from repro.live.runtime import RealtimeRuntime, format_address, parse_address
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim.engine import Simulator


def test_parse_address_round_trip_and_rejection():
    assert parse_address("127.0.0.1:4700") == ("127.0.0.1", 4700)
    assert format_address("127.0.0.1", 4700) == "127.0.0.1:4700"
    for bad in (4700, "no-port", None):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_ephemeral_bind_and_register_contract():
    async def scenario():
        rt = await RealtimeRuntime.create(port=0)
        try:
            host, port = parse_address(rt.address)
            assert host == "127.0.0.1" and port > 0
            rt.register(rt.address, lambda msg: None)
            assert rt.is_alive(rt.address)
            assert not rt.is_alive("127.0.0.1:1")
            with pytest.raises(ValueError):
                rt.register(rt.address, lambda msg: None)  # duplicate
            with pytest.raises(ValueError):
                rt.register("not-an-address", lambda msg: None)
            rt.unregister(rt.address)
            assert not rt.is_alive(rt.address)
        finally:
            await rt.close()

    asyncio.run(scenario())


def test_malformed_datagrams_are_counted_and_dropped():
    async def scenario():
        rt = await RealtimeRuntime.create(port=0)
        inbox = []
        rt.register(rt.address, inbox.append)
        loop = asyncio.get_running_loop()
        sock, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0)
        )
        try:
            dest = parse_address(rt.address)
            sock.sendto(b"junk bytes", dest)
            sock.sendto(b'{"v": 99}', dest)
            await asyncio.sleep(0.3)
            assert rt.malformed == 2
            assert inbox == []  # a wire error never reaches a handler
            assert rt.stats()["malformed"] == 2
        finally:
            sock.close()
            await rt.close()

    asyncio.run(scenario())


async def _until(condition, seconds=2.0):
    """Yield to the loop until ``condition()`` holds (or ``seconds`` pass)."""
    for _ in range(int(seconds / 0.01)):
        if condition():
            return
        await asyncio.sleep(0.01)


def test_every_hostile_datagram_is_one_malformed_and_nothing_else():
    """Each hostile class, through a real socket: counted once, handed to
    no handler, raised into no loop exception handler — and the runtime
    answers the next valid request as if nothing had happened."""
    from tests.kernel.test_codec_hostile import HOSTILE

    async def scenario():
        loop = asyncio.get_running_loop()
        escaped = []
        loop.set_exception_handler(lambda _, context: escaped.append(context))
        rt = await RealtimeRuntime.create(port=0)
        client = await RealtimeRuntime.create(port=0)
        inbox, replies = [], []

        def serve(msg):
            inbox.append(msg)
            rt.send(msg.make_reply("probe-ack"))

        rt.register(rt.address, serve)
        client.register(client.address, lambda msg: None)
        sock, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0)
        )
        try:
            for count, name in enumerate(sorted(HOSTILE), start=1):
                sock.sendto(HOSTILE[name], parse_address(rt.address))
                await _until(lambda count=count: rt.malformed >= count or escaped)
                assert rt.malformed == count, name
                assert not escaped, (name, escaped)
            assert inbox == [] and rt.delivered == 0 and rt.sent == 0
            client.request(
                Message(src=client.address, dst=rt.address, kind="probe"),
                2.0, on_reply=replies.append, on_timeout=lambda: replies.append(None),
            )
            await _until(lambda: replies)
            assert [r.kind for r in replies] == ["probe-ack"]
            assert len(inbox) == 1 and rt.malformed == len(HOSTILE) and not escaped
        finally:
            sock.close()
            await client.close()
            await rt.close()

    asyncio.run(scenario())


def test_a_600_pointer_download_is_one_datagram():
    """The §4.3 download is one unchunked datagram; v2's pointer rows
    carry 600 of them where v1's ``sendto`` failed past 461."""
    from tests.kernel.test_codec import download_data

    async def scenario():
        rt = await RealtimeRuntime.create(port=0)
        inbox = []
        try:
            rt.register(rt.address, inbox.append)
            big = download_data(600)
            big.src = big.dst = rt.address
            rt.send(big)
            await _until(lambda: inbox)
            assert inbox == [big]
            assert rt.socket_errors == 0 and rt.malformed == 0
        finally:
            await rt.close()

    asyncio.run(scenario())


def test_message_to_unknown_endpoint_counts_dropped_dead():
    async def scenario():
        rt = await RealtimeRuntime.create(port=0)
        try:
            rt.register(rt.address, lambda msg: None)
            rt.send(Message(src=rt.address, dst=rt.address, kind="probe"))
            await asyncio.sleep(0.2)
            assert rt.delivered == 1
            # Same socket, no such endpoint key -> dead-letter.
            other = format_address("127.0.0.1", parse_address(rt.address)[1])
            rt.unregister(rt.address)
            rt.send(Message(src=other, dst=other, kind="probe"))
            await asyncio.sleep(0.2)
            assert rt.dropped_dead == 1
        finally:
            await rt.close()

    asyncio.run(scenario())


def test_stats_shape_matches_the_simulated_transport():
    async def scenario():
        rt = await RealtimeRuntime.create(port=0)
        try:
            sim_stats = Transport(Simulator(), None).stats()
            assert set(rt.stats()) >= set(sim_stats)
        finally:
            await rt.close()

    asyncio.run(scenario())


def test_close_cancels_pending_timers():
    async def scenario():
        rt = await RealtimeRuntime.create(port=0)
        fired = []
        rt.register(rt.address, lambda msg: None)
        rt.request(
            Message(src=rt.address, dst="127.0.0.1:1", kind="probe"),
            0.3,
            on_reply=fired.append,
            on_timeout=lambda: fired.append("timeout"),
        )
        await rt.close()
        await asyncio.sleep(0.6)
        assert fired == []  # close() means no callbacks, not on_timeout

    asyncio.run(scenario())


# -- the clock itself -------------------------------------------------------

def test_realtime_clock_shares_an_epoch():
    async def scenario():
        epoch_clock = RealtimeClock(epoch=None)
        assert isinstance(epoch_clock, Clock)
        # A clock created "an hour after" the epoch reads an hour in.
        import time  # noqa: F401  (test process; prod reads live in repro.live.clock)

        shifted = RealtimeClock(epoch=time.time() - 3600.0)
        assert shifted.now == pytest.approx(3600.0, abs=5.0)
        assert epoch_clock.now == pytest.approx(0.0, abs=5.0)

    asyncio.run(scenario())


def test_realtime_timers_fire_and_cancel():
    async def scenario():
        clock = RealtimeClock()
        fired = []
        clock.schedule(0.05, fired.append, "a")
        handle = clock.schedule(0.05, fired.append, "b")
        handle.cancel()
        assert not handle.active
        handle.cancel()  # idempotent
        await asyncio.sleep(0.1)
        assert fired == ["a"]

    asyncio.run(scenario())


# -- retransmit cap and give-up accounting (ISSUE 7 satellite) --------------

def test_request_retries_has_a_hard_cap():
    from repro.live.runtime import MAX_REQUEST_RETRIES

    async def scenario():
        clock = RealtimeClock(epoch=None)
        RealtimeRuntime(clock, "127.0.0.1", request_retries=MAX_REQUEST_RETRIES)
        with pytest.raises(ValueError, match="request_retries"):
            RealtimeRuntime(clock, "127.0.0.1",
                            request_retries=MAX_REQUEST_RETRIES + 1)
        with pytest.raises(ValueError, match="request_retries"):
            RealtimeRuntime(clock, "127.0.0.1", request_retries=-1)

    asyncio.run(scenario())


def test_exhausted_retransmits_count_one_giveup():
    async def scenario():
        rt = await RealtimeRuntime.create(port=0, request_retries=2)
        timeouts = []
        try:
            rt.register(rt.address, lambda msg: None)
            # Nobody listens on port 1: every retransmit is futile and
            # the request times out -> exactly one give-up.
            rt.request(
                Message(src=rt.address, dst="127.0.0.1:1", kind="probe"),
                0.3,
                on_reply=lambda msg: timeouts.append("reply"),
                on_timeout=lambda: timeouts.append("timeout"),
            )
            await asyncio.sleep(0.6)
            assert timeouts == ["timeout"]
            assert rt.retransmits == 2
            assert rt.retransmit_giveups == 1
            assert rt.stats()["retransmit_giveups"] == 1
        finally:
            await rt.close()

    asyncio.run(scenario())


def test_timeout_without_retries_is_not_a_giveup():
    async def scenario():
        rt = await RealtimeRuntime.create(port=0, request_retries=0)
        timeouts = []
        try:
            rt.register(rt.address, lambda msg: None)
            rt.request(
                Message(src=rt.address, dst="127.0.0.1:1", kind="probe"),
                0.3,
                on_reply=lambda msg: timeouts.append("reply"),
                on_timeout=lambda: timeouts.append("timeout"),
            )
            await asyncio.sleep(0.6)
            assert timeouts == ["timeout"]
            # The metric means "retransmitted and still gave up", not
            # "timed out": a retry-less timeout is the protocol's normal
            # signal and must not inflate it.
            assert rt.retransmit_giveups == 0
        finally:
            await rt.close()

    asyncio.run(scenario())


def test_answered_request_is_not_a_giveup():
    async def scenario():
        rt = await RealtimeRuntime.create(port=0, request_retries=2)
        got = []
        try:
            responder = format_address("127.0.0.1", rt.port)
            caller = responder  # same socket hosts both endpoints

            def respond(msg):
                rt.send(msg.make_reply("probe-ack"))

            rt.register(caller, lambda msg: respond(msg))
            rt.request(
                Message(src=caller, dst=caller, kind="probe"),
                1.0,
                on_reply=got.append,
                on_timeout=lambda: got.append("timeout"),
            )
            await asyncio.sleep(0.5)
            assert len(got) == 1 and got[0] != "timeout"
            assert rt.retransmit_giveups == 0
        finally:
            await rt.close()

    asyncio.run(scenario())
