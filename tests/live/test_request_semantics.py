"""Request/response semantics are a kernel contract, not a backend
detail: first reply wins, exactly one of on_reply/on_timeout fires (each
with the request's own ``*args``), late and duplicate replies fall
through to the endpoint handler, and unregister cancels only the
pendings the departing endpoint originated.

Every scenario here runs twice — once on the simulated Transport, once
on the UDP RealtimeRuntime — through a tiny backend-neutral env, so a
semantic drift between backends fails the same named test.
"""

import asyncio

import pytest

from repro.core.runtime import SimRuntime
from repro.live.runtime import RealtimeRuntime
from repro.net.latency import PairwiseLatencyModel
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim.engine import Simulator


class BaseEnv:
    """Two endpoints, a and b; a issues requests, b's behavior is set
    per-scenario via ``respond``."""

    timeout = 1.0

    def __init__(self):
        self.a_inbox = []
        self.b_inbox = []
        self.replies = []
        self.timeouts = 0
        self.respond = None

    def _a_handler(self, msg):
        self.a_inbox.append(msg)

    def _b_handler(self, msg):
        self.b_inbox.append(msg)
        if self.respond is not None:
            self.respond(msg)

    def _on_timeout(self):
        self.timeouts += 1

    def reply_to(self, msg):
        self.responder.send(
            Message(src=self.b, dst=self.a, kind="probe-ack", reply_to=msg.msg_id)
        )

    def request(self, timeout=None):
        msg = Message(src=self.a, dst=self.b, kind="probe")
        self.requester.request(
            msg,
            self.timeout if timeout is None else timeout,
            on_reply=self.replies.append,
            on_timeout=self._on_timeout,
        )
        return msg


class SimEnv(BaseEnv):
    async def start(self):
        self.sim = Simulator()
        transport = Transport(self.sim, PairwiseLatencyModel(spread=0.0))
        self.requester = self.responder = SimRuntime(self.sim, transport)
        self.a, self.b = "addr-a", "addr-b"
        self.requester.register(self.a, self._a_handler)
        self.requester.register(self.b, self._b_handler)

    async def wait(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    def later(self, delay, fn, *args):
        self.requester.schedule(delay, fn, *args)

    async def stop(self):
        pass


class LiveEnv(BaseEnv):
    async def start(self):
        self.requester = await RealtimeRuntime.create(port=0)
        self.responder = await RealtimeRuntime.create(port=0)
        self.a = self.requester.address
        self.b = self.responder.address
        self.requester.register(self.a, self._a_handler)
        self.responder.register(self.b, self._b_handler)

    async def wait(self, seconds):
        await asyncio.sleep(seconds)

    def later(self, delay, fn, *args):
        self.responder.schedule(delay, fn, *args)

    async def stop(self):
        await self.requester.close()
        await self.responder.close()


def run_scenario(env_cls, scenario):
    async def main():
        env = env_cls()
        await env.start()
        try:
            await scenario(env)
        finally:
            await env.stop()

    asyncio.run(main())


BACKENDS = [SimEnv, LiveEnv]


# -- the shared contract ----------------------------------------------------

async def reply_in_time(env):
    env.respond = env.reply_to
    env.request()
    await env.wait(env.timeout * 2)
    assert len(env.replies) == 1
    assert env.replies[0].kind == "probe-ack"
    assert env.timeouts == 0
    # A correlated reply is consumed by on_reply, not the handler.
    assert env.a_inbox == []


async def no_reply_times_out(env):
    env.respond = None
    env.request()
    await env.wait(env.timeout * 2)
    assert env.replies == []
    assert env.timeouts == 1
    await env.wait(env.timeout)
    assert env.timeouts == 1  # fires exactly once


async def duplicate_reply_falls_through(env):
    def respond_twice(msg):
        env.reply_to(msg)
        env.reply_to(msg)

    env.respond = respond_twice
    env.request()
    await env.wait(env.timeout * 2)
    # First reply resolves the pending; the duplicate is an ordinary
    # message for the endpoint handler (the protocol's stale-ack path).
    assert len(env.replies) == 1
    assert env.timeouts == 0
    assert len(env.a_inbox) == 1
    assert env.a_inbox[0].reply_to == env.replies[0].reply_to


async def late_reply_falls_through(env):
    env.respond = lambda msg: env.later(env.timeout * 2, env.reply_to, msg)
    env.request()
    await env.wait(env.timeout * 4)
    assert env.timeouts == 1
    assert env.replies == []
    assert len(env.a_inbox) == 1
    assert env.a_inbox[0].kind == "probe-ack"


async def unregister_cancels_own_pendings(env):
    env.respond = env.reply_to
    env.request()
    env.requester.unregister(env.a)
    await env.wait(env.timeout * 3)
    # Neither callback fires: the requester is gone, and its pending
    # went with it.
    assert env.replies == []
    assert env.timeouts == 0
    assert env.a_inbox == []


async def args_reach_the_callback_that_fires(env):
    got = []
    token = object()

    def ask():
        env.requester.request(
            Message(src=env.a, dst=env.b, kind="probe"),
            0.3,
            lambda reply, *args: got.append(("reply", reply.kind, *args)),
            lambda *args: got.append(("timeout", *args)),
            token,
            7,
        )

    env.respond = env.reply_to
    ask()
    await env.wait(0.6)
    env.respond = None
    ask()
    await env.wait(0.6)
    # One callback per request, each with the request's own arguments.
    assert got == [("reply", "probe-ack", token, 7), ("timeout", token, 7)]


async def request_validates_timeout(env):
    with pytest.raises(ValueError):
        env.request(timeout=0.0)
    with pytest.raises(ValueError):
        env.request(timeout=-1.0)


@pytest.mark.parametrize("env_cls", BACKENDS)
def test_reply_in_time(env_cls):
    run_scenario(env_cls, reply_in_time)


@pytest.mark.parametrize("env_cls", BACKENDS)
def test_no_reply_times_out(env_cls):
    run_scenario(env_cls, no_reply_times_out)


@pytest.mark.parametrize("env_cls", BACKENDS)
def test_duplicate_reply_falls_through(env_cls):
    run_scenario(env_cls, duplicate_reply_falls_through)


@pytest.mark.parametrize("env_cls", BACKENDS)
def test_late_reply_falls_through(env_cls):
    run_scenario(env_cls, late_reply_falls_through)


@pytest.mark.parametrize("env_cls", BACKENDS)
def test_unregister_cancels_own_pendings(env_cls):
    run_scenario(env_cls, unregister_cancels_own_pendings)


@pytest.mark.parametrize("env_cls", BACKENDS)
def test_args_reach_the_callback_that_fires(env_cls):
    run_scenario(env_cls, args_reach_the_callback_that_fires)


@pytest.mark.parametrize("env_cls", BACKENDS)
def test_request_validates_timeout(env_cls):
    run_scenario(env_cls, request_validates_timeout)


# -- live-only: datagram retransmits within the timeout window --------------

def test_live_retransmit_recovers_a_lost_request():
    async def scenario():
        requester = await RealtimeRuntime.create(port=0, request_retries=1)
        responder = await RealtimeRuntime.create(port=0)
        a, b = requester.address, responder.address
        replies, b_seen = [], []
        requester.register(a, lambda msg: None)

        def b_handler(msg):
            b_seen.append(msg.msg_id)
            # Simulate a lost first datagram: only the retransmitted
            # copy (same msg_id) gets a reply.
            if b_seen.count(msg.msg_id) == 2:
                responder.send(
                    Message(src=b, dst=a, kind="probe-ack", reply_to=msg.msg_id)
                )

        responder.register(b, b_handler)
        try:
            msg = Message(src=a, dst=b, kind="probe")
            requester.request(
                msg, 2.0, on_reply=replies.append, on_timeout=lambda: None
            )
            await asyncio.sleep(3.0)
            assert b_seen.count(msg.msg_id) == 2
            assert requester.retransmits == 1
            assert len(replies) == 1
        finally:
            await requester.close()
            await responder.close()

    asyncio.run(scenario())
