"""Schema-valid nonsense one layer above the codec: a §4.3 ``download``
whose requester id is another width than the overlay's, or whose
``prefix_len`` is outside ``[0, bits]``, decodes fine and reaches
``JoinService.on_download``.  The node drops it — no reply, nothing
raised out of ``datagram_received`` — and serves the next valid download
as if nothing had happened."""

import asyncio

from repro.core.node import PeerWindowNode
from repro.core.nodeid import NodeId
from repro.live.node import live_config
from repro.live.runtime import RealtimeRuntime
from repro.net.message import Message
from repro.sim.rng import RandomStreams

#: (requester id, prefix_len) pairs no prefix of a 32-bit overlay matches.
HOSTILE_DOWNLOADS = {
    "requester id 4 bits wide": (NodeId(0b1011, 4), 0),
    "prefix_len 10**6": (NodeId(7, 32), 10**6),
    "prefix_len 33": (NodeId(7, 32), 33),
    "prefix_len -1": (NodeId(7, 32), -1),
}


def test_hostile_downloads_are_dropped_and_a_valid_one_is_served():
    async def scenario():
        loop = asyncio.get_running_loop()
        escaped = []
        loop.set_exception_handler(lambda _, context: escaped.append(context))
        config = live_config()
        server = await RealtimeRuntime.create(port=0)
        client = await RealtimeRuntime.create(port=0, request_retries=0)
        node_id = NodeId.random(RandomStreams(0).spawn("live-nodeids", 0), config.id_bits)
        node = PeerWindowNode(
            runtime=server, config=config, node_id=node_id, address=server.address,
            threshold_bps=4000.0, rng=RandomStreams(0).spawn("node", 0),
        )
        client.register(client.address, lambda msg: None)
        outcomes = {}

        def ask(name, payload, timeout):
            client.request(
                Message(client.address, server.address, "download", payload,
                        size_bits=config.ack_bits),
                timeout,
                on_reply=lambda reply: outcomes.__setitem__(name, reply),
                on_timeout=lambda: outcomes.__setitem__(name, None),
            )

        try:
            node.bootstrap_first(level=0)
            for name, payload in HOSTILE_DOWNLOADS.items():
                ask(name, payload, 0.5)
            for _ in range(200):
                if len(outcomes) == len(HOSTILE_DOWNLOADS) or escaped:
                    break
                await asyncio.sleep(0.01)
            assert not escaped, escaped
            assert outcomes == dict.fromkeys(HOSTILE_DOWNLOADS)  # every one timed out
            assert server.malformed == 0
            assert node.ctx.stats.downloads_served == 0

            ask("valid", (NodeId(node_id.value ^ 1, 32), 0), 2.0)
            for _ in range(200):
                if "valid" in outcomes:
                    break
                await asyncio.sleep(0.01)
            reply = outcomes["valid"]
            assert reply is not None and reply.kind == "download-data"
            matching, _tops = reply.payload
            assert [p.node_id for p in matching] == [node_id]
            assert node.ctx.stats.downloads_served == 1
            assert not escaped, escaped
        finally:
            node._stop_loops()
            await client.close()
            await server.close()

    asyncio.run(scenario())
