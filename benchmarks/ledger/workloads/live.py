"""``live_loopback``: two ``RealtimeRuntime``s on 127.0.0.1 in one asyncio
loop, closed loop with one request outstanding.  Loopback, not a real
link: the numbers are codec + runtime + kernel socket cost."""

from __future__ import annotations

import asyncio
import hashlib
import time
from typing import Any, Dict, List

import numpy as np

from benchmarks.ledger.workloads import CheckFailed, Outcome, Workload
from repro.core.events import EventKind, EventRecord
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.kernel.codec import encode_message
from repro.live.runtime import RealtimeRuntime
from repro.net.message import Message

#: (request kind, reply kind, request bits, reply bits) in cycle order.
LIVE_KINDS = (
    ("probe", "probe-ack", 500, 100),
    ("mcast", "mcast-ack", 1000, 100),
    ("download", "download-data", 1000, 64 * 500),
)
_LIVE_VARIANTS = 8
_LIVE_TIMEOUT_S = 2.0


def live_payloads(seed: int) -> Dict[str, List[Any]]:
    """Per kind, ``_LIVE_VARIANTS`` payloads drawn from ``seed``: events
    and 64-pointer lists over 128-bit ids.  The variant index rides in
    the request (``next_bit`` / ``prefix_len``), so the responder is
    stateless and both ends know the expected payloads."""
    rng = np.random.default_rng([0x6C697665, seed])

    def pointer(i: int) -> Pointer:
        return Pointer(NodeId.random(rng, 128), f"127.0.0.1:{20000 + i}", i % 6)

    variants = range(_LIVE_VARIANTS)
    return {
        "probe": [None for _ in variants],
        "probe-ack": [None for _ in variants],
        "mcast": [
            (EventRecord(EventKind.JOIN, NodeId.random(rng, 128), v % 6,
                         f"127.0.0.1:{30000 + v}", v, float(v)), v)
            for v in variants
        ],
        "mcast-ack": [None for _ in variants],
        "download": [(NodeId.random(rng, 128), v) for v in variants],
        "download-data": [([pointer(i) for i in range(64)], []) for _ in variants],
    }


def _live_size(seconds: float, quick: bool) -> Dict[str, Any]:
    # ~4,500 closed-loop round trips per host-s over loopback.
    return {"requests": 1500 if quick else round(4500 * seconds)}


def _live_build(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    loop = asyncio.new_event_loop()

    async def sockets() -> List[RealtimeRuntime]:
        return [await RealtimeRuntime.create(), await RealtimeRuntime.create()]

    client, server = loop.run_until_complete(sockets())
    return {"loop": loop, "client": client, "server": server,
            "payloads": live_payloads(seed), "size": size}


def _live_close(state: Dict[str, Any]) -> None:
    loop = state["loop"]
    loop.run_until_complete(state["client"].close())
    loop.run_until_complete(state["server"].close())
    loop.close()


def _live_run(state: Dict[str, Any]) -> Dict[str, Any]:
    client: RealtimeRuntime = state["client"]
    server: RealtimeRuntime = state["server"]
    payloads = state["payloads"]
    total = state["size"]["requests"]
    tally = {"i": 0, "timeouts": 0, "mismatches": 0, "t0": 0}
    rtt_ns: List[int] = []

    def variant(i: int) -> int:
        return (i // len(LIVE_KINDS)) % _LIVE_VARIANTS

    by_request = {kind[0]: kind for kind in LIVE_KINDS}

    def serve(msg: Message) -> None:
        request, reply, _, reply_bits = by_request[msg.kind]
        v = 0 if msg.payload is None else msg.payload[1]
        if msg.payload != payloads[request][v]:
            tally["mismatches"] += 1
        server.send(msg.make_reply(reply, payloads[reply][v], size_bits=reply_bits))

    async def drive() -> None:
        done = asyncio.get_running_loop().create_future()

        def issue() -> None:
            i = tally["i"]
            if i >= total:
                done.set_result(None)
                return
            request, _, bits, _ = LIVE_KINDS[i % len(LIVE_KINDS)]
            msg = Message(client.address, server.address, request,
                          payloads[request][variant(i)], size_bits=bits)
            tally["t0"] = time.perf_counter_ns()
            client.request(msg, _LIVE_TIMEOUT_S, on_reply, on_timeout)

        def on_reply(reply: Message) -> None:
            rtt_ns.append(time.perf_counter_ns() - tally["t0"])
            i = tally["i"]
            kind = LIVE_KINDS[i % len(LIVE_KINDS)][1]
            if reply.kind != kind or reply.payload != payloads[kind][variant(i)]:
                tally["mismatches"] += 1
            tally["i"] = i + 1
            issue()

        def on_timeout() -> None:
            rtt_ns.append(time.perf_counter_ns() - tally["t0"])
            tally["timeouts"] += 1
            tally["i"] += 1
            issue()

        issue()
        await done

    server.register(server.address, serve)
    client.register(client.address, lambda late_reply: None)
    state["loop"].run_until_complete(drive())
    return {"tally": tally, "rtt_ns": rtt_ns}


def _live_check(state: Dict[str, Any], raw: Dict[str, Any]) -> Outcome:
    tally = raw["tally"]
    if tally["mismatches"]:
        raise CheckFailed(
            f"loopback: {tally['mismatches']} payload(s) did not decode to what was sent"
        )
    client, server = state["client"].stats(), state["server"].stats()
    requests = state["size"]["requests"]
    malformed = client["malformed"] + server["malformed"]
    wire = hashlib.sha256()
    for kind, variants in sorted(state["payloads"].items()):
        for payload in variants:
            wire.update(encode_message(Message("a:1", "b:2", kind, payload, msg_id=0)))
    stats = {
        "requests": requests,
        "sent": client["sent"] + server["sent"],
        "delivered": client["delivered"] + server["delivered"],
        "by_kind": {**client["by_kind"], **server["by_kind"]},
        "timeouts": tally["timeouts"], "malformed": malformed, "mismatches": 0,
        "payloads_sha256": wire.hexdigest(),
    }
    failed = tally["timeouts"] + malformed
    rtt_us = np.asarray(raw["rtt_ns"]) / 1e3
    layer = {
        "live.runtime.timeouts": tally["timeouts"],
        "live.runtime.malformed": malformed,
        "live.loop.rtt_us_p50": float(np.percentile(rtt_us, 50)),
        "live.loop.rtt_us_p99": float(np.percentile(rtt_us, 99)),
    }
    for offset, (request, _, _, _) in enumerate(LIVE_KINDS):
        layer[f"live.loop.rtt_us_mean.{request}"] = float(
            rtt_us[offset::len(LIVE_KINDS)].mean()
        )
    return Outcome(
        stats=stats, attempted=requests, failed=failed,
        events=stats["delivered"],
        accuracy=(requests - failed) / requests,
        layer=layer,
    )


WORKLOADS = {
    "live_loopback": Workload(
        "live_loopback", _live_size, _live_build, _live_run, _live_check,
        close=_live_close),
}
