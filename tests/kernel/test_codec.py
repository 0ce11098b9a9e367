"""Wire-codec round-trip guarantees, property-tested per message kind;
the exact bytes, pinned by a golden file; what a sender must refuse; and
what a datagram weighs."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventKind, EventRecord
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.kernel import codec
from repro.kernel.codec import (
    MESSAGE_KINDS,
    WIRE_SCHEMA_VERSION,
    CodecError,
    decode_message,
    encode_message,
)
from repro.net.message import Message
from repro.obs.trace import SpanRef
from tests.costs import Profile

# -- strategies -------------------------------------------------------------

addresses = st.one_of(
    st.integers(min_value=0, max_value=2**32),
    st.from_regex(r"127\.0\.0\.1:[0-9]{2,5}", fullmatch=True),
)
levels = st.integers(min_value=0, max_value=16)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), finite, st.text())
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def node_ids(draw):
    bits = draw(st.integers(min_value=16, max_value=128))
    return NodeId(draw(st.integers(min_value=0, max_value=2**bits - 1)), bits)


@st.composite
def pointers(draw):
    nid = draw(node_ids())
    return Pointer(
        node_id=nid,
        address=draw(addresses),
        level=draw(st.integers(min_value=0, max_value=min(16, nid.bits))),
        attached_info=draw(json_trees),
        seen_join_time=draw(st.none() | finite),
        last_refresh=draw(finite),
        last_event_seq=draw(st.integers(min_value=-1, max_value=2**31 - 1)),
    )


@st.composite
def events(draw):
    return EventRecord(
        kind=draw(st.sampled_from(list(EventKind))),
        subject_id=draw(node_ids()),
        subject_level=draw(levels),
        subject_address=draw(addresses),
        seq=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        origin_time=draw(finite),
        attached_info=draw(json_trees),
    )


def payloads_for(kind):
    """A strategy producing schema-valid payloads for ``kind`` — every
    kind in MESSAGE_KINDS must have an entry here, so adding a codec
    schema without extending the property test fails loudly."""
    ptr_lists = st.lists(pointers(), max_size=3)
    by_kind = {
        "probe": st.none(),
        "probe-ack": st.none(),
        "mcast-ack": st.none(),
        "bridge-ack": st.none(),
        "get-topnodes": st.none(),
        "get-top": node_ids(),
        "level-query": node_ids(),
        "top-ptr": st.none() | pointers(),
        "level-info": st.tuples(levels, finite, ptr_lists),
        "download": st.tuples(node_ids(), levels),
        "download-data": st.tuples(ptr_lists, ptr_lists),
        "mcast": st.tuples(events(), st.integers(min_value=0, max_value=128)),
        "event-copy": events(),
        "report": events(),
        "report-ack": ptr_lists,
        "topnodes": ptr_lists,
        "bridge-subscribe": st.tuples(pointers(), st.booleans()),
    }
    assert set(by_kind) == set(MESSAGE_KINDS)
    return by_kind[kind]


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(MESSAGE_KINDS))
    reply_to = draw(st.none() | st.integers(min_value=0, max_value=2**31))
    trace = draw(
        st.none()
        | st.builds(
            SpanRef, st.text(max_size=12), st.text(max_size=12),
            st.integers(min_value=0, max_value=64),
        )
    )
    return Message(
        src=draw(addresses),
        dst=draw(addresses),
        kind=kind,
        payload=draw(payloads_for(kind)),
        size_bits=draw(st.integers(min_value=0, max_value=10_000)),
        reply_to=reply_to,
        trace=trace,
    )


# -- round-trip -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(messages())
def test_encode_decode_identity(msg):
    wire = encode_message(msg)
    assert isinstance(wire, bytes)
    back = decode_message(wire)
    assert back == msg
    # msg_id survives the wire: reply correlation works across processes.
    assert back.msg_id == msg.msg_id
    # Re-encoding is stable (canonical form).
    assert encode_message(back) == wire


def test_every_kind_has_a_deterministic_example():
    """One concrete round-trip per kind, so a schema regression names
    the kind even if hypothesis shrinks elsewhere."""
    ptr = Pointer(NodeId(0b1011, 4), "127.0.0.1:9001", 2,
                  attached_info={"cpu": 0.5}, seen_join_time=1.0,
                  last_refresh=2.0, last_event_seq=3)
    ev = EventRecord(EventKind.JOIN, NodeId(5, 4), 1, "127.0.0.1:9002", 7, 8.5)
    samples = {
        "probe": None, "probe-ack": None, "mcast-ack": None,
        "bridge-ack": None, "get-topnodes": None,
        "get-top": NodeId(3, 4), "level-query": NodeId(3, 4),
        "top-ptr": ptr, "level-info": (2, 123.5, [ptr]),
        "download": (NodeId(9, 4), 2), "download-data": ([ptr], []),
        "mcast": (ev, 3), "event-copy": ev, "report": ev,
        "report-ack": [ptr], "topnodes": [ptr, ptr.copy()],
        "bridge-subscribe": (ptr, True),
    }
    assert set(samples) == set(MESSAGE_KINDS)
    for kind, payload in samples.items():
        msg = Message(src="127.0.0.1:1", dst="127.0.0.1:2", kind=kind,
                      payload=payload, trace=SpanRef("t", "s", 1))
        assert decode_message(encode_message(msg)) == msg, kind


def test_trace_decodes_to_spanref():
    msg = Message(src=1, dst=2, kind="probe", trace=("trace", "span", 4))
    back = decode_message(encode_message(msg))
    assert isinstance(back.trace, SpanRef)
    assert back.trace.span_id == "span" and back.trace.depth == 4


# -- schema rejection -------------------------------------------------------

def test_unknown_kind_rejected_both_ways():
    with pytest.raises(CodecError):
        encode_message(Message(src=1, dst=2, kind="no-such-kind"))
    wire = json.loads(encode_message(Message(src=1, dst=2, kind="probe")))
    wire["kind"] = "no-such-kind"
    with pytest.raises(CodecError):
        decode_message(json.dumps(wire).encode())


def test_unknown_version_rejected():
    wire = json.loads(encode_message(Message(src=1, dst=2, kind="probe")))
    wire["v"] = WIRE_SCHEMA_VERSION + 1
    with pytest.raises(CodecError):
        decode_message(json.dumps(wire).encode())


def test_envelope_field_set_is_exact():
    wire = json.loads(encode_message(Message(src=1, dst=2, kind="probe")))
    extra = dict(wire, surprise=1)
    with pytest.raises(CodecError):
        decode_message(json.dumps(extra).encode())
    missing = {k: v for k, v in wire.items() if k != "bits"}
    with pytest.raises(CodecError):
        decode_message(json.dumps(missing).encode())


def test_body_schema_enforced_on_decode():
    wire = json.loads(encode_message(Message(src=1, dst=2, kind="probe")))
    wire["body"] = {"not": "null"}
    with pytest.raises(CodecError):
        decode_message(json.dumps(wire).encode())


def test_payload_shape_enforced_on_encode():
    with pytest.raises(CodecError):
        encode_message(Message(src=1, dst=2, kind="mcast", payload=("x",)))
    with pytest.raises(CodecError):
        encode_message(Message(src=1, dst=2, kind="get-top", payload=7))


def test_non_json_attached_info_rejected():
    ptr = Pointer(NodeId(1, 4), 1, 0, attached_info=object())
    with pytest.raises(CodecError):
        encode_message(Message(src=1, dst=2, kind="top-ptr", payload=ptr))


def test_malformed_datagrams_rejected():
    with pytest.raises(CodecError):
        decode_message(b"\xff\xfe not json")
    with pytest.raises(CodecError):
        decode_message(b"[1,2,3]")


def test_get_top_dual_form_round_trip():
    """The §4.3 get-top accepts both wire shapes (additive, DESIGN §16):
    the bare joiner id, and ``(joiner_id, nonce)`` carrying the
    admission proof-of-work token."""
    bare = Message(src="127.0.0.1:1", dst="127.0.0.1:2", kind="get-top",
                   payload=NodeId(3, 4))
    assert decode_message(encode_message(bare)) == bare
    with_token = Message(src="127.0.0.1:1", dst="127.0.0.1:2", kind="get-top",
                         payload=(NodeId(3, 4), 1234))
    back = decode_message(encode_message(with_token))
    assert back == with_token
    assert back.payload == (NodeId(3, 4), 1234)


def test_get_top_token_shape_enforced():
    for payload in ((NodeId(3, 4), -1),        # negative nonce
                    (NodeId(3, 4), True),      # bool is not a nonce
                    (NodeId(3, 4), 1, 2)):     # wrong arity
        msg = Message(src="127.0.0.1:1", dst="127.0.0.1:2", kind="get-top",
                      payload=payload)
        with pytest.raises(CodecError):
            encode_message(msg)
    # Decode side: a token object with a negative nonce is rejected.
    good = encode_message(
        Message(src="127.0.0.1:1", dst="127.0.0.1:2", kind="get-top",
                payload=(NodeId(3, 4), 7))
    )
    tampered = good.replace(b'"nonce":7', b'"nonce":-7')
    assert tampered != good
    with pytest.raises(CodecError):
        decode_message(tampered)


# -- the bytes themselves ---------------------------------------------------

GOLDEN = Path(__file__).with_name(f"golden_wire_v{WIRE_SCHEMA_VERSION}.json")


def golden_messages():
    """One message per wire shape — all 17 kinds, both ``get-top`` forms —
    each without and with a trace header, over every field variant a row
    can take (int and str addresses, absent and nested ``attached_info``,
    ``seen_join_time`` unknown and known, 4- and 128-bit ids)."""
    wide = NodeId(0xFEDCBA9876543210_0123456789ABCDEF, 128)
    rich = Pointer(NodeId(0b1011, 4), "127.0.0.1:9001", 2,
                   attached_info={"cpu": 0.5, "tags": ["a", "\u00e9"], "up": True},
                   seen_join_time=1.25, last_refresh=2.0, last_event_seq=3)
    bare = Pointer(wide, 77, 6)
    join = EventRecord(EventKind.JOIN, NodeId(5, 4), 1, "127.0.0.1:9002", 7, 8.5)
    info = EventRecord(EventKind.INFO_CHANGE, wide, 9, 12, 0, 1e-07,
                       attached_info=[None, {"k": -1}])
    payloads = {
        "probe": None, "probe-ack": None, "mcast-ack": None,
        "bridge-ack": None, "get-topnodes": None,
        "get-top": NodeId(3, 4), "get-top+nonce": (wide, 1234),
        "level-query": wide,
        "top-ptr": rich, "level-info": (2, 123.5, [rich, bare]),
        "download": (NodeId(9, 4), 2), "download-data": ([rich, bare], [bare]),
        "mcast": (join, 3), "event-copy": info, "report": join,
        "report-ack": [rich], "topnodes": [],
        "bridge-subscribe": (bare, True),
    }
    assert {name.partition("+")[0] for name in payloads} == set(MESSAGE_KINDS)
    out = {}
    for i, (name, payload) in enumerate(sorted(payloads.items())):
        kind = name.partition("+")[0]
        out[name] = Message("127.0.0.1:1", "127.0.0.1:2", kind, payload,
                            size_bits=500 + i, msg_id=1000 + i)
        out[name + "/traced"] = Message(3, 4, kind, payload, size_bits=0,
                                        msg_id=2000 + i, reply_to=1000 + i,
                                        trace=SpanRef("t-1", "s-2", 5))
    return out


def test_wire_bytes_match_the_golden_file():
    """The wire is pinned: bytes that change while WIRE_SCHEMA_VERSION
    does not are a silent compatibility break.  A deliberate change
    bumps the version, which asks for a new golden file by name
    (``python tests/kernel/test_codec.py`` writes it)."""
    assert GOLDEN.exists(), f"no golden frames for wire version {WIRE_SCHEMA_VERSION}"
    golden = json.loads(GOLDEN.read_text())
    assert golden["wire_schema_version"] == WIRE_SCHEMA_VERSION
    messages = golden_messages()
    assert sorted(golden["frames"]) == sorted(messages)
    for name, msg in messages.items():
        frame = golden["frames"][name].encode("ascii")
        assert encode_message(msg) == frame, name
        assert decode_message(frame) == msg, name


# -- the sender refuses what the receiver would drop ------------------------

def _set(obj, field, value):
    """Plant a wrong-typed field the constructors never saw."""
    object.__setattr__(obj, field, value)
    return obj


def _nested(depth):
    tree = []
    for _ in range(depth):
        tree = [tree]
    return tree


def _pointer_with(field, value):
    ptr = Pointer(NodeId(0b1011, 4), "127.0.0.1:9001", 2, None, 1.0, 2.0, 3)
    return Message(1, 2, "top-ptr", _set(ptr, field, value))


def _event_with(field, value):
    ev = EventRecord(EventKind.JOIN, NodeId(5, 4), 1, "127.0.0.1:9002", 7, 8.5)
    return Message(1, 2, "report", _set(ev, field, value))


#: name -> a builder of a message whose receiver would drop it (or hand
#: back something unequal).  Built lazily: pytest must never repr these.
SENDER_REFUSALS = {
    "pointer level float": lambda: _pointer_with("level", 2.0),
    "pointer level bool": lambda: _pointer_with("level", True),
    "pointer level int64": lambda: _pointer_with("level", np.int64(2)),
    "pointer level past id width": lambda: _pointer_with("level", 5),
    "pointer seq float": lambda: _pointer_with("last_event_seq", 1.0),
    "pointer refresh str": lambda: _pointer_with("last_refresh", "x"),
    # A float subclass would round-trip, but types are exact: see PROTOCOL.md.
    "pointer refresh float64": lambda: _pointer_with("last_refresh", np.float64(2.0)),
    "pointer info deeper than the bound": lambda: _pointer_with("attached_info", _nested(40)),
    "pointer info endlessly deep": lambda: _pointer_with("attached_info", _nested(100_000)),
    "event seq float": lambda: _event_with("seq", 7.0),
    "event time float32": lambda: _event_with("origin_time", np.float32(8.5)),
    "event kind str": lambda: _event_with("kind", "join"),
    "msg_id str": lambda: Message(1, 2, "probe", msg_id="7"),
    "size_bits float": lambda: Message(1, 2, "probe", size_bits=100.0),
    "reply_to str": lambda: Message(1, 2, "probe", reply_to="3"),
    "trace wrong types": lambda: Message(1, 2, "probe", trace=(1, 2, "x")),
    "trace short": lambda: Message(1, 2, "probe", trace=("t",)),
    "trace list": lambda: Message(1, 2, "probe", trace=["t", "s", 1]),
    # Refused at v1 as well, by code the row checks replaced.
    "pointer refresh nan": lambda: _pointer_with("last_refresh", float("nan")),
    "pointer sjt inf": lambda: _pointer_with("seen_join_time", float("inf")),
    "level-info rate inf": lambda: Message(1, 2, "level-info", (2, float("inf"), [])),
    "mcast next_bit float": lambda: Message(
        1, 2, "mcast", (_event_with("seq", 7).payload, 3.0)),
    "msg_id past the int digit limit": lambda: Message(1, 2, "probe", msg_id=10**5000),
    "src bool": lambda: Message(True, 2, "probe"),
}


@pytest.mark.parametrize("name", sorted(SENDER_REFUSALS))
def test_sender_refuses_what_the_receiver_would_drop(name):
    with pytest.raises(CodecError):
        encode_message(SENDER_REFUSALS[name]())


WRONG_VALUES = st.sampled_from([
    7.0, 2.5, float("nan"), float("inf"), True, False, "x", "7", None,
    np.int64(3), np.float32(1.5), np.float64(2.5), ("t",), (1, 2, "x"),
    ["t", "s", 1], {"v": 1}, b"bytes", object(),
])


def _field_sites(msg):
    """Every ``(object, field)`` a wrong value can be planted at: the
    envelope's fields and those of each row object in the payload."""
    sites = [(msg, f) for f in ("src", "dst", "kind", "msg_id", "reply_to",
                                "size_bits", "trace", "payload")]
    stack = [msg.payload]
    while stack:
        item = stack.pop()
        if isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, Pointer):
            sites += [(item, f) for f in Pointer.__dataclass_fields__]
        elif isinstance(item, EventRecord):
            sites += [(item, f) for f in EventRecord.__dataclass_fields__]
    return sites


@settings(max_examples=400, deadline=None)
@given(messages(), st.data())
def test_wrong_typed_fields_are_refused_or_round_trip(msg, data):
    obj, field = data.draw(st.sampled_from(_field_sites(msg)))
    value = data.draw(WRONG_VALUES)
    if obj is msg and field == "payload" and isinstance(msg.payload, tuple):
        # A scalar inside a tuple body (next_bit, prefix_len, nonce, ...).
        i = data.draw(st.integers(0, len(msg.payload) - 1))
        value = msg.payload[:i] + (value,) + msg.payload[i + 1:]
    _set(obj, field, value)
    try:
        wire = encode_message(msg)
    except CodecError:
        return
    assert decode_message(wire) == msg


# -- what a datagram weighs: counted, not timed -----------------------------

#: The largest UDP payload IPv4 carries; ``sendto`` fails beyond it.
MAX_DATAGRAM = 65_507


def download_data(n_pointers):
    """The §4.3 answer the ledger's ``live_loopback`` sends: ``n`` fresh
    pointers over 128-bit ids, live addresses, no attached info."""
    rng = np.random.default_rng(0)
    matching = [Pointer(NodeId.random(rng, 128), f"127.0.0.1:{20000 + i}", i % 6)
                for i in range(n_pointers)]
    return Message("127.0.0.1:40001", "127.0.0.1:40002", "download-data",
                   (matching, []), size_bits=n_pointers * 500, msg_id=123_456)


def test_pointer_rows_keep_a_whole_download_in_one_datagram():
    assert len(encode_message(download_data(64))) <= 5_600
    # v1's keyed pointers (144 B each) stopped fitting at 462 of these.
    big = download_data(600)
    wire = encode_message(big)
    assert len(wire) <= MAX_DATAGRAM
    assert decode_message(wire) == big


def test_a_download_costs_a_constant_number_of_codec_calls():
    """One check per pointer list: the codec's own Python calls do not grow
    with the pointers a download carries, and a decoded pointer runs no
    constructor check — the list check already held all of it."""
    constructors = {NodeId.__init__.__code__, Pointer.__post_init__.__code__}
    per_size = {}
    for n in (1, 8, 64):
        msg = download_data(n)
        wire = encode_message(msg)
        with Profile(keyed=True) as prof:
            decoded = decode_message(encode_message(msg))
        assert decoded == msg
        assert {code for code in prof.by_code if code in constructors} == set()
        per_size[n] = sum(
            count for code, count in prof.by_code.items() if code.co_filename == codec.__file__
        )
        assert decode_message(wire) == msg
    assert 0 < per_size[1] == per_size[8] == per_size[64], per_size


if __name__ == "__main__":  # record the golden frames of a new wire version
    frames = {name: encode_message(msg).decode("ascii")
              for name, msg in golden_messages().items()}
    GOLDEN.write_text(json.dumps(
        {"wire_schema_version": WIRE_SCHEMA_VERSION, "frames": frames},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(frames)} frames to {GOLDEN}")
