"""The one pointer-list check refuses exactly what the three checks it
replaced refused.

A decoded pointer row used to pass ``_pointer_fields``, then ``NodeId()``,
then ``Pointer()``; an event row ``_event_fields``, ``NodeId()``,
``EventRecord()``.  That path is frozen below as the oracle, and
hypothesis compares it with the codec over hostile rows, lists of them,
whole datagrams and planted ``Pointer`` fields, in both directions: what
the oracle accepts the codec accepts (building an equal value), what it
refuses the codec refuses with a ``CodecError``.
"""

import json
from math import isfinite

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventKind, EventRecord
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.kernel import codec
from repro.kernel.codec import (
    WIRE_SCHEMA_VERSION,
    CodecError,
    decode_message,
    encode_message,
)
from repro.net.message import Message

# -- the oracle: the replaced path, frozen --------------------------------------

_INFO_LEAVES = frozenset({type(None), bool, int, str})


class Refused(Exception):
    pass


def _is_number(value):
    kind = type(value)
    return kind is int or (kind is float and isfinite(value))


def _info_ok(value, depth=0):
    kind = type(value)
    if kind in _INFO_LEAVES:
        return True
    if kind is float:
        return isfinite(value)
    if depth >= 32:
        return False
    if kind is list:
        return all(_info_ok(item, depth + 1) for item in value)
    if kind is dict:
        return all(type(k) is str and _info_ok(v, depth + 1) for k, v in value.items())
    return False


def oracle_pointer(row):
    """``_pointer_fields`` + ``NodeId()`` + ``Pointer()``: the pointer, or
    :class:`Refused`."""
    if type(row) is not list or len(row) != 8:
        raise Refused
    value, bits, addr, level, info, sjt, refresh, seq = row
    if not (
        type(value) is int
        and type(bits) is int
        and type(addr) in (int, str)
        and type(level) is int
        and 0 <= level <= bits
        and (sjt is None or _is_number(sjt))
        and _is_number(refresh)
        and type(seq) is int
        # what a row's 32-bit seq column holds; an event's upper bound
        # is EventRecord()'s
        and -1 <= seq <= 2**31 - 1
        and (info is None or _info_ok(info))
    ):
        raise Refused
    try:
        return Pointer(NodeId(value, bits), addr, level, info, sjt, refresh, seq)
    except ValueError:
        raise Refused from None


_EVENT_KINDS = {kind.value: kind for kind in EventKind}


def oracle_event(row):
    """``_event_fields`` + ``NodeId()`` + ``EventRecord()``."""
    if type(row) is not list or len(row) != 8:
        raise Refused
    kind, value, bits, level, addr, seq, origin_time, info = row
    if not (
        type(kind) is str
        and kind in _EVENT_KINDS
        and type(value) is int
        and type(bits) is int
        and type(level) is int
        and type(addr) in (int, str)
        and type(seq) is int
        and _is_number(origin_time)
        and (info is None or _info_ok(info))
    ):
        raise Refused
    try:
        return EventRecord(_EVENT_KINDS[kind], NodeId(value, bits), level, addr, seq,
                           origin_time, info)
    except ValueError:
        raise Refused from None


def outcome(fn, *args):
    """``("ok", result)`` or ``("refused", None)``; anything else raises."""
    try:
        return "ok", fn(*args)
    except (Refused, CodecError):
        return "refused", None


def same_fields(a, b):
    """Equal, and with the same field types (``1 == 1.0 == True``)."""
    fa, fb = vars_of(a), vars_of(b)
    return fa == fb and [type(x) for x in fa] == [type(x) for x in fb]


def vars_of(obj):
    if isinstance(obj, NodeId):
        return [obj.value, obj.bits]
    if isinstance(obj, Pointer):
        return vars_of(obj.node_id) + [obj.address, obj.level, obj.attached_info,
                                       obj.seen_join_time, obj.last_refresh,
                                       obj.last_event_seq]
    return vars_of(obj.subject_id) + [obj.kind, obj.subject_level, obj.subject_address,
                                      obj.seq, obj.origin_time, obj.attached_info]


# -- hostile fields -------------------------------------------------------------

def _nested(depth, leaf=None):
    tree = leaf
    for _ in range(depth):
        tree = [tree]
    return tree


def _cyclic():
    loop = []
    loop.append({"again": loop})
    return loop


NAN, INF = float("nan"), float("inf")
bits_values = st.sampled_from([1, 4, 8, 128, 256, 0, 257, -1, True, 4.0, None, "8"])
numbers = st.sampled_from([0, 3, 0.0, 2.5, -1e300, NAN, INF, -INF, True, None, "1", [1.0]])
infos = st.one_of(
    st.sampled_from([None, "app", 1, 2.5, True, [1, "x"], {"k": [None]}, {1: "x"},
                     NAN, INF, (1, 2), b"raw", _nested(31), _nested(32), _nested(40),
                     _nested(5, NAN)]),
    st.builds(_cyclic),
)


@st.composite
def id_fields(draw):
    """``(value, bits)`` at, around and far from ``NodeId``'s domain."""
    bits = draw(bits_values)
    width = bits if type(bits) is int and bits > 0 else 8
    value = draw(st.sampled_from([
        0, 1, 2**width - 1, 2**width, 2**width + 5, -1, 2**300, True, 1.0, None,
    ]))
    return value, bits


@st.composite
def levels(draw, bits):
    top = bits if type(bits) is int else 8
    return draw(st.sampled_from([0, 1, top, top + 1, -1, True, 2.0, None]))


@st.composite
def pointer_rows(draw):
    value, bits = draw(id_fields())
    row = [
        value, bits,
        draw(st.sampled_from([7, "127.0.0.1:9001", None, 1.5, True, ["h", 1]])),
        draw(levels(bits)),
        draw(infos),
        draw(st.one_of(st.none(), numbers)),
        draw(numbers),
        draw(st.sampled_from([-1, -2, 0, 5, 2**31 - 1, 2**31, 2**70, 1.0, True, None])),
    ]
    shape = draw(st.sampled_from(["row"] * 6 + ["short", "long", "tuple", "dict"]))
    if shape == "short":
        return row[:7]
    if shape == "long":  # a 9-field row
        return row + [0]
    if shape == "tuple":
        return tuple(row)
    if shape == "dict":
        return dict(enumerate(row))
    return row


@st.composite
def event_rows(draw):
    value, bits = draw(id_fields())
    return [
        draw(st.sampled_from(["join", "leave", "refresh", "JOIN", "", 1, None])),
        value, bits,
        draw(levels(bits)),
        draw(st.sampled_from([7, "127.0.0.1:9002", None, 2.0])),
        draw(st.sampled_from([-1, 0, 3, 2**31 - 1, 2**31, 1.0, True])),
        draw(numbers),
        draw(infos),
    ]


# -- rows -----------------------------------------------------------------------

@settings(max_examples=1000, deadline=None)
@given(pointer_rows())
def test_one_pointer_row(row):
    want, expected = outcome(oracle_pointer, row)
    got, decoded = outcome(codec._dec_pointers, [row])
    assert got == want
    if want == "ok":
        assert same_fields(decoded[0], expected)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(pointer_rows(), max_size=5),
                 st.lists(pointer_rows(), max_size=3).map(tuple)))
def test_a_list_of_pointer_rows(rows):
    if type(rows) is list:
        want = outcome(lambda: [oracle_pointer(row) for row in rows])
    else:
        want = ("refused", None)  # the replaced path refused a non-list too
    got = outcome(codec._dec_pointers, rows)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert len(got[1]) == len(want[1])
        assert all(same_fields(a, b) for a, b in zip(got[1], want[1]))


@settings(max_examples=500, deadline=None)
@given(event_rows())
def test_one_event_row(row):
    want, expected = outcome(oracle_event, row)
    got, decoded = outcome(codec._dec_event, row)
    assert got == want
    if want == "ok":
        assert same_fields(decoded, expected)


# -- whole datagrams, decode side -----------------------------------------------

def _datagram(kind, body):
    envelope = {"v": WIRE_SCHEMA_VERSION, "kind": kind, "src": 1, "dst": 2, "id": 7,
                "re": None, "bits": 0, "trace": None, "body": body}
    # Whatever json.dumps writes (NaN, Infinity included) is what arrives.
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()


def _parsed(data):
    """The body as the replaced decoder saw it (non-finite literals refused)."""
    def refuse(_name):
        raise Refused
    return json.loads(data, parse_constant=refuse)["body"]


@settings(max_examples=400, deadline=None)
@given(st.lists(pointer_rows(), max_size=4), st.lists(pointer_rows(), max_size=2))
def test_download_data_datagrams(matching, tops):
    try:
        data = _datagram("download-data", [matching, tops])
    except (TypeError, ValueError):  # bytes, cycles, non-str keys: never on a wire
        return

    def oracle():
        return tuple([oracle_pointer(row) for row in rows] for rows in _parsed(data))

    want = outcome(oracle)
    got = outcome(decode_message, data)
    assert got[0] == want[0]
    if want[0] == "ok":
        for decoded, expected in zip(got[1].payload, want[1]):
            assert all(same_fields(a, b) for a, b in zip(decoded, expected))


@settings(max_examples=300, deadline=None)
@given(pointer_rows(), st.booleans())
def test_single_pointer_bodies(row, subscribe):
    """``top-ptr`` and ``bridge-subscribe`` carry one row: the same check."""
    for kind, body in (("top-ptr", row), ("bridge-subscribe", [row, subscribe])):
        try:
            data = _datagram(kind, body)
        except (TypeError, ValueError):
            return
        want = outcome(lambda: oracle_pointer(_parsed(data) if kind == "top-ptr"
                                              else _parsed(data)[0]))
        assert outcome(decode_message, data)[0] == want[0], kind


# -- planted Pointer fields, encode side ------------------------------------------

FIELDS = ("address", "level", "attached_info", "seen_join_time", "last_refresh",
          "last_event_seq")


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_encode_refuses_what_the_replaced_round_trip_refused(data):
    """A ``Pointer`` is mutable, so any field can be wrong by the time it is
    sent.  The sender accepts exactly what the replaced path accepted in
    both directions: its own row check, then the receiver's ``NodeId()``
    and ``Pointer()``."""
    bits = data.draw(st.sampled_from([4, 8, 128]))
    ptr = Pointer(NodeId(data.draw(st.integers(0, 2**bits - 1)), bits), 7, 1)
    for field in data.draw(st.lists(st.sampled_from(FIELDS), max_size=3)):
        if field == "level":
            value = data.draw(levels(bits))
        elif field == "attached_info":
            value = data.draw(infos)
        elif field == "address":
            value = data.draw(st.sampled_from([7, "h:1", None, 1.5, True]))
        elif field == "last_event_seq":
            value = data.draw(st.sampled_from([-1, 5, 1.0, True, None]))
        else:
            value = data.draw(numbers)
        object.__setattr__(ptr, field, value)
    if data.draw(st.booleans()):  # an id planted past its domain
        value, id_bits = data.draw(id_fields())
        object.__setattr__(ptr, "node_id", NodeId(0, 8))
        NodeId.value.__set__(ptr.node_id, value)
        NodeId.bits.__set__(ptr.node_id, id_bits)
    row = [ptr.node_id.value, ptr.node_id.bits, ptr.address, ptr.level,
           ptr.attached_info, ptr.seen_join_time, ptr.last_refresh, ptr.last_event_seq]
    want = outcome(oracle_pointer, row)[0]
    for msg in (Message(1, 2, "topnodes", [ptr]), Message(1, 2, "top-ptr", ptr),
                Message(1, 2, "download-data", ([], [ptr]))):
        got = outcome(encode_message, msg)
        assert got[0] == want, msg.kind
        if want == "ok":
            assert decode_message(got[1]) == msg


def test_a_cyclic_attached_info_is_a_codec_error_before_json_sees_it():
    """The encoder runs without ``check_circular``: the depth bound is what
    stands between a cycle and unbounded recursion."""
    keyed = {}
    keyed["self"] = keyed
    for info in (_cyclic(), keyed):
        ptr = Pointer(NodeId(3, 4), 7, 1, attached_info=info)
        for msg in (Message(1, 2, "top-ptr", ptr), Message(1, 2, "topnodes", [ptr])):
            assert outcome(encode_message, msg)[0] == "refused"
        ev = EventRecord(EventKind.INFO_CHANGE, NodeId(3, 4), 1, 7, 1, 0.0, info)
        assert outcome(encode_message, Message(1, 2, "report", ev))[0] == "refused"
