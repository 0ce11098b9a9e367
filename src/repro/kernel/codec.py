"""Versioned, schema-checked JSON wire format for protocol messages.

The DES backends pass :class:`~repro.net.message.Message` objects by
reference (sizes are explicit ``size_bits``, so nothing needs to be
serialized).  The realtime backend puts them on UDP sockets, which makes
the payload structure part of the protocol.  This module pins it down:

* one envelope: ``{"v", "kind", "src", "dst", "id", "re", "bits",
  "trace", "body"}`` — compact separators, sorted keys, UTF-8;
* ``v`` is :data:`WIRE_SCHEMA_VERSION`; a decoder refuses every other
  version (there is one wire format, not a negotiation);
* the three protocol objects travel as **positional rows** — a §2
  pointer is four plain fields and a §4.3 download is a whole peer list
  of them, so rows, not keyed objects, set what a datagram costs:
  ``NodeId`` → ``[value, bits]``, ``Pointer`` → ``[id_value, id_bits,
  addr, level, info, sjt, refresh, seq]``, ``EventRecord`` → ``[kind,
  id_value, id_bits, level, addr, seq, t, info]``;
* every message kind has a registered body schema (the §4 handshakes
  fix these shapes — see PROTOCOL.md "Wire format");
* each row type, and the envelope, has **one field check that both
  directions run** — ``encode`` on the object's fields, ``decode`` on
  the parsed row — so a sender refuses exactly what a receiver would
  drop: ``encode_message`` accepts ``m`` only if
  ``decode_message(encode_message(m)) == m`` (property-tested in
  ``tests/kernel/test_codec.py``), and everything else is a
  :class:`CodecError` at the sender;
* both functions are total: they return or raise :class:`CodecError`,
  whatever the message or the bytes (``tests/kernel/test_codec_hostile.py``).
  The exact bytes are pinned by ``tests/kernel/golden_wire_v2.json``.

Types are the JSON ones, exactly: an int is ``type(x) is int`` (not
``bool``, not a numpy scalar), a number is an int or a *finite* float,
an address is an int (sim keys) or a str (``"host:port"``), and
``attached_info`` is a JSON tree (None/bool/int/float/str, lists,
string-keyed dicts, at most :data:`MAX_INFO_DEPTH` deep).  Subclasses
are refused with the rest — the wire cannot carry them — rather than
silently flattened.
"""

from __future__ import annotations

import json
from math import isfinite
from typing import Any, Callable, Dict, List, NoReturn, Tuple

from repro.core.events import EventKind, EventRecord
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.kernel import schema as wire_schema
from repro.net.message import Message
from repro.obs.trace import SpanRef

#: Bump when the envelope or any body schema changes shape.
WIRE_SCHEMA_VERSION: int = 2

#: Containers allowed above a leaf of ``attached_info``.  A bound of our
#: own, so whether a datagram decodes never depends on how much stack the
#: receiver happens to have left.
MAX_INFO_DEPTH: int = 32


class CodecError(ValueError):
    """A message (or datagram) that violates the wire schema."""


def _fail(msg: str) -> NoReturn:
    raise CodecError(msg)


def _got(value: Any) -> str:
    """All a refusal says about the offending value: its ``repr`` could be
    a whole hostile datagram, nested deeply enough that ``repr`` raises."""
    return f"got {type(value).__name__}"


def _refuse_constant(name: str) -> NoReturn:
    _fail(f"non-finite number {name}")


# Built once: ``json.dumps`` / ``json.loads`` with non-default arguments
# construct a fresh encoder / decoder object per call.
_to_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode
_from_json = json.JSONDecoder(parse_constant=_refuse_constant).decode


# -- field checks: one per row type, run by both directions -----------------

_ADDRESS = frozenset({int, str})
_INFO_LEAVES = frozenset({type(None), bool, int, str})


def _is_number(value: Any) -> bool:
    kind = type(value)
    return kind is int or (kind is float and isfinite(value))


def _check_info(value: Any, depth: int = 0) -> None:
    """``attached_info`` must be a JSON tree that round-trips identically
    (tuples/sets/bytes would come back changed)."""
    kind = type(value)
    if kind in _INFO_LEAVES:
        return
    if kind is float:
        if not isfinite(value):
            _fail(f"attached_info numbers must be finite, got {value}")
    elif depth >= MAX_INFO_DEPTH:
        _fail(f"attached_info nests deeper than {MAX_INFO_DEPTH}")
    elif kind is list:
        for item in value:
            _check_info(item, depth + 1)
    elif kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                _fail(f"attached_info dict keys must be str, {_got(key)}")
            _check_info(item, depth + 1)
    else:
        _fail(f"attached_info must be a JSON tree, {_got(value)}")


def _node_id_fields(row: Any) -> List[Any]:
    if (
        type(row) is list
        and len(row) == 2
        and type(row[0]) is int
        and type(row[1]) is int
    ):
        return row
    _fail(f"node id must be [value: int, bits: int], {_got(row)}")


def _pointer_fields(row: Any) -> List[Any]:
    if type(row) is list and len(row) == 8:
        value, bits, addr, level, info, sjt, refresh, seq = row
        if (
            type(value) is int
            and type(bits) is int
            and type(addr) in _ADDRESS
            and type(level) is int
            # Pointer is mutable, so its constructor's range check can be
            # stale by the time it is sent; no other range can.
            and 0 <= level <= bits
            and (sjt is None or _is_number(sjt))
            and _is_number(refresh)
            and type(seq) is int
        ):
            if info is not None:
                _check_info(info)
            return row
    _fail(
        "pointer must be [id_value: int, id_bits: int, addr: int | str, "
        "level: int in [0, id_bits], info, sjt: number | null, "
        f"refresh: number, seq: int], {_got(row)}"
    )


_EVENT_KINDS = {kind.value: kind for kind in EventKind}


def _event_fields(row: Any) -> List[Any]:
    if type(row) is list and len(row) == 8:
        kind, value, bits, level, addr, seq, origin_time, info = row
        if (
            type(kind) is str
            and kind in _EVENT_KINDS
            and type(value) is int
            and type(bits) is int
            and type(level) is int
            and type(addr) in _ADDRESS
            and type(seq) is int
            and _is_number(origin_time)
        ):
            if info is not None:
                _check_info(info)
            return row
    _fail(
        f"event must be [kind: one of {sorted(_EVENT_KINDS)}, id_value: int, "
        "id_bits: int, level: int, addr: int | str, seq: int, t: number, "
        f"info], {_got(row)}"
    )


def _envelope_fields(
    src: Any, dst: Any, msg_id: Any, reply_to: Any, size_bits: Any, trace: Any
) -> None:
    if type(src) not in _ADDRESS or type(dst) not in _ADDRESS:
        _fail("src and dst must be int or str addresses")
    if type(msg_id) is not int or not (reply_to is None or type(reply_to) is int):
        _fail("msg_id must be an int, reply_to an int or None / null")
    if type(size_bits) is not int or size_bits < 0:
        _fail("size_bits must be a non-negative int")
    if trace is not None and (
        type(trace) is not list
        or len(trace) != 3
        or type(trace[0]) is not str
        or type(trace[1]) is not str
        or type(trace[2]) is not int
    ):
        _fail("trace must be [trace_id: str, span_id: str, depth: int] or None / null")


# -- rows <-> objects -------------------------------------------------------


def _enc_node_id(nid: Any) -> List[Any]:
    if type(nid) is not NodeId:
        _fail(f"expected NodeId, {_got(nid)}")
    return _node_id_fields([nid.value, nid.bits])


def _dec_node_id(row: Any) -> NodeId:
    value, bits = _node_id_fields(row)
    try:
        return NodeId(value, bits)
    except ValueError as exc:
        raise CodecError(f"node id: {exc}") from exc


def _enc_pointer(ptr: Any) -> List[Any]:
    if type(ptr) is not Pointer or type(ptr.node_id) is not NodeId:
        _fail(f"expected Pointer (over a NodeId), {_got(ptr)}")
    nid = ptr.node_id
    return _pointer_fields([
        nid.value, nid.bits, ptr.address, ptr.level, ptr.attached_info,
        ptr.seen_join_time, ptr.last_refresh, ptr.last_event_seq,
    ])


def _dec_pointer(row: Any) -> Pointer:
    value, bits, addr, level, info, sjt, refresh, seq = _pointer_fields(row)
    try:
        return Pointer(NodeId(value, bits), addr, level, info, sjt, refresh, seq)
    except ValueError as exc:
        raise CodecError(f"pointer: {exc}") from exc


def _enc_pointers(ptrs: Any) -> List[List[Any]]:
    if type(ptrs) is not list:
        _fail(f"expected a list of pointers, {_got(ptrs)}")
    return [_enc_pointer(p) for p in ptrs]


def _dec_pointers(rows: Any) -> List[Pointer]:
    if type(rows) is not list:
        _fail(f"expected a list of pointer rows, {_got(rows)}")
    return [_dec_pointer(row) for row in rows]


def _enc_event(ev: Any) -> List[Any]:
    if (
        type(ev) is not EventRecord
        or type(ev.kind) is not EventKind
        or type(ev.subject_id) is not NodeId
    ):
        _fail(f"expected EventRecord (an EventKind about a NodeId), {_got(ev)}")
    nid = ev.subject_id
    return _event_fields([
        ev.kind.value, nid.value, nid.bits, ev.subject_level,
        ev.subject_address, ev.seq, ev.origin_time, ev.attached_info,
    ])


def _dec_event(row: Any) -> EventRecord:
    kind, value, bits, level, addr, seq, origin_time, info = _event_fields(row)
    try:
        return EventRecord(
            _EVENT_KINDS[kind], NodeId(value, bits), level, addr, seq, origin_time, info
        )
    except ValueError as exc:
        raise CodecError(f"event: {exc}") from exc


# -- body schemas, one per message kind -------------------------------------

#: A body field: its ``(encode, decode)`` pair.
_Field = Tuple[Callable[[Any], Any], Callable[[Any], Any]]


def _scalar(ok: Callable[[Any], bool], what: str) -> _Field:
    """A field that travels as itself: the same check in both directions."""

    def check(value: Any) -> Any:
        if not ok(value):
            _fail(f"expected {what}, {_got(value)}")
        return value

    return check, check


def _tuple_body(kind: str, *fields: _Field) -> _Field:
    """A fixed-arity body: a tuple in ``Message.payload``, a list on the
    wire, each element converted by its own field."""

    def convert(body: Any, container: type, direction: int) -> List[Any]:
        if type(body) is not container or len(body) != len(fields):
            _fail(f"{kind} must be a {len(fields)}-element {container.__name__}, {_got(body)}")
        return [field[direction](value) for field, value in zip(fields, body)]

    return (lambda payload: convert(payload, tuple, 0),
            lambda body: tuple(convert(body, list, 1)))


_NONE = _scalar(lambda v: v is None, "None / null")
_INT = _scalar(lambda v: type(v) is int, "an int")
_BOOL = _scalar(lambda v: type(v) is bool, "a bool")
_NUMBER = _scalar(_is_number, "a finite number")
_NONCE = _scalar(lambda v: type(v) is int and v >= 0, "a non-negative int nonce")
_NODE_ID = (_enc_node_id, _dec_node_id)
_POINTER = (_enc_pointer, _dec_pointer)
_POINTERS = (_enc_pointers, _dec_pointers)
_EVENT = (_enc_event, _dec_event)


# get-top has two shapes (additive, DESIGN §16): the bare joiner id, or
# ``(joiner_id, nonce)`` carrying the admission proof-of-work token,
# which travels as ``{"id", "nonce"}`` so the two cannot be confused.
_enc_token, _dec_token = _tuple_body("get-top", _NODE_ID, _NONCE)


def _enc_get_top(payload: Any) -> Any:
    if type(payload) is tuple:
        joiner, nonce = _enc_token(payload)
        return {"id": joiner, "nonce": nonce}
    return _enc_node_id(payload)


def _dec_get_top(body: Any) -> Any:
    if type(body) is dict:
        if body.keys() != {"id", "nonce"}:
            _fail("get-top token body must be {id, nonce}")
        return _dec_token([body["id"], body["nonce"]])
    return _dec_node_id(body)


#: kind -> (encode_body, decode_body); the schema registry.  These are
#: the exact shapes the §4 services put in ``Message.payload``.
_BODY_CODECS: Dict[str, _Field] = {
    # failure detection (§4.1) and tree acks (§4.2)
    "probe": _NONE,
    "probe-ack": _NONE,
    "mcast-ack": _NONE,
    "bridge-ack": _NONE,
    # join handshake (§4.3)
    "get-top": (_enc_get_top, _dec_get_top),
    "top-ptr": (
        lambda payload: None if payload is None else _enc_pointer(payload),
        lambda body: None if body is None else _dec_pointer(body),
    ),
    "level-query": _NODE_ID,
    "level-info": _tuple_body("level-info", _INT, _NUMBER, _POINTERS),
    "download": _tuple_body("download", _NODE_ID, _INT),
    "download-data": _tuple_body("download-data", _POINTERS, _POINTERS),
    # dissemination (§4.2) and reporting
    "mcast": _tuple_body("mcast", _EVENT, _INT),
    "event-copy": _EVENT,
    "report": _EVENT,
    "report-ack": _POINTERS,
    # maintenance (§4.4/§4.5 top-node exchange and part bridging)
    "get-topnodes": _NONE,
    "topnodes": _POINTERS,
    "bridge-subscribe": _tuple_body("bridge-subscribe", _POINTER, _BOOL),
}

#: Every kind the codec (and therefore the wire) knows, in sorted order.
MESSAGE_KINDS: Tuple[str, ...] = tuple(sorted(_BODY_CODECS))

# The implementation (this registry) and the description
# (repro.kernel.schema, which the static analyzer checks construction
# sites against) must never drift: fail loudly at import time, not at
# the first mismatched message.
if set(_BODY_CODECS) != set(wire_schema.BODY_SCHEMAS):  # pragma: no cover
    _only_codec = sorted(set(_BODY_CODECS) - set(wire_schema.BODY_SCHEMAS))
    _only_schema = sorted(set(wire_schema.BODY_SCHEMAS) - set(_BODY_CODECS))
    raise RuntimeError(
        "wire codec and repro.kernel.schema disagree on message kinds: "
        f"codec-only={_only_codec} schema-only={_only_schema}"
    )


# -- envelope ---------------------------------------------------------------


def _body_codec(kind: Any) -> _Field:
    if type(kind) is not str:
        _fail(f"message kind must be a str, {_got(kind)}")
    codec = _BODY_CODECS.get(kind)
    if codec is None:
        _fail(f"unknown message kind {kind!r}")
    return codec


def encode_message(msg: Message) -> bytes:
    """Serialize ``msg`` to one UTF-8 JSON datagram.

    Raises :class:`CodecError` — and nothing else — for every message
    that :func:`decode_message` would not give back equal: an unknown
    kind, a payload that does not match the kind's schema, a field of
    the wrong type.
    """
    encode_body = _body_codec(msg.kind)[0]
    trace = msg.trace
    if trace is not None:
        if not isinstance(trace, tuple):
            _fail(f"trace must be a (trace_id, span_id, depth) tuple, {_got(trace)}")
        trace = list(trace)
    _envelope_fields(msg.src, msg.dst, msg.msg_id, msg.reply_to, msg.size_bits, trace)
    envelope = {
        "v": WIRE_SCHEMA_VERSION,
        "kind": msg.kind,
        "src": msg.src,
        "dst": msg.dst,
        "id": msg.msg_id,
        "re": msg.reply_to,
        "bits": msg.size_bits,
        "trace": trace,
        "body": encode_body(msg.payload),
    }
    try:
        return _to_json(envelope).encode("utf-8")
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise CodecError(f"unserializable message: {exc}") from exc


_ENVELOPE_FIELDS = {"v", "kind", "src", "dst", "id", "re", "bits", "trace", "body"}


def decode_message(data: bytes) -> Message:
    """Parse one datagram back into a :class:`Message`.

    Raises :class:`CodecError` — and nothing else, whatever the bytes —
    for malformed JSON, non-finite numbers, another wire version, an
    unknown kind, a missing/extra envelope field, or a body that
    violates the kind's schema.
    """
    try:
        obj = _from_json(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 / JSON, huge int, deep nesting
        raise CodecError(f"malformed datagram: {exc}") from exc
    if type(obj) is not dict or obj.keys() != _ENVELOPE_FIELDS:
        _fail(f"envelope must have fields {sorted(_ENVELOPE_FIELDS)}")
    version = obj["v"]
    if type(version) is not int:
        _fail(f"wire schema version must be an int, {_got(version)}")
    if version != WIRE_SCHEMA_VERSION:
        _fail(f"unsupported wire schema version {version}")
    kind = obj["kind"]
    decode_body = _body_codec(kind)[1]
    src, dst, msg_id, reply_to = obj["src"], obj["dst"], obj["id"], obj["re"]
    size_bits, trace = obj["bits"], obj["trace"]
    _envelope_fields(src, dst, msg_id, reply_to, size_bits, trace)
    return Message(
        src,
        dst,
        kind,
        decode_body(obj["body"]),
        size_bits,
        msg_id,
        reply_to,
        None if trace is None else SpanRef(*trace),
    )
