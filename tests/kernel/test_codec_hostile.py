"""Hostile bytes.  ``decode_message`` is total: whatever arrives, it
returns a message this node could send on unchanged, or raises
``CodecError`` — the one exception ``RealtimeRuntime`` counts as
``malformed`` and drops.  Anything else would leave ``datagram_received``
uncounted (``tests/live/test_runtime.py`` sends :data:`HOSTILE` through a
real socket).

Frames are forged from what *this* codec encodes, by leaf value and by
tree path rather than by byte offset, so the examples stay hostile
whatever layout ``WIRE_SCHEMA_VERSION`` names.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventKind, EventRecord
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.kernel.codec import CodecError, decode_message, encode_message
from repro.net.message import Message
from tests.kernel.test_codec import MAX_DATAGRAM, golden_messages, messages


def survives(data):
    """The contract.  Returns the decoded message, or None if refused;
    any other exception propagates and fails the test."""
    try:
        msg = decode_message(data)
    except CodecError:
        return None
    assert decode_message(encode_message(msg)) == msg
    return msg


# -- forging ----------------------------------------------------------------

_MARK = "@@forged@@"


def _dumps(tree):
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def _paths(tree, prefix=()):
    """The path of every node of a JSON tree, containers included."""
    yield prefix
    children = (
        enumerate(tree) if isinstance(tree, list)
        else tree.items() if isinstance(tree, dict) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _put(tree, path, value):
    """``tree`` with the node at ``path`` replaced (in place below the root)."""
    if not path:
        return value
    _get(tree, path[:-1])[path[-1]] = value
    return tree


def _splice(tree, path, raw):
    """The frame's text with the node at ``path`` overwritten by the raw
    JSON text ``raw`` — which need not be JSON at all."""
    text = _dumps(_put(tree, path, _MARK))
    return text.replace(json.dumps(_MARK), raw).encode("utf-8")


def forge(msg, leaf, raw):
    """``msg``'s datagram with its one leaf equal to ``leaf`` overwritten
    by the raw text ``raw``."""
    tree = json.loads(encode_message(msg))
    hits = [p for p in _paths(tree)
            if type(_get(tree, p)) is type(leaf) and _get(tree, p) == leaf]
    assert len(hits) == 1, (leaf, hits)
    return _splice(tree, hits[0], raw)


# Carriers whose every leaf is a distinct sentinel (2, the version, aside).
_ID = NodeId(167, 8)
_POINTER = Message("127.0.0.1:1", "127.0.0.1:9", "top-ptr",
                   Pointer(_ID, "127.0.0.1:9001", 5, "INFO", 1.25, 2.5, 3),
                   size_bits=600, msg_id=424242)
_EVENT = Message("127.0.0.1:1", "127.0.0.1:9", "report",
                 EventRecord(EventKind.JOIN, _ID, 5, "127.0.0.1:9002", 3, 2.5, "INFO"),
                 size_bits=600, msg_id=424242)
_LEVEL_INFO = Message("127.0.0.1:1", "127.0.0.1:9", "level-info", (5, 2.5, []),
                      size_bits=600, msg_id=424242)

_V1_FRAME = (
    b'{"bits":600,"body":{"addr":"127.0.0.1:9001","id":{"b":4,"v":11},'
    b'"info":null,"level":2,"refresh":2.0,"seq":3,"sjt":1.0},'
    b'"dst":"127.0.0.1:2","id":7,"kind":"top-ptr","re":null,'
    b'"src":"127.0.0.1:1","trace":null,"v":1}'
)

#: name -> one datagram a node must count and drop.  Each fits a UDP
#: datagram, so the live runtime test can put it on a socket.
HOSTILE = {
    # out-of-range fields: the constructors' errors, not the codec's
    "pointer level past its id width": forge(_POINTER, 5, "9"),
    "pointer level negative": forge(_POINTER, 5, "-1"),
    "id value past its width": forge(_POINTER, 167, "256"),
    "id 100000 bits wide": forge(_POINTER, 8, "100000"),
    "event seq negative": forge(_EVENT, 3, "-3"),
    "event level past its id width": forge(_EVENT, 5, "9"),
    # what the JSON parser itself chokes on
    "nothing but open brackets": b"[" * 60_000,
    "open brackets inside info": forge(_POINTER, "INFO", "[" * 60_000),
    "info nested 20000 deep": forge(_POINTER, "INFO", "[" * 20_000 + "]" * 20_000),
    "msg_id of 5000 digits": forge(_POINTER, 424242, "9" * 5_000),
    # non-finite numbers: literals, and overflow to inf
    "pointer refresh NaN": forge(_POINTER, 2.5, "NaN"),
    "pointer sjt Infinity": forge(_POINTER, 1.25, "Infinity"),
    "pointer sjt -Infinity": forge(_POINTER, 1.25, "-Infinity"),
    "pointer refresh 1e999": forge(_POINTER, 2.5, "1e999"),
    "event origin_time 1e999": forge(_EVENT, 2.5, "1e999"),
    "level-info ewma_rate -1e999": forge(_LEVEL_INFO, 2.5, "-1e999"),
    # the previous wire version is just another unsupported version
    "a v1 frame": _V1_FRAME,
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_named_hostile_datagrams_are_refused(name):
    assert len(HOSTILE[name]) <= MAX_DATAGRAM
    assert survives(HOSTILE[name]) is None


def test_the_carriers_themselves_are_fine():
    """The examples are hostile for the one leaf forged, nothing else."""
    for msg in (_POINTER, _EVENT, _LEVEL_INFO):
        assert survives(encode_message(msg)) == msg
        assert survives(forge(msg, 424242, "424243")).msg_id == 424243


def test_more_brackets_than_a_datagram_holds():
    assert survives(b"[" * 100_000) is None
    assert survives(forge(_POINTER, "INFO", "[" * 100_000)) is None


def test_any_nesting_depth_anywhere_is_refused_not_raised():
    """Sweeps the depths around the interpreter's recursion limit, where a
    tree may just parse and then overflow the stack in whatever walks it
    next (a schema check, an error message's ``repr``)."""
    depths = list(range(1, 70)) + list(range(850, 1100)) + [5_000]
    for leaf in ("INFO", 5, 424242, 600, "top-ptr", "127.0.0.1:9"):
        for depth in depths:
            for raw in ("[" * depth + "]" * depth,
                        '{"k":' * depth + "0" + "}" * depth):
                survives(forge(_POINTER, leaf, raw))
    tree = json.loads(encode_message(_POINTER))
    for path in (("v",), ("trace",), ("body",), ()):
        for depth in depths:
            survives(_splice(json.loads(_dumps(tree)), path, "[" * depth + "]" * depth))


# -- generated hostility ----------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=256))
def test_arbitrary_bytes(data):
    survives(data)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet='{}[]",:0123456789.eE+- \\utrfalsn', max_size=128))
def test_arbitrary_json_looking_text(text):
    survives(text.encode("utf-8"))


#: Values of every JSON type, to put where another type belongs.
_OTHER = [None, True, False, 0, 1, -1, 2**63, 1.5, -0.0, 1e308, "", "x", "join",
          [], {}, [[]], [None] * 8, {"v": 1}, {"id": [1, 4], "nonce": 1}]
#: Raw text no ``json.dumps`` would write.
_RAW = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "9" * 5_000, "-" + "9" * 5_000,
        "[" * 2_000, "[" * 40 + "]" * 40, "[" * 2_000 + "]" * 2_000,
        '{"a":' * 2_000, '"\\ud800"', "01", "", "1,2"]


def _truncate(tree, data):
    wire = _dumps(tree).encode()
    return wire[:data.draw(st.integers(0, len(wire) - 1))]


def _retype(tree, data):
    path = data.draw(st.sampled_from(list(_paths(tree))))
    return _dumps(_put(tree, path, data.draw(st.sampled_from(_OTHER)))).encode()


def _resize(tree, data):
    """Drop or add one element of a row / one key of an object."""
    rows = [p for p in _paths(tree) if isinstance(_get(tree, p), (list, dict))]
    node = _get(tree, data.draw(st.sampled_from(rows)))
    extra = data.draw(st.sampled_from(_OTHER))
    if data.draw(st.booleans()) and node:
        del node[data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))]
    elif isinstance(node, dict):
        node[data.draw(st.sampled_from(["v", "id", "x", ""]))] = extra
    else:
        node.insert(data.draw(st.integers(0, len(node))), extra)
    return _dumps(tree).encode()


def _reversion(tree, data):
    version = data.draw(st.sampled_from([0, 1, 3, -2, 2.0, True, "2", None, [2]]))
    if version is None:
        del tree["v"]
    else:
        tree["v"] = version
    return _dumps(tree).encode()


def _raw(tree, data):
    path = data.draw(st.sampled_from(list(_paths(tree))))
    return _splice(tree, path, data.draw(st.sampled_from(_RAW)))


def _duplicate_key(tree, data):
    """The same envelope key twice: a parser keeps one of them, and
    whichever it keeps must pass the same checks."""
    text = _dumps(tree)
    key = data.draw(st.sampled_from(sorted(tree)))
    pair = json.dumps(key) + ":" + _dumps(data.draw(st.sampled_from(_OTHER)))
    if data.draw(st.booleans()):
        return ("{" + pair + "," + text[1:]).encode()
    return (text[:-1] + "," + pair + "}").encode()


_MUTATIONS = [_truncate, _retype, _resize, _reversion, _raw, _duplicate_key]


@settings(max_examples=600, deadline=None)
@given(messages(), st.sampled_from(_MUTATIONS), st.data())
def test_mutated_valid_frames(msg, mutate, data):
    msg.msg_id = 7  # the process-wide counter would make replays differ
    survives(mutate(json.loads(encode_message(msg)), data))


@pytest.mark.parametrize("mutate", _MUTATIONS, ids=lambda f: f.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_mutation_of_every_shape(mutate, data):
    """Each mutation against each golden frame — all 17 kinds, both
    ``get-top`` forms, traced and not — so no kind waits on the draw."""
    for msg in golden_messages().values():
        survives(mutate(json.loads(encode_message(msg)), data))
