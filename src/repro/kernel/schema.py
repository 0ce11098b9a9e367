"""Machine-readable body schemas for every wire message kind.

:mod:`repro.kernel.codec` *implements* the wire format — one
encoder/decoder pair per message kind.  This module *describes* it: a
pure-data registry (:data:`BODY_SCHEMAS`) of what each kind's
``Message.payload`` must look like at a construction site, introspectable
without importing the protocol, numpy, or the codec itself.

Two consumers rely on that purity:

* the static analyzer (``repro.analysis`` rule WIRE001) checks every
  ``Message(...)`` / ``make_reply(...)`` site in the services against
  these shapes without executing any protocol code;
* ``repro.kernel.codec`` asserts at import time that the schema registry
  and the codec registry list exactly the same kinds, so the two can
  never drift apart silently.

The shapes themselves are fixed by the §4 handshakes (PROTOCOL.md "Wire
format") and versioned by ``codec.WIRE_SCHEMA_VERSION``.  This registry
describes construction sites, not bytes: how the codec lays a
``Pointer`` out on the wire is the codec's business (version 2 made the
rows positional without touching a line here).  Changing the kinds or
their payload shapes trips the codec cross-check and
``tests/kernel/test_schema.py``; changing the bytes under an unchanged
version trips the golden frames in ``tests/kernel/golden_wire_v2.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Payload categories a :class:`BodySchema` can take.  ``tuple`` payloads
#: are Python tuples with a fixed arity and named fields; the scalar
#: categories are single protocol objects (or None where allowed).
CATEGORIES = (
    "none",          # payload must be None
    "node_id",       # a NodeId
    "node_id_or_nonce",  # a NodeId, or (NodeId, nonce:int) with admission PoW
    "opt_pointer",   # a Pointer or None
    "event",         # an EventRecord
    "pointer_list",  # a list of Pointers
    "tuple",         # fixed-arity tuple; see fields/types
)


@dataclass(frozen=True)
class BodySchema:
    """The construction-site contract for one message kind's payload."""

    kind: str
    category: str
    #: Ordered field names for ``tuple`` payloads (empty otherwise).
    fields: Tuple[str, ...] = ()
    #: Human-readable type per field (tuple payloads), or one entry
    #: describing the whole payload (scalar categories).
    types: Tuple[str, ...] = ()
    doc: str = ""

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown payload category {self.category!r}")
        if self.category == "tuple" and not self.fields:
            raise ValueError(f"{self.kind}: tuple schema needs field names")
        if self.fields and len(self.fields) != len(self.types):
            raise ValueError(f"{self.kind}: fields/types length mismatch")

    @property
    def arity(self) -> Optional[int]:
        """Required tuple length, or None for non-tuple payloads."""
        return len(self.fields) if self.category == "tuple" else None

    @property
    def allows_none(self) -> bool:
        return self.category in ("none", "opt_pointer")

    @property
    def requires_payload(self) -> bool:
        """Must a construction site pass a non-None payload?"""
        return not self.allows_none

    def describe(self) -> str:
        """One-line shape, e.g. ``(level: int, ewma_rate: number, ...)``."""
        if self.category == "none":
            return "None"
        if self.category == "tuple":
            inner = ", ".join(
                f"{name}: {typ}" for name, typ in zip(self.fields, self.types)
            )
            return f"({inner})"
        return self.types[0] if self.types else self.category


def _schemas(*schemas: BodySchema) -> Dict[str, BodySchema]:
    out: Dict[str, BodySchema] = {}
    for schema in schemas:
        if schema.kind in out:
            raise ValueError(f"duplicate schema for kind {schema.kind!r}")
        out[schema.kind] = schema
    return out


#: kind -> payload schema; must stay in lock-step with
#: ``repro.kernel.codec._BODY_CODECS`` (the codec asserts it on import).
BODY_SCHEMAS: Dict[str, BodySchema] = _schemas(
    # failure detection (§4.1) and tree acks (§4.2)
    BodySchema("probe", "none", doc="§4.1 ring liveness probe"),
    BodySchema("probe-ack", "none", doc="§4.1 probe acknowledgement"),
    BodySchema("mcast-ack", "none", doc="§4.2 multicast hop acknowledgement"),
    BodySchema("bridge-ack", "none", doc="§8 bridge-copy acknowledgement"),
    # join handshake (§4.3)
    BodySchema(
        "get-top", "node_id_or_nonce",
        types=("NodeId | (NodeId, nonce: int)",),
        doc="joiner asks a bootstrap for the part's top node; the tuple "
            "form carries the DESIGN §16 admission proof-of-work nonce",
    ),
    BodySchema(
        "top-ptr", "opt_pointer", types=("Pointer | None",),
        doc="bootstrap's answer: the top node it believes in, if any",
    ),
    BodySchema(
        "level-query", "node_id", types=("NodeId",),
        doc="joiner asks the top for level guidance",
    ),
    BodySchema(
        "level-info", "tuple",
        fields=("level", "ewma_rate", "piggyback"),
        types=("int", "number", "[Pointer]"),
        doc="top's level recommendation plus piggybacked top pointers",
    ),
    BodySchema(
        "download", "tuple",
        fields=("requester_id", "prefix_len"),
        types=("NodeId", "int"),
        doc="§4.3 peer-list download request for one eigenstring prefix",
    ),
    BodySchema(
        "download-data", "tuple",
        fields=("matching", "tops"),
        types=("[Pointer]", "[Pointer]"),
        doc="download answer: prefix-matching pointers plus known tops",
    ),
    # dissemination (§4.2) and reporting (§4.5)
    BodySchema(
        "mcast", "tuple",
        fields=("event", "next_bit"),
        types=("EventRecord", "int"),
        doc="binomial-tree multicast hop: the event and the split bit",
    ),
    BodySchema(
        "event-copy", "event", types=("EventRecord",),
        doc="out-of-tree event copy (recent-download grace, bridges)",
    ),
    BodySchema(
        "report", "event", types=("EventRecord",),
        doc="§4.5 upward event report toward the part's top",
    ),
    BodySchema(
        "report-ack", "pointer_list", types=("[Pointer]",),
        doc="report acknowledgement carrying current top pointers",
    ),
    # maintenance (§4.4/§4.5 top-node exchange and part bridging)
    BodySchema("get-topnodes", "none", doc="ask a peer for its top list"),
    BodySchema(
        "topnodes", "pointer_list", types=("[Pointer]",),
        doc="answer to get-topnodes: the sender's top pointers",
    ),
    BodySchema(
        "bridge-subscribe", "tuple",
        fields=("pointer", "is_top"),
        types=("Pointer", "bool"),
        doc="§8 part-merge bridge subscription",
    ),
)

#: Every kind the wire knows, in sorted order (mirrors ``codec.MESSAGE_KINDS``).
MESSAGE_KINDS: Tuple[str, ...] = tuple(sorted(BODY_SCHEMAS))


def payload_schema(kind: str) -> BodySchema:
    """The schema for ``kind``; raises ``KeyError`` for unknown kinds."""
    return BODY_SCHEMAS[kind]
