"""Node identifiers, bit addressing, and eigenstrings.

A nodeId is a ``bits``-wide unsigned integer, *"commonly the result of
consistent hashing of its public key or IP address"* (§2), so ids are
uniform in the id space.  Bits are addressed **MSB-first**: bit 0 is the
most significant bit, matching the paper's "first l bits" phrasing.

The *eigenstring* of an l-level node is its first l bits as a '0'/'1'
string (§2, figure 1).  Everything in PeerWindow — peer-list membership,
audience sets, the multicast tree, parts — reduces to prefix relations on
these bitstrings, so this module is the semantic bedrock and is tested
(including with hypothesis) more heavily than any other.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.errors import NodeIdError

#: The widest id: ``bits`` is in ``[1, MAX_ID_BITS]``.
MAX_ID_BITS: int = 256


class NodeId:
    """An immutable ``bits``-wide identifier with MSB-first bit access."""

    __slots__ = ("value", "bits")

    def __init__(self, value: int, bits: int = 128):
        if not 1 <= bits <= MAX_ID_BITS:
            raise NodeIdError(f"bits must be in [1, {MAX_ID_BITS}], got {bits}")
        if not 0 <= value < (1 << bits):
            raise NodeIdError(f"value {value} out of range for {bits}-bit id")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name: str, value: object) -> None:  # immutability
        raise AttributeError("NodeId is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_bitstring(cls, s: str) -> "NodeId":
        """Build from a '0'/'1' string; its length sets ``bits``.

        ``NodeId.from_bitstring("1011")`` is node H's id in figure 1.
        """
        if not s or any(c not in "01" for c in s):
            raise NodeIdError(f"not a bitstring: {s!r}")
        return cls(int(s, 2), bits=len(s))

    @classmethod
    def random(cls, rng: np.random.Generator, bits: int = 128) -> "NodeId":
        """A uniformly random id (the consistent-hash assumption)."""
        value = 0
        remaining = bits
        while remaining > 0:
            chunk = min(remaining, 32)
            value = (value << chunk) | int(rng.integers(0, 1 << chunk))
            remaining -= chunk
        return cls(value, bits)

    @classmethod
    def hash_of(cls, data: bytes, bits: int = 128) -> "NodeId":
        """Consistent hash of an address / public key (§2)."""
        digest = hashlib.sha256(data).digest()
        value = int.from_bytes(digest, "big") >> (256 - bits)
        return cls(value, bits)

    # -- bit access -------------------------------------------------------

    def bit(self, i: int) -> int:
        """Bit ``i`` (0 = most significant)."""
        if not 0 <= i < self.bits:
            raise NodeIdError(f"bit index {i} out of range for {self.bits}-bit id")
        return (self.value >> (self.bits - 1 - i)) & 1

    def prefix_int(self, length: int) -> int:
        """The first ``length`` bits as an integer (0 for length 0)."""
        if not 0 <= length <= self.bits:
            raise NodeIdError(f"prefix length {length} out of range")
        if length == 0:
            return 0
        return self.value >> (self.bits - length)

    def prefix_bits(self, length: int) -> str:
        """The first ``length`` bits as a '0'/'1' string."""
        if length == 0:
            return ""
        return format(self.prefix_int(length), f"0{length}b")

    def bitstring(self) -> str:
        return format(self.value, f"0{self.bits}b")

    def flip_bit(self, i: int) -> "NodeId":
        """A copy with bit ``i`` flipped (test-scenario construction)."""
        if not 0 <= i < self.bits:
            raise NodeIdError(f"bit index {i} out of range")
        return NodeId(self.value ^ (1 << (self.bits - 1 - i)), self.bits)

    def shares_prefix(self, other: "NodeId", length: int) -> bool:
        """Whether the first ``length`` bits agree (ids must be same width)."""
        if other.bits != self.bits:
            raise NodeIdError("cannot compare ids of different widths")
        return self.prefix_int(length) == other.prefix_int(length)

    def common_prefix_len(self, other: "NodeId") -> int:
        """Length of the longest common prefix with ``other``."""
        if other.bits != self.bits:
            raise NodeIdError("cannot compare ids of different widths")
        diff = self.value ^ other.value
        if diff == 0:
            return self.bits
        return self.bits - diff.bit_length()

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NodeId)
            and self.value == other.value
            and self.bits == other.bits
        )

    def __lt__(self, other: "NodeId") -> bool:
        if not isinstance(other, NodeId) or other.bits != self.bits:
            raise NodeIdError("ordering requires same-width NodeIds")
        return self.value < other.value

    def __le__(self, other: "NodeId") -> bool:
        return self == other or self < other

    def __hash__(self) -> int:
        return hash((self.value, self.bits))

    def __repr__(self) -> str:
        if self.bits <= 16:
            return f"NodeId({self.bitstring()!r})"
        return f"NodeId(0x{self.value:0{self.bits // 4}x})"


_new = object.__new__
#: The slots' own setters: ``NodeId.__setattr__`` refuses every write.
_set_value = NodeId.value.__set__
_set_bits = NodeId.bits.__set__


def node_id_from_row(value: int, bits: int) -> NodeId:
    """An id from fields a wire row check already validated — ``bits`` in
    ``[1, MAX_ID_BITS]``, ``0 <= value < 2**bits``: no second range check."""
    node_id = _new(NodeId)
    _set_value(node_id, value)
    _set_bits(node_id, bits)
    return node_id


def eigenstring(node_id: NodeId, level: int) -> str:
    """The eigenstring of a node: its first ``level`` id bits (§2).

    Level-0 nodes have the blank eigenstring.
    """
    if level < 0:
        raise NodeIdError("level must be >= 0")
    if level > node_id.bits:
        raise NodeIdError(f"level {level} exceeds id width {node_id.bits}")
    return node_id.prefix_bits(level)
