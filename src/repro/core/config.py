"""Protocol configuration.

All tunables the paper specifies (and the knobs our ablations sweep) live
in one frozen dataclass so that an experiment's parameterization is a
single value that can be logged and compared.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Tuple

from repro.core.analytic import RAISE_FRACTION
from repro.core.errors import ConfigError

#: A range: what the error says, and the test (a comparison, which NaN fails).
_Range = Tuple[str, Callable[[float], bool]]

_POSITIVE: _Range = ("positive", lambda v: v > 0)
_NON_NEGATIVE: _Range = (">= 0", lambda v: v >= 0)
_AT_LEAST_ONE: _Range = (">= 1", lambda v: v >= 1)

#: Each numeric field's range.
_RANGES: Dict[str, _Range] = {
    "id_bits": ("in [1, 256]", lambda v: 1 <= v <= 256),
    "top_list_size": _AT_LEAST_ONE,
    "probe_interval": _POSITIVE,
    "probe_timeout": _POSITIVE,
    "probe_misses_to_fail": _AT_LEAST_ONE,
    "event_message_bits": _AT_LEAST_ONE,
    "heartbeat_bits": _AT_LEAST_ONE,
    "ack_bits": _AT_LEAST_ONE,
    "pointer_bits": _AT_LEAST_ONE,
    "multicast_processing_delay": _NON_NEGATIVE,
    "multicast_attempts": _AT_LEAST_ONE,
    "multicast_ack_timeout": _POSITIVE,
    "refresh_multiple": _POSITIVE,
    "expiry_multiple": _POSITIVE,
    "level_check_interval": _POSITIVE,
    "raise_fraction": ("in (0, 1)", lambda v: 0 < v < 1),
    "report_timeout": _POSITIVE,
    "warmup_extra_levels": _NON_NEGATIVE,
    "download_grace": _NON_NEGATIVE,
    "join_retry_attempts": _NON_NEGATIVE,
    "join_retry_backoff": _AT_LEAST_ONE,
    "quarantine_strikes": _AT_LEAST_ONE,
    "join_pow_bits": ("in [0, 32]", lambda v: 0 <= v <= 32),
    "join_pow_hash_rate": _POSITIVE,
    "join_throttle_interval": _NON_NEGATIVE,
    "claim_audit_interval": _NON_NEGATIVE,
}

_KIND_TEXT = {"int": "an int", "float": "an int or a float"}


@dataclass(frozen=True)
class ProtocolConfig:
    """PeerWindow parameters.

    Attributes
    ----------
    id_bits:
        NodeId width.  The paper uses 128; unit tests use small widths so
        worked examples (figure 1 uses 4-bit ids) stay legible.
    top_list_size:
        ``t``, the top-node list length.  Paper: *"Commonly we set t = 8."*
    probe_interval:
        Seconds between successor heartbeats in the failure-detection ring
        (§4.1).  The introduction's cost discussion assumes 30 s probes.
    probe_timeout:
        Seconds to wait for a probe ack before counting a miss.
    probe_misses_to_fail:
        Consecutive probe misses that declare the successor dead.
    event_message_bits / heartbeat_bits / ack_bits / pointer_bits:
        Wire sizes; §5.1 sets event messages to 1,000 bits, the intro uses
        500-bit heartbeats.
    multicast_processing_delay:
        §5.1: *"every medium node delays the message for 1 second that is
        spent on receiving, calculating and sending."*
    multicast_attempts:
        §4.2: *"When a message gets no response after three continuous
        attempts, the corresponding pointer will be removed ..."*
    multicast_ack_timeout:
        Seconds to wait for each multicast ack attempt.
    refresh_multiple / expiry_multiple:
        §4.6: refresh own state every ``2*LT_l``; expire an m-level pointer
        after ``3*LT_m`` without refresh.
    level_check_interval:
        Autonomic controller cadence (seconds).
    raise_fraction:
        Raise the level (grow the list, l -> l-1) when measured cost drops
        below ``raise_fraction * threshold`` (§2's worked example uses 1/2).
    report_timeout:
        Seconds to wait for a report ack before trying another top node.
    warmup_extra_levels:
        §4.3 warm-up: join this many levels weaker than the estimate, then
        raise after the background download.  0 disables warm-up.
    download_grace:
        Seconds after serving a §4.3 peer-list download during which the
        server forwards every event it applies to the requester.  A joiner
        is in nobody's audience until its JOIN multicast lands, so an
        event whose dissemination completes inside that window would
        otherwise be permanently missed (a stale download).  0 disables
        the forwarding (DESIGN.md §8).
    join_retry_attempts:
        How many times a failed §4.3 joining handshake is retried before
        ``join_via`` reports failure.  Each retry restarts the handshake
        from the bootstrap after an exponentially backed-off delay
        (``report_timeout * join_retry_backoff**attempt``); a download
        timeout additionally tries alternate top nodes from the top-node
        list before burning a retry.  0 (the default) keeps the original
        single-shot behavior.
    join_retry_backoff:
        Exponential backoff multiplier between join retries (>= 1).
    obituary_verify:
        Verify-before-believe (DESIGN §16): when True, a LEAVE event about
        a third party the node still holds is confirmed by probing the
        reported-dead node (``probe_misses_to_fail`` probes of
        ``probe_timeout`` each) before it may evict anything.  A reply
        refutes the obituary and strikes the accuser; False (the default)
        keeps the paper's trust-every-message behavior.
    quarantine_strikes:
        Refuted obituaries tolerated from one accuser before its future
        obituaries are dropped unheard (only meaningful with
        ``obituary_verify``; must stay >= 1).
    join_pow_bits:
        SHA-256 proof-of-work admission: leading zero bits a joiner's
        ``sha256("{id:x}:{nonce}")`` digest must show before a get-top is
        served.  Expected cost is ``2**bits`` hash attempts per identity,
        so Sybil floods pay linearly in identities minted.  0 (default)
        disables admission work.
    join_pow_hash_rate:
        Modeled hashes/second a joiner can compute; the solve cost
        ``attempts / hash_rate`` is paid as simulated delay before the
        get-top is sent.
    join_throttle_interval:
        Per-server join-rate throttle: minimum seconds between get-top
        requests one node will serve.  Excess requests are silently
        dropped and the joiner's §4.3 backoff-and-retry absorbs the
        wait.  0 (default) disables throttling.
    claim_audit_interval:
        Claim-auditing cadence (seconds): maintenance periodically
        cross-checks the strongest level claim it holds by downloading
        the claimant's peer list at its claimed level and demoting liars
        whose returned list does not evidence the claimed coverage.
        0 (default) disables auditing.

    Every field is checked at construction: an ``int`` field takes an
    int, a ``float`` field an int or a float, a ``bool`` field a bool, and
    no number may be NaN or outside its range (:data:`_RANGES`).  A
    refusal is a :class:`~repro.core.errors.ConfigError` naming the field.
    """

    id_bits: int = 128
    top_list_size: int = 8
    probe_interval: float = 30.0
    probe_timeout: float = 5.0
    probe_misses_to_fail: int = 1
    event_message_bits: int = 1000
    heartbeat_bits: int = 500
    ack_bits: int = 100
    pointer_bits: int = 500
    multicast_processing_delay: float = 1.0
    multicast_attempts: int = 3
    multicast_ack_timeout: float = 5.0
    refresh_multiple: float = 2.0
    expiry_multiple: float = 3.0
    level_check_interval: float = 60.0
    raise_fraction: float = RAISE_FRACTION
    report_timeout: float = 10.0
    warmup_extra_levels: int = 0
    download_grace: float = 30.0
    join_retry_attempts: int = 0
    join_retry_backoff: float = 2.0
    obituary_verify: bool = False
    quarantine_strikes: int = 3
    join_pow_bits: int = 0
    join_pow_hash_rate: float = 1000.0
    join_throttle_interval: float = 0.0
    claim_audit_interval: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                if not isinstance(value, bool):
                    raise ConfigError(f"{f.name} must be a bool, got {value!r}")
                continue
            kinds = (int,) if f.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{f.name} must be {_KIND_TEXT[f.type]}, got {value!r}")
            text, holds = _RANGES[f.name]
            if not holds(value):
                raise ConfigError(f"{f.name} must be {text}, got {value!r}")
        if not self.expiry_multiple > self.refresh_multiple:
            raise ConfigError(
                "expiry_multiple must exceed refresh_multiple or live "
                "pointers would expire between refreshes"
            )

    def with_(self, **kwargs: Any) -> "ProtocolConfig":
        """A modified copy (convenience wrapper over dataclasses.replace)."""
        return replace(self, **kwargs)

    def describe(self) -> Dict[str, Any]:
        from dataclasses import asdict

        return asdict(self)


#: The configuration used by the paper's common experiment (§5.1).
PAPER_COMMON_CONFIG = ProtocolConfig()
