"""Adaptive secure link-layer codec.

Wire layout (normative, bit-exact), 5 header octets:

    octet 0   group id
    octet 1   destination node id (0xFF = group broadcast)
    octet 2   source node id
    octet 3   bits 7-3 payload length (0..29), bits 2-1 encryption level,
              bit 0 authentication flag
    octet 4   low 8 bits of the 32-bit send counter
    5..       ciphertext (length per octet 3)
    tail      32-bit tag, present iff the authentication bit is set

Addressing costs 3 octets (group + src + dest) against TinySec's 4 while
covering the same 256*256 node space, because a node is identified by
{group, node id} and traffic never leaves its group.

Replay protection: both ends keep a 32-bit counter per (src, dest)
direction, but only the counter's low octet travels. The receiver splices
its expected counter's high 24 bits onto the received octet and, when the
tag does not verify, retries at the next few 256-wraps before rejecting,
which rides out bursts of lost packets. Accepted counters must strictly
increase, so no wire image is ever accepted twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple, Optional

from . import aead
from .addressing import BROADCAST_NODE_ID, NodeAddress
from .keys import KeyRing, SymmetricKey

HEADER_BYTES = 5
MAX_PAYLOAD = 29  # 5-bit field could hold 31; 30 and 31 are reserved-invalid
MAC_BYTES = 4
ADDRESS_OVERHEAD = 3
TINYSEC_ADDRESS_OVERHEAD = 2 + 2  # comparison constant: 2-octet src + dest
COUNTER_BITS = 32
_COUNTER_MASK = (1 << COUNTER_BITS) - 1
_WRAP_MASK = _COUNTER_MASK & ~0xFF  # the counter's high 24 bits
DEFAULT_LOSS_THRESHOLD = 4


class Encryption(IntEnum):
    """2-bit wire codes for the four encryption levels."""

    XOR = 0
    RC5_R4 = 1
    RC5_R8 = 2
    RC5_R12 = 3

    @property
    def rounds(self) -> int:
        return (0, 4, 8, 12)[self]


@dataclass(frozen=True)
class SecurityLevel:
    encryption: Encryption
    auth: bool

    def __str__(self) -> str:
        return f"{self.encryption.name}{'+auth' if self.auth else ''}"


# Every level, indexed by its 3-bit wire code (encryption << 1 | auth). The
# codec and the agent hand out these objects rather than building new ones.
LEVELS = tuple(SecurityLevel(Encryption(code >> 1), bool(code & 1)) for code in range(8))


@dataclass(slots=True)
class CounterState:
    """Last accepted (receive) or last used (send) counter for one direction.

    Slotted: a simulated node holds one per direction it has heard, so a
    large group holds a number of them that grows with its size squared."""

    value: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << COUNTER_BITS:
            raise ValueError("counter must fit 32 bits")


class PacketHeader(NamedTuple):
    group: int
    dest: int
    src: int
    length: int
    level: SecurityLevel
    counter_lsb: int

    def encode(self) -> bytes:
        group, dest, src, length, level, counter_lsb = self
        packed = (length << 3) | (level.encryption << 1) | level.auth
        return bytes((group, dest, src, packed, counter_lsb))

    @classmethod
    def decode(cls, data: bytes) -> "PacketHeader":
        if len(data) < HEADER_BYTES:
            raise FormatError("truncated header")
        packed = data[3]
        # `tuple.__new__` skips the NamedTuple's generated Python `__new__`.
        return tuple.__new__(
            cls, (data[0], data[1], data[2], packed >> 3, LEVELS[packed & 0x7], data[4])
        )


class DecodeError(Exception):
    """Base class for receive-side rejections."""


class FormatError(DecodeError):
    pass


class AuthenticationError(DecodeError):
    pass


class ReplayError(DecodeError):
    pass


class CounterExhaustedError(ValueError):
    """The send counter is at 2**32 - 1: the key must change before the
    direction can send again, or the next packet would reuse a nonce."""


class UnknownDestinationError(ValueError):
    """No key material for the requested destination."""


def wire_size(payload_len: int, auth: bool) -> int:
    return HEADER_BYTES + payload_len + (MAC_BYTES if auth else 0)


# ---------------------------------------------------------------------------
# Key selection. Destination semantics pick the key family:
#   dest 0xFF      group broadcast: session key once one is installed,
#                  otherwise the sender's broadcast key
#   dest == head   member-to-head channel under the sender's node-based key
#                  (the head holds each member's node-based key from setup)
#   otherwise      the pairwise key shared with that neighbor
# ---------------------------------------------------------------------------

def _sender_key(ring: KeyRing, dest: int) -> SymmetricKey:
    # `[0]` and `[1]` of an address are its group and node ids, read without
    # the properties (see `_receiver_key`).
    if dest == BROADCAST_NODE_ID:
        return ring.session if ring.session is not None else ring.broadcast
    owner, head = ring.owner, ring.head
    if dest == owner[1]:
        raise UnknownDestinationError("cannot address a packet to oneself")
    if dest == head[1] and owner != head:
        return ring.node_based
    group = owner[0]
    try:
        return ring.pairwise[group, dest]  # see `_receiver_key` on the tuple
    except KeyError:
        peer = NodeAddress(group, dest)
        raise UnknownDestinationError(f"no pairwise key for {peer}") from None


def _receiver_key(ring: KeyRing, src: int, dest: int) -> SymmetricKey:
    # The rings are keyed by `NodeAddress`, a tuple subclass that hashes and
    # compares equal to the plain `(group, node)` tuple, so the plain tuple
    # finds its entry without building an address per packet. `owner[0]` and
    # `owner[1]` are its group and node ids, read without the properties. A
    # derived ring's peer maps hold its owner's own keys too, so a wire from
    # the owner itself is refused here rather than by a missing entry. The
    # maps are subscripted: a derived ring's map is a `MappingProxyType`,
    # whose `.get` costs far more than a dict's.
    owner = ring.owner
    try:
        if dest == BROADCAST_NODE_ID:
            if ring.session is not None:
                return ring.session
            if src != owner[1]:
                return ring.peer_broadcast[owner[0], src]
        elif dest == owner[1]:
            if owner != ring.head:
                return ring.pairwise[owner[0], src]
            if src != dest:  # not from the owner itself
                return ring.peer_node_based[owner[0], src]
    except KeyError:
        pass
    raise AuthenticationError(f"no key to receive {src} -> {dest}")


def encode(
    level: SecurityLevel,
    keyring: KeyRing,
    counter_state: CounterState,
    dest: int,
    payload: bytes,
) -> bytes:
    """Seal `payload` to `dest` and emit the wire bytes.

    Advances `counter_state` to the counter actually used. The source and
    group fields come from the keyring owner. A counter never wraps: at
    2**32 - 1 this raises CounterExhaustedError and leaves `counter_state`
    as it was, so the caller re-keys instead of reusing an OCB nonce.

    This is `bytes(encode_pending(...))`.
    """
    return bytes(encode_pending(level, keyring, counter_state, dest, payload))


def encode_pending(
    level: SecurityLevel,
    keyring: KeyRing,
    counter_state: CounterState,
    dest: int,
    payload: bytes,
) -> PendingWire:
    """The half of `encode` that runs no cipher: it checks the payload and
    the counter, reserves the counter and builds the `PacketHeader`.
    Returns the wire unsealed; raises as `encode` does."""
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload exceeds {MAX_PAYLOAD} octets")
    key = _sender_key(keyring, dest)
    if counter_state.value == _COUNTER_MASK:
        raise CounterExhaustedError(
            f"send counter to {dest} exhausted; re-key before sending"
        )
    counter = counter_state.value + 1
    counter_state.value = counter
    group, src = keyring.owner
    # `tuple.__new__` skips the NamedTuple's generated Python `__new__`.
    header = tuple.__new__(
        PacketHeader, (group, dest, src, len(payload), level, counter & 0xFF)
    )
    return PendingWire(key.data, counter, header, payload)


@dataclass(eq=False, slots=True)
class PendingWire:
    """A wire whose seal has not run yet: what `encode_pending` returns.

    It carries its `PacketHeader`, whose level names the rounds and the
    tag: `header` is the header its bytes carry, with no seal and no octets
    decoded. `bytes()` reads the wire: the first read packs the header and
    seals, and every read sees the same bytes. Sealing late is exact,
    because a seal is a pure function of its inputs."""

    key: bytes
    counter: int
    header: PacketHeader
    payload: bytes
    _wire: Optional[bytes] = field(default=None, init=False, repr=False)

    def __bytes__(self) -> bytes:
        if self._wire is None:
            level = self.header.level
            aad = self.header.encode()
            ct, mac = aead.seal(
                self.key, level.encryption.rounds, self.counter, aad, self.payload,
                level.auth,
            )
            self._wire = aad + ct + (mac or b"")
        return self._wire


def decode(
    wire: bytes | PendingWire,
    keyring: KeyRing,
    expected: CounterState,
    loss_threshold: int = DEFAULT_LOSS_THRESHOLD,
) -> bytes:
    """Verify and decrypt one wire packet, advancing `expected` on success.

    The candidate counters are tried in turn. The first is the expected
    counter's high 24 bits joined with the received low octet. A tagged wire
    has `loss_threshold + 1` candidates, each one 256-wrap beyond the last
    (mod 2**32), and the first whose tag verifies answers. An untagged wire
    has nothing to verify a candidate with, so it has its one reconstructed
    counter, and that candidate is taken on faith: its freshness is counter
    monotonicity alone. The candidates go to one `aead.open_` call, which
    does the wire's own work once and pays only the cipher for each further
    candidate. An answer whose counter does not advance `expected` is a
    replay. Raises FormatError, AuthenticationError, or ReplayError;
    `expected` is untouched on any rejection.

    A `bytes` wire's header is parsed and checked against the reserved
    lengths and the wire's size. A `PendingWire` carries its header and is
    its own seal. When the receive key is its key and the first candidate
    is its counter, as for every honest wire sent with no loss since the
    last accepted one, its payload answers before the open, with the same
    replay check, message and update of `expected`. This is exact, because
    OCB is invertible: an open at the true key and counter always verifies
    and returns the plaintext. Any other pending wire is sealed and opened
    for real, so the outcome and `expected` are those of decoding
    `bytes(wire)`.
    """
    if loss_threshold < 0:
        raise ValueError("loss_threshold must be >= 0")
    pending = isinstance(wire, PendingWire)
    if pending:
        header = wire.header
    else:
        header = PacketHeader.decode(wire)
        if header.length > MAX_PAYLOAD:
            raise FormatError(f"length {header.length} is reserved-invalid")
        if len(wire) != wire_size(header.length, header.level.auth):
            raise FormatError("wire size does not match header")
    if header.group != keyring.owner[0]:  # the owner's group id
        raise AuthenticationError(
            f"packet for group {header.group}, ring owner in {keyring.owner.group_id}"
        )
    key = _receiver_key(keyring, header.src, header.dest).data
    last = expected.value
    base = ((last + 1) & _WRAP_MASK) | header.counter_lsb
    if pending and wire.counter == base and wire.key == key:
        if base <= last:
            raise ReplayError(f"counter {base} not beyond {last}")
        expected.value = base
        return wire.payload
    level = header.level
    # The candidates, each one 256-wrap beyond the last, taken mod 2**32.
    stop = base + ((loss_threshold + 1 if level.auth else 1) << 8)
    candidates = range(base, stop, 256)
    if stop > _COUNTER_MASK + 256:
        candidates = [c & _COUNTER_MASK for c in candidates]
    data = bytes(wire)
    end = HEADER_BYTES + header.length
    answer = aead.open_(
        key, level.encryption.rounds, candidates, data[:HEADER_BYTES],
        data[HEADER_BYTES:end], data[end:], level.auth,
    )
    if answer is None:
        raise AuthenticationError(
            f"tag mismatch after {loss_threshold + 1} counter attempts"
        )
    counter, payload = answer
    if counter <= last:
        raise ReplayError(f"counter {counter} not beyond {last}")
    expected.value = counter
    return payload


def dissect(wire: bytes) -> dict:
    """Parse header fields without any key material (CLI support)."""
    header = PacketHeader.decode(wire)
    info = {
        "group": header.group,
        "dest": header.dest,
        "src": header.src,
        "length": header.length,
        "encryption": header.level.encryption.name,
        "auth": header.level.auth,
        "counter_lsb": header.counter_lsb,
        "wire_octets": len(wire),
        "expected_octets": wire_size(header.length, header.level.auth),
    }
    return info
