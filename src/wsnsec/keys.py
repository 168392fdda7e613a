"""Symmetric key derivation and session re-keying.

Every key in the system is 80 bits and is derived from a pre-deployment
master key with a keyed PRF (HMAC-SHA256 truncated to 10 octets). Three key
families exist per node:

* node-based key, binding the node to its group head,
* pairwise keys, one per neighbor, identical on both ends,
* broadcast key, protecting the node's own group broadcasts.

A node also derives the broadcast and node-based keys of its neighbors while
the master key is still present (neighbor ids are exchanged during
deployment), so later head elections need no re-derivation. The master key
itself is deleted the moment derivation finishes: compromising a deployed
node exposes one-hop keys only, never the derivation root.

`derive_group_keyrings` is the one derivation of node-based and broadcast
keys: it derives a group's rings in one pass, each key once, and each family
of peer keys is one read-only map shared by the whole group, holding every
member's entry, the owner's own included. That entry is the owner's own key,
so no ring gains key material. The group's rings start with no pairwise keys.
`derive_keyring` takes the owner's ring from the group of the owner and its
neighbors and adds a pairwise key for every neighbor. The simulator, which
plays the safe base station and keeps the master, instead derives a pair's
key with `pairwise_key` on the pair's first unicast and stores it in both
rings.

Byte encodings are normative and bit-exact. Each derivation is prefixed with
a 1-octet domain-separation tag so no two formulas can collide:

    node-based   0x01 || node(2) || head(2)
    pairwise     0x02 || min(i,j)(2) || max(i,j)(2)
    broadcast    0x03 || node(2)
    session      0x04 || group(1) || base_station(2)

Addresses encode as 2 octets (group, node); a bare group id as 1 octet.

HMAC-SHA256 runs from each key's inner and outer pad states, hashed once
per key and copied per message, as RFC 2104 section 4 allows.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .addressing import NodeAddress

KEY_BYTES = 10

TAG_NODE_BASED = b"\x01"
TAG_PAIRWISE = b"\x02"
TAG_BROADCAST = b"\x03"
TAG_SESSION = b"\x04"


class SymmetricKey:
    """An 80-bit key. Equality is constant time.

    `data`, the key's octets, is a plain slot, which the codec reads per
    packet: on CPython 3.11 a property read costs 52 ns against 9 ns for
    the slot. Never rebind it: the key hashes by it."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        if len(data) != KEY_BYTES:
            raise ValueError(f"key must be {KEY_BYTES} octets, got {len(data)}")
        self.data = bytes(data)

    @classmethod
    def _unchecked(cls, data: bytes) -> "SymmetricKey":
        """Wrap `data`, already `KEY_BYTES` immutable octets, without checks."""
        key = object.__new__(cls)
        key.data = data
        return key

    @classmethod
    def from_hex(cls, text: str) -> "SymmetricKey":
        return cls(bytes.fromhex(text))

    def hex(self) -> str:
        return self.data.hex()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricKey):
            return NotImplemented
        return hmac.compare_digest(self.data, other.data)

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"SymmetricKey({self.data.hex()})"


_SHA256_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


# Room for every key one run uses. Three frames of a 254-member group use
# 261: the zero key and the master, 253 node-based, 4 broadcast and 2
# pairwise keys.
@lru_cache(maxsize=1024)
def _pads(key: bytes):
    """The SHA-256 states after hashing `key` XOR ipad and `key` XOR opad.

    Shared by every caller: copy a state before updating it.
    """
    if len(key) > _SHA256_BLOCK:
        raise ValueError(f"HMAC key must be at most {_SHA256_BLOCK} octets, got {len(key)}")
    block = key.ljust(_SHA256_BLOCK, b"\0")
    return hashlib.sha256(block.translate(_IPAD)), hashlib.sha256(block.translate(_OPAD))


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 of `message` under a key of at most one block (64 octets)."""
    inner, outer = _pads(key)
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def prf(key: SymmetricKey, message: bytes) -> SymmetricKey:
    """Keyed PRF: HMAC-SHA256 truncated to the key width.

    Deterministic; distinct messages under one key give computationally
    independent outputs. All derivation formulas call through this single
    substitution point, so tests can inject a double.
    """
    return SymmetricKey._unchecked(hmac_sha256(key.data, message)[:KEY_BYTES])


@dataclass
class KeyRing:
    """A node's post-setup key material. It has no field for the master
    key, so no ring carries the master key past setup.

    `pairwise` is the ring's own dict. A derived ring's peer maps are shared
    read-only by every ring of its group and include the owner's own entry;
    a ring read from a file has plain dicts.
    """

    owner: NodeAddress
    head: NodeAddress
    node_based: SymmetricKey
    broadcast: SymmetricKey
    pairwise: dict[NodeAddress, SymmetricKey] = field(default_factory=dict)
    peer_broadcast: Mapping[NodeAddress, SymmetricKey] = field(default_factory=dict)
    peer_node_based: Mapping[NodeAddress, SymmetricKey] = field(default_factory=dict)
    session: Optional[SymmetricKey] = None


def pairwise_key(master: SymmetricKey, a: NodeAddress, b: NodeAddress) -> SymmetricKey:
    """The key `a` and `b` share: the PRF of 0x02 || min || max, so both
    ends derive the same key."""
    x, y = a.encode(), b.encode()
    return prf(master, TAG_PAIRWISE + (x + y if x < y else y + x))


def derive_keyring(
    master: SymmetricKey,
    owner: NodeAddress,
    group_head: NodeAddress,
    neighbors: Iterable[NodeAddress],
) -> KeyRing:
    """Run the deployment-time derivation and drop the master key.

    The ring is the owner's ring from `derive_group_keyrings` over the owner
    and its neighbors, with a pairwise key for every neighbor. So besides
    the owner's own keys it carries the broadcast and node-based keys of
    every neighbor: both are derivable only while the master key exists,
    and they are what lets the node decrypt neighbor broadcasts and, if
    elected head later, member uplinks.
    """
    # Keyed on the 2-octet encoding, which orders as the addresses do
    # (group, then node) and hashes as plain bytes; duplicates collapse.
    unique = {n.encode(): n for n in neighbors}
    if owner.encode() in unique:
        raise ValueError("a node is not its own neighbor")
    peers = [unique[e] for e in sorted(unique)]
    for n in peers:
        if n.group_id != owner.group_id:
            raise ValueError(f"neighbor {n} outside group {owner.group_id}")

    rings = derive_group_keyrings(master, group_head, [owner, *peers])
    ring = next(r for r in rings if r.owner == owner)
    for n in peers:
        ring.pairwise[n] = pairwise_key(master, owner, n)
    # Master key deletion: the returned ring never references it.
    return ring


def derive_group_keyrings(
    master: SymmetricKey,
    group_head: NodeAddress,
    members: Iterable[NodeAddress],
) -> list[KeyRing]:
    """Derive the rings of a single-hop clique in one pass.

    Each ring's `pairwise` dict starts empty: the caller, which keeps the
    master, adds a pair's key from `pairwise_key` when the pair needs it.
    Its `peer_broadcast` and `peer_node_based` are one read-only map per
    family for the whole group, holding every member, the owner too, whose
    entries are the owner's own `broadcast` and `node_based` keys. Every key
    is derived once: 2n node-based and broadcast keys. Rings come back in
    address order; the only mutable objects a ring holds are its own, so an
    election or re-key on one leaves the others untouched.
    """
    members = list(members)
    unique = {m.encode(): m for m in members}
    if len(unique) != len(members):
        raise ValueError("duplicate group member: a node is not its own neighbor")
    order = sorted(unique)
    addrs = [unique[e] for e in order]
    for a in addrs:
        if a.group_id != addrs[0].group_id:
            raise ValueError(f"member {a} outside group {addrs[0].group_id}")

    head = group_head.encode()
    broadcast = [prf(master, TAG_BROADCAST + e) for e in order]
    node_based = [prf(master, TAG_NODE_BASED + e + head) for e in order]
    # One read-only map per family for the whole group, the owner's own
    # entry included: set-up stays linear in the group's size.
    peer_broadcast = MappingProxyType(dict(zip(addrs, broadcast)))
    peer_node_based = MappingProxyType(dict(zip(addrs, node_based)))
    return [
        KeyRing(
            owner=owner,
            head=group_head,
            node_based=node_based[i],
            broadcast=broadcast[i],
            peer_broadcast=peer_broadcast,
            peer_node_based=peer_node_based,
        )
        for i, owner in enumerate(addrs)
    ]


def derive_session_key(
    master: SymmetricKey, group_id: int, base_station: NodeAddress
) -> SymmetricKey:
    """Derive the per-session group key a head multicasts to trusted members."""
    if not 0 <= group_id <= 0xFF:
        raise ValueError(f"group id out of 8-bit range: {group_id}")
    return prf(master, TAG_SESSION + bytes((group_id,)) + base_station.encode())


def rekey_group(
    head_ring: KeyRing,
    member_trust: Mapping[NodeAddress, float],
    threshold: float,
    k1: SymmetricKey,
) -> set[NodeAddress]:
    """Select which members receive the new session key.

    Returns every member whose trust reaches `threshold`; the caller delivers
    `k1` to each of them under the head's pairwise key with that member.
    Members below the threshold keep their stale session key and are thereby
    cut off from session traffic. The head installs `k1` as its own session
    key immediately.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    recipients = {n for n, t in member_trust.items() if t >= threshold}
    head_ring.session = k1
    return recipients
