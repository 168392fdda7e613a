"""Two-octet node addressing: an 8-bit group id plus an 8-bit node id."""

from __future__ import annotations

from operator import itemgetter

# Total address space: 256 groups x 256 nodes.
GROUP_BITS = 8
NODE_BITS = 8
ADDRESS_SPACE = (1 << GROUP_BITS) * (1 << NODE_BITS)

# Reserved node ids within a group.
BASE_STATION_NODE_ID = 0x00
BROADCAST_NODE_ID = 0xFF


class NodeAddress(tuple):
    """A {group id, node id} pair. Orders lexicographically on (group, node).

    A validated 2-tuple, so hashing, equality and ordering run in C. Its hash
    is ``hash((group_id, node_id))``, and it compares equal to that plain
    tuple.
    """

    __slots__ = ()

    group_id = property(itemgetter(0), doc="8-bit group id.")
    node_id = property(itemgetter(1), doc="8-bit node id within the group.")

    def __new__(cls, group_id: int, node_id: int) -> "NodeAddress":
        if not 0 <= group_id <= 0xFF:
            raise ValueError(f"group_id out of 8-bit range: {group_id}")
        if not 0 <= node_id <= 0xFF:
            raise ValueError(f"node_id out of 8-bit range: {node_id}")
        return tuple.__new__(cls, (group_id, node_id))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def encode(self) -> bytes:
        """Canonical 2-octet wire encoding: group octet then node octet."""
        return bytes(self)

    @classmethod
    def decode(cls, data: bytes) -> "NodeAddress":
        if len(data) != 2:
            raise ValueError("address encoding is exactly 2 octets")
        return cls(data[0], data[1])

    @classmethod
    def parse(cls, text: str) -> "NodeAddress":
        """Parse the "G.N" notation used by the CLI and config files."""
        try:
            group, node = text.split(".")
            return cls(int(group), int(node))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad address {text!r}, expected 'group.node'") from exc

    def __repr__(self) -> str:
        return f"NodeAddress(group_id={self[0]!r}, node_id={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}.{self[1]}"
