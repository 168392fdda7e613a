import hashlib
import hmac
import pathlib
import random
from dataclasses import replace

from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from wsnsec import keys
from wsnsec.addressing import NodeAddress
from wsnsec.keys import (
    KeyRing,
    SymmetricKey,
    derive_group_keyrings,
    derive_keyring,
    derive_session_key,
    hmac_sha256,
    pairwise_key,
    prf,
    rekey_group,
)

VECTORS = pathlib.Path(__file__).parent / "vectors" / "key_vectors.txt"


def hand_prf(key: bytes, msg: bytes) -> bytes:
    """The derivation function written out longhand, independent of the
    package's encoding helpers."""
    return hmac.new(key, msg, hashlib.sha256).digest()[:10]


def addr_bytes(a: NodeAddress) -> bytes:
    return bytes((a.group_id, a.node_id))


def held_keys(ring):
    """Every key the ring holds, in any attribute, alone or in a map."""
    return [
        key
        for value in vars(ring).values()
        for key in (value.values() if isinstance(value, Mapping) else (value,))
        if isinstance(key, SymmetricKey)
    ]


class TestSymmetricKey:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"short")
        assert len(SymmetricKey(bytes(10)).data) == 10

    def test_equality_and_hex(self):
        k1 = SymmetricKey.from_hex("00112233445566778899")
        k2 = SymmetricKey(bytes.fromhex("00112233445566778899"))
        assert k1 == k2
        assert k1.hex() == "00112233445566778899"
        assert k1 != SymmetricKey(bytes(10))


class TestHmacSha256:
    # RFC 4231 section 4; cases 6 and 7 use keys longer than one block.
    RFC4231 = [
        (b"\x0b" * 20, b"Hi There",
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
        (b"Jefe", b"what do ya want for nothing?",
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
        (b"\xaa" * 20, b"\xdd" * 50,
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
        (bytes(range(1, 26)), b"\xcd" * 50,
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    ]

    @pytest.mark.parametrize("key, message, expect", RFC4231)
    def test_rfc4231(self, key, message, expect):
        assert hmac_sha256(key, message).hex() == expect

    def test_rfc4231_truncated(self):
        digest = hmac_sha256(b"\x0c" * 20, b"Test With Truncation")
        assert digest[:16].hex() == "a3b6167473100ee06e0c796c2955552b"

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64), st.binary(max_size=200))
    def test_matches_stdlib(self, key, message):
        assert hmac_sha256(key, message) == hmac.digest(key, message, "sha256")

    def test_rejects_key_over_one_block(self):
        with pytest.raises(ValueError):
            hmac_sha256(bytes(65), b"m")
        assert hmac_sha256(bytes(64), b"m") == hmac.digest(bytes(64), b"m", "sha256")


class TestPrf:
    def test_deterministic(self):
        k = SymmetricKey(bytes(range(10)))
        assert prf(k, b"abc") == prf(k, b"abc")

    def test_distinct_messages_and_keys(self):
        k1 = SymmetricKey(bytes(range(10)))
        k2 = SymmetricKey(bytes(range(1, 11)))
        assert prf(k1, b"m1") != prf(k1, b"m2")
        assert prf(k1, b"m") != prf(k2, b"m")

    def test_matches_hand_oracle(self):
        k = SymmetricKey(bytes.fromhex("00112233445566778899"))
        assert prf(k, b"\x01\x04\x02\x04\x01").data == hand_prf(k.data, b"\x01\x04\x02\x04\x01")


def parse_vectors():
    out = {"nb": {}, "bc": {}, "pw": {}}
    master = head = session = None
    for line in VECTORS.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "master":
            master = SymmetricKey.from_hex(parts[1])
        elif parts[0] == "head":
            head = NodeAddress.parse(parts[1])
        elif parts[0] in ("nb", "bc"):
            out[parts[0]][NodeAddress.parse(parts[1])] = parts[2]
        elif parts[0] == "pw":
            pair = frozenset((NodeAddress.parse(parts[1]), NodeAddress.parse(parts[2])))
            out["pw"][pair] = parts[3]
        elif parts[0] == "session":
            session = (int(parts[1]), NodeAddress.parse(parts[2]), parts[3])
    return master, head, out, session


class TestDerivation:
    def test_vector_file_three_node_group(self):
        master, head, vectors, session = parse_vectors()
        addrs = sorted(vectors["nb"])
        for owner in addrs:
            ring = derive_keyring(master, owner, head, [a for a in addrs if a != owner])
            assert ring.node_based.hex() == vectors["nb"][owner]
            assert ring.broadcast.hex() == vectors["bc"][owner]
            for peer, key in ring.pairwise.items():
                assert key.hex() == vectors["pw"][frozenset((owner, peer))]
        gid, bs, expect = session
        assert derive_session_key(master, gid, bs).hex() == expect

    def test_vector_file_matches_hand_oracle(self):
        # Recompute every pinned value from the raw formulas.
        master, head, vectors, session = parse_vectors()
        for addr, expect in vectors["nb"].items():
            assert hand_prf(master.data, b"\x01" + addr_bytes(addr) + addr_bytes(head)).hex() == expect
        for pair, expect in vectors["pw"].items():
            lo, hi = sorted(pair)
            assert hand_prf(master.data, b"\x02" + addr_bytes(lo) + addr_bytes(hi)).hex() == expect
        for addr, expect in vectors["bc"].items():
            assert hand_prf(master.data, b"\x03" + addr_bytes(addr)).hex() == expect
        gid, bs, expect = session
        assert hand_prf(master.data, b"\x04" + bytes((gid,)) + addr_bytes(bs)).hex() == expect

    def test_pairwise_symmetry_random_pairs(self):
        rnd = random.Random(2024)
        master = SymmetricKey(rnd.randbytes(10))
        for _ in range(1000):
            g = rnd.randrange(256)
            i = NodeAddress(g, rnd.randrange(1, 255))
            j = NodeAddress(g, rnd.randrange(1, 255))
            if i == j:
                continue
            head = NodeAddress(g, rnd.randrange(1, 255))
            ring_i = derive_keyring(master, i, head, [j])
            ring_j = derive_keyring(master, j, head, [i])
            assert ring_i.pairwise[j] == ring_j.pairwise[i]

    def test_master_absent_after_setup(self):
        master = SymmetricKey(bytes(10))
        ring = derive_keyring(master, NodeAddress(1, 2), NodeAddress(1, 1), [NodeAddress(1, 1)])
        held = held_keys(ring)
        assert ring.pairwise[NodeAddress(1, 1)] in held
        assert master not in held

    def test_no_neighbors(self):
        master = SymmetricKey(bytes(10))
        ring = derive_keyring(master, NodeAddress(1, 2), NodeAddress(1, 1), [])
        assert ring.pairwise == {}
        assert ring.node_based is not None and ring.broadcast is not None

    def test_rejects_foreign_group_neighbor(self):
        master = SymmetricKey(bytes(10))
        with pytest.raises(ValueError, match=r"^neighbor 2\.3 outside group 1$"):
            derive_keyring(master, NodeAddress(1, 2), NodeAddress(1, 1), [NodeAddress(2, 3)])
        # The first foreign neighbor in address order is the one named.
        neighbors = [NodeAddress(4, 1), NodeAddress(1, 1), NodeAddress(2, 3)]
        with pytest.raises(ValueError, match=r"^neighbor 2\.3 outside group 1$"):
            derive_keyring(master, NodeAddress(1, 2), NodeAddress(1, 1), neighbors)

    def test_rejects_self_neighbor(self):
        master = SymmetricKey(bytes(10))
        with pytest.raises(ValueError, match=r"^a node is not its own neighbor$"):
            derive_keyring(master, NodeAddress(1, 2), NodeAddress(1, 1), [NodeAddress(1, 2)])
        # Checked before the neighbors' groups.
        with pytest.raises(ValueError, match=r"^a node is not its own neighbor$"):
            derive_keyring(
                master, NodeAddress(1, 2), NodeAddress(1, 1), [NodeAddress(2, 3), NodeAddress(1, 2)]
            )

    def test_duplicates_collapse_and_order_is_free(self):
        master = SymmetricKey(bytes(range(10)))
        owner, head = NodeAddress(3, 4), NodeAddress(3, 1)
        neighbors = [NodeAddress(3, 9), head, NodeAddress(3, 2)]
        ring = derive_keyring(master, owner, head, neighbors)
        assert list(ring.pairwise) == sorted(neighbors)
        assert derive_keyring(master, owner, head, sorted(neighbors)) == ring
        assert derive_keyring(master, owner, head, [*neighbors, *reversed(neighbors)]) == ring

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_prf_called_3n_plus_2_times(self, monkeypatch, n):
        """The owner's two keys, then per neighbor its two keys and the
        pair's: no key is derived twice."""
        calls = []

        def recording(key, message):
            calls.append(message)
            return prf(key, message)

        monkeypatch.setattr(keys, "prf", recording)
        neighbors = [NodeAddress(2, i) for i in range(1, n + 1)]
        derive_keyring(SymmetricKey(bytes(10)), NodeAddress(2, 9), NodeAddress(2, 1),
                       neighbors)
        assert len(calls) == len(set(calls)) == 3 * n + 2

    def test_ring_is_the_group_ring_with_pairwise_keys(self):
        """One ring shape: a node's ring is its ring from the derivation of
        the group it and its neighbors make, with a pairwise key for each
        neighbor. Its peer maps are read-only and hold the owner's own keys."""
        master = SymmetricKey(bytes(range(10, 20)))
        owner, head = NodeAddress(6, 7), NodeAddress(6, 40)
        neighbors = [head, NodeAddress(6, 3), NodeAddress(6, 12)]
        ring = derive_keyring(master, owner, head, neighbors)
        (group,) = [
            r for r in derive_group_keyrings(master, head, [owner, *neighbors])
            if r.owner == owner
        ]
        group.pairwise.update((n, pairwise_key(master, owner, n)) for n in sorted(neighbors))
        assert ring == group
        for peers, own in ((ring.peer_broadcast, ring.broadcast),
                           (ring.peer_node_based, ring.node_based)):
            assert sorted(peers) == sorted([owner, *neighbors])
            assert peers[owner] is own
            with pytest.raises(TypeError):
                peers[owner] = own

    def test_key_lengths_uniform(self):
        master = SymmetricKey(bytes(range(10)))
        ring = derive_keyring(
            master, NodeAddress(9, 9), NodeAddress(9, 1), [NodeAddress(9, 1), NodeAddress(9, 5)]
        )
        everything = [ring.node_based, ring.broadcast, *ring.pairwise.values(),
                      *ring.peer_broadcast.values(), *ring.peer_node_based.values()]
        assert all(len(k.data) == 10 for k in everything)

    def test_domain_separation(self):
        # Same master, overlapping address bytes, all four formulas distinct.
        master, head, vectors, session = parse_vectors()
        pinned = set(vectors["nb"].values()) | set(vectors["bc"].values()) | set(
            vectors["pw"].values()
        ) | {session[2]}
        assert len(pinned) == len(vectors["nb"]) + len(vectors["bc"]) + len(vectors["pw"]) + 1

    def test_session_key_differs_per_group(self):
        master = SymmetricKey(bytes(range(10)))
        bs = NodeAddress(0, 0)
        assert derive_session_key(master, 1, bs) != derive_session_key(master, 2, bs)
        assert derive_session_key(master, 1, bs) == derive_session_key(master, 1, bs)

    def test_session_key_group_range(self):
        master = SymmetricKey(bytes(range(10)))
        bs = NodeAddress(0, 0)
        assert derive_session_key(master, 0, bs) != derive_session_key(master, 0xFF, bs)
        for gid in (-1, 0x100):
            with pytest.raises(ValueError, match="group id out of 8-bit range"):
                derive_session_key(master, gid, bs)


def check_group_rings(rings, direct):
    """The contract of one group's rings fresh from `derive_group_keyrings`,
    against `direct`, the `derive_keyring` ring of each owner. A ring equals
    its direct ring with no pairwise keys. The group shares one read-only
    map per family, and each ring owns its `pairwise` dict."""
    for ring in rings:
        # Pairwise keys are the caller's to derive on first use.
        assert ring.pairwise == {}
        assert ring == replace(direct[ring.owner], pairwise={})
        assert ring.peer_broadcast[ring.owner] is ring.broadcast
        assert ring.peer_node_based[ring.owner] is ring.node_based
    for attr in ("peer_broadcast", "peer_node_based"):
        assert len({id(getattr(r, attr)) for r in rings}) == 1
        shared = getattr(rings[0], attr)
        with pytest.raises(TypeError):
            shared[rings[0].owner] = rings[0].broadcast
        with pytest.raises(TypeError):
            del shared[rings[0].owner]
    assert len({id(r.pairwise) for r in rings}) == len(rings)


class TestGroupDerivation:
    @pytest.mark.parametrize("node_ids", [(7, 3, 12, 40), (9, 4), (5,)])
    def test_rings_equal_per_node_derivation(self, node_ids):
        master = SymmetricKey(bytes(range(10, 20)))
        members = [NodeAddress(6, n) for n in node_ids]
        head = members[-1]  # neither the first given nor the lowest address
        rings = derive_group_keyrings(master, head, members)
        assert [r.owner for r in rings] == sorted(members)
        direct = {
            m: derive_keyring(master, m, head, [o for o in members if o != m])
            for m in members
        }
        check_group_rings(rings, direct)
        for ring in rings:
            for peer, key in direct[ring.owner].pairwise.items():
                assert pairwise_key(master, ring.owner, peer) == key
                assert pairwise_key(master, peer, ring.owner) == key

    def test_prf_called_once_per_key(self, monkeypatch):
        calls = []

        def recording(key, message):
            calls.append(message)
            return prf(key, message)

        monkeypatch.setattr(keys, "prf", recording)
        members = [NodeAddress(2, n) for n in range(1, 6)]
        derive_group_keyrings(SymmetricKey(bytes(10)), members[0], members)
        assert len(calls) == len(set(calls)) == 2 * 5

    def test_no_members(self):
        assert derive_group_keyrings(SymmetricKey(bytes(10)), NodeAddress(1, 1), []) == []

    def test_rejects_duplicate_member(self):
        members = [NodeAddress(1, 1), NodeAddress(1, 2), NodeAddress(1, 1)]
        with pytest.raises(ValueError):
            derive_group_keyrings(SymmetricKey(bytes(10)), members[0], members)

    def test_rejects_foreign_group_member(self):
        members = [NodeAddress(1, 1), NodeAddress(1, 2), NodeAddress(2, 3)]
        with pytest.raises(ValueError):
            derive_group_keyrings(SymmetricKey(bytes(10)), members[0], members)


class TestCaptureContainment:
    def test_ring_contents_cannot_rederive_foreign_keys(self):
        """Brute re-derivation: applying the PRF with every key a captured
        ring holds, over every plausible encoding, never reproduces another
        node's keys. All derivations need the (deleted) master."""
        master = SymmetricKey(bytes.fromhex("99887766554433221100"))
        g = 6
        a, b, c = NodeAddress(g, 1), NodeAddress(g, 2), NodeAddress(g, 3)
        ring_a = derive_keyring(master, a, a, [b, c])
        ring_b = derive_keyring(master, b, a, [a, c])
        ring_c = derive_keyring(master, c, a, [a, b])

        captured = [ring_a.node_based, ring_a.broadcast, *ring_a.pairwise.values(),
                    *ring_a.peer_broadcast.values(), *ring_a.peer_node_based.values()]
        # Keys a capture of node A must NOT yield: the B<->C pairwise key
        # and keys of nodes outside A's neighborhood.
        d = NodeAddress(g, 9)
        ring_d = derive_keyring(master, d, a, [])
        targets = {ring_b.pairwise[c].data, ring_d.node_based.data, ring_d.broadcast.data}

        messages = []
        for tag in (b"\x01", b"\x02", b"\x03", b"\x04"):
            for x in (a, b, c, d):
                messages.append(tag + addr_bytes(x))
                for y in (a, b, c, d):
                    messages.append(tag + addr_bytes(x) + addr_bytes(y))
        derived = {prf(k, m).data for k in captured for m in messages}
        assert not derived & targets


class TestRekey:
    def test_threshold_filter(self):
        ring = _head_ring()
        k1 = SymmetricKey(b"\x42" * 10)
        trust = {NodeAddress(1, 2): 0.9, NodeAddress(1, 3): 0.2}
        assert rekey_group(ring, trust, 0.5, k1) == {NodeAddress(1, 2)}
        assert ring.session == k1

    def test_zero_threshold_includes_all(self):
        ring = _head_ring()
        trust = {NodeAddress(1, 2): 0.0, NodeAddress(1, 3): 0.9}
        assert rekey_group(ring, trust, 0.0, SymmetricKey(bytes(10))) == set(trust)

    def test_threshold_range(self):
        ring = _head_ring()
        with pytest.raises(ValueError):
            rekey_group(ring, {}, 1.0, SymmetricKey(bytes(10)))


def _head_ring() -> KeyRing:
    master = SymmetricKey(bytes(range(10)))
    return derive_keyring(
        master, NodeAddress(1, 1), NodeAddress(1, 1), [NodeAddress(1, 2), NodeAddress(1, 3)]
    )
