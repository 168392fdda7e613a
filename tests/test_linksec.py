import pathlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from wsnsec import linksec
from wsnsec.addressing import BROADCAST_NODE_ID, NodeAddress
from wsnsec.keys import SymmetricKey, derive_group_keyrings, derive_keyring
from wsnsec.linksec import (
    AuthenticationError,
    CounterState,
    Encryption,
    FormatError,
    PacketHeader,
    ReplayError,
    SecurityLevel,
    UnknownDestinationError,
)

VECTORS = pathlib.Path(__file__).parent / "vectors" / "packet_vectors.txt"
MASTER = SymmetricKey.from_hex("00112233445566778899")
GROUP = 4
HEAD = NodeAddress(GROUP, 1)
SRC = NodeAddress(GROUP, 2)
PEER = NodeAddress(GROUP, 7)
ALL_LEVELS = [
    SecurityLevel(Encryption(e), a) for e in range(4) for a in (True, False)
]


def make_rings():
    ring_head = derive_keyring(MASTER, HEAD, HEAD, [SRC, PEER])
    ring_src = derive_keyring(MASTER, SRC, HEAD, [HEAD, PEER])
    ring_peer = derive_keyring(MASTER, PEER, HEAD, [HEAD, SRC])
    return ring_head, ring_src, ring_peer


class TestWireLayout:
    def test_header_bit_layout_by_hand(self):
        # length 5 into bits 7-3, level 2 into bits 2-1, auth into bit 0:
        # 5<<3 | 2<<1 | 1 = 0x2D
        header = PacketHeader(
            group=4, dest=1, src=2, length=5,
            level=SecurityLevel(Encryption.RC5_R8, True), counter_lsb=0xAB,
        )
        assert header.encode() == bytes((0x04, 0x01, 0x02, 0x2D, 0xAB))
        assert PacketHeader.decode(header.encode()) == header

    def test_wire_size_formula(self):
        _, ring_src, _ = make_rings()
        for level in ALL_LEVELS:
            for n in (0, 1, 10, 29):
                wire = linksec.encode(
                    level, ring_src, CounterState(), HEAD.node_id, bytes(n)
                )
                assert len(wire) == 5 + n + (4 if level.auth else 0)

    def test_addressing_overhead_constants(self):
        assert linksec.ADDRESS_OVERHEAD == 3
        assert linksec.TINYSEC_ADDRESS_OVERHEAD == 4

    def test_pinned_wire_vectors(self):
        _, ring_src, _ = make_rings()
        for line in VECTORS.read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            enc, auth, dest, last, payload_hex, wire_hex = line.split()
            level = SecurityLevel(Encryption(int(enc)), bool(int(auth)))
            payload = b"" if payload_hex == "-" else bytes.fromhex(payload_hex)
            state = CounterState(int(last))
            wire = linksec.encode(level, ring_src, state, int(dest), payload)
            assert wire.hex() == wire_hex


def _vector_rows():
    """(level, dest, counter before, payload, wire) of each pinned vector."""
    for line in VECTORS.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        enc, auth, dest, last, payload_hex, wire_hex = line.split()
        level = SecurityLevel(Encryption(int(enc)), bool(int(auth)))
        payload = b"" if payload_hex == "-" else bytes.fromhex(payload_hex)
        yield level, int(dest), int(last), payload, bytes.fromhex(wire_hex)


class TestSplitEncode:
    @pytest.mark.parametrize("level", ALL_LEVELS, ids=str)
    def test_encode_is_header_then_seal(self, monkeypatch, level):
        """On every vector's inputs at `level`, `encode` is `encode_pending`
        then its bytes. The pending wire carries the wire's header and has
        its size before any seal runs and its bytes after, as does a
        `PendingWire` built from its fields. Where the vector is at `level`
        (every level but RC5_R8 without auth has one), the bytes are the
        pinned ones."""
        seals = []
        real_seal = linksec.aead.seal
        monkeypatch.setattr(
            linksec.aead, "seal", lambda *a: seals.append(a) or real_seal(*a)
        )
        _, ring_src, _ = make_rings()
        pinned = 0
        for vector_level, dest, last, payload, vector in _vector_rows():
            state = CounterState(last)
            pending = linksec.encode_pending(level, ring_src, state, dest, payload)
            assert state.value == pending.counter == last + 1
            assert pending.header.level == level and pending.payload == payload
            args = (pending.key, pending.counter, pending.header, pending.payload)
            del seals[:]
            wire = linksec.encode(level, ring_src, CounterState(last), dest, payload)
            assert len(seals) == 1
            assert len(pending) == len(wire)
            assert pending.header == PacketHeader.decode(wire)
            assert pending.header.encode() == wire[:linksec.HEADER_BYTES]
            assert len(seals) == 1
            assert bytes(linksec.PendingWire(*args)) == bytes(pending) == wire
            assert bytes(pending) is bytes(pending) and pending.header.src == wire[2]
            assert len(seals) == 3
            if vector_level == level:
                assert wire == vector
                pinned += 1
        no_vector = SecurityLevel(Encryption.RC5_R8, False)
        assert pinned > 0 or level == no_vector

    @settings(max_examples=300, deadline=None)
    @given(
        level=st.sampled_from(ALL_LEVELS),
        payload=st.binary(max_size=linksec.MAX_PAYLOAD),
        last=st.one_of(st.integers(0, 600), st.integers((1 << 32) - 600, (1 << 32) - 2)),
        dest=st.sampled_from([HEAD.node_id, PEER.node_id, BROADCAST_NODE_ID]),
    )
    def test_carried_header_is_the_sealed_one(self, level, payload, last, dest):
        """The header a pending wire carries is the one its bytes decode to,
        and its size is its bytes' size: a reader that takes either without
        sealing, as the simulator does, sees what the wire puts on air."""
        _, ring_src, _ = make_rings()
        pending = linksec.encode_pending(level, ring_src, CounterState(last), dest, payload)
        assert len(pending) == len(bytes(pending))
        assert pending.header == PacketHeader.decode(bytes(pending))


class TestRoundTrip:
    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_member_to_head(self, level):
        ring_head, ring_src, _ = make_rings()
        tx, rx = CounterState(), CounterState()
        for i in range(3):
            payload = bytes((i,)) * (i + 3)
            wire = linksec.encode(level, ring_src, tx, HEAD.node_id, payload)
            assert linksec.decode(wire, ring_head, rx) == payload
        assert rx.value == tx.value == 3

    def test_pairwise_and_broadcast(self):
        ring_head, ring_src, ring_peer = make_rings()
        level = SecurityLevel(Encryption.RC5_R4, True)
        wire = linksec.encode(level, ring_src, CounterState(), PEER.node_id, b"pw")
        assert linksec.decode(wire, ring_peer, CounterState()) == b"pw"
        wire = linksec.encode(level, ring_src, CounterState(), BROADCAST_NODE_ID, b"bc")
        assert linksec.decode(wire, ring_head, CounterState()) == b"bc"
        assert linksec.decode(wire, ring_peer, CounterState()) == b"bc"

    def test_session_broadcast_excludes_stale_ring(self):
        ring_head, ring_src, ring_peer = make_rings()
        k1 = SymmetricKey(b"\x31" * 10)
        ring_head.session = k1
        ring_src.session = k1  # peer never got the re-key
        level = SecurityLevel(Encryption.RC5_R12, True)
        wire = linksec.encode(level, ring_head, CounterState(), BROADCAST_NODE_ID, b"s2")
        assert linksec.decode(wire, ring_src, CounterState()) == b"s2"
        with pytest.raises(AuthenticationError):
            linksec.decode(wire, ring_peer, CounterState())


def _own_source_wires():
    """Two wires whose source is the receiving head itself, sealed under
    the head's own keys: a broadcast before any session key, and a wire
    to the head. The second cannot come from `encode`, which refuses to
    address oneself, so it is sealed from a hand-built header."""
    ring = derive_keyring(MASTER, HEAD, HEAD, [SRC, PEER])
    level = SecurityLevel(Encryption.RC5_R4, True)
    broadcast = linksec.encode(level, ring, CounterState(8), BROADCAST_NODE_ID, b"own")
    header = PacketHeader(GROUP, HEAD.node_id, HEAD.node_id, 3, level, 9)
    to_head = bytes(linksec.PendingWire(ring.node_based.data, 9, header, b"own"))
    return broadcast, to_head


class TestOwnSource:
    """A ring refuses wires from its own owner. A derived ring's peer maps
    hold the owner's own keys, under which these wires verify, so only the
    explicit check in `_receiver_key` refuses them."""

    @pytest.mark.parametrize("derive", ["derive_keyring", "derive_group_keyrings"])
    def test_own_source_rejected(self, derive):
        if derive == "derive_keyring":
            ring = derive_keyring(MASTER, HEAD, HEAD, [SRC, PEER])
        else:
            rings = derive_group_keyrings(MASTER, HEAD, [PEER, SRC, HEAD])
            (ring,) = [r for r in rings if r.owner == HEAD]
        assert ring.peer_broadcast[HEAD] == ring.broadcast
        assert ring.peer_node_based[HEAD] == ring.node_based
        assert ring.session is None
        for wire in _own_source_wires():
            expected = CounterState(5)
            with pytest.raises(AuthenticationError):
                linksec.decode(wire, ring, expected)
            assert expected.value == 5


class TestReplayAndRecovery:
    def test_duplicate_wire_rejected(self):
        ring_head, ring_src, _ = make_rings()
        level = SecurityLevel(Encryption.RC5_R8, True)
        wire = linksec.encode(level, ring_src, CounterState(), HEAD.node_id, b"x")
        state = CounterState()
        linksec.decode(wire, ring_head, state)
        before = state.value
        with pytest.raises(ReplayError):
            linksec.decode(wire, ring_head, state)
        assert state.value == before

    def test_older_packet_rejected(self):
        ring_head, ring_src, _ = make_rings()
        level = SecurityLevel(Encryption.RC5_R8, True)
        tx = CounterState()
        first = linksec.encode(level, ring_src, tx, HEAD.node_id, b"1")
        second = linksec.encode(level, ring_src, tx, HEAD.node_id, b"2")
        state = CounterState()
        linksec.decode(second, ring_head, state)
        with pytest.raises((ReplayError, AuthenticationError)):
            linksec.decode(first, ring_head, state)

    def test_counter_jump_recovery(self):
        # Sender races ahead by 300 counts (one full 8-bit wrap plus change);
        # the receiver recovers on an incremented high-24 candidate.
        ring_head, ring_src, _ = make_rings()
        level = SecurityLevel(Encryption.RC5_R8, True)
        tx, rx = CounterState(), CounterState()
        linksec.decode(linksec.encode(level, ring_src, tx, HEAD.node_id, b"a"), ring_head, rx)
        tx.value += 300
        wire = linksec.encode(level, ring_src, tx, HEAD.node_id, b"b")
        assert linksec.decode(wire, ring_head, rx, loss_threshold=2) == b"b"
        assert rx.value == tx.value

    def test_jump_beyond_threshold_rejected(self):
        ring_head, ring_src, _ = make_rings()
        level = SecurityLevel(Encryption.RC5_R8, True)
        tx, rx = CounterState(), CounterState()
        linksec.decode(linksec.encode(level, ring_src, tx, HEAD.node_id, b"a"), ring_head, rx)
        tx.value += 256 * 5  # five wraps, threshold allows two
        wire = linksec.encode(level, ring_src, tx, HEAD.node_id, b"b")
        with pytest.raises(AuthenticationError):
            linksec.decode(wire, ring_head, rx, loss_threshold=2)

    def test_unauthenticated_monotonicity(self):
        ring_head, ring_src, _ = make_rings()
        level = SecurityLevel(Encryption.RC5_R4, False)
        tx, rx = CounterState(), CounterState()
        wire = linksec.encode(level, ring_src, tx, HEAD.node_id, b"q")
        assert linksec.decode(wire, ring_head, rx) == b"q"
        with pytest.raises(ReplayError):
            linksec.decode(wire, ring_head, rx)


    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 3: an untagged wire moves the counter that tagged "
        "traffic relies on",
    )
    def test_keyless_untagged_wire_does_not_move_the_tagged_counter(self):
        ring_head, ring_src, _ = make_rings()
        level = SecurityLevel(Encryption.RC5_R12, True)
        tx, rx = CounterState(), CounterState()
        for i in range(10):
            wire = linksec.encode(level, ring_src, tx, HEAD.node_id, bytes((i,)))
            assert linksec.decode(wire, ring_head, rx) == bytes((i,))
        assert rx.value == 10
        # Made with no key: a header alone, XOR without a tag, counter LSB 255.
        forged = PacketHeader(
            GROUP, HEAD.node_id, SRC.node_id, 0, SecurityLevel(Encryption.XOR, False), 255
        ).encode()
        assert len(forged) == 5
        try:  # rejected, or accepted on a counter of its own
            linksec.decode(forged, ring_head, rx)
        except linksec.DecodeError:
            pass
        assert rx.value == 10
        wire = linksec.encode(level, ring_src, tx, HEAD.node_id, b"next")
        assert linksec.decode(wire, ring_head, rx) == b"next"


def _outcome(wire, ring, last, loss_threshold=linksec.DEFAULT_LOSS_THRESHOLD):
    """(payload or (exception class, message), receive counter afterwards)."""
    state = CounterState(last)
    try:
        got = linksec.decode(wire, ring, state, loss_threshold)
    except linksec.DecodeError as exc:
        got = (type(exc), str(exc))
    return got, state.value


def _seal(level, ring, sent, dest, payload):
    """The pending wire of one `encode_pending` from a send counter at `sent`."""
    return linksec.encode_pending(level, ring, CounterState(sent), dest, payload)


def _decode_cases():
    """name -> (wire, ring, last counter) decodes that cover every outcome.
    Each wire but the forged one is the pending wire that `encode_pending`
    returns; `bytes()` reads what it puts on air."""
    ring_head, ring_src, ring_peer = make_rings()
    r8 = SecurityLevel(Encryption.RC5_R8, True)
    uplink = _seal(r8, ring_src, 0, HEAD.node_id, b"up")
    sealed = bytes(uplink)
    forged = sealed[:-1] + bytes((sealed[-1] ^ 0x01,))
    ahead = _seal(r8, ring_src, 300, HEAD.node_id, b"late")
    bare = SecurityLevel(Encryption.RC5_R4, False)
    untagged = _seal(bare, ring_src, 7, HEAD.node_id, b"plain")
    bcast = _seal(r8, ring_src, 9, BROADCAST_NODE_ID, b"all")
    session_head, session_src, stale_peer = make_rings()
    k1 = SymmetricKey(b"\x31" * 10)
    session_head.session = session_src.session = k1  # the peer missed the re-key
    session = _seal(r8, session_head, 0, BROADCAST_NODE_ID, b"s")
    xor = _seal(SecurityLevel(Encryption.XOR, True), ring_src, 3, BROADCAST_NODE_ID, b"x")
    return {
        "ok": [(uplink, ring_head, 0)],
        "replay": [(uplink, ring_head, 1)],
        "forged_tag": [(forged, ring_head, 0)],
        "wrap_search": [(ahead, ring_head, 0)],
        "untagged": [(untagged, ring_head, 0), (untagged, ring_head, 8)],
        "receivers_at_different_counters": [
            (bcast, ring_head, 0), (bcast, ring_peer, 10), (bcast, ring_peer, 0),
        ],
        "stale_session_key": [(session, session_src, 0), (session, stale_peer, 0)],
        "one_memo_two_wires": [
            (bcast, ring_head, 0), (xor, ring_head, 0), (xor, ring_peer, 0),
            (bcast, ring_peer, 0),
        ],
    }


class TestSplitDecode:
    """`decode` takes a wire's bytes, whose header it parses on every call,
    or its pending wire, which carries its header and is never parsed."""

    @pytest.mark.parametrize("case", sorted(_decode_cases()))
    def test_parsed_once_same_outcome(self, case):
        """The pending wire and its bytes give one outcome and one counter,
        and a header parsed from the bytes is the one the wire carries."""
        for wire, ring, last in _decode_cases()[case]:
            data = bytes(wire)
            if isinstance(wire, linksec.PendingWire):
                assert wire.header == PacketHeader.decode(data)
            assert _outcome(wire, ring, last) == _outcome(data, ring, last)

    def test_cases_cover_every_outcome(self):
        got = {_outcome(*d)[0] for decodes in _decode_cases().values() for d in decodes}
        kinds = {g[0] if isinstance(g, tuple) else bytes for g in got}
        assert kinds == {bytes, AuthenticationError, ReplayError}
        ahead, ring_head, _ = _decode_cases()["wrap_search"][0]
        assert _outcome(ahead, ring_head, 0) == (b"late", 301)

    def test_format_rejects_name_their_cause(self):
        """A bytes wire that is truncated, has a reserved length or does not
        match its header's size is refused before any key is looked up, and
        the receive counter stays."""
        ring_head, ring_src, _ = make_rings()
        wire = linksec.encode(
            SecurityLevel(Encryption.RC5_R8, True), ring_src, CounterState(),
            HEAD.node_id, b"hello",
        )
        reserved = bytes((GROUP, HEAD.node_id, SRC.node_id, (30 << 3) | 0x03, 1))
        cases = [
            (wire[:3], "truncated header"),
            (wire[:4], "truncated header"),
            (reserved + bytes(34), "length 30 is reserved-invalid"),
            (wire[:-1], "wire size does not match header"),
            (wire + b"\x00", "wire size does not match header"),
            (wire[:linksec.HEADER_BYTES], "wire size does not match header"),
        ]
        for bad, message in cases:
            assert _outcome(bad, ring_head, 5) == ((FormatError, message), 5)


@pytest.fixture
def opens(monkeypatch):
    """The counters of every real `aead.open_` call, in order."""
    calls = []
    real_open = linksec.aead.open_
    monkeypatch.setattr(
        linksec.aead, "open_", lambda *a: calls.append(a[2]) or real_open(*a)
    )
    return calls


class TestSealHint:
    """`decode` on a pending wire gives its outcome on the wire's bytes, and
    runs the cipher only for candidates the wire's own seal does not
    answer."""

    R8 = SecurityLevel(Encryption.RC5_R8, True)
    BARE = SecurityLevel(Encryption.RC5_R4, False)

    def test_true_hint_opens_nothing(self, opens):
        ring_head, ring_src, _ = make_rings()
        wire = _seal(self.R8, ring_src, 0, HEAD.node_id, b"up")
        assert _outcome(wire, ring_head, 0) == (b"up", 1)
        assert opens == []

    def test_hint_under_another_key_opens_for_real(self, opens):
        """A member that missed the re-key holds no session key: the wire's
        key is not its key, so it runs every wrap and rejects as before."""
        session_head, _, stale_peer = make_rings()
        session_head.session = SymmetricKey(b"\x31" * 10)
        wire = _seal(self.R8, session_head, 0, BROADCAST_NODE_ID, b"s")
        alone = _outcome(bytes(wire), stale_peer, 0)
        del opens[:]
        assert alone[0][0] is AuthenticationError
        assert _outcome(wire, stale_peer, 0) == alone
        assert len(opens) == linksec.DEFAULT_LOSS_THRESHOLD + 1

    @pytest.mark.parametrize("wraps", range(linksec.DEFAULT_LOSS_THRESHOLD + 1))
    def test_wraps_before_the_sealing_counter_open_for_real(self, opens, wraps):
        """After a loss burst the sealing counter is `wraps` 256-wraps
        ahead of the first candidate: each earlier candidate is a real open."""
        ring_head, ring_src, _ = make_rings()
        wire = _seal(self.R8, ring_src, wraps << 8, HEAD.node_id, b"late")
        assert _outcome(wire, ring_head, 0) == (b"late", (wraps << 8) + 1)
        assert opens == [(w << 8) + 1 for w in range(wraps)]

    @pytest.mark.parametrize("last", [1, 2, 254])
    def test_hinted_replay_rejected_and_counter_kept(self, opens, last):
        """The first candidate is the sealing counter 1, at or below `last`."""
        ring_head, ring_src, _ = make_rings()
        wire = _seal(self.R8, ring_src, 0, HEAD.node_id, b"again")
        got, after = _outcome(wire, ring_head, last)
        assert got[0] is ReplayError and after == last
        assert opens == []
        assert (got, after) == _outcome(bytes(wire), ring_head, last)

    def test_untagged_matching_hint_accepts(self, opens):
        ring_head, ring_src, _ = make_rings()
        wire = _seal(self.BARE, ring_src, 7, HEAD.node_id, b"plain")
        assert _outcome(wire, ring_head, 0) == (b"plain", 8)
        assert opens == []

    def test_untagged_mismatched_hint_opens_for_real(self, opens):
        """Untagged, the single candidate is taken on faith. A pending wire
        sealed 256 ahead of the receiver, or at its counter under another
        key, does not answer it."""
        ring_head, ring_src, _ = make_rings()
        ahead = _seal(self.BARE, ring_src, 256, HEAD.node_id, b"plain")
        mine = _seal(self.BARE, ring_src, 0, HEAD.node_id, b"plain")
        stranger = linksec.PendingWire(bytes(10), mine.counter, mine.header, mine.payload)
        for wire in (ahead, stranger):
            alone = _outcome(bytes(wire), ring_head, 0)
            assert alone == (alone[0], 1) and alone[0] != b"plain"
            del opens[:]
            assert _outcome(wire, ring_head, 0) == alone
            assert opens == [1]

    @settings(max_examples=300, deadline=None)
    @given(
        level=st.sampled_from(ALL_LEVELS),
        payload=st.binary(max_size=linksec.MAX_PAYLOAD),
        sent=st.one_of(
            st.integers(0, 2000),
            st.integers((1 << 32) - 2000, (1 << 32) - 2),
            st.integers(0, (1 << 32) - 2),
        ),
        lost=st.integers(-300, 1500),
        threshold=st.integers(0, 8),
    )
    def test_true_hint_changes_no_outcome(self, level, payload, sent, lost, threshold):
        """Any level and length, a receiver behind by `lost` packets (ahead
        when negative), counters up to 2**32 - 1, a search of 1 to 9 wraps:
        decoding the pending wire gives the outcome of decoding its bytes,
        whether its own seal answers before the search, in it, or not at
        all."""
        ring_head, ring_src, _ = make_rings()
        wire = _seal(level, ring_src, sent, HEAD.node_id, payload)
        last = min(max(sent - lost, 0), (1 << 32) - 1)
        got = _outcome(wire, ring_head, last, threshold)
        assert got == _outcome(bytes(wire), ring_head, last, threshold)


class TestCounterExhaustion:
    def test_last_counter_is_usable(self):
        ring_head, ring_src, _ = make_rings()
        level = SecurityLevel(Encryption.RC5_R8, True)
        tx = CounterState((1 << 32) - 2)
        wire = linksec.encode(level, ring_src, tx, HEAD.node_id, b"z")
        assert tx.value == (1 << 32) - 1
        rx = CounterState((1 << 32) - 2)
        assert linksec.decode(wire, ring_head, rx) == b"z"
        assert rx.value == (1 << 32) - 1

    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_exhausted_counter_raises_and_keeps_state(self, level):
        _, ring_src, _ = make_rings()
        tx = CounterState((1 << 32) - 1)
        with pytest.raises(linksec.CounterExhaustedError):
            linksec.encode(level, ring_src, tx, HEAD.node_id, b"z")
        assert tx.value == (1 << 32) - 1

    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_receiver_at_the_last_counter_accepts_nothing(self, level):
        """A fresh counter after 2**32 - 1 would need a 33rd bit, so every
        wire is stale, with or without a tag, and the state stays."""
        ring_head, ring_src, _ = make_rings()
        wire = linksec.encode(level, ring_src, CounterState(4), HEAD.node_id, b"z")
        rx = CounterState((1 << 32) - 1)
        with pytest.raises(ReplayError):
            linksec.decode(wire, ring_head, rx)
        assert rx.value == (1 << 32) - 1

    def test_counter_state_bounds(self):
        assert CounterState((1 << 32) - 1).value == (1 << 32) - 1
        for value in (-1, 1 << 32):
            with pytest.raises(ValueError):
                CounterState(value)

    def test_counter_state_memory(self):
        """A simulated node holds one receive counter per direction it has
        heard, so a group holds a number that grows with its size squared.
        Slotted, one costs 48.5 traced bytes with its list slot; with a
        `__dict__` it cost 88.9. A memory bound, with no timing bound."""
        n = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            states = [CounterState() for _ in range(n)]
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(states) == n
        assert (after - before) / n < 64

    def test_loss_threshold_bounds(self):
        """A negative threshold is refused; at 0 the in-order candidate is
        still tried, so an in-order packet decodes."""
        ring_head, ring_src, _ = make_rings()
        level = SecurityLevel(Encryption.RC5_R8, True)
        wire = linksec.encode(level, ring_src, CounterState(), HEAD.node_id, b"in order")
        rx = CounterState()
        with pytest.raises(ValueError):
            linksec.decode(wire, ring_head, rx, loss_threshold=-1)
        assert rx.value == 0
        assert linksec.decode(wire, ring_head, rx, loss_threshold=0) == b"in order"
        assert rx.value == 1


class TestTamper:
    def test_every_bit_flip_rejected(self):
        ring_head, ring_src, _ = make_rings()
        level = SecurityLevel(Encryption.RC5_R8, True)
        wire = linksec.encode(level, ring_src, CounterState(), HEAD.node_id, b"payload+10")
        for bit in range(len(wire) * 8):
            bad = bytearray(wire)
            bad[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((AuthenticationError, FormatError, ReplayError)):
                linksec.decode(bytes(bad), ring_head, CounterState())


class TestFormat:
    def test_reserved_lengths_rejected(self):
        ring_head, _, _ = make_rings()
        for length in (30, 31):
            header = bytes((GROUP, HEAD.node_id, SRC.node_id, (length << 3) | 0x03, 1))
            wire = header + bytes(length) + bytes(4)
            with pytest.raises(FormatError):
                linksec.decode(wire, ring_head, CounterState())

    def test_truncated_and_padded_wires_rejected(self):
        ring_head, ring_src, _ = make_rings()
        wire = linksec.encode(
            SecurityLevel(Encryption.RC5_R8, True), ring_src, CounterState(),
            HEAD.node_id, b"hello",
        )
        with pytest.raises(FormatError):
            linksec.decode(wire[:-1], ring_head, CounterState())
        with pytest.raises(FormatError):
            linksec.decode(wire + b"\x00", ring_head, CounterState())
        with pytest.raises(FormatError):
            linksec.decode(wire[:3], ring_head, CounterState())

    def test_oversize_payload_rejected(self):
        _, ring_src, _ = make_rings()
        with pytest.raises(ValueError):
            linksec.encode(
                SecurityLevel(Encryption.XOR, True), ring_src, CounterState(),
                HEAD.node_id, bytes(30),
            )

    def test_unknown_destination(self):
        _, ring_src, _ = make_rings()
        with pytest.raises(UnknownDestinationError):
            linksec.encode(
                SecurityLevel(Encryption.XOR, True), ring_src, CounterState(), 200, b"x"
            )

    def test_own_address_is_no_destination(self):
        _, ring_src, _ = make_rings()
        with pytest.raises(UnknownDestinationError, match="cannot address a packet to oneself"):
            linksec.encode(
                SecurityLevel(Encryption.XOR, True), ring_src, CounterState(), SRC.node_id, b"x"
            )

    def test_dissect_matches_encode(self):
        _, ring_src, _ = make_rings()
        wire = linksec.encode(
            SecurityLevel(Encryption.RC5_R12, False), ring_src, CounterState(41),
            PEER.node_id, b"abcdef",
        )
        info = linksec.dissect(wire)
        assert info == {
            "group": GROUP, "dest": PEER.node_id, "src": SRC.node_id,
            "length": 6, "encryption": "RC5_R12", "auth": False,
            "counter_lsb": 42, "wire_octets": 11, "expected_octets": 11,
        }


def test_randomized_roundtrips_with_synchronized_state():
    rnd = random.Random(31337)
    ring_head, ring_src, _ = make_rings()
    tx = {}
    rx = {}
    for _ in range(500):
        level = SecurityLevel(Encryption(rnd.randrange(4)), rnd.random() < 0.5)
        payload = rnd.randbytes(rnd.randrange(30))
        t = tx.setdefault(level.auth, CounterState())
        r = rx.setdefault(level.auth, CounterState())
        # separate auth/no-auth streams share one direction each
        wire = linksec.encode(level, ring_src, t, HEAD.node_id, payload)
        assert linksec.decode(wire, ring_head, r) == payload
