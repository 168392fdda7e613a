import json
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wsnsec import aead, rc5, sim
from wsnsec.config import config_from_dict

KEY = bytes.fromhex("000102030405060708f0")
ALL_MODES = [(r, a) for r in (0, 4, 8, 12) for a in (True, False)]
BLOCK_MODES = [(r, a) for r in (4, 8, 12) for a in (True, False)]
EDGE_COUNTERS = (0, 1, 255, 256, (1 << 32) - 1)


@pytest.mark.parametrize("rounds,auth", ALL_MODES)
def test_roundtrip_all_lengths(rounds, auth):
    rnd = random.Random(rounds * 10 + auth)
    for n in range(0, 30):
        pt = rnd.randbytes(n)
        aad = rnd.randbytes(5)
        ctr = rnd.randrange(1, 1 << 32)
        ct, tag = aead.seal(KEY, rounds, ctr, aad, pt, auth)
        assert len(ct) == n
        assert (tag is None) == (not auth)
        assert aead.open_(KEY, rounds, [ctr], aad, ct, tag, auth) == (ctr, pt)


@pytest.mark.parametrize("rounds", (0, 4, 8, 12))
def test_counter_changes_ciphertext(rounds):
    pt = b"same reading as before"
    aad = b"\x01\x02\x03\x04\x05"
    ct1, _ = aead.seal(KEY, rounds, 41, aad, pt, False)
    ct2, _ = aead.seal(KEY, rounds, 42, aad, pt, False)
    assert ct1 != ct2
    # and sealing twice at one counter is deterministic
    again, _ = aead.seal(KEY, rounds, 41, aad, pt, False)
    assert again == ct1


@pytest.mark.parametrize("rounds,auth", [(0, True), (4, True), (12, True)])
def test_bit_flips_rejected(rounds, auth):
    pt = b"0123456789"
    aad = b"hdr\x00\x01"
    ct, tag = aead.seal(KEY, rounds, 77, aad, pt, True)
    for i in range(len(ct) * 8):
        bad = bytearray(ct)
        bad[i // 8] ^= 1 << (i % 8)
        assert aead.open_(KEY, rounds, [77], aad, bytes(bad), tag, True) is None
    for i in range(len(tag) * 8):
        bad = bytearray(tag)
        bad[i // 8] ^= 1 << (i % 8)
        assert aead.open_(KEY, rounds, [77], aad, ct, bytes(bad), True) is None


def test_aad_is_bound():
    ct, tag = aead.seal(KEY, 8, 5, b"\x09\x01\x02\x03\x04", b"payload", True)
    assert aead.open_(KEY, 8, [5], b"\x09\x01\x02\x03\x05", ct, tag, True) is None


def test_wrong_counter_rejected():
    ct, tag = aead.seal(KEY, 8, 5, b"aadaa", b"payload", True)
    assert aead.open_(KEY, 8, [6], b"aadaa", ct, tag, True) is None


def test_empty_payload_auth():
    ct, tag = aead.seal(KEY, 12, 9, b"aadaa", b"", True)
    assert ct == b"" and tag is not None and len(tag) == 4
    assert aead.open_(KEY, 12, [9], b"aadaa", b"", tag, True) == (9, b"")


def test_wrong_key_rejected():
    other = bytes.fromhex("ffeeddccbbaa99887766")
    ct, tag = aead.seal(KEY, 4, 3, b"aadaa", b"data!", True)
    assert aead.open_(other, 4, [3], b"aadaa", ct, tag, True) is None


def test_level0_without_tag_is_malleable():
    # Documented weakening: the XOR level without the auth bit flips along.
    ct, _ = aead.seal(KEY, 0, 6, b"", b"\x00\x00", False)
    tampered = bytes((ct[0] ^ 0x01, ct[1]))
    out = aead.open_(KEY, 0, [6], b"", tampered, None, False)
    assert out == (6, b"\x01\x00")


def test_counter_out_of_range():
    with pytest.raises(ValueError):
        aead.seal(KEY, 4, 1 << 32, b"", b"x", True)
    with pytest.raises(ValueError):
        aead.seal(KEY[:-1], 4, 1, b"", b"x", True)


def test_rc5_invocation_count():
    # 1 nonce-offset block + payload blocks (+ final) + aad + tag when authed
    assert aead.rc5_invocations(0, False) == 2
    assert aead.rc5_invocations(8, False) == 2
    assert aead.rc5_invocations(9, False) == 3
    assert aead.rc5_invocations(29, True) == 7


@pytest.mark.parametrize("rounds,auth", BLOCK_MODES)
def test_block_mode_matches_oracle(rounds, auth):
    # Every payload length a packet can carry, every AAD length that fits
    # one padded block, and counters at the byte and word edges.
    rnd = random.Random(1000 + rounds * 2 + auth)
    key = rnd.randbytes(10)
    counters = EDGE_COUNTERS + tuple(rnd.randrange(1 << 32) for _ in range(3))
    for n in range(30):
        for k, ctr in enumerate(counters):
            pt = rnd.randbytes(n)
            aad = rnd.randbytes((n + k) % 8)
            sealed = aead.seal(key, rounds, ctr, aad, pt, auth)
            assert sealed == oracles.ocb_seal(key, rounds, ctr, aad, pt, auth)
            ct, tag = sealed
            assert aead.open_(key, rounds, [ctr], aad, ct, tag, auth) == (ctr, pt)
            assert oracles.ocb_open(key, rounds, ctr, aad, ct, tag, auth) == pt
            if auth:
                bad = bytes((tag[0] ^ 0x80,)) + tag[1:]
                assert aead.open_(key, rounds, [ctr], aad, ct, bad, auth) is None
                assert oracles.ocb_open(key, rounds, ctr, aad, ct, bad, auth) is None


@pytest.mark.parametrize("auth", (True, False))
def test_level0_matches_oracle(auth):
    # Every payload length a packet can carry, longer ones whose keystream
    # takes a second or third HMAC output, associated data up to 255
    # octets, and counters at the byte and word edges.
    rnd = random.Random(2000 + auth)
    key = rnd.randbytes(10)
    for n in (*range(30), 32, 33, 64, 65, 100):
        for k, ctr in enumerate(EDGE_COUNTERS):
            pt = rnd.randbytes(n)
            aad = rnd.randbytes((n * 9 + k) % 256)
            sealed = aead.seal(key, 0, ctr, aad, pt, auth)
            assert sealed == oracles.stream_seal(key, ctr, aad, pt, auth)
            ct, tag = sealed
            assert aead.open_(key, 0, [ctr], aad, ct, tag, auth) == (ctr, pt)
            assert oracles.stream_open(key, ctr, aad, ct, tag, auth) == pt
            if auth:
                bad = tag[:-1] + bytes((tag[-1] ^ 0x01,))
                assert aead.open_(key, 0, [ctr], aad, ct, bad, auth) is None
                assert oracles.stream_open(key, ctr, aad, ct, bad, auth) is None


def test_level0_aad_limit():
    # The level-0 tag carries len(aad) in one octet.
    ct, tag = aead.seal(KEY, 0, 1, b"x" * 255, b"ab", True)
    assert aead.open_(KEY, 0, [1], b"x" * 255, ct, tag, True) == (1, b"ab")
    with pytest.raises(ValueError, match="255 octets"):
        aead.seal(KEY, 0, 1, b"x" * 256, b"ab", True)
    with pytest.raises(ValueError, match="255 octets"):
        aead.open_(KEY, 0, [1], b"x" * 256, ct, tag, True)
    # Without a tag the associated data is not read.
    assert aead.seal(KEY, 0, 1, b"x" * 256, b"ab", False) == (ct, None)


@pytest.mark.parametrize("rounds,auth", ALL_MODES)
def test_argument_checks_on_both_directions(rounds, auth):
    # A bad key or counter raises from seal and from open_ at every level;
    # the counter is checked with the good key's schedule already cached.
    aead.seal(KEY, rounds, 1, b"", b"x", auth)
    tag = bytes(4) if auth else None
    for key, ctr in ((KEY[:-1], 1), (KEY + b"\x00", 1), (KEY, -1), (KEY, 1 << 32)):
        with pytest.raises(ValueError):
            aead.seal(key, rounds, ctr, b"", b"x", auth)
        with pytest.raises(ValueError):
            aead.open_(key, rounds, [ctr], b"", b"x", tag, auth)
    if rounds:
        with pytest.raises(ValueError, match="one block"):
            aead.seal(KEY, rounds, 1, bytes(8), b"x", True)
        with pytest.raises(ValueError, match="one block"):
            aead.open_(KEY, rounds, [1], bytes(8), b"x", bytes(4), True)


@pytest.mark.parametrize("rounds,auth", BLOCK_MODES)
def test_block_mode_length_limit(rounds, auth):
    # The `l * x^i` table stops at i = 8, so 511 blocks are the most a block
    # mode takes; one octet more raises a ValueError, not an IndexError.
    pt = random.Random(rounds * 10 + auth).randbytes(4088)
    ct, tag = aead.seal(KEY, rounds, 7, b"", pt, auth)
    assert (ct, tag) == oracles.ocb_seal(KEY, rounds, 7, b"", pt, auth)
    assert aead.open_(KEY, rounds, [7], b"", ct, tag, auth) == (7, pt)
    with pytest.raises(ValueError, match="4088 octets"):
        aead.seal(KEY, rounds, 7, b"", pt + b"x", auth)
    with pytest.raises(ValueError, match="4088 octets"):
        aead.open_(KEY, rounds, [7], b"", ct + b"x", tag, auth)


@pytest.mark.parametrize("rounds,auth", BLOCK_MODES)
def test_block_count_matches_energy_model(rounds, auth, monkeypatch):
    # The simulator charges crypto energy per `rc5_invocations` block; count
    # the blocks the int core actually enciphers, with the key set up first.
    key = bytes(range(10))
    aead.seal(key, rounds, 0, b"", b"", auth)
    calls = []

    def counting(core):
        def counted(schedule, x):
            calls.append(x)
            return core(schedule, x)
        return counted

    monkeypatch.setattr(rc5, "encrypt_int", counting(rc5.encrypt_int))
    monkeypatch.setattr(rc5, "decrypt_int", counting(rc5.decrypt_int))
    for n in range(30):
        pt = bytes(n)
        del calls[:]
        ct, tag = aead.seal(key, rounds, 7, b"hdr", pt, auth)
        assert len(calls) == aead.rc5_invocations(n, auth)
        del calls[:]
        assert aead.open_(key, rounds, [7], b"hdr", ct, tag, auth) == (7, pt)
        assert len(calls) == aead.rc5_invocations(n, auth)


def _oracle_open(key, rounds, counters, aad, ct, tag, auth):
    """The answer of trying the oracle's open at each counter in turn."""
    for counter in counters:
        if rounds:
            pt = oracles.ocb_open(key, rounds, counter, aad, ct, tag, auth)
        else:
            pt = oracles.stream_open(key, counter, aad, ct, tag, auth)
        if pt is not None:
            return counter, pt
    return None


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(ALL_MODES),
    key=st.binary(min_size=10, max_size=10),
    aad=st.binary(max_size=7),
    payload=st.binary(max_size=29),
    threshold=st.integers(0, 8),
    first=st.one_of(
        st.integers(0, (1 << 32) - 1), st.integers((1 << 32) - 8 * 256, (1 << 32) - 1)
    ),
    true_at=st.one_of(st.none(), st.integers(0, 8)),
    forged=st.sampled_from(["tag", "counter"]),
)
def test_open_equals_the_oracle_at_each_candidate(
    mode, key, aad, payload, threshold, first, true_at, forged
):
    """One open of a candidate list answers as the oracle's open tried at
    each candidate in order. The candidates are a receiver's counter-wrap
    search, `threshold + 1` of them 256 apart and taken mod 2**32. The wire
    is sealed at the candidate `true_at` or, when that is None or past the
    list, forged: its tag is flipped, or it is sealed 256 before the first
    candidate."""
    rounds, auth = mode
    candidates = [(first + (w << 8)) & aead._M32 for w in range(threshold + 1)]
    truth = true_at is not None and true_at <= threshold
    counter = candidates[true_at] if truth else (first - 256) & aead._M32
    ct, tag = aead.seal(key, rounds, counter, aad, payload, auth)
    if not truth and forged == "tag" and auth:
        tag = bytes((tag[0] ^ 0x01,)) + tag[1:]
    got = aead.open_(key, rounds, candidates, aad, ct, tag, auth)
    assert got == _oracle_open(key, rounds, candidates, aad, ct, tag, auth)
    if not auth:
        assert got[0] == candidates[0]
    elif truth:
        assert got == (counter, payload)
    else:
        assert got is None


@pytest.mark.parametrize("rounds", (4, 8, 12))
def test_int_core_matches_oracle(rounds):
    rnd = random.Random(rounds)
    for _ in range(100):
        key = rnd.randbytes(10)
        block = rnd.randbytes(8)
        schedule = rc5.key_schedule(key, rounds)
        x = int.from_bytes(block, "little")
        enc = rc5.encrypt_int(schedule, x).to_bytes(8, "little")
        assert enc == oracles.rc5_encrypt(key, rounds, block)
        dec = rc5.decrypt_int(schedule, x).to_bytes(8, "little")
        assert dec == oracles.rc5_decrypt(key, rounds, block)


def test_setup_is_the_one_schedule_cache(monkeypatch):
    # A re-keying run expands each (key, rounds) schedule once, in aead._setup.
    # Honest simulator wires are never sealed, so the run is a golden whose
    # lost packets still run the cipher.
    assert not hasattr(rc5.key_schedule, "cache_info")
    calls = Counter()
    expand = rc5.key_schedule

    def counted(key, rounds):
        calls[key, rounds] += 1
        return expand(key, rounds)

    monkeypatch.setattr(rc5, "key_schedule", counted)
    aead._setup.cache_clear()
    goldens = pathlib.Path(__file__).parent / "vectors" / "sim_golden" / "configs.json"
    config = config_from_dict(json.loads(goldens.read_text())["military_two_groups_loss"])
    report = sim.run(config)
    assert report.rekeys
    assert calls and set(calls.values()) == {1}
    assert aead._setup.cache_info().hits > 0
