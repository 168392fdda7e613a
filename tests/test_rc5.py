import pathlib
import random

import pytest

import oracles
from wsnsec import rc5

VECTORS = pathlib.Path(__file__).parent / "vectors" / "rc5_vectors.txt"

# Published reference chain for RC5-32/12/16 (the cipher's own test data);
# anchors the straight-line oracle before the oracle anchors anything else.
REFERENCE_CHAIN = [
    ("00" * 16, "00" * 8, "21a5dbee154b8f6d"),
    ("915f4619be41b2516355a50110a9ce91", "21a5dbee154b8f6d", "f7c013ac5b2b8952"),
    ("783348e75aeb0f2fd7b169bb8dc16787", "f7c013ac5b2b8952", "2f42b3b70369fc92"),
]


def load_vectors():
    cases = []
    for line in VECTORS.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        rounds, key, pt, ct = line.split()
        cases.append((int(rounds), bytes.fromhex(key), bytes.fromhex(pt), bytes.fromhex(ct)))
    return cases


def test_oracle_matches_published_chain():
    for key_hex, pt_hex, ct_hex in REFERENCE_CHAIN:
        ct = oracles.rc5_encrypt(bytes.fromhex(key_hex), 12, bytes.fromhex(pt_hex))
        assert ct.hex() == ct_hex


@pytest.mark.parametrize("rounds,key,pt,ct", load_vectors())
def test_pinned_vectors(rounds, key, pt, ct):
    assert rc5.encrypt_block(key, rounds, pt) == ct
    assert rc5.decrypt_block(key, rounds, ct) == pt
    # The oracle still reproduces its own pins.
    assert oracles.rc5_encrypt(key, rounds, pt) == ct


def test_roundtrip_random_blocks():
    rnd = random.Random(1234)
    for _ in range(300):
        key = rnd.randbytes(10)
        rounds = rnd.choice((4, 8, 12))
        block = rnd.randbytes(8)
        ct = rc5.encrypt_block(key, rounds, block)
        assert rc5.decrypt_block(key, rounds, ct) == block


def _blocks(data):
    return [data[i : i + 8] for i in range(0, len(data), 8)]


def test_batched_equals_blockwise():
    # The int core over one schedule, as aead runs it, against the bytes API.
    rnd = random.Random(99)
    key = rnd.randbytes(10)
    data = rnd.randbytes(8 * 17)
    schedule = rc5.key_schedule(key, 8)
    for block in _blocks(data):
        x = int.from_bytes(block, "little")
        ct = rc5.encrypt_int(schedule, x)
        assert ct.to_bytes(8, "little") == rc5.encrypt_block(key, 8, block)
        assert rc5.decrypt_int(schedule, ct) == x
        assert rc5.decrypt_block(key, 8, ct.to_bytes(8, "little")) == block


def test_core_matches_oracle():
    rnd = random.Random(7)
    key = rnd.randbytes(10)
    for rounds in (4, 8, 12):
        schedule = rc5.key_schedule(key, rounds)
        data = rnd.randbytes(8 * 40)
        for block in _blocks(data):
            x = int.from_bytes(block, "little")
            enc = rc5.encrypt_int(schedule, x).to_bytes(8, "little")
            dec = rc5.decrypt_int(schedule, x).to_bytes(8, "little")
            assert enc == oracles.rc5_encrypt(key, rounds, block)
            assert dec == oracles.rc5_decrypt(key, rounds, block)
            assert rc5.encrypt_block(key, rounds, block) == enc
            assert rc5.decrypt_block(key, rounds, block) == dec
            assert rc5.decrypt_block(key, rounds, enc) == block


# Words at the carry and sign edges, for the word the first half-round rotates.
EDGE_WORDS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


@pytest.mark.parametrize("rounds", (4, 8, 12))
def test_first_half_round_rotates_by_every_amount(rounds):
    # Encrypt first rotates a + s0 XOR b + s1 left by (b + s1) & 31; decrypt
    # first rotates b - s[2r+1] right by a & 31. Pick blocks that hit each
    # amount 0..31 (0 is the `>> 32` edge of the multiply form) with edge and
    # random words, and check them against the straight-line oracle.
    rnd = random.Random(500 + rounds)
    key = rnd.randbytes(10)
    schedule = rc5.key_schedule(key, rounds)
    s0, s1, pairs = schedule
    kb_last = pairs[-1][1]
    m32 = 0xFFFFFFFF
    for n in range(32):
        for word in EDGE_WORDS + (rnd.getrandbits(32),):
            b = (n + 32 * rnd.getrandbits(27)) & m32
            a = word ^ b
            x = ((a - s0) & m32) | ((b - s1) & m32) << 32
            assert ((x >> 32) + s1) & 31 == n
            block = x.to_bytes(8, "little")
            assert rc5.encrypt_int(schedule, x).to_bytes(8, "little") == oracles.rc5_encrypt(key, rounds, block)

            x = (n + 32 * rnd.getrandbits(27)) | ((word + kb_last) & m32) << 32
            assert x & 31 == n
            block = x.to_bytes(8, "little")
            assert rc5.decrypt_int(schedule, x).to_bytes(8, "little") == oracles.rc5_decrypt(key, rounds, block)


def test_round_counts_diverge():
    key = bytes(range(10))
    block = b"\x5a" * 8
    outs = {rc5.encrypt_block(key, r, block) for r in (4, 8, 12)}
    assert len(outs) == 3


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rc5.encrypt_block(bytes(9), 4, bytes(8))
    with pytest.raises(ValueError):
        rc5.encrypt_block(bytes(10), 6, bytes(8))
    with pytest.raises(ValueError):
        rc5.encrypt_block(bytes(10), 4, bytes(7))
    with pytest.raises(ValueError):
        rc5.decrypt_block(bytes(10), 4, bytes(16))
