"""Per-packet payload protection: one-pass authenticated encryption.

Levels 1-3 run an OCB-style mode over RC5 (4, 8, or 12 rounds): a single
pass over the payload produces ciphertext and a 32-bit tag together, with
the packet header bound as associated data and the 32-bit send counter,
zero-extended to one block, as the nonce. Level 0 is a keystream XOR built
from successive PRF outputs over (counter, block index), with an optional
PRF-based 32-bit tag; it varies with the counter like the block modes but
offers no tamper resistance unless the tag is present.

The exact construction (normative for the pinned test vectors):

* ``l = E(0^64)``, ``l_inv = l * x^-1`` in GF(2^64) (poly x^64+x^4+x^3+x+1)
* ``r = E(nonce XOR l)``; offsets ``z[1] = l XOR r``,
  ``z[i] = z[i-1] XOR l * x^ntz(i)``
* full blocks: ``c[i] = E(m[i] XOR z[i]) XOR z[i]``
* final block: ``y = E(bitlen(m_final) XOR l_inv XOR z[m])``,
  ``c_final = m_final XOR y[:len]``
* checksum = XOR of full plaintext blocks, zero-padded final ciphertext,
  and ``y``; associated data is padded with 0x80 into one block and
  encrypted; tag = top 32 bits of ``E(checksum XOR z[m]) XOR E(pad(aad))``.

The code runs this on 64-bit ints in RC5's own word domain: a block is
``int.from_bytes(block, "little")``, which the ``rc5`` int core takes and
returns without packing words. XOR does not depend on byte order, so the
offsets, checksum, final-block pad and tag are plain int XORs there. The
big-endian values above are converted once: ``l_inv`` and the ``l * x^i``
table when a key is first set up, and the nonce and ``bitlen`` per packet.
The table stops at ``i = 8``, the largest ``ntz(i)`` below 512, so the block
modes take at most 511 blocks: 4,088 octets of plaintext or ciphertext.
The tag, the top 32 bits of a big-endian block, is the low word.

Level 0, with ``H = HMAC-SHA256`` under the 10-octet key and ``ctr`` the
counter as 4 big-endian octets:

* keystream = ``H(0x05 || ctr || i)`` for i = 0, 1, ... (``i`` as 4
  big-endian octets), concatenated and cut to the payload length;
* ``c = m XOR keystream``, octet by octet;
* tag = first 4 octets of ``H(0x06 || ctr || len(aad) || aad || c)``, the
  length as one octet, so the associated data is at most 255 octets.

The code XORs the payload with its keystream as two ints, read and written
in one byte order, which is the octet-by-octet XOR.

An open takes the candidate counters of the receiver's counter-wrap search
and answers with the first whose tag verifies; without a tag the first
answers. Its work is split by what it depends on:

* once per wire: the key set-up lookup, ``E(pad(aad))`` (which does not
  depend on the nonce), and the ciphertext as one int with its block
  layout: the final block, its ``bitlen`` input and its mask;
* once per candidate: the nonce offset ``r``, the ``m`` full-block
  decrypts, the final pad ``y`` and the tag compare.

An open of ``k`` candidates that none answers thus makes ``1 + k(m + 3)``
block-cipher calls, where ``k`` opens of one candidate make ``k(m + 4)``.
Nothing is kept from one call to the next. At level 0 every value depends
on the counter, but the tag is checked first, so only the candidate that
answers pays for the keystream.
"""

from __future__ import annotations

import hmac
from functools import lru_cache
from typing import Iterable, Optional

from . import rc5
from .keys import hmac_sha256

TAG_BYTES = 4
_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFF_FFFFFFFF
_MAX_BLOCK_MODE_BYTES = 511 * rc5.BLOCK_BYTES  # see the `l * x^i` table
_COUNTER_RANGE = "counter must fit 32 bits"
# Level 0 checks the key's length itself; the block modes check it in
# `rc5.key_schedule`, on `_setup`'s misses.
_KEY_LENGTH = f"key must be {rc5.KEY_BYTES} octets"

# Domain tags for the level-0 stream expansion and its tag (the key
# derivation tags 0x01-0x04 live in `keys`).
_TAG_STREAM = b"\x05"
_TAG_STREAM_MAC = b"\x06"


def _double(x: int) -> int:
    x2 = (x << 1) & _M64
    return x2 ^ 0x1B if x >> 63 else x2


def _halve(x: int) -> int:
    x2 = x >> 1
    return x2 ^ 0x800000000000000D if x & 1 else x2


def _byteswap(x: int) -> int:
    """Map a 64-bit big-endian block value to RC5's little-endian one, or back."""
    return int.from_bytes(x.to_bytes(8, "little"), "big")


@lru_cache(maxsize=256)
def _setup(key: bytes, rounds: int) -> tuple[rc5.Schedule, int, tuple[int, ...]]:
    """The key's RC5 schedule, ``l_inv`` and ``l * x^i`` (i = 0..8), the
    last two in the word domain."""
    schedule = rc5.key_schedule(key, rounds)
    l = _byteswap(rc5.encrypt_int(schedule, 0))
    doubles = [l]
    for _ in range(8):
        doubles.append(_double(doubles[-1]))
    return schedule, _byteswap(_halve(l)), tuple(map(_byteswap, doubles))


def _block_setup(key, rounds, aad, data, auth):
    """Checks the associated data and the length of `data` for the block
    modes and returns `_setup`'s (schedule, l_inv, doubles)."""
    if auth and len(aad) >= rc5.BLOCK_BYTES:
        raise ValueError("associated data must fit one block with padding")
    if len(data) > _MAX_BLOCK_MODE_BYTES:
        raise ValueError(
            f"block-mode data must be at most {_MAX_BLOCK_MODE_BYTES} octets"
        )
    return _setup(key, rounds)


def _xor_stream(key: bytes, counter: int, text: bytes) -> bytes:
    """`text` XOR the level-0 keystream, as one XOR of two ints."""
    n = len(text)
    prefix = _TAG_STREAM + counter.to_bytes(4, "big")
    stream = b"".join([hmac_sha256(key, prefix + i.to_bytes(4, "big")) for i in range((n + 31) // 32)])
    return (int.from_bytes(text, "little") ^ int.from_bytes(stream[:n], "little")).to_bytes(n, "little")


def _stream_tag(key: bytes, counter: int, aad: bytes, ciphertext: bytes) -> bytes:
    if len(aad) > 255:
        raise ValueError("level-0 associated data must be at most 255 octets")
    msg = (
        _TAG_STREAM_MAC
        + counter.to_bytes(4, "big")
        + len(aad).to_bytes(1, "big")
        + aad
        + ciphertext
    )
    return hmac_sha256(key, msg)[:TAG_BYTES]


def seal(
    key: bytes,
    rounds: int,
    counter: int,
    aad: bytes,
    plaintext: bytes,
    auth: bool,
) -> tuple[bytes, Optional[bytes]]:
    """Encrypt `plaintext`; returns (ciphertext, tag), the tag None without
    `auth`.

    `rounds` 0 selects the level-0 keystream XOR, otherwise RC5 with that
    round count. Identical (key, counter, plaintext) always produce the
    same output; a different counter changes the whole ciphertext.
    """
    if not 0 <= counter <= _M32:
        raise ValueError(_COUNTER_RANGE)
    if not rounds:
        if len(key) != rc5.KEY_BYTES:
            raise ValueError(_KEY_LENGTH)
        ct = _xor_stream(key, counter, plaintext)
        return ct, _stream_tag(key, counter, aad, ct) if auth else None
    schedule, l_inv, doubles = _block_setup(key, rounds, aad, plaintext, auth)
    enc = rc5.encrypt_int
    n = len(plaintext)
    x = int.from_bytes(plaintext, "little")
    nonce = int.from_bytes(counter.to_bytes(8, "big"), "little")
    z = doubles[0] ^ enc(schedule, nonce ^ doubles[0])
    out = checksum = shift = 0
    # Every block but the last is full; `i` numbers the block after this one.
    for i in range(2, (n + 7) // 8 + 1):
        blk = x & _M64
        x >>= 64
        out |= (enc(schedule, blk ^ z) ^ z) << shift
        shift += 64
        checksum ^= blk
        z ^= doubles[(i & -i).bit_length() - 1]  # l * x^ntz(i)
    final_bits = 8 * n - shift
    # bitlen(m_final) fits the last octet of the big-endian block.
    pad = enc(schedule, (final_bits << 56) ^ l_inv ^ z)
    y = (x ^ pad) & ((1 << final_bits) - 1)
    out |= y << shift
    tag = None
    if auth:
        t = enc(schedule, checksum ^ y ^ pad ^ z) ^ enc(schedule, int.from_bytes(aad + b"\x80", "little"))
        tag = (t & _M32).to_bytes(TAG_BYTES, "little")
    return out.to_bytes(n, "little"), tag


def open_(
    key: bytes,
    rounds: int,
    counters: Iterable[int],
    aad: bytes,
    ciphertext: bytes,
    tag: Optional[bytes],
    auth: bool,
) -> Optional[tuple[int, bytes]]:
    """Inverse of :func:`seal`, tried at each of `counters` in turn.

    Returns (counter, plaintext) for the first counter whose tag verifies,
    compared in constant time, or None when none does. Without `auth`
    nothing is verified, so the first counter answers. Each counter is
    checked as it is tried. The work that does not depend on the counter
    runs once, before the first; see the module docstring.
    """
    if not rounds:
        if len(key) != rc5.KEY_BYTES:
            raise ValueError(_KEY_LENGTH)
        for counter in counters:
            if not 0 <= counter <= _M32:
                raise ValueError(_COUNTER_RANGE)
            if auth and (
                tag is None
                or not hmac.compare_digest(_stream_tag(key, counter, aad, ciphertext), tag)
            ):
                continue
            return counter, _xor_stream(key, counter, ciphertext)
        return None
    schedule, l_inv, doubles = _block_setup(key, rounds, aad, ciphertext, auth)
    enc, dec = rc5.encrypt_int, rc5.decrypt_int
    n = len(ciphertext)
    x = int.from_bytes(ciphertext, "little")
    blocks = (n + 7) // 8
    last = 64 * blocks - 64 if n else 0  # the final block's bit offset
    final = x >> last  # the final block's ciphertext, zero-padded
    final_bits = 8 * n - last
    final_in = (final_bits << 56) ^ l_inv
    mask = (1 << final_bits) - 1
    e_aad = enc(schedule, int.from_bytes(aad + b"\x80", "little")) if auth else 0
    for counter in counters:
        if not 0 <= counter <= _M32:
            raise ValueError(_COUNTER_RANGE)
        nonce = int.from_bytes(counter.to_bytes(8, "big"), "little")
        z = doubles[0] ^ enc(schedule, nonce ^ doubles[0])
        out = checksum = shift = 0
        # Every block but the last is full; `i` numbers the block after this one.
        for i in range(2, blocks + 1):
            y = dec(schedule, ((x >> shift) & _M64) ^ z) ^ z
            out |= y << shift
            shift += 64
            checksum ^= y
            z ^= doubles[(i & -i).bit_length() - 1]  # l * x^ntz(i)
        pad = enc(schedule, final_in ^ z)
        out |= ((final ^ pad) & mask) << last
        if auth:
            t = enc(schedule, checksum ^ final ^ pad ^ z) ^ e_aad
            if tag is None or not hmac.compare_digest((t & _M32).to_bytes(TAG_BYTES, "little"), tag):
                continue
        return counter, out.to_bytes(n, "little")
    return None


def rc5_invocations(payload_len: int, auth: bool) -> int:
    """Cipher-block invocations of one seal, or of one open of a single
    candidate counter; used by the simulator's energy accounting."""
    m = max(1, (payload_len + 7) // 8)
    return m + 1 + (2 if auth else 0)
