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
"""

from __future__ import annotations

import hmac
from functools import lru_cache
from typing import Optional

from . import rc5
from .keys import hmac_sha256

TAG_BYTES = 4
_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFF_FFFFFFFF
_MAX_BLOCK_MODE_BYTES = 511 * rc5.BLOCK_BYTES  # see the `l * x^i` table

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


def _block_mode(key, rounds, counter, aad, data, auth, decrypt):
    """One pass of the block mode over `data` (plaintext, or ciphertext when
    `decrypt`); returns (output, tag), the tag None without `auth`."""
    if auth and len(aad) >= rc5.BLOCK_BYTES:
        raise ValueError("associated data must fit one block with padding")
    n = len(data)
    if n > _MAX_BLOCK_MODE_BYTES:
        raise ValueError(
            f"block-mode data must be at most {_MAX_BLOCK_MODE_BYTES} octets"
        )
    schedule, l_inv, doubles = _setup(key, rounds)
    enc = rc5.encrypt_int
    core = rc5.decrypt_int if decrypt else enc
    x = int.from_bytes(data, "little")
    nonce = int.from_bytes(counter.to_bytes(8, "big"), "little")
    z = doubles[0] ^ enc(schedule, nonce ^ doubles[0])
    out = checksum = shift = 0
    # Every block but the last is full; `i` numbers the block after this one.
    for i in range(2, (n + 7) // 8 + 1):
        blk = x & _M64
        x >>= 64
        y = core(schedule, blk ^ z) ^ z
        out |= y << shift
        shift += 64
        checksum ^= y if decrypt else blk
        z ^= doubles[(i & -i).bit_length() - 1]  # l * x^ntz(i)
    final_bytes = n - shift // 8
    # bitlen(m_final) fits the last octet of the big-endian block.
    pad = enc(schedule, ((final_bytes * 8) << 56) ^ l_inv ^ z)
    y = (x ^ pad) & ((1 << 8 * final_bytes) - 1)
    out |= y << shift
    checksum ^= (x if decrypt else y) ^ pad
    tag = None
    if auth:
        t = enc(schedule, checksum ^ z) ^ enc(schedule, int.from_bytes(aad + b"\x80", "little"))
        tag = (t & _M32).to_bytes(TAG_BYTES, "little")
    return out.to_bytes(n, "little"), tag


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


def _crypt(key, rounds, counter, aad, data, auth, decrypt):
    """What `seal` and `open_` share: checks the counter and, at level 0,
    the key (the block modes check it in `rc5.key_schedule`, on `_setup`'s
    misses), then runs the block mode, or at `rounds` 0 the keystream, over
    `data`: the plaintext, or the ciphertext when `decrypt`. Returns
    (output, tag), the tag None without `auth`."""
    if not 0 <= counter <= _M32:
        raise ValueError("counter must fit 32 bits")
    if rounds:
        return _block_mode(key, rounds, counter, aad, data, auth, decrypt)
    if len(key) != rc5.KEY_BYTES:
        raise ValueError(f"key must be {rc5.KEY_BYTES} octets")
    out = _xor_stream(key, counter, data)
    return out, _stream_tag(key, counter, aad, data if decrypt else out) if auth else None


def seal(
    key: bytes,
    rounds: int,
    counter: int,
    aad: bytes,
    plaintext: bytes,
    auth: bool,
) -> tuple[bytes, Optional[bytes]]:
    """Encrypt `plaintext`; returns `_crypt`'s (ciphertext, tag-or-None).

    `rounds` 0 selects the level-0 keystream XOR, otherwise RC5 with that
    round count. Identical (key, counter, plaintext) always produce the
    same output; a different counter changes the whole ciphertext.
    """
    return _crypt(key, rounds, counter, aad, plaintext, auth, False)


def open_(
    key: bytes,
    rounds: int,
    counter: int,
    aad: bytes,
    ciphertext: bytes,
    tag: Optional[bytes],
    auth: bool,
) -> Optional[bytes]:
    """Inverse of :func:`seal`. Returns None when the tag does not verify.

    `_crypt` decrypts and recomputes the tag; this only compares it with
    `tag`, in constant time."""
    plaintext, expect = _crypt(key, rounds, counter, aad, ciphertext, auth, True)
    if auth and (tag is None or not hmac.compare_digest(expect, tag)):
        return None
    return plaintext


def rc5_invocations(payload_len: int, auth: bool) -> int:
    """Cipher-block invocations one seal (or open) performs; used by the
    simulator's energy accounting."""
    m = max(1, (payload_len + 7) // 8)
    return m + 1 + (2 if auth else 0)
