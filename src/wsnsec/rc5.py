"""RC5 block cipher, 32-bit words, 80-bit keys (RC5-32/r/10).

The link layer runs it at 4, 8, or 12 rounds depending on the negotiated
encryption level. Blocks are enciphered one at a time on plain Python ints:
a packet carries at most a handful of blocks, which is the word-oriented
scalar work RC5 was designed for, so there are no compiled or vectorized
kernels.

The core is :func:`encrypt_int` / :func:`decrypt_int`. It takes a block as
the 64-bit int ``int.from_bytes(block, "little")``, so word ``a`` is
``x & 0xFFFFFFFF`` and word ``b`` is ``x >> 32``, and returns one in the
same form. Its key schedule, from :func:`key_schedule`, is
``(s0, s1, pairs)``: the two whitening words, then one ``(s[2i], s[2i+1])``
round-key pair per round. This module caches nothing; ``aead`` caches the
schedule per (key, rounds). The single-block bytes functions check their
arguments and wrap the core, so each direction has one round loop.

Every rotation is one multiply and one shift. For a 32-bit word ``x``,
``x * (2**32 + 1)`` is ``x << 32 | x``: two copies of ``x`` side by side,
which cannot overlap or carry because ``x < 2**32``. Any 32-bit window of
that 64-bit value is a rotation of ``x``, so for every ``n`` in 0..31

* ``rotl(x, n) = (x * (2**32 + 1) >> (32 - n)) & 0xFFFFFFFF``
* ``rotr(x, n) = (x * (2**32 + 1) >> n) & 0xFFFFFFFF``

exactly; ``n = 0`` gives ``>> 32`` and ``>> 0``, both ``x``. The identity
needs ``x`` already reduced to 32 bits, so decryption masks its
subtraction before it rotates. Encryption adds the round key before it
masks, since bits above 32 do not change the sum's low 32 bits.
"""

from __future__ import annotations

KEY_BYTES = 10
BLOCK_BYTES = 8
ROUNDS_ALLOWED = (4, 8, 12)

# Key-schedule magic constants for 32-bit words.
_P32 = 0xB7E15163
_Q32 = 0x9E3779B9
_M32 = 0xFFFFFFFF
_ROT = 0x1_0000_0001  # 2**32 + 1: x * _ROT is x << 32 | x


def _rotl(x: int, n: int) -> int:
    """Rotate the 32-bit word `x` left by `n` mod 32."""
    return (x * _ROT >> (32 - (n & 31))) & _M32


Schedule = tuple[int, int, tuple[tuple[int, int], ...]]


def key_schedule(key: bytes, rounds: int) -> Schedule:
    """Expand `key` into the S table for `rounds` rounds (2r + 2 words),
    in the form the int core takes."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"RC5 key must be {KEY_BYTES} octets, got {len(key)}")
    if rounds not in ROUNDS_ALLOWED:
        raise ValueError(f"rounds must be one of {ROUNDS_ALLOWED}, got {rounds}")
    u = 4
    c = max(1, (len(key) + u - 1) // u)
    length = [0] * c
    for i in reversed(range(len(key))):
        length[i // u] = ((length[i // u] << 8) + key[i]) & _M32
    t = 2 * rounds + 2
    s = [(_P32 + i * _Q32) & _M32 for i in range(t)]
    a = b = i = j = 0
    for _ in range(3 * max(t, c)):
        a = s[i] = _rotl((s[i] + a + b) & _M32, 3)
        b = length[j] = _rotl((length[j] + a + b) & _M32, (a + b) & 31)
        i = (i + 1) % t
        j = (j + 1) % c
    return s[0], s[1], tuple(zip(s[2::2], s[3::2]))


def encrypt_int(schedule: Schedule, x: int) -> int:
    """Encrypt one block given as a 64-bit little-endian int."""
    s0, s1, pairs = schedule
    a = (x + s0) & _M32
    b = ((x >> 32) + s1) & _M32
    for ka, kb in pairs:
        a = (((a ^ b) * _ROT >> (32 - (b & 31))) + ka) & _M32
        b = (((b ^ a) * _ROT >> (32 - (a & 31))) + kb) & _M32
    return a | b << 32


def decrypt_int(schedule: Schedule, x: int) -> int:
    """Decrypt one block given as a 64-bit little-endian int."""
    s0, s1, pairs = schedule
    a = x & _M32
    b = x >> 32
    for ka, kb in reversed(pairs):
        b = ((((b - kb) & _M32) * _ROT >> (a & 31)) ^ a) & _M32
        a = ((((a - ka) & _M32) * _ROT >> (b & 31)) ^ b) & _M32
    return ((a - s0) & _M32) | ((b - s1) & _M32) << 32


def encrypt_block(key: bytes, rounds: int, block: bytes) -> bytes:
    """Encrypt a single 64-bit block."""
    if len(block) != BLOCK_BYTES:
        raise ValueError("block must be exactly 8 octets")
    x = encrypt_int(key_schedule(key, rounds), int.from_bytes(block, "little"))
    return x.to_bytes(8, "little")


def decrypt_block(key: bytes, rounds: int, block: bytes) -> bytes:
    """Decrypt a single 64-bit block."""
    if len(block) != BLOCK_BYTES:
        raise ValueError("block must be exactly 8 octets")
    x = decrypt_int(key_schedule(key, rounds), int.from_bytes(block, "little"))
    return x.to_bytes(8, "little")
