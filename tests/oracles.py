"""Independent straight-line oracles used to pin expected test values.

Deliberately separate from the package: plain python-int arithmetic, no
numpy, no shared helpers. The RC5 oracle reproduces the cipher's published
reference chain (see test_rc5), which anchors everything pinned from it.
"""

import hashlib
import hmac

P32, Q32 = 0xB7E15163, 0x9E3779B9
M32 = 0xFFFFFFFF


def _rotl(x, n):
    n &= 31
    return ((x << n) | (x >> (32 - n))) & M32 if n else x


def _rotr(x, n):
    n &= 31
    return ((x >> n) | (x << (32 - n))) & M32 if n else x


def _schedule(key, rounds):
    u = 4
    c = max(1, (len(key) + u - 1) // u)
    words = [0] * c
    for i in reversed(range(len(key))):
        words[i // u] = ((words[i // u] << 8) + key[i]) & M32
    t = 2 * rounds + 2
    s = [(P32 + i * Q32) & M32 for i in range(t)]
    a = b = i = j = 0
    for _ in range(3 * max(t, c)):
        a = s[i] = _rotl((s[i] + a + b) & M32, 3)
        b = words[j] = _rotl((words[j] + a + b) & M32, (a + b) & M32)
        i = (i + 1) % t
        j = (j + 1) % c
    return s


def rc5_encrypt(key, rounds, block):
    s = _schedule(key, rounds)
    a = int.from_bytes(block[:4], "little")
    b = int.from_bytes(block[4:], "little")
    a = (a + s[0]) & M32
    b = (b + s[1]) & M32
    for i in range(1, rounds + 1):
        a = (_rotl(a ^ b, b) + s[2 * i]) & M32
        b = (_rotl(b ^ a, a) + s[2 * i + 1]) & M32
    return a.to_bytes(4, "little") + b.to_bytes(4, "little")


def rc5_decrypt(key, rounds, block):
    s = _schedule(key, rounds)
    a = int.from_bytes(block[:4], "little")
    b = int.from_bytes(block[4:], "little")
    for i in range(rounds, 0, -1):
        b = _rotr((b - s[2 * i + 1]) & M32, a) ^ a
        a = _rotr((a - s[2 * i]) & M32, b) ^ b
    a = (a - s[0]) & M32
    b = (b - s[1]) & M32
    return a.to_bytes(4, "little") + b.to_bytes(4, "little")


# OCB-style block mode, straight from the `aead` module docstring: blocks
# are bytes, field elements are big-endian ints mod x^64+x^4+x^3+x+1.

M64 = (1 << 64) - 1


def _times_x(v):
    carry = v >> 63
    v = (v << 1) & M64
    return v ^ 0x1B if carry else v


def _times_x_inv(v):
    if v & 1:
        v ^= (1 << 64) | 0x1B
    return v >> 1


def _ntz(i):
    n = 0
    while i % 2 == 0:
        i //= 2
        n += 1
    return n


def _ocb_core(key, rounds, counter, aad, text, decrypt):
    def e(v):
        return int.from_bytes(rc5_encrypt(key, rounds, v.to_bytes(8, "big")), "big")

    def d(v):
        return int.from_bytes(rc5_decrypt(key, rounds, v.to_bytes(8, "big")), "big")

    l = e(0)
    l_inv = _times_x_inv(l)
    r = e(counter ^ l)
    blocks = [text[i : i + 8] for i in range(0, len(text), 8)] or [b""]
    m = len(blocks)
    z = [None, l ^ r]
    for i in range(2, m + 1):
        lx = l
        for _ in range(_ntz(i)):
            lx = _times_x(lx)
        z.append(z[i - 1] ^ lx)

    out = b""
    checksum = 0
    for i in range(1, m):
        x = int.from_bytes(blocks[i - 1], "big")
        y = (d(x ^ z[i]) if decrypt else e(x ^ z[i])) ^ z[i]
        out += y.to_bytes(8, "big")
        checksum ^= y if decrypt else x
    final = blocks[-1]
    pad = e(len(final) * 8 ^ l_inv ^ z[m]).to_bytes(8, "big")
    out_final = bytes(a ^ b for a, b in zip(final, pad))
    out += out_final
    ct_final = final if decrypt else out_final
    checksum ^= int.from_bytes(ct_final + bytes(8 - len(ct_final)), "big")
    checksum ^= int.from_bytes(pad, "big")

    assert len(aad) < 8
    padded_aad = int.from_bytes(aad + b"\x80" + bytes(7 - len(aad)), "big")
    full_tag = e(checksum ^ z[m]) ^ e(padded_aad)
    return out, (full_tag >> 32).to_bytes(4, "big")


def ocb_seal(key, rounds, counter, aad, plaintext, auth):
    ct, tag = _ocb_core(key, rounds, counter, aad, plaintext, False)
    return ct, tag if auth else None


def ocb_open(key, rounds, counter, aad, ciphertext, tag, auth):
    pt, expect = _ocb_core(key, rounds, counter, aad, ciphertext, True)
    if auth and tag != expect:
        return None
    return pt


# Level-0 keystream XOR and tag, straight from the `aead` module docstring.


def _stream_block(key, counter, i):
    msg = b"\x05" + counter.to_bytes(4, "big") + i.to_bytes(4, "big")
    return hmac.new(key, msg, hashlib.sha256).digest()


def stream_xor(key, counter, text):
    keystream = b""
    i = 0
    while len(keystream) < len(text):
        keystream += _stream_block(key, counter, i)
        i += 1
    return bytes(t ^ k for t, k in zip(text, keystream))


def stream_tag(key, counter, aad, ciphertext):
    assert len(aad) <= 255
    msg = b"\x06" + counter.to_bytes(4, "big") + bytes([len(aad)]) + aad + ciphertext
    return hmac.new(key, msg, hashlib.sha256).digest()[:4]


def stream_seal(key, counter, aad, plaintext, auth):
    ct = stream_xor(key, counter, plaintext)
    return ct, stream_tag(key, counter, aad, ct) if auth else None


def stream_open(key, counter, aad, ciphertext, tag, auth):
    if auth and tag != stream_tag(key, counter, aad, ciphertext):
        return None
    return stream_xor(key, counter, ciphertext)


def trust_formula(record, weights):
    """Trust straight from the formula: T = sum of w_i * A_i over the six
    behavior ratios, each clamped into [0, 1], where an undefined ratio
    (zero denominator) counts 1 and A5, A6 are one minus the collision and
    drop ratios of a node that has sent or received."""
    def ratio(num, den):
        if den == 0:
            return 1.0
        return min(max(num / den, 0.0), 1.0)

    a = (
        ratio(record.ae_t1 - record.ae_t2, record.ae_t1),
        ratio(record.pss_t1 - record.pss_t2, record.pss_t1),
        ratio(record.craf, record.crf),
        ratio(record.draf, record.drf),
        1.0 if record.npt == 0 else 1.0 - ratio(record.npc, record.npt),
        1.0 if record.npr == 0 else 1.0 - ratio(record.pd, record.npr),
    )
    w = weights.as_tuple()
    return w[0] * a[0] + w[1] * a[1] + w[2] * a[2] + w[3] * a[3] + w[4] * a[4] + w[5] * a[5]


class ReferenceLedger:
    """A node's energy book in whole nanojoules, charged one `(kind, nj)` at
    a time: each amount is clamped to the battery left, `initial - total`,
    and the node dies once nothing is left (`initial - total == 0`), even on
    a 0 nJ charge. A dead node is charged nothing more. `clamped` says
    whether any amount was cut."""

    def __init__(self, initial):
        self.initial = initial
        self.spent = {"tx": 0, "rx": 0, "crypto": 0}
        self.alive = True
        self.clamped = False

    def total(self):
        return self.spent["tx"] + self.spent["rx"] + self.spent["crypto"]

    def charge(self, kind, nj):
        if not self.alive:
            return
        left = self.initial - self.total()
        if left < nj:
            self.clamped = True
        self.spent[kind] += min(nj, left)
        if self.initial == self.total():
            self.alive = False
