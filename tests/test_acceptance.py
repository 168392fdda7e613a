"""Acceptance suite: one test per release criterion, printed pass lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The timed criteria warm the RC5 key-schedule cache first so they
measure the work, not key expansion.
"""

import pathlib
import random
import time

import pytest

import oracles
from wsnsec import aead, linksec, rc5, sim
from wsnsec.addressing import BROADCAST_NODE_ID, NodeAddress
from wsnsec.agent import default_policy
from wsnsec.config import AdversarySpec, EnergyModel, SimConfig
from wsnsec.keys import SymmetricKey, derive_keyring, prf
from wsnsec.linksec import (
    AuthenticationError,
    CounterState,
    DecodeError,
    Encryption,
    ReplayError,
    SecurityLevel,
)
from wsnsec.trust import TrustWeights, compute_trust

VECTOR_DIR = pathlib.Path(__file__).parent / "vectors"
ALL_LEVELS = [SecurityLevel(Encryption(e), a) for e in range(4) for a in (True, False)]


def _pass(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


@pytest.fixture(scope="module")
def rings():
    master = SymmetricKey.from_hex("00112233445566778899")
    head = NodeAddress(1, 1)
    src = NodeAddress(1, 2)
    ring_src = derive_keyring(master, src, head, [head])
    ring_head = derive_keyring(master, head, head, [src])
    return ring_src, ring_head


def test_criterion_1_savings_ordering():
    """Fixed-vs-adaptive savings: agriculture > habitat > military, with
    military under 2% of fixed-arm energy; 20 nodes, 2 groups, 500 frames,
    one seed, all three comparisons inside 60 s."""
    t0 = time.perf_counter()
    savings = {}
    for name in ("military-surveillance", "habitat-monitoring", "agricultural-farming"):
        cfg = SimConfig(
            seed=7, node_count=20, group_count=2, sim_length=500, session_length=50,
            scenario=default_policy(name, 1000.0),
        )
        savings[name] = sim.compare_fixed_vs_adaptive(cfg).total_saving_pct
    elapsed = time.perf_counter() - t0
    mil = savings["military-surveillance"]
    hab = savings["habitat-monitoring"]
    agr = savings["agricultural-farming"]
    assert elapsed < 60.0, f"comparison took {elapsed:.1f}s"
    assert agr > hab > mil
    assert abs(mil) < 2.0
    _pass(1, f"saving% agri={agr:.3f} > habitat={hab:.3f} > military={mil:.3f} "
             f"({elapsed:.1f}s)")


def test_criterion_2_packet_overhead_parity(rings):
    """Addressing costs 3 octets against the 4-octet two-address layout it
    replaces, while covering 256*256 = 65536 nodes."""
    assert linksec.ADDRESS_OVERHEAD == 3
    assert linksec.TINYSEC_ADDRESS_OVERHEAD == 4
    from wsnsec.addressing import ADDRESS_SPACE
    assert ADDRESS_SPACE == 256 * 256 == 65536
    ring_src, ring_head = rings
    wire = linksec.encode(
        SecurityLevel(Encryption.RC5_R4, True), ring_src, CounterState(), 1, b"x" * 10
    )
    # group + dest + src octets are the entire addressing in the header
    assert wire[0] == 1 and wire[1] == 1 and wire[2] == 2
    assert len(wire) == linksec.HEADER_BYTES + 10 + 4
    _pass(2, "addressing overhead 3 octets vs 4, address space 65536")


def test_criterion_3_codec_property_suite(rings):
    """10^4 randomized round-trips over all 8 level/auth combinations,
    exhaustive single-bit corruption rejected, zero accepted replays over
    10^4 replayed wires, all under 30 s."""
    ring_src, ring_head = rings
    rnd = random.Random(0xACCE97)
    t0 = time.perf_counter()

    per_combo = 1250  # 8 * 1250 = 10**4
    tx = CounterState()
    rx = CounterState()
    for level in ALL_LEVELS:
        for _ in range(per_combo):
            payload = rnd.randbytes(rnd.randrange(30))
            wire = linksec.encode(level, ring_src, tx, 1, payload)
            assert linksec.decode(wire, ring_head, rx) == payload
    roundtrips = per_combo * len(ALL_LEVELS)

    # Exhaustive single-bit corruption of one fixed authenticated packet.
    wire = linksec.encode(
        SecurityLevel(Encryption.RC5_R8, True), ring_src, CounterState(50),
        1, bytes(range(10)),
    )
    flips = 0
    for bit in range(len(wire) * 8):
        bad = bytearray(wire)
        bad[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(DecodeError):
            linksec.decode(bytes(bad), ring_head, CounterState(50))
        flips += 1

    # Replays: every accepted wire presented again is rejected.
    replays = 0
    level = SecurityLevel(Encryption.RC5_R4, True)
    tx2, rx2 = CounterState(), CounterState()
    wires = []
    for _ in range(10_000):
        wires.append(linksec.encode(level, ring_src, tx2, 1, b"r"))
        linksec.decode(wires[-1], ring_head, rx2)
    for wire in wires:
        with pytest.raises((ReplayError, AuthenticationError)):
            linksec.decode(wire, ring_head, rx2)
        replays += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"property suite took {elapsed:.1f}s"
    _pass(3, f"{roundtrips} round-trips, {flips} bit-flips rejected, "
             f"{replays} replays rejected ({elapsed:.1f}s)")


def test_criterion_4_increment_and_check_recovery(rings):
    """Loss bursts up to loss_threshold*256 counter units recover (>= 99%
    of surviving packets decode); longer bursts are rejected."""
    ring_src, ring_head = rings
    level = SecurityLevel(Encryption.RC5_R8, True)
    loss_threshold = 4
    rnd = random.Random(1717)

    tx, rx = CounterState(), CounterState()
    survived = decoded = 0
    for _ in range(400):
        tx.value += rnd.randrange(0, loss_threshold * 256)  # lost burst
        wire = linksec.encode(level, ring_src, tx, 1, b"data")
        survived += 1
        try:
            assert linksec.decode(wire, ring_head, rx, loss_threshold) == b"data"
            decoded += 1
        except DecodeError:
            pass
    rate = decoded / survived
    assert rate >= 0.99

    # A burst beyond the threshold cannot be ridden out.
    tx.value += (loss_threshold + 1) * 256
    wire = linksec.encode(level, ring_src, tx, 1, b"data")
    with pytest.raises(AuthenticationError):
        linksec.decode(wire, ring_head, rx, loss_threshold)
    _pass(4, f"{decoded}/{survived} post-burst packets decoded "
             f"({100 * rate:.1f}%), over-threshold burst rejected")


def test_criterion_5_key_management_properties():
    """Pairwise symmetry over 10^3 random pairs, master deleted from every
    ring, capture containment, domain-separated pinned derivations."""
    rnd = random.Random(555)
    for _ in range(1000):
        g = rnd.randrange(256)
        i = NodeAddress(g, rnd.randrange(1, 255))
        j = NodeAddress(g, rnd.randrange(1, 255))
        if i == j:
            continue
        head = NodeAddress(g, rnd.randrange(1, 255))
        master = SymmetricKey(rnd.randbytes(10))
        ring_i = derive_keyring(master, i, head, [j])
        ring_j = derive_keyring(master, j, head, [i])
        assert ring_i.pairwise[j] == ring_j.pairwise[i]
        for ring in (ring_i, ring_j):
            held = [
                key
                for value in vars(ring).values()
                for key in (value.values() if isinstance(value, dict) else (value,))
            ]
            assert master not in held

    # Capture containment: everything a ring holds, run through the PRF
    # over every plausible encoding, reaches no foreign key.
    master = SymmetricKey(bytes.fromhex("a0a1a2a3a4a5a6a7a8a9"))
    g = 3
    a, b, c, d = (NodeAddress(g, n) for n in (1, 2, 3, 9))
    ring_a = derive_keyring(master, a, a, [b, c])
    ring_b = derive_keyring(master, b, a, [a, c])
    ring_d = derive_keyring(master, d, a, [])
    captured = [ring_a.node_based, ring_a.broadcast, *ring_a.pairwise.values(),
                *ring_a.peer_broadcast.values(), *ring_a.peer_node_based.values()]
    targets = {ring_b.pairwise[c].data, ring_d.node_based.data, ring_d.broadcast.data}
    messages = []
    for tag in (b"\x01", b"\x02", b"\x03", b"\x04"):
        for x in (a, b, c, d):
            messages.append(tag + x.encode())
            for y in (a, b, c, d):
                messages.append(tag + x.encode() + y.encode())
    derived = {prf(k, m).data for k in captured for m in messages}
    assert not derived & targets

    # Pinned vectors from the hand oracle are pairwise distinct across the
    # four derivation formulas (domain separation).
    pinned = [
        line.split()[-1]
        for line in (VECTOR_DIR / "key_vectors.txt").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith(("master", "head"))
    ]
    assert len(pinned) == len(set(pinned))
    _pass(5, "pairwise symmetry x1000, master absence, capture containment, "
             "domain separation")


def test_criterion_6_trust_and_election():
    """compute_trust in [0,1) over 10^5 records; monotonicity over 10^4
    perturbation pairs; 1 dropper among 3 honest never elected in 100
    seeded runs and decodes 0 broadcasts after the first 0.4-threshold
    re-key."""
    rnd = random.Random(616)
    weights = TrustWeights()
    from test_trust import random_valid_record

    for _ in range(100_000):
        t = compute_trust(random_valid_record(rnd), weights)
        assert 0.0 <= t < 1.0

    for _ in range(10_000):
        rec = random_valid_record(rnd)
        t0 = compute_trust(rec, weights)
        if rec.pd < rec.npr:
            rec.pd += 1
            assert compute_trust(rec, weights) <= t0
            rec.pd -= 1
        if rec.draf < rec.drf:
            rec.draf += 1
            assert compute_trust(rec, weights) >= t0

    dropper = NodeAddress(0, 3)
    em = EnergyModel(initial_energy=6.0)
    elected = 0
    runs_with_elections = 0
    for seed in range(100):
        cfg = SimConfig(
            seed=seed, node_count=4, group_count=1, sim_length=120,
            session_length=15, scenario=default_policy("habitat-monitoring", 6.0),
            energy_model=em, rekey_threshold=0.4,
            adversaries=(AdversarySpec(dropper, "drop-fraction", 1.0, 0),),
        )
        report = sim.run(cfg)
        if report.elections:
            runs_with_elections += 1
        if any(e.new_head == dropper for e in report.elections):
            elected += 1
        assert report.rekeys, "expected session re-keys"
        assert report.nodes[dropper].bcast_ok_after_rekey == 0
    assert runs_with_elections == 100
    assert elected == 0
    _pass(6, "trust in [0,1) x100000, monotone x10000, dropper elected 0/100, "
             "0 post-re-key broadcast decodes")


def test_criterion_7_determinism():
    """Byte-identical CSV outputs for repeated runs of one seeded config."""
    cfg = SimConfig(
        seed=99, node_count=12, group_count=2, sim_length=60, session_length=20,
        scenario=default_policy("habitat-monitoring", 1000.0),
        adversaries=(AdversarySpec(NodeAddress(0, 4), "drop-fraction", 0.5, 5),),
    )
    r1, r2 = sim.run(cfg), sim.run(cfg)
    assert r1.energy_csv() == r2.energy_csv()
    s1 = sim.compare_fixed_vs_adaptive(cfg)
    s2 = sim.compare_fixed_vs_adaptive(cfg)
    assert s1.savings_csv() == s2.savings_csv()
    _pass(7, "repeated runs byte-identical (energy and savings CSVs)")


def test_criterion_8_rc5_correctness():
    """Pinned vectors from the independent straight-line oracle match, and
    decrypt inverts encrypt over 10^4 random blocks."""
    pinned = 0
    for line in (VECTOR_DIR / "rc5_vectors.txt").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        rounds_s, key_hex, pt_hex, ct_hex = line.split()
        rounds, key = int(rounds_s), bytes.fromhex(key_hex)
        pt, ct = bytes.fromhex(pt_hex), bytes.fromhex(ct_hex)
        assert rc5.encrypt_block(key, rounds, pt) == ct
        assert oracles.rc5_encrypt(key, rounds, pt) == ct
        pinned += 1

    rnd = random.Random(808)
    for _ in range(10_000):
        key = rnd.randbytes(10)
        rounds = rnd.choice((4, 8, 12))
        block = rnd.randbytes(8)
        assert rc5.decrypt_block(key, rounds, rc5.encrypt_block(key, rounds, block)) == block
    _pass(8, f"{pinned} pinned oracle vectors, 10^4 random round-trips")
