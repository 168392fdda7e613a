"""The benchmark's workloads: inputs made from a seed, timed calls, output checks.

Every workload calls the program only through names in ``wsnsec.__all__``.
A workload runs in units (a cycle of simulations, or one pass over the codec
stream); the harness repeats whole units until the run's time is up, so
every run does the same mix of work.

Each timed call goes through ``timed(fn, *args)``, which the harness
provides. The workload checks every call's output and counts a call whose
output is wrong as failed.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path
from typing import NamedTuple

PIN_SEEDS = range(1, 21)  # seeds on which pin.py confirms the digests are seed-independent
EXPECTED_PATH = Path(__file__).with_name("expected.json")

LOSS_THRESHOLD = 4
_M32 = (1 << 32) - 1


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scenario(api, name: str):
    """The three reference scenario policies for a 1000 J battery.

    Built from public names; the values are those of the presets the
    simulator ships (`agent.default_policy`).
    """
    def lvl(enc: str, auth: bool):
        return api.SecurityLevel(api.Encryption[enc], auth)

    presets = {
        "military-surveillance": (lvl("RC5_R12", True), lvl("RC5_R12", True), 0.0, 0.3),
        "habitat-monitoring": (lvl("RC5_R8", True), lvl("RC5_R4", True), 200.0, 0.3),
        "agricultural-farming": (lvl("XOR", True), lvl("XOR", True), 100.0, 0.2),
    }
    base, minimum, floor, alarm = presets[name]
    return api.ScenarioPolicy(
        name=name, base_level=base, min_level=minimum, energy_floor=floor, trust_alarm=alarm
    )


class Checks:
    """Failed output checks of one run, with the reason for each.

    The simulator workloads run an honest, loss-free network, where the
    seed picks only the key material: energy and trust do not depend on it.
    So one set of output digests, pinned in ``expected.json``, holds for
    every seed; ``pin.py`` confirms this on PIN_SEEDS before it writes them.
    """

    def __init__(self, workload: str):
        self.pinned: dict[str, str] = json.loads(EXPECTED_PATH.read_text())["digests"].get(workload, {})
        self.failures: list[str] = []
        self.scope = "pinned output digests (the same for every seed), and seed-independent invariants"

    def expect(self, ok: bool, what: str) -> bool:
        if not ok and len(self.failures) < 20:
            self.failures.append(what)
        return ok

    def digest(self, label: str, text: str) -> bool:
        got = csv_digest(text)
        return self.expect(got == self.pinned[label], f"{label}: digest {got} != pinned {self.pinned[label]}")

    def honest_network(self, label: str, report) -> bool:
        """With no adversary and no loss, every node lives, every receive
        decodes, and every on-air transmission is counted by its sender and
        decoded by at least one listener. Off-group uplinks are counted as
        sent but not on air; a group makes at most one per frame."""
        stats = report.nodes.values()
        rejects = sum(s.auth_rejects + s.replay_rejects + s.format_rejects + s.bcast_fail
                      + s.replay_accepted for s in stats)
        on_air = Counter(entry[3] for entry in report.slot_log)
        groups = len({address.group_id for address in report.nodes})
        uplinks = sum(s.packets_sent for s in stats) - len(report.slot_log)
        ok = (
            rejects == 0
            and all(s.alive for s in stats)
            and all(report.nodes[sender].packets_sent >= n for sender, n in on_air.items())
            and 0 <= uplinks <= report.frames * groups
            and sum(s.decode_ok for s in stats) >= len(report.slot_log)
        )
        return self.expect(ok, f"{label}: {rejects} rejects, {len(report.slot_log)} on air, "
                               f"{uplinks} uplinks in an honest, loss-free network")

    def run_report(self, label: str, report) -> bool:
        ok = self.honest_network(label, report)
        ok &= self.digest(f"{label}.energy", report.energy_csv())
        ok &= self.digest(f"{label}.trust", report.trust_csv())
        return ok


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------

SCENARIOS = ("military-surveillance", "habitat-monitoring", "agricultural-farming")


class Savings:
    """The paper's experiment: what adaptive protection saves over fixed.

    Why: this is criterion 1's shape (20 nodes in 2 groups, fixed against
    adaptive for all three scenarios), cut to 51 frames so one session
    re-key still happens at frame 50. Military runs RC5-12 everywhere, so
    the run is crypto-bound: RC5 takes the largest share of host time. It
    exercises the cipher core and, a little, the trust bookkeeping.
    """

    name = "savings"
    nodes, groups, frames = 20, 2, 51

    def __init__(self, api, seed: int):
        self.api = api
        self.checks = Checks(self.name)
        self.configs = [
            api.SimConfig(
                seed=seed, node_count=self.nodes, group_count=self.groups,
                sim_length=self.frames, session_length=50, scenario=scenario(api, name),
            )
            for name in SCENARIOS
        ]

    def _compare(self, config):
        return self.api.compare_fixed_vs_adaptive(config)

    def run_unit(self, timed) -> tuple[int, int, int]:
        """One cycle over the three scenarios; returns (calls, failed, packets sent)."""
        saving, failed, packets = {}, 0, 0
        for config in self.configs:
            report = timed(self._compare, config)
            name = config.scenario.name
            saving[name] = report.total_saving_pct
            ok = self.checks.run_report(f"{name}.fixed", report.fixed)
            ok &= self.checks.run_report(f"{name}.adaptive", report.adaptive)
            ok &= self.checks.digest(f"{name}.savings", report.savings_csv())
            failed += not ok
            packets += sum(
                s.packets_sent for r in (report.fixed, report.adaptive) for s in r.nodes.values()
            )
        mil, hab, agr = (saving[n] for n in SCENARIOS)
        if not self.checks.expect(
            agr > hab > mil and abs(mil) < 2.0,
            f"savings order: agri {agr:.4f} > habitat {hab:.4f} > military {mil:.4f}, |military| < 2",
        ):
            failed = len(self.configs)
        return len(self.configs), failed, packets


class BigGroup:
    """One group at the addressable maximum of 254 members.

    Why: trust bookkeeping is O(n^2) per frame (every member observes every
    transmission) and every run starts with O(n^2) key derivations. The
    agricultural scenario runs XOR+auth, whose keystream and tag are HMAC,
    so no RC5 is on the data path: this workload exercises the trust ledger
    and the simulator's bookkeeping and bypasses the cipher core.
    """

    name = "big_group"
    nodes, frames = 254, 3

    def __init__(self, api, seed: int):
        self.api = api
        self.checks = Checks(self.name)
        self.config = api.SimConfig(
            seed=seed, node_count=self.nodes, group_count=1, sim_length=self.frames,
            scenario=scenario(api, "agricultural-farming"), adaptive=True,
        )

    def _run(self, config):
        return self.api.run(config)

    def run_unit(self, timed) -> tuple[int, int, int]:
        """One run; returns (calls, failed, packets sent)."""
        report = timed(self._run, self.config)
        ok = self.checks.run_report("adaptive", report)
        packets = sum(s.packets_sent for s in report.nodes.values())
        return 1, int(not ok), packets


# ---------------------------------------------------------------------------
# Codec workload
# ---------------------------------------------------------------------------

LEVELS = tuple((enc, auth) for enc in ("XOR", "RC5_R4", "RC5_R8", "RC5_R12") for auth in (True, False))


def model_decode(last: int, counter: int, auth: bool, tag_ok: bool = True) -> tuple[str, int]:
    """Reference receiver: outcome of decoding a wire sealed under `counter`
    when the last accepted counter is `last`; returns (outcome, new last).

    The receiver splices the wire's counter octet onto its expected counter
    and, for tagged packets, retries up to LOSS_THRESHOLD 256-wraps higher.
    Only the true counter verifies a tag. "garbage" is an untagged packet
    accepted under the wrong counter.
    """
    base = (((last + 1) & _M32) & ~0xFF) | (counter & 0xFF)
    if auth:
        for wrap in range(LOSS_THRESHOLD + 1):
            if tag_ok and (base + (wrap << 8)) & _M32 == counter:
                return ("ReplayError", last) if counter <= last else ("ok", counter)
        return "AuthenticationError", last
    if base <= last:
        return "ReplayError", last
    return ("ok", base) if base == counter else ("garbage", base)


class Op(NamedTuple):
    """One codec operation and what the reference receiver expects of it."""

    kind: str  # "send", or an attack on the wire of send `ref`: "replay", "forge", "format"
    level: int  # index into LEVELS
    payload: bytes = b""
    skip: int = 0  # packets lost on the air before this send
    ref: int = -1
    expect: str = "ok"  # or the name of the DecodeError subclass raised
    last: int = 0  # receive counter after the operation


def codec_stream(seed: int, blocks: int) -> list[Op]:
    """A seeded stream of sends and attacks with the expected outcome of each.

    Each block holds the same multiset of operations in a seeded order, so
    every seed has the same mix: one send for each of the 8 levels and each
    payload length 0..29; loss bursts that need 1..4 counter wraps (tagged
    levels) or stay inside the counter window (untagged levels); three
    forged tags per tagged level; two replays and one truncated wire per
    level. Replays of an untagged wire that the receiver would accept under
    a wrong counter (across a counter-window edge) are left out: without a
    tag the codec promises only counter monotonicity, and whether such a
    packet may move the receive counter is an open receiver-policy change
    that the benchmark should not pin either way.
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    last = 0  # sender's last counter == receiver's last accepted counter
    latest: dict[int, tuple[int, int]] = {}  # level -> (op index, counter)
    for _ in range(blocks):
        specs = [("send", lv, n, None) for lv in range(len(LEVELS)) for n in range(30)]
        for lv, (_, auth) in enumerate(LEVELS):
            bursts = (1, 2, 3, 4) if auth else (0,)
            picks = rng.sample([i for i, s in enumerate(specs) if s[1] == lv], len(bursts))
            for i, wraps in zip(picks, bursts):
                specs[i] = ("send", lv, specs[i][2], wraps)
            specs += [("forge", lv, 0, None)] * (3 if auth else 0)
            specs += [("replay", lv, 0, None)] * 2 + [("format", lv, 0, None)]
        rng.shuffle(specs)
        queue = list(specs)
        while queue:
            kind, lv, length, wraps = queue.pop(0)
            auth = LEVELS[lv][1]
            if kind == "send":
                nxt = last + 1
                counter = nxt
                if wraps is not None:
                    lsb = rng.randrange(nxt & 0xFF, 256) if wraps == 0 else rng.randrange(256)
                    counter = (((nxt >> 8) + wraps) << 8) | lsb
                expect, new_last = model_decode(last, counter, auth)
                assert expect == "ok" and new_last == counter
                ops.append(Op("send", lv, rng.randbytes(length), counter - nxt, -1, "ok", counter))
                latest[lv] = (len(ops) - 1, counter)
                last = counter
                continue
            if lv not in latest:
                queue.append((kind, lv, length, wraps))
                continue
            ref, counter = latest[lv]
            if kind == "format":
                expect = "FormatError"
            else:
                expect, _ = model_decode(last, counter, auth, tag_ok=kind != "forge")
            if expect in ("ok", "garbage"):
                continue
            ops.append(Op(kind, lv, ref=ref, expect=expect, last=last))
    return ops


def _tamper(wire: bytes, kind: str) -> bytes:
    if kind == "forge":
        return wire[:-1] + bytes((wire[-1] ^ 0x01,))
    if kind == "format":
        return wire[:-1]
    return wire


class Codec:
    """One sender and one receiver on the link-layer codec, no simulator.

    Why: it isolates rc5, aead and linksec per packet, as a mote would run
    them (TinySec seals and opens one short packet at a time), and it uses
    the receive side unlike the simulator does: loss bursts drive the
    counter-wrap search, and replays, forged tags and truncated wires reach
    every reject path. It bypasses the trust ledger. One operation is an
    encode plus its decode, or one decode that is rejected.
    """

    name = "codec"
    blocks = 4

    def __init__(self, api, seed: int):
        self.api = api
        self.checks = Checks(self.name)
        self.checks.scope = "every operation's outcome against the reference receiver model, for any seed"
        self.ops = codec_stream(seed, self.blocks)
        master = api.SymmetricKey(hashlib.sha256(b"codec%d" % seed).digest()[:10])
        head, src, dst = (api.NodeAddress(1, i) for i in (1, 2, 3))
        self.tx_ring = api.derive_keyring(master, src, head, [head, dst])
        self.rx_ring = api.derive_keyring(master, dst, head, [head, src])
        self.dest = dst.node_id
        self.levels = [api.SecurityLevel(api.Encryption[enc], auth) for enc, auth in LEVELS]

    def _exchange(self, level, tx_state, payload, rx_state):
        wire = self.api.encode(level, self.tx_ring, tx_state, self.dest, payload)
        try:
            return wire, self.api.decode(wire, self.rx_ring, rx_state, loss_threshold=LOSS_THRESHOLD)
        except Exception as exc:  # a wrong outcome, checked below
            return wire, exc

    def _receive(self, wire, rx_state):
        try:
            return self.api.decode(wire, self.rx_ring, rx_state, loss_threshold=LOSS_THRESHOLD)
        except Exception as exc:  # the expected reject, checked below
            return exc

    def run_unit(self, timed) -> tuple[int, int, int]:
        """One pass over the stream from fresh counters; returns (calls, failed, packets)."""
        tx_state, rx_state = self.api.CounterState(), self.api.CounterState()
        wires: list[bytes] = [b""] * len(self.ops)
        failed = 0
        for i, op in enumerate(self.ops):
            if op.kind == "send":
                tx_state.value += op.skip  # packets lost on the air
                wires[i], got = timed(self._exchange, self.levels[op.level], tx_state, op.payload, rx_state)
                ok = got == op.payload
            else:
                got = timed(self._receive, _tamper(wires[op.ref], op.kind), rx_state)
                mro = [c.__name__ for c in type(got).__mro__]
                ok = type(got).__name__ == op.expect and "DecodeError" in mro
            ok = ok and rx_state.value == op.last
            if not self.checks.expect(ok, f"op {i} {op.kind} {LEVELS[op.level]}: expected {op.expect}, got {got!r}"):
                failed += 1
        return len(self.ops), failed, len(self.ops)


WORKLOADS = {cls.name: cls for cls in (Savings, BigGroup, Codec)}


def warm_up(api) -> None:
    """One encode and decode per security level, so code paths and caches are warm."""
    master = api.SymmetricKey(bytes(10))
    head, peer = api.NodeAddress(1, 1), api.NodeAddress(1, 2)
    tx_ring = api.derive_keyring(master, peer, head, [head])
    rx_ring = api.derive_keyring(master, head, head, [peer])
    tx_state, rx_state = api.CounterState(), api.CounterState()
    for enc, auth in LEVELS:
        level = api.SecurityLevel(api.Encryption[enc], auth)
        api.decode(api.encode(level, tx_ring, tx_state, head.node_id, b"warm-up"), rx_ring, rx_state)
