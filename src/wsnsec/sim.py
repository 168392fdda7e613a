"""Deterministic discrete-event simulator for grouped sensor nodes.

Model (desk scale, normative for the closed-form energy tests):

* Nodes are split into groups; each group is a single-hop clique scheduled
  by TDM. Transmissions within a (group, frame) take consecutive slots and
  only the slot owner transmits; everyone else listens promiscuously.
  Non-destinations pay header-only receive energy (early rejection),
  destinations and broadcast listeners receive and decrypt the whole
  packet. Replay attackers transmit out of turn, which observers book as
  collisions.
* Traffic per frame and group: the head broadcasts a schedule beacon
  (routing control), every member sends one sensed-data packet to the
  head, and the head hands the previous frame's aggregate (member payloads
  concatenated and truncated to the maximum payload) to a rotating duty
  member, which relays it toward the base station and re-broadcasts the
  beacon. The base-station uplink is modeled as transmit cost only; in a
  single-member group the head stages (seals) the aggregate without radio.
* Sessions: every `session_length` frames the head derives a fresh session
  key from a per-session seed handed over by the safe base station out of
  band, and delivers it under pairwise keys to members whose trust reaches
  the re-key threshold. Group broadcasts ride the session key once one
  exists, so an excluded member can no longer read them.
* Elections: when the head's remaining energy falls below 20% of the group
  median it calls an election (broadcast + one vote per member + result
  broadcast) and hands over to the vote winner.
* Adversaries: `drop-fraction` nodes drop duty obligations, `replay-attacker`
  nodes retransmit a captured packet out of slot each frame, `captured`
  nodes advertise rising energy readings and trip the suspicious flag.
* Observation: every alive member of a group hears every transmission of
  its clique, and observation is loss-free (`loss_rate` drops deliveries,
  not observations). All alive members therefore see the same events about
  every subject but themselves, so each group keeps one shared ledger of
  neighbor rows and a member's trust table is a view of it without its own
  row. A node that dies keeps a frozen copy of what it had seen. Lossy or
  partial observation would need one table per observer again.
* Reception: every destination listener pays for its own open, and the
  simulator keeps a separate receive counter per listener and direction.
  On the host, the listeners of one transmission share a memo of opens, so
  a broadcast heard under one key and counter is verified and decrypted
  once; every listener's energy, counters and outcome are as if it had
  opened the wire itself.
* Header-only listens: in a loss-free group whose every alive member has
  more battery left than one frame can spend, the non-destinations of a
  unicast are not debited one by one. The group counts the listen, and each
  node adds its pending header costs to its receive energy one at a time,
  in order, before its next debit or energy read. No debit of such a frame
  is clamped and no node dies in it, so the floats, deaths and frozen views
  are those of debiting every listener at once. Under loss (drawn per
  listener) or near a death, every listener is debited as the packet goes
  by.

Runs are pure functions of the config: one `random.Random(seed)` instance
drives adversary drops and channel loss, everything else is arithmetic.
"""

from __future__ import annotations

import heapq
import io
import json
import math
import random
import statistics
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from . import aead, linksec
from .addressing import BROADCAST_NODE_ID, NodeAddress
from .agent import (
    PacketClass,
    ScenarioPolicy,
    SecurityAgent,
    SCENARIO_ALIASES,
    SCENARIO_NAMES,
    default_policy,
)
from .keys import (
    KeyRing,
    SymmetricKey,
    derive_group_keyrings,
    derive_session_key,
    prf,
    rekey_group,
)
from .linksec import CounterState, Encryption, SecurityLevel
from .trust import CSV_COLUMNS, TrustTable, TrustWeights, run_election

BASE_STATION = NodeAddress(0, 0)
MAX_GROUP_MEMBERS = 254  # node id 0 is the base station, 0xFF is broadcast
_SESSION_SEED_TAG = b"\x10"

ADVERSARY_BEHAVIORS = ("drop-fraction", "replay-attacker", "captured")


# =============================================================================
# Configuration
# =============================================================================

@dataclass(frozen=True)
class EnergyModel:
    tx_per_octet: float = 0.0006
    rx_per_octet: float = 0.0003
    rc5_per_block_per_round: float = 0.000002
    xor_per_octet: float = 0.000001
    mac_fixed: float = 0.00001
    initial_energy: float = 1000.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and non-negative")


@dataclass(frozen=True)
class AdversarySpec:
    node: NodeAddress
    behavior: str
    drop_fraction: float = 1.0
    start_frame: int = 0

    def __post_init__(self) -> None:
        if self.behavior not in ADVERSARY_BEHAVIORS:
            raise ValueError(f"behavior must be one of {ADVERSARY_BEHAVIORS}")
        if not 0.0 <= self.drop_fraction <= 1.0:
            raise ValueError("drop_fraction must be in [0, 1]")
        if self.start_frame < 0:
            raise ValueError("start_frame must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 1
    node_count: int = 20
    group_count: int = 2
    session_length: int = 50
    sim_length: int = 500
    scenario: ScenarioPolicy = None  # type: ignore[assignment]
    adaptive: bool = True
    adversaries: tuple[AdversarySpec, ...] = ()
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    trust_weights: TrustWeights = field(default_factory=TrustWeights)
    rekey_threshold: float = 0.4
    loss_threshold: int = linksec.DEFAULT_LOSS_THRESHOLD
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit 64 bits")
        if not 1 <= self.group_count <= 256:
            raise ValueError("group_count must be in 1..256")
        if not 1 <= self.node_count <= 65536:
            raise ValueError("node_count must be in 1..65536")
        per_group = -(-self.node_count // self.group_count)
        if per_group > MAX_GROUP_MEMBERS:
            raise ValueError(
                f"groups of {per_group} exceed {MAX_GROUP_MEMBERS} addressable members"
            )
        if self.session_length < 1:
            raise ValueError("session_length must be at least one frame")
        if self.sim_length < 0:
            raise ValueError("sim_length must be non-negative")
        if not 0.0 <= self.rekey_threshold < 1.0:
            raise ValueError("rekey_threshold must be in [0, 1)")
        if self.loss_threshold < 0:
            raise ValueError("loss_threshold must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.scenario is None:
            object.__setattr__(
                self,
                "scenario",
                default_policy("habitat-monitoring", self.energy_model.initial_energy),
            )


# =============================================================================
# Reports
# =============================================================================

@dataclass
class EnergyLedger:
    tx: float = 0.0
    rx: float = 0.0
    crypto: float = 0.0

    @property
    def total(self) -> float:
        return self.tx + self.rx + self.crypto


@dataclass
class NodeStats:
    address: NodeAddress
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    alive: bool = True
    packets_sent: int = 0
    decode_ok: int = 0
    auth_rejects: int = 0
    replay_rejects: int = 0
    format_rejects: int = 0
    replay_accepted: int = 0
    bcast_ok_before_rekey: int = 0
    bcast_ok_after_rekey: int = 0
    bcast_fail: int = 0


@dataclass(frozen=True)
class ElectionEvent:
    frame: int
    group_id: int
    old_head: NodeAddress
    new_head: NodeAddress
    vice_head: Optional[NodeAddress]


@dataclass(frozen=True)
class RekeyEvent:
    frame: int
    group_id: int
    session_index: int
    recipients: tuple[NodeAddress, ...]
    excluded: tuple[NodeAddress, ...]


@dataclass
class SimReport:
    """What one run produced.

    `trust_tables` holds each node's trust table at the end of the run.
    The tables of nodes alive at the end share their row objects, one per
    subject and group; a node that died holds copies made at its death.
    """

    seed: int
    scenario_name: str
    adaptive: bool
    frames: int
    nodes: dict[NodeAddress, NodeStats]
    elections: list[ElectionEvent]
    rekeys: list[RekeyEvent]
    trust_tables: dict[NodeAddress, TrustTable]
    slot_log: list[tuple[int, int, int, NodeAddress, bool]]

    def total_energy(self) -> float:
        return sum(s.ledger.total for s in self.nodes.values())

    def energy_csv(self) -> str:
        buf = io.StringIO()
        buf.write("node,tx_j,rx_j,crypto_j,total_j\n")
        for addr in sorted(self.nodes):
            led = self.nodes[addr].ledger
            buf.write(
                f"{addr},{led.tx:.9f},{led.rx:.9f},{led.crypto:.9f},{led.total:.9f}\n"
            )
        return buf.getvalue()

    def summary_text(self) -> str:
        lines = [
            f"scenario: {self.scenario_name}",
            f"mode: {'adaptive' if self.adaptive else 'fixed'}",
            f"frames: {self.frames}  seed: {self.seed}",
            f"total energy: {self.total_energy():.9f} J",
            f"elections: {len(self.elections)}  re-keys: {len(self.rekeys)}",
        ]
        return "\n".join(lines) + "\n"

    def trust_csv(self) -> str:
        """Every observer's neighbor table, one header, fixed column order."""
        lines = [",".join(CSV_COLUMNS)]
        for addr in sorted(self.trust_tables):
            lines.extend(self.trust_tables[addr].to_csv().splitlines()[1:])
        return "\n".join(lines) + "\n"


@dataclass
class SavingsReport:
    scenario_name: str
    fixed: SimReport
    adaptive: SimReport

    def per_node(self) -> list[tuple[NodeAddress, float, float, float]]:
        rows = []
        for addr in sorted(self.fixed.nodes):
            f = self.fixed.nodes[addr].ledger.total
            a = self.adaptive.nodes[addr].ledger.total
            pct = 100.0 * (f - a) / f if f > 0 else 0.0
            rows.append((addr, f, a, pct))
        return rows

    @property
    def total_saving_pct(self) -> float:
        f = self.fixed.total_energy()
        if f <= 0:
            return 0.0
        return 100.0 * (f - self.adaptive.total_energy()) / f

    def savings_csv(self) -> str:
        buf = io.StringIO()
        buf.write("node,fixed_j,adaptive_j,saving_pct\n")
        for addr, f, a, pct in self.per_node():
            buf.write(f"{addr},{f:.9f},{a:.9f},{pct:.9f}\n")
        return buf.getvalue()

    def summary_text(self) -> str:
        return (
            f"scenario: {self.scenario_name}\n"
            f"fixed energy:    {self.fixed.total_energy():.9f} J\n"
            f"adaptive energy: {self.adaptive.total_energy():.9f} J\n"
            f"total saving:    {self.total_saving_pct:.4f} %\n"
        )


# =============================================================================
# Internal node / group state
# =============================================================================

class _Channel:
    """What a group's members share without holding each other: the count
    of header-only listens deferred so far, and the count of deaths."""

    def __init__(self) -> None:
        self.deferred = 0
        self.deaths = 0


class _Node:
    def __init__(
        self,
        addr: NodeAddress,
        ring: KeyRing,
        ledger: TrustTable,
        channel: _Channel,
        config: SimConfig,
    ):
        self.addr = addr
        self.ring = ring
        self.ledger = ledger
        self.channel = channel
        self.heard = 0  # deferred listens settled, or sat out as sender or destination
        self.frozen: Optional[TrustTable] = None
        self.agent = SecurityAgent(config.scenario)
        self.stats = NodeStats(address=addr)
        self.model = config.energy_model
        self.adversary: Optional[AdversarySpec] = None
        self.captured_wire: Optional[tuple[bytes, int]] = None  # (wire, dest)
        self.out_ctr: dict[int, CounterState] = {}
        self.in_ctr: dict[tuple[int, int], CounterState] = {}

    @property
    def alive(self) -> bool:
        return self.stats.alive

    @property
    def remaining(self) -> float:
        self.settle()
        return self.model.initial_energy - self.stats.ledger.total

    def settle(self) -> None:
        """Charge the header-only listens deferred since the last settle, one
        addition each, as the eager debits would have made them."""
        pending = self.channel.deferred - self.heard
        if pending and self.stats.alive:
            spent = self.stats.ledger
            rx = spent.rx
            header_rx = self.model.rx_per_octet * linksec.HEADER_BYTES
            for _ in range(pending):
                rx += header_rx
            spent.rx = rx
            self.heard += pending

    def debit(self, kind: str, joules: float) -> None:
        stats = self.stats
        if not stats.alive:
            return
        self.settle()
        # `remaining` inlined, summed in `EnergyLedger.total`'s order so the
        # floats are bit-identical.
        spent = stats.ledger
        initial = self.model.initial_energy
        joules = min(joules, initial - (spent.tx + spent.rx + spent.crypto))
        if kind == "rx":
            spent.rx += joules
        elif kind == "crypto":
            spent.crypto += joules
        elif kind == "tx":
            spent.tx += joules
        else:
            raise ValueError(f"unknown energy kind {kind!r}")
        if initial - (spent.tx + spent.rx + spent.crypto) <= 0:
            stats.alive = False
            self.channel.deaths += 1
            # The dead observe nothing more: keep copies of the rows seen so far.
            self.frozen = TrustTable(
                self.addr,
                self.ledger.weights,
                {s: replace(rec) for s, rec in self.view().rows.items()},
            )

    def view(self) -> TrustTable:
        """This node's trust table: the group ledger without its own row,
        or the copy frozen at its death."""
        if self.frozen is not None:
            return self.frozen
        rows = dict(self.ledger.rows)
        rows.pop(self.addr, None)
        return TrustTable(self.addr, self.ledger.weights, rows)

    def counter_to(self, dest: int) -> CounterState:
        return self.out_ctr.setdefault(dest, CounterState())

    def counter_from(self, src: int, dest: int) -> CounterState:
        return self.in_ctr.setdefault((src, dest), CounterState())


class _Group:
    def __init__(
        self, gid: int, nodes: list[_Node], ledger: TrustTable, channel: _Channel
    ):
        self.gid = gid
        self.nodes = sorted(nodes, key=lambda n: n.addr)
        self.by_id = {n.addr.node_id: n for n in self.nodes}
        self.ledger = ledger  # one row per observed subject, shared by all members
        self.channel = channel
        # Alive members in address order. Rebound, never mutated, after a
        # death, so a loop over an earlier list keeps its snapshot.
        self.alive = self.nodes
        self.deaths_seen = 0
        self.replayers: list[_Node] = []
        self.defer_headers = False
        self.head = self.nodes[0]
        self.vice: Optional[_Node] = None
        self.pending_aggregate: Optional[bytes] = None
        self.session_index = 0
        self.first_rekey_frame: Optional[int] = None
        self.last_election_frame: Optional[int] = None
        self.next_slot = 0

    def hand_over(self, successor: _Node) -> None:
        """Make `successor` the head, on the group and in every member's ring."""
        self.head = successor
        for node in self.nodes:
            node.ring.head = successor.addr


def _reading(node: _Node, frame: int) -> bytes:
    """The node's sensed payload for one frame."""
    return bytes((frame + node.addr.node_id + i) & 0xFF for i in range(10))


def _acts(node: _Node, behavior: str, frame: int) -> bool:
    """Whether the node is an adversary of this behavior, active by this frame."""
    spec = node.adversary
    return spec is not None and spec.behavior == behavior and frame >= spec.start_frame


# =============================================================================
# Simulation
# =============================================================================

class _Simulation:
    def __init__(self, config: SimConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.model = config.energy_model
        # Network-wide deployment master key; the simulator plays the safe
        # base station and therefore keeps it for session seeds.
        self.bs_master = prf(
            SymmetricKey(b"\x00" * 10), b"master" + config.seed.to_bytes(8, "big")
        )
        self.groups = self._build_groups()
        self.nodes: dict[NodeAddress, _Node] = {
            n.addr: n for g in self.groups for n in g.nodes
        }
        for spec in config.adversaries:
            node = self.nodes.get(spec.node)
            if node is None:
                raise ValueError(f"adversary {spec.node} is not a simulated node")
            node.adversary = spec
        for group in self.groups:
            group.replayers = [
                n for n in group.nodes
                if n.adversary is not None and n.adversary.behavior == "replay-attacker"
            ]
        # The most one packet can charge a node: the largest wire's radio and
        # the dearest open or seal.
        self.packet_spend = max(
            self.model.tx_per_octet, self.model.rx_per_octet
        ) * linksec.wire_size(linksec.MAX_PAYLOAD, True) + max(
            self._crypto_cost(SecurityLevel(enc, auth), linksec.MAX_PAYLOAD)
            for enc in Encryption
            for auth in (False, True)
        )
        self.elections: list[ElectionEvent] = []
        self.rekeys: list[RekeyEvent] = []
        self.slot_log: list[tuple[int, int, int, NodeAddress, bool]] = []

    # ---- topology -----------------------------------------------------------

    def _build_groups(self) -> list[_Group]:
        cfg = self.config
        sizes = [cfg.node_count // cfg.group_count] * cfg.group_count
        for i in range(cfg.node_count % cfg.group_count):
            sizes[i] += 1
        groups = []
        for gid, size in enumerate(sizes):
            if size == 0:
                continue
            addrs = [NodeAddress(gid, i + 1) for i in range(size)]
            ledger = TrustTable(NodeAddress(gid, BROADCAST_NODE_ID), cfg.trust_weights)
            channel = _Channel()
            # `prf` is passed, not defaulted, so a wrapper on `sim.prf` sees
            # every derivation.
            rings = derive_group_keyrings(self.bs_master, addrs[0], addrs, prf)
            members = [_Node(r.owner, r, ledger, channel, cfg) for r in rings]
            groups.append(_Group(gid, members, ledger, channel))
        return groups

    # ---- per-packet helpers -------------------------------------------------

    def _decide(self, sender: _Node, pclass: PacketClass) -> SecurityLevel:
        if not self.config.adaptive:
            return self.config.scenario.fixed_level
        return sender.agent.decide(pclass)

    def _crypto_cost(self, level: SecurityLevel, payload_len: int) -> float:
        if level.encryption is Encryption.XOR:
            cost = self.model.xor_per_octet * payload_len
        else:
            cost = (
                self.model.rc5_per_block_per_round
                * level.encryption.rounds
                * aead.rc5_invocations(payload_len, level.auth)
            )
        if level.auth:
            cost += self.model.mac_fixed
        return cost

    def _alive_members(self, group: _Group) -> list[_Node]:
        if group.deaths_seen != group.channel.deaths:
            group.alive = [n for n in group.alive if n.alive]
            group.deaths_seen = group.channel.deaths
        return group.alive

    def _plan_listens(self, group: _Group) -> None:
        """Choose how the non-destinations of the group's unicasts pay for
        the header in its coming frame: deferred (see the module docstring)
        when the group is loss-free and no alive member is within one
        frame's spend of death, otherwise debited as each packet goes by."""
        # A frame charges a node at most once per packet: an election
        # (size + 1 packets), a re-key (size - 1), a beacon, a handoff, an
        # uplink and a re-broadcast (4), and a data packet and a replay per
        # other member (2 * size - 2).
        spend = (4 * len(group.nodes) + 2) * self.packet_spend
        group.defer_headers = not self.config.loss_rate and all(
            n.remaining > spend for n in self._alive_members(group)
        )

    def _apply_events(
        self, group: _Group, events: list[tuple[NodeAddress, str, Optional[float]]]
    ) -> None:
        """Record each event once, in the group's shared ledger.

        This stands for every alive member observing it: in a loss-free
        single-hop clique all of them see the same events, except those
        about themselves. An event is dropped when no alive member but its
        subject is left to see it. Lossy or partial observation would need
        one table per observer again.
        """
        alive = self._alive_members(group)
        for subject, kind, value in events:
            if len(alive) > 1 or (alive and alive[0].addr != subject):
                group.ledger.record(subject, kind, value)

    def _transmit(
        self,
        group: _Group,
        frame: int,
        sender: _Node,
        dest: int,
        pclass: PacketClass,
        payload: bytes,
        in_slot: bool = True,
        replayed_wire: Optional[bytes] = None,
    ) -> dict[NodeAddress, bytes]:
        """One on-air transmission: energy, trust observations, deliveries.

        Honest transmissions each take the group's next TDM slot; an
        out-of-slot injection reuses the current slot, which observers book
        as a collision. Returns successful decodes keyed by receiver.

        Every destination listener is charged a full open's receive and
        crypto energy and runs its own `linksec.decode`, as each mote does.
        The host computes each distinct open once: the listeners share one
        `opened` memo for this wire, so those that hold the same key and
        receive counter reuse the first one's outcome."""
        if not sender.alive:
            return {}
        if in_slot:
            slot = group.next_slot
            group.next_slot += 1
        else:
            slot = max(group.next_slot - 1, 0)
        if replayed_wire is None:
            level = self._decide(sender, pclass)
            wire = linksec.encode(
                level, sender.ring, sender.counter_to(dest), dest, payload
            )
            sender.debit("crypto", self._crypto_cost(level, len(payload)))
        else:
            # Verbatim retransmission of captured bytes: no sealing work.
            wire = replayed_wire
        sender.debit("tx", self.model.tx_per_octet * len(wire))
        sender.stats.packets_sent += 1
        self.slot_log.append((frame, group.gid, slot, sender.addr, in_slot))

        events: list[tuple[NodeAddress, str, Optional[float]]] = [
            (sender.addr, "packet-transmitted", None)
        ]
        if not in_slot:
            events.append((sender.addr, "collision", None))
        if dest != BROADCAST_NODE_ID:
            events.append((NodeAddress(group.gid, dest), "packet-received", None))

        if dest == BROADCAST_NODE_ID or not group.defer_headers:
            listeners = self._alive_members(group)
        else:
            # Every other alive member parses the clear header and gates
            # off; the channel counts that listen and each settles it later.
            target = group.by_id[dest]
            listeners = [target] if target.alive else []
            group.channel.deferred += 1
            sender.heard += 1
            if target is not sender:  # a replayer may resend a wire sent to it
                target.heard += 1
        header = linksec.PacketHeader.decode(wire)
        rx_cost = self.model.rx_per_octet * len(wire)
        open_cost = self._crypto_cost(header.level, header.length)
        decoded: dict[NodeAddress, bytes] = {}
        opened: dict = {}  # one host-side open per (key, counter) of this wire
        for listener in listeners:
            if listener is sender:
                continue
            if self.config.loss_rate and self.rng.random() < self.config.loss_rate:
                continue
            is_dest = dest == BROADCAST_NODE_ID or listener.addr.node_id == dest
            if not is_dest:
                # Promiscuous listeners parse the clear header, then gate off.
                listener.debit("rx", self.model.rx_per_octet * linksec.HEADER_BYTES)
                continue
            listener.debit("rx", rx_cost)
            listener.debit("crypto", open_cost)
            state = listener.counter_from(header.src, header.dest)
            try:
                plain = linksec.decode(
                    wire, listener.ring, state, self.config.loss_threshold, opened
                )
            except linksec.ReplayError:
                listener.stats.replay_rejects += 1
            except linksec.AuthenticationError:
                listener.stats.auth_rejects += 1
                if dest == BROADCAST_NODE_ID:
                    listener.stats.bcast_fail += 1
            except linksec.FormatError:
                listener.stats.format_rejects += 1
            else:
                listener.stats.decode_ok += 1
                decoded[listener.addr] = plain
                if replayed_wire is not None:
                    listener.stats.replay_accepted += 1
                if dest == BROADCAST_NODE_ID:
                    if group.first_rekey_frame is None:
                        listener.stats.bcast_ok_before_rekey += 1
                    else:
                        listener.stats.bcast_ok_after_rekey += 1
        self._apply_events(group, events)

        # Replay attackers squirrel away the latest sensed-data wire bytes.
        if pclass is PacketClass.SENSED_DATA and replayed_wire is None:
            for node in group.replayers:
                if node.alive and node is not sender:
                    node.captured_wire = (wire, dest)
        return decoded

    # ---- frame machinery ----------------------------------------------------

    def _maybe_election(self, group: _Group, frame: int) -> None:
        members = self._alive_members(group)
        if not members:
            return
        head = group.head
        if not head.alive:
            # Head failure: the vice steps in without a vote (that is what
            # it was elected for); the lowest survivor otherwise.
            successor = group.vice if group.vice and group.vice.alive else members[0]
            group.hand_over(successor)
            group.vice = None
            return
        if len(members) < 2 or frame == 0:
            return
        # A re-elected head stays in charge; do not spin the vote every
        # frame while it remains drained.
        if (
            group.last_election_frame is not None
            and frame - group.last_election_frame < self.config.session_length
        ):
            return
        median = statistics.median(n.remaining for n in members)
        if head.remaining >= 0.2 * median:
            return
        # Step 1: the head calls for a re-election.
        self._transmit(
            group, frame, head, BROADCAST_NODE_ID, PacketClass.CONTROL, b"reelect!"
        )
        # Step 2: every other member casts its vote toward the head.
        for member in members:
            if member is head:
                continue
            self._transmit(
                group, frame, member, head.addr.node_id, PacketClass.CONTROL,
                member.addr.encode() + b"\x00\x00",
            )
        # Step 3: tally and hand over.
        tables = {n.addr: n.view() for n in members}
        new_head, vice = run_election([n.addr for n in members], tables, head.addr)
        result = new_head.encode() + (vice.encode() if vice else b"\x00\x00")
        self._transmit(
            group, frame, head, BROADCAST_NODE_ID, PacketClass.CONTROL, result
        )
        self.elections.append(
            ElectionEvent(frame, group.gid, head.addr, new_head, vice)
        )
        group.last_election_frame = frame
        group.vice = self.nodes[vice] if vice is not None else None
        if new_head != head.addr:
            group.hand_over(self.nodes[new_head])

    def _maybe_rekey(self, group: _Group, frame: int) -> None:
        if frame == 0 or frame % self.config.session_length != 0:
            return
        members = self._alive_members(group)
        head = group.head
        if not head.alive or len(members) < 2:
            return
        group.session_index += 1
        # Fresh per-session seed from the (safe) base station, out of band.
        seed = prf(
            self.bs_master, _SESSION_SEED_TAG + group.session_index.to_bytes(4, "big")
        )
        k1 = derive_session_key(seed, group.gid, BASE_STATION)
        member_trust = {
            n.addr: group.ledger.election_trust(n.addr) for n in members if n is not head
        }
        recipients = rekey_group(
            head.ring, member_trust, self.config.rekey_threshold, k1
        )
        for addr in sorted(recipients):
            decoded = self._transmit(
                group, frame, head, addr.node_id, PacketClass.KEY_MATERIAL, k1.data
            )
            if addr in decoded:
                self.nodes[addr].ring.session = SymmetricKey(decoded[addr])
        excluded = tuple(sorted(set(member_trust) - recipients))
        if group.first_rekey_frame is None:
            group.first_rekey_frame = frame
        self.rekeys.append(
            RekeyEvent(
                frame, group.gid, group.session_index,
                tuple(sorted(recipients)), excluded,
            )
        )

    def _group_frame(self, group: _Group, frame: int) -> None:
        members = self._alive_members(group)
        if not members:
            return
        head = group.head
        if not head.alive:
            return
        others = [n for n in members if n is not head]
        if not others:
            # Lone node: nothing goes on air; it stages its sealed aggregate
            # until a relay exists.
            if group.pending_aggregate is not None:
                level = self._decide(head, PacketClass.SENSED_DATA)
                head.debit(
                    "crypto", self._crypto_cost(level, len(group.pending_aggregate))
                )
            group.pending_aggregate = _reading(head, frame)
            return
        duty = others[frame % len(others)]

        # Head slot: schedule beacon, then the aggregate handoff.
        beacon = frame.to_bytes(4, "big") + bytes((group.gid,)) + b"\x00\x00\x00"
        beacon_rx = self._transmit(
            group, frame, head, BROADCAST_NODE_ID, PacketClass.ROUTING_CONTROL, beacon
        )
        duty_has_beacon = duty.addr in beacon_rx
        self._apply_events(group, [(duty.addr, "control-received-for-forward", None)])
        handoff_ok = False
        if group.pending_aggregate is not None:
            decoded = self._transmit(
                group, frame, head, duty.addr.node_id, PacketClass.SENSED_DATA,
                group.pending_aggregate,
            )
            self._apply_events(
                group, [(duty.addr, "data-received-for-forward", None)]
            )
            handoff_ok = duty.addr in decoded

        # Member slots in address order: one data packet each; the duty
        # member additionally relays uplink and beacon.
        collected: list[bytes] = []
        for member in others:
            decoded = self._transmit(
                group, frame, member, head.addr.node_id, PacketClass.SENSED_DATA,
                _reading(member, frame),
            )
            if head.addr in decoded:
                collected.append(decoded[head.addr])

            if member is duty:
                drops = _acts(member, "drop-fraction", frame)
                if handoff_ok:
                    if drops and self.rng.random() < member.adversary.drop_fraction:
                        self._apply_events(
                            group, [(member.addr, "packet-dropped", None)]
                        )
                    else:
                        # Uplink toward the base station: off-group radio,
                        # modeled as transmit + seal cost with no receiver.
                        level = self._decide(member, PacketClass.SENSED_DATA)
                        size = linksec.wire_size(
                            len(group.pending_aggregate), level.auth
                        )
                        member.debit(
                            "crypto",
                            self._crypto_cost(level, len(group.pending_aggregate)),
                        )
                        member.debit("tx", self.model.tx_per_octet * size)
                        member.stats.packets_sent += 1
                        self._apply_events(
                            group, [(member.addr, "data-forwarded", None)]
                        )
                if duty_has_beacon:
                    if drops and self.rng.random() < member.adversary.drop_fraction:
                        pass
                    else:
                        self._transmit(
                            group, frame, member, BROADCAST_NODE_ID,
                            PacketClass.ROUTING_CONTROL, beacon,
                        )
                        self._apply_events(
                            group, [(member.addr, "control-forwarded", None)]
                        )

            replays = _acts(member, "replay-attacker", frame)
            if replays and member.captured_wire is not None:
                wire, dest = member.captured_wire
                self._transmit(
                    group, frame, member, dest, PacketClass.SENSED_DATA, b"",
                    in_slot=False, replayed_wire=wire,
                )

        # The head's own reading joins locally; the aggregate ships next frame.
        blob = _reading(head, frame) + b"".join(collected)
        group.pending_aggregate = blob[: linksec.MAX_PAYLOAD]

    def _frame_end(self, frame: int) -> None:
        for group in self.groups:
            members = self._alive_members(group)
            samples: list[tuple[NodeAddress, str, Optional[float]]] = []
            for node in members:
                # Reading `remaining` settles the node's deferred listens, so
                # every ledger is complete at the end of each frame.
                claimed = node.remaining
                if _acts(node, "captured", frame):
                    # Compromised nodes overstate their battery to win
                    # energy-based handovers.
                    claimed = self.model.initial_energy + 1.0 + frame
                samples.append((node.addr, "energy-sample", claimed))
                samples.append((node.addr, "signal-sample", 0.8))
            self._apply_events(group, samples)
            # A member's neighbors are the ledger's subjects but itself: the
            # lowest of the ledger's two lowest entries that is not its own
            # is the member's lowest neighbor trust.
            ledger = group.ledger
            lowest = heapq.nsmallest(
                2, ((ledger.election_trust(s), s) for s in ledger.rows)
            )
            for node in members:
                node.agent.available_energy = node.remaining
                node.agent.lowest_neighbor_trust = next(
                    (t for t, s in lowest if s != node.addr), None
                )

    def run(self) -> SimReport:
        for frame in range(self.config.sim_length):
            for group in self.groups:
                group.next_slot = 0
                self._plan_listens(group)
                self._maybe_election(group, frame)
                self._maybe_rekey(group, frame)
                self._group_frame(group, frame)
            self._frame_end(frame)
        return SimReport(
            seed=self.config.seed,
            scenario_name=self.config.scenario.name,
            adaptive=self.config.adaptive,
            frames=self.config.sim_length,
            nodes={addr: node.stats for addr, node in self.nodes.items()},
            elections=self.elections,
            rekeys=self.rekeys,
            trust_tables={addr: node.view() for addr, node in self.nodes.items()},
            slot_log=self.slot_log,
        )


def run(config: SimConfig) -> SimReport:
    """Execute one deterministic run; same config and seed, same report."""
    return _Simulation(config).run()


def compare_fixed_vs_adaptive(config: SimConfig) -> SavingsReport:
    """Run the same seeded scenario with the agent off, then on.

    The fixed arm pins every packet at the scenario's no-agent deployment
    level; the adaptive arm lets the per-node agent pick levels."""
    fixed = run(replace(config, adaptive=False))
    adaptive = run(replace(config, adaptive=True))
    return SavingsReport(
        scenario_name=config.scenario.name, fixed=fixed, adaptive=adaptive
    )


# =============================================================================
# Config file loading (JSON; keys match the dataclass fields)
# =============================================================================

# Field annotation -> the JSON types it takes; `Encryption` is a level's code.
_JSON_SCALARS = {
    "bool": (bool,), "int": (int,), "float": (int, float), "str": (str,),
    "Encryption": (int,),
}


def _fields_of(cls, data, name: str) -> dict:
    """`data`, the JSON object `name`, checked as keyword arguments for
    `cls`: every key is a field of `cls`, and a field annotated with a key of
    `_JSON_SCALARS` holds one of its types. A bool is not a number here,
    though Python counts it as an int."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object, not {type(data).__name__}")
    declared = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(declared)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    for key, value in data.items():
        kinds = _JSON_SCALARS.get(declared[key])
        if kinds is not None and (
            not isinstance(value, kinds) or isinstance(value, bool) != (bool in kinds)
        ):
            raise ValueError(
                f"{name} key {key} must be {declared[key]}, not {type(value).__name__}"
            )
    return data


def _parse_level(obj, name: str) -> SecurityLevel:
    level = _fields_of(SecurityLevel, obj, name)
    return SecurityLevel(Encryption(level["encryption"]), level["auth"])


def _parse_scenario(obj, initial_energy: float) -> ScenarioPolicy:
    if isinstance(obj, str):
        return default_policy(obj, initial_energy)
    if not isinstance(obj, dict):
        raise ValueError(f"scenario must be a name or an object, not {type(obj).__name__}")
    obj = _fields_of(ScenarioPolicy, obj, "scenario")
    name = SCENARIO_ALIASES.get(obj.get("name"), obj.get("name"))
    policy = default_policy(name, initial_energy) if name in SCENARIO_NAMES else None
    kwargs = {}
    for key in ("base_level", "min_level", "fixed_level"):
        if key in obj:
            kwargs[key] = _parse_level(obj[key], key)
    for key in ("energy_floor", "trust_alarm"):
        if key in obj:
            kwargs[key] = float(obj[key])
    if policy is not None:
        return replace(policy, **kwargs)
    if "base_level" not in kwargs:
        raise ValueError("custom scenarios need at least a base_level")
    defaults = {
        "min_level": kwargs["base_level"], "energy_floor": 0.0, "trust_alarm": 0.3
    }
    return ScenarioPolicy(name=obj.get("name", "custom"), **{**defaults, **kwargs})


def config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from the documented JSON schema."""
    data = dict(_fields_of(SimConfig, data, "config"))
    energy = EnergyModel(
        **_fields_of(EnergyModel, data.pop("energy_model", {}), "energy_model")
    )
    weights_raw = data.pop("trust_weights", None)
    if weights_raw is None:
        weights_raw = {}
    elif isinstance(weights_raw, (list, tuple)):
        names = [f.name for f in fields(TrustWeights)]
        if len(weights_raw) > len(names):
            raise ValueError(f"trust_weights takes at most {len(names)} weights")
        weights_raw = dict(zip(names, weights_raw))
    elif not isinstance(weights_raw, dict):
        raise ValueError(
            f"trust_weights must be a list or an object, not {type(weights_raw).__name__}"
        )
    weights = TrustWeights(**_fields_of(TrustWeights, weights_raw, "trust_weights"))
    scenario = _parse_scenario(
        data.pop("scenario", "habitat-monitoring"), energy.initial_energy
    )
    adversaries = data.pop("adversaries", [])
    if not isinstance(adversaries, (list, tuple)):
        raise ValueError(f"adversaries must be a list, not {type(adversaries).__name__}")
    adversaries = tuple(
        AdversarySpec(
            node=NodeAddress.parse(a["node"]),
            behavior=a["behavior"],
            drop_fraction=a.get("drop_fraction", 1.0),
            start_frame=a.get("start_frame", 0),
        )
        for a in (_fields_of(AdversarySpec, a, "adversary") for a in adversaries)
    )
    return SimConfig(
        scenario=scenario,
        adversaries=adversaries,
        energy_model=energy,
        trust_weights=weights,
        **data,
    )


def set_override(data: dict, dotted: str, raw: str) -> None:
    """Apply one `a.b=value` override onto a config dict (value is JSON)."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    target = data
    *front, last = dotted.split(".")
    for part in front:
        target = target.setdefault(part, {})
        if not isinstance(target, dict):
            raise ValueError(f"cannot override through non-object key {part!r}")
    target[last] = value


def load_config(path: str, overrides: Optional[list[str]] = None) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        set_override(data, key.strip(), raw.strip())
    return config_from_dict(data)
