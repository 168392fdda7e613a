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
* Keys: set-up derives a group's n node-based and n broadcast keys, each
  once, into one read-only map per family that every ring of the group
  shares. A pair's pairwise key is derived from the base station's master
  on the pair's first unicast and stored in both rings, each of which owns
  its pairwise dict. A run uses only the pairs that talk (the head's
  handoff and re-key deliveries), so set-up is linear in the group's size,
  in time and in memory.
* Elections: when the head's remaining energy falls below 20% of the group
  median (taken as `statistics.median` takes it, from one local sort) it
  calls an election (broadcast + one vote per member + result broadcast)
  and hands over to the vote winner.
* Adversaries: `drop-fraction` nodes drop duty obligations, `replay-attacker`
  nodes retransmit a captured packet out of slot each frame, `captured`
  nodes advertise rising energy readings and trip the suspicious flag.
* Observation: every alive member of a group hears every transmission of
  its clique, and observation is loss-free (`loss_rate` drops deliveries,
  not observations). All alive members therefore see the same events about
  every subject but themselves, so each group keeps one shared ledger of
  neighbor rows, and a member's trust table is the ledger without its own
  row. An event is dropped when no alive member but its subject is left to
  see it. `_observe` checks that rule per event. `_transmit` checks it
  against one read of the alive members, for the sender's records and the
  destination's, after its listener loop, since a listener's charge can
  kill. `_frame_end` checks it once per group: every subject there is an
  alive member and nothing dies there, so the rule reads "two alive members
  or more". A node that dies keeps a frozen copy of what it had seen.
  At a frame's end each alive member's energy and signal samples go into
  the ledger through `TrustTable.record`, the one entry for observations,
  and one pass over the ledger, `TrustTable.lowest_two`, gives every
  member's lowest neighbor trust: the lower of the two lowest entries that
  is not the member's own.
  Elections and the report hold the ledgers and frozen copies
  themselves: a member's view, a table of its own, is built only when
  `SimReport.trust_tables` is read at that member, and `trust.csv` is
  written from the ledgers. Lossy or partial observation would need one
  table per observer again.
* Energy: every amount is a whole number of nanojoules (nJ). Each
  `EnergyModel` field is rounded to whole nJ once per run, and every cost is
  a product or sum of those, so a node's books are Python ints and balance
  exactly. Each event charges a node once, through `_Node.charge`, which
  charges receive, then crypto, then transmit energy. Every destination
  listener pays a full open's receive and crypto energy, a destination that
  rejects the clear header its receive energy alone, a header-only listener
  the header's receive energy, and every sender a full seal's crypto and
  transmit energy. When `run` ends, each node's books go into its
  `NodeStats.ledger` in joules.
* Reception: the simulator keeps a separate receive counter per listener and
  direction, made on the listener's first wire in that direction. On the host,
  every wire is the `linksec.PendingWire` that `linksec.encode_pending`
  returns, and a replay puts the captured one on air again: its counter is
  reserved and its `PacketHeader` travels with it, so no header is parsed from
  octets, and it is sealed only when a real open reads its bytes. Listeners
  decode the pending wire itself, which is its own seal: one holding the
  sealing key gets the plaintext at the sealing counter with no block pass,
  which is exact because an OCB open at the true key and counter always
  verifies and returns the plaintext. When the sealing counter is the first
  candidate, as for an honest wire with no loss since the listener's last
  accepted one, `linksec.decode` answers before it sets up its wrap search.
  Every other open is real: wraps tried before the sealing counter and
  receivers under another key (a stale session, an excluded member). A late
  seal is exact too, since a seal is a pure function of its inputs, so every
  listener's energy, counters and outcome are as if the wire had been sealed
  and opened for real. Honest simulator traffic therefore runs no cipher at
  all; the `codec` benchmark workload, acceptance criteria 3 and 8, the packet
  vectors, the oracle tests and criterion 6 (real opens under stale session
  keys) keep it covered.
* Budgeted frames: a group's frame is budgeted when the group is
  loss-free and its every alive member has more battery left than one frame
  can spend. One budget decides two things. First, header-only listens: the
  non-destinations of a unicast are not charged one by one. The group counts
  the listen, and each node adds its pending header costs to its receive
  energy in one multiply before its next clamped charge or energy read.
  Second, plain charges: no charge of such a frame can be clamped or kill,
  so each amount of `_Node.charge` is one addition to its books, with no
  clamp and no death check. Integers add in any order, so every book, death
  and frozen view is that of the clamped path charging every listener at
  once. Under loss (drawn per listener) or near a death, every listener is
  charged as the packet goes by, and every amount is clamped.

* Two arms at once: `compare_fixed_vs_adaptive` runs the fixed arm in one
  forked child and the adaptive arm in the caller, when that is safe (a
  `fork`, no other thread, at least 2 CPUs to run on); otherwise it runs
  the two in turn. This is exact because each arm is a pure function of
  its config. A counter that a test patches into the program sees only
  the caller's arm; count per arm through `run`.

Runs are pure functions of the config: one `random.Random(seed)` instance
drives adversary drops and channel loss, everything else is arithmetic.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
from collections import defaultdict
from dataclasses import replace
from functools import lru_cache
from typing import Optional

from . import aead, linksec
from .addressing import BROADCAST_NODE_ID, NodeAddress
from .agent import PacketClass, SecurityAgent
from .config import AdversarySpec, EnergyModel, SimConfig
from .keys import (
    KeyRing,
    SymmetricKey,
    derive_group_keyrings,
    derive_session_key,
    pairwise_key,
    prf,
    rekey_group,
)
from .linksec import CounterState, Encryption, SecurityLevel
from .reports import ElectionEvent, NodeStats, RekeyEvent, SavingsReport, SimReport
from .trust import TrustTable, TrustTables, run_election

BASE_STATION = NodeAddress(0, 0)
_SESSION_SEED_TAG = b"\x10"

# The packet classes, bound once. `EnumType` defines `__getattr__`, so on
# CPython 3.11 reading a member off its class, `PacketClass.SENSED_DATA`,
# takes the slow attribute path: 100 ns, against 7 ns for a module global.
_ROUTING_CONTROL = PacketClass.ROUTING_CONTROL
_SENSED_DATA = PacketClass.SENSED_DATA
_CONTROL = PacketClass.CONTROL
_KEY_MATERIAL = PacketClass.KEY_MATERIAL


# =============================================================================
# Internal node / group state
# =============================================================================

class _Channel:
    """What a group's members share without holding each other: whether the
    current frame is budgeted (see the module docstring), the count of
    header-only listens deferred so far, the count of deaths, and, in nJ,
    one header listen's receive energy and the battery each member starts
    with.

    It is kept apart from `_Group` so that a node holds no reference to its
    group. A node that held its group would close a node-group cycle, and
    each run's nodes would stay alive until a full collection: merged, the
    `big_group` benchmark workload peaked about 12 % higher in memory."""

    def __init__(self, header_rx: int, battery: int) -> None:
        self.budgeted = False
        self.deferred = 0
        self.deaths = 0
        self.header_rx = header_rx
        self.battery = battery


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
        self.battery = channel.battery
        self.tx = self.rx = self.crypto = 0  # the books: nJ spent, by ledger field
        self.adversary: Optional[AdversarySpec] = None
        self.captured_wire: Optional[tuple[linksec.PendingWire, int]] = None  # (wire, dest)
        self.out_ctr: defaultdict[int, CounterState] = defaultdict(CounterState)
        self.in_ctr: defaultdict[tuple[int, int], CounterState] = defaultdict(CounterState)

    @property
    def alive(self) -> bool:
        return self.stats.alive

    @property
    def left(self) -> int:
        """The battery left in nJ, the deferred listens settled first."""
        if self.channel.deferred != self.heard:
            self.settle()
        return self.battery - self.tx - self.rx - self.crypto

    @property
    def remaining(self) -> float:
        """The battery left in joules: what the agent, elections and trust
        samples read."""
        return self.left / 10**9

    def settle(self) -> None:
        """Charge the header-only listens deferred since the last settle, in
        one multiply: each costs the channel's `header_rx`."""
        if self.stats.alive:
            pending = self.channel.deferred - self.heard
            self.rx += pending * self.channel.header_rx
            self.heard += pending

    def charge(self, rx: int = 0, crypto: int = 0, tx: int = 0) -> None:
        """Charge one event's receive, crypto and transmit energy, in nJ and
        in that order, each clamped to the battery left; the node dies when
        nothing is left, and a dead node is charged nothing more. An amount
        of 0 nJ is charged like any other, so a node with no battery dies on
        its first charge. A clamped amount leaves exactly 0 nJ, so a node
        dies on the charge that spends its last nJ.

        In a budgeted frame each amount is one plain addition: the budget
        bounds it by the battery left, so the clamp returns it and the node
        cannot die. Integers add in any order, so the deferred listens are
        left to settle later."""
        if not self.stats.alive:
            return
        if self.channel.budgeted:
            self.rx += rx
            self.crypto += crypto
            self.tx += tx
            return
        left = self.left
        rx = min(rx, left)
        crypto = min(crypto, left - rx)
        tx = min(tx, left - rx - crypto)
        self.rx += rx
        self.crypto += crypto
        self.tx += tx
        if rx + crypto + tx == left:
            self._die()

    def _die(self) -> None:
        self.stats.alive = False
        self.channel.deaths += 1
        # The dead observe nothing more: keep copies of the rows seen so far.
        self.frozen = TrustTable(
            self.addr,
            self.ledger.weights,
            {s: replace(rec) for s, rec in self.ledger.rows.items() if s != self.addr},
        )

    @property
    def table(self) -> TrustTable:
        """The table this node's trust is read from: the copy frozen at its
        death, or else the group ledger, whose row about this node is not
        its own to read."""
        return self.ledger if self.frozen is None else self.frozen


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


# Every octet twice over, so any 10 consecutive octets mod 256 are one slice.
_OCTETS = bytes(range(256)) * 2


def _reading(node: _Node, frame: int) -> bytes:
    """The node's sensed payload for one frame: the 10 octets counting up
    from `frame + node id`, mod 256."""
    start = (frame + node.addr[1]) & 0xFF  # [1]: the node id
    return _OCTETS[start:start + 10]


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
        model = self.model = config.energy_model
        self.tx_per_octet, self.rx_per_octet, self.battery = (
            _nj(j) for j in (model.tx_per_octet, model.rx_per_octet, model.initial_energy)
        )
        # Network-wide deployment master key; the simulator plays the safe
        # base station and therefore keeps it for session seeds and
        # pairwise keys.
        self.bs_master = prf(
            SymmetricKey(b"\x00" * 10), b"master" + config.seed.to_bytes(8, "big")
        )
        self.groups = self._build_groups()
        self.nodes: dict[NodeAddress, _Node] = {
            n.addr: n for g in self.groups for n in g.nodes
        }
        for spec in config.adversaries:
            self.nodes[spec.node].adversary = spec
        for group in self.groups:
            group.replayers = [
                n for n in group.nodes
                if n.adversary is not None and n.adversary.behavior == "replay-attacker"
            ]
        self.crypto_costs = _crypto_costs(model)
        # The most one packet can charge a node, in nJ: the largest wire's
        # radio and the dearest open or seal.
        self.packet_spend = max(self.tx_per_octet, self.rx_per_octet) * linksec.wire_size(
            linksec.MAX_PAYLOAD, True
        ) + max(costs[linksec.MAX_PAYLOAD] for costs in self.crypto_costs)
        self.elections: list[ElectionEvent] = []
        self.rekeys: list[RekeyEvent] = []
        self.slot_log: list[tuple[int, int, int, NodeAddress, bool]] = []

    # ---- topology -----------------------------------------------------------

    def _build_groups(self) -> list[_Group]:
        cfg = self.config
        groups = []
        for gid, size in enumerate(cfg.group_sizes):
            addrs = [NodeAddress(gid, i + 1) for i in range(size)]
            ledger = TrustTable(NodeAddress(gid, BROADCAST_NODE_ID), cfg.trust_weights)
            channel = _Channel(self.rx_per_octet * linksec.HEADER_BYTES, self.battery)
            rings = derive_group_keyrings(self.bs_master, addrs[0], addrs)
            members = [_Node(r.owner, r, ledger, channel, cfg) for r in rings]
            groups.append(_Group(gid, members, ledger, channel))
        return groups

    # ---- per-packet helpers -------------------------------------------------

    def _share_pairwise(self, group: _Group, src: int, dest: int) -> None:
        """Put the pairwise key of members `src` and `dest` in both rings,
        derived from the base station's master on the pair's first use."""
        a, b = group.by_id[src], group.by_id[dest]
        if b.addr in a.ring.pairwise:
            return
        key = pairwise_key(self.bs_master, a.addr, b.addr)
        a.ring.pairwise[b.addr] = key
        b.ring.pairwise[a.addr] = key

    def _decide(self, sender: _Node, pclass: PacketClass) -> SecurityLevel:
        # Key material takes the agent's rule in both arms: a session key
        # always ships at the strongest level, with a tag.
        if self.config.adaptive or pclass is _KEY_MATERIAL:
            return sender.agent.decide(pclass)
        return self.config.scenario.fixed_level

    def _alive_members(self, group: _Group) -> list[_Node]:
        if group.deaths_seen != group.channel.deaths:
            group.alive = [n for n in group.alive if n.alive]
            group.deaths_seen = group.channel.deaths
        return group.alive

    def _plan_listens(self, group: _Group) -> None:
        """Budget the group's coming frame (see the module docstring) when
        the group is loss-free and no alive member is within one frame's
        spend of death. This one flag decides both how the non-destinations
        of its unicasts pay for the header, deferred or charged as each
        packet goes by, and whether its charges are plain additions or
        clamped."""
        # A frame charges a node at most once per packet: an election
        # (size + 1 packets), a re-key (size - 1), a beacon, a handoff, an
        # uplink and a re-broadcast (4), and a data packet and a replay per
        # other member (2 * size - 2).
        spend = (4 * len(group.nodes) + 2) * self.packet_spend
        group.channel.budgeted = not self.config.loss_rate and all(
            n.left > spend for n in self._alive_members(group)
        )

    def _observe(
        self, group: _Group, subject: NodeAddress, kind: str, value: Optional[float] = None
    ) -> None:
        """Record one event once, in the group's shared ledger.

        This stands for every alive member observing it: in a loss-free
        single-hop clique all of them see the same events, except those
        about themselves. The event is dropped when no alive member but its
        subject is left to see it. `_transmit` checks that rule against one
        read of the alive members, after its listener loop, for the
        sender's records and the destination's, and `_frame_end` once per
        group. Lossy or partial observation would need one table per
        observer again.
        """
        alive = self._alive_members(group)
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
        replayed_wire: Optional[linksec.PendingWire] = None,
    ) -> dict[NodeAddress, bytes]:
        """One on-air transmission: energy, trust observations, deliveries.

        Honest transmissions each take the group's next TDM slot; a replayed
        wire is injected out of slot, reusing the slot of its replayer's own
        transmission just before it, which observers book as a collision.
        Returns successful decodes keyed by receiver.

        Every destination listener is charged a full open's receive and
        crypto energy and runs its own decode, as each mote does. Every wire
        is a `linksec.PendingWire`, a replayed one included, and its header
        travels with it. Every listener is handed the pending wire, so a
        listener under the sealing key opens it at the sealing counter from
        its plaintext; every other open is real and seals the wire once.

        What is fixed for the transmission (the costs, the wire's size, the
        receive-counter key, the loss settings) is computed once; the
        listener loop does only each listener's loss draw, charge and
        decode. The sender's records and the destination's share one read
        of the alive members for `_observe`'s drop rule, made after the
        loop, since a listener's charge in an unbudgeted frame can kill it.
        Addresses are read by index, `[1]` the node id, without the
        properties."""
        if not sender.stats.alive:
            return {}
        broadcast = dest == BROADCAST_NODE_ID
        target = None if broadcast else group.by_id[dest]
        # A unicast to anyone but the head rides the pair's pairwise key
        # (see `linksec._sender_key` and `_receiver_key`); a replayed wire's
        # source is its header's.
        if not broadcast and dest != group.head.addr[1]:
            src = sender.addr[1] if replayed_wire is None else replayed_wire.header.src
            self._share_pairwise(group, src, dest)
        if replayed_wire is None:
            slot = group.next_slot
            group.next_slot += 1
            wire = linksec.encode_pending(
                self._decide(sender, pclass), sender.ring, sender.out_ctr[dest],
                dest, payload,
            )
        else:
            slot = group.next_slot - 1
            wire = replayed_wire
        # An honest wire's header holds the sealing level and the payload's
        # length, so one cost is the seal's and every open's.
        header = wire.header
        level = header.level
        size = linksec.wire_size(header.length, level.auth)
        open_cost = self.crypto_costs[(level.encryption << 1) | level.auth][header.length]
        # A replay is a verbatim retransmission: no sealing work is charged.
        seal_cost = open_cost if replayed_wire is None else 0
        sender.charge(crypto=seal_cost, tx=self.tx_per_octet * size)
        sender.stats.packets_sent += 1
        self.slot_log.append(
            (frame, group.gid, slot, sender.addr, replayed_wire is None)
        )

        channel = group.channel
        if broadcast or not channel.budgeted:
            listeners = self._alive_members(group)
        else:
            # Every other alive member parses the clear header and gates
            # off; the channel counts that listen and each settles it later.
            listeners = [target] if target.stats.alive else []
            channel.deferred += 1
            sender.heard += 1
            if target is not sender:  # a replayer may resend a wire sent to it
                target.heard += 1
        loss_rate, threshold = self.config.loss_rate, self.config.loss_threshold
        draw = self.rng.random
        ctr_key = (header.src, header.dest)
        rx_cost = self.rx_per_octet * size
        header_rx = channel.header_rx
        decoded: dict[NodeAddress, bytes] = {}
        for listener in listeners:
            if listener is sender:
                continue
            if loss_rate and draw() < loss_rate:
                continue
            if not broadcast and listener.addr[1] != dest:  # [1]: the node id
                # Promiscuous listeners parse the clear header, then gate off.
                listener.charge(header_rx)
                continue
            listener.charge(rx_cost, open_cost)
            stats = listener.stats
            try:
                plain = linksec.decode(wire, listener.ring, listener.in_ctr[ctr_key], threshold)
            except linksec.ReplayError:
                stats.replay_rejects += 1
            except linksec.AuthenticationError:
                stats.auth_rejects += 1
                if broadcast:
                    stats.bcast_fail += 1
            else:
                stats.decode_ok += 1
                decoded[listener.addr] = plain
                if replayed_wire is not None:
                    stats.replay_accepted += 1
                if broadcast:
                    if group.first_rekey_frame is None:
                        stats.bcast_ok_before_rekey += 1
                    else:
                        stats.bcast_ok_after_rekey += 1
        # `_observe`'s drop rule, after the loop: a listener's charge may have
        # killed the last observer of the sender or of the destination. The
        # records kill no one, so one read of the alive members serves both.
        alive = self._alive_members(group)
        many = len(alive) > 1
        record = group.ledger.record
        if many or (alive and alive[0] is not sender):
            record(sender.addr, "packet-transmitted")
            if replayed_wire is not None:
                record(sender.addr, "collision")
        if target is not None and (many or (alive and alive[0] is not target)):
            record(target.addr, "packet-received")

        # Replay attackers squirrel away the latest sensed-data wire.
        if pclass is _SENSED_DATA and replayed_wire is None:
            for node in group.replayers:
                if node.stats.alive and node is not sender:
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
        # The median as `statistics.median` takes it: the middle of the
        # sorted batteries, or the mean of the middle two.
        left = [n.remaining for n in members]
        left.sort()
        half = len(left) // 2
        median = left[half] if len(left) % 2 else (left[half - 1] + left[half]) / 2
        if head.remaining >= 0.2 * median:
            return
        # Step 1: the head calls for a re-election.
        self._transmit(
            group, frame, head, BROADCAST_NODE_ID, _CONTROL, b"reelect!"
        )
        # Step 2: every other member casts its vote toward the head.
        for member in members:
            if member is head:
                continue
            self._transmit(
                group, frame, member, head.addr.node_id, _CONTROL,
                member.addr.encode() + b"\x00\x00",
            )
        # Step 3: tally and hand over.
        # `run_election` skips each voter's own row, so a member still alive
        # votes from the group ledger itself; one that died during the vote
        # from its frozen copy.
        tables = {n.addr: n.table for n in members}
        new_head, vice = run_election([n.addr for n in members], tables, head.addr)
        result = new_head.encode() + (vice.encode() if vice else b"\x00\x00")
        self._transmit(
            group, frame, head, BROADCAST_NODE_ID, _CONTROL, result
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
                group, frame, head, addr.node_id, _KEY_MATERIAL, k1.data
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
        if not head.stats.alive:
            return
        crypto_costs = self.crypto_costs
        others = [n for n in members if n is not head]
        if not others:
            # Lone node: nothing goes on air; it stages its sealed aggregate
            # until a relay exists.
            if group.pending_aggregate is not None:
                level = self._decide(head, _SENSED_DATA)
                costs = crypto_costs[(level.encryption << 1) | level.auth]
                head.charge(crypto=costs[len(group.pending_aggregate)])
            group.pending_aggregate = _reading(head, frame)
            return
        duty = others[frame % len(others)]
        head_id = head.addr[1]  # the node id

        # Head slot: schedule beacon, then the aggregate handoff.
        beacon = frame.to_bytes(4, "big") + bytes((group.gid,)) + b"\x00\x00\x00"
        beacon_rx = self._transmit(
            group, frame, head, BROADCAST_NODE_ID, _ROUTING_CONTROL, beacon
        )
        duty_has_beacon = duty.addr in beacon_rx
        self._observe(group, duty.addr, "control-received-for-forward")
        handoff_ok = False
        if group.pending_aggregate is not None:
            decoded = self._transmit(
                group, frame, head, duty.addr[1], _SENSED_DATA, group.pending_aggregate
            )
            self._observe(group, duty.addr, "data-received-for-forward")
            handoff_ok = duty.addr in decoded

        # Member slots in address order: one data packet each; the duty
        # member additionally relays uplink and beacon.
        collected: list[bytes] = []
        for member in others:
            decoded = self._transmit(
                group, frame, member, head_id, _SENSED_DATA, _reading(member, frame)
            )
            if head.addr in decoded:
                collected.append(decoded[head.addr])

            if member is duty:
                drops = _acts(member, "drop-fraction", frame)
                if handoff_ok:
                    if drops and self.rng.random() < member.adversary.drop_fraction:
                        self._observe(group, member.addr, "packet-dropped")
                    else:
                        # Uplink toward the base station: off-group radio,
                        # modeled as transmit + seal cost with no receiver.
                        length = len(group.pending_aggregate)
                        level = self._decide(member, _SENSED_DATA)
                        size = linksec.wire_size(length, level.auth)
                        costs = crypto_costs[(level.encryption << 1) | level.auth]
                        member.charge(
                            crypto=costs[length], tx=self.tx_per_octet * size
                        )
                        member.stats.packets_sent += 1
                        self._observe(group, member.addr, "data-forwarded")
                if duty_has_beacon:
                    if drops and self.rng.random() < member.adversary.drop_fraction:
                        pass
                    else:
                        self._transmit(
                            group, frame, member, BROADCAST_NODE_ID, _ROUTING_CONTROL,
                            beacon,
                        )
                        self._observe(group, member.addr, "control-forwarded")

            # Only a replayer ever holds a captured wire.
            if member.captured_wire is not None and _acts(member, "replay-attacker", frame):
                wire, dest = member.captured_wire
                self._transmit(
                    group, frame, member, dest, _SENSED_DATA, b"", replayed_wire=wire
                )

        # The head's own reading joins locally; the aggregate ships next frame.
        blob = _reading(head, frame) + b"".join(collected)
        group.pending_aggregate = blob[: linksec.MAX_PAYLOAD]

    def _frame_end(self, frame: int) -> None:
        for group in self.groups:
            members = self._alive_members(group)
            # Every subject is an alive member and nothing dies here, so
            # `_observe`'s drop rule is one check per group.
            watched = len(members) > 1
            ledger = group.ledger
            record = ledger.record
            for node in members:
                # Reading `remaining` settles the node's deferred listens, so
                # every node's books are complete at the end of each frame.
                node.agent.available_energy = claimed = node.remaining
                if node.adversary is not None and _acts(node, "captured", frame):
                    # Compromised nodes overstate their battery to win
                    # energy-based handovers.
                    claimed = self.model.initial_energy + 1.0 + frame
                if watched:
                    record(node.addr, "energy-sample", claimed)
                    record(node.addr, "signal-sample", 0.8)
            # A member's neighbors are the ledger's subjects but itself: the
            # lower of the ledger's two lowest entries that is not its own
            # is the member's lowest neighbor trust. Missing entries read as
            # (None, None).
            (first, first_subject), (second, _) = ledger.lowest_two()
            for node in members:
                node.agent.lowest_neighbor_trust = (
                    first if first_subject != node.addr else second
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
        for node in self.nodes.values():  # the books, in joules
            spent = node.stats.ledger
            spent.tx, spent.rx, spent.crypto = node.tx / 10**9, node.rx / 10**9, node.crypto / 10**9
        return SimReport(
            seed=self.config.seed,
            scenario_name=self.config.scenario.name,
            adaptive=self.config.adaptive,
            frames=self.config.sim_length,
            nodes={addr: node.stats for addr, node in self.nodes.items()},
            elections=self.elections,
            rekeys=self.rekeys,
            trust_tables=TrustTables({addr: node.table for addr, node in self.nodes.items()}),
            slot_log=self.slot_log,
        )


def _nj(joules: float) -> int:
    """`joules` in whole nanojoules, rounded half to even."""
    return round(joules * 10**9)


@lru_cache(maxsize=32)
def _crypto_costs(model: EnergyModel) -> tuple[tuple[int, ...], ...]:
    """One seal's or open's crypto energy under `model`, in nJ, by the
    level's wire code (encryption << 1 | auth) and the payload length; built
    once per model. Models that compare equal round to the same nJ."""
    return tuple(
        tuple(_crypto_energy(model, level, n) for n in range(linksec.MAX_PAYLOAD + 1))
        for level in linksec.LEVELS
    )


def _crypto_energy(model: EnergyModel, level: SecurityLevel, payload_len: int) -> int:
    """The crypto energy of one seal or open of `payload_len` octets, in nJ."""
    if level.encryption is Encryption.XOR:
        cost = _nj(model.xor_per_octet) * payload_len
    else:
        cost = (
            _nj(model.rc5_per_block_per_round)
            * level.encryption.rounds
            * aead.rc5_invocations(payload_len, level.auth)
        )
    if level.auth:
        cost += _nj(model.mac_fixed)
    return cost


def run(config: SimConfig) -> SimReport:
    """Execute one deterministic run; same config and seed, same report."""
    return _Simulation(config).run()


def _may_fork() -> bool:
    """Whether a forked child can run an arm beside the caller: the
    platform forks, no other thread could hold a lock across the fork, and
    this process may run on at least 2 CPUs."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _fork_run(config: SimConfig) -> tuple[int, int]:
    """Start `run(config)` in a forked child; returns its pid and the read
    end of a pipe that carries the pickled `(True, report)` or
    `(False, exception)`. The child leaves through `os._exit`, so it never
    flushes the caller's stdio buffers or runs its atexit hooks. A pipe or
    fork that the system refuses raises its `OSError`, with no descriptor
    left open."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                reply = (True, run(config))
            except BaseException as exc:  # re-raised in the caller
                reply = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def compare_fixed_vs_adaptive(config: SimConfig) -> SavingsReport:
    """Run the same seeded scenario with the agent off and on.

    The fixed arm pins every packet at the scenario's no-agent deployment
    level; the adaptive arm lets the per-node agent pick levels. Where
    `_may_fork` allows, the fixed arm runs in a forked child while the
    caller runs the adaptive arm; since each arm is a pure function of its
    config, the report equals that of running the two in turn. If the
    system refuses the pipe or the child (an `OSError` such as `EAGAIN`),
    the caller runs the two in turn, for the same report. A child's
    exception is raised again here with its class and message; a child
    that ends without a whole reply raises `ChildProcessError`. If the
    caller's arm raises or is interrupted, the child is killed. Every path
    reaps the child before returning, so no process outlives the call. A
    counter patched into the program sees only the caller's (adaptive)
    arm."""
    fixed_config = replace(config, adaptive=False)
    adaptive_config = replace(config, adaptive=True)
    child = None
    if _may_fork():
        try:
            child = _fork_run(fixed_config)
        except OSError:  # refused: the arms run in turn below
            pass
    if child is None:
        fixed = run(fixed_config)
        adaptive = run(adaptive_config)
    else:
        pid, read_fd = child
        status = None
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                adaptive = run(adaptive_config)
                data = pipe.read()
                _, status = os.waitpid(pid, 0)
            finally:
                if status is None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise ChildProcessError(
                f"fixed arm ended without a complete reply (wait status {status})"
            )
        ok, fixed = pickle.loads(data)
        if not ok:
            raise fixed
    return SavingsReport(
        scenario_name=config.scenario.name, fixed=fixed, adaptive=adaptive
    )
