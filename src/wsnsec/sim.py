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
* Energy: each event charges a node once, through `_Node.charge`, which
  charges receive, then crypto, then transmit energy. Every destination
  listener pays a full open's receive and crypto energy, a destination that
  rejects the clear header its receive energy alone, a header-only listener
  the header's receive energy, and every sender a full seal's crypto and
  transmit energy. `EnergyLedger.total` fixes the order in which the three
  are summed, and every clamp reads it.
* Reception: the simulator keeps a separate receive counter per listener and
  direction. On the host, every wire is the `linksec.PendingWire` that
  `linksec.encode_pending` returns, and a replay puts the captured one on
  air again: its counter is reserved and its `PacketHeader` travels with it,
  so no header is parsed from octets, and it is sealed only when a real
  open reads its bytes. Listeners decode the pending wire itself, which is
  its own seal: one holding the sealing key gets the plaintext at the
  sealing counter with no block pass, which is exact because an OCB open at
  the true key and counter always verifies and returns the plaintext. Every
  other open is real: wraps tried before the sealing counter and receivers
  under another key (a stale session, an excluded member). A late seal is
  exact too, since a seal is a pure function of its inputs, so every
  listener's energy, counters and outcome are as if the wire had been sealed
  and opened for real. Honest simulator traffic therefore runs no cipher at
  all; the `codec` benchmark workload, acceptance criteria 3 and 8, the
  packet vectors, the oracle tests and criterion 6 (real opens under stale
  session keys) keep it covered.
* Budgeted frames: a group's frame is budgeted when the group is
  loss-free and its every alive member has more battery left than one frame
  can spend. One budget decides two things. First, header-only listens: the
  non-destinations of a unicast are not charged one by one. The group counts
  the listen, and each node adds its pending header costs to its receive
  energy one at a time, in order, before its next nonzero receive charge or
  energy read. A node that settles from the receive energy and count that
  another member of its group has already settled from in the frame takes
  that member's sum instead (see `_Channel`), so a symmetric group's frame
  makes O(n) additions rather than one per listen, which is O(n^2). A re-key
  frame still makes O(n^2): each delivery leaves its recipient's receive
  energy distinct. Second, plain charges: no charge of such a frame can be
  clamped or kill, so each amount of `_Node.charge` is one addition to its
  ledger field, with no clamp and no death check. `min(j, r)` is `j`
  whenever `j <= r`, so every float, death and frozen view is that of the
  clamped path charging every listener at once. Under loss (drawn per
  listener) or near a death, every listener is charged as the packet goes
  by, and every amount is clamped.

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

import heapq
import os
import pickle
import random
import signal
import statistics
import threading
from dataclasses import replace
from functools import lru_cache
from typing import Optional

from . import aead, linksec
from .addressing import BROADCAST_NODE_ID, NodeAddress
from .agent import SCENARIO_NAMES, PacketClass, SecurityAgent
from .config import (  # callers look these and SCENARIO_NAMES up on `sim`, too
    ADVERSARY_BEHAVIORS, AdversarySpec, EnergyModel, SimConfig,
    config_from_dict, load_config, set_override,
)
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
from .trust import TrustTable, run_election

BASE_STATION = NodeAddress(0, 0)
_SESSION_SEED_TAG = b"\x10"


# =============================================================================
# Internal node / group state
# =============================================================================

class _Channel:
    """What a group's members share without holding each other: whether the
    current frame is budgeted (see the module docstring), the count of
    header-only listens deferred so far, the count of deaths, one header
    listen's receive energy, and the frame's settled sums.

    `settled` maps `(rx, pending)` to the `rx` that adding `header_rx`
    `pending` times, in order, makes, so a member settling from the same
    `rx` and count as another reuses its sum. That is exact: repeated float
    addition is a pure function of the start, the addend and the count, and
    `header_rx` is fixed per run. The one pair of distinct floats that a
    dict keys as one is 0.0 and -0.0, and no ledger's `rx` is ever -0.0: it
    starts at 0.0 and is only ever added amounts >= 0 or -0.0, and
    0.0 + -0.0 is 0.0. `_Simulation._plan_listens` empties `settled` at each
    frame's start, so it holds one frame's sums at most.

    It is kept apart from `_Group` so that a node holds no reference to its
    group. A node that held its group would close a node-group cycle, and
    each run's nodes would stay alive until a full collection: merged, the
    `big_group` benchmark workload peaked about 12 % higher in memory."""

    def __init__(self, model: EnergyModel) -> None:
        self.budgeted = False
        self.deferred = 0
        self.deaths = 0
        self.header_rx = model.rx_per_octet * linksec.HEADER_BYTES
        self.settled: dict[tuple[float, int], float] = {}


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
        self.captured_wire: Optional[tuple[linksec.PendingWire, int]] = None  # (wire, dest)
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
        addition each, as the eager charges would have made them. A sum some
        member of the group already made from the same `rx` and count is
        looked up instead (see `_Channel`): the same float, since repeated
        addition of one addend is a pure function of the start and the count."""
        channel = self.channel
        pending = channel.deferred - self.heard
        if pending and self.stats.alive:
            spent = self.stats.ledger
            key = (spent.rx, pending)
            rx = channel.settled.get(key)
            if rx is None:
                rx = spent.rx
                header_rx = channel.header_rx
                for _ in range(pending):
                    rx += header_rx
                channel.settled[key] = rx
            spent.rx = rx
            self.heard += pending

    def charge(self, rx: float = 0.0, crypto: float = 0.0, tx: float = 0.0) -> None:
        """Charge one event's receive, crypto and transmit energy, in that
        order, each clamped to the battery left; the node dies when nothing
        is left, and a dead node is charged nothing more. An amount of 0 J
        is charged like any other, so a node with no battery dies on its
        first charge.

        In a budgeted frame each amount is one plain addition: the budget
        bounds it by the battery left, so the clamp returns it and the node
        cannot die. Only a nonzero rx amount settles first, so the `rx`
        additions keep their order; settling adds to `rx` alone, and no
        clamp reads the total. Every float is that of the clamped path."""
        stats = self.stats
        if not stats.alive:
            return
        spent = stats.ledger
        if self.channel.budgeted:
            if rx:
                if self.channel.deferred != self.heard:
                    self.settle()
                spent.rx += rx
            spent.crypto += crypto
            spent.tx += tx
            return
        if self.channel.deferred != self.heard:
            self.settle()
        initial = self.model.initial_energy
        spent.rx += min(rx, initial - spent.total)
        left = initial - spent.total
        if left > 0:
            spent.crypto += min(crypto, left)
            left = initial - spent.total
            if left > 0:
                spent.tx += min(tx, left)
                if initial - spent.total > 0:
                    return
        self._die()

    def _die(self) -> None:
        self.stats.alive = False
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
        try:
            return self.out_ctr[dest]
        except KeyError:
            state = self.out_ctr[dest] = CounterState()
            return state

    def counter_from(self, src: int, dest: int) -> CounterState:
        try:
            return self.in_ctr[src, dest]
        except KeyError:
            state = self.in_ctr[src, dest] = CounterState()
            return state


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
    start = (frame + node.addr.node_id) & 0xFF
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
        self.model = config.energy_model
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
            node = self.nodes.get(spec.node)
            if node is None:
                raise ValueError(f"adversary {spec.node} is not a simulated node")
            node.adversary = spec
        for group in self.groups:
            group.replayers = [
                n for n in group.nodes
                if n.adversary is not None and n.adversary.behavior == "replay-attacker"
            ]
        self.crypto_costs = _crypto_costs(self.model)
        # The most one packet can charge a node: the largest wire's radio and
        # the dearest open or seal.
        self.packet_spend = max(
            self.model.tx_per_octet, self.model.rx_per_octet
        ) * linksec.wire_size(linksec.MAX_PAYLOAD, True) + max(
            costs[linksec.MAX_PAYLOAD] for costs in self.crypto_costs
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
            channel = _Channel(self.model)
            # `prf` is passed, not defaulted, so a wrapper on `sim.prf` sees
            # every derivation.
            rings = derive_group_keyrings(self.bs_master, addrs[0], addrs, prf)
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
        key = pairwise_key(self.bs_master, a.addr, b.addr, prf)
        a.ring.pairwise[b.addr] = key
        b.ring.pairwise[a.addr] = key

    def _decide(self, sender: _Node, pclass: PacketClass) -> SecurityLevel:
        # Key material takes the agent's rule in both arms: a session key
        # always ships at the strongest level, with a tag.
        if self.config.adaptive or pclass is PacketClass.KEY_MATERIAL:
            return sender.agent.decide(pclass)
        return self.config.scenario.fixed_level

    def _crypto_cost(self, level: SecurityLevel, payload_len: int) -> float:
        return self.crypto_costs[(level.encryption << 1) | level.auth][payload_len]

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
        clamped. It also empties the channel's settled sums, so they hold
        one frame's at most."""
        # A frame charges a node at most once per packet: an election
        # (size + 1 packets), a re-key (size - 1), a beacon, a handoff, an
        # uplink and a re-broadcast (4), and a data packet and a replay per
        # other member (2 * size - 2).
        spend = (4 * len(group.nodes) + 2) * self.packet_spend
        group.channel.budgeted = not self.config.loss_rate and all(
            n.remaining > spend for n in self._alive_members(group)
        )
        group.channel.settled = {}

    def _observe(
        self, group: _Group, subject: NodeAddress, kind: str, value: Optional[float] = None
    ) -> None:
        """Record one event once, in the group's shared ledger.

        This stands for every alive member observing it: in a loss-free
        single-hop clique all of them see the same events, except those
        about themselves. The event is dropped when no alive member but its
        subject is left to see it. Lossy or partial observation would need
        one table per observer again.
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
        its plaintext; every other open is real and seals the wire once."""
        if not sender.alive:
            return {}
        # A unicast to anyone but the head rides the pair's pairwise key
        # (see `linksec._sender_key` and `_receiver_key`); a replayed wire's
        # source is its header's.
        if dest != BROADCAST_NODE_ID and dest != group.head.addr.node_id:
            src = sender.addr.node_id if replayed_wire is None else replayed_wire.header.src
            self._share_pairwise(group, src, dest)
        if replayed_wire is None:
            slot = group.next_slot
            group.next_slot += 1
            level = self._decide(sender, pclass)
            wire = linksec.encode_pending(
                level, sender.ring, sender.counter_to(dest), dest, payload
            )
            seal_cost = self._crypto_cost(level, len(payload))
        else:
            # Verbatim retransmission of the captured wire: no sealing work
            # is charged.
            slot = group.next_slot - 1
            wire = replayed_wire
            seal_cost = 0.0
        size = len(wire)
        sender.charge(crypto=seal_cost, tx=self.model.tx_per_octet * size)
        sender.stats.packets_sent += 1
        self.slot_log.append(
            (frame, group.gid, slot, sender.addr, replayed_wire is None)
        )

        if dest == BROADCAST_NODE_ID or not group.channel.budgeted:
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
        header = wire.header
        open_cost = self._crypto_cost(header.level, header.length)
        rx_cost = self.model.rx_per_octet * size
        decoded: dict[NodeAddress, bytes] = {}
        for listener in listeners:
            if listener is sender:
                continue
            if self.config.loss_rate and self.rng.random() < self.config.loss_rate:
                continue
            is_dest = dest == BROADCAST_NODE_ID or listener.addr.node_id == dest
            if not is_dest:
                # Promiscuous listeners parse the clear header, then gate off.
                listener.charge(group.channel.header_rx)
                continue
            listener.charge(rx_cost, open_cost)
            state = listener.counter_from(header.src, header.dest)
            try:
                plain = linksec.decode(
                    wire, listener.ring, state, self.config.loss_threshold
                )
            except linksec.ReplayError:
                listener.stats.replay_rejects += 1
            except linksec.AuthenticationError:
                listener.stats.auth_rejects += 1
                if dest == BROADCAST_NODE_ID:
                    listener.stats.bcast_fail += 1
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
        self._observe(group, sender.addr, "packet-transmitted")
        if replayed_wire is not None:
            self._observe(group, sender.addr, "collision")
        if dest != BROADCAST_NODE_ID:
            self._observe(group, group.by_id[dest].addr, "packet-received")

        # Replay attackers squirrel away the latest sensed-data wire.
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
                head.charge(crypto=self._crypto_cost(level, len(group.pending_aggregate)))
            group.pending_aggregate = _reading(head, frame)
            return
        duty = others[frame % len(others)]

        # Head slot: schedule beacon, then the aggregate handoff.
        beacon = frame.to_bytes(4, "big") + bytes((group.gid,)) + b"\x00\x00\x00"
        beacon_rx = self._transmit(
            group, frame, head, BROADCAST_NODE_ID, PacketClass.ROUTING_CONTROL, beacon
        )
        duty_has_beacon = duty.addr in beacon_rx
        self._observe(group, duty.addr, "control-received-for-forward")
        handoff_ok = False
        if group.pending_aggregate is not None:
            decoded = self._transmit(
                group, frame, head, duty.addr.node_id, PacketClass.SENSED_DATA,
                group.pending_aggregate,
            )
            self._observe(group, duty.addr, "data-received-for-forward")
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
                        self._observe(group, member.addr, "packet-dropped")
                    else:
                        # Uplink toward the base station: off-group radio,
                        # modeled as transmit + seal cost with no receiver.
                        length = len(group.pending_aggregate)
                        level = self._decide(member, PacketClass.SENSED_DATA)
                        size = linksec.wire_size(length, level.auth)
                        member.charge(
                            crypto=self._crypto_cost(level, length),
                            tx=self.model.tx_per_octet * size,
                        )
                        member.stats.packets_sent += 1
                        self._observe(group, member.addr, "data-forwarded")
                if duty_has_beacon:
                    if drops and self.rng.random() < member.adversary.drop_fraction:
                        pass
                    else:
                        self._transmit(
                            group, frame, member, BROADCAST_NODE_ID,
                            PacketClass.ROUTING_CONTROL, beacon,
                        )
                        self._observe(group, member.addr, "control-forwarded")

            replays = _acts(member, "replay-attacker", frame)
            if replays and member.captured_wire is not None:
                wire, dest = member.captured_wire
                self._transmit(
                    group, frame, member, dest, PacketClass.SENSED_DATA, b"",
                    replayed_wire=wire,
                )

        # The head's own reading joins locally; the aggregate ships next frame.
        blob = _reading(head, frame) + b"".join(collected)
        group.pending_aggregate = blob[: linksec.MAX_PAYLOAD]

    def _frame_end(self, frame: int) -> None:
        for group in self.groups:
            members = self._alive_members(group)
            for node in members:
                # Reading `remaining` settles the node's deferred listens, so
                # every ledger is complete at the end of each frame.
                node.agent.available_energy = claimed = node.remaining
                if _acts(node, "captured", frame):
                    # Compromised nodes overstate their battery to win
                    # energy-based handovers.
                    claimed = self.model.initial_energy + 1.0 + frame
                self._observe(group, node.addr, "energy-sample", claimed)
                self._observe(group, node.addr, "signal-sample", 0.8)
            # A member's neighbors are the ledger's subjects but itself: the
            # lowest of the ledger's two lowest entries that is not its own
            # is the member's lowest neighbor trust. Missing entries read as
            # (None, None).
            ledger = group.ledger
            (first, first_subject), (second, _) = (
                heapq.nsmallest(2, ((ledger.election_trust(s), s) for s in ledger.rows))
                + [(None, None)] * 2
            )[:2]
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


def _crypto_costs(model: EnergyModel) -> tuple[tuple[float, ...], ...]:
    """One seal's or open's crypto energy under `model`, by the level's wire
    code (encryption << 1 | auth) and the payload length; built once per
    model."""
    return _crypto_table(model, repr(model))


# Keyed on the repr as well: models compare equal across 0, 0.0 and -0.0,
# whose products differ in type or sign.
@lru_cache(maxsize=32)
def _crypto_table(model: EnergyModel, _exact: str) -> tuple[tuple[float, ...], ...]:
    return tuple(
        tuple(_crypto_energy(model, level, n) for n in range(linksec.MAX_PAYLOAD + 1))
        for level in linksec.LEVELS
    )


def _crypto_energy(model: EnergyModel, level: SecurityLevel, payload_len: int) -> float:
    """The crypto energy of one seal or open of `payload_len` octets."""
    if level.encryption is Encryption.XOR:
        cost = model.xor_per_octet * payload_len
    else:
        cost = (
            model.rc5_per_block_per_round
            * level.encryption.rounds
            * aead.rc5_invocations(payload_len, level.auth)
        )
    if level.auth:
        cost += model.mac_fixed
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
    flushes the caller's stdio buffers or runs its atexit hooks."""
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
    config, the report equals that of running the two in turn. A child's
    exception is raised again here with its class and message; a child
    that ends without a whole reply raises `ChildProcessError`. If the
    caller's arm raises or is interrupted, the child is killed. Every path
    reaps the child before returning, so no process outlives the call. A
    counter patched into the program sees only the caller's (adaptive)
    arm."""
    fixed_config = replace(config, adaptive=False)
    adaptive_config = replace(config, adaptive=True)
    if not _may_fork():
        fixed = run(fixed_config)
        adaptive = run(adaptive_config)
    else:
        pid, read_fd = _fork_run(fixed_config)
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
