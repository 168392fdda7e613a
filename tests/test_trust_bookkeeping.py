"""The per-frame trust bookkeeping (`TrustTable.record`, `compute_trust`,
`TrustTable.lowest_two`, and `sim`'s `_maybe_election`, `_group_frame` and
`_frame_end`) against the code it replaced, kept here verbatim: a
`heapq.nsmallest` over every subject's `election_trust`, a
`statistics.median` of the batteries, `record` through `row` and two
sample helpers, and `compute_trust` through six `_ratio` calls.

`frame_configs` makes the seeded random configs of the differential: deaths,
`captured` adversaries whose overstated batteries turn rows suspicious,
`drop-fraction` and replay adversaries, loss 0, 0.1 and 0.2, and batteries
small enough that heads drain and elections run."""

from __future__ import annotations

import heapq
import math
import random
import statistics
from dataclasses import replace
from typing import Optional

from hypothesis import given, settings, strategies as st

from wsnsec import linksec, sim, trust
from wsnsec.addressing import BROADCAST_NODE_ID, NodeAddress
from wsnsec.agent import SCENARIO_NAMES
from wsnsec.config import config_from_dict
from wsnsec.reports import ElectionEvent
from wsnsec.sim import _CONTROL, _ROUTING_CONTROL, _SENSED_DATA, _acts, _reading
from wsnsec.trust import NeighborRecord, TrustTable, TrustWeights, run_election


# ---------------------------------------------------------------------------
# The replaced code, verbatim
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    """Behavior ratio clamped to [0, 1]; an undefined ratio (zero
    denominator) counts as neutral: a node never asked to forward has not
    misbehaved."""
    if den == 0:
        return 1.0
    r = num / den
    # Clamps as `min(max(r, 0.0), 1.0)` does, -0.0 and NaN included.
    return 0.0 if r < 0.0 else 1.0 if r > 1.0 else r


def compute_trust(record: NeighborRecord, weights: TrustWeights) -> float:
    """Weighted sum of the six behavior ratios; always in [0, 1).

    The six terms: energy drain ratio, signal drift ratio, control and data
    forwarding ratios, collision-freeness, and delivery (non-drop) ratio.
    A rising signal sample would make the drift ratio negative; each term
    is clamped into [0, 1] so trust stays well-defined.
    """
    a1 = _ratio(record.ae_t1 - record.ae_t2, record.ae_t1)
    a2 = _ratio(record.pss_t1 - record.pss_t2, record.pss_t1)
    a3 = _ratio(record.craf, record.crf)
    a4 = _ratio(record.draf, record.drf)
    a5 = 1.0 if record.npt == 0 else 1.0 - _ratio(record.npc, record.npt)
    a6 = 1.0 if record.npr == 0 else 1.0 - _ratio(record.pd, record.npr)
    return (
        weights.w1 * a1 + weights.w2 * a2 + weights.w3 * a3
        + weights.w4 * a4 + weights.w5 * a5 + weights.w6 * a6
    )


class ParentTrustTable:
    """`TrustTable.record` and the methods it called."""

    def row(self, neighbor: NodeAddress) -> NeighborRecord:
        rec = self.rows.get(neighbor)
        if rec is None:
            rec = NeighborRecord()
            self.rows[neighbor] = rec
        return rec

    def record(self, neighbor: NodeAddress, kind: str, value: Optional[float] = None) -> None:
        """Apply one observation event; exactly one field changes.

        An energy sample that is higher than the previous one is not
        stored: claiming to regain energy marks the neighbor suspicious
        instead, which zeroes it out for election purposes.
        """
        rec = self.row(neighbor)
        # The kinds recorded per packet or per frame come first.
        if kind == "packet-transmitted":
            rec.npt += 1
        elif kind == "packet-received":
            rec.npr += 1
        elif kind == "energy-sample":
            self._energy_sample(rec, value)
        elif kind == "signal-sample":
            self._signal_sample(rec, value)
        elif kind == "control-received-for-forward":
            rec.crf += 1
        elif kind == "control-forwarded":
            if rec.craf >= rec.crf:
                raise ValueError("forwarded more control packets than received")
            rec.craf += 1
        elif kind == "data-received-for-forward":
            rec.drf += 1
        elif kind == "data-forwarded":
            if rec.draf >= rec.drf:
                raise ValueError("forwarded more data packets than received")
            rec.draf += 1
        elif kind == "packet-dropped":
            if rec.pd >= rec.npr:
                raise ValueError("dropped more packets than received")
            rec.pd += 1
        elif kind == "collision":
            if rec.npc >= rec.npt:
                raise ValueError("more collisions than transmissions")
            rec.npc += 1
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        rec._trust = None

    @staticmethod
    def _energy_sample(rec: NeighborRecord, value: Optional[float]) -> None:
        if value is None or not 0 <= value < math.inf:
            raise ValueError("energy sample must be finite and non-negative")
        if rec._energy_samples == 0:
            rec.ae_t1 = rec.ae_t2 = value
            rec._energy_samples = 1
            return
        if value > rec.ae_t2:
            # Energy cannot grow; a node advertising more energy than
            # before is faking its reading.
            rec.suspicious = True
            return
        rec.ae_t1 = rec.ae_t2
        rec.ae_t2 = value
        rec._energy_samples += 1

    @staticmethod
    def _signal_sample(rec: NeighborRecord, value: Optional[float]) -> None:
        if value is None or not 0.0 < value <= 1.0:
            raise ValueError("signal sample must be normalized into (0, 1]")
        if rec._signal_samples == 0:
            rec.pss_t1 = rec.pss_t2 = value
            rec._signal_samples = 1
            return
        rec.pss_t1 = rec.pss_t2
        rec.pss_t2 = value
        rec._signal_samples += 1


class ParentSimulation:
    """`_Simulation`'s frame machinery."""

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

            replays = _acts(member, "replay-attacker", frame)
            if replays and member.captured_wire is not None:
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
                # every ledger is complete at the end of each frame.
                node.agent.available_energy = claimed = node.remaining
                if node.adversary is not None and _acts(node, "captured", frame):
                    # Compromised nodes overstate their battery to win
                    # energy-based handovers.
                    claimed = self.model.initial_energy + 1.0 + frame
                if watched:
                    record(node.addr, "energy-sample", claimed)
                    record(node.addr, "signal-sample", 0.8)
            # A member's neighbors are the ledger's subjects but itself: the
            # lowest of the ledger's two lowest entries that is not its own
            # is the member's lowest neighbor trust. Missing entries read as
            # (None, None).
            (first, first_subject), (second, _) = (
                heapq.nsmallest(2, ((ledger.election_trust(s), s) for s in ledger.rows))
                + [(None, None)] * 2
            )[:2]
            for node in members:
                node.agent.lowest_neighbor_trust = (
                    first if first_subject != node.addr else second
                )


# ---------------------------------------------------------------------------
# The two lowest trusts
# ---------------------------------------------------------------------------

# Few distinct values, so trusts tie: cached ones, and stale rows whose
# counters give equal trusts. Suspicious rows all read 0.0.
_CACHED = st.sampled_from([0.0, 0.25, 0.5, 0.75, 6 / 7])
_COUNT = st.integers(0, 3)
_SUBJECT = st.tuples(st.integers(0, 2), st.integers(0, 255))


@st.composite
def _rows(draw):
    """0, 1 or 2 rows, or many."""
    subjects = draw(st.one_of(
        st.lists(_SUBJECT, max_size=2, unique=True),
        st.lists(_SUBJECT, min_size=3, max_size=40, unique=True),
    ))
    rows = {}
    for gid, nid in subjects:
        rec = NeighborRecord(
            npt=draw(_COUNT), npr=draw(_COUNT), crf=draw(_COUNT), drf=draw(_COUNT),
            suspicious=draw(st.booleans()),
        )
        rec.npc, rec.pd = min(draw(_COUNT), rec.npt), min(draw(_COUNT), rec.npr)
        rec.craf, rec.draf = min(draw(_COUNT), rec.crf), min(draw(_COUNT), rec.drf)
        rec._trust = draw(st.one_of(st.none(), _CACHED))
        rows[NodeAddress(gid, nid)] = rec
    return rows


def _table(rows):
    """A table over copies of `rows`, each with its cached trust or None."""
    return TrustTable(NodeAddress(0, BROADCAST_NODE_ID), TrustWeights(),
                      {s: replace(rec) for s, rec in rows.items()})


@settings(max_examples=300, deadline=None)
@given(_rows())
def test_lowest_two_is_the_two_smallest_pairs(rows):
    """`lowest_two` gives what `heapq.nsmallest` gives over every subject's
    `election_trust`, padded with `(None, None)`: ties break toward the
    lower address, suspicious rows read 0.0, and each stale trust is
    computed once, through `compute_trust`, and kept on its row."""
    got_table, want_table = _table(rows), _table(rows)
    calls = [0]
    real = trust.compute_trust

    def counting(*args):
        calls[0] += 1
        return real(*args)

    trust.compute_trust = counting
    try:
        got = got_table.lowest_two()
        got_calls = calls[0]
        t = want_table
        want = (heapq.nsmallest(2, ((t.election_trust(s), s) for s in t.rows))
                + [(None, None)] * 2)[:2]
        want_calls = calls[0] - got_calls
    finally:
        trust.compute_trust = real
    assert got == tuple(want)
    assert got_calls == want_calls
    assert [r._trust for r in got_table.rows.values()] == [
        r._trust for r in want_table.rows.values()
    ]


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------

def frame_configs(count):
    """`count` seeded small configs: up to two adversaries per group, each
    `captured`, `drop-fraction` or a replayer, loss 0, 0.1 or 0.2, and
    batteries of 0.3 to 4 J, which heads drain within a run."""
    configs = []
    for seed in range(count):
        rnd = random.Random(seed)
        node_count, group_count = rnd.randint(3, 10), rnd.randint(1, 2)
        adversaries = []
        for gid in range(group_count):
            size = node_count // group_count + (gid < node_count % group_count)
            for node in rnd.sample(range(1, size + 1), min(size, rnd.randint(0, 2))):
                spec = {"node": f"{gid}.{node}", "start_frame": rnd.randint(0, 5),
                        "behavior": rnd.choice(["captured", "drop-fraction", "replay-attacker"])}
                if spec["behavior"] == "drop-fraction":
                    spec["drop_fraction"] = rnd.choice([0.5, 1.0])
                adversaries.append(spec)
        configs.append(config_from_dict({
            "seed": seed, "node_count": node_count, "group_count": group_count,
            "sim_length": rnd.randint(20, 60), "session_length": rnd.randint(3, 12),
            "scenario": rnd.choice(SCENARIO_NAMES),
            "loss_rate": rnd.choice([0.0, 0.1, 0.2]),
            "energy_model": {"initial_energy": rnd.uniform(0.3, 4.0)},
            "adversaries": adversaries,
        }))
    return configs


# (owner, name, replaced code); `TrustTable.row` and the sample helpers are
# gone from the table, and come back with the `record` that called them.
REPLACED = [
    (sim._Simulation, "_maybe_election", ParentSimulation._maybe_election),
    (sim._Simulation, "_group_frame", ParentSimulation._group_frame),
    (sim._Simulation, "_frame_end", ParentSimulation._frame_end),
    (trust, "compute_trust", compute_trust),
    *((TrustTable, name, vars(ParentTrustTable)[name])
      for name in ("row", "record", "_energy_sample", "_signal_sample")),
]


def test_frame_bookkeeping_equals_the_replaced_code(monkeypatch):
    """Both arms of 50 seeded configs run the same with the replaced code:
    every `NodeStats`, the slot log, `energy.csv`, `trust.csv`, the
    elections and the re-keys. The set is not vacuous: it holds elections,
    deaths, suspicious rows, dropped duties, replays and every loss rate."""
    configs = [replace(c, adaptive=a) for c in frame_configs(50) for a in (False, True)]
    reports = [sim.run(config) for config in configs]
    for owner, name, code in REPLACED:
        monkeypatch.setattr(owner, name, code, raising=False)
    for got, config in zip(reports, configs):
        want = sim.run(config)
        assert got.nodes == want.nodes
        assert got.slot_log == want.slot_log
        assert got.energy_csv() == want.energy_csv()
        assert got.trust_csv() == want.trust_csv()
        assert got.elections == want.elections
        assert got.rekeys == want.rekeys
    rows = [rec for r in reports for observer in r.trust_tables
            for rec in r.trust_tables[observer].rows.values()]
    assert sum(len(r.elections) for r in reports) >= 10
    assert sum(not s.alive for r in reports for s in r.nodes.values()) > 0
    assert any(rec.suspicious for rec in rows)
    assert any(rec.pd for rec in rows)
    assert any(not honest for r in reports for *_, honest in r.slot_log)
    assert {c.loss_rate for c in configs} == {0.0, 0.1, 0.2}
