"""Neighbor observation bookkeeping, trust scoring, and head election.

Every node watches its neighbors in promiscuous mode and keeps one row of
counters per neighbor (forwarding behavior, drops, collisions, energy and
signal samples). A neighbor's trust is a weighted sum of six behavior
ratios; weights sum to strictly less than 1 so trust always stays in
[0, 1). Group heads are replaced by election: each member nominates its
most-trusted neighbor and the head hands over to the node with the most
votes.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional

from .addressing import NodeAddress

CSV_COLUMNS = (
    "observer",
    "neighbor",
    "ae_t1",
    "ae_t2",
    "pss_t1",
    "pss_t2",
    "crf",
    "craf",
    "rc",
    "npc",
    "drf",
    "draf",
    "pd",
    "npt",
    "npr",
    "suspicious",
    "trust",
)


@dataclass
class NeighborRecord:
    """Observation counters for one neighbor.

    The two energy/signal slots hold the latest two samples, with t1 the
    older. Routing cost (rc) is recorded but does not enter the trust
    formula. `_trust` keeps the trust value of these counters under the
    weights of the table(s) holding the row; None means it is yet to be
    computed. Tables that share a row must share their weights.
    """

    ae_t1: float = 0.0
    ae_t2: float = 0.0
    pss_t1: float = 0.0
    pss_t2: float = 0.0
    crf: int = 0
    craf: int = 0
    rc: float = 0.0
    npc: int = 0
    drf: int = 0
    draf: int = 0
    pd: int = 0
    npt: int = 0
    npr: int = 0
    suspicious: bool = False
    _energy_samples: int = 0
    _signal_samples: int = 0
    _trust: Optional[float] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TrustWeights:
    w1: float = 1 / 7
    w2: float = 1 / 7
    w3: float = 1 / 7
    w4: float = 1 / 7
    w5: float = 1 / 7
    w6: float = 1 / 7

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"weight {f.name} must be finite and non-negative")
        if sum(self.as_tuple()) >= 1.0:
            raise ValueError("weights must sum to less than 1 so trust stays below 1")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.w1, self.w2, self.w3, self.w4, self.w5, self.w6)


def _ratio(num: float, den: float) -> float:
    """Behavior ratio clamped to [0, 1]; an undefined ratio (zero
    denominator) counts as neutral: a node never asked to forward has not
    misbehaved."""
    if den == 0:
        return 1.0
    return min(max(num / den, 0.0), 1.0)


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
    w = weights.as_tuple()
    return w[0] * a1 + w[1] * a2 + w[2] * a3 + w[3] * a4 + w[4] * a5 + w[5] * a6


@dataclass
class TrustTable:
    """One observer's per-neighbor records and derived trust values.

    Recording an observation only updates the row; `trust(neighbor)`
    computes the neighbor's trust when it is read (also through
    `election_trust` and `to_csv`), once per change of the row.

    The simulator keeps one table per group, recording each observation
    once, and hands every member a view of it: a table over the same row
    objects without the member's own row. A trust value computed through
    one view is kept on the row, so every view holding that row reads it.

    Single-owner: operations are plain single-writer updates with no
    locking; move the table between threads, never share it.
    """

    observer: NodeAddress
    weights: TrustWeights = field(default_factory=TrustWeights)
    rows: dict[NodeAddress, NeighborRecord] = field(default_factory=dict)

    def trust(self, neighbor: NodeAddress) -> float:
        """The neighbor's trust, computed from its row when read and kept
        on the row until the row next changes."""
        rec = self.rows[neighbor]
        if rec._trust is None:
            rec._trust = compute_trust(rec, self.weights)
        return rec._trust

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
        if kind == "control-received-for-forward":
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
        elif kind == "packet-transmitted":
            rec.npt += 1
        elif kind == "packet-received":
            rec.npr += 1
        elif kind == "collision":
            if rec.npc >= rec.npt:
                raise ValueError("more collisions than transmissions")
            rec.npc += 1
        elif kind == "energy-sample":
            self._energy_sample(rec, value)
        elif kind == "signal-sample":
            self._signal_sample(rec, value)
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        rec._trust = None

    @staticmethod
    def _energy_sample(rec: NeighborRecord, value: Optional[float]) -> None:
        if value is None or value < 0:
            raise ValueError("energy sample requires a non-negative value")
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

    def election_trust(self, neighbor: NodeAddress) -> float:
        """Trust as used for voting and re-keying: suspicious peers count 0."""
        rec = self.rows.get(neighbor)
        if rec is None:
            return 0.0
        if rec.suspicious:
            return 0.0
        return self.trust(neighbor)

    def to_csv(self) -> str:
        """Rows in the documented column order, one line per neighbor."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for neighbor in sorted(self.rows):
            rec = self.rows[neighbor]
            writer.writerow(
                [
                    str(self.observer),
                    str(neighbor),
                    f"{rec.ae_t1:.9f}",
                    f"{rec.ae_t2:.9f}",
                    f"{rec.pss_t1:.9f}",
                    f"{rec.pss_t2:.9f}",
                    rec.crf,
                    rec.craf,
                    f"{rec.rc:.9f}",
                    rec.npc,
                    rec.drf,
                    rec.draf,
                    rec.pd,
                    rec.npt,
                    rec.npr,
                    int(rec.suspicious),
                    f"{self.trust(neighbor):.9f}",
                ]
            )
        return buf.getvalue()


def run_election(
    group: Iterable[NodeAddress],
    tables: Mapping[NodeAddress, TrustTable],
    current_head: NodeAddress,
) -> tuple[NodeAddress, Optional[NodeAddress]]:
    """Elect a new group head and, when possible, a standby vice head.

    Each member nominates the in-group neighbor it trusts most (the head
    cannot nominate itself; nobody observes themselves). The node with the
    most votes wins; the runner-up with at least one vote becomes vice
    head. All ties break toward the lowest address, keeping elections
    reproducible.
    """
    members = sorted(set(group))
    if not members:
        raise ValueError("cannot elect a head of an empty group")
    if len(members) == 1:
        return members[0], None
    if current_head not in members:
        raise ValueError("current head does not belong to the group")

    in_group = set(members)
    votes: Counter[NodeAddress] = Counter()
    for member in members:
        table = tables.get(member)
        if table is None:
            continue
        candidates = [
            (table.election_trust(n), n)
            for n in table.rows
            if n in in_group and n != member
        ]
        if not candidates:
            continue
        choice = min(candidates, key=lambda c: (-c[0], c[1]))[1]
        votes[choice] += 1

    if not votes:
        # Nobody could nominate anyone; the incumbent carries on.
        return current_head, None
    ranked = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
    head = ranked[0][0]
    vice = ranked[1][0] if len(ranked) > 1 else None
    return head, vice
