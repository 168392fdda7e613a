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

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field, fields
from typing import Optional, TextIO, get_type_hints

from .addressing import NodeAddress


@dataclass
class NeighborRecord:
    """Observation counters for one neighbor.

    The two energy/signal slots hold the latest two samples, with t1 the
    older. Routing cost (rc) is a column of the paper's record that no
    event sets, so it stays 0; it does not enter the trust formula.
    `_trust` keeps the trust value of these counters under the weights of
    the table(s) holding the row; None means it is yet to be computed.
    Tables that share a row must share their weights.
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


# A row's public counters, in field order, with their types. The trust CSV
# has a column for each, after the observer and neighbor, before the trust.
RECORD_FIELDS = {
    name: kind
    for name, kind in get_type_hints(NeighborRecord).items()
    if not name.startswith("_")
}
CSV_COLUMNS = ("observer", "neighbor", *RECORD_FIELDS, "trust")


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


def compute_trust(record: NeighborRecord, weights: TrustWeights) -> float:
    """Weighted sum of the six behavior ratios; always in [0, 1).

    The six terms: energy drain ratio, signal drift ratio, control and data
    forwarding ratios, collision-freeness, and delivery (non-drop) ratio.
    An undefined ratio (zero denominator) counts as neutral: a node never
    asked to forward has not misbehaved, and one that never sent or
    received has collided or dropped nothing. A rising signal sample would
    make the drift ratio negative; each ratio is clamped into [0, 1], as
    `min(max(r, 0.0), 1.0)` clamps it, -0.0 and NaN included, so trust stays
    well-defined. The clamps are written out in place, with no call per
    term: the simulator computes a trust per row and frame.
    """
    ae = record.ae_t1
    pss = record.pss_t1
    crf = record.crf
    drf = record.drf
    npt = record.npt
    npr = record.npr
    r1 = 1.0 if ae == 0 else (ae - record.ae_t2) / ae
    r2 = 1.0 if pss == 0 else (pss - record.pss_t2) / pss
    r3 = 1.0 if crf == 0 else record.craf / crf
    r4 = 1.0 if drf == 0 else record.draf / drf
    # 1 - clamp(0.0) is the neutral 1.0 of a node that never sent or received.
    r5 = 0.0 if npt == 0 else record.npc / npt
    r6 = 0.0 if npr == 0 else record.pd / npr
    return (
        weights.w1 * (0.0 if r1 < 0.0 else 1.0 if r1 > 1.0 else r1)
        + weights.w2 * (0.0 if r2 < 0.0 else 1.0 if r2 > 1.0 else r2)
        + weights.w3 * (0.0 if r3 < 0.0 else 1.0 if r3 > 1.0 else r3)
        + weights.w4 * (0.0 if r4 < 0.0 else 1.0 if r4 > 1.0 else r4)
        + weights.w5 * (1.0 - (0.0 if r5 < 0.0 else 1.0 if r5 > 1.0 else r5))
        + weights.w6 * (1.0 - (0.0 if r6 < 0.0 else 1.0 if r6 > 1.0 else r6))
    )


@dataclass
class TrustTable:
    """One observer's per-neighbor records and derived trust values.

    `record` is the one entry for observations: every event, per packet or
    per frame, goes through it, and it only updates the row. `trust(neighbor)`
    computes the neighbor's trust when it is read (also through
    `election_trust`, `lowest_two` and `to_csv`), once per change of the
    row. `lowest_two` gives the two lowest `(election_trust, subject)` pairs
    in one pass over the rows: the lower of them that is not a member's own
    is that member's lowest neighbor trust.

    The simulator keeps one table per group, recording each observation
    once. A member reads it without its own row: elections and the trust
    CSV read the shared table itself, and `TrustTables` builds a member's
    view, a table over the same row objects, only when one is read. A trust
    value computed through any of them is kept on the row, so every table
    holding that row reads it.

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

    def record(self, neighbor: NodeAddress, kind: str, value: Optional[float] = None) -> None:
        """Apply one observation event; exactly one field changes. A row is
        made on its subject's first event.

        An energy sample that is higher than the previous one is not
        stored: claiming to regain energy marks the neighbor suspicious
        instead, which zeroes it out for election purposes.
        """
        rec = self.rows.get(neighbor)
        if rec is None:
            rec = self.rows[neighbor] = NeighborRecord()
        # The kinds recorded per packet or per frame come first.
        if kind == "packet-transmitted":
            rec.npt += 1
        elif kind == "packet-received":
            rec.npr += 1
        elif kind == "energy-sample":
            if value is None or not 0 <= value < math.inf:
                raise ValueError("energy sample must be finite and non-negative")
            if rec._energy_samples == 0:
                rec.ae_t1 = rec.ae_t2 = value
                rec._energy_samples = 1
            elif value > rec.ae_t2:
                # Energy cannot grow; a node advertising more energy than
                # before is faking its reading.
                rec.suspicious = True
            else:
                rec.ae_t1 = rec.ae_t2
                rec.ae_t2 = value
                rec._energy_samples += 1
        elif kind == "signal-sample":
            if value is None or not 0.0 < value <= 1.0:
                raise ValueError("signal sample must be normalized into (0, 1]")
            if rec._signal_samples == 0:
                rec.pss_t1 = rec.pss_t2 = value
                rec._signal_samples = 1
            else:
                rec.pss_t1 = rec.pss_t2
                rec.pss_t2 = value
                rec._signal_samples += 1
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

    def election_trust(self, neighbor: NodeAddress) -> float:
        """Trust as used for voting and re-keying: suspicious peers count 0."""
        rec = self.rows.get(neighbor)
        if rec is None:
            return 0.0
        if rec.suspicious:
            return 0.0
        return self.trust(neighbor)

    def lowest_two(self) -> tuple[
        tuple[Optional[float], Optional[NodeAddress]],
        tuple[Optional[float], Optional[NodeAddress]],
    ]:
        """The two lowest `(election_trust, subject)` pairs over the rows,
        lowest first, in one pass; ties break toward the lower address, and
        a missing pair reads `(None, None)`. A stale trust is computed and
        kept on its row, as `trust` does."""
        weights = self.weights
        first = second = None
        first_subject = second_subject = None
        for subject, rec in self.rows.items():
            if rec.suspicious:
                t = 0.0
            else:
                t = rec._trust
                if t is None:
                    t = rec._trust = compute_trust(rec, weights)
            # `(t, subject) < (first, first_subject)`, without the tuples.
            if first_subject is None or t < first or (t == first and subject < first_subject):
                first, second = t, first
                first_subject, second_subject = subject, first_subject
            elif second_subject is None or t < second or (t == second and subject < second_subject):
                second, second_subject = t, subject
        return (first, first_subject), (second, second_subject)

    def to_csv(self) -> str:
        """Rows in the documented column order, one line per neighbor."""
        return tables_to_csv([(self.observer, self)])


def tables_to_csv(tables: Iterable[tuple[NodeAddress, TrustTable]]) -> str:
    """The trust CSV of `(observer, table)` pairs: one header, then each
    observer's rows in neighbor order, as `csv_pieces` gives them, joined
    once into the final text."""
    return "".join(csv_pieces(tables))


def csv_pieces(tables: Iterable[tuple[NodeAddress, TrustTable]]) -> Iterator[str]:
    """The trust CSV of `(observer, table)` pairs as the strings it is made
    of: the header line, then for each line the observer's "G.N," prefix and
    the row's tail. Floats have nine decimals and flags read 0 or 1.

    An observer reads a table filed under another observer, a group's shared
    ledger, without its own row, as through a view. A tail is the row's
    cells from the neighbor on, joined. Each table's tails are formatted and
    put in neighbor order once, however many observers read it, and every
    piece is one of those strings or the observer's one prefix: nothing is
    built per line. The memo keeps the tables themselves, so no id it is
    keyed on is reused while it runs. No cell holds a comma, a quote or a
    newline (addresses read "G.N", and every number is digits, a sign and a
    point), so the text is exactly what `csv.writer` writes for the same
    cells."""
    yield ",".join(CSV_COLUMNS) + "\n"
    ordered: dict[int, tuple[TrustTable, list[tuple[NodeAddress, str]]]] = {}
    for observer, table in tables:
        seen = ordered.get(id(table))
        if seen is None:
            tails = [(n, _tail(table, n)) for n in sorted(table.rows)]
            seen = ordered[id(table)] = (table, tails)
        own = observer if table.observer != observer else None
        prefix = f"{observer},"
        for neighbor, tail in seen[1]:
            if neighbor != own:
                yield prefix
                yield tail


def _tail(table: TrustTable, neighbor: NodeAddress) -> str:
    """The neighbor's line from the neighbor on, with its end."""
    rec = table.rows[neighbor]
    cells = [
        f"{getattr(rec, name):.9f}" if kind is float else str(int(getattr(rec, name)))
        for name, kind in RECORD_FIELDS.items()
    ]
    return f"{neighbor},{','.join(cells)},{table.trust(neighbor):.9f}\n"


class TrustTables(Mapping[NodeAddress, TrustTable]):
    """Read-only trust tables by observer, held as the tables they are read
    from: an observer's own table, such as the copy a dead node froze, or a
    ledger filed under another observer that several observers share.

    Reading an observer whose table is a shared ledger builds its view: a
    table over the ledger's row objects without the observer's own row.
    `to_csv` and `write_csv` write from the held tables and build no view.
    Two mappings compare equal when they read the same tables; a mapping
    pickles with each shared ledger once."""

    def __init__(self, tables: dict[NodeAddress, TrustTable]) -> None:
        self._tables = tables

    def __getitem__(self, observer: NodeAddress) -> TrustTable:
        table = self._tables[observer]
        if table.observer == observer:
            return table
        rows = dict(table.rows)
        rows.pop(observer, None)
        return TrustTable(observer, table.weights, rows)

    def __iter__(self) -> Iterator[NodeAddress]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    def to_csv(self) -> str:
        """Every observer's table, in address order, as `tables_to_csv` writes it."""
        return tables_to_csv(self._in_order())

    def write_csv(self, fh: TextIO) -> None:
        """Write `to_csv`'s text to an open text file, piece by piece,
        never holding the whole text."""
        fh.writelines(csv_pieces(self._in_order()))

    def _in_order(self) -> Iterator[tuple[NodeAddress, TrustTable]]:
        return ((a, self._tables[a]) for a in sorted(self._tables))


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
