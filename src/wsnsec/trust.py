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


@dataclass
class TrustTable:
    """One observer's per-neighbor records and derived trust values.

    Recording an observation only updates the row; `trust(neighbor)`
    computes the neighbor's trust when it is read (also through
    `election_trust` and `to_csv`), once per change of the row.

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
