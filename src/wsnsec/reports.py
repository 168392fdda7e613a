"""What a simulation run reports, and the text of the files written from it.

`SimReport` holds one run's per-node ledgers and counters, its elections,
re-keys and slot log, and every node's final trust table; it renders
`energy.csv`, `trust.csv` and `summary.txt`. `SavingsReport` pairs the fixed
and adaptive arms of one scenario and renders `savings.csv`. Energy is
printed with nine decimals, so each file is byte-stable for a config.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional

from .addressing import NodeAddress
from .trust import TrustTable, tables_to_csv


@dataclass
class EnergyLedger:
    """A node's spent energy; every charge and clamp reads `total`'s sum order."""

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
    # No simulator path sets it: every simulator wire is a pending wire,
    # which carries its header and cannot be malformed. The benchmark's
    # reject count and the goldens' stats.csv still read the column.
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
        return tables_to_csv(self.trust_tables[a] for a in sorted(self.trust_tables))


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
