"""Per-node security agent: picks a security level for every packet.

The agent sits beside the protocol stack like a resource manager. It holds
the node's latest cross-layer readings, its remaining energy and the trust
of its neighbors, which the stack sets as they change, and folds them with
the scenario policy into a per-packet decision. The decision rule is a
small deterministic ladder around the deployment scenario's policy:

    1. key material always ships at the strongest level with a tag,
    2. start from the scenario base level,
    3. escalate one level while any neighbor's trust is below the alarm
       threshold,
    4. otherwise drop one level (never below the scenario minimum) while
       energy is below the scenario floor,
    5. routing control always carries a tag.

The ladder is deliberately isolated behind `decide` so a smarter agent can
replace it without touching the stack. Packets without a tag still carry
the truncated counter octet; dropping the counter would break freshness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .addressing import NodeAddress
from .linksec import Encryption, SecurityLevel

LEVEL_STRONGEST = SecurityLevel(Encryption.RC5_R12, auth=True)


class PacketClass(Enum):
    ROUTING_CONTROL = "routing-control"
    SENSED_DATA = "sensed-data"
    CONTROL = "control"
    KEY_MATERIAL = "key-material"


@dataclass(frozen=True)
class ScenarioPolicy:
    """Deployment profile driving the decision ladder.

    `fixed_level` is what a no-agent deployment of this scenario would run
    for every packet; the fixed arm of energy comparisons uses it.
    """

    name: str
    base_level: SecurityLevel
    min_level: SecurityLevel
    energy_floor: float
    trust_alarm: float
    fixed_level: SecurityLevel = LEVEL_STRONGEST

    def __post_init__(self) -> None:
        if self.min_level.encryption > self.base_level.encryption:
            raise ValueError("min_level must not exceed base_level")
        if not 0.0 <= self.trust_alarm < 1.0:
            raise ValueError("trust_alarm must be in [0, 1)")
        if not 0 <= self.energy_floor < math.inf:
            raise ValueError("energy_floor must be finite and non-negative")


SCENARIO_NAMES = (
    "military-surveillance",
    "habitat-monitoring",
    "agricultural-farming",
)

SCENARIO_ALIASES = {
    "military": "military-surveillance",
    "habitat": "habitat-monitoring",
    "agriculture": "agricultural-farming",
}


def default_policy(name: str, initial_energy: float = 1000.0) -> ScenarioPolicy:
    """Built-in high/medium/low profiles for the three reference scenarios."""
    name = SCENARIO_ALIASES.get(name, name)
    if name == "military-surveillance":
        return ScenarioPolicy(
            name=name,
            base_level=SecurityLevel(Encryption.RC5_R12, True),
            min_level=SecurityLevel(Encryption.RC5_R12, True),
            energy_floor=0.0,
            trust_alarm=0.3,
        )
    if name == "habitat-monitoring":
        return ScenarioPolicy(
            name=name,
            base_level=SecurityLevel(Encryption.RC5_R8, True),
            min_level=SecurityLevel(Encryption.RC5_R4, True),
            energy_floor=0.2 * initial_energy,
            trust_alarm=0.3,
        )
    if name == "agricultural-farming":
        return ScenarioPolicy(
            name=name,
            base_level=SecurityLevel(Encryption.XOR, True),
            min_level=SecurityLevel(Encryption.XOR, True),
            energy_floor=0.1 * initial_energy,
            trust_alarm=0.2,
        )
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")


@dataclass(frozen=True)
class PerceptSnapshot:
    scenario_policy: ScenarioPolicy
    packet_class: PacketClass
    available_energy: float = math.inf
    neighbor_trust: Mapping[NodeAddress, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.available_energy < 0:
            raise ValueError("available_energy must be non-negative")
        for t in self.neighbor_trust.values():
            if not 0.0 <= t < 1.0:
                raise ValueError("trust values must be in [0, 1)")


def decide(percept: PerceptSnapshot) -> SecurityLevel:
    """Pure decision ladder: same snapshot, same answer."""
    policy = percept.scenario_policy
    if percept.packet_class is PacketClass.KEY_MATERIAL:
        return LEVEL_STRONGEST

    enc = int(policy.base_level.encryption)
    trust_floor = min(percept.neighbor_trust.values()) if percept.neighbor_trust else None
    if trust_floor is not None and trust_floor < policy.trust_alarm:
        enc += 1
    elif percept.available_energy < policy.energy_floor:
        enc -= 1
    enc = max(enc, int(policy.min_level.encryption))
    enc = min(enc, int(Encryption.RC5_R12))

    auth = policy.base_level.auth
    if percept.packet_class is PacketClass.ROUTING_CONTROL:
        auth = True
    return SecurityLevel(Encryption(enc), auth)


class SecurityAgent:
    """Holds one node's latest readings: its remaining energy and the
    trust of its neighbors."""

    def __init__(self, policy: ScenarioPolicy):
        self.policy = policy
        self.available_energy: float = math.inf
        self.neighbor_trust: dict[NodeAddress, float] = {}

    def snapshot(self, packet_class: PacketClass) -> PerceptSnapshot:
        return PerceptSnapshot(
            scenario_policy=self.policy,
            packet_class=packet_class,
            available_energy=self.available_energy,
            neighbor_trust=dict(self.neighbor_trust),
        )

    def decide(self, packet_class: PacketClass) -> SecurityLevel:
        return decide(self.snapshot(packet_class))
