"""Per-node security agent: picks a security level for every packet.

The agent sits beside the protocol stack like a resource manager. It holds
the node's latest two cross-layer readings, as plain attributes the stack
sets as they change: its remaining energy and the lowest trust among its
neighbors. `SecurityAgent.decide` folds them with the scenario policy into
a per-packet decision. The decision rule is a small deterministic ladder
around the deployment scenario's policy:

    1. key material always ships at the strongest level with a tag,
    2. start from the scenario base level,
    3. escalate one level while the lowest neighbor trust is below the
       alarm threshold,
    4. otherwise drop one level (never below the scenario minimum) while
       energy is below the scenario floor,
    5. routing control always carries a tag.

The ladder is deliberately isolated behind `SecurityAgent.decide` so a
smarter agent can replace it without touching the stack. Packets without a
tag still carry the truncated counter octet; dropping the counter would
break freshness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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


class SecurityAgent:
    """Holds one node's latest readings and picks each packet's level.

    `available_energy` is the node's remaining battery.
    `lowest_neighbor_trust` is the lowest trust among its neighbors, or
    None while it has none.
    """

    def __init__(self, policy: ScenarioPolicy):
        self.policy = policy
        self.available_energy: float = math.inf
        self.lowest_neighbor_trust: Optional[float] = None

    def decide(self, packet_class: PacketClass) -> SecurityLevel:
        """The decision ladder: same readings and packet class, same answer."""
        if packet_class is PacketClass.KEY_MATERIAL:
            return LEVEL_STRONGEST
        policy = self.policy
        enc = int(policy.base_level.encryption)
        trust = self.lowest_neighbor_trust
        if trust is not None and trust < policy.trust_alarm:
            enc += 1
        elif self.available_energy < policy.energy_floor:
            enc -= 1
        enc = max(enc, int(policy.min_level.encryption))
        enc = min(enc, int(Encryption.RC5_R12))

        auth = policy.base_level.auth
        if packet_class is PacketClass.ROUTING_CONTROL:
            auth = True
        return SecurityLevel(Encryption(enc), auth)
