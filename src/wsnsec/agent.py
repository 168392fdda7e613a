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

from .linksec import LEVELS, Encryption, SecurityLevel

LEVEL_STRONGEST = LEVELS[(Encryption.RC5_R12 << 1) | True]


class PacketClass(Enum):
    ROUTING_CONTROL = "routing-control"
    SENSED_DATA = "sensed-data"
    CONTROL = "control"
    KEY_MATERIAL = "key-material"


# The members `decide` reads, bound once. `EnumType` defines `__getattr__`,
# so on CPython 3.11 reading a member off its class, `PacketClass.KEY_MATERIAL`,
# takes the slow attribute path: 100 ns, against 7 ns for a module global.
_KEY_MATERIAL = PacketClass.KEY_MATERIAL
_ROUTING_CONTROL = PacketClass.ROUTING_CONTROL
_STRONGEST = Encryption.RC5_R12


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


# The three reference scenarios' presets, high, medium and low: base level,
# minimum level, energy floor as a share of the battery, and trust alarm.
_PRESETS = {
    "military-surveillance": (
        SecurityLevel(Encryption.RC5_R12, True), SecurityLevel(Encryption.RC5_R12, True), 0.0, 0.3
    ),
    "habitat-monitoring": (
        SecurityLevel(Encryption.RC5_R8, True), SecurityLevel(Encryption.RC5_R4, True), 0.2, 0.3
    ),
    "agricultural-farming": (
        SecurityLevel(Encryption.XOR, True), SecurityLevel(Encryption.XOR, True), 0.1, 0.2
    ),
}

SCENARIO_NAMES = tuple(_PRESETS)

SCENARIO_ALIASES = {
    "military": "military-surveillance",
    "habitat": "habitat-monitoring",
    "agriculture": "agricultural-farming",
}


def default_policy(name: str, initial_energy: float = 1000.0) -> ScenarioPolicy:
    """The preset policy of a reference scenario, by name or alias, for a
    battery of `initial_energy`."""
    name = SCENARIO_ALIASES.get(name, name)
    try:
        base, minimum, floor_share, alarm = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}") from None
    return ScenarioPolicy(name, base, minimum, floor_share * initial_energy, alarm)


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
        """The decision ladder: same readings and packet class, same answer.

        Returns one of the shared `linksec.LEVELS` objects, the entry at the
        level's wire code, and never builds a level. The policy keeps its
        base level within [min_level, RC5_R12], so a step up can only pass
        the top and a step down only the minimum: each step clamps the one
        bound it can cross."""
        if packet_class is _KEY_MATERIAL:
            return LEVEL_STRONGEST
        policy = self.policy
        base = policy.base_level
        enc = base.encryption
        trust = self.lowest_neighbor_trust
        if trust is not None and trust < policy.trust_alarm:
            enc += 1
            if enc > _STRONGEST:
                enc = _STRONGEST
        elif self.available_energy < policy.energy_floor:
            enc -= 1
            floor = policy.min_level.encryption
            if enc < floor:
                enc = floor
        auth = base.auth or packet_class is _ROUTING_CONTROL
        return LEVELS[(enc << 1) | auth]
