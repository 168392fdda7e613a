import math

import pytest

from wsnsec.addressing import NodeAddress
from wsnsec.agent import (
    PacketClass,
    PerceptSnapshot,
    ScenarioPolicy,
    SecurityAgent,
    decide,
    default_policy,
)
from wsnsec.linksec import Encryption, SecurityLevel

N1 = NodeAddress(0, 1)
MILITARY = default_policy("military-surveillance", 1000.0)
HABITAT = default_policy("habitat-monitoring", 1000.0)
FARM = default_policy("agricultural-farming", 1000.0)


def snap(policy, pclass=PacketClass.SENSED_DATA, energy=math.inf, trust=None):
    return PerceptSnapshot(
        scenario_policy=policy,
        packet_class=pclass,
        available_energy=energy,
        neighbor_trust=trust or {},
    )


class TestDecide:
    def test_military_always_strongest(self):
        for energy in (math.inf, 500.0, 1.0):
            for trust in ({}, {N1: 0.05}, {N1: 0.9}):
                level = decide(snap(MILITARY, energy=energy, trust=trust))
                assert level == SecurityLevel(Encryption.RC5_R12, True)

    def test_farm_baseline_is_xor_with_auth(self):
        level = decide(snap(FARM, energy=900.0, trust={N1: 0.9}))
        assert level == SecurityLevel(Encryption.XOR, True)

    def test_habitat_escalates_on_low_trust(self):
        level = decide(snap(HABITAT, trust={N1: 0.1}))
        assert level.encryption == Encryption.RC5_R12
        assert level.auth

    def test_habitat_deescalates_on_low_energy(self):
        level = decide(snap(HABITAT, energy=100.0, trust={N1: 0.9}))
        assert level.encryption == Encryption.RC5_R4

    def test_escalation_wins_over_low_energy(self):
        level = decide(snap(HABITAT, energy=100.0, trust={N1: 0.1}))
        assert level.encryption == Encryption.RC5_R12

    def test_never_below_min_level(self):
        level = decide(snap(FARM, energy=0.0, trust={N1: 0.9}))
        assert level.encryption == Encryption.XOR  # already at the floor

    def test_key_material_override(self):
        for policy in (MILITARY, HABITAT, FARM):
            level = decide(snap(policy, pclass=PacketClass.KEY_MATERIAL, energy=0.0))
            assert level == SecurityLevel(Encryption.RC5_R12, True)

    def test_routing_control_forces_auth(self):
        policy = ScenarioPolicy(
            name="custom",
            base_level=SecurityLevel(Encryption.RC5_R4, False),
            min_level=SecurityLevel(Encryption.XOR, False),
            energy_floor=0.0,
            trust_alarm=0.2,
        )
        assert not decide(snap(policy)).auth
        assert decide(snap(policy, pclass=PacketClass.ROUTING_CONTROL)).auth

    def test_pure_function(self):
        s = snap(HABITAT, energy=50.0, trust={N1: 0.25})
        assert decide(s) == decide(s)

    def test_escalation_caps_at_strongest(self):
        level = decide(snap(MILITARY, trust={N1: 0.0}))
        assert level.encryption == Encryption.RC5_R12


class TestScenarioPolicy:
    def test_min_above_base_rejected(self):
        with pytest.raises(ValueError):
            ScenarioPolicy(
                name="bad",
                base_level=SecurityLevel(Encryption.XOR, True),
                min_level=SecurityLevel(Encryption.RC5_R8, True),
                energy_floor=0.0,
                trust_alarm=0.3,
            )

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            default_policy("deep-sea-drilling", 1000.0)

    def test_floor_scales_with_battery(self):
        assert default_policy("habitat-monitoring", 10.0).energy_floor == pytest.approx(2.0)


class TestAgentState:
    def test_no_reports_falls_back_to_base(self):
        agent = SecurityAgent(HABITAT)
        assert agent.decide(PacketClass.SENSED_DATA) == HABITAT.base_level

    def test_energy_report_drives_deescalation(self):
        agent = SecurityAgent(HABITAT)
        agent.available_energy = 5.0
        assert agent.decide(PacketClass.SENSED_DATA).encryption == Encryption.RC5_R4

    def test_trust_report_drives_escalation(self):
        agent = SecurityAgent(HABITAT)
        agent.neighbor_trust[N1] = 0.05
        assert agent.decide(PacketClass.SENSED_DATA).encryption == Encryption.RC5_R12
