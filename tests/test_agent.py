import math

import pytest
from hypothesis import given, settings, strategies as st

from wsnsec.agent import (
    LEVEL_STRONGEST,
    PacketClass,
    ScenarioPolicy,
    SecurityAgent,
    default_policy,
)
from wsnsec.linksec import Encryption, SecurityLevel

MILITARY = default_policy("military-surveillance", 1000.0)
HABITAT = default_policy("habitat-monitoring", 1000.0)
FARM = default_policy("agricultural-farming", 1000.0)


def decide(policy, pclass=PacketClass.SENSED_DATA, energy=math.inf, trust=None):
    """The level an agent with these readings picks; `trust` is its lowest
    neighbor trust, None for a node without neighbors."""
    agent = SecurityAgent(policy)
    agent.available_energy = energy
    agent.lowest_neighbor_trust = trust
    return agent.decide(pclass)


class TestDecide:
    def test_military_always_strongest(self):
        for energy in (math.inf, 500.0, 1.0):
            for trust in (None, 0.05, 0.9):
                level = decide(MILITARY, energy=energy, trust=trust)
                assert level == SecurityLevel(Encryption.RC5_R12, True)

    def test_farm_baseline_is_xor_with_auth(self):
        level = decide(FARM, energy=900.0, trust=0.9)
        assert level == SecurityLevel(Encryption.XOR, True)

    def test_habitat_escalates_on_low_trust(self):
        level = decide(HABITAT, trust=0.1)
        assert level.encryption == Encryption.RC5_R12
        assert level.auth

    def test_habitat_deescalates_on_low_energy(self):
        level = decide(HABITAT, energy=100.0, trust=0.9)
        assert level.encryption == Encryption.RC5_R4

    def test_escalation_wins_over_low_energy(self):
        level = decide(HABITAT, energy=100.0, trust=0.1)
        assert level.encryption == Encryption.RC5_R12

    def test_never_below_min_level(self):
        level = decide(FARM, energy=0.0, trust=0.9)
        assert level.encryption == Encryption.XOR  # already at the floor

    def test_key_material_override(self):
        for policy in (MILITARY, HABITAT, FARM):
            level = decide(policy, pclass=PacketClass.KEY_MATERIAL, energy=0.0)
            assert level == SecurityLevel(Encryption.RC5_R12, True)

    def test_routing_control_forces_auth(self):
        policy = ScenarioPolicy(
            name="custom",
            base_level=SecurityLevel(Encryption.RC5_R4, False),
            min_level=SecurityLevel(Encryption.XOR, False),
            energy_floor=0.0,
            trust_alarm=0.2,
        )
        assert not decide(policy).auth
        assert decide(policy, pclass=PacketClass.ROUTING_CONTROL).auth

    def test_pure_function(self):
        agent = SecurityAgent(HABITAT)
        agent.available_energy = 50.0
        agent.lowest_neighbor_trust = 0.25
        first = agent.decide(PacketClass.SENSED_DATA)
        assert agent.decide(PacketClass.SENSED_DATA) == first

    def test_escalation_caps_at_strongest(self):
        level = decide(MILITARY, trust=0.0)
        assert level.encryption == Encryption.RC5_R12


LEVELS = st.builds(SecurityLevel, st.sampled_from(Encryption), st.booleans())


@st.composite
def policies(draw):
    base = draw(LEVELS)
    floor = draw(st.sampled_from([e for e in Encryption if e <= base.encryption]))
    return ScenarioPolicy(
        name="drawn",
        base_level=base,
        min_level=SecurityLevel(floor, draw(st.booleans())),
        energy_floor=draw(st.floats(0.0, 1e6)),
        trust_alarm=draw(st.floats(0.0, 1.0, exclude_max=True)),
        fixed_level=draw(LEVELS),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from([MILITARY, HABITAT, FARM]), policies()),
    st.floats(min_value=0.0, allow_nan=False),
    st.none() | st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from(PacketClass),
)
def test_ladder_stays_within_policy(policy, energy, trust, pclass):
    level = decide(policy, pclass, energy, trust)
    assert policy.min_level.encryption <= level.encryption <= Encryption.RC5_R12
    if pclass is PacketClass.KEY_MATERIAL:
        assert level == LEVEL_STRONGEST
    if pclass is PacketClass.ROUTING_CONTROL:
        assert level.auth


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
        agent.lowest_neighbor_trust = 0.05
        assert agent.decide(PacketClass.SENSED_DATA).encryption == Encryption.RC5_R12
