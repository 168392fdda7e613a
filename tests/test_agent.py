import math

import pytest
from hypothesis import example, given, settings, strategies as st

from wsnsec.agent import (
    LEVEL_STRONGEST,
    SCENARIO_ALIASES,
    SCENARIO_NAMES,
    PacketClass,
    ScenarioPolicy,
    SecurityAgent,
    default_policy,
)
from wsnsec.linksec import LEVELS, Encryption, SecurityLevel

MILITARY = default_policy("military-surveillance", 1000.0)
HABITAT = default_policy("habitat-monitoring", 1000.0)
FARM = default_policy("agricultural-farming", 1000.0)
# A policy whose minimum is its base, above XOR, with no tag by default.
PINNED_R8 = ScenarioPolicy(
    name="pinned-r8",
    base_level=SecurityLevel(Encryption.RC5_R8, False),
    min_level=SecurityLevel(Encryption.RC5_R8, True),
    energy_floor=50.0,
    trust_alarm=0.2,
)


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


DRAWN_LEVELS = st.builds(SecurityLevel, st.sampled_from(Encryption), st.booleans())


def reference_decide(policy, pclass, energy, trust):
    """The ladder written out, building its level: the oracle for `decide`."""
    if pclass is PacketClass.KEY_MATERIAL:
        return SecurityLevel(Encryption.RC5_R12, True)
    enc = int(policy.base_level.encryption)
    if trust is not None and trust < policy.trust_alarm:
        enc += 1
    elif energy < policy.energy_floor:
        enc -= 1
    enc = max(enc, int(policy.min_level.encryption))
    enc = min(enc, int(Encryption.RC5_R12))
    auth = policy.base_level.auth
    if pclass is PacketClass.ROUTING_CONTROL:
        auth = True
    return SecurityLevel(Encryption(enc), auth)


@st.composite
def policies(draw):
    base = draw(DRAWN_LEVELS)
    floor = draw(st.sampled_from([e for e in Encryption if e <= base.encryption]))
    return ScenarioPolicy(
        name="drawn",
        base_level=base,
        min_level=SecurityLevel(floor, draw(st.booleans())),
        energy_floor=draw(st.floats(0.0, 1e6)),
        trust_alarm=draw(st.floats(0.0, 1.0, exclude_max=True)),
        fixed_level=draw(DRAWN_LEVELS),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from([MILITARY, HABITAT, FARM]), policies()),
    st.floats(min_value=0.0, allow_nan=False),
    st.none() | st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from(PacketClass),
)
# The edges of the ladder's comparisons and clamps, which random floats
# rarely hit: trust exactly at the alarm (no step up, so low energy steps
# down), energy exactly at the floor (no step down), a step up from
# RC5_R12, steps down from a base at the minimum (RC5_R8 and XOR), and a
# node without neighbors on low energy.
@example(HABITAT, 100.0, HABITAT.trust_alarm, PacketClass.SENSED_DATA)
@example(HABITAT, HABITAT.energy_floor, 0.9, PacketClass.SENSED_DATA)
@example(MILITARY, 500.0, 0.0, PacketClass.CONTROL)
@example(PINNED_R8, 10.0, 0.5, PacketClass.SENSED_DATA)
@example(FARM, 0.0, 0.9, PacketClass.ROUTING_CONTROL)
@example(HABITAT, 100.0, None, PacketClass.CONTROL)
def test_ladder_stays_within_policy(policy, energy, trust, pclass):
    level = decide(policy, pclass, energy, trust)
    # The shared table entry itself, equal to the level built from the rule.
    assert level is LEVELS[(level.encryption << 1) | level.auth]
    assert level == reference_decide(policy, pclass, energy, trust)
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

    @pytest.mark.parametrize("battery", [0.0, 0.4, 1.5, 6.0, 1000.0, 1e9])
    @pytest.mark.parametrize("name", [*SCENARIO_NAMES, *SCENARIO_ALIASES])
    def test_presets_by_name_and_alias(self, name, battery):
        """Each preset, by its name or its alias, is the policy spelled out
        here: base level, minimum level, energy floor and trust alarm."""
        full = SCENARIO_ALIASES.get(name, name)
        expected = {
            "military-surveillance": (
                SecurityLevel(Encryption.RC5_R12, True), SecurityLevel(Encryption.RC5_R12, True),
                0.0, 0.3,
            ),
            "habitat-monitoring": (
                SecurityLevel(Encryption.RC5_R8, True), SecurityLevel(Encryption.RC5_R4, True),
                0.2 * battery, 0.3,
            ),
            "agricultural-farming": (
                SecurityLevel(Encryption.XOR, True), SecurityLevel(Encryption.XOR, True),
                0.1 * battery, 0.2,
            ),
        }[full]
        policy = default_policy(name, battery)
        assert policy == ScenarioPolicy(full, *expected)
        assert policy.fixed_level == LEVEL_STRONGEST
        assert SCENARIO_NAMES == (
            "military-surveillance", "habitat-monitoring", "agricultural-farming",
        )

    @pytest.mark.parametrize("alarm", [-0.1, 1.0, math.nan])
    def test_trust_alarm_range(self, alarm):
        level = SecurityLevel(Encryption.RC5_R8, True)
        with pytest.raises(ValueError, match=r"trust_alarm must be in \[0, 1\)"):
            ScenarioPolicy("bad", level, level, 0.0, alarm)


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
