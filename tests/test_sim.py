import hmac
import json
import os
import pathlib
import random
import threading
import time
import tracemalloc
from collections.abc import Mapping
from dataclasses import fields, replace
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from wsnsec import keys, linksec, sim
from wsnsec.addressing import BROADCAST_NODE_ID, NodeAddress
from wsnsec.agent import LEVEL_STRONGEST, PacketClass, default_policy
from wsnsec.keys import SymmetricKey, derive_keyring
from wsnsec.linksec import CounterState, Encryption, SecurityLevel
from wsnsec.reports import EnergyLedger
from wsnsec.sim import AdversarySpec, EnergyModel, SimConfig
from wsnsec.trust import TrustTable

from test_keys import check_group_rings


GOLDEN_DIR = pathlib.Path(__file__).parent / "vectors" / "sim_golden"
GOLDEN_CONFIGS = json.loads((GOLDEN_DIR / "configs.json").read_text())
# The benchmark's scaling workload: one 254-member group, 3 frames.
BIG_GROUP = {
    "seed": 11, "node_count": 254, "group_count": 1, "sim_length": 3,
    "scenario": "agricultural-farming",
}
STAT_FIELDS = (
    "alive",
    "packets_sent",
    "decode_ok",
    "auth_rejects",
    "replay_rejects",
    "format_rejects",
    "replay_accepted",
    "bcast_ok_before_rekey",
    "bcast_ok_after_rekey",
    "bcast_fail",
)


def stats_csv(savings):
    """Every `NodeStats` counter of both arms, one row per arm and node."""
    lines = [",".join(("arm", "node") + STAT_FIELDS)]
    for arm, report in (("fixed", savings.fixed), ("adaptive", savings.adaptive)):
        for addr in sorted(report.nodes):
            stats = report.nodes[addr]
            lines.append(",".join(
                [arm, str(addr)] + [str(int(getattr(stats, f))) for f in STAT_FIELDS]
            ))
    return "\n".join(lines) + "\n"


def count_calls(monkeypatch, owner, name):
    """Wrap `owner.name` to count its calls; the count is the list's item."""
    calls = [0]
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class SealedAtOnce(linksec.PendingWire):
    """A pending wire sealed as it is made, under a key that no ring holds:
    its own plaintext answers no open, so every listener runs the real open
    on its bytes."""

    __slots__ = ()

    def __bytes__(self):
        return self._wire


def seal_at_once(monkeypatch):
    """Make `sim` seal every wire as it is made and open every wire for
    real, replays included. The seal is read through `PendingWire`'s own
    `bytes()`, once per wire."""
    encode_pending = linksec.encode_pending

    def sealing(*args):
        made = encode_pending(*args)
        wire = SealedAtOnce(b"", made.counter, made.header, made.payload)
        wire._wire = bytes(made)
        return wire

    monkeypatch.setattr(linksec, "encode_pending", sealing)


def replay_configs(count):
    """`count` seeded small configs, each with one or two replay attackers
    per group, some with loss and some with batteries that run out."""
    configs = []
    for seed in range(count):
        rnd = random.Random(seed)
        node_count, group_count = rnd.randint(3, 9), rnd.randint(1, 2)
        adversaries = []
        for gid in range(group_count):
            size = node_count // group_count + (gid < node_count % group_count)
            for node in rnd.sample(range(1, size + 1), min(size, rnd.randint(1, 2))):
                adversaries.append({"node": f"{gid}.{node}", "behavior": "replay-attacker",
                                    "start_frame": rnd.randint(0, 3)})
        configs.append(sim.config_from_dict({
            "seed": seed, "node_count": node_count, "group_count": group_count,
            "sim_length": rnd.randint(10, 25), "session_length": rnd.randint(3, 10),
            "scenario": rnd.choice(sim.SCENARIO_NAMES), "adaptive": rnd.random() < 0.5,
            "loss_rate": rnd.choice([0.0, 0.1, 0.3]),
            "energy_model": {"initial_energy": rnd.uniform(0.3, 3.0)},
            "adversaries": adversaries,
        }))
    return configs


def reachable_keys(root):
    """Every key reachable from `root` through attributes and containers."""
    found, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, SymmetricKey):
            found.append(obj)
        elif isinstance(obj, Mapping):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return found


def military(initial=1000.0):
    return default_policy("military-surveillance", initial)


def habitat(initial=1000.0):
    return default_policy("habitat-monitoring", initial)


def small_battery_cfg(seed, adversaries=()):
    em = EnergyModel(initial_energy=6.0)
    return SimConfig(
        seed=seed, node_count=4, group_count=1, sim_length=120, session_length=15,
        scenario=habitat(em.initial_energy), energy_model=em,
        adversaries=adversaries,
    )


# The loss-free goldens. `agri_death` and `agri_listen_death_24` start with
# less battery than one frame's budget (0.4 J against 0.51 J, 2.0 J against
# 2.25 J), so none of their frames is budgeted: they catch a budget that
# lets a member die. `habitat_election` budgets all but the frames near its death.
BUDGET_GOLDENS = (
    "agri_captured_two_groups", "agri_death", "agri_listen_death_24", "habitat_election",
)
NEVER_BUDGETED = ("agri_death", "agri_listen_death_24")


def golden_params(names):
    return [pytest.param(name, sim.config_from_dict(GOLDEN_CONFIGS[name]), id=name)
            for name in names]


def watch_budgets(monkeypatch):
    """Record every group frame as `(simulation, group, budgeted, left)`.

    In a budgeted frame, `left` maps each member alive at its start to its
    battery left then, and to its battery left and whether it is alive once
    the frame's charges are done, read at `_frame_end`; it is empty
    otherwise. Reading `remaining` only settles deferred listens, in order,
    as the simulator does itself."""
    frames, open_frames = [], []
    plan, frame_end = sim._Simulation._plan_listens, sim._Simulation._frame_end

    def planning(self, group):
        plan(self, group)
        budgeted = group.channel.budgeted
        left = {n: [n.remaining] for n in self._alive_members(group)} if budgeted else {}
        frames.append((self, group, budgeted, left))
        open_frames.append(left)

    def ending(self, frame):
        for left in open_frames:
            for node, reads in left.items():
                reads += node.remaining, node.alive
        open_frames.clear()
        frame_end(self, frame)

    monkeypatch.setattr(sim._Simulation, "_plan_listens", planning)
    monkeypatch.setattr(sim._Simulation, "_frame_end", ending)
    return frames


def charge_node(spent_tx=0.0, deferred=0, alive=True, budgeted=False, model=None):
    """A lone node with `model`'s battery (1 J by default), `spent_tx`
    already spent, `deferred` listens pending on its channel, and the
    channel's budget flag set."""
    config = SimConfig(energy_model=model or EnergyModel(initial_energy=1.0))
    addr, peer = NodeAddress(0, 1), NodeAddress(0, 2)
    ledger = TrustTable(NodeAddress(0, BROADCAST_NODE_ID), config.trust_weights)
    ledger.record(addr, "packet-transmitted")
    ledger.record(peer, "packet-received")
    channel = sim._Channel(config.energy_model)
    channel.deferred = deferred
    channel.budgeted = budgeted
    made = sim._Node(addr, None, ledger, channel, config)
    made.stats.ledger.tx = spent_tx
    made.stats.alive = alive
    return made


class TestBasics:
    def test_zero_frames(self):
        report = sim.run(SimConfig(seed=1, node_count=4, group_count=1, sim_length=0))
        assert report.total_energy() == 0.0
        assert not report.elections and not report.rekeys

    def test_determinism_byte_identical(self):
        cfg = SimConfig(seed=9, node_count=8, group_count=2, sim_length=25,
                        session_length=10)
        r1, r2 = sim.run(cfg), sim.run(cfg)
        assert r1.energy_csv() == r2.energy_csv()
        assert r1.summary_text() == r2.summary_text()
        assert r1.elections == r2.elections and r1.rekeys == r2.rekeys

    def test_seed_changes_nothing_honest(self):
        # No adversaries and no channel loss: the RNG is never consulted,
        # so two seeds give identical energy.
        a = sim.run(SimConfig(seed=1, node_count=4, group_count=1, sim_length=10))
        b = sim.run(SimConfig(seed=2, node_count=4, group_count=1, sim_length=10))
        assert a.total_energy() == b.total_energy()

    def test_tdm_slots_unique_per_frame(self):
        cfg = SimConfig(seed=4, node_count=9, group_count=2, sim_length=15,
                        session_length=5)
        report = sim.run(cfg)
        seen = set()
        for frame, gid, slot, addr, in_slot in report.slot_log:
            assert in_slot
            key = (frame, gid, slot)
            assert key not in seen, f"slot reuse at {key}"
            seen.add(key)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SimConfig(group_count=0)
        with pytest.raises(ValueError):
            SimConfig(node_count=0)
        with pytest.raises(ValueError):
            SimConfig(node_count=300, group_count=1)  # 300 > addressable members
        with pytest.raises(ValueError):
            SimConfig(session_length=0)
        with pytest.raises(ValueError):
            SimConfig(rekey_threshold=1.0)


class TestEnergyAccounting:
    def test_two_node_closed_form(self):
        """Hand-computed tx/rx/crypto sums for a 2-node group running the
        constant strongest level over 10 frames.

        Per frame: beacon broadcast (8-octet payload), data packet (10),
        aggregate handoff + relayed uplink (20, from frame 1 on), beacon
        re-broadcast. All at 12 rounds with a 32-bit tag.
        """
        em = EnergyModel()
        n_frames = 10
        cfg = SimConfig(seed=3, node_count=2, group_count=1, sim_length=n_frames,
                        session_length=1000, scenario=military(), energy_model=em)
        report = sim.run(cfg)
        head = report.nodes[NodeAddress(0, 1)].ledger
        member = report.nodes[NodeAddress(0, 2)].ledger

        t, x = em.tx_per_octet, em.rx_per_octet

        def crypto(n_payload):
            blocks = (n_payload + 7) // 8 + 3  # nonce offset + final + aad + tag
            return em.rc5_per_block_per_round * 12 * blocks + em.mac_fixed

        c8, c10, c20 = crypto(8), crypto(10), crypto(20)
        wire8, wire10, wire20 = 17, 19, 29  # 5 + payload + 4

        exp_head_tx = n_frames * wire8 * t + (n_frames - 1) * wire20 * t
        exp_head_rx = n_frames * (wire10 + wire8) * x
        exp_head_crypto = n_frames * (c8 + c10 + c8) + (n_frames - 1) * c20
        exp_mem_tx = n_frames * (wire10 + wire8) * t + (n_frames - 1) * wire20 * t
        exp_mem_rx = n_frames * wire8 * x + (n_frames - 1) * wire20 * x
        exp_mem_crypto = n_frames * (c8 + c10 + c8) + (n_frames - 1) * 2 * c20

        assert head.tx == pytest.approx(exp_head_tx, rel=1e-12)
        assert head.rx == pytest.approx(exp_head_rx, rel=1e-12)
        assert head.crypto == pytest.approx(exp_head_crypto, rel=1e-12)
        assert member.tx == pytest.approx(exp_mem_tx, rel=1e-12)
        assert member.rx == pytest.approx(exp_mem_rx, rel=1e-12)
        assert member.crypto == pytest.approx(exp_mem_crypto, rel=1e-12)

    def test_ledger_total_is_component_sum(self):
        report = sim.run(SimConfig(seed=5, node_count=6, group_count=2, sim_length=20))
        for stats in report.nodes.values():
            led = stats.ledger
            assert led.total == pytest.approx(led.tx + led.rx + led.crypto)

    def test_dead_nodes_stop_spending(self):
        em = EnergyModel(initial_energy=0.4)
        cfg = SimConfig(seed=6, node_count=4, group_count=1, sim_length=50,
                        scenario=habitat(em.initial_energy), energy_model=em)
        report = sim.run(cfg)
        for stats in report.nodes.values():
            assert stats.ledger.total <= em.initial_energy + 1e-12
        assert any(not s.alive for s in report.nodes.values())

    @pytest.mark.parametrize("model", [
        EnergyModel(0.0, 0.0, 0.0, 0.0, 0.0, initial_energy=0.0),
        EnergyModel(tx_per_octet=0.0, initial_energy=0.0),
    ], ids=["all_zero", "tx_free"])
    def test_zero_battery_dies_on_the_first_charge(self, model):
        """A node with no battery dies on its first charge, even one of 0 J:
        the first beacon kills its sender and every listener, so each arm
        puts one packet on air and books no energy."""
        cfg = SimConfig(seed=1, node_count=4, group_count=1, sim_length=5,
                        scenario=habitat(0.0), energy_model=model)
        for arm in (replace(cfg, adaptive=False), replace(cfg, adaptive=True)):
            report = sim.run(arm)
            assert len(report.slot_log) == 1
            assert len(report.nodes) == 4
            for stats in report.nodes.values():
                assert not stats.alive
                assert stats.ledger == EnergyLedger()

    @pytest.mark.parametrize("name, cfg", [
        # The duty replayer 0.2 resends the head's handoff, addressed to itself.
        pytest.param(
            None,
            SimConfig(seed=2, node_count=5, group_count=1, sim_length=12,
                      session_length=5, scenario=habitat(),
                      adversaries=(AdversarySpec(NodeAddress(0, 2), "replay-attacker",
                                                 start_frame=1),)),
            id="cfg0",
        ),
        # Two groups, deaths and elections: the budget switches off near death.
        pytest.param(
            None,
            SimConfig(seed=5, node_count=9, group_count=2, sim_length=60,
                      session_length=10, scenario=military(1.5),
                      energy_model=EnergyModel(initial_energy=1.5),
                      adversaries=(AdversarySpec(NodeAddress(1, 2), "replay-attacker",
                                                 start_frame=1),
                                   AdversarySpec(NodeAddress(0, 3), "drop-fraction", 0.5))),
            id="cfg1",
        ),
        *golden_params(BUDGET_GOLDENS),
        pytest.param(None, sim.config_from_dict(BIG_GROUP), id="big_group"),
        # Re-keys at frames 25 and 50: their deliveries leave each
        # recipient's `rx` distinct, so those frames' settles share few sums.
        pytest.param(
            None,
            SimConfig(seed=3, node_count=60, group_count=1, sim_length=60,
                      session_length=25),
            id="rekeys_60",
        ),
    ])
    def test_deferred_header_listens_equal_eager_debits(self, monkeypatch, name, cfg):
        """Turning the budget off everywhere (every listener debited as the
        packet goes by, every charge clamped) changes no float of either
        arm."""
        for arm in (replace(cfg, adaptive=False), replace(cfg, adaptive=True)):
            with monkeypatch.context() as patched:
                frames = watch_budgets(patched)
                simulation = sim._Simulation(arm)
                budgeted = simulation.run()
            flags = [flag for _, _, flag, _ in frames]
            if name in NEVER_BUDGETED:
                assert not any(flags)
            else:
                assert any(flags)
                assert all(g.channel.deferred > 0 for g in simulation.groups)
            if not all(s.alive for s in budgeted.nodes.values()):
                assert not all(flags)
            with monkeypatch.context() as patched:
                patched.setattr(sim._Simulation, "_plan_listens", lambda self, group: None)
                eager = sim.run(arm)
            assert budgeted.nodes == eager.nodes  # every ledger float, exactly
            assert budgeted.trust_csv() == eager.trust_csv()
            assert budgeted.elections == eager.elections
            assert budgeted.rekeys == eager.rekeys

    @pytest.mark.parametrize("name, cfg", [
        *golden_params(BUDGET_GOLDENS),
        # The benchmark's `savings` shape at its dearest scenario.
        pytest.param(
            None,
            SimConfig(seed=1, node_count=20, group_count=2, sim_length=51,
                      session_length=50, scenario=military()),
            id="savings_20",
        ),
    ])
    def test_budgeted_frames_spend_within_the_budget(self, monkeypatch, name, cfg):
        """The plain charges are exact only if no charge of a budgeted frame
        could have been clamped: every member alive at the frame's start
        spends at most (4n + 2) packets' worth in it and ends it alive with
        battery left."""
        for arm in (replace(cfg, adaptive=False), replace(cfg, adaptive=True)):
            with monkeypatch.context() as patched:
                frames = watch_budgets(patched)
                sim.run(arm)
            budgeted = [f for f in frames if f[2]]
            assert bool(budgeted) == (name not in NEVER_BUDGETED)
            for simulation, group, _, left in budgeted:
                bound = (4 * len(group.nodes) + 2) * simulation.packet_spend
                for start, end, alive in left.values():
                    assert start - end <= bound
                    assert end > 0 and alive

    @pytest.mark.parametrize(
        "spent_tx, deferred, alive, rx, crypto, budgeted",
        [
            (0.0, 0, True, 0.25, 0.125, False),  # no pending listens
            (0.0, 3, True, 0.25, 0.125, False),  # deferred listens settle first
            (0.9, 3, True, 0.25, 0.125, False),  # the rx charge kills: no crypto
            (0.6, 0, True, 0.25, 0.5, False),  # the crypto charge kills
            (0.9, 3, False, 0.25, 0.125, False),  # already dead: nothing changes
            (0.0, 0, True, 0.25, 0.125, True),  # plain additions
            (0.0, 3, True, 0.25, 0.125, True),  # settled, then plain additions
            (0.9, 3, False, 0.25, 0.125, True),
        ],
        ids=["plain", "deferred", "dies_on_rx", "dies_on_crypto", "dead",
             "plain_budgeted", "deferred_budgeted", "dead_budgeted"],
    )
    def test_one_receive_charge_equals_rx_then_crypto_debits(
        self, spent_tx, deferred, alive, rx, crypto, budgeted
    ):
        one, two = (charge_node(spent_tx, deferred, alive, budgeted) for _ in range(2))
        one.charge(rx, crypto)
        two.charge(rx=rx)
        two.charge(crypto=crypto)
        assert one.stats == two.stats  # every ledger float, exactly, and `alive`
        assert (one.heard, one.channel.deaths) == (two.heard, two.channel.deaths)
        assert one.frozen == two.frozen
        if alive and not one.stats.alive:
            assert one.channel.deaths == 1
            peer = NodeAddress(0, 2)
            assert list(one.frozen.rows) == [peer]
            assert one.frozen.rows[peer] is not one.ledger.rows[peer]  # a copy
            assert (one.stats.ledger.crypto == 0) == (spent_tx == 0.9)
        else:
            assert one.frozen is None and one.channel.deaths == 0
        if budgeted and alive:  # the same floats as the clamped charge
            clamped = charge_node(spent_tx, deferred, alive, budgeted=False)
            clamped.charge(rx, crypto)
            assert (one.stats, one.heard) == (clamped.stats, clamped.heard)

    @pytest.mark.parametrize("deferred", [0, 3])
    @pytest.mark.parametrize("kind", ["tx", "rx", "crypto"])
    def test_budgeted_debit_equals_clamped_debit(self, kind, deferred):
        """Far from death, a plain charge adds what the clamped one adds.
        A tx or crypto charge leaves the pending listens to a later settle,
        which adds the same floats to `rx`."""
        clamped, plain = (charge_node(0.25, deferred, budgeted=b) for b in (False, True))
        clamped.charge(**{kind: 0.125})
        plain.charge(**{kind: 0.125})
        assert plain.heard == (deferred if kind == "rx" else 0)
        assert plain.remaining == clamped.remaining
        assert (plain.stats, plain.heard) == (clamped.stats, clamped.heard)
        assert plain.stats.alive and plain.channel.deaths == 0

    @settings(max_examples=300, deadline=None)
    @given(
        # Pending listens exist only in budgeted frames, which leave them
        # battery to spare: an empty battery has none.
        battery=st.one_of(
            st.tuples(st.sampled_from([0.0, -0.0]), st.just(0)),
            st.tuples(st.floats(0.0, 4.0), st.integers(0, 6)),
        ),
        header_rx=st.floats(0.0, 0.01),
        events=st.lists(
            st.dictionaries(
                st.sampled_from(["rx", "crypto", "tx"]),
                st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 8.0)),
                min_size=1,
            ),
            max_size=8,
        ),
    )
    # The rx amount kills with 3.06 - (0.78 + 2.28) < 0 J left, so any amount
    # charged after that death would book a negative float.
    @example(battery=(3.06, 0), header_rx=0.0,
             events=[{"tx": 0.78}, {"rx": 5.0, "crypto": 0.0, "tx": 0.0}])
    def test_charges_match_the_reference_ledger(self, battery, header_rx, events):
        """Each charge through `_Node.charge` books what `ReferenceLedger`
        books for its amounts in rx, crypto, tx order, with the pending
        header listens as the first rx amounts: the same floats, life,
        death count and frozen view. When nothing is clamped, the budgeted
        path books the same floats."""
        initial, deferred = battery
        reference = oracles.ReferenceLedger(initial)
        for _ in range(deferred):
            reference.charge("rx", header_rx * linksec.HEADER_BYTES)
        assume(reference.alive and not reference.clamped)
        for event in events:
            for kind in ("rx", "crypto", "tx"):
                if kind in event:
                    reference.charge(kind, event[kind])
        model = EnergyModel(rx_per_octet=header_rx, initial_energy=initial)
        paths = [False, True] if reference.alive and not reference.clamped else [False]
        for budgeted in paths:
            node = charge_node(deferred=deferred, budgeted=budgeted, model=model)
            seen = node.view()
            for event in events:
                node.charge(**event)
            node.settle()
            spent = node.stats.ledger
            assert [repr(getattr(spent, kind)) for kind in ("tx", "rx", "crypto")] == [
                repr(reference.spent[kind]) for kind in ("tx", "rx", "crypto")
            ]
            assert node.alive == reference.alive
            assert node.channel.deaths == (not reference.alive)
            assert node.frozen == (None if reference.alive else seen)

    @settings(max_examples=200, deadline=None)
    @given(
        rx_per_octet=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324]), st.floats(0.0, 0.01)
        ),
        # Members draw their first rx charges and their pending counts from
        # small pools, so equal and unequal keys both occur.
        starts=st.lists(
            st.lists(st.floats(0.0, 1.0), max_size=3), min_size=1, max_size=3
        ),
        counts=st.lists(st.integers(0, 600), min_size=1, max_size=3),
        members=st.lists(st.integers(0, 2), min_size=2, max_size=6),
        rounds=st.lists(
            st.lists(st.integers(0, 2), min_size=6, max_size=6), min_size=1, max_size=3
        ),
    )
    @example(rx_per_octet=0.0003, starts=[[0.25]], counts=[600],
             members=[0, 0, 0], rounds=[[0] * 6, [0] * 6])
    def test_shared_settles_match_the_reference_ledger(
        self, rx_per_octet, starts, counts, members, rounds
    ):
        """Members of one channel settling from equal or unequal `rx` and
        counts, some of them reusing a sum another made, book what
        `ReferenceLedger` books for the same header amounts, one by one."""
        model = EnergyModel(rx_per_octet=rx_per_octet, initial_energy=1e4)
        config = SimConfig(energy_model=model)
        channel = sim._Channel(model)
        ledger = TrustTable(NodeAddress(0, BROADCAST_NODE_ID), config.trust_weights)
        header = rx_per_octet * linksec.HEADER_BYTES
        nodes, references = [], []
        for i, start in enumerate(members):
            node = sim._Node(NodeAddress(0, i + 1), None, ledger, channel, config)
            reference = oracles.ReferenceLedger(model.initial_energy)
            for joules in starts[start % len(starts)]:
                node.charge(rx=joules)
                reference.charge("rx", joules)
            nodes.append(node)
            references.append(reference)
        kinds = ("tx", "rx", "crypto")
        for picks in rounds:
            pending = [counts[pick % len(counts)] for pick in picks[:len(nodes)]]
            channel.deferred += max(pending)
            for node, count in zip(nodes, pending):
                node.heard += max(pending) - count  # sat out the others' listens
            for node, reference, count in zip(nodes, references, pending):
                node.settle()
                for _ in range(count):
                    reference.charge("rx", header)
                assert [repr(getattr(n.stats.ledger, k)) for n in nodes for k in kinds] == [
                    repr(r.spent[k]) for r in references for k in kinds
                ]
        assert not any(r.clamped for r in references)

    def test_single_node_zero_radio(self):
        em = EnergyModel()
        cfg = SimConfig(seed=2, node_count=1, group_count=1, sim_length=10,
                        scenario=default_policy("agricultural-farming", em.initial_energy),
                        energy_model=em)
        savings = sim.compare_fixed_vs_adaptive(cfg)
        for report in (savings.fixed, savings.adaptive):
            stats = report.nodes[NodeAddress(0, 1)]
            assert stats.ledger.tx == 0.0 and stats.ledger.rx == 0.0
            assert stats.ledger.crypto > 0.0
        assert savings.total_saving_pct > 0.0


class TestSavings:
    def test_scenario_ordering_small(self):
        results = {}
        for name in ("military-surveillance", "habitat-monitoring", "agricultural-farming"):
            cfg = SimConfig(seed=7, node_count=10, group_count=2, sim_length=60,
                            session_length=20, scenario=default_policy(name, 1000.0))
            results[name] = sim.compare_fixed_vs_adaptive(cfg).total_saving_pct
        assert results["agricultural-farming"] > results["habitat-monitoring"]
        assert results["habitat-monitoring"] > results["military-surveillance"]
        assert abs(results["military-surveillance"]) < 1e-9

    def test_untagged_fixed_level_still_tags_key_material(self, monkeypatch):
        """A custom fixed arm that sends XOR without a tag still delivers
        each session key at the strongest level, with a tag."""
        config = sim.config_from_dict({
            "adaptive": False, "node_count": 4, "group_count": 1,
            "session_length": 15, "sim_length": 31,
            "scenario": {"base_level": {"encryption": 0, "auth": True},
                         "fixed_level": {"encryption": 0, "auth": False}},
        })
        headers, classes = [], []
        encode_pending = linksec.encode_pending
        transmit = sim._Simulation._transmit

        def recording_headers(*args):
            wire = encode_pending(*args)
            headers.append(wire.header)
            return wire

        def recording_classes(self, group, frame, sender, dest, pclass, *args):
            on_air = len(self.slot_log)
            decoded = transmit(self, group, frame, sender, dest, pclass, *args)
            classes.extend([pclass] * (len(self.slot_log) - on_air))
            return decoded

        monkeypatch.setattr(linksec, "encode_pending", recording_headers)
        monkeypatch.setattr(sim._Simulation, "_transmit", recording_classes)
        report = sim.run(config)
        assert len(report.rekeys) == 2 and len(headers) == len(classes)
        levels = {(pclass is PacketClass.KEY_MATERIAL, h.level)
                  for h, pclass in zip(headers, classes)}
        assert levels == {(True, LEVEL_STRONGEST),
                          (False, SecurityLevel(Encryption.XOR, False))}

    def test_military_arms_identical(self):
        cfg = SimConfig(seed=8, node_count=6, group_count=1, sim_length=30,
                        scenario=military())
        savings = sim.compare_fixed_vs_adaptive(cfg)
        assert savings.fixed.energy_csv() == savings.adaptive.energy_csv()


def assert_same_run(got, want):
    assert got.nodes == want.nodes
    assert got.elections == want.elections
    assert got.rekeys == want.rekeys
    assert got.slot_log == want.slot_log
    assert got.trust_tables == want.trust_tables
    assert got.energy_csv() == want.energy_csv()
    assert got.trust_csv() == want.trust_csv()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTwoArms:
    """`compare_fixed_vs_adaptive` runs the fixed arm in a forked child
    when it may; its report and its failures are those of running the two
    arms in turn, and no child outlives the call."""

    FORKS = int(sim._may_fork())

    @pytest.fixture
    def forks(self, monkeypatch):
        return count_calls(monkeypatch, sim.os, "fork")

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_forked_compare_equals_runs_in_process(self, forks, name):
        config = sim.config_from_dict(GOLDEN_CONFIGS[name])
        got = sim.compare_fixed_vs_adaptive(config)
        assert forks[0] == self.FORKS
        assert_no_child_left()
        fixed = sim.run(replace(config, adaptive=False))
        adaptive = sim.run(replace(config, adaptive=True))
        assert_same_run(got.fixed, fixed)
        assert_same_run(got.adaptive, adaptive)
        want = sim.SavingsReport(config.scenario.name, fixed, adaptive)
        assert got.savings_csv() == want.savings_csv()

    def test_no_fork_beside_another_thread(self, forks):
        config = sim.config_from_dict(GOLDEN_CONFIGS["habitat_replay_loss"])
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            got = sim.compare_fixed_vs_adaptive(config)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks[0] == 0
        assert_same_run(got.fixed, sim.run(replace(config, adaptive=False)))
        assert_same_run(got.adaptive, sim.run(replace(config, adaptive=True)))

    def test_no_fork_on_one_cpu(self, monkeypatch, forks):
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 1)
        config = sim.config_from_dict(GOLDEN_CONFIGS["agri_death"])
        got = sim.compare_fixed_vs_adaptive(config)
        assert forks[0] == 0
        assert_same_run(got.fixed, sim.run(replace(config, adaptive=False)))

    @pytest.mark.parametrize(
        "exc", [ValueError("adversary 5.1 is not a simulated node"),
                linksec.FormatError("wire shorter than its header")],
        ids=["ValueError", "FormatError"],
    )
    def test_fixed_arm_exception_raised_again(self, monkeypatch, forks, exc):
        real = sim.run

        def failing_fixed_arm(config):  # a forked child inherits the patch
            if not config.adaptive:
                raise exc
            return real(config)

        monkeypatch.setattr(sim, "run", failing_fixed_arm)
        config = sim.config_from_dict(GOLDEN_CONFIGS["agri_death"])
        with pytest.raises(type(exc)) as raised:
            sim.compare_fixed_vs_adaptive(config)
        assert raised.type is type(exc)
        assert str(raised.value) == str(exc)
        assert forks[0] == self.FORKS
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [RuntimeError("caller arm"), KeyboardInterrupt()],
                             ids=["RuntimeError", "KeyboardInterrupt"])
    def test_caller_arm_exception_kills_the_child(self, monkeypatch, forks, exc):
        """The caller's arm fails at once while the child would run for a
        minute: the child is killed and reaped before the call returns."""
        if not self.FORKS:
            pytest.skip("compare runs its arms in turn on this host")
        real = sim.run

        def slow_fixed_arm(config):
            if not config.adaptive:
                time.sleep(60)
                return real(config)
            raise exc

        monkeypatch.setattr(sim, "run", slow_fixed_arm)
        config = sim.config_from_dict(GOLDEN_CONFIGS["agri_death"])
        t0 = time.monotonic()
        with pytest.raises(type(exc)):
            sim.compare_fixed_vs_adaptive(config)
        assert time.monotonic() - t0 < 30
        assert forks[0] == 1
        assert_no_child_left()

    def test_child_without_a_reply_raises_child_process_error(self, monkeypatch, forks):
        if not self.FORKS:
            pytest.skip("compare runs its arms in turn on this host")
        real = sim.run

        def dying_fixed_arm(config):
            if not config.adaptive:
                os._exit(7)
            return real(config)

        monkeypatch.setattr(sim, "run", dying_fixed_arm)
        config = sim.config_from_dict(GOLDEN_CONFIGS["agri_death"])
        with pytest.raises(ChildProcessError, match="wait status"):
            sim.compare_fixed_vs_adaptive(config)
        assert forks[0] == 1
        assert_no_child_left()

    def test_forks_on_two_cpus(self, monkeypatch, forks):
        """Two allowed CPUs are enough to run the fixed arm in a child."""
        if not hasattr(os, "fork") or threading.active_count() != 1:
            pytest.skip("this process may not fork")
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = sim.config_from_dict(GOLDEN_CONFIGS["agri_death"])
        got = sim.compare_fixed_vs_adaptive(config)
        assert forks[0] == 1
        assert_no_child_left()
        assert_same_run(got.fixed, sim.run(replace(config, adaptive=False)))

    def test_reply_that_cannot_be_pickled_raises_child_process_error(
        self, monkeypatch, forks
    ):
        """The fixed arm raises an exception that pickle cannot name, so the
        child writes no whole reply: it ends with a non-zero code, and the
        caller raises `ChildProcessError` rather than reading a cut pickle."""
        if not self.FORKS:
            pytest.skip("compare runs its arms in turn on this host")

        class LocalError(Exception):
            pass

        real = sim.run

        def failing_fixed_arm(config):
            if not config.adaptive:
                raise LocalError("fixed arm")
            return real(config)

        monkeypatch.setattr(sim, "run", failing_fixed_arm)
        config = sim.config_from_dict(GOLDEN_CONFIGS["agri_death"])
        with pytest.raises(ChildProcessError, match="without a complete reply"):
            sim.compare_fixed_vs_adaptive(config)
        assert forks[0] == 1
        assert_no_child_left()

    def test_child_flushes_no_buffer_of_the_caller(self, tmp_path):
        path = tmp_path / "buffered.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("written once")
            sim.compare_fixed_vs_adaptive(
                sim.config_from_dict(GOLDEN_CONFIGS["agri_death"])
            )
        assert path.read_text() == "written once"


class TestAdversaries:
    DROPPER = NodeAddress(0, 3)

    def test_dropper_trust_falls_after_first_duty(self):
        cfg = small_battery_cfg(
            1, (AdversarySpec(self.DROPPER, "drop-fraction", 1.0, 0),)
        )
        report = sim.run(cfg)
        # Duty rotates over the three non-head members each frame; within
        # two frames of the dropper's first duty everyone has seen it.
        honest = [a for a in report.nodes if a != self.DROPPER]
        for observer in honest:
            table = report.trust_tables[observer]
            if self.DROPPER not in table.rows:
                continue
            for other in honest:
                if other == observer or other not in table.rows:
                    continue
                assert table.election_trust(self.DROPPER) < table.election_trust(other)

    def test_dropper_excluded_and_isolated(self):
        cfg = small_battery_cfg(
            2, (AdversarySpec(self.DROPPER, "drop-fraction", 1.0, 0),)
        )
        report = sim.run(cfg)
        assert report.rekeys, "expected session re-keys"
        for event in report.rekeys:
            assert self.DROPPER in event.excluded
        stats = report.nodes[self.DROPPER]
        assert stats.bcast_ok_after_rekey == 0
        assert stats.bcast_ok_before_rekey > 0
        assert stats.bcast_fail > 0

    def test_dropper_never_elected(self):
        for seed in range(10):
            cfg = small_battery_cfg(
                seed, (AdversarySpec(self.DROPPER, "drop-fraction", 1.0, 0),)
            )
            report = sim.run(cfg)
            assert report.elections, "election should trigger on head drain"
            assert all(e.new_head != self.DROPPER for e in report.elections)

    def test_captured_node_flagged_and_excluded(self):
        captured = NodeAddress(0, 2)
        cfg = small_battery_cfg(3, (AdversarySpec(captured, "captured", start_frame=0),))
        report = sim.run(cfg)
        for observer, table in report.trust_tables.items():
            if observer == captured or captured not in table.rows:
                continue
            assert table.rows[captured].suspicious
            assert table.election_trust(captured) == 0.0
        assert report.rekeys
        assert all(captured in e.excluded for e in report.rekeys)

    def test_replay_attacker_never_accepted(self):
        attacker = NodeAddress(0, 4)
        cfg = small_battery_cfg(4, (AdversarySpec(attacker, "replay-attacker", start_frame=1),))
        report = sim.run(cfg)
        assert sum(s.replay_accepted for s in report.nodes.values()) == 0
        assert sum(s.replay_rejects for s in report.nodes.values()) > 0
        # collisions show up in the attacker's observed record
        table = report.trust_tables[NodeAddress(0, 1)]
        assert table.rows[attacker].npc > 0

    def test_honest_network_nobody_excluded(self):
        cfg = small_battery_cfg(5)
        report = sim.run(cfg)
        assert report.rekeys
        for event in report.rekeys:
            assert event.excluded == ()

    def test_unknown_adversary_node_rejected(self):
        cfg = small_battery_cfg(6, (AdversarySpec(NodeAddress(9, 9), "captured"),))
        with pytest.raises(ValueError):
            sim.run(cfg)


class TestElections:
    def test_election_fires_on_low_energy(self):
        cfg = small_battery_cfg(7)
        report = sim.run(cfg)
        assert report.elections
        first = report.elections[0]
        # The drained head may legitimately win again (trust carries no
        # energy term), but the vote must produce a member and a standby.
        assert first.new_head in report.nodes
        assert first.vice_head is not None
        # cooldown: elections are at least a session apart
        frames = [e.frame for e in report.elections if e.group_id == 0]
        assert all(b - a >= cfg.session_length for a, b in zip(frames, frames[1:]))

    def test_isolation_end_to_end_counts(self):
        dropper = NodeAddress(0, 3)
        cfg = small_battery_cfg(8, (AdversarySpec(dropper, "drop-fraction", 1.0, 0),))
        report = sim.run(cfg)
        honest = [a for a, s in report.nodes.items() if a != dropper]
        # Honest members keep decoding session broadcasts after re-keys.
        assert all(report.nodes[a].bcast_ok_after_rekey > 0 for a in honest
                   if report.nodes[a].alive)


class TestObservationViews:
    """Each group records observations once; members read views of it."""

    def test_no_table_holds_its_observer(self):
        report = sim.run(sim.config_from_dict(GOLDEN_CONFIGS["habitat_death_loss"]))
        assert any(not s.alive for s in report.nodes.values())
        for addr, table in report.trust_tables.items():
            assert table.observer == addr
            assert addr not in table.rows

    def test_dead_observer_keeps_counters_from_its_death(self):
        cfg = small_battery_cfg(7)  # the head dies between frames 100 and 110
        at_110 = sim.run(replace(cfg, sim_length=110))
        at_120 = sim.run(cfg)
        dead = [a for a, s in at_110.nodes.items() if not s.alive]
        assert dead
        alive = [a for a, s in at_120.nodes.items() if s.alive]
        observer, subject = alive[0], alive[1]
        for addr in dead:
            frozen = at_120.trust_tables[addr]
            assert frozen.to_csv() == at_110.trust_tables[addr].to_csv()
            assert (
                frozen.rows[subject].npt
                < at_110.trust_tables[observer].rows[subject].npt
                < at_120.trust_tables[observer].rows[subject].npt
            )

    @pytest.mark.parametrize(
        "data",
        [*GOLDEN_CONFIGS.values(), {"node_count": 4, "group_count": 3, "sim_length": 5}],
        ids=[*GOLDEN_CONFIGS, "one_member_groups"],
    )
    def test_lowest_neighbor_trust_is_the_views_minimum(self, monkeypatch, data):
        """`_frame_end` reads each member's lowest neighbor trust off the
        ledger's two lowest entries. After every frame it must be the least
        election trust in the member's own view, or None for an empty view."""
        frame_end = sim._Simulation._frame_end
        empty_views = 0

        def checking(self, frame):
            nonlocal empty_views
            frame_end(self, frame)
            for node in self.nodes.values():
                if node.alive:
                    view = node.view()
                    expected = min(
                        (view.election_trust(s) for s in view.rows), default=None
                    )
                    assert node.agent.lowest_neighbor_trust == expected
                    empty_views += expected is None

        monkeypatch.setattr(sim._Simulation, "_frame_end", checking)
        config = sim.config_from_dict(data)
        sim.run(config)
        # Only a member alone in its group has no neighbors; (4, 3) makes two.
        alone = 2 if data.get("group_count") == 3 else 0
        assert empty_views == alone * config.sim_length

    @pytest.mark.parametrize("members", [8, 32])
    def test_records_per_transmission_independent_of_group_size(
        self, monkeypatch, members
    ):
        records = 0
        record = TrustTable.record

        def counting(self, *args, **kwargs):
            nonlocal records
            records += 1
            return record(self, *args, **kwargs)

        monkeypatch.setattr(TrustTable, "record", counting)
        report = sim.run(
            SimConfig(seed=1, node_count=members, group_count=1, sim_length=3)
        )
        assert 0 < records <= 4 * len(report.slot_log)

    @pytest.mark.parametrize("members", [8, 32])
    def test_debits_per_transmission_independent_of_group_size(
        self, monkeypatch, members
    ):
        """Loss-free, far from death: a unicast charges its sender and its
        destination only, and the other members' header-only listens are
        settled later. A frame's two broadcasts still charge every member,
        so a frame of n + 2 transmissions makes at most 8n charges. A
        sender's seal and send are one charge, and so are a destination's
        receive and open."""
        charged = []
        charge, transmit = sim._Node.charge, sim._Simulation._transmit

        def charging(self, *args, **kwargs):
            charged.append(self)
            return charge(self, *args, **kwargs)

        sender_charges = []

        def transmitting(self, group, frame, sender, *args, **kwargs):
            start = len(charged)
            decoded = transmit(self, group, frame, sender, *args, **kwargs)
            sender_charges.append(sum(n is sender for n in charged[start:]))
            return decoded

        monkeypatch.setattr(sim._Node, "charge", charging)
        monkeypatch.setattr(sim._Simulation, "_transmit", transmitting)
        report = sim.run(
            SimConfig(seed=1, node_count=members, group_count=1, sim_length=3)
        )
        assert 0 < len(charged) <= 8 * len(report.slot_log)
        assert sender_charges == [1] * len(report.slot_log)

    def test_budgeted_seal_and_send_make_no_settle(self, monkeypatch):
        """In a budgeted frame a sender's charge, which has no rx amount,
        adds to `tx` and `crypto` alone, so it leaves its pending listens
        for the next receive charge or energy read."""
        settles = count_calls(monkeypatch, sim._Node, "settle")
        charge = sim._Node.charge
        in_tx_crypto, pending = [0], [0]

        def charging(self, rx=0.0, crypto=0.0, tx=0.0):
            if rx:
                return charge(self, rx, crypto, tx)
            assert self.channel.budgeted
            pending[0] += self.channel.deferred != self.heard
            before = settles[0]
            charge(self, rx, crypto, tx)
            in_tx_crypto[0] += settles[0] - before

        monkeypatch.setattr(sim._Node, "charge", charging)
        sim.run(SimConfig(seed=1, node_count=32, group_count=1, sim_length=3))
        assert pending[0] > 0 and settles[0] > 0
        assert in_tx_crypto[0] == 0

    def test_settle_additions_linear_in_group_size(self, monkeypatch):
        """In a budgeted frame the members of a symmetric group settle about
        n^2 deferred listens, but most of them from an `rx` and count that
        another member already summed: the channel's sums, one addition per
        listen they cover, take at most 6n additions per frame."""
        listens, frames = [0], []
        settle, frame_end = sim._Node.settle, sim._Simulation._frame_end

        def settling(self):
            if self.alive:
                listens[0] += self.channel.deferred - self.heard
            settle(self)

        def ending(self, frame):
            frame_end(self, frame)
            (group,) = self.groups
            assert group.channel.budgeted
            additions = sum(pending for _, pending in group.channel.settled)
            frames.append((additions, listens[0]))
            listens[0] = 0

        monkeypatch.setattr(sim._Node, "settle", settling)
        monkeypatch.setattr(sim._Simulation, "_frame_end", ending)
        config = sim.config_from_dict(BIG_GROUP)
        sim.run(config)
        n = config.node_count
        assert len(frames) == config.sim_length
        for additions, settled in frames:
            assert settled > n * n // 2
            assert additions <= 6 * n

    def test_one_open_per_transmission(self, monkeypatch):
        """Loss-free and honest: every listener of a wire holds the sealing
        key and expects the sealing counter, so the seal's own plaintext
        answers every open and the cipher opens no wire."""
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")
        report = sim.run(
            SimConfig(seed=1, node_count=12, group_count=2, sim_length=12,
                      session_length=5, scenario=military())
        )
        assert report.rekeys
        assert all(s.alive and s.auth_rejects == s.replay_rejects == 0
                   for s in report.nodes.values())
        assert opens[0] == 0

    def test_replayed_and_lost_wires_open_for_real(self, monkeypatch):
        """A replayed wire is the captured pending wire, so its own plaintext
        answers a listener under its key, which rejects it as a replay. A
        listener that lost packets may try wraps before the sealing counter:
        those opens still run the cipher."""
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")
        report = sim.run(sim.config_from_dict(GOLDEN_CONFIGS["military_two_groups_loss"]))
        assert any(not honest for *_, honest in report.slot_log)
        assert sum(s.replay_rejects for s in report.nodes.values()) > 0
        assert opens[0] > 0

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_real_opens_per_golden_arm(self, monkeypatch, name):
        """The cipher opens of each arm, pinned. Every listener opens for
        itself: `habitat_death_loss` makes 40 more per arm, and
        `military_two_groups_loss` 50 more, than when the listeners of one
        wire shared a memo of opens. A replay is the captured pending wire,
        answered by its own plaintext under its key: `habitat_replay_loss`
        makes 38 fewer per arm, and `military_two_groups_loss` 19 fewer,
        than when a replay was bytes."""
        pinned = {
            "agri_captured_two_groups": (500, 500),
            "agri_death": (0, 0),
            "agri_listen_death_24": (0, 0),
            "habitat_death_loss": (270, 275),
            "habitat_election": (875, 875),
            "habitat_replay_loss": (0, 0),
            "military_two_groups_loss": (230, 230),
        }
        config = sim.config_from_dict(GOLDEN_CONFIGS[name])
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")
        got = []
        for adaptive in (False, True):
            opens[0] = 0
            sim.run(replace(config, adaptive=adaptive))
            got.append(opens[0])
        assert tuple(got) == pinned[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_one_decode_call_per_decode_outcome(self, monkeypatch, name):
        """Every listener decodes through `linksec.decode`, once per wire,
        and each call ends in one of the outcomes `NodeStats` counts, so a
        span on `decode` sees every decode of a run. Each arm runs in
        process: the counter cannot see an arm that
        `compare_fixed_vs_adaptive` forks."""
        config = sim.config_from_dict(GOLDEN_CONFIGS[name])
        decodes = count_calls(monkeypatch, sim.linksec, "decode")
        for adaptive in (False, True):
            decodes[0] = 0
            report = sim.run(replace(config, adaptive=adaptive))
            outcomes = sum(
                s.decode_ok + s.auth_rejects + s.replay_rejects
                for s in report.nodes.values()
            )
            assert decodes[0] == outcomes > 0

    @pytest.mark.parametrize(
        "config",
        [sim.config_from_dict(BIG_GROUP)] + [
            SimConfig(seed=1, node_count=20, group_count=2, sim_length=51,
                      session_length=50, scenario=default_policy(name))
            for name in sim.SCENARIO_NAMES
        ],
        ids=["big_group", "savings_military", "savings_habitat", "savings_agriculture"],
    )
    def test_no_seal_and_no_open_per_honest_wire(self, monkeypatch, config):
        """The benchmark's honest workloads, each arm run in process, run no
        cipher: no wire is sealed, and every open is answered by the seal's
        plaintext."""
        seals = count_calls(monkeypatch, sim.linksec.aead, "seal")
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")
        for adaptive in (False, True):
            report = sim.run(replace(config, adaptive=adaptive))
            assert report.slot_log
            assert all(s.alive and s.auth_rejects == s.replay_rejects == 0
                       for s in report.nodes.values())
        assert seals[0] == opens[0] == 0

    def test_seals_exactly_the_wires_that_are_read(self, monkeypatch):
        """With replays and loss, a wire is sealed once if a real open reads
        it, and never otherwise: a replayer's retransmission seals nothing."""
        seals = count_calls(monkeypatch, sim.linksec.aead, "seal")
        read, opened, replayed = set(), set(), []
        wire_bytes, open_ = linksec.PendingWire.__bytes__, linksec.aead.open_
        transmit = sim._Simulation._transmit

        def recording_read(self):
            wire = wire_bytes(self)
            read.add(wire)
            return wire

        def recording_open(key, rounds, counter, aad, ct, tag, auth):
            opened.add(aad + ct + (tag or b""))
            return open_(key, rounds, counter, aad, ct, tag, auth)

        def recording_replays(self, group, frame, sender, dest, pclass, payload,
                              replayed_wire=None):
            if replayed_wire is not None and sender.alive:
                replayed.append(replayed_wire)
            return transmit(self, group, frame, sender, dest, pclass, payload,
                            replayed_wire)

        monkeypatch.setattr(linksec.PendingWire, "__bytes__", recording_read)
        monkeypatch.setattr(linksec.aead, "open_", recording_open)
        monkeypatch.setattr(sim._Simulation, "_transmit", recording_replays)
        real_opens = 0
        for name in ("habitat_replay_loss", "military_two_groups_loss"):
            config = sim.config_from_dict(GOLDEN_CONFIGS[name])
            for adaptive in (False, True):
                seals[0] = 0
                read.clear()
                opened.clear()
                sim.run(replace(config, adaptive=adaptive))
                assert seals[0] == len(read)  # each wire read was sealed once
                assert read == opened
                real_opens += len(opened)
        assert real_opens and replayed

    def test_replayer_retransmits_what_encode_makes(self, monkeypatch):
        """A replayer captures a pending wire. The bytes it puts on air are
        those that `linksec.encode` makes from the same ring and counter."""
        encoded = {}  # (key, counter, header) -> the wire `encode` makes

        class Recording:
            """`sim`'s view of `linksec`, recording what `encode` makes."""

            def __getattr__(self, name):
                return getattr(linksec, name)

            def encode_pending(self, level, ring, state, dest, payload):
                wire = linksec.encode(level, ring, CounterState(state.value), dest, payload)
                made = linksec.encode_pending(level, ring, state, dest, payload)
                encoded[made.key, made.counter, made.header] = wire
                return made

        replays = []
        transmit = sim._Simulation._transmit

        def recording_replays(self, group, frame, sender, dest, pclass, payload,
                              replayed_wire=None):
            decoded = transmit(self, group, frame, sender, dest, pclass, payload,
                               replayed_wire)
            if replayed_wire is not None and sender.alive:
                replays.append(replayed_wire)
            return decoded

        monkeypatch.setattr(sim, "linksec", Recording())
        monkeypatch.setattr(sim._Simulation, "_transmit", recording_replays)
        for name in ("habitat_replay_loss", "military_two_groups_loss"):
            sim.run(sim.config_from_dict(GOLDEN_CONFIGS[name]))
        assert replays
        for wire in replays:
            assert isinstance(wire, linksec.PendingWire)
            assert bytes(wire) == encoded[wire.key, wire.counter, wire.header]

    @pytest.mark.parametrize("members", [8, 32])
    def test_setup_hashes_each_ring_entry_at_most_twice(self, monkeypatch, members):
        """A ring entry is one member-neighbor pair, n(n-1) per group. Rings
        built one pair at a time hash each entry's address three times or
        more; one pass over the clique hashes it about once."""
        hashes = 0
        address_hash = NodeAddress.__hash__

        def counting(self):
            nonlocal hashes
            hashes += 1
            return address_hash(self)

        monkeypatch.setattr(NodeAddress, "__hash__", counting)
        sim._Simulation(
            SimConfig(seed=1, node_count=members, group_count=1, sim_length=0)
        )
        assert 0 < hashes <= 2 * members * (members - 1)

    @pytest.mark.parametrize(
        "node_count, group_count",
        [(7, 2), (9, 4), (4, 3), (8, 1), (16, 1), (32, 1), (64, 1), (254, 1)],
    )
    def test_setup_derives_each_key_once(self, monkeypatch, node_count, group_count):
        """The base-station master, then per group 2n node-based and
        broadcast keys: set-up is linear in members. Pairwise keys wait for
        the pair's first unicast."""
        calls = 0
        prf = sim.prf

        def counting(*args):
            nonlocal calls
            calls += 1
            return prf(*args)

        monkeypatch.setattr(sim, "prf", counting)
        simulation = sim._Simulation(
            SimConfig(seed=1, node_count=node_count, group_count=group_count,
                      sim_length=0)
        )
        sizes = [len(g.nodes) for g in simulation.groups]
        assert sum(sizes) == node_count
        assert calls == 1 + sum(2 * n for n in sizes)
        assert all(not n.ring.pairwise for n in simulation.nodes.values())

    @pytest.mark.parametrize(
        "data",
        [BIG_GROUP, GOLDEN_CONFIGS["habitat_replay_loss"],
         GOLDEN_CONFIGS["military_two_groups_loss"], GOLDEN_CONFIGS["habitat_election"]],
        ids=["big_group", "habitat_replay_loss", "military_two_groups_loss",
             "habitat_election"],
    )
    def test_one_pairwise_derivation_per_talking_pair(self, monkeypatch, data):
        """A run derives one pairwise key per unordered pair that carried a
        unicast not addressed to the head, replays included (their source
        is the wire's), and puts it in both rings."""
        derived = []
        prf = sim.prf

        def recording(key, message):
            if message[:1] == keys.TAG_PAIRWISE:
                derived.append(message)
            return prf(key, message)

        pairs = set()
        transmit = sim._Simulation._transmit

        def recording_pairs(self, group, frame, sender, dest, pclass, payload,
                            replayed_wire=None):
            if sender.alive and dest not in (BROADCAST_NODE_ID, group.head.addr.node_id):
                src = sender.addr.node_id if replayed_wire is None else replayed_wire.header.src
                pairs.add(frozenset(
                    (NodeAddress(group.gid, src), NodeAddress(group.gid, dest))
                ))
            return transmit(self, group, frame, sender, dest, pclass, payload,
                            replayed_wire)

        monkeypatch.setattr(sim, "prf", recording)
        monkeypatch.setattr(sim._Simulation, "_transmit", recording_pairs)
        simulation = sim._Simulation(sim.config_from_dict(data))
        assert derived == []
        simulation.run()
        assert len(derived) == len(set(derived)) == len(pairs) > 0
        if data is BIG_GROUP:
            assert len(pairs) == 2  # the head's handoffs in frames 1 and 2
        for a, b in map(tuple, pairs):
            key = simulation.nodes[a].ring.pairwise[b]
            assert simulation.nodes[b].ring.pairwise[a] == key
        assert sum(len(n.ring.pairwise) for n in simulation.nodes.values()) == 2 * len(pairs)

    def test_one_header_parse_per_transmission(self, monkeypatch):
        """No header is decoded from octets: every wire, a replayed one
        included, carries its own."""
        parses = 0
        decode = linksec.PacketHeader.decode.__func__

        def counting(cls, data):
            nonlocal parses
            parses += 1
            return decode(cls, data)

        monkeypatch.setattr(linksec.PacketHeader, "decode", classmethod(counting))
        report = sim.run(sim.config_from_dict(BIG_GROUP))
        assert report.slot_log and parses == 0
        report = sim.run(sim.config_from_dict(GOLDEN_CONFIGS["habitat_replay_loss"]))
        replays = sum(not honest for *_, honest in report.slot_log)
        assert replays > 0 and parses == 0

    def test_setup_hashes_each_hmac_key_pad_once(self, monkeypatch):
        """Every HMAC runs from cached pad states: set-up hashes pads for the
        zero key and the base-station master only, never per derived key."""

        def stdlib_hmac(*args, **kwargs):
            raise AssertionError("HMAC outside keys.hmac_sha256")

        # `keys` and `aead` reach the stdlib through this one module.
        monkeypatch.setattr(hmac, "digest", stdlib_hmac)
        monkeypatch.setattr(hmac, "new", stdlib_hmac)
        keys._pads.cache_clear()
        simulation = sim._Simulation(
            SimConfig(seed=1, node_count=32, group_count=1, sim_length=0)
        )
        assert len(simulation.groups[0].nodes) == 32
        assert keys._pads.cache_info().misses <= 2

    def test_rings_match_direct_derivation(self):
        """At set-up every group's rings keep the contract of
        `derive_group_keyrings` against a direct `derive_keyring`; after a
        run, every pairwise key a ring holds is the one `derive_keyring`
        gives for that pair."""
        # Uneven sizes; (4, 3) gives two 1-member groups.
        used = 0
        for node_count, group_count in ((7, 2), (9, 4), (4, 3)):
            simulation = sim._Simulation(
                SimConfig(seed=3, node_count=node_count, group_count=group_count,
                          sim_length=12, session_length=5)
            )
            rings = [n.ring for g in simulation.groups for n in g.nodes]
            direct = {}
            for group in simulation.groups:
                addrs = [n.addr for n in group.nodes]
                for node in group.nodes:
                    direct[node.addr] = derive_keyring(
                        simulation.bs_master, node.addr, addrs[0],
                        [a for a in addrs if a != node.addr],
                    )
                check_group_rings([n.ring for n in group.nodes], direct)
            assert len({id(r.peer_broadcast) for r in rings}) == len(simulation.groups)
            simulation.run()
            for ring in rings:
                for peer, key in ring.pairwise.items():
                    assert key == direct[ring.owner].pairwise[peer]
                used += len(ring.pairwise)
        assert used > 0

    def test_no_ring_holds_the_master_after_a_run(self):
        """The base station keeps the master to derive pairwise keys on
        first use; no ring, nor anything reachable from one, holds it."""
        for name in ("habitat_election", "military_two_groups_loss"):
            simulation = sim._Simulation(sim.config_from_dict(GOLDEN_CONFIGS[name]))
            report = simulation.run()
            assert report.rekeys
            master = simulation.bs_master
            for node in simulation.nodes.values():
                held = reachable_keys(node.ring)
                assert held and master not in held
                assert all(k.data != master.data for k in held)

    def test_reachable_keys_looks_inside_read_only_maps(self):
        """The walk above would miss a leak into a shared peer map if it
        walked plain dicts only."""
        simulation = sim._Simulation(
            SimConfig(seed=1, node_count=3, group_count=1, sim_length=0)
        )
        master = simulation.bs_master
        ring = simulation.groups[0].nodes[0].ring
        assert master not in reachable_keys(ring)
        leaked = replace(
            ring, peer_broadcast=MappingProxyType({**ring.peer_broadcast, ring.owner: master})
        )
        assert master in reachable_keys(leaked)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    def test_lazy_pairwise_keys_change_no_output(self, name, adaptive):
        """Rings pre-filled with every pairwise key, as per-node derivation
        gives them, produce the same run as keys derived on first use."""
        config = replace(sim.config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
        lazy = sim._Simulation(config)
        eager = sim._Simulation(config)
        for group in eager.groups:
            addrs = [n.addr for n in group.nodes]
            for node in group.nodes:
                node.ring.pairwise.update(derive_keyring(
                    eager.bs_master, node.addr, group.head.addr,
                    [a for a in addrs if a != node.addr],
                ).pairwise)
        got, want = lazy.run(), eager.run()
        assert got.nodes == want.nodes
        assert got.energy_csv() == want.energy_csv()
        assert got.trust_csv() == want.trust_csv()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_seal_hint_changes_no_output(self, monkeypatch, name):
        """Both arms of every golden give the same output when no listener
        gets the sealer's hint, the pending wire itself: `linksec.decode` is
        handed `bytes(wire)`, so every open runs the cipher. The opens are
        counted on both arms run by `sim.run` in this process: the counter
        cannot see an arm that `compare_fixed_vs_adaptive` forks."""
        config = sim.config_from_dict(GOLDEN_CONFIGS[name])
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")

        def opens_of_both_arms():
            before = opens[0]
            for adaptive in (False, True):
                sim.run(replace(config, adaptive=adaptive))
            return opens[0] - before

        hinted = sim.compare_fixed_vs_adaptive(config)
        hinted_opens = opens_of_both_arms()
        decode = sim.linksec.decode

        def unhinted(wire, *args):
            return decode(bytes(wire), *args)

        monkeypatch.setattr(sim.linksec, "decode", unhinted)
        stripped = sim.compare_fixed_vs_adaptive(config)
        assert opens_of_both_arms() > hinted_opens
        for got, want in ((hinted.fixed, stripped.fixed),
                          (hinted.adaptive, stripped.adaptive)):
            assert got.nodes == want.nodes
            assert got.energy_csv() == want.energy_csv()
            assert got.trust_csv() == want.trust_csv()
        assert hinted.savings_csv() == stripped.savings_csv()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_seal_on_demand_changes_no_output(self, monkeypatch, name):
        """Both arms of every golden give the same output when every wire,
        replays included, is sealed as it is made and answers no open from
        its own plaintext, so every open runs the cipher. Every wire that
        the lazy run sealed has the bytes of the eager run's seal. The opens
        are counted per arm run by `sim.run` in this process: the counter
        cannot see an arm that `compare_fixed_vs_adaptive` forks."""
        config = sim.config_from_dict(GOLDEN_CONFIGS[name])
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")
        sealed = {}  # a pending wire's fields -> its bytes, for every wire read in a run
        wire_bytes = linksec.PendingWire.__bytes__

        def recording(wire):
            fields = (wire.key, wire.counter, wire.header, wire.payload)
            sealed[fields] = wire_bytes(wire)
            return sealed[fields]

        def both_arms():
            """Each arm's report, the wires sealed in it and its real opens."""
            for adaptive in (False, True):
                sealed.clear()
                opens[0] = 0
                report = sim.run(replace(config, adaptive=adaptive))
                yield report, dict(sealed), opens[0]

        monkeypatch.setattr(linksec.PendingWire, "__bytes__", recording)
        lazy = list(both_arms())
        seal_at_once(monkeypatch)
        eager = list(both_arms())
        assert sum(o for *_, o in eager) > sum(o for *_, o in lazy)
        for (got, got_wires, _), (want, want_wires, _) in zip(lazy, eager):
            assert len(want_wires) == sum(honest for *_, honest in want.slot_log)
            assert got_wires.items() <= want_wires.items()
            assert got.nodes == want.nodes
            assert got.slot_log == want.slot_log
            assert got.energy_csv() == want.energy_csv()
            assert got.trust_csv() == want.trust_csv()
        savings = [
            sim.SavingsReport(config.scenario.name, fixed, adaptive)
            for (fixed, *_), (adaptive, *_) in (lazy, eager)
        ]
        assert savings[0].savings_csv() == savings[1].savings_csv()

    def test_pending_replays_change_no_output(self, monkeypatch):
        """Beyond the goldens: 50 small configs with replay attackers, loss
        and deaths run the same with pending wires, replays included, as
        with every wire sealed at once and opened for real."""
        configs = replay_configs(50)
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")
        pending = [sim.run(config) for config in configs]
        pending_opens = opens[0]
        seal_at_once(monkeypatch)
        for got, config in zip(pending, configs):
            want = sim.run(config)
            assert got.nodes == want.nodes
            assert got.slot_log == want.slot_log
            assert got.energy_csv() == want.energy_csv()
            assert got.trust_csv() == want.trust_csv()
            assert got.elections == want.elections
            assert got.rekeys == want.rekeys
        assert opens[0] - pending_opens > pending_opens
        stats = [s for report in pending for s in report.nodes.values()]
        assert sum(not honest for r in pending for *_, honest in r.slot_log) > 0
        assert sum(s.replay_accepted for s in stats) > 0
        assert sum(s.replay_rejects for s in stats) > 0
        assert sum(not s.alive for s in stats) > 0
        assert any(config.loss_rate for config in configs)

    def test_replay_reuses_its_replayers_slot(self):
        """A replay is on air in the slot of the honest transmission just
        before it, in the same frame and group: its replayer's own. Checked
        on both arms of the replay goldens and on 50 small configs."""
        configs = [
            replace(sim.config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
            for name in ("habitat_replay_loss", "military_two_groups_loss")
            for adaptive in (False, True)
        ] + replay_configs(50)
        replays = 0
        for config in configs:
            log = sim.run(config).slot_log
            for i, (frame, gid, slot, replayer, honest) in enumerate(log):
                if not honest:
                    assert i > 0 and log[i - 1] == (frame, gid, slot, replayer, True)
                    replays += 1
        assert replays > 0


ARMS = pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])


class TestPerPacketAllocations:
    """The per-packet path builds none of the objects whose values come
    from small fixed sets or are already held: levels, counter states and
    addresses. Each golden arm runs in this process, so the patched
    constructors see every call."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    @ARMS
    def test_no_level_built_after_setup(self, monkeypatch, name, adaptive):
        config = replace(sim.config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
        simulation = sim._Simulation(config)
        built = count_calls(monkeypatch, SecurityLevel, "__init__")
        simulation.run()
        assert built[0] == 0

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    @ARMS
    def test_one_counter_state_per_direction(self, monkeypatch, name, adaptive):
        config = replace(sim.config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
        built = count_calls(monkeypatch, CounterState, "__init__")
        simulation = sim._Simulation(config)
        simulation.run()
        held = sum(len(n.out_ctr) + len(n.in_ctr) for n in simulation.nodes.values())
        assert held > 0
        assert built[0] == held

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    @ARMS
    def test_address_builds_do_not_grow_with_frames(self, monkeypatch, name, adaptive):
        config = replace(sim.config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
        built = count_calls(monkeypatch, NodeAddress, "__new__")

        def builds(frames):
            before = built[0]
            sim._Simulation(replace(config, sim_length=frames)).run()
            return built[0] - before

        assert builds(30) == builds(3) > 0

    def test_reading_is_the_counting_octets(self):
        """`_reading` slices a table; the generator it replaced is the
        reference, over two wraps of the frame and every member id."""
        for node_id in range(1, 255):
            node = SimpleNamespace(addr=NodeAddress(0, node_id))
            for frame in range(512):
                want = bytes((frame + node_id + i) & 0xFF for i in range(10))
                assert sim._reading(node, frame) == want


class TestSetUp:
    @staticmethod
    def _setup_bytes(members):
        """The peak traced memory of building a one-group simulation."""
        config = SimConfig(seed=1, node_count=members, group_count=1, sim_length=0)
        tracemalloc.start()
        try:
            simulation = sim._Simulation(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(simulation.groups[0].nodes) == members
        return peak

    def test_setup_memory_is_linear_in_group_size(self):
        """Doubling a group about doubles what set-up allocates: no member
        holds a copy of a group-wide map. Copies made the ratio 3.7."""
        sim._Simulation(SimConfig(seed=1, node_count=2, group_count=1, sim_length=0))
        small, big = self._setup_bytes(127), self._setup_bytes(254)
        assert big <= 2.2 * small

    def test_crypto_table_is_the_formula(self):
        """The cached table holds `_crypto_energy` for every level and
        length, to the repr, and models that compare equal but differ in
        a zero's type or sign get tables of their own."""
        models = [
            EnergyModel(),
            EnergyModel(xor_per_octet=0.0, mac_fixed=0.0),
            EnergyModel(xor_per_octet=0, mac_fixed=0),
            EnergyModel(xor_per_octet=-0.0, mac_fixed=-0.0),
        ]
        for model in models:
            table = sim._crypto_costs(model)
            assert sim._crypto_costs(model) is table
            assert len(table) == len(linksec.LEVELS)
            for code, level in enumerate(linksec.LEVELS):
                assert len(table[code]) == linksec.MAX_PAYLOAD + 1
                for n, cost in enumerate(table[code]):
                    assert repr(cost) == repr(sim._crypto_energy(model, level, n))
        simulation = sim._Simulation(SimConfig(seed=1, node_count=3, group_count=1))
        assert simulation.crypto_costs is sim._crypto_costs(simulation.model)


class TestConfigLoading:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"seed": 11, "node_count": 6, "group_count": 2, "sim_length": 5,\n'
            ' "session_length": 4, "scenario": "agricultural-farming",\n'
            ' "energy_model": {"initial_energy": 50.0},\n'
            ' "adversaries": [{"node": "0.2", "behavior": "captured"}],\n'
            ' "trust_weights": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1],\n'
            ' "rekey_threshold": 0.3}'
        )
        cfg = sim.load_config(str(path))
        assert cfg.seed == 11
        assert cfg.scenario.name == "agricultural-farming"
        assert cfg.energy_model.initial_energy == 50.0
        assert cfg.adversaries[0].node == NodeAddress(0, 2)
        assert cfg.trust_weights.w1 == 0.1
        assert cfg.rekey_threshold == 0.3
        # scenario floors scale with the configured battery
        assert cfg.scenario.energy_floor == pytest.approx(5.0)

    def test_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1, "node_count": 4, "group_count": 1, "sim_length": 5}')
        cfg = sim.load_config(
            str(path), ["sim_length=9", "energy_model.tx_per_octet=0.001"]
        )
        assert cfg.sim_length == 9
        assert cfg.energy_model.tx_per_octet == 0.001

    def test_unknown_keys_rejected(self, tmp_path):
        # A deleted field is rejected like any other unknown key.
        for key in ("frames", "slots_per_frame"):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: 500}))
            with pytest.raises(ValueError, match=key):
                sim.load_config(str(path))

    def test_every_scalar_field_accepted(self):
        values = {
            "seed": 7, "node_count": 6, "group_count": 3, "session_length": 9,
            "sim_length": 3, "adaptive": False, "rekey_threshold": 0.5,
            "loss_threshold": 2, "loss_rate": 0.1,
        }
        default = SimConfig()
        scalars = {
            f.name for f in fields(SimConfig)
            if isinstance(getattr(default, f.name), (int, float))
        }
        assert scalars == set(values)
        cfg = sim.config_from_dict(values)
        for name, value in values.items():
            assert getattr(cfg, name) == value != getattr(default, name)

    @pytest.mark.parametrize(
        "dotted, raw",
        [
            ("energy_model.initial_energy", "NaN"),
            ("energy_model.initial_energy", "Infinity"),
            ("energy_model.tx_per_octet", "NaN"),
            ("trust_weights.w3", "NaN"),
            ("trust_weights.w3", "Infinity"),
            ("scenario.energy_floor", "NaN"),
            ("scenario.energy_floor", "Infinity"),
        ],
    )
    def test_non_finite_numbers_rejected(self, dotted, raw):
        # JSON accepts NaN and Infinity; construction must name the field.
        data = {"scenario": {"name": "habitat"}}
        sim.set_override(data, dotted, raw)
        with pytest.raises(ValueError, match=dotted.rsplit(".", 1)[1]):
            sim.config_from_dict(data)

    def test_custom_scenario(self):
        cfg = sim.config_from_dict(
            {
                "scenario": {
                    "name": "orchard",
                    "base_level": {"encryption": 1, "auth": True},
                    "min_level": {"encryption": 0, "auth": True},
                    "trust_alarm": 0.25,
                },
                "node_count": 4,
                "group_count": 1,
                "sim_length": 2,
            }
        )
        assert cfg.scenario.name == "orchard"
        assert int(cfg.scenario.base_level.encryption) == 1
        assert cfg.scenario.fixed_level == SecurityLevel(Encryption.RC5_R12, True)


class TestGoldens:
    """Pinned outputs of small configs: `energy.csv` and `trust.csv` of the
    adaptive arm, `savings.csv` of both arms and `stats.csv`, every
    `NodeStats` counter of both arms, must reproduce byte for byte. The
    files were written by an earlier simulator; a refactor that changes any
    of them changes behaviour."""

    @pytest.fixture(scope="class")
    def savings(self):
        return {
            name: sim.compare_fixed_vs_adaptive(sim.config_from_dict(data))
            for name, data in GOLDEN_CONFIGS.items()
        }

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_outputs_byte_identical(self, savings, name):
        got = savings[name]
        golden = GOLDEN_DIR / name
        assert got.adaptive.energy_csv() == (golden / "energy.csv").read_text()
        assert got.adaptive.trust_csv() == (golden / "trust.csv").read_text()
        assert got.savings_csv() == (golden / "savings.csv").read_text()
        assert stats_csv(got) == (golden / "stats.csv").read_text()

    def test_configs_cover_the_model(self, savings):
        """The pinned set exercises every scenario, every adversary kind,
        channel loss, several groups, an election, a node death, and a
        death in a loss-free group of at least 16 members."""
        configs = [sim.config_from_dict(d) for d in GOLDEN_CONFIGS.values()]
        reports = [s.adaptive for s in savings.values()]
        assert any(
            c.loss_rate == 0 and c.node_count // c.group_count >= 16
            and any(not s.alive for s in r.nodes.values())
            for c, r in zip(configs, reports)
        )
        assert {c.scenario.name for c in configs} == set(sim.SCENARIO_NAMES)
        assert {a.behavior for c in configs for a in c.adversaries} == set(
            sim.ADVERSARY_BEHAVIORS
        )
        assert any(c.loss_rate > 0 for c in configs)
        assert any(c.group_count > 1 for c in configs)
        assert any(r.elections for r in reports)
        assert any(not s.alive for r in reports for s in r.nodes.values())
