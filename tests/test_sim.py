import errno
import hmac
import json
import os
import pathlib
import threading
import time
import tracemalloc
from collections.abc import Mapping
from dataclasses import fields, replace
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import corpus
import oracles
from wsnsec import keys, linksec, sim
from wsnsec.addressing import BROADCAST_NODE_ID, NodeAddress
from wsnsec.agent import (
    LEVEL_STRONGEST, SCENARIO_NAMES, PacketClass, SecurityAgent, default_policy,
)
from wsnsec.config import (
    ADVERSARY_BEHAVIORS, AdversarySpec, EnergyModel, SimConfig,
    config_from_dict, load_config, set_override,
)
from wsnsec.keys import SymmetricKey, derive_keyring
from wsnsec.linksec import CounterState, Encryption, SecurityLevel
from wsnsec.reports import EnergyLedger, SavingsReport
from wsnsec.trust import TrustTable, TrustTables

from test_keys import check_group_rings
from test_linksec import tried


GOLDEN_DIR = pathlib.Path(__file__).parent / "vectors" / "sim_golden"
GOLDEN_CONFIGS = json.loads((GOLDEN_DIR / "configs.json").read_text())
# The benchmark's scaling workload: one 254-member group, 3 frames.
BIG_GROUP = {
    "seed": 11, "node_count": 254, "group_count": 1, "sim_length": 3,
    "scenario": "agricultural-farming",
}
# Groups of 2, 1 and 1 members: two heads alone from the start.
ONE_MEMBER_GROUPS = {"node_count": 4, "group_count": 3, "sim_length": 5}
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


def count_open_attempts(monkeypatch):
    """Wrap `aead.open_` to count the candidate counters it tries (see
    `test_linksec.tried`); the count is the list's item."""
    attempts = [0]
    real = linksec.aead.open_

    def counting(*args):
        answer = real(*args)
        attempts[0] += len(tried(args[2], answer))
        return answer

    monkeypatch.setattr(linksec.aead, "open_", counting)
    return attempts


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


def replay_arms(count):
    """Both arms of the first `count` corpus configs with a replay attacker."""
    configs = [
        config for config in corpus.frame_configs(corpus.SEED_COUNT)
        if any(a.behavior == "replay-attacker" for a in config.adversaries)
    ]
    return [arm for config in configs[:count] for arm in corpus.arms(config)]


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
    return [pytest.param(name, config_from_dict(GOLDEN_CONFIGS[name]), id=name)
            for name in names]


def watch_budgets(monkeypatch):
    """Record every group frame as `(simulation, group, budgeted, left)`.

    In a budgeted frame, `left` maps each member alive at its start to its
    battery left then, in nJ, and to its battery left and whether it is
    alive once the frame's charges are done, read at `_frame_end`; it is
    empty otherwise. Reading `left` only settles deferred listens, as the
    simulator does itself."""
    frames, open_frames = [], []
    plan, frame_end = sim._Simulation._plan_listens, sim._Simulation._frame_end

    def planning(self, group):
        plan(self, group)
        budgeted = group.channel.budgeted
        left = {n: [n.left] for n in self._alive_members(group)} if budgeted else {}
        frames.append((self, group, budgeted, left))
        open_frames.append(left)

    def ending(self, frame):
        for left in open_frames:
            for node, reads in left.items():
                reads += node.left, node.alive
        open_frames.clear()
        frame_end(self, frame)

    monkeypatch.setattr(sim._Simulation, "_plan_listens", planning)
    monkeypatch.setattr(sim._Simulation, "_frame_end", ending)
    return frames


# One joule, and a header listen's receive energy under the default model,
# in nJ.
J = 10**9
HEADER_RX = sim._nj(EnergyModel().rx_per_octet) * linksec.HEADER_BYTES


def charge_node(spent_tx=0, deferred=0, alive=True, budgeted=False, battery=J,
                header_rx=HEADER_RX):
    """A lone node with a battery of `battery` nJ, `spent_tx` nJ already
    spent, `deferred` listens of `header_rx` nJ each pending on its channel,
    and the channel's budget flag set."""
    config = SimConfig()
    addr, peer = NodeAddress(0, 1), NodeAddress(0, 2)
    ledger = TrustTable(NodeAddress(0, BROADCAST_NODE_ID), config.trust_weights)
    ledger.record(addr, "packet-transmitted")
    ledger.record(peer, "packet-received")
    channel = sim._Channel(header_rx, battery)
    channel.deferred = deferred
    channel.budgeted = budgeted
    made = sim._Node(addr, None, ledger, channel, config)
    made.tx = spent_tx
    made.stats.alive = alive
    return made


def books(node):
    """A node's books: the nJ it has spent, by ledger field."""
    return node.tx, node.rx, node.crypto


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
        pytest.param(None, config_from_dict(BIG_GROUP), id="big_group"),
        # Re-keys at frames 25 and 50.
        pytest.param(
            None,
            SimConfig(seed=3, node_count=60, group_count=1, sim_length=60,
                      session_length=25),
            id="rekeys_60",
        ),
    ])
    def test_deferred_header_listens_equal_eager_debits(self, monkeypatch, name, cfg):
        """Turning the budget off everywhere (every listener debited as the
        packet goes by, every charge clamped) changes no nJ of either
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
            assert budgeted.nodes == eager.nodes  # every ledger, exactly
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
            (0, 0, True, J // 4, J // 8, False),  # no pending listens
            (0, 3, True, J // 4, J // 8, False),  # deferred listens settle first
            (J * 9 // 10, 3, True, J // 4, J // 8, False),  # the rx charge kills: no crypto
            (J * 6 // 10, 0, True, J // 4, J // 2, False),  # the crypto charge kills
            (J * 9 // 10, 3, False, J // 4, J // 8, False),  # already dead: nothing changes
            (0, 0, True, J // 4, J // 8, True),  # plain additions
            (0, 3, True, J // 4, J // 8, True),  # plain additions, settled later
            (J * 9 // 10, 3, False, J // 4, J // 8, True),
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
        assert (books(one), one.stats) == (books(two), two.stats)  # and `alive`
        assert (one.heard, one.channel.deaths) == (two.heard, two.channel.deaths)
        assert one.frozen == two.frozen
        if alive and not one.stats.alive:
            assert one.channel.deaths == 1
            assert sum(books(one)) == one.battery  # the clamp spent the rest
            peer = NodeAddress(0, 2)
            assert list(one.frozen.rows) == [peer]
            assert one.frozen.rows[peer] is not one.ledger.rows[peer]  # a copy
            assert (one.crypto == 0) == (spent_tx == J * 9 // 10)
        else:
            assert one.frozen is None and one.channel.deaths == 0
        if budgeted and alive:  # the same books as the clamped charge
            clamped = charge_node(spent_tx, deferred, alive, budgeted=False)
            clamped.charge(rx, crypto)
            one.settle()
            assert (books(one), one.stats, one.heard) == (
                books(clamped), clamped.stats, clamped.heard
            )

    @pytest.mark.parametrize("deferred", [0, 3])
    @pytest.mark.parametrize("kind", ["tx", "rx", "crypto"])
    def test_budgeted_debit_equals_clamped_debit(self, kind, deferred):
        """Far from death, a plain charge adds what the clamped one adds.
        It leaves the pending listens to a later settle, which adds the
        same nJ to `rx`."""
        clamped, plain = (charge_node(J // 4, deferred, budgeted=b) for b in (False, True))
        clamped.charge(**{kind: J // 8})
        plain.charge(**{kind: J // 8})
        assert (plain.heard, clamped.heard) == (0, deferred)
        assert plain.remaining == clamped.remaining
        assert (books(plain), plain.stats, plain.heard) == (
            books(clamped), clamped.stats, clamped.heard
        )
        assert plain.stats.alive and plain.channel.deaths == 0

    def test_clamped_charge_that_spends_the_rest_kills(self):
        """The books of node 1.3 before its 190th charge in the fixed arm of
        golden `habitat_death_loss`, in nJ. The clamp charges the 608,000
        nJ left of the tx amount, which leaves exactly 0 nJ, so the node
        dies on that charge."""
        node = charge_node(battery=1_500_000_000)
        node.tx, node.rx, node.crypto = 990_000_000, 491_100_000, 18_138_000
        node.charge(crypto=154_000, tx=17_400_000)
        assert books(node) == (990_608_000, 491_100_000, 18_292_000)
        assert sum(books(node)) == node.battery
        assert not node.alive and node.channel.deaths == 1
        node.charge(rx=1)  # the dead are charged nothing more
        assert sum(books(node)) == node.battery

    def test_books_balance_over_frame_configs(self, monkeypatch):
        """Both arms of the first 100 corpus configs: a dead node's books sum
        to its battery to the nJ, a living node's to less, and nothing is
        booked after a death. Each ledger holds the books in joules, and
        its total is their exact sum. The set is not vacuous: nodes die in
        loss-free groups and under loss."""
        at_death = {}
        die = sim._Node._die

        def dying(self):
            at_death[self] = books(self)
            die(self)

        monkeypatch.setattr(sim._Node, "_die", dying)
        dead_by_loss = set()
        for config in corpus.frame_configs(100):
            for arm in corpus.arms(config):
                simulation = sim._Simulation(arm)
                simulation.run()
                for node in simulation.nodes.values():
                    spent = sum(books(node))
                    assert node.battery == round(config.energy_model.initial_energy * J)
                    if node.alive:
                        assert spent < node.battery and node not in at_death
                    else:
                        assert spent == node.battery and books(node) == at_death[node]
                        dead_by_loss.add(config.loss_rate)
                    ledger = node.stats.ledger
                    assert [ledger.tx, ledger.rx, ledger.crypto] == [nj / J for nj in books(node)]
                    assert ledger.total == spent / J
        assert dead_by_loss == {0.0, 0.1, 0.2}

    @settings(max_examples=300, deadline=None)
    @given(
        # Pending listens exist only in budgeted frames, which leave them
        # battery to spare: an empty battery has none.
        battery=st.one_of(
            st.just((0, 0)),
            st.tuples(st.integers(0, 4 * J), st.integers(0, 6)),
        ),
        header_rx=st.integers(0, 50_000_000),
        events=st.lists(
            st.dictionaries(
                st.sampled_from(["rx", "crypto", "tx"]),
                st.one_of(st.just(0), st.integers(0, 8 * J)),
                min_size=1,
            ),
            max_size=8,
        ),
    )
    # The rx amount is clamped to the 2.28 J left and kills: the crypto and
    # tx amounts after it book nothing.
    @example(battery=(3_060_000_000, 0), header_rx=0,
             events=[{"tx": 780_000_000}, {"rx": 5 * J, "crypto": 0, "tx": 0}])
    # A charge of exactly what is left kills.
    @example(battery=(1_000, 2), header_rx=100, events=[{"tx": 800}])
    def test_charges_match_the_reference_ledger(self, battery, header_rx, events):
        """Each charge through `_Node.charge` books what `ReferenceLedger`
        books for its amounts in rx, crypto, tx order, with the pending
        header listens as the first rx amounts: the same nJ, life, death
        count and frozen view. When nothing is clamped, the budgeted path
        books the same nJ."""
        initial, deferred = battery
        reference = oracles.ReferenceLedger(initial)
        for _ in range(deferred):
            reference.charge("rx", header_rx)
        assume(reference.alive and not reference.clamped)
        for event in events:
            for kind in ("rx", "crypto", "tx"):
                if kind in event:
                    reference.charge(kind, event[kind])
        paths = [False, True] if reference.alive and not reference.clamped else [False]
        for budgeted in paths:
            node = charge_node(deferred=deferred, budgeted=budgeted, battery=initial,
                               header_rx=header_rx)
            seen = TrustTables({node.addr: node.table})[node.addr]
            for event in events:
                node.charge(**event)
            node.settle()
            assert list(books(node)) == [reference.spent[k] for k in ("tx", "rx", "crypto")]
            assert node.alive == reference.alive
            assert node.channel.deaths == (not reference.alive)
            assert node.frozen == (None if reference.alive else seen)

    @settings(max_examples=200, deadline=None)
    @given(
        header_rx=st.integers(0, 50_000_000),
        # Members draw their first rx charges and their pending counts from
        # small pools, so equal and unequal books and counts both occur.
        starts=st.lists(
            st.lists(st.integers(0, J), max_size=3), min_size=1, max_size=3
        ),
        counts=st.lists(st.integers(0, 600), min_size=1, max_size=3),
        members=st.lists(st.integers(0, 2), min_size=2, max_size=6),
        rounds=st.lists(
            st.lists(st.integers(0, 2), min_size=6, max_size=6), min_size=1, max_size=3
        ),
    )
    @example(header_rx=HEADER_RX, starts=[[J // 4]], counts=[600],
             members=[0, 0, 0], rounds=[[0] * 6, [0] * 6])
    def test_shared_settles_match_the_reference_ledger(
        self, header_rx, starts, counts, members, rounds
    ):
        """Members of one channel, each settling its own count of the
        channel's deferred listens, book what `ReferenceLedger` books for
        the same header amounts, one by one."""
        config = SimConfig()
        channel = sim._Channel(header_rx, 10_000 * J)
        ledger = TrustTable(NodeAddress(0, BROADCAST_NODE_ID), config.trust_weights)
        nodes, references = [], []
        for i, start in enumerate(members):
            node = sim._Node(NodeAddress(0, i + 1), None, ledger, channel, config)
            reference = oracles.ReferenceLedger(node.battery)
            for nj in starts[start % len(starts)]:
                node.charge(rx=nj)
                reference.charge("rx", nj)
            nodes.append(node)
            references.append(reference)
        for picks in rounds:
            pending = [counts[pick % len(counts)] for pick in picks[:len(nodes)]]
            channel.deferred += max(pending)
            for node, count in zip(nodes, pending):
                node.heard += max(pending) - count  # sat out the others' listens
            for node, reference, count in zip(nodes, references, pending):
                node.settle()
                for _ in range(count):
                    reference.charge("rx", header_rx)
                assert [books(n) for n in nodes] == [
                    tuple(r.spent[k] for k in ("tx", "rx", "crypto")) for r in references
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
    def test_no_fixed_energy_saves_nothing(self):
        report = sim.run(SimConfig(node_count=4, group_count=1, sim_length=0))
        savings = SavingsReport(scenario_name="habitat-monitoring", fixed=report, adaptive=report)
        assert report.total_energy() == 0.0
        assert savings.total_saving_pct == 0.0

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
        config = config_from_dict({
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
        config = config_from_dict(GOLDEN_CONFIGS[name])
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
        config = config_from_dict(GOLDEN_CONFIGS["habitat_replay_loss"])
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
        config = config_from_dict(GOLDEN_CONFIGS["agri_death"])
        got = sim.compare_fixed_vs_adaptive(config)
        assert forks[0] == 0
        assert_same_run(got.fixed, sim.run(replace(config, adaptive=False)))

    @pytest.mark.parametrize("refused", ["pipe", "fork"])
    def test_refused_pipe_or_fork_runs_the_arms_in_turn(self, monkeypatch, refused):
        """A pipe or a child that the system refuses (`EAGAIN` here) is no
        error: the caller runs both arms in turn, for the same report, and
        closes any pipe it made. No process is started: the refused call is
        a stand-in that raises."""
        pipes = []
        real_pipe = os.pipe

        def recorded_pipe():
            pipes.extend(real_pipe())
            return pipes[-2:]

        def refuse(*args):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(sim, "_may_fork", lambda: True)
        monkeypatch.setattr(sim.os, "pipe", recorded_pipe)
        monkeypatch.setattr(sim.os, refused, refuse)
        config = config_from_dict(GOLDEN_CONFIGS["habitat_replay_loss"])
        got = sim.compare_fixed_vs_adaptive(config)
        assert len(pipes) == (2 if refused == "fork" else 0)
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert_no_child_left()
        fixed = sim.run(replace(config, adaptive=False))
        adaptive = sim.run(replace(config, adaptive=True))
        assert_same_run(got.fixed, fixed)
        assert_same_run(got.adaptive, adaptive)
        want = sim.SavingsReport(config.scenario.name, fixed, adaptive)
        assert got.savings_csv() == want.savings_csv()

    def test_cpu_count_decides_without_sched_getaffinity(self, monkeypatch):
        """Where the platform cannot report the CPUs this process may run on,
        the machine's count decides; an unknown count is one CPU."""
        if not hasattr(os, "fork") or threading.active_count() != 1:
            pytest.skip("this process may not fork")
        monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
        for cpus, may in ((None, False), (1, False), (2, True)):
            monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
            assert sim._may_fork() is may

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
        config = config_from_dict(GOLDEN_CONFIGS["agri_death"])
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
        config = config_from_dict(GOLDEN_CONFIGS["agri_death"])
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
        config = config_from_dict(GOLDEN_CONFIGS["agri_death"])
        with pytest.raises(ChildProcessError, match="wait status"):
            sim.compare_fixed_vs_adaptive(config)
        assert forks[0] == 1
        assert_no_child_left()

    def test_forks_on_two_cpus(self, monkeypatch, forks):
        """Two allowed CPUs are enough to run the fixed arm in a child."""
        if not hasattr(os, "fork") or threading.active_count() != 1:
            pytest.skip("this process may not fork")
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = config_from_dict(GOLDEN_CONFIGS["agri_death"])
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
        config = config_from_dict(GOLDEN_CONFIGS["agri_death"])
        with pytest.raises(ChildProcessError, match="without a complete reply"):
            sim.compare_fixed_vs_adaptive(config)
        assert forks[0] == 1
        assert_no_child_left()

    def test_child_flushes_no_buffer_of_the_caller(self, tmp_path):
        path = tmp_path / "buffered.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("written once")
            sim.compare_fixed_vs_adaptive(
                config_from_dict(GOLDEN_CONFIGS["agri_death"])
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
        """A config that cannot run is refused when it is built, before any
        run: an adversary off the topology, two specs for one node, more
        groups than nodes, and every other field and override out of range."""
        def refused(match, build):
            with pytest.raises(ValueError, match=match):
                build()

        captured = AdversarySpec(NodeAddress(0, 2), "captured")
        for node in (NodeAddress(9, 9), NodeAddress(0, 5), NodeAddress(1, 1), NodeAddress(0, 0)):
            refused(
                rf"adversary {node} is not a simulated node",
                lambda: small_battery_cfg(6, (AdversarySpec(node, "captured"),)),
            )
        refused(
            r"adversary 0\.2 has more than one spec",
            lambda: small_battery_cfg(
                6, (captured, AdversarySpec(NodeAddress(0, 2), "replay-attacker"))
            ),
        )
        refused(
            "group_count must not exceed node_count",
            lambda: SimConfig(node_count=2, group_count=3),
        )
        refused("behavior must be one of", lambda: AdversarySpec(NodeAddress(0, 2), "bogus"))
        for fraction in (-0.1, 1.1):
            refused(
                r"drop_fraction must be in \[0, 1\]",
                lambda: AdversarySpec(NodeAddress(0, 2), "drop-fraction", fraction),
            )
        refused(
            "start_frame must be non-negative",
            lambda: AdversarySpec(NodeAddress(0, 2), "captured", start_frame=-1),
        )
        for field_name, value, match in (
            ("seed", -1, "seed must fit 64 bits"),
            ("seed", 1 << 64, "seed must fit 64 bits"),
            ("sim_length", -1, "sim_length must be non-negative"),
            ("loss_threshold", -1, "loss_threshold must be non-negative"),
            ("loss_rate", -0.1, r"loss_rate must be in \[0, 1\)"),
            ("loss_rate", 1.0, r"loss_rate must be in \[0, 1\)"),
        ):
            refused(match, lambda: SimConfig(**{field_name: value}))
        refused(
            "cannot override through non-object key 'seed'",
            lambda: set_override({"seed": 1}, "seed.x", "2"),
        )
        refused("override 'seed' is not key=value", lambda: load_config(None, ["seed"]))
        # Where a spec names a node the topology has, the config runs.
        assert sim.run(replace(small_battery_cfg(6, (captured,)), sim_length=2)).frames == 2


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
        report = sim.run(config_from_dict(GOLDEN_CONFIGS["habitat_death_loss"]))
        assert any(not s.alive for s in report.nodes.values())
        for addr, table in report.trust_tables.items():
            assert table.observer == addr
            assert addr not in table.rows

    def test_last_survivor_records_nothing_of_itself(self):
        """An event about a group's last alive member has no one to see it.
        `_transmit` checks that once for its sender's records, after its
        listeners are charged: a broadcast whose receive charge kills the
        last other member records no transmission. `_frame_end` checks it
        once per group: a lone member samples nothing about itself."""
        simulation = sim._Simulation(SimConfig(seed=1, node_count=2, group_count=1,
                                               sim_length=0))
        group = simulation.groups[0]
        head, member = group.nodes
        rows = group.ledger.rows

        def beacon():
            simulation._transmit(group, 0, head, BROADCAST_NODE_ID,
                                 PacketClass.ROUTING_CONTROL, b"beacon!!")

        simulation._frame_end(0)
        assert rows[head.addr]._energy_samples == rows[member.addr]._energy_samples == 1
        beacon()
        assert member.alive and rows[head.addr].npt == 1
        member.charge(tx=member.left - 1)  # one receive is more than is left
        assert member.alive and not group.channel.budgeted
        beacon()
        assert not member.alive
        assert rows[head.addr].npt == 1
        seen = replace(rows[head.addr])
        simulation._frame_end(1)
        assert rows[head.addr] == seen and rows[head.addr]._energy_samples == 1

    @pytest.mark.parametrize(
        "sender_dies, dest_dies, sender_seen, dest_seen",
        [
            pytest.param(True, False, True, False, id="sender-dies-on-its-charge"),
            pytest.param(False, True, False, True, id="destination-dies-on-receive"),
            pytest.param(True, True, False, False, id="nobody-survives"),
        ],
    )
    def test_unicast_drop_rule_with_one_survivor_or_none(
        self, sender_dies, dest_dies, sender_seen, dest_seen
    ):
        """A unicast's two records, the sender's `packet-transmitted` and
        the destination's `packet-received`, each follow `_observe`'s drop
        rule after the charges: the event is kept while an alive member
        other than its subject is left. In a group of two, the one who
        survives sees only the other's event, and with no survivor both
        are dropped."""
        simulation = sim._Simulation(SimConfig(seed=1, node_count=2, group_count=1,
                                               sim_length=0))
        group = simulation.groups[0]
        head, member = group.nodes
        rows = group.ledger.rows
        simulation._frame_end(0)  # every member gets its row
        for node, dies in ((member, sender_dies), (head, dest_dies)):
            if dies:  # one seal or receive is more than is left
                node.charge(tx=node.left - 1)
        assert head.alive and member.alive and not group.channel.budgeted
        before = (rows[member.addr].npt, rows[head.addr].npr)
        simulation._transmit(group, 0, member, head.addr.node_id,
                             PacketClass.SENSED_DATA, b"reading!")
        assert (member.alive, head.alive) == (not sender_dies, not dest_dies)
        assert (rows[member.addr].npt, rows[head.addr].npr) == (
            before[0] + sender_seen, before[1] + dest_seen
        )

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
        [*GOLDEN_CONFIGS.values(), ONE_MEMBER_GROUPS],
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
                    view = TrustTables({node.addr: node.table})[node.addr]
                    expected = min(
                        (view.election_trust(s) for s in view.rows), default=None
                    )
                    assert node.agent.lowest_neighbor_trust == expected
                    empty_views += expected is None

        monkeypatch.setattr(sim._Simulation, "_frame_end", checking)
        config = config_from_dict(data)
        sim.run(config)
        # Only a member alone in its group has no neighbors; (4, 3) makes two.
        alone = 2 if data.get("group_count") == 3 else 0
        assert empty_views == alone * config.sim_length

    @pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
    def test_one_table_per_group_and_per_death(self, monkeypatch, name):
        """A run builds one trust table per group, its shared ledger, and
        one per death, the dead node's frozen copy. Elections read the
        ledgers and frozen copies, and the trust CSV is written from them:
        neither builds a view."""
        made = 0
        init = TrustTable.__init__

        def counting(self, *args, **kwargs):
            nonlocal made
            made += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(TrustTable, "__init__", counting)
        report = sim.run(config_from_dict(GOLDEN_CONFIGS[name]))
        report.trust_csv()
        groups = len({addr.group_id for addr in report.nodes})
        deaths = sum(not stats.alive for stats in report.nodes.values())
        assert made == groups + deaths

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
        """In a budgeted frame a charge, a sender's seal and send or a
        destination's receive and open, is plain additions to the books: it
        leaves its node's pending listens for the next energy read."""
        settles = count_calls(monkeypatch, sim._Node, "settle")
        charge = sim._Node.charge
        in_charges, pending = [0], [0]

        def charging(self, rx=0, crypto=0, tx=0):
            assert self.channel.budgeted
            pending[0] += self.channel.deferred != self.heard
            before = settles[0]
            charge(self, rx, crypto, tx)
            in_charges[0] += settles[0] - before

        monkeypatch.setattr(sim._Node, "charge", charging)
        sim.run(SimConfig(seed=1, node_count=32, group_count=1, sim_length=3))
        assert pending[0] > 0 and settles[0] > 0
        assert in_charges[0] == 0

    def test_one_open_per_transmission(self, monkeypatch):
        """Loss-free and honest: every listener of a wire holds the sealing
        key and expects the sealing counter, so the seal's own plaintext
        answers every open and the cipher opens no wire."""
        opens = count_open_attempts(monkeypatch)
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
        opens = count_open_attempts(monkeypatch)
        report = sim.run(config_from_dict(GOLDEN_CONFIGS["military_two_groups_loss"]))
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
        config = config_from_dict(GOLDEN_CONFIGS[name])
        opens = count_open_attempts(monkeypatch)
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
        config = config_from_dict(GOLDEN_CONFIGS[name])
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
        "data",
        [*GOLDEN_CONFIGS.values(), BIG_GROUP, ONE_MEMBER_GROUPS],
        ids=[*GOLDEN_CONFIGS, "big_group", "one_member_groups"],
    )
    def test_one_agent_decision_per_sealing(self, monkeypatch, data):
        """An adaptive run asks the agent once per sealing: per honest
        on-air transmission, per off-group uplink, and per aggregate that a
        lone head stages without radio. A replay is sealed by no one and
        asks nothing."""
        decides = count_calls(monkeypatch, SecurityAgent, "decide")
        stages = 0
        group_frame = sim._Simulation._group_frame

        def counting_stages(self, group, frame):
            nonlocal stages
            lone = self._alive_members(group) == [group.head]
            if lone and group.pending_aggregate is not None:
                stages += 1
            return group_frame(self, group, frame)

        monkeypatch.setattr(sim._Simulation, "_group_frame", counting_stages)
        report = sim.run(replace(config_from_dict(data), adaptive=True))
        honest = sum(honest for *_, honest in report.slot_log)
        uplinks = sum(s.packets_sent for s in report.nodes.values()) - len(report.slot_log)
        assert decides[0] == honest + uplinks + stages
        if data is BIG_GROUP:
            assert (honest, uplinks, stages) == (767, 2, 0)
        if data is ONE_MEMBER_GROUPS:
            assert stages > 0

    @pytest.mark.parametrize(
        "config",
        [config_from_dict(BIG_GROUP)] + [
            SimConfig(seed=1, node_count=20, group_count=2, sim_length=51,
                      session_length=50, scenario=default_policy(name))
            for name in SCENARIO_NAMES
        ],
        ids=["big_group", "savings_military", "savings_habitat", "savings_agriculture"],
    )
    def test_no_seal_and_no_open_per_honest_wire(self, monkeypatch, config):
        """The benchmark's honest workloads, each arm run in process, run no
        cipher: no wire is sealed, and every open is answered by the seal's
        plaintext."""
        seals = count_calls(monkeypatch, sim.linksec.aead, "seal")
        opens = count_open_attempts(monkeypatch)
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

        def recording_open(key, rounds, counters, aad, ct, tag, auth):
            opened.add(aad + ct + (tag or b""))
            return open_(key, rounds, counters, aad, ct, tag, auth)

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
            config = config_from_dict(GOLDEN_CONFIGS[name])
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
            sim.run(config_from_dict(GOLDEN_CONFIGS[name]))
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
        monkeypatch.setattr(keys, "prf", counting)
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
        monkeypatch.setattr(keys, "prf", recording)
        monkeypatch.setattr(sim._Simulation, "_transmit", recording_pairs)
        simulation = sim._Simulation(config_from_dict(data))
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
        report = sim.run(config_from_dict(BIG_GROUP))
        assert report.slot_log and parses == 0
        report = sim.run(config_from_dict(GOLDEN_CONFIGS["habitat_replay_loss"]))
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
            simulation = sim._Simulation(config_from_dict(GOLDEN_CONFIGS[name]))
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
        config = replace(config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
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
        config = config_from_dict(GOLDEN_CONFIGS[name])
        opens = count_open_attempts(monkeypatch)

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
        config = config_from_dict(GOLDEN_CONFIGS[name])
        opens = count_open_attempts(monkeypatch)
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
        """Beyond the goldens: both arms of 15 corpus configs with replay
        attackers, loss and deaths run the same with pending wires, replays
        included, as with every wire sealed at once and opened for real."""
        configs = replay_arms(15)
        opens = count_open_attempts(monkeypatch)
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
        on both arms of the replay goldens and of 15 corpus configs."""
        configs = [
            replace(config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
            for name in ("habitat_replay_loss", "military_two_groups_loss")
            for adaptive in (False, True)
        ] + replay_arms(15)
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
        config = replace(config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
        simulation = sim._Simulation(config)
        built = count_calls(monkeypatch, SecurityLevel, "__init__")
        simulation.run()
        assert built[0] == 0

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    @ARMS
    def test_one_counter_state_per_direction(self, monkeypatch, name, adaptive):
        config = replace(config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
        built = count_calls(monkeypatch, CounterState, "__init__")
        simulation = sim._Simulation(config)
        simulation.run()
        held = sum(len(n.out_ctr) + len(n.in_ctr) for n in simulation.nodes.values())
        assert held > 0
        assert built[0] == held

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    @ARMS
    def test_address_builds_do_not_grow_with_frames(self, monkeypatch, name, adaptive):
        config = replace(config_from_dict(GOLDEN_CONFIGS[name]), adaptive=adaptive)
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
        length, a whole number of nJ each."""
        for model in (EnergyModel(), EnergyModel(xor_per_octet=0.0, mac_fixed=0.0)):
            table = sim._crypto_costs(model)
            assert sim._crypto_costs(model) is table
            assert len(table) == len(linksec.LEVELS)
            for code, level in enumerate(linksec.LEVELS):
                assert len(table[code]) == linksec.MAX_PAYLOAD + 1
                for n, cost in enumerate(table[code]):
                    assert type(cost) is int
                    assert cost == sim._crypto_energy(model, level, n)
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
        cfg = load_config(str(path))
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
        cfg = load_config(
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
                load_config(str(path))

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
        cfg = config_from_dict(values)
        for name, value in values.items():
            assert getattr(cfg, name) == value != getattr(default, name)

    @pytest.mark.parametrize(
        "dotted, raw",
        [
            ("energy_model.initial_energy", "NaN"),
            ("energy_model.initial_energy", "Infinity"),
            ("energy_model.tx_per_octet", "NaN"),
            # Above about 1.8e299 J, the amount in nJ overflows a float.
            ("energy_model.initial_energy", "1e300"),
            ("trust_weights.w3", "NaN"),
            ("trust_weights.w3", "Infinity"),
            ("scenario.energy_floor", "NaN"),
            ("scenario.energy_floor", "Infinity"),
        ],
    )
    def test_non_finite_numbers_rejected(self, dotted, raw):
        # JSON accepts NaN and Infinity; construction must name the field.
        data = {"scenario": {"name": "habitat"}}
        set_override(data, dotted, raw)
        with pytest.raises(ValueError, match=dotted.rsplit(".", 1)[1]):
            config_from_dict(data)

    def test_custom_scenario(self):
        cfg = config_from_dict(
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
            name: sim.compare_fixed_vs_adaptive(config_from_dict(data))
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
        configs = [config_from_dict(d) for d in GOLDEN_CONFIGS.values()]
        reports = [s.adaptive for s in savings.values()]
        assert any(
            c.loss_rate == 0 and c.node_count // c.group_count >= 16
            and any(not s.alive for s in r.nodes.values())
            for c, r in zip(configs, reports)
        )
        assert {c.scenario.name for c in configs} == set(SCENARIO_NAMES)
        assert {a.behavior for c in configs for a in c.adversaries} == set(
            ADVERSARY_BEHAVIORS
        )
        assert any(c.loss_rate > 0 for c in configs)
        assert any(c.group_count > 1 for c in configs)
        assert any(r.elections for r in reports)
        assert any(not s.alive for r in reports for s in r.nodes.values())

    def test_corpus_runs_as_pinned(self):
        """Every run of the config corpus (see `corpus`) gives the digest
        that `vectors/corpus.txt` pins. The corpus is not vacuous: it holds
        elections, deaths, suspicious rows, dropped duties, replays and
        every loss rate."""
        runs = list(corpus.runs())
        assert [corpus.line(*run) for run in runs] == corpus.VECTORS.read_text().splitlines()
        reports = [report for _, report in runs]
        rows = [rec for r in reports for table in r.trust_tables.values()
                for rec in table.rows.values()]
        assert sum(len(r.elections) for r in reports) >= 10
        assert any(not s.alive for r in reports for s in r.nodes.values())
        assert any(rec.suspicious for rec in rows)
        assert any(rec.pd for rec in rows)
        assert any(not honest for r in reports for *_, honest in r.slot_log)
        assert {config.loss_rate for config, _ in runs} == {0.0, 0.1, 0.2}
