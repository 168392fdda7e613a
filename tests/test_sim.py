import hmac
import json
import os
import pathlib
import threading
import time
from dataclasses import fields, replace

import pytest

from wsnsec import keys, linksec, sim
from wsnsec.addressing import BROADCAST_NODE_ID, NodeAddress
from wsnsec.agent import PacketClass, default_policy
from wsnsec.keys import SymmetricKey, derive_keyring
from wsnsec.linksec import CounterState, Encryption, SecurityLevel
from wsnsec.sim import AdversarySpec, EnergyModel, SimConfig
from wsnsec.trust import TrustTable


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

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


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
        elif isinstance(obj, dict):
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

    @pytest.mark.parametrize("cfg", [
        # The duty replayer 0.2 resends the head's handoff, addressed to itself.
        SimConfig(seed=2, node_count=5, group_count=1, sim_length=12,
                  session_length=5, scenario=habitat(),
                  adversaries=(AdversarySpec(NodeAddress(0, 2), "replay-attacker",
                                             start_frame=1),)),
        # Two groups, deaths and elections: deferral switches off near death.
        SimConfig(seed=5, node_count=9, group_count=2, sim_length=60,
                  session_length=10, scenario=military(1.5),
                  energy_model=EnergyModel(initial_energy=1.5),
                  adversaries=(AdversarySpec(NodeAddress(1, 2), "replay-attacker",
                                             start_frame=1),
                               AdversarySpec(NodeAddress(0, 3), "drop-fraction", 0.5))),
    ])
    def test_deferred_header_listens_equal_eager_debits(self, monkeypatch, cfg):
        simulation = sim._Simulation(cfg)
        deferred = simulation.run()
        assert all(g.channel.deferred > 0 for g in simulation.groups)
        monkeypatch.setattr(sim._Simulation, "_plan_listens", lambda self, group: None)
        eager = sim.run(cfg)
        assert deferred.nodes == eager.nodes  # every ledger float, exactly
        assert deferred.trust_csv() == eager.trust_csv()
        assert deferred.elections == eager.elections

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
        """Loss-free, far from death: a unicast debits its sender and its
        destination only, and the other members' header-only listens are
        settled later. A frame's two broadcasts still debit every member,
        so a frame of n + 2 transmissions makes about 8n debits."""
        debits = 0
        debit = sim._Node.debit

        def counting(self, *args):
            nonlocal debits
            debits += 1
            return debit(self, *args)

        monkeypatch.setattr(sim._Node, "debit", counting)
        report = sim.run(
            SimConfig(seed=1, node_count=members, group_count=1, sim_length=3)
        )
        assert 0 < debits <= 8 * len(report.slot_log)

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
        """A replayed wire carries no seal hint, and a listener that lost
        packets may try wraps before the sealing counter: those opens still
        run the cipher."""
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")
        report = sim.run(sim.config_from_dict(GOLDEN_CONFIGS["habitat_replay_loss"]))
        assert sum(s.replay_rejects for s in report.nodes.values()) > 0
        assert opens[0] > 0

    @pytest.mark.parametrize(
        "config",
        [sim.config_from_dict(BIG_GROUP),
         SimConfig(seed=1, node_count=20, group_count=2, sim_length=51,
                   session_length=50, scenario=military())],
        ids=["big_group", "savings_military"],
    )
    def test_one_seal_and_no_open_per_honest_wire(self, monkeypatch, config):
        """The benchmark's honest workloads seal each on-air wire once and
        open none with the cipher."""
        seals = count_calls(monkeypatch, sim.linksec.aead, "seal")
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")
        report = sim.run(config)
        assert all(s.alive and s.auth_rejects == s.replay_rejects == 0
                   for s in report.nodes.values())
        assert seals[0] == len(report.slot_log) and opens[0] == 0

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
                src = sender.addr.node_id if replayed_wire is None else replayed_wire[2]
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
        """Each wire's header is parsed once, not once per listener."""
        parses = 0
        decode = linksec.PacketHeader.decode.__func__

        def counting(cls, data):
            nonlocal parses
            parses += 1
            return decode(cls, data)

        monkeypatch.setattr(linksec.PacketHeader, "decode", classmethod(counting))
        report = sim.run(sim.config_from_dict(BIG_GROUP))
        assert parses == len(report.slot_log) > 0

    def test_malformed_wire_counts_one_format_reject_per_destination(self):
        simulation = sim._Simulation(
            SimConfig(seed=1, node_count=5, group_count=1, sim_length=0)
        )
        group = simulation.groups[0]
        sender = group.nodes[1]
        wire = linksec.encode(
            SecurityLevel(Encryption.XOR, True), sender.ring, CounterState(),
            BROADCAST_NODE_ID, b"hello",
        )
        for bad in (wire[:-1], wire + b"\x00", wire[:3]):
            decoded = simulation._transmit(
                group, 0, sender, BROADCAST_NODE_ID, PacketClass.CONTROL, b"",
                replayed_wire=bad,
            )
            assert decoded == {}
        for node in group.nodes:
            stats = node.stats
            assert stats.format_rejects == (0 if node is sender else 3)
            assert stats.decode_ok == stats.auth_rejects == stats.ledger.crypto == 0

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
        """At set-up every ring equals a direct `derive_keyring` but for
        its empty pairwise map; after a run, every pairwise key it holds is
        the one `derive_keyring` gives for that pair."""
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
                    assert node.ring == replace(direct[node.addr], pairwise={})
            for attr in ("pairwise", "peer_broadcast", "peer_node_based"):
                assert len({id(getattr(r, attr)) for r in rings}) == len(rings)
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
        gets the sealer's hint, so every open runs the cipher. The opens
        are counted on both arms run by `sim.run` in this process: the
        counter cannot see an arm that `compare_fixed_vs_adaptive` forks."""
        config = sim.config_from_dict(GOLDEN_CONFIGS[name])
        opens = count_calls(monkeypatch, sim.linksec.aead, "open_")

        def opens_of_both_arms():
            before = opens[0]
            for adaptive in (False, True):
                sim.run(replace(config, adaptive=adaptive))
            return opens[0] - before

        hinted = sim.compare_fixed_vs_adaptive(config)
        hinted_opens = opens_of_both_arms()
        decode_parsed = sim.linksec.decode_parsed

        def unhinted(*args, sealed=None):
            return decode_parsed(*args)

        monkeypatch.setattr(sim.linksec, "decode_parsed", unhinted)
        stripped = sim.compare_fixed_vs_adaptive(config)
        assert opens_of_both_arms() > hinted_opens
        for got, want in ((hinted.fixed, stripped.fixed),
                          (hinted.adaptive, stripped.adaptive)):
            assert got.nodes == want.nodes
            assert got.energy_csv() == want.energy_csv()
            assert got.trust_csv() == want.trust_csv()
        assert hinted.savings_csv() == stripped.savings_csv()


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
