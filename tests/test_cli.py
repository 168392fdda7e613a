import json
import os

import pytest

from wsnsec import cli, linksec, sim
from wsnsec.addressing import NodeAddress
from wsnsec.keys import SymmetricKey, derive_keyring
from wsnsec.linksec import CounterState, Encryption, SecurityLevel
from wsnsec.trust import NeighborRecord, TrustWeights, compute_trust

MASTER = "00112233445566778899"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def rings(tmp_path):
    master = SymmetricKey.from_hex(MASTER)
    head = NodeAddress(2, 1)
    src = NodeAddress(2, 5)
    ring_src = derive_keyring(master, src, head, [head])
    ring_head = derive_keyring(master, head, head, [src])
    src_path = tmp_path / "src.json"
    head_path = tmp_path / "head.json"
    src_path.write_text(json.dumps(cli.keyring_to_dict(ring_src)))
    head_path.write_text(json.dumps(cli.keyring_to_dict(ring_head)))
    return ring_src, ring_head, str(src_path), str(head_path)


class TestPacketCommands:
    def test_encode_matches_library(self, capsys, rings):
        ring_src, _, src_path, _ = rings
        code, out, _ = run_cli(
            capsys, "packet-encode", "--keyring", src_path, "--dest", "1",
            "--level", "2", "--counter", "0", "--payload", "68656c6c6f",
        )
        assert code == 0
        wire_hex, counter_line = out.strip().split("\n")
        direct = linksec.encode(
            SecurityLevel(Encryption.RC5_R8, True), ring_src, CounterState(), 1,
            bytes.fromhex("68656c6c6f"),
        )
        assert wire_hex == direct.hex()
        assert counter_line == "counter 1"

    def test_encode_decode_dissect_roundtrip(self, capsys, rings):
        _, _, src_path, head_path = rings
        code, out, _ = run_cli(
            capsys, "packet-encode", "--keyring", src_path, "--dest", "1",
            "--level", "3", "--counter", "41", "--payload", "aabbcc",
        )
        wire_hex = out.split("\n")[0]
        code, out, _ = run_cli(
            capsys, "packet-decode", "--keyring", head_path, "--counter", "41", wire_hex
        )
        assert code == 0
        assert out.split("\n")[0] == "aabbcc"
        assert out.split("\n")[1] == "counter 42"
        code, out, _ = run_cli(capsys, "packet-dissect", wire_hex)
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert fields["group"] == "2"
        assert fields["dest"] == "1"
        assert fields["src"] == "5"
        assert fields["length"] == "3"
        assert fields["encryption"] == "RC5_R12"
        assert fields["auth"] == "True"
        assert fields["counter_lsb"] == "42"

    def test_replay_exit_code(self, capsys, rings):
        _, _, src_path, head_path = rings
        _, out, _ = run_cli(
            capsys, "packet-encode", "--keyring", src_path, "--dest", "1",
            "--level", "1", "--counter", "0", "--payload", "00",
        )
        wire_hex = out.split("\n")[0]
        code, _, err = run_cli(
            capsys, "packet-decode", "--keyring", head_path, "--counter", "1", wire_hex
        )
        assert code == cli.EXIT_REPLAY
        assert err.startswith("error: replay:")

    def test_auth_exit_code(self, capsys, rings):
        _, _, src_path, head_path = rings
        _, out, _ = run_cli(
            capsys, "packet-encode", "--keyring", src_path, "--dest", "1",
            "--level", "1", "--counter", "0", "--payload", "00ff",
        )
        wire = bytearray(bytes.fromhex(out.split("\n")[0]))
        wire[-1] ^= 0x01
        code, _, err = run_cli(
            capsys, "packet-decode", "--keyring", head_path, "--counter", "0", wire.hex()
        )
        assert code == cli.EXIT_AUTH
        assert err.startswith("error: authentication:")

    def test_exhausted_counter_exits_invalid(self, capsys, rings):
        _, _, src_path, _ = rings
        code, out, err = run_cli(
            capsys, "packet-encode", "--keyring", src_path, "--dest", "1",
            "--level", "1", "--counter", str((1 << 32) - 1), "--payload", "00",
        )
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err.startswith("error: invalid:")

    def test_format_exit_code(self, capsys, rings):
        _, _, _, head_path = rings
        code, _, err = run_cli(
            capsys, "packet-decode", "--keyring", head_path, "--counter", "0", "0001"
        )
        assert code == cli.EXIT_FORMAT
        assert err.startswith("error: format:")

    @pytest.mark.parametrize(
        "edit, field",
        [
            pytest.param(lambda d: [1, 2], "keyring", id="list"),
            pytest.param(lambda d: {**d, "node_based": 5}, "node_based", id="int-key"),
            pytest.param(lambda d: {**d, "broadcast": "zz"}, "broadcast", id="bad-hex"),
            pytest.param(lambda d: {**d, "owner": 5}, "owner", id="int-address"),
            pytest.param(lambda d: {**d, "session": 5}, "session", id="int-session"),
            pytest.param(lambda d: {**d, "pairwise": []}, "pairwise", id="list-map"),
            pytest.param(
                lambda d: {**d, "pairwise": {"2.1": None}}, "pairwise", id="null-in-map"
            ),
            pytest.param(
                lambda d: {**d, "peer_broadcast": {"x": "00" * 10}}, "peer_broadcast",
                id="bad-map-address",
            ),
        ] + [
            pytest.param(
                lambda d, f=field: {k: v for k, v in d.items() if k != f}, field,
                id=f"missing-{field}",
            )
            for field in ("owner", "head", "node_based", "broadcast")
        ],
    )
    def test_wrong_keyring_shape_names_field(self, capsys, rings, tmp_path, edit, field):
        ring_src, _, _, _ = rings
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(cli.keyring_to_dict(ring_src))))
        code, _, err = run_cli(
            capsys, "packet-encode", "--keyring", str(path), "--dest", "1",
            "--level", "2", "--payload", "00",
        )
        assert code == cli.EXIT_INVALID
        assert err.startswith("error: invalid:")
        assert "keyring" in err and field in err

    def test_unknown_keyring_key_named(self, capsys, rings, tmp_path):
        """A ring file that misspells `session` loads nothing: the misspelt
        key is named, by the reader and by the command."""
        _, ring_head, _, _ = rings
        data = cli.keyring_to_dict(ring_head)
        data["sesion"] = data.pop("session")
        with pytest.raises(ValueError, match=r"unknown keyring keys: \['sesion'\]"):
            cli.keyring_from_dict(data)
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "packet-decode", "--keyring", str(path), "--counter", "0", "00" * 9
        )
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err.startswith("error: invalid:") and "sesion" in err


class TestDeriveKeys:
    def test_prints_all_keys(self, capsys, tmp_path):
        ring_out = tmp_path / "ring.json"
        code, out, _ = run_cli(
            capsys, "derive-keys", "--master", MASTER, "--node", "4.2",
            "--head", "4.1", "--neighbors", "4.1,4.7",
            "--session-group", "4", "--ring-out", str(ring_out),
        )
        assert code == 0
        lines = dict()
        for line in out.strip().split("\n"):
            parts = line.split()
            lines.setdefault(parts[0], []).append(parts[1:])
        master = SymmetricKey.from_hex(MASTER)
        ring = derive_keyring(
            master, NodeAddress(4, 2), NodeAddress(4, 1),
            [NodeAddress(4, 1), NodeAddress(4, 7)],
        )
        assert lines["node_based"][0][0] == ring.node_based.hex()
        assert lines["broadcast"][0][0] == ring.broadcast.hex()
        assert len(lines["pairwise"]) == 2
        assert len(lines["session"]) == 1
        saved = cli.keyring_from_dict(json.loads(ring_out.read_text()))
        assert saved.node_based == ring.node_based
        assert saved.pairwise == ring.pairwise

    def test_bad_master_hex(self, capsys):
        code, _, err = run_cli(
            capsys, "derive-keys", "--master", "zz", "--node", "1.1", "--head", "1.1"
        )
        assert code == cli.EXIT_INVALID
        assert err.startswith("error: invalid:")


class TestTrustCommand:
    def test_perfect_row_prints_four_sevenths(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "neighbor,ae_t1,ae_t2,pss_t1,pss_t2,crf,craf,drf,draf,npc,npt,pd,npr\n"
            "7.9,100,100,1,1,10,10,10,10,0,10,0,10\n"
        )
        code, out, _ = run_cli(capsys, "trust", "--observations", str(path))
        assert code == 0
        assert out == "7.9 0.5714\n"

    def test_matches_library(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "neighbor,crf,craf,drf,draf,npt,npc,npr,pd\n"
            "1.2,10,4,20,10,30,3,40,8\n"
        )
        code, out, _ = run_cli(
            capsys, "trust", "--observations", str(path),
            "--weights", "0.1,0.1,0.1,0.1,0.1,0.1",
        )
        record = NeighborRecord(crf=10, craf=4, drf=20, draf=10, npt=30, npc=3, npr=40, pd=8)
        expect = compute_trust(record, TrustWeights(*([0.1] * 6)))
        assert out == f"1.2 {expect:.4f}\n"

    def test_too_many_weights_names_field(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("neighbor,crf\n1.2,10\n")
        code, out, err = run_cli(
            capsys, "trust", "--observations", str(path),
            "--weights", ",".join(["0.1"] * 7),
        )
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err.startswith("error: invalid:")
        assert "trust_weights" in err

    def test_unknown_column_rejected(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("neighbor,karma\n1.2,10\n")
        code, _, err = run_cli(capsys, "trust", "--observations", str(path))
        assert code == cli.EXIT_INVALID

    @pytest.mark.parametrize(
        "column, cell",
        [("ae_t1", "nan"), ("ae_t1", "inf"), ("pss_t2", "-1.5"), ("crf", "-3"),
         ("npt", "nan")],
    )
    def test_bad_cell_names_column(self, capsys, tmp_path, column, cell):
        path = tmp_path / "obs.csv"
        path.write_text(f"neighbor,{column}\n1.2,{cell}\n")
        code, out, err = run_cli(capsys, "trust", "--observations", str(path))
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err.startswith("error: invalid:")
        assert column in err


class TestSimCommands:
    def test_run_writes_artifacts(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"seed": 3, "node_count": 4, "group_count": 1, "sim_length": 6,'
            ' "session_length": 3, "scenario": "agricultural-farming"}'
        )
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir)
        )
        assert code == 0
        energy = (out_dir / "energy.csv").read_text()
        assert energy.splitlines()[0] == "node,tx_j,rx_j,crypto_j,total_j"
        assert len(energy.splitlines()) == 5
        assert "scenario: agricultural-farming" in (out_dir / "summary.txt").read_text()

    def test_run_matches_library(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5, "node_count": 4, "group_count": 1, "sim_length": 4}')
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
        direct = sim.run(sim.load_config(str(cfg)))
        assert (out_dir / "energy.csv").read_text() == direct.energy_csv()

    def test_run_applies_set_without_config(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "run", "--set", "node_count=3", "--set", "sim_length=2",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        direct = sim.run(sim.config_from_dict({"node_count": 3, "sim_length": 2}))
        assert (out_dir / "energy.csv").read_text() == direct.energy_csv()

    def test_run_writes_trust_table(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5, "node_count": 4, "group_count": 1, "sim_length": 4}')
        out_dir = tmp_path / "t"
        run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
        trust = (out_dir / "trust.csv").read_text().splitlines()
        assert trust[0].startswith("observer,neighbor,ae_t1")
        assert len(trust) == 1 + 4 * 3  # each of 4 observers has 3 neighbors

    def test_compare_scenario_quick_flags(self, capsys, tmp_path):
        out_dir = tmp_path / "cmp"
        code, out, _ = run_cli(
            capsys, "compare", "--scenario", "agriculture",
            "--nodes", "6", "--groups", "1", "--frames", "20", "--seed", "2",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert "total saving:" in out
        for name in ("fixed_energy.csv", "adaptive_energy.csv", "savings.csv", "summary.txt"):
            assert (out_dir / name).exists()
        savings = (out_dir / "savings.csv").read_text().splitlines()
        assert savings[0] == "node,fixed_j,adaptive_j,saving_pct"
        assert len(savings) == 7

    def test_compare_applies_set_without_config(self, capsys, tmp_path):
        out_dir = tmp_path / "cmp"
        code, _, _ = run_cli(
            capsys, "compare", "--scenario", "agriculture", "--nodes", "4",
            "--groups", "1", "--frames", "3", "--set", "sim_length=1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        direct = sim.compare_fixed_vs_adaptive(sim.config_from_dict(
            {"scenario": "agriculture", "node_count": 4, "group_count": 1, "sim_length": 1}
        ))
        assert (out_dir / "savings.csv").read_text() == direct.savings_csv()
        code, _, err = run_cli(
            capsys, "compare", "--nodes", "4", "--groups", "1", "--frames", "3",
            "--set", "nonsense=5", "--out-dir", str(out_dir),
        )
        assert code == cli.EXIT_INVALID
        assert "nonsense" in err

    def test_compare_unsimulated_adversary_exits_invalid(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "compare", "--nodes", "4", "--groups", "1", "--frames", "2",
            "--set", 'adversaries=[{"node": "5.1", "behavior": "captured"}]',
            "--out-dir", str(tmp_path),
        )
        assert code == cli.EXIT_INVALID
        assert err == "error: invalid: adversary 5.1 is not a simulated node\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_compare_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"seed": 1, "node_count": 8, "group_count": 2, "sim_length": 9,'
            ' "scenario": "military-surveillance"}'
        )
        out_dir = tmp_path / "cmp"
        code, out, _ = run_cli(
            capsys, "compare", "--config", str(cfg), "--scenario", "agriculture",
            "--nodes", "4", "--groups", "1", "--frames", "5", "--seed", "2",
            "--set", "sim_length=3", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert "scenario: agricultural-farming" in out
        direct = sim.compare_fixed_vs_adaptive(sim.config_from_dict(
            {"scenario": "agriculture", "node_count": 4, "group_count": 1,
             "sim_length": 3, "seed": 2}
        ))
        assert (out_dir / "savings.csv").read_text() == direct.savings_csv()

    def test_overrides_via_set(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "node_count": 4, "group_count": 1, "sim_length": 2}')
        out_dir = tmp_path / "o"
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
            "--set", "sim_length=5",
        )
        assert code == 0
        assert "frames: 5" in out

    def test_bad_config_exits_invalid(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"group_count": 0}')
        code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_INVALID
        assert err.startswith("error: invalid:")

    def test_non_object_config_exits_invalid_with_set(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        args = ("run", "--config", str(cfg), "--out-dir", str(tmp_path))
        code, _, plain = run_cli(capsys, *args)
        assert code == cli.EXIT_INVALID
        assert "config must be an object" in plain
        code, _, err = run_cli(capsys, *args, "--set", "seed=1")
        assert code == cli.EXIT_INVALID
        assert err == plain

    def test_non_finite_override_names_field(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"node_count": 4, "group_count": 1, "sim_length": 2}')
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path),
            "--set", "energy_model.initial_energy=NaN",
        )
        assert code == cli.EXIT_INVALID
        assert err.startswith("error: invalid:")
        assert "initial_energy" in err

    @pytest.mark.parametrize(
        "override, field",
        [
            ("seed=abc", "seed"),
            ("energy_model.tx_per_octet=abc", "tx_per_octet"),
            ("scenario=null", "scenario"),
            ("scenario=5", "scenario"),
            ("adversaries=5", "adversaries"),
            ("trust_weights=abc", "trust_weights"),
            ("node_count=true", "node_count"),  # a bool is not a count
            ("adaptive=1", "adaptive"),
            ("energy_model.joules=2", "joules"),
            ("trust_weights=[0.1,0.1,0.1,0.1,0.1,0.1,0.1]", "trust_weights"),
            ('adversaries=[{"node":5,"behavior":"captured"}]', "address"),
            ('adversaries=[{"node":"0.2","behavior":"captured","start_frame":1.5}]',
             "start_frame"),
            ('scenario={"name":"habitat","min_level":1}', "min_level"),
            ('scenario={"name":"habitat","min_level":{"encryption":1,"auth":1}}', "auth"),
            ('scenario={"name":"habitat","min_level":{"encryption":true,"auth":true}}',
             "encryption"),
            ('adversaries=[{"behavior":"captured"}]', "adversary"),
            ('scenario={"name":"habitat","min_level":{"auth":true}}', "min_level"),
            ('scenario={"name":"orchard","base_level":{"encryption":1}}', "base_level"),
        ],
    )
    def test_wrong_json_type_names_field(self, capsys, tmp_path, override, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"node_count": 4, "group_count": 1, "sim_length": 2}')
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path),
            "--set", override,
        )
        assert code == cli.EXIT_INVALID
        assert err.startswith("error: invalid:")
        assert field in err
