import errno
import json
import os
import pathlib
import subprocess
import sys

import pytest

from wsnsec import cli, config, linksec, sim
from wsnsec.addressing import NodeAddress
from wsnsec.keys import (
    SymmetricKey,
    derive_group_keyrings,
    derive_keyring,
    derive_session_key,
)
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
    src_path.write_text(json.dumps(config.keyring_to_dict(ring_src)))
    head_path.write_text(json.dumps(config.keyring_to_dict(ring_head)))
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
            pytest.param(
                lambda d: {**d, "peer_node_based": {"2.1": 7}}, "peer_node_based",
                id="int-in-map",
            ),
            pytest.param(lambda d: {**d, "session": ["00"]}, "session", id="list-session"),
            pytest.param(
                lambda d: {**d, "node_based": "00" * 9}, "node_based", id="short-key"
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
        path.write_text(json.dumps(edit(config.keyring_to_dict(ring_src))))
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
        data = config.keyring_to_dict(ring_head)
        data["sesion"] = data.pop("session")
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"unknown keyring keys: \['sesion'\]"):
            config.load_keyring(str(path))
        code, out, err = run_cli(
            capsys, "packet-decode", "--keyring", str(path), "--counter", "0", "00" * 9
        )
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err.startswith("error: invalid:") and "sesion" in err


    def test_null_key_named_in_json_terms(self, rings, tmp_path):
        ring_src, _, _, _ = rings
        path = tmp_path / "null.json"
        path.write_text(
            json.dumps({**config.keyring_to_dict(ring_src), "pairwise": {"2.1": None}})
        )
        with pytest.raises(ValueError) as caught:
            config.load_keyring(str(path))
        assert str(caught.value) == "keyring key pairwise: a key must be a hex string, not null"


def test_closed_stdout_exits_1_quietly():
    """A reader that closed the pipe before the script writes (`wsnsec ...
    | head -n 0`) ends the script with exit 1 and nothing on stderr: no
    "invalid input" line, and no error from the flush at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(cli.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "wsnsec.cli", "derive-keys", "--master", MASTER,
             "--node", "2.5", "--head", "2.1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (cli.EXIT_CLOSED_PIPE, b"")


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("nonsense",),
        ("run", "--nonsense"),
        ("compare", "--scenario", "moon"),
        ("derive-keys", "--node", "2.5", "--head", "2.1"),
        ("packet-encode", "--keyring", "r.json", "--dest", "1", "--level", "4",
         "--payload", "00"),
        ("packet-decode", "--keyring", "r.json"),
        ("packet-dissect",),
        ("trust",),
    ],
    ids=["none", "unknown-command", "run", "compare", "derive-keys", "packet-encode",
         "packet-decode", "packet-dissect", "trust"],
)
def test_usage_errors_exit_2(capsys, argv):
    """Each subcommand, given arguments its parser refuses, exits 2 with
    argparse's usage message, before any file is read."""
    with pytest.raises(SystemExit) as caught:
        cli.main(list(argv))
    assert caught.value.code == 2
    assert "usage: wsnsec" in capsys.readouterr().err


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
        ring.session = derive_session_key(master, 4, NodeAddress(0, 0))
        # The whole ring reads back, peer maps and the owner's own entries in
        # them included.
        saved = config.load_keyring(str(ring_out))
        assert saved == ring
        assert saved.peer_broadcast[NodeAddress(4, 2)] == ring.broadcast

    def test_group_ring_reads_back_equal(self, tmp_path):
        """A `derive_group_keyrings` ring, whose peer maps are shared and
        read-only, reads back as a ring of plain dicts that compares equal."""
        members = [NodeAddress(3, n) for n in (1, 4, 9)]
        ring = derive_group_keyrings(SymmetricKey.from_hex(MASTER), members[0], members)[1]
        ring.pairwise[members[0]] = SymmetricKey(bytes(range(10)))
        ring.session = SymmetricKey(bytes(10))
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(config.keyring_to_dict(ring)))
        saved = config.load_keyring(str(path))
        assert saved == ring
        assert type(saved.peer_broadcast) is dict and type(saved.peer_node_based) is dict

    def test_session_key_written_to_ring(self, capsys, tmp_path):
        """`--session-group` puts the session key it prints in the `--ring-out`
        file, so a member's saved ring opens its head's session broadcast."""
        paths = {}
        for name, node, neighbor in (("member", "2.5", "2.1"), ("head", "2.1", "2.5")):
            paths[name] = str(tmp_path / f"{name}.json")
            code, out, _ = run_cli(
                capsys, "derive-keys", "--master", MASTER, "--node", node, "--head", "2.1",
                "--neighbors", neighbor, "--session-group", "2", "--ring-out", paths[name],
            )
            assert code == 0
            printed = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
            assert json.loads((tmp_path / f"{name}.json").read_text())["session"] == (
                printed["session"]
            )
        assert config.load_keyring(paths["member"]).session == derive_session_key(
            SymmetricKey.from_hex(MASTER), 2, NodeAddress(0, 0)
        )
        code, out, _ = run_cli(
            capsys, "packet-encode", "--keyring", paths["head"], "--dest", "255",
            "--level", "2", "--payload", "68656c6c6f",
        )
        assert code == 0
        code, out, err = run_cli(
            capsys, "packet-decode", "--keyring", paths["member"], out.split()[0]
        )
        assert (code, err) == (0, "")
        assert out.split()[0] == "68656c6c6f"

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
        "row, cells", [("0.3,5", 2), ("0.4,5,4,10,1,99,77", 7)], ids=["short", "long"]
    )
    def test_row_cell_count_must_match_header(self, capsys, tmp_path, row, cells):
        """A row with cells missing or left over is refused, naming its line,
        not read with defaults or cut short."""
        path = tmp_path / "obs.csv"
        path.write_text(f"neighbor,ae_t1,ae_t2,npt,npc\n{row}\n")
        code, out, err = run_cli(capsys, "trust", "--observations", str(path))
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err.startswith("error: invalid:")
        assert f"line 2 has {cells} cells" in err

    def test_malformed_later_row_prints_nothing(self, capsys, tmp_path):
        """Every row is checked before any trust is printed."""
        path = tmp_path / "obs.csv"
        path.write_text("neighbor,npt,npc\n1.1,10,1\n1.2,10\n")
        code, out, err = run_cli(capsys, "trust", "--observations", str(path))
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err == "error: invalid: observation line 3 has 2 cells, not 3\n"

    @pytest.mark.parametrize("text", ["", "npt,npc\n10,1\n"], ids=["empty", "no_neighbor"])
    def test_neighbor_column_required(self, capsys, tmp_path, text):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "trust", "--observations", str(path))
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err == "error: invalid: observation CSV needs a 'neighbor' column\n"

    def test_blank_line_skipped(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("neighbor,npt,npc\n1.1,10,1\n\n1.2,10,2\n")
        code, out, _ = run_cli(capsys, "trust", "--observations", str(path))
        assert code == 0
        assert out == "".join(
            f"{n} {compute_trust(NeighborRecord(npt=10, npc=c), TrustWeights()):.4f}\n"
            for n, c in (("1.1", 1), ("1.2", 2))
        )

    def test_empty_cell_is_not_given(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("neighbor,ae_t1,ae_t2,npt,npc\n0.3,5,,,\n")
        code, out, _ = run_cli(capsys, "trust", "--observations", str(path))
        assert code == 0
        assert out == f"0.3 {compute_trust(NeighborRecord(ae_t1=5), TrustWeights()):.4f}\n"

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
        direct = sim.run(config.load_config(str(cfg)))
        assert (out_dir / "energy.csv").read_text() == direct.energy_csv()

    def test_run_applies_set_without_config(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "run", "--set", "node_count=3", "--set", "sim_length=2",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        direct = sim.run(config.config_from_dict({"node_count": 3, "sim_length": 2}))
        assert (out_dir / "energy.csv").read_text() == direct.energy_csv()

    def test_run_writes_trust_table(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5, "node_count": 4, "group_count": 1, "sim_length": 4}')
        out_dir = tmp_path / "t"
        run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
        trust = (out_dir / "trust.csv").read_text().splitlines()
        assert trust[0].startswith("observer,neighbor,ae_t1")
        assert len(trust) == 1 + 4 * 3  # each of 4 observers has 3 neighbors

    def test_outputs_match_library_on_a_golden(self, capsys, tmp_path):
        """Two groups, deaths and elections: `run` writes the library's
        `trust.csv` and `energy.csv`, and `compare` the library's energy
        files of both arms, byte for byte."""
        golden = json.loads(
            (pathlib.Path(__file__).parent / "vectors" / "sim_golden" / "configs.json").read_text()
        )["habitat_death_loss"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(golden))
        direct = sim.run(config.load_config(str(cfg)))
        assert len({a.group_id for a in direct.nodes}) == 2
        assert any(not s.alive for s in direct.nodes.values()) and direct.elections
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "trust.csv").read_bytes() == direct.trust_csv().encode()
        assert (out_dir / "energy.csv").read_bytes() == direct.energy_csv().encode()
        savings = sim.compare_fixed_vs_adaptive(config.load_config(str(cfg)))
        out_dir = tmp_path / "cmp"
        code, _, _ = run_cli(capsys, "compare", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        for name, report in (("fixed_energy.csv", savings.fixed),
                             ("adaptive_energy.csv", savings.adaptive)):
            assert (out_dir / name).read_bytes() == report.energy_csv().encode()
        assert (out_dir / "savings.csv").read_bytes() == savings.savings_csv().encode()

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
        direct = sim.compare_fixed_vs_adaptive(config.config_from_dict(
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
        direct = sim.compare_fixed_vs_adaptive(config.config_from_dict(
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

    @pytest.mark.parametrize(
        "override, message",
        [
            ("seed=null", "config key seed must be an integer, not null"),
            ("seed=true", "config key seed must be an integer, not boolean"),
            ("seed=1.5", "config key seed must be an integer, not number"),
            ("adaptive=1", "config key adaptive must be a boolean, not number"),
            ('loss_rate="x"', "config key loss_rate must be a number, not string"),
            ("energy_model=[1]", "energy_model must be an object, not array"),
            ("adversaries={}", "adversaries must be an array, not object"),
            ("scenario=5", "scenario must be a name or an object, not number"),
            ('adversaries=["x"]', "adversary must be an object, not string"),
            ('scenario={"name":"habitat","min_level":{"encryption":true,"auth":true}}',
             "min_level key encryption must be an integer, not boolean"),
        ],
    )
    def test_wrong_json_type_named_in_json_terms(self, capsys, tmp_path, override, message):
        """Type messages name JSON types; a bool, though a Python int, reads
        "boolean"."""
        code, _, err = run_cli(
            capsys, "run", "--out-dir", str(tmp_path), "--set", "node_count=4",
            "--set", "group_count=1", "--set", "sim_length=2", "--set", override,
        )
        assert code == cli.EXIT_INVALID
        assert err == f"error: invalid: {message}\n"


class TestOSErrors:
    """An OSError is invalid input where a file named on the command line
    is read or written, and nowhere else."""

    SMALL = ("--nodes", "4", "--groups", "1", "--frames", "2")

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--config", "{missing}/cfg.json", "--out-dir", "{tmp}"),
            ("compare", "--config", "{missing}/cfg.json", "--out-dir", "{tmp}"),
            ("packet-encode", "--keyring", "{missing}/r.json", "--dest", "1",
             "--level", "0", "--payload", "00"),
            ("packet-decode", "--keyring", "{missing}/r.json", "00"),
            ("trust", "--observations", "{missing}/obs.csv"),
            ("derive-keys", "--master", MASTER, "--node", "2.5", "--head", "2.1",
             "--ring-out", "{missing}/r.json"),
            ("run", "--set", "node_count=4", "--set", "group_count=1",
             "--set", "sim_length=2", "--out-dir", "{file}"),
            ("compare", *SMALL, "--out-dir", "{file}"),
        ],
        ids=["run-config", "compare-config", "encode-keyring", "decode-keyring",
             "trust-observations", "derive-keys-ring-out", "run-out-dir",
             "compare-out-dir"],
    )
    def test_named_file_errors_exit_invalid(self, capsys, tmp_path, argv):
        """A file that cannot be read, or an output that cannot be written
        (a missing directory, an out-dir that is a file), exits 3."""
        (tmp_path / "file").write_text("")
        names = {"missing": tmp_path / "missing", "tmp": tmp_path, "file": tmp_path / "file"}
        code, _, err = run_cli(capsys, *(a.format(**names) for a in argv))
        assert code == cli.EXIT_INVALID
        assert err.startswith("error: invalid: [Errno ")

    def test_refused_fork_is_not_invalid_input(self, capsys, monkeypatch, tmp_path):
        """A fork the system refuses is no fault of the input, and no fault
        at all: `compare` runs its arms in turn, exits 0 and writes the
        `savings.csv` that it writes when it may not fork, leaving no child.
        No process is started: the fork is a stand-in that raises."""
        def refuse():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refuse)
        written = {}
        for may_fork in (True, False):
            monkeypatch.setattr(sim, "_may_fork", lambda: may_fork)
            out_dir = tmp_path / str(may_fork)
            code, _, err = run_cli(capsys, "compare", *self.SMALL, "--out-dir", str(out_dir))
            assert (code, err) == (0, "")
            written[may_fork] = (out_dir / "savings.csv").read_text()
        assert written[True] == written[False]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_other_os_error_is_not_invalid_input(self, capsys, monkeypatch, tmp_path):
        """An OSError from anywhere but a named file is not invalid input:
        `main` lets it through (exit 1 with a traceback), prints no
        "invalid" line and writes no output. The stand-in is a run that
        raises."""
        def failing_run(config):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(sim, "_may_fork", lambda: False)
        monkeypatch.setattr(sim, "run", failing_run)
        with pytest.raises(OSError) as caught:
            cli.main(["compare", *self.SMALL, "--out-dir", str(tmp_path)])
        assert caught.value.errno == errno.EIO
        assert capsys.readouterr().err == ""
        assert not (tmp_path / "savings.csv").exists()
