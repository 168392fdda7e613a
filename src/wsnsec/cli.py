"""Command-line front door.

Thin wrappers over the library: simulation runs, fixed-vs-adaptive
comparisons, key derivation, packet encode/decode/dissect, and trust
computation from an observation CSV.

Exit codes: 0 success, 1 standard output closed by its reader, 2 usage, 3
invalid input or config, 4 authentication reject, 5 replay reject, 6
malformed packet. Failures 3 to 6 print one machine-readable line to
stderr: ``error: <category>: <message>``. A closed standard output
(``wsnsec ... | head -n 0``) is handled as the Python docs' note on SIGPIPE
advises: what is left to write goes to the null device, nothing is printed
on stderr, and the exit code is 1. An `OSError` is invalid input only
where it comes from reading or writing a file named on the command line.
Any other, such as standard output failing with ``ENOSPC`` on a full disk,
is not caught, like a program fault: it exits 1 too, with a traceback. A
fork the system refuses is no error: ``compare`` then runs its two arms in
turn, for the same output.
Key-ring files, written by ``derive-keys --ring-out`` and read by
``--keyring``, have the format the `config` module gives.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from typing import Callable, Optional, TextIO, Union

from . import linksec, sim
from .addressing import NodeAddress
from .agent import SCENARIO_ALIASES, SCENARIO_NAMES
from .config import keyring_to_dict, load_config, load_keyring, read_weights
from .keys import SymmetricKey, derive_keyring, derive_session_key
from .linksec import CounterState, Encryption, SecurityLevel
from .trust import CSV_COLUMNS, RECORD_FIELDS, NeighborRecord, compute_trust

EXIT_CLOSED_PIPE = 1
EXIT_INVALID = 3
EXIT_AUTH = 4
EXIT_REPLAY = 5
EXIT_FORMAT = 6


def _fail(category: str, message: str, code: int) -> int:
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


@contextlib.contextmanager
def _named_files():
    """Raise an `OSError` from within as a `ValueError`: invalid input. Only
    the reads and writes of files named on the command line run within."""
    try:
        yield
    except OSError as exc:
        raise ValueError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _write_outputs(
    out_dir: str,
    outputs: dict[str, Union[str, Callable[[TextIO], None]]],
    summary: str,
) -> None:
    """Write each named output file and `summary.txt` into `out_dir`, then
    print the summary. An output is its text, or a function that writes it
    to the open file."""
    with _named_files():
        os.makedirs(out_dir, exist_ok=True)
        for name, output in {**outputs, "summary.txt": summary}.items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                if isinstance(output, str):
                    fh.write(output)
                else:
                    output(fh)
    print(summary, end="")


def _cmd_run(args) -> int:
    with _named_files():
        config = load_config(args.config, args.set or [])
    report = sim.run(config)
    _write_outputs(
        args.out_dir,
        {"energy.csv": report.energy_csv(), "trust.csv": report.write_trust_csv},
        report.summary_text(),
    )
    return 0


def _cmd_compare(args) -> int:
    flags = {
        "scenario": args.scenario,
        "node_count": args.nodes,
        "group_count": args.groups,
        "sim_length": args.frames,
        "seed": args.seed,
    }
    shorthand = [f"{key}={json.dumps(v)}" for key, v in flags.items() if v is not None]
    with _named_files():
        config = load_config(args.config, shorthand + (args.set or []))
    savings = sim.compare_fixed_vs_adaptive(config)
    _write_outputs(
        args.out_dir,
        {
            "fixed_energy.csv": savings.fixed.energy_csv(),
            "adaptive_energy.csv": savings.adaptive.energy_csv(),
            "savings.csv": savings.savings_csv(),
        },
        savings.summary_text(),
    )
    return 0


def _cmd_derive_keys(args) -> int:
    master = SymmetricKey.from_hex(args.master)
    node = NodeAddress.parse(args.node)
    head = NodeAddress.parse(args.head)
    neighbors = [NodeAddress.parse(n) for n in args.neighbors.split(",")] if args.neighbors else []
    ring = derive_keyring(master, node, head, neighbors)
    print(f"node_based {ring.node_based.hex()}")
    print(f"broadcast {ring.broadcast.hex()}")
    for addr in sorted(ring.pairwise):
        print(f"pairwise {addr} {ring.pairwise[addr].hex()}")
    if args.session_group is not None:
        base = NodeAddress.parse(args.base_station)
        ring.session = derive_session_key(master, args.session_group, base)
        print(f"session {ring.session.hex()}")
    if args.ring_out:
        with _named_files(), open(args.ring_out, "w", encoding="utf-8") as fh:
            json.dump(keyring_to_dict(ring), fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_packet_encode(args) -> int:
    with _named_files():
        ring = load_keyring(args.keyring)
    state = CounterState(args.counter)
    level = SecurityLevel(Encryption(args.level), args.auth)
    wire = linksec.encode(level, ring, state, args.dest, bytes.fromhex(args.payload))
    print(wire.hex())
    print(f"counter {state.value}")
    return 0


def _cmd_packet_decode(args) -> int:
    with _named_files():
        ring = load_keyring(args.keyring)
    state = CounterState(args.counter)
    payload = linksec.decode(
        bytes.fromhex(args.wire), ring, state, args.loss_threshold
    )
    print(payload.hex())
    print(f"counter {state.value}")
    return 0


def _cmd_packet_dissect(args) -> int:
    info = linksec.dissect(bytes.fromhex(args.wire))
    for key, value in info.items():
        print(f"{key}: {value}")
    return 0


def _observation(name: str, text: str, parse):
    """One observation cell: a finite, non-negative number."""
    try:
        value = parse(text)
    except ValueError as exc:
        raise ValueError(f"observation column {name!r}: {exc}") from exc
    if not 0 <= value < math.inf:
        raise ValueError(
            f"observation column {name!r} must be finite and non-negative, got {text!r}"
        )
    return value


def _cmd_trust(args) -> int:
    weights = read_weights(
        [float(w) for w in args.weights.split(",")] if args.weights else None
    )
    with _named_files(), open(args.observations, "r", encoding="utf-8", newline="") as fh:
        lines = csv.reader(fh)
        header = next(lines, None)
        if header is None or "neighbor" not in header:
            raise ValueError("observation CSV needs a 'neighbor' column")
        unknown = set(header) - set(CSV_COLUMNS)
        if unknown:
            raise ValueError(f"unknown observation columns: {sorted(unknown)}")
        # Every row is checked before any is printed, so a malformed row
        # leaves nothing on stdout.
        results = []
        for cells in lines:
            if not cells:
                continue  # a blank line
            if len(cells) != len(header):
                raise ValueError(
                    f"observation line {lines.line_num} has {len(cells)} cells, not {len(header)}"
                )
            row = dict(zip(header, cells))
            record = NeighborRecord()
            for name, kind in RECORD_FIELDS.items():
                # The suspicious flag does not enter the trust formula.
                if kind is not bool and row.get(name):
                    setattr(record, name, _observation(name, row[name], kind))
            results.append(f"{row['neighbor']} {compute_trust(record, weights):.4f}\n")
    print("".join(results), end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnsec",
        description="Sensor-network security toolkit: simulator, keys, packets, trust.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one simulation from a JSON config, or the defaults")
    p.add_argument("--config")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="fixed vs adaptive energy comparison")
    p.add_argument("--config")
    p.add_argument(
        "--scenario",
        choices=sorted(set(SCENARIO_NAMES) | set(SCENARIO_ALIASES)),
    )
    p.add_argument("--nodes", type=int)
    p.add_argument("--groups", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("derive-keys", help="derive a node's key ring")
    p.add_argument("--master", required=True, help="hex master key (10 octets)")
    p.add_argument("--node", required=True, help="owner address G.N")
    p.add_argument("--head", required=True, help="group head address G.N")
    p.add_argument("--neighbors", default="", help="comma-separated G.N list")
    p.add_argument("--session-group", type=int, default=None)
    p.add_argument("--base-station", default="0.0")
    p.add_argument("--ring-out", help="write the full keyring as JSON")
    p.set_defaults(func=_cmd_derive_keys)

    p = sub.add_parser("packet-encode", help="seal a payload into wire bytes")
    p.add_argument("--keyring", required=True)
    p.add_argument("--dest", type=int, required=True)
    p.add_argument("--level", type=int, choices=[0, 1, 2, 3], required=True)
    auth = p.add_mutually_exclusive_group()
    auth.add_argument("--auth", dest="auth", action="store_true", default=True)
    auth.add_argument("--no-auth", dest="auth", action="store_false")
    p.add_argument("--counter", type=int, default=0, help="last used counter")
    p.add_argument("--payload", required=True, help="hex payload (<= 29 octets)")
    p.set_defaults(func=_cmd_packet_encode)

    p = sub.add_parser("packet-decode", help="verify and open wire bytes")
    p.add_argument("--keyring", required=True)
    p.add_argument("--counter", type=int, default=0, help="last accepted counter")
    p.add_argument("--loss-threshold", type=int, default=linksec.DEFAULT_LOSS_THRESHOLD)
    p.add_argument("wire", help="hex wire bytes")
    p.set_defaults(func=_cmd_packet_decode)

    p = sub.add_parser("packet-dissect", help="parse header fields, no keys")
    p.add_argument("wire", help="hex wire bytes")
    p.set_defaults(func=_cmd_packet_dissect)

    p = sub.add_parser("trust", help="compute trust from an observation CSV")
    p.add_argument("--observations", required=True)
    p.add_argument("--weights", help="up to six comma-separated weights")
    p.set_defaults(func=_cmd_trust)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit: send that to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except linksec.ReplayError as exc:
        return _fail("replay", str(exc), EXIT_REPLAY)
    except linksec.AuthenticationError as exc:
        return _fail("authentication", str(exc), EXIT_AUTH)
    except linksec.FormatError as exc:
        return _fail("format", str(exc), EXIT_FORMAT)
    except ValueError as exc:  # json.JSONDecodeError is one
        return _fail("invalid", str(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
