"""Show that the benchmark counts a wrong output as a failed call.

    python3 perfbench/selftest.py

Runs one unit of a workload against the program as it is, and against a
stand-in that breaks one output in this process only (nothing on disk
changes). The intact program must fail no call; each broken one must fail
at least one:

* codec, with a decode that accepts a forged tag;
* big_group at seeds 1 and 14, with a simulator that books one more
  microjoule of transmit energy on one node, which changes the pinned
  energy.csv digest;
* big_group at seed 21, outside the seeds pin.py ran, with a simulator that
  books one authentication reject on one node, which no CSV shows but the
  invariant of an honest network catches.
"""

from __future__ import annotations

import sys

import run
import workloads


class Patched:
    """The program with some public names replaced."""

    def __init__(self, api, **replaced):
        self._api = api
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._api, name)


def broken_programs(api):
    def accept_forgeries(wire, ring, state, loss_threshold):
        try:
            return api.decode(wire, ring, state, loss_threshold=loss_threshold)
        except Exception as exc:
            if type(exc).__name__ != "AuthenticationError":
                raise
            return b""

    def first_node(report):
        return min(report.nodes.values(), key=lambda s: s.address)

    def extra_energy(config):
        report = api.run(config)
        first_node(report).ledger.tx += 1e-6
        return report

    def auth_reject(config):
        report = api.run(config)
        first_node(report).auth_rejects += 1
        return report

    yield "codec", 1, "intact program", api, False
    yield "codec", 1, "decode accepts a forged tag", Patched(api, decode=accept_forgeries), True
    yield "big_group", 1, "intact program", api, False
    yield "big_group", 1, "one node books 1 uJ more", Patched(api, run=extra_energy), True
    yield "big_group", 14, "one node books 1 uJ more", Patched(api, run=extra_energy), True
    yield "big_group", 21, "intact program", api, False
    yield "big_group", 21, "one node books an auth reject", Patched(api, run=auth_reject), True


def main() -> int:
    api = run.load_program()
    ok = True
    for name, seed, label, program, broken in broken_programs(api):
        workload = workloads.WORKLOADS[name](program, seed)
        calls, failed, _ = workload.run_unit(lambda fn, *args: fn(*args))
        passed = (failed > 0) == broken
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name} seed {seed}, {label}: "
              f"{failed} of {calls} calls failed")
        for failure in workload.checks.failures[:2]:
            print(f"     {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
