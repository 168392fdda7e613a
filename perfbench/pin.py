"""Re-pin the output digests that the simulator workloads check.

    python3 perfbench/pin.py

Runs one unit of each simulator workload at every seed in PIN_SEEDS,
confirms that every seed gives the same digest of every CSV, and writes
those digests to ``expected.json``. Only re-pin when the simulator's outputs
are meant to change (a flagged model change); the benchmark counts any other
digest change as a failed output.
"""

import json
import sys

import run
import workloads


class Recorder(workloads.Checks):
    """Records each digest instead of checking it."""

    def __init__(self):
        self.pinned: dict[str, str] = {}
        self.failures: list[str] = []

    def digest(self, label: str, text: str) -> bool:
        self.pinned[label] = workloads.csv_digest(text)
        return True


def main() -> int:
    api = run.load_program()
    digests = {}
    for seed in workloads.PIN_SEEDS:
        for cls in (workloads.Savings, workloads.BigGroup):
            workload = cls(api, seed)
            workload.checks = Recorder()
            workload.run_unit(lambda fn, *args: fn(*args))
            if workload.checks.failures:
                raise SystemExit(f"seed {seed}, {cls.name}: {workload.checks.failures}")
            first = digests.setdefault(cls.name, workload.checks.pinned)
            differ = [label for label in first if workload.checks.pinned[label] != first[label]]
            if differ:
                raise SystemExit(f"seed {seed}, {cls.name}: digests depend on the seed: {differ}")
        print(f"seed {seed}: same digests", flush=True)
    path = workloads.EXPECTED_PATH
    path.write_text(json.dumps({"digests": digests}, indent=1) + "\n")
    print(f"pinned {sum(map(len, digests.values()))} digests in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
