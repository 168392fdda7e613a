"""Run the benchmark over several seeds and print every metric's spread.

    python3 perfbench/report.py                   # seeds 1..10
    python3 perfbench/report.py --first-seed 11   # a second set, seeds 11..20

For each workload in BENCHMARK.json: RUNS untraced runs, one seed each,
then one traced run at the first seed. Prints each end-to-end metric with
its unit, median, quartiles and sample count, and its spread (quartile
distance over the median) against the bound in BENCHMARK.json, flagged
when above a third of the bound; then the traced run's per-layer
self-time shares and metrics. Exits 1 if any run fails or reports a wrong
output. Comparing the medians of the two sets checks that the benchmark
agrees with itself within its bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + RUNS)

    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = []
        for seed in seeds:
            result, _ = run_once(workload, seed, 0)
            results.append(result)
            ok &= result["correct"] and result["failed"] == 0
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n== {workload}: {len(results)} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"{failed} of {attempted} calls failed")
        print(f"{'metric':<16}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}"
              f"{'spread':>9}{'bound':>7}")
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= spec["bound"] / 3 else "  > bound/3"
            print(f"{name:<16}{spec['unit']:>6}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>4}"
                  f"{spread:>9.2%}{spec['bound']:>7.2f}{flag}")
        result, text = run_once(workload, args.first_seed, 1)
        ok &= result["correct"]
        print(f"-- traced run, seed {args.first_seed}:")
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
