"""Run one workload of the wsnsec benchmark and print its metrics.

    python3 perfbench/run.py --workload savings --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout holding this
directory; without it the run fails. The run is a closed loop in one
process and one thread: each timed call waits for the previous one.

With ``--trace 0`` the workload repeats whole units until ``--seconds`` have
passed and reports the end-to-end metrics, with host time converted to a
reference host speed (see `Calibrator`). ``setup_s`` is the median over
several fresh interpreters of the time from spawn to the first timed call:
importing wsnsec (numpy included), making the inputs and one warm-up encode
and decode per security level.

With ``--trace 1`` the workload runs one unit untraced and then two units
with every entry point wrapped, and reports the per-layer metrics of the
traced units. The counts must agree exactly between the two traced units.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import hmac
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: numpy's BLAS pool is started at import; keep it to one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

from workloads import WORKLOADS, warm_up  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 11

# Other tenants of a shared host change its speed by up to 1.7x within
# seconds, so every reported time is converted to reference speed using a
# calibration timed while the workload runs. REFERENCE_S is the
# calibration's time on an idle 2.1 GHz Xeon vCPU.
REFERENCE_S = 0.004
CALIBRATE_EVERY_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "packets_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def load_program():
    if not (SRC / "wsnsec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wsnsec package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wsnsec

    return wsnsec


def prepare(name: str, seed: int):
    """Everything before the first timed call: import, inputs, warm-up."""
    api = load_program()
    workload = WORKLOADS[name](api, seed)
    warm_up(api)
    return api, workload


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters, from spawn to ready, at reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    before = calibration_s()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            host_s = time.perf_counter() - t0
            child.stdout.read()
            if child.wait() != 0 or line.strip() != "ready":
                raise SystemExit("perfbench: set-up run failed")
        after = calibration_s()
        samples.append(host_s * statistics.fmean((REFERENCE_S / before, REFERENCE_S / after)))
        before = after
    return samples


def reference_work() -> None:
    """A fixed mix of interpreter work, small numpy operations and HMAC,
    like the program's own; its time tracks the host's current speed."""
    words = np.arange(8, dtype=np.int64)
    table = {}
    acc = 0
    for i in range(600):
        block = (words * i + 0x9E3779B9) & 0xFFFFFFFF
        table[i & 63] = hmac.new(b"calibrate!", block.tobytes(), hashlib.sha256).digest()
        for j in range(20):
            acc = (acc + j * i) & 0xFFFF


def calibration_s() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Calibrator:
    """Samples the host's speed while the workload runs.

    Every CALIBRATE_EVERY_S a SIGALRM handler times the reference work. The
    handler runs in the measuring thread between bytecodes, so the program
    is paused, not raced; the time spent calibrating is taken off the call
    it interrupted. A sample's speed is REFERENCE_S over its time.
    """

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.speeds.append(REFERENCE_S / (t1 - t0))
        self.spent += t1 - t0
        self._busy = False

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed from the last sample before t0 to the first after t1."""
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.times, t1), len(self.times) - 1)
        return statistics.fmean(self.speeds[lo : hi + 1])


class Timer:
    """Times each call; under a tracer, each call is also a root span.

    With a calibrator, `scaled` gives a call's time at reference speed:
    its host time, less any calibration inside it, times the host's mean
    speed around it.
    """

    def __init__(self, tracer=None, calibrator: Calibrator | None = None):
        self.durations: list[float] = []
        self.tracer = tracer
        self.calibrator = calibrator
        self._spans: list[tuple[float, float]] = []
        self._roots: dict = {}

    def __call__(self, fn, *args):
        if self.tracer is not None:
            fn = self._roots.setdefault(fn, self.tracer.root(fn))
            self.tracer.op_id = len(self.durations)
        spent = self.calibrator.spent if self.calibrator else 0.0
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        if self.calibrator:
            spent = self.calibrator.spent - spent
        self.durations.append(t1 - t0 - spent)
        self._spans.append((t0, t1))
        return result

    def scaled(self, i: int) -> float:
        return self.durations[i] * self.calibrator.speed(*self._spans[i])


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(workload, seconds: float, setup: list[float]) -> tuple[dict, int, int]:
    """Repeat whole units until `seconds` have passed.

    Throughput and latency percentiles are computed per unit from call
    times at reference speed and reported as the median over units. Call
    times are dropped after each unit, so memory does not grow with the
    number of calls.
    """
    calls = failed = 0
    rates, p50, p99 = [], [], []
    host_s = ref_s = 0.0
    with Calibrator() as calibrator:
        start = time.perf_counter()
        while True:
            timer = Timer(calibrator=calibrator)
            c, f, packets = workload.run_unit(timer)
            calibrator.sample()  # brackets the unit's last call
            times = sorted(timer.scaled(i) for i in range(len(timer.durations)))
            rates.append(packets / sum(times))
            p50.append(nearest_rank(times, 0.50))
            p99.append(nearest_rank(times, 0.99))
            calls, failed = calls + c, failed + f
            host_s, ref_s = host_s + sum(timer.durations), ref_s + sum(times)
            if time.perf_counter() - start >= seconds:
                break
    metrics = {
        "setup_s": statistics.median(setup),
        "packets_per_s": statistics.median(rates),
        "op_ms_p50": statistics.median(p50) * 1e3,
        "op_ms_p99": statistics.median(p99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{len(rates)} units, {calls} timed calls: {host_s:.3f} s host time, "
          f"{ref_s:.3f} s at reference speed ({len(calibrator.times)} calibrations); "
          f"{len(setup)} set-up samples")
    return metrics, calls, failed


def traced(api, workload) -> tuple[dict, int, int]:
    from spans import EXACT, Tracer, per_layer_metrics, share_table

    timer = Timer()
    calls, failed, _ = workload.run_unit(timer)
    untraced_s = sum(timer.durations)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(api)
        try:
            c, f, _ = workload.run_unit(Timer(tracer))
        finally:
            tracer.uninstall()
        calls, failed = calls + c, failed + f
        summary = tracer.summary()
        del tracer
        passes.append((summary, per_layer_metrics(summary)))
    (summary, first), (_, second) = passes
    metrics = {n: first[n] if n in EXACT else (first[n] + second[n]) / 2 for n in first}
    metrics["trace_overhead_ratio"] = metrics["trace.wall_s"] / untraced_s
    print(share_table(summary))
    accounted = sum(summary.self_s.values())
    print(f"self times sum to {accounted:.6f} s of {summary.wall_s:.6f} s traced wall; "
          f"untraced {untraced_s:.6f} s")
    unequal = [n for n in EXACT if first[n] != second[n]]
    if unequal:
        print("exact counts differ between traced units: " + ", ".join(unequal))
        failed += 1
    return metrics, calls, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else setup_samples(args.workload, args.seed)
    api, workload = prepare(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {type(workload).__doc__.splitlines()[0]}")
    if args.trace:
        from spans import PER_LAYER_UNITS as units

        metrics, attempted, failed = traced(api, workload)
    else:
        units = END_TO_END_UNITS
        metrics, attempted, failed = measure(workload, args.seconds, setup)
    print(f"checked: {workload.checks.scope}")
    for failure in workload.checks.failures:
        print(f"FAILED: {failure}")
    for name, unit in units.items():
        print(f"  {name:<36}{metrics[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
