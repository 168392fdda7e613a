"""One unit of each benchmark workload, judged by the benchmark's own output
checks: pinned digests, the honest-network invariants and the codec's
reference receiver. A change that would make the benchmark count a wrong
output fails here first. Nothing under ``perfbench/`` is changed."""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import wsnsec

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    # `workloads.py` imports only the standard library.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


@pytest.fixture
def spans(monkeypatch):
    # `spans.py`, the traced run's tracer, imports only the standard library.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("spans")


def test_every_declared_workload_is_defined(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_unit_fails_no_call(workloads, name):
    workload = workloads.WORKLOADS[name](wsnsec, 1)
    calls, failed, packets = workload.run_unit(lambda fn, *args: fn(*args))
    assert workload.checks.failures == []
    assert failed == 0 and calls > 0 and packets > 0


def test_benchmark_selftest_passes():
    """`perfbench/selftest.py` exits 0: the intact program fails no call and
    each broken stand-in fails at least one."""
    pytest.importorskip("numpy")  # `run.py`, which the self-test imports, needs it
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_big_group_unit_sees_each_layer(workloads, spans):
    """One `big_group` unit under the benchmark's tracer: its span on
    `linksec.decode` counts every decode outcome of the run's report, its
    span on `compute_trust` one call per member and frame (each frame's
    energy samples leave every row stale, and the frame's end reads each
    row's trust once), its span on `TrustTable.record` the run's 3,062
    observations, and its span on `SecurityAgent.decide` calls. An honest
    run's counts do not depend on its seed. So the simulator reaches each
    layer through the names the tracer wraps, and `--trace 1` reports what
    the run did."""
    workload = workloads.WORKLOADS["big_group"](wsnsec, 1)
    tracer = spans.Tracer()
    reports = []

    def timed(fn, *args):
        reports.append(tracer.root(fn)(*args))
        return reports[-1]

    tracer.install(wsnsec)
    try:
        _, failed, _ = workload.run_unit(timed)
    finally:
        tracer.uninstall()
    assert failed == 0 and workload.checks.failures == []
    (report,) = reports
    outcomes = sum(
        s.decode_ok + s.auth_rejects + s.replay_rejects for s in report.nodes.values()
    )
    calls = tracer.summary().calls
    assert calls["sim.run"] == 1
    assert calls["linksec.decode"] == outcomes > 0
    assert calls["trust.compute_trust"] == len(report.nodes) * report.frames == 254 * 3
    assert calls["trust.TrustTable.record"] == 3062
    assert calls["agent.SecurityAgent.decide"] > 0
