"""One unit of each benchmark workload, judged by the benchmark's own output
checks: pinned digests, the honest-network invariants and the codec's
reference receiver. A change that would make the benchmark count a wrong
output fails here first. Nothing under ``perfbench/`` is changed."""

import importlib
import json
import pathlib

import pytest

import wsnsec

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    # `workloads.py` imports only the standard library.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def test_every_declared_workload_is_defined(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_unit_fails_no_call(workloads, name):
    workload = workloads.WORKLOADS[name](wsnsec, 1)
    calls, failed, packets = workload.run_unit(lambda fn, *args: fn(*args))
    assert workload.checks.failures == []
    assert failed == 0 and calls > 0 and packets > 0
