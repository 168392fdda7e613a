"""The package's public names: a deletion must not leave an export behind.
And its imports: ``pyproject.toml`` declares no dependencies."""

import ast
import pathlib
import subprocess
import sys

import pytest

import wsnsec
from wsnsec import keys, linksec, sim, trust


def test_every_export_resolves():
    assert len(wsnsec.__all__) == len(set(wsnsec.__all__))
    missing = [name for name in wsnsec.__all__ if not hasattr(wsnsec, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from wsnsec import *", namespace)
    assert set(wsnsec.__all__) <= set(namespace)


def test_imports_only_stdlib():
    paths = sorted(pathlib.Path(wsnsec.__file__).parent.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_import_loads_no_unused_stdlib_module():
    """In a fresh interpreter, `import wsnsec` loads none of `statistics`
    (which brings `decimal`, `fractions` and `numbers` along), `heapq` or
    `logging`. The package uses none of them, and each would cost every
    start of the CLI."""
    src = str(pathlib.Path(wsnsec.__file__).parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wsnsec; "
        "print(*sorted({'statistics', 'heapq', 'logging'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []


@pytest.mark.parametrize(
    "name, home",
    [("run", sim), ("prf", keys), ("rekey_group", keys), ("run_election", trust)],
)
def test_traced_names_bound_on_sim(name, home):
    """The benchmark's tracer wraps these on `sim`, where the simulator
    looks them up; a move that unbinds one would zero its layer's counts."""
    assert getattr(sim, name) is getattr(home, name)


@pytest.mark.parametrize("name", ["encode", "decode"])
def test_traced_codec_names_bound_on_package(name):
    """The benchmark's tracer wraps the codec on `linksec` and on the
    package; a rewrite that rebinds one of the two would split its counts."""
    assert getattr(wsnsec, name) is getattr(linksec, name)
