"""Outside-in span tracing of the wsnsec layers.

Each entry point is wrapped at every attribute its callers look up, so a
call made inside the package passes through the wrapper too. Functions that
one module imports from another by value are wrapped on the importer as
well (``sim.derive_keyring``, ``sim.run_election``, ``sim.rekey_group``,
``sim.prf``). ``keys.derive_keyring`` binds ``prf`` as a default argument,
so key derivation is timed at ``derive_keyring`` itself, not at ``prf``.

An entry point that no longer exists under any of its names is reported as
absent instead of failing the run, so the benchmark keeps working while the
program is refactored underneath it.

Every wrapped call appends one span (name, start, end, parent span, op id,
an integer argument and an outcome) to flat arrays kept in memory. A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter


def _rounds(args, kwargs):
    return kwargs["rounds"] if "rounds" in kwargs else args[1]


def _blocks(args, kwargs):
    data = kwargs["data"] if "data" in kwargs else args[2]
    return len(data) // 8


def _argument(arg_of, args, kwargs) -> int:
    """The span's recorded argument; -1 when the signature no longer fits."""
    if arg_of is None:
        return 0
    try:
        return int(arg_of(args, kwargs))
    except (IndexError, KeyError, TypeError, ValueError):
        return -1


# (span name, attribute paths relative to the wsnsec package, recorded argument)
ENTRY_POINTS = (
    ("rc5.encrypt_blocks", ("rc5.encrypt_blocks",), _blocks),
    ("rc5.decrypt_blocks", ("rc5.decrypt_blocks",), _blocks),
    ("aead.seal", ("aead.seal",), _rounds),
    ("aead.open_", ("aead.open_",), _rounds),
    ("linksec.encode", ("linksec.encode", "encode"), None),
    ("linksec.decode", ("linksec.decode", "decode"), None),
    ("keys.derive_keyring", ("keys.derive_keyring", "sim.derive_keyring", "derive_keyring"), None),
    ("keys.prf", ("keys.prf", "sim.prf", "prf"), None),
    ("keys.rekey_group", ("keys.rekey_group", "sim.rekey_group", "rekey_group"), None),
    ("trust.TrustTable.record", ("trust.TrustTable.record",), None),
    ("trust.compute_trust", ("trust.compute_trust", "compute_trust"), None),
    ("trust.run_election", ("trust.run_election", "sim.run_election", "run_election"), None),
    ("agent.SecurityAgent.decide", ("agent.SecurityAgent.decide",), None),
    ("agent.decide", ("agent.decide", "decide"), None),
    ("agent.SecurityAgent.report", ("agent.SecurityAgent.report",), None),
    ("sim.run", ("sim.run", "run"), None),
)

ROOT = "bench.op"
LAYERS = ("rc5", "aead", "linksec", "keys", "trust", "agent", "sim", "bench")

# Outcome codes stored per span; exception classes get codes from 2 upwards.
_RETURNED = 0
_RETURNED_NONE = 1


class Tracer:
    """Span recorder. `install` wraps the entry points, `summary` folds the spans."""

    def __init__(self):
        self.names: list[str] = []
        self.outcomes: list[str] = ["returned", "returned None"]
        self.absent: list[str] = []
        self.op_id = -1  # the benchmark operation (run or packet) in progress
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.arg = array("i")
        self.outcome = array("H")
        self.start = array("d")
        self.end = array("d")

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _outcome_id(self, exc: BaseException) -> int:
        label = type(exc).__name__
        if label not in self.outcomes:
            self.outcomes.append(label)
        return self.outcomes.index(label)

    def wrap(self, name: str, fn, arg_of=None):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.arg.append(_argument(arg_of, args, kwargs))
            self.outcome.append(_RETURNED)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = perf_counter()
                self.outcome[idx] = self._outcome_id(exc)
                raise
            else:
                self.end[idx] = perf_counter()
                if result is None:
                    self.outcome[idx] = _RETURNED_NONE
                return result
            finally:
                self.start[idx] = t0
                self._stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap every entry point found under `package`; note the absent ones."""
        for name, paths, arg_of in ENTRY_POINTS:
            self._name_id(name)
            wrappers = {}
            found = False
            for path in paths:
                *owner_path, attr = path.split(".")
                owner = package
                for part in owner_path:
                    owner = getattr(owner, part, None)
                try:
                    raw = inspect.getattr_static(owner, attr)
                except AttributeError:
                    continue
                kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                fn = raw.__func__ if kind else raw
                if not callable(fn):
                    continue
                found = True
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn, arg_of)
                wrapper = wrappers[id(fn)]
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, kind(wrapper) if kind else wrapper)
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def root(self, fn):
        """Wrap one benchmark operation as the root span of its call tree."""
        return self.wrap(ROOT, fn)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name calls, self times, arguments and outcomes of recorded spans.

    A span's self time is its duration minus its children's durations, so
    each span adds its duration to its own name and takes it off its
    parent's name. The root spans' durations add up to the traced wall time.
    """

    def __init__(self, tracer: Tracer):
        names, outcomes = tracer.names, tracer.outcomes
        k = len(names)
        calls, self_s, arg_sum = [0] * k, [0.0] * k, [0] * k
        arg_calls: dict[tuple[int, int], int] = {}
        outcome_calls: dict[tuple[int, int], int] = {}
        child_calls: dict[tuple[int, int], int] = {}
        in_run = [0] * k
        run_id = names.index("sim.run") if "sim.run" in names else -1
        inside = array("b", bytes(len(tracer.start)))
        wall = 0.0
        parent, name, arg, outcome = tracer.parent, tracer.name, tracer.arg, tracer.outcome
        start, end = tracer.start, tracer.end
        for i in range(len(start)):
            nid, p, a = name[i], parent[i], arg[i]
            d = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += d
            arg_sum[nid] += a
            arg_calls[nid, a] = arg_calls.get((nid, a), 0) + 1
            key = (nid, outcome[i])
            outcome_calls[key] = outcome_calls.get(key, 0) + 1
            if p < 0:
                wall += d
                continue
            pn = name[p]
            self_s[pn] -= d
            key = (pn, nid)
            child_calls[key] = child_calls.get(key, 0) + 1
            if inside[p] or pn == run_id:
                inside[i] = 1
                in_run[nid] += 1
        self.names = names
        self.absent = list(tracer.absent)
        self.wall_s = wall
        self.calls = dict(zip(names, calls))
        self.self_s = dict(zip(names, self_s))
        self.arg_sum = dict(zip(names, arg_sum))
        self.in_run = dict(zip(names, in_run))
        self.arg_calls = {(names[n], a): c for (n, a), c in arg_calls.items()}
        self.outcome_calls = {(names[n], outcomes[o]): c for (n, o), c in outcome_calls.items()}
        self.child_calls = {(names[p], names[n]): c for (p, n), c in child_calls.items()}

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.split(".")[0] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric names with their units, in report order. Every metric
# that is not a time or a share of time is a count of work the program did,
# and repeats exactly for one seed.
PER_LAYER_UNITS: dict[str, str] = {}


def _define(names, unit):
    for name in names:
        PER_LAYER_UNITS[name] = unit


_define(("rc5.encrypt_blocks.calls", "rc5.decrypt_blocks.calls"), "count")
_define(("rc5.encrypt_blocks.self_s", "rc5.decrypt_blocks.self_s"), "s")
_define(("rc5.blocks_per_call",), "blocks/call")
_define([f"aead.{fn}.calls.r{r}" for fn in ("seal", "open_") for r in (0, 4, 8, 12)], "count")
_define(("aead.seal.self_s", "aead.open_.self_s"), "s")
_define(("aead.open_.miss_ratio",), "ratio")
_define(("linksec.encode.calls", "linksec.decode.calls"), "count")
_define(("linksec.encode.self_s", "linksec.decode.self_s"), "s")
_define(("linksec.decode.opens_per_call",), "opens/call")
_define([f"linksec.decode.rejects.{c}" for c in ("auth", "replay", "format")], "count")
_define(("keys.derive_keyring.calls", "keys.prf.calls", "keys.rekey_group.calls"), "count")
_define(("keys.derive_keyring.self_s",), "s")
_define(("trust.TrustTable.record.calls", "trust.compute_trust.calls", "trust.run_election.calls"), "count")
_define(("trust.TrustTable.record.self_s", "trust.compute_trust.self_s", "trust.run_election.self_s"), "s")
_define(("trust.records_per_tx",), "records/tx")
_define(("agent.SecurityAgent.decide.calls", "agent.decide.calls", "agent.SecurityAgent.report.calls"), "count")
_define(("agent.SecurityAgent.decide.self_s", "agent.decide.self_s", "agent.SecurityAgent.report.self_s"), "s")
_define(("sim.run.calls", "sim.tx"), "count")
_define(("sim.run.self_s", "bench.self_s"), "s")
_define([f"{layer}.share" for layer in LAYERS], "ratio")
_define(("trace.wall_s",), "s")
_define(("trace_overhead_ratio",), "ratio")
_define(("trace.absent",), "count")

TIMED_UNITS = ("s", "ratio")
EXACT = tuple(
    name for name, unit in PER_LAYER_UNITS.items()
    if unit not in TIMED_UNITS or name.endswith("miss_ratio")
)

_REJECTS = {"auth": "AuthenticationError", "replay": "ReplayError", "format": "FormatError"}


def per_layer_metrics(s: SpanSummary) -> dict[str, float]:
    """Fold one traced pass into the per-layer metrics (without the overhead ratio)."""
    m: dict[str, float] = {}
    for name in s.names:
        if name == ROOT:
            continue
        if f"{name}.calls" in PER_LAYER_UNITS:
            m[f"{name}.calls"] = s.calls[name]
        if f"{name}.self_s" in PER_LAYER_UNITS:
            m[f"{name}.self_s"] = s.self_s[name]
    rc5_calls = s.calls["rc5.encrypt_blocks"] + s.calls["rc5.decrypt_blocks"]
    rc5_blocks = s.arg_sum["rc5.encrypt_blocks"] + s.arg_sum["rc5.decrypt_blocks"]
    m["rc5.blocks_per_call"] = _ratio(rc5_blocks, rc5_calls)
    for fn in ("seal", "open_"):
        for r in (0, 4, 8, 12):
            m[f"aead.{fn}.calls.r{r}"] = s.arg_calls.get((f"aead.{fn}", r), 0)
    misses = s.outcome_calls.get(("aead.open_", "returned None"), 0)
    m["aead.open_.miss_ratio"] = _ratio(misses, s.calls["aead.open_"])
    opens = s.child_calls.get(("linksec.decode", "aead.open_"), 0)
    m["linksec.decode.opens_per_call"] = _ratio(opens, s.calls["linksec.decode"])
    for cause, exc_name in _REJECTS.items():
        m[f"linksec.decode.rejects.{cause}"] = s.outcome_calls.get(("linksec.decode", exc_name), 0)
    # The workloads run no replay attackers, so every on-air transmission
    # inside a run is exactly one encode call.
    tx = s.in_run["linksec.encode"]
    m["sim.tx"] = tx
    m["trust.records_per_tx"] = _ratio(s.calls["trust.TrustTable.record"], tx)
    m["bench.self_s"] = s.self_s[ROOT]
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(s.layer_self_s(layer), s.wall_s)
    m["trace.wall_s"] = s.wall_s
    m["trace.absent"] = len(s.absent)
    return m


def share_table(s: SpanSummary) -> str:
    """Per-layer self time and share of the traced wall time, largest first."""
    rows = sorted(((s.layer_self_s(layer), layer) for layer in LAYERS), reverse=True)
    lines = [f"{'layer':<10}{'self_s':>12}{'share':>9}"]
    for self_s, layer in rows:
        lines.append(f"{layer:<10}{self_s:>12.4f}{_ratio(self_s, s.wall_s):>9.1%}")
    total = sum(r[0] for r in rows)
    lines.append(f"{'sum':<10}{total:>12.4f}{_ratio(total, s.wall_s):>9.1%}  of traced wall {s.wall_s:.4f} s")
    if s.absent:
        lines.append("absent entry points: " + ", ".join(s.absent))
    return "\n".join(lines)
