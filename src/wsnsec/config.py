"""The two JSON file formats: simulator configs and key rings.

`SimConfig` holds everything a run depends on, and every check of whether
a config can run is made when it is built: each field's range, the
topology its `group_sizes` give, and that each adversary spec names a
distinct node of that topology.

A config file is a JSON object of `SimConfig` fields, and `_read` turns
each JSON object into the dataclass that owns it: it checks each value's
JSON type against its field's annotation and names any unknown, mistyped
or missing key. Only the scenario (a preset's name, or an object over a
preset), the list form of the trust weights and the list of adversaries
are read by hand.

A key-ring file is a JSON object of `KeyRing` fields, read by the same
`_read` and written by `keyring_to_dict`. Keys are hex strings and
addresses "G.N" strings. `owner`, `head`, `node_based` and `broadcast` are
required; `session` may be left out or null, and each of `pairwise`,
`peer_broadcast` and `peer_node_based` may be left out or be an object of
hex keys by address.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Mapping, Optional, get_type_hints

from . import linksec
from .addressing import NodeAddress
from .agent import SCENARIO_ALIASES, SCENARIO_NAMES, ScenarioPolicy, default_policy
from .keys import KeyRing, SymmetricKey
from .linksec import Encryption
from .trust import TrustWeights

MAX_GROUP_MEMBERS = 254  # node id 0 is the base station, 0xFF is broadcast

ADVERSARY_BEHAVIORS = ("drop-fraction", "replay-attacker", "captured")


# The most joules a field of `EnergyModel` may hold: its nJ, `value * 10**9`,
# is then still a finite float.
MAX_JOULES = sys.float_info.max / 10**9


@dataclass(frozen=True)
class EnergyModel:
    """Energy costs and the battery, in joules.

    The simulator rounds each field to the nearest whole nanojoule (nJ)
    once per run, as `round(value * 10**9)`, and keeps its books in nJ: a
    field finer than that is run as rounded. Each default is a whole number
    of nJ. A field must lie in [0, `MAX_JOULES`]."""

    tx_per_octet: float = 0.0006
    rx_per_octet: float = 0.0003
    rc5_per_block_per_round: float = 0.000002
    xor_per_octet: float = 0.000001
    mac_fixed: float = 0.00001
    initial_energy: float = 1000.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0 <= getattr(self, f.name) <= MAX_JOULES:
                raise ValueError(f"{f.name} must be in [0, {MAX_JOULES:.6g}] J")


@dataclass(frozen=True)
class AdversarySpec:
    node: NodeAddress
    behavior: str
    drop_fraction: float = 1.0
    start_frame: int = 0

    def __post_init__(self) -> None:
        if self.behavior not in ADVERSARY_BEHAVIORS:
            raise ValueError(f"behavior must be one of {ADVERSARY_BEHAVIORS}")
        if not 0.0 <= self.drop_fraction <= 1.0:
            raise ValueError("drop_fraction must be in [0, 1]")
        if self.start_frame < 0:
            raise ValueError("start_frame must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 1
    node_count: int = 20
    group_count: int = 2
    session_length: int = 50
    sim_length: int = 500
    scenario: ScenarioPolicy = None  # type: ignore[assignment]
    adaptive: bool = True
    adversaries: tuple[AdversarySpec, ...] = ()
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    trust_weights: TrustWeights = field(default_factory=TrustWeights)
    rekey_threshold: float = 0.4
    loss_threshold: int = linksec.DEFAULT_LOSS_THRESHOLD
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit 64 bits")
        if not 1 <= self.group_count <= 256:
            raise ValueError("group_count must be in 1..256")
        if not 1 <= self.node_count <= 65536:
            raise ValueError("node_count must be in 1..65536")
        if self.group_count > self.node_count:
            raise ValueError("group_count must not exceed node_count")
        sizes = self.group_sizes
        if sizes[0] > MAX_GROUP_MEMBERS:
            raise ValueError(
                f"groups of {sizes[0]} exceed {MAX_GROUP_MEMBERS} addressable members"
            )
        seen = set()
        for spec in self.adversaries:
            group, node = spec.node
            if not (group < len(sizes) and 1 <= node <= sizes[group]):
                raise ValueError(f"adversary {spec.node} is not a simulated node")
            if spec.node in seen:
                raise ValueError(f"adversary {spec.node} has more than one spec")
            seen.add(spec.node)
        if self.session_length < 1:
            raise ValueError("session_length must be at least one frame")
        if self.sim_length < 0:
            raise ValueError("sim_length must be non-negative")
        if not 0.0 <= self.rekey_threshold < 1.0:
            raise ValueError("rekey_threshold must be in [0, 1)")
        if self.loss_threshold < 0:
            raise ValueError("loss_threshold must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.scenario is None:
            object.__setattr__(
                self,
                "scenario",
                default_policy("habitat-monitoring", self.energy_model.initial_energy),
            )

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Members per group, by group id: `node_count` dealt out as evenly
        as it goes, the larger groups first. Node ids run from 1 to a
        group's size."""
        size, extra = divmod(self.node_count, self.group_count)
        return tuple(size + (gid < extra) for gid in range(self.group_count))


# Field annotation -> the types its JSON value may have, matched exactly (a
# bool is not a number here), and what the field is called in a message. An
# `Encryption` is a level's code.
_JSON_TYPES = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    Encryption: ((int,), "an integer"),
}

# The JSON type of each type `json.load` makes. The lookup is on the exact
# type, so a bool, which Python counts an int, reads "boolean".
_JSON_NAMES = {
    type(None): "null", bool: "boolean", int: "number", float: "number",
    str: "string", list: "array", dict: "object",
}


def _json_type(value) -> str:
    """The JSON type of `value`, for messages."""
    return _JSON_NAMES.get(type(value), type(value).__name__)


def _object(data, name: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object, not {_json_type(data)}")
    return data


def _key(text) -> SymmetricKey:
    """A key from its hex string."""
    if not isinstance(text, str):
        raise ValueError(f"a key must be a hex string, not {_json_type(text)}")
    return SymmetricKey.from_hex(text)


def _key_map(data) -> dict[NodeAddress, SymmetricKey]:
    """Keys by address from an object of hex keys by "G.N" address."""
    return {NodeAddress.parse(a): _key(k) for a, k in _object(data, "a key map").items()}


# Field annotation -> how a value is built from its JSON value. Each builder
# that has no `_JSON_TYPES` entry checks its value's type itself.
_FROM_JSON = {
    Encryption: Encryption,
    NodeAddress: NodeAddress.parse,
    SymmetricKey: _key,
    Optional[SymmetricKey]: lambda text: None if text is None else _key(text),
    dict[NodeAddress, SymmetricKey]: _key_map,
    Mapping[NodeAddress, SymmetricKey]: _key_map,
}


def _read(cls, data, name: str, /, **defaults):
    """The dataclass `cls` read from `data`, the JSON object `name`.

    Every key is a field of `cls`. A field that holds a dataclass is read
    by the same rule from a nested object, named by its key. Any other
    field's value must have a type `_JSON_TYPES` lists for its annotation,
    if it lists any, and is built by `_FROM_JSON`. `defaults` fill the
    fields the object leaves out; a field still missing that has no default
    of its own is named.
    """
    kinds = get_type_hints(cls)
    unknown = set(_object(data, name)) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    values = dict(defaults)
    for key, value in data.items():
        kind, where = kinds[key], f"{name} key {key}"
        if is_dataclass(kind):
            values[key] = _read(kind, value, key)
        elif kind in _JSON_TYPES and type(value) not in _JSON_TYPES[kind][0]:
            expected = _JSON_TYPES[kind][1]
            raise ValueError(f"{where} must be {expected}, not {_json_type(value)}")
        else:
            try:
                values[key] = _FROM_JSON.get(kind, lambda v: v)(value)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
    missing = [
        f.name for f in fields(cls)
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"{name} needs {', '.join(missing)}")
    return cls(**values)


def read_weights(data) -> TrustWeights:
    """Trust weights from JSON: null for the defaults, an object of
    `TrustWeights` fields, or a list of up to six weights in field order."""
    if data is None:
        return TrustWeights()
    if isinstance(data, list):
        names = [f.name for f in fields(TrustWeights)]
        if len(data) > len(names):
            raise ValueError(f"trust_weights takes at most {len(names)} weights")
        data = dict(zip(names, data))
    return _read(TrustWeights, data, "trust_weights")


def _read_scenario(data, initial_energy: float) -> ScenarioPolicy:
    """A preset's name, or an object read over the preset its `name` gives.
    An object naming no preset is a custom policy, whose `min_level` is its
    `base_level` unless given."""
    if isinstance(data, str):
        return default_policy(data, initial_energy)
    if not isinstance(data, dict):
        raise ValueError(f"scenario must be a name or an object, not {_json_type(data)}")
    name = data.get("name")
    name = SCENARIO_ALIASES.get(name, name) if isinstance(name, str) else None
    if name in SCENARIO_NAMES:
        preset = default_policy(name, initial_energy)
        return _read(ScenarioPolicy, {**data, "name": name}, "scenario", **vars(preset))
    if "base_level" in data:
        data = {**data, "min_level": data.get("min_level", data["base_level"])}
    return _read(
        ScenarioPolicy, data, "scenario", name="custom", energy_floor=0.0, trust_alarm=0.3
    )


def config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from the documented JSON schema: an object of
    `SimConfig` fields read by `_read`, except that `scenario` may also be
    a preset's name, `trust_weights` a list, and `adversaries` is a list of
    `AdversarySpec` objects."""
    adversaries = _object(data, "config").get("adversaries", [])
    if not isinstance(adversaries, list):
        raise ValueError(f"adversaries must be an array, not {_json_type(adversaries)}")
    special = ("scenario", "trust_weights", "adversaries")
    config = _read(
        SimConfig, {k: v for k, v in data.items() if k not in special}, "config",
        adversaries=tuple(_read(AdversarySpec, a, "adversary") for a in adversaries),
        trust_weights=read_weights(data.get("trust_weights")),
    )
    if "scenario" not in data:
        return config
    scenario = _read_scenario(data["scenario"], config.energy_model.initial_energy)
    return replace(config, scenario=scenario)


def set_override(data: dict, dotted: str, raw: str) -> None:
    """Apply one `a.b=value` override onto a config dict (value is JSON)."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    target = data
    *front, last = dotted.split(".")
    for part in front:
        target = target.setdefault(part, {})
        if not isinstance(target, dict):
            raise ValueError(f"cannot override through non-object key {part!r}")
    target[last] = value


def load_config(
    path: Optional[str] = None, overrides: Optional[list[str]] = None
) -> SimConfig:
    """Read a JSON config file, or start from ``{}`` without one, then apply
    `key=value` overrides in order."""
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = _object(json.load(fh), "config")
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        set_override(data, key.strip(), raw.strip())
    return config_from_dict(data)


def keyring_to_dict(ring: KeyRing) -> dict:
    """`ring` as the JSON object of a key-ring file."""
    def hex_map(keys) -> dict:
        return {str(a): k.hex() for a, k in sorted(keys.items())}

    return {
        "owner": str(ring.owner),
        "head": str(ring.head),
        "node_based": ring.node_based.hex(),
        "broadcast": ring.broadcast.hex(),
        "session": ring.session.hex() if ring.session else None,
        "pairwise": hex_map(ring.pairwise),
        "peer_broadcast": hex_map(ring.peer_broadcast),
        "peer_node_based": hex_map(ring.peer_node_based),
    }


def load_keyring(path: str) -> KeyRing:
    """Read a key-ring file in the shape `keyring_to_dict` writes."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read(KeyRing, json.load(fh), "keyring")
