"""Security toolkit for group-organized wireless sensor networks.

Building blocks: per-neighbor trust scoring with head election, symmetric
key derivation with trust-gated session re-keying, an adaptive
authenticated link-layer codec with truncated-counter replay protection, a
per-node security agent that picks packet security levels from cross-layer
readings, and a deterministic simulator that measures the energy cost of
fixed versus adaptive protection.
"""

__version__ = "0.1.0"

from .addressing import NodeAddress
from .agent import PacketClass, ScenarioPolicy, SecurityAgent
from .keys import KeyRing, SymmetricKey, derive_keyring, derive_session_key, prf, rekey_group
from .linksec import (
    CounterState,
    Encryption,
    PacketHeader,
    SecurityLevel,
    decode,
    dissect,
    encode,
)
from .sim import SimConfig, compare_fixed_vs_adaptive, run
from .trust import NeighborRecord, TrustTable, TrustWeights, compute_trust, run_election

__all__ = [
    "NodeAddress",
    "PacketClass",
    "ScenarioPolicy",
    "SecurityAgent",
    "KeyRing",
    "SymmetricKey",
    "derive_keyring",
    "derive_session_key",
    "prf",
    "rekey_group",
    "CounterState",
    "Encryption",
    "PacketHeader",
    "SecurityLevel",
    "decode",
    "dissect",
    "encode",
    "SimConfig",
    "compare_fixed_vs_adaptive",
    "run",
    "NeighborRecord",
    "TrustTable",
    "TrustWeights",
    "compute_trust",
    "run_election",
    "__version__",
]
