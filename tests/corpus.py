"""The pinned config corpus: seeded random configs, and one digest of each
run's outputs per seed and arm, pinned in `vectors/corpus.txt`.

`frame_configs` draws the configs: 3 to 10 nodes in 1 or 2 groups, 20 to 60
frames, deaths, `captured` adversaries whose overstated batteries turn rows
suspicious, `drop-fraction` and replay adversaries, loss 0, 0.1 and 0.2, and
batteries of 0.3 to 4 J, small enough that heads drain and elections run.
The corpus is seeds 0 to 149, each in the fixed and the adaptive arm: 300
runs. A seed is never dropped or swapped for another.

Each digest covers six outputs of `sim.run`: every `NodeStats` (its ledger
in full float precision), the slot log, `energy.csv`, `trust.csv`, the
elections and the re-keys.

The module imports only the standard library and `wsnsec`, so it runs on an
interpreter without pytest. Run as a script, it prints the vectors file; a
model change that is meant to move outputs re-pins the corpus with

    python tests/corpus.py > tests/vectors/corpus.txt

(with `PYTHONPATH=src` where `wsnsec` is not installed), and `git diff`
shows the seeds that moved.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
from dataclasses import replace

from wsnsec import sim
from wsnsec.agent import SCENARIO_NAMES
from wsnsec.config import config_from_dict

SEED_COUNT = 150
VECTORS = pathlib.Path(__file__).parent / "vectors" / "corpus.txt"


def frame_configs(count):
    """The configs of seeds 0 to `count - 1`: up to two adversaries per
    group, each `captured`, `drop-fraction` or a replayer, loss 0, 0.1 or
    0.2, and batteries of 0.3 to 4 J, which heads drain within a run."""
    configs = []
    for seed in range(count):
        rnd = random.Random(seed)
        node_count, group_count = rnd.randint(3, 10), rnd.randint(1, 2)
        adversaries = []
        for gid in range(group_count):
            size = node_count // group_count + (gid < node_count % group_count)
            for node in rnd.sample(range(1, size + 1), min(size, rnd.randint(0, 2))):
                spec = {"node": f"{gid}.{node}", "start_frame": rnd.randint(0, 5),
                        "behavior": rnd.choice(["captured", "drop-fraction", "replay-attacker"])}
                if spec["behavior"] == "drop-fraction":
                    spec["drop_fraction"] = rnd.choice([0.5, 1.0])
                adversaries.append(spec)
        configs.append(config_from_dict({
            "seed": seed, "node_count": node_count, "group_count": group_count,
            "sim_length": rnd.randint(20, 60), "session_length": rnd.randint(3, 12),
            "scenario": rnd.choice(SCENARIO_NAMES),
            "loss_rate": rnd.choice([0.0, 0.1, 0.2]),
            "energy_model": {"initial_energy": rnd.uniform(0.3, 4.0)},
            "adversaries": adversaries,
        }))
    return configs


def arms(config):
    """`config`'s fixed arm, then its adaptive arm."""
    return replace(config, adaptive=False), replace(config, adaptive=True)


def line(config, report) -> str:
    """The vectors line of one run, `seed arm digest`. The digest is the
    first 16 hex digits of the SHA-256 of the six outputs."""
    text = "\n".join((
        repr(report.nodes), repr(report.slot_log), report.energy_csv(),
        report.trust_csv(), repr(report.elections), repr(report.rekeys),
    ))
    arm = "adaptive" if config.adaptive else "fixed"
    return f"{config.seed} {arm} {hashlib.sha256(text.encode()).hexdigest()[:16]}"


def runs():
    """Every corpus run in the vectors file's order, as `(config, report)`."""
    for config in frame_configs(SEED_COUNT):
        for arm in arms(config):
            yield arm, sim.run(arm)


if __name__ == "__main__":
    for config, report in runs():
        print(line(config, report))
