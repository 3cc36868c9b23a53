"""Seeded inputs: the workload items and the configs they run on.

Each workload runs one CLI command on the three shipped scaling branches.
Every branch contributes its shipped reference potential (+1, -1, 0) and
the workload's number of seed-drawn potentials. A drawn potential has
n = 3 edges, each a single cubic on [0, 1] with every coefficient uniform
in [-1, 1]; the constant terms are then shifted by the same amount so the
total mean is zero. Draws are never filtered. Draw k of a branch depends
only on the seed, the branch and k, so workloads share their potentials.

A <= 0 and B <= 0 for every admissible potential, so the scaling branch of
the shipped config carries over unchanged: resonant configs keep
lambda1 = +-1 (lambda0 = 1/A is derived), and the nonresonant config sets
lambda0 so that lambda0 * A matches the shipped value.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BRANCHES = ("vstar_resonant_neg", "vstar_resonant_pos", "vstar_nonresonant")

#: workload -> (CLI command, smallest eps kept from the shipped ladder,
#: seed-drawn potentials per branch)
WORKLOADS = {
    "converge": ("converge", 0.0, 1),
    "spectrum": ("spectrum", 2.0**-5, 3),
    "oracle": ("oracle", 0.0, 3),
}


@dataclass(frozen=True)
class Item:
    """One CLI command on one config."""

    id: str
    command: str
    branch: str
    reference: bool
    raw: dict

    def config_bytes(self):
        return (json.dumps(self.raw, indent=2, sort_keys=True) + "\n").encode()

    def digest(self):
        return hashlib.sha256(self.config_bytes()).hexdigest()


def draw_potential(rng, n=3):
    """One admissible potential: a cubic per edge, total mean shifted to zero."""
    coeffs = [[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(n)]
    total = sum(c[0] + c[1] / 2.0 + c[2] / 3.0 + c[3] / 4.0 for c in coeffs)
    for c in coeffs:
        c[0] -= total / n
    return [[{"interval": [0.0, 1.0], "coeffs": c}] for c in coeffs]


def _constant_A(raw):
    from starcoupling.config import parse_config
    from starcoupling.graph import constant_A

    return constant_A(parse_config(raw).build_potential())


def _with_potential(shipped, potential):
    raw = json.loads(json.dumps(shipped))
    raw["potential"] = potential
    scaling = raw["scaling"]
    if not scaling["resonant"]:
        target = scaling["lambda0"] * _constant_A(shipped)
        scaling["lambda0"] = target / _constant_A(raw)
    return raw


def make_items(workload, seed, configs_dir):
    """The workload's items for ``seed``, every config checked by parse_config."""
    from starcoupling.config import parse_config

    command, min_eps, draws = WORKLOADS[workload]
    items = []
    for branch in BRANCHES:
        rng = random.Random(f"{seed}/{branch}")
        shipped = json.loads((Path(configs_dir) / f"{branch}.json").read_text())
        shipped.pop("output", None)
        shipped["epsilons"] = [e for e in shipped["epsilons"] if e >= min_eps]
        items.append(Item(f"{branch}.ref", command, branch, True, shipped))
        for k in range(draws):
            raw = _with_potential(shipped, draw_potential(rng))
            items.append(Item(f"{branch}.s{seed}_{k}", command, branch, False, raw))
    for item in items:
        parse_config(item.raw)
    return items
