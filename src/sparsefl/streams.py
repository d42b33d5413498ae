"""Deterministic random stream derivation.

Every random draw in a run is tied to the root seed through a fixed integer
path (domain, then domain-specific indices such as round and client; a
client's local training in a round is the one stream (TRAIN, round, client)).
Repeated runs with the same root seed therefore reproduce every draw exactly,
and streams for different clients or rounds never interact.
"""

from __future__ import annotations

import numpy as np

# Stream domains. These constants are part of the reproducibility contract:
# changing any value changes every stream derived under it.
DATA = 1
PLACEMENT = 2
CHANNEL = 3
CPU = 4
BASELINE = 5
TRAIN = 6
PRIVACY = 7
MODEL = 8


def substream(root_seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by (root_seed, *path)."""
    if root_seed < 0:
        raise ValueError("root_seed must be nonnegative")
    seq = np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(seq)
