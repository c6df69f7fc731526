"""Deterministic random-stream derivation.

Every source of randomness in the toolkit is a Philox counter-based stream
keyed by a ``SeedSequence`` over (seed, stream tag, indices...).  Distinct
tags keep logically independent streams (JL signs, gradient noise, score
noise, candidate picks) decoupled, so coupling tests can replay one stream
while varying another, and parallel candidate evaluation is schedule-free.
"""

from __future__ import annotations

import numpy as np

# Stream tags; values are arbitrary but frozen (changing one changes outputs).
JL_SIGNS = 0x4A4C
NGD_NOISE = 0x4E47
SCORE_NOISE = 0x5343
TNB_RUNS = 0x544E
CANDIDATE_PICK = 0x4350
CANDIDATE_SEED = 0x4344
SYNTH = 0x5359


def stream(seed: int, tag: int, *indices: int) -> np.random.Generator:
    """Return the Philox generator for (seed, tag, indices...)."""
    ss = np.random.SeedSequence([int(seed), int(tag), *map(int, indices)])
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, tag: int, *indices: int) -> int:
    """Derive a stable 63-bit integer seed for APIs that take plain seeds."""
    ss = np.random.SeedSequence([int(seed), int(tag), *map(int, indices)])
    words = ss.generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 31) ^ int(words[1])

