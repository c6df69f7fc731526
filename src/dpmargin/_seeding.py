"""Deterministic random-stream derivation.

Every source of randomness in the toolkit is a Philox counter-based stream
keyed by numpy's ``SeedSequence`` over (seed, stream tag, indices...), and
this module is the only one that builds or positions a generator.
``SeedSequence`` reads every bit of a nonnegative integer of any width, so a
128-bit secret seed needs no code of its own.  Distinct tags keep logically
independent streams (JL signs, gradient noise, score noise, candidate picks)
decoupled, so coupling tests can replay one stream while varying another.

A selection's base runs share one key, `noise_key(seed)`, derived once, and
run i reads it from counter block i (`block_stream`), so no run hashes a
seed of its own and runs on any threads draw the same numbers.  A lane that
draws its runs' noise a block of rows at a time saves each run's place in its
stream between blocks (`position`) and moves back to it (`resume`).
"""

from __future__ import annotations

import threading

import numpy as np

# Stream tags; values are arbitrary but frozen (changing one changes outputs).
JL_SIGNS = 0x4A4C
NGD_NOISE = 0x4E47
SCORE_NOISE = 0x5343
TNB_RUNS = 0x544E
CANDIDATE_PICK = 0x4350
SYNTH = 0x5359

_WORD = 2**64 - 1


def stream(seed: int, tag: int, *indices: int) -> np.random.Generator:
    """Return the Philox generator for (seed, tag, indices...)."""
    ss = np.random.SeedSequence([int(seed), int(tag), *map(int, indices)])
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, tag: int, *indices: int) -> int:
    """Derive a stable 63-bit integer seed for APIs that take plain seeds."""
    ss = np.random.SeedSequence([int(seed), int(tag), *map(int, indices)])
    words = ss.generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 31) ^ int(words[1])


def noise_key(seed: int) -> int:
    """The Philox key of `stream(seed, NGD_NOISE)`, its two words as one integer."""
    low, high = np.random.SeedSequence([int(seed), NGD_NOISE]).generate_state(2, np.uint64)
    return int(low) | int(high) << 64


# Each thread's Philox generator and the state dict that moves it, built on
# the thread's first block_stream call.
_THREAD = threading.local()


def _thread_generator():
    local = _THREAD
    try:
        return local.generator, local.state
    except AttributeError:
        generator = local.generator = np.random.Generator(np.random.Philox(0))
        # an empty buffer; only the key and counter are rewritten by block_stream
        local.state = generator.bit_generator.state
        return generator, local.state


def block_stream(key: int, block: int) -> np.random.Generator:
    """The Philox stream of `key` from counter [0, 0, block, 0].

    Block 0 of `noise_key(seed)` is `stream(seed, NGD_NOISE)` bit for bit.
    A stream counts up from the counter's first word, so block i reaches
    block i + 1 only after 2^128 draws of four words: distinct blocks never
    share a draw (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
    3", SC 2011).

    The generator returned is the calling thread's own, moved by writing its
    state: 1.9 us a call, where a new Philox at the same key and counter
    costs 11 us because numpy builds an entropy SeedSequence it never reads
    (`timeit`, numpy 2.4, x86).  The thread's next call moves it again, so
    draw everything from one block before moving to the next.
    """
    generator, state = _thread_generator()
    words = state["state"]
    words["key"][0] = key & _WORD
    words["key"][1] = key >> 64
    words["counter"][2] = block
    generator.bit_generator.state = state
    return generator


def position(generator: np.random.Generator) -> dict:
    """Where `generator` stands in its stream, buffered words included, for
    `resume`: 4 us a call (`timeit`, numpy 2.4, x86)."""
    return generator.bit_generator.state


def resume(at: dict) -> np.random.Generator:
    """The calling thread's generator, moved to `at`, a `position` taken on
    any thread: it draws on from there bit for bit, as the generator
    `position` read would have.  The thread's next `block_stream` or
    `resume` call moves it again."""
    generator, _ = _thread_generator()
    generator.bit_generator.state = at
    return generator

