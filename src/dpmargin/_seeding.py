"""Deterministic random-stream derivation.

Every source of randomness in the toolkit is a Philox counter-based stream
keyed by a ``SeedSequence`` over (seed, stream tag, indices...).  Distinct
tags keep logically independent streams (JL signs, gradient noise, score
noise, candidate picks) decoupled, so coupling tests can replay one stream
while varying another, and parallel candidate evaluation is schedule-free.

Two fast paths serve the priv-tune tuner's many short base runs, and both
are bit-identical to the general ones: `child_seeds` is
``[child_seed(seed, tag, i) for i in range(count)]`` computed in one
vectorised pass, and `thread_stream` draws exactly what `stream` draws.
Both run numpy's ``SeedSequence`` hash themselves (`_hash`): over uint32
arrays, one entry per run, for a batch, and over Python ints for one key.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

# Stream tags; values are arbitrary but frozen (changing one changes outputs).
JL_SIGNS = 0x4A4C
NGD_NOISE = 0x4E47
SCORE_NOISE = 0x5343
TNB_RUNS = 0x544E
CANDIDATE_PICK = 0x4350
CANDIDATE_SEED = 0x4344
SYNTH = 0x5359

# numpy's SeedSequence hash: a pool of 4 uint32 words and its constants.
_MASK = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def stream(seed: int, tag: int, *indices: int) -> np.random.Generator:
    """Return the Philox generator for (seed, tag, indices...)."""
    ss = np.random.SeedSequence([int(seed), int(tag), *map(int, indices)])
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, tag: int, *indices: int) -> int:
    """Derive a stable 63-bit integer seed for APIs that take plain seeds."""
    ss = np.random.SeedSequence([int(seed), int(tag), *map(int, indices)])
    words = ss.generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 31) ^ int(words[1])


def child_seeds(seed: int, tag: int, count: int) -> np.ndarray:
    """``[child_seed(seed, tag, i) for i in range(count)]`` as an int64
    array, in one pass."""
    if not 0 <= count <= _MASK + 1:
        raise ValueError(f"count must lie in [0, 2^32], got {count}")
    head = [np.full(count, word, dtype=np.uint32) for word in _words(seed) + _words(tag)]
    # every index below 2^32 is one entropy word, 0 included
    words = _hash([*head, np.arange(count, dtype=np.uint32)], 2)
    return (words[0].astype(np.int64) << 31) ^ words[1]


_threads = threading.local()
_ZEROS = np.zeros(4, dtype=np.uint64)


def thread_stream(seed: int, tag: int) -> np.random.Generator:
    """A generator that draws what ``stream(seed, tag)`` draws.

    It is this thread's one Philox generator, reset to the key and counter
    that ``stream`` would start from, so it is only valid until the thread
    next calls `thread_stream`.
    """
    gen = getattr(_threads, "gen", None)
    if gen is None:
        gen = _threads.gen = np.random.Generator(np.random.Philox(key=0))
    w = _hash(_words(seed) + _words(tag), 4)
    key = np.array([w[0] | w[1] << 32, w[2] | w[3] << 32], dtype=np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from a nonnegative int: least
    significant first, and [0] for 0."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed words must be nonnegative, got {value}")
    words = [value & _MASK]
    while value > _MASK:
        value >>= 32
        words.append(value & _MASK)
    return words


def _hash(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words)`` as a list of words.

    The entropy words are all ints below 2^32 or, for a batch, all uint32
    arrays with one entry per row; the result's words are of the same kind.
    """
    fill, cross, extra = _hash_plan(len(entropy))
    zero = entropy[0] & 0  # pads the pool with words of the entropy's kind
    pool = []
    for word, (a, b) in zip(entropy[:_POOL] + [zero] * (_POOL - len(entropy)), fill):
        value = ((word ^ a) * b) & _MASK
        pool.append(value ^ (value >> 16))
    for src, dst, a, b in cross:
        value = ((pool[src] ^ a) * b) & _MASK
        value ^= value >> 16
        value = (_MIX_L * pool[dst] - _MIX_R * value) & _MASK
        pool[dst] = value ^ (value >> 16)
    for src, dst, a, b in extra:
        value = ((entropy[src] ^ a) * b) & _MASK
        value ^= value >> 16
        value = (_MIX_L * pool[dst] - _MIX_R * value) & _MASK
        pool[dst] = value ^ (value >> 16)
    out = []
    for i, (a, b) in enumerate(_key_pairs(_INIT_B, _MULT_B, n_words)):
        value = ((pool[i % _POOL] ^ a) * b) & _MASK
        out.append(value ^ (value >> 16))
    return out


@lru_cache
def _hash_plan(length: int) -> tuple:
    """SeedSequence's pool mixing for `length` entropy words, as the
    (xor, multiplier) pair of each initial fill and the (source,
    destination, xor, multiplier) of each cross mix and each mix of a word
    beyond the pool's four.  The hash constant runs through the same values
    for any data, so the pairs are fixed."""
    extra = [(src, dst) for src in range(_POOL, length) for dst in range(_POOL)]
    cross = [(src, dst) for src in range(_POOL) for dst in range(_POOL) if src != dst]
    keys = _key_pairs(_INIT_A, _MULT_A, _POOL + len(cross) + len(extra))
    mixes = [(*pair, *key) for pair, key in zip(cross + extra, keys[_POOL:])]
    return keys[:_POOL], tuple(mixes[:len(cross)]), tuple(mixes[len(cross):])


@lru_cache
def _key_pairs(value: int, mult: int, count: int) -> tuple:
    """The first `count` (h, h * mult) pairs of the hash constant h."""
    pairs = []
    for _ in range(count):
        nxt = (value * mult) & _MASK
        pairs.append((value, nxt))
        value = nxt
    return tuple(pairs)
