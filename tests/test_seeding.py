"""The fast seed paths (`child_seeds`, `thread_stream`) against the general
ones (`child_seed`, `stream`), and the generators a priv-tune selection builds."""

import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpmargin.optimizer as optimizer
from dpmargin._seeding import (
    CANDIDATE_SEED,
    NGD_NOISE,
    TNB_RUNS,
    child_seed,
    child_seeds,
    stream,
    thread_stream,
)
from dpmargin.data import synth_margin_dataset
from dpmargin.optimizer import jlgd
from dpmargin.projection import IdentityMap
from dpmargin.tuning import Candidate, ScoreSpec, TnbDist, priv_tune, sample_tnb

# word-count edges: 0 hashes as [0], 2^32 - 1 is the last one-word seed
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
seeds = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1)
tags = st.sampled_from([CANDIDATE_SEED, NGD_NOISE]) | st.integers(0, 2**40)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, tag=tags, count=st.sampled_from([0, 1, 2, 5, 33]))
def test_child_seeds_equal_child_seed(seed, tag, count):
    assert child_seeds(seed, tag, count).tolist() == [child_seed(seed, tag, i) for i in range(count)]


@pytest.mark.parametrize("seed", [*EDGE_SEEDS, 5])
def test_child_seeds_equal_child_seed_over_a_long_batch(seed):
    count = 12_345
    want = [child_seed(seed, CANDIDATE_SEED, i) for i in range(count)]
    assert child_seeds(seed, CANDIDATE_SEED, count).tolist() == want


def draws(rng):
    """Normals, then an odd number of 32-bit words, which leaves half of a
    64-bit Philox output buffered, then uniforms."""
    return [rng.standard_normal(7), rng.integers(0, 2**32, 3, dtype=np.uint32),
            rng.random(2)]


@settings(max_examples=80, deadline=None)
@given(seed=seeds, tag=tags, previous=seeds)
def test_thread_stream_draws_what_stream_draws(seed, tag, previous):
    draws(thread_stream(previous, tag))  # leave this thread's generator mid-stream
    got = draws(thread_stream(seed, tag))
    for a, b in zip(got, draws(stream(seed, tag))):
        np.testing.assert_array_equal(a, b)


def test_thread_stream_is_one_generator_per_thread():
    assert thread_stream(1, NGD_NOISE) is thread_stream(2, NGD_NOISE)
    both_reset = threading.Barrier(2)

    def job(seed):
        rng = thread_stream(seed, NGD_NOISE)
        both_reset.wait()  # a shared generator would now hold the other seed's key
        return rng, rng.standard_normal(50)

    with ThreadPoolExecutor(max_workers=2) as pool:
        (rng_a, a), (rng_b, b) = pool.map(job, [3, 4])
    assert rng_a is not rng_b
    np.testing.assert_array_equal(a, stream(3, NGD_NOISE).standard_normal(50))
    np.testing.assert_array_equal(b, stream(4, NGD_NOISE).standard_normal(50))


def long_selection():
    """A priv-tune selection of 1,000-3,000 two-step noisy descents."""
    ds = synth_margin_dataset(20, 3, 0.4, 0, seed=16)[0]
    dist = TnbDist(1, 1e-3)
    seed = next(s for s in range(200)
                if 1000 <= sample_tnb(dist, stream(s, TNB_RUNS)) <= 3000)
    cands = [Candidate(g, IdentityMap(ds.dim)) for g in (0.2, 0.4, 0.8)]

    def base(candidate, mu, s):
        return jlgd(candidate.phi, candidate.gamma / 3, ds, mu, seed=s)

    def select(threads):
        return priv_tune(base, cands, dist, ds, 0.1, ScoreSpec("empirical_zero_one"),
                         seed=seed, threads=threads)

    return select


@pytest.mark.parametrize("threads", [1, 2])
def test_priv_tune_builds_generators_per_thread_not_per_run(monkeypatch, threads):
    select = long_selection()
    built = Counter()
    for name in ("SeedSequence", "Philox"):
        original = getattr(np.random, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            built[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, spy)
    model, _ = select(threads)
    assert model.provenance.schedule.T == 2 and model.provenance.schedule.sigma > 0
    # the tuner's own streams (run count, picks, score noise), plus one noise
    # generator for each pool thread and the calling thread
    assert built["SeedSequence"] <= 3
    assert built["Philox"] <= 3 + threads + 1


def test_priv_tune_is_bit_identical_across_threads_and_to_fresh_streams(monkeypatch):
    select = long_selection()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside the runs
    try:
        runs = [select(threads) for threads in (1, 2, 8)]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(optimizer, "stream", stream)
    runs.append(select(1))
    for model, cand in runs[1:]:
        assert cand is runs[0][1]
        assert model.weights.tobytes() == runs[0][0].weights.tobytes()
