"""How a seed becomes streams: every bit of the seed counts, only `_seeding`
builds generators, and a priv-tune selection gives each run its own seed
and its own fresh noise stream."""

import pathlib
import re
import sys

import numpy as np
import pytest

import dpmargin
from dpmargin._seeding import NGD_NOISE, TNB_RUNS, stream
from dpmargin.data import synth_margin_dataset
from dpmargin.optimizer import _feature_descent, jlgd
from dpmargin.projection import IdentityMap
from dpmargin.tuning import Candidate, ScoreSpec, TnbDist, priv_tune, sample_tnb


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1, 2**64 - 1, 2**127 + 3])
def test_stream_reads_seed_bits_above_64(seed):
    # a 128-bit secret seed is only as strong as the bits the streams read
    for tag in (NGD_NOISE, TNB_RUNS):
        assert (stream(seed, tag).integers(2**63, size=4).tolist()
                != stream(seed + 2**64, tag).integers(2**63, size=4).tolist())


def test_only_the_seeding_module_builds_generators():
    src = pathlib.Path(dpmargin.__file__).parent
    builders = re.compile(r"default_rng|Generator\(|Philox\(|SeedSequence\(")
    found = sorted(path.name for path in src.rglob("*.py")
                   if path.name != "_seeding.py" and builders.search(path.read_text()))
    assert found == []
    assert builders.search((src / "_seeding.py").read_text())


def long_selection():
    """A priv-tune selection of 1,000-3,000 two-step noisy descents.

    `select(threads, runs)` appends each run's (candidate, seed, model) to
    `runs` when given."""
    ds = synth_margin_dataset(20, 3, 0.4, 0, seed=16)[0]
    dist = TnbDist(1, 1e-3)
    seed = next(s for s in range(200)
                if 1000 <= sample_tnb(dist, stream(s, TNB_RUNS)) <= 3000)
    cands = [Candidate(g, IdentityMap(ds.dim)) for g in (0.2, 0.4, 0.8)]

    def select(threads, runs=None):
        def base(candidate, mu, s):
            model = jlgd(candidate.phi, candidate.gamma / 3, ds, mu, seed=s)
            if runs is not None:
                runs.append((candidate, s, model))
            return model

        return priv_tune(base, cands, dist, ds, 0.1, ScoreSpec("empirical_zero_one"),
                         seed=seed, threads=threads)

    return select, ds


def test_priv_tune_run_seeds_are_pairwise_distinct():
    select, _ = long_selection()
    runs = []
    select(1, runs)
    seeds = [s for _, s, _ in runs]
    assert 1000 <= len(seeds) <= 3000
    assert len(set(seeds)) == len(seeds)
    assert all(isinstance(s, int) and 0 <= s < 2**63 for s in seeds)


@pytest.mark.parametrize("threads", [1, 2])
def test_priv_tune_runs_each_draw_from_a_fresh_noise_stream(threads):
    select, ds = long_selection()
    runs = []
    select(threads, runs)
    assert len(runs) >= 1000
    for cand, s, model in runs:
        sched = model.provenance.schedule
        assert sched.T == 2 and sched.sigma > 0
        rerun = _feature_descent(ds, cand.gamma / 3, sched.T, sched.sigma, sched.eta, True,
                                 stream(s, NGD_NOISE))
        assert model.weights.tobytes() == rerun.tobytes()


def test_priv_tune_is_bit_identical_across_threads_and_to_fresh_streams():
    select, _ = long_selection()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside the runs
    try:
        runs = [select(threads) for threads in (1, 2, 8)]
    finally:
        sys.setswitchinterval(interval)
    runs.append(select(1))  # a second serial selection in the same process
    for model, cand in runs[1:]:
        assert cand is runs[0][1]
        assert model.weights.tobytes() == runs[0][0].weights.tobytes()
