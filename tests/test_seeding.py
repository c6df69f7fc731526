"""How a seed becomes streams: every bit of the seed counts, only `_seeding`
builds or moves generators, and a priv-tune selection derives one noise key
and gives run i that key's counter block i, which its lane reads a block of
rows at a time next to its lane mates'."""

import pathlib
import re

import numpy as np
import pytest

import dpmargin
from dpmargin._seeding import (NGD_NOISE, TNB_RUNS, block_stream, noise_key, position, resume,
                               stream)
from dpmargin.data import synth_margin_dataset
import dpmargin.optimizer as optimizer
from dpmargin.optimizer import Lane, NgdOverrides, SelectionRun, iteration_cap, jlgd, lane_width
from dpmargin.privacy import per_candidate_budget
from dpmargin.projection import IdentityMap
from dpmargin.tuning import Candidate, ScoreSpec, TnbDist, priv_tune, sample_tnb

from conftest import fresh_block, on_caller_threads
from oracles import noisy_descent


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1, 2**64 - 1, 2**127 + 3])
def test_stream_reads_seed_bits_above_64(seed):
    # a 128-bit secret seed is only as strong as the bits the streams read
    for tag in (NGD_NOISE, TNB_RUNS):
        assert (stream(seed, tag).integers(2**63, size=4).tolist()
                != stream(seed + 2**64, tag).integers(2**63, size=4).tolist())


def test_only_the_seeding_module_builds_generators():
    # building a generator, or moving one by its state, advance() or jumped()
    src = pathlib.Path(dpmargin.__file__).parent
    builders = re.compile(r"default_rng|Generator\(|Philox\(|SeedSequence\("
                          r"|\.state\s*=[^=]|\badvance\(|\bjumped\(")
    found = sorted(path.name for path in src.rglob("*.py")
                   if path.name != "_seeding.py" and builders.search(path.read_text()))
    assert found == []
    assert builders.search((src / "_seeding.py").read_text())


@pytest.mark.parametrize("seed", [0, 5, 2**64 + 1, 2**127 + 3])
def test_block_zero_of_the_noise_key_is_the_seeds_noise_stream(seed):
    want = stream(seed, NGD_NOISE)
    got = block_stream(noise_key(seed), 0)
    assert got.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()
    assert got.integers(2**63, size=5).tolist() == want.integers(2**63, size=5).tolist()
    # moving the thread's generator drops whatever it had buffered
    got.integers(2**32, dtype=np.uint32)
    again = block_stream(noise_key(seed), 0).standard_normal(3)
    assert again.tobytes() == stream(seed, NGD_NOISE).standard_normal(3).tobytes()


def test_a_stream_resumed_at_its_position_draws_on_bit_for_bit():
    # a place taken mid-buffer, then the thread's generator moved to other
    # blocks, and the stream resumed on another thread
    key = noise_key(9)
    want = stream(9, NGD_NOISE).standard_normal(11)
    rng = block_stream(key, 0)
    head = rng.standard_normal(5)
    place = position(rng)
    block_stream(key, 1).standard_normal(7)
    (tail,) = on_caller_threads(lambda: resume(place).standard_normal(6), 1)
    assert np.concatenate([head, tail]).tobytes() == want.tobytes()
    assert resume(place).standard_normal(6).tobytes() == tail.tobytes()


def long_selection(overrides=None):
    """A priv-tune selection of 1,000-3,000 two-step noisy descents, their
    schedule pinned by `overrides` when given.

    Returns (select, dataset, seed).  `select(runs)` appends each run's
    (candidate, run, model) to `runs` when given."""
    ds = synth_margin_dataset(20, 3, 0.4, 0, seed=16)[0]
    dist = TnbDist(1, 1e-3)
    seed = next(s for s in range(200)
                if 1000 <= sample_tnb(dist, stream(s, TNB_RUNS)) <= 3000)
    cands = [Candidate(g, IdentityMap(ds.dim)) for g in (0.2, 0.4, 0.8)]

    def select(runs=None):
        def base(candidate, rows, mu, run):
            model = jlgd(candidate.phi, candidate.gamma / 3, rows, mu, seed=run,
                         overrides=overrides)
            if runs is not None:
                runs.append((candidate, run, model))
            return model

        return priv_tune(base, cands, dist, ds, 0.1, ScoreSpec("empirical_zero_one"),
                         seed=seed)

    return select, ds, seed


def alone(ds, cand, model, key, index):
    """The run's descent again, alone in a lane of its own."""
    sched = model.provenance.schedule
    assert sched.T == 2 and sched.sigma > 0
    lane = Lane(key, [(index, cand.c)])
    mu = per_candidate_budget(0.1, 1)[0]  # long_selection's base budget
    again = jlgd(cand.phi, cand.c, ds, mu, seed=SelectionRun(key, index, iteration_cap(), lane))
    assert again.provenance.schedule == sched
    return again.weights


def test_priv_tune_run_seeds_are_pairwise_distinct():
    # run i gets block i of the one key its selection derived, and the cap
    # its selection read, whenever it runs; the three identity candidates
    # share their rows, so every run is given the one lane over them all,
    # in the order the runs come: by candidate, each candidate's in order
    select, _, seed = long_selection()
    runs = []
    select(runs)
    assert 1000 <= len(runs) <= 3000
    assert len({run.lane for _, run, _ in runs}) == 1
    order = [(cand.gamma, run.index) for cand, run, _ in runs]
    assert order == sorted(order) and len({g for g, _ in order}) == 3
    runs.sort(key=lambda entry: entry[1].index)
    assert [run[:3] for _, run, _ in runs] == [(noise_key(seed), i, iteration_cap())
                                               for i in range(len(runs))]


@pytest.mark.parametrize("callers", [1, 2])
def test_priv_tune_runs_each_draw_from_a_fresh_noise_stream(callers):
    # each run follows the per-step descent on what a new Philox generator at
    # its key and counter draws, also when caller threads select at once
    select, ds, _ = long_selection()

    def record():
        runs = []
        select(runs)
        return runs

    for runs in on_caller_threads(record, callers):
        assert len(runs) >= 1000
        for cand, run, model in runs:
            sched = model.provenance.schedule
            want = noisy_descent(ds.signed_features(), cand.gamma / 3, sched.T,
                                 sched.sigma, sched.eta, True,
                                 fresh_block(run.key, run.index))
            assert np.linalg.norm(model.weights - want) <= 1e-12 * np.linalg.norm(want)


def test_priv_tune_run_weights_rebuild_from_the_seed_and_run_index():
    # alone in a lane of the width read from the public n, k and T, replayed
    # in reverse order
    select, ds, seed = long_selection()
    runs = []
    select(runs)
    runs.sort(key=lambda entry: entry[1].index)
    assert [run.index for _, run, _ in runs] == list(range(len(runs)))
    assert lane_width(ds.n, ds.dim, 2) == 32 < len(runs)  # many lanes' worth
    for i in reversed(range(len(runs))):
        cand, _, model = runs[i]
        rebuilt = alone(ds, cand, model, noise_key(seed), i)
        assert model.weights.tobytes() == rebuilt.tobytes()


def test_no_two_runs_of_a_selection_share_their_first_draws():
    select, ds, _ = long_selection()
    runs = []
    select(runs)
    first = {block_stream(run.key, run.index).standard_normal(ds.dim).tobytes()
             for _, run, _ in runs}
    assert len(first) == len(runs) >= 1000


def test_priv_tune_is_bit_identical_across_threads_and_to_fresh_streams():
    # the same selection on two caller threads at once, each moving its own
    # thread's generator, against one run alone
    select, _, _ = long_selection()
    runs = [select()]
    runs += on_caller_threads(select)  # with frequent thread switches
    runs.append(select())  # a second serial selection in the same process
    for model, cand in runs[1:]:
        assert cand is runs[0][1]
        assert model.weights.tobytes() == runs[0][0].weights.tobytes()


def test_a_lane_is_as_wide_as_its_runs_own_T_allows(monkeypatch):
    # the base pins T = 600 where the budget gives T = 2: the lanes are sized
    # for 600 steps, which at n = 20, k = 3 is 32 columns, as for 2 steps,
    # and their noise comes in blocks of 512 // 32 = 16 rows, so a lane's
    # noise stays within a lone run's 512 x k block.  One lane spans the
    # three candidates, so only its last descent is padded
    widths, blocks = [], []
    descend = optimizer._feature_descent

    def spy(signed, c, T, sigma, eta, averaging, draw, width=1):
        def recording(rows):
            block = draw(rows)
            blocks.append(block.base.size if block.base is not None else block.size)
            return block

        widths.append((width, signed.shape[0], T, signed.shape[1]))
        return descend(signed, c, T, sigma, eta, averaging, recording, width)

    monkeypatch.setattr(optimizer, "_feature_descent", spy)
    select, ds, _ = long_selection(NgdOverrides(T=600))
    runs = []
    select(runs)
    assert {width for width, *_ in widths} == {lane_width(ds.n, ds.dim, 600)} == {32}
    assert all(T == 600 and width * max(n, k) <= 2**15 for width, n, T, k in widths)
    assert len(widths) == -(-len(runs) // 32)
    assert len(blocks) == len(widths) * -(-600 // 16) and max(blocks) <= 512 * ds.dim
