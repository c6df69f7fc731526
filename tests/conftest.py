import sys
import threading

import numpy as np
import pytest

from dpmargin.data import Dataset
from dpmargin.optimizer import LinearModel
from dpmargin.projection import JlMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def built_models(monkeypatch):
    """The dim of every LinearModel constructed while the test runs, in order."""
    built = []
    original = LinearModel.__post_init__

    def counting(self):
        built.append(self.dim)
        original(self)

    monkeypatch.setattr(LinearModel, "__post_init__", counting)
    return built


@pytest.fixture
def gram_calls(monkeypatch):
    """(dataset, G) for every Dataset.gram call while the test runs, in order."""
    calls = []
    original = Dataset.gram

    def recording(self):
        gram = original(self)
        calls.append((self, gram))
        return gram

    monkeypatch.setattr(Dataset, "gram", recording)
    return calls


@pytest.fixture
def jl_generations(monkeypatch):
    """The JlMatrix of every JlMatrix.blocks call, each a generation of its
    entries, while the test runs, in order."""
    calls = []
    original = JlMatrix.blocks

    def recording(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(JlMatrix, "blocks", recording)
    return calls


def make_dataset(features, labels, bound=None):
    feats = np.asarray(features, dtype=np.float64)
    if bound is None:
        bound = float(max(np.linalg.norm(feats, axis=1).max(), 1.0))
    return Dataset(feats, np.asarray(labels, dtype=int), bound)


def on_caller_threads(fn, count=2):
    """[fn() for each of `count` threads], the threads started together, so
    their calls run at once; an exception raised on a thread is raised here.

    The interpreter switches threads every microsecond meanwhile, so threads
    running the same selection seldom stay in step, and state they wrongly
    shared would show in their bits."""
    results = [None] * count
    start = threading.Barrier(count)

    def call(slot):
        start.wait()
        try:
            results[slot] = fn()
        except BaseException as exc:  # re-raised on the calling thread below
            results[slot] = exc

    threads = [threading.Thread(target=call, args=(slot,)) for slot in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def fresh_block(key, index):
    """A new Philox generator at counter block `index` of the 128-bit `key`,
    sharing no state with the library's per-thread one."""
    words = np.array([key & (2**64 - 1), key >> 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=words, counter=[0, 0, index, 0]))


def random_unit_dataset(rng, n, d, bound=1.0):
    """Random points on the unit sphere with random labels."""
    feats = rng.standard_normal((n, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    return Dataset(feats * bound, labels, bound)
