import numpy as np
import pytest

from dpmargin.data import Dataset
from dpmargin.optimizer import LinearModel


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


def make_dataset(features, labels, bound=None):
    feats = np.asarray(features, dtype=np.float64)
    if bound is None:
        bound = float(max(np.linalg.norm(feats, axis=1).max(), 1.0))
    return Dataset(feats, np.asarray(labels, dtype=int), bound)


def random_unit_dataset(rng, n, d, bound=1.0):
    """Random points on the unit sphere with random labels."""
    feats = rng.standard_normal((n, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    return Dataset(feats * bound, labels, bound)
