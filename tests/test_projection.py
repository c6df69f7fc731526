import math
import tracemalloc

import numpy as np
import pytest

from dpmargin._seeding import JL_SIGNS, stream
from dpmargin.data import geometric_margin_oracle, synth_margin_dataset
from dpmargin.errors import DimensionError
from dpmargin.projection import (
    BLOCK_ROWS,
    IdentityMap,
    lift,
    project_and_clip,
    projection_dim,
    sample_jl,
)

from conftest import make_dataset


# ---------------------------------------------------------------- dimension

def test_projection_dim_gamma_equals_b():
    k = projection_dim(1.0, 100, 8, 0.01, b=1.0, c_jl=8)
    assert k == math.ceil(8 * math.log(8 * 102 * 101 / 0.01))


def test_projection_dim_quarter_under_doubling():
    base = 8 * math.log(4 * 52 * 51 / 0.05)
    k1 = projection_dim(0.1, 50, 4, 0.05)
    k2 = projection_dim(0.2, 50, 4, 0.05)
    assert k1 == math.ceil(base / 0.01) and k2 == math.ceil(base / 0.04)


def test_projection_dim_frozen_value():
    # ceil(8 * (1/0.2)^2 * ln(8*102*101/0.01)) = ceil(200 * ln(8241600))
    # evaluated with the math library's high-precision log: 3184.94 -> 3185
    assert projection_dim(0.2, 100, 8, 0.01, b=1.0, c_jl=8) == 3185


def test_projection_dim_validation():
    with pytest.raises(ValueError):
        projection_dim(0.0, 10, 1, 0.1)
    with pytest.raises(ValueError):
        projection_dim(2.0, 10, 1, 0.1, b=1.0)


# ---------------------------------------------------------------- sampling

def test_sample_jl_deterministic():
    a = sample_jl(16, 9, seed=123)
    b = sample_jl(16, 9, seed=123)
    np.testing.assert_array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, sample_jl(16, 9, seed=124).entries)


def test_sample_jl_entries_exact():
    phi = sample_jl(25, 7, seed=5)
    assert set(np.unique(phi.entries)) == {-1 / 5.0, 1 / 5.0}
    # each row has squared norm d/k exactly
    np.testing.assert_array_equal((phi.entries**2).sum(axis=1), np.full(25, 7 / 25.0))


def test_sample_jl_mean_within_three_sigma():
    k, d = 100, 1000  # k*d = 1e5 draws
    phi = sample_jl(k, d, seed=77)
    scale = 1 / math.sqrt(k)
    mean = phi.entries.mean()
    sigma_mean = scale / math.sqrt(k * d)
    assert abs(mean) <= 3 * sigma_mean


@pytest.mark.parametrize("d", [599, 3000, 3001])
def test_streamed_blocks_are_one_full_draw(d):
    assert BLOCK_ROWS % 4 == 0  # four int8 draws share a 32-bit word
    k = 2 * BLOCK_ROWS + 37
    phi = sample_jl(k, d, seed=11)
    signs = stream(11, JL_SIGNS).integers(0, 2, size=(k, d), dtype=np.int8)
    full = (2.0 * signs - 1.0) / math.sqrt(k)
    blocks = list(phi.blocks())
    assert [len(block) for block in blocks] == [BLOCK_ROWS, BLOCK_ROWS, 37]
    assert np.concatenate(blocks).tobytes() == full.tobytes()


def test_block_projection_and_lift_match_the_whole_matrix(rng):
    phi = sample_jl(BLOCK_ROWS + 60, 50, seed=4)
    x = rng.standard_normal((30, 50))
    w_k = rng.standard_normal(phi.k)
    full = phi.entries
    np.testing.assert_allclose(phi.project_points(x), x @ full.T, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(phi.lift_weights(w_k), full.T @ w_k, rtol=1e-12, atol=1e-14)


def test_project_and_lift_hold_one_block_of_the_matrix(rng):
    n, k, d = 300, 4 * BLOCK_ROWS, 3000
    phi = sample_jl(k, d, seed=6)
    x = rng.standard_normal((n, d))
    w_k = rng.standard_normal(k)
    block = 9 * BLOCK_ROWS * d  # float64 entries and the int8 signs drawn for them
    for read, out_bytes in ((lambda: phi.project_points(x), 8 * n * k),
                            (lambda: phi.lift_weights(w_k), 8 * d)):
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out_bytes + 8 * BLOCK_ROWS * d < peak < out_bytes + block + 65536


# ---------------------------------------------------------------- project/clip

def test_project_within_ball_unchanged():
    ds, _ = synth_margin_dataset(30, 10, 0.4, 0, seed=4)
    phi = sample_jl(8, 10, seed=1)
    out = project_and_clip(phi, ds, ds.norm_bound)
    raw = ds.features @ phi.entries.T
    inside = np.linalg.norm(raw, axis=1) <= 2.0
    assert inside.any()
    np.testing.assert_array_equal(out.features[inside], raw[inside])
    np.testing.assert_array_equal(out.labels, ds.labels)
    assert out.norm_bound == 2.0


class _BlowUp:
    """Projection stub scaling every point by 3 (forces the clip to bind)."""

    def __init__(self, d):
        self.d = d
        self.k = d
        self.seed = None

    def project_points(self, feats):
        return 3.0 * feats


def test_project_clip_binds_at_two_v():
    ds = make_dataset([[1.0, 0.0]], [1], bound=1.0)
    out = project_and_clip(_BlowUp(2), ds, 1.0)
    assert np.linalg.norm(out.features[0]) == pytest.approx(2.0, rel=1e-15)


def test_project_and_clip_matches_projecting_the_features(rng):
    # project the features, then clip them radially: bit for bit, -0.0 included
    feats = rng.standard_normal((50, 40))
    feats[0] = 0.0
    feats[1, :5] = -0.0
    ds = make_dataset(feats, np.where(rng.random(50) < 0.5, 1, -1))
    for phi in (sample_jl(12, 40, seed=2), IdentityMap(40)):
        for v in (0.3, 100.0):
            raw = phi.project_points(ds.features)
            norms = np.linalg.norm(raw, axis=1)
            scale = np.minimum(1.0, np.divide(2.0 * v, norms, out=np.ones_like(norms),
                                              where=norms > 0))
            out = project_and_clip(phi, ds, v)
            expected = raw * scale[:, None]
            assert out.features.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_project_and_clip_builds_one_copy():
    ds, _ = synth_margin_dataset(2000, 400, 0.25, 15, seed=7)
    phi = sample_jl(200, 400, seed=3)
    copy = 2000 * 200 * 8
    tracemalloc.start()
    try:
        out = project_and_clip(phi, ds, ds.norm_bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dim == 200
    assert peak < 1.5 * copy  # the returned n x k rows and no second copy


def test_project_dim_mismatch():
    ds = make_dataset([[1.0, 0.0]], [1])
    with pytest.raises(DimensionError):
        project_and_clip(sample_jl(4, 3, 0), ds, 1.0)


# ---------------------------------------------------------------- lift

def test_lift_zero():
    phi = sample_jl(5, 9, seed=0)
    assert np.all(lift(phi, np.zeros(5)) == 0.0)


def test_lift_matches_manual_transpose_multiply(rng):
    phi = sample_jl(3, 5, seed=8)
    w_k = rng.standard_normal(3)
    manual = np.zeros(5)
    for i in range(5):
        for j in range(3):
            manual[i] += phi.entries[j, i] * w_k[j]
    np.testing.assert_allclose(lift(phi, w_k), manual, rtol=1e-15)


def test_adjoint_identity_to_1e12(rng):
    phi = sample_jl(7, 20, seed=9)
    for _ in range(20):
        w_k = rng.standard_normal(7)
        x = rng.standard_normal(20)
        lhs = float(w_k @ (phi.entries @ x))
        rhs = float(lift(phi, w_k) @ x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert np.sign(lhs) == np.sign(rhs)


def test_identity_map_passthrough(rng):
    ident = IdentityMap(6)
    x = rng.standard_normal((4, 6))
    np.testing.assert_array_equal(ident.project_points(x), x)
    w = rng.standard_normal(6)
    np.testing.assert_array_equal(lift(ident, w), w)
    assert ident.k == 6 and ident.seed is None


# ---------------------------------------------------------------- preservation

def test_margin_preservation_small_monte_carlo():
    gamma, beta, n, d = 0.4, 0.2, 40, 60
    ds, _ = synth_margin_dataset(n, d, gamma, 0, seed=13)
    k = projection_dim(gamma, n, 1, beta)
    trials, hits = 40, 0
    for t in range(trials):
        phi = sample_jl(k, d, seed=1000 + t)
        proj = project_and_clip(phi, ds, ds.norm_bound)
        if geometric_margin_oracle(proj, tol=1e-4) >= gamma / 3:
            hits += 1
    slack = 3 * math.sqrt(beta * (1 - beta) / trials)
    assert hits / trials >= 1 - beta - slack


def test_norm_distortion_bands():
    # the two-sided e/3 band needs a larger leading constant than the margin
    # conclusion does (per-point tail ~ 2 exp(-k e^2 / 36)); c_jl = 40 suffices
    gamma, beta, n, d = 0.5, 0.2, 30, 80
    ds, _ = synth_margin_dataset(n, d, gamma, 0, seed=14)
    k = projection_dim(gamma, n, 1, beta, c_jl=40)
    e = gamma / ds.norm_bound
    lo, hi = math.sqrt(1 - e / 3), math.sqrt(1 + e / 3)
    trials, hits = 40, 0
    for t in range(trials):
        phi = sample_jl(k, d, seed=2000 + t)
        ratios = np.linalg.norm(ds.features @ phi.entries.T, axis=1) / np.linalg.norm(
            ds.features, axis=1
        )
        if np.all((ratios >= lo) & (ratios <= hi)):
            hits += 1
    slack = 3 * math.sqrt(beta * (1 - beta) / trials)
    assert hits / trials >= 1 - beta - slack
