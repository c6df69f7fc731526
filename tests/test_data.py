import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmargin.data import (
    Dataset,
    clip_norms,
    geometric_margin_oracle,
    hard_margin_direction,
    load_dataset,
    min_outliers_oracle,
    normalized_margin_oracle,
    save_csv,
    synth_margin_dataset,
)
from dpmargin.errors import (
    DataFormatError,
    DimensionError,
    GenerationError,
    LabelError,
    SizeError,
)

from conftest import make_dataset, random_unit_dataset


# ---------------------------------------------------------------- loading

def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,0.0,+1\n-1.0,0.0,-1\n")
    ds = load_dataset(path, "csv")
    assert ds.n == 2 and ds.dim == 2 and ds.norm_bound == 1.0
    assert list(ds.labels) == [1, -1]


def test_load_libsvm_sparse(tmp_path):
    path = tmp_path / "d.svm"
    path.write_text("+1 1:0.5 3:0.5\n-1 2:1.0\n")
    ds = load_dataset(path, "libsvm")
    assert ds.dim == 3  # widest 1-based index wins
    np.testing.assert_allclose(ds.features[0], [0.5, 0.0, 0.5])
    np.testing.assert_allclose(ds.features[1], [0.0, 1.0, 0.0])
    assert list(ds.labels) == [1, -1]


def test_load_csv_bad_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2\n")
    with pytest.raises(LabelError, match="line 1"):
        load_dataset(path, "csv")


def test_load_csv_zero_one_labels(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,0\n2.0,1\n")
    ds = load_dataset(path, "csv")
    assert list(ds.labels) == [-1, 1]


def test_load_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,1\nfoo,1\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_dataset(path, "csv")


def test_load_csv_inconsistent_dims(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0,1\n1.0,1\n")
    with pytest.raises(DimensionError):
        load_dataset(path, "csv")


def test_save_load_round_trip(tmp_path):
    ds, _ = synth_margin_dataset(20, 3, 0.4, 2, seed=5)
    path = tmp_path / "r.csv"
    save_csv(ds, path)
    back = load_dataset(path, "csv")
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


# ---------------------------------------------------------------- clipping

def test_clip_radial_projection():
    ds = make_dataset([[3.0, 4.0]], [1], bound=5.0)
    clipped = clip_norms(ds, 1.0)
    np.testing.assert_allclose(clipped.features[0], [0.6, 0.8])
    assert clipped.norm_bound == 1.0


def test_clip_inside_ball_unchanged_and_origin_fixed():
    ds = make_dataset([[0.3, 0.4], [0.0, 0.0]], [1, -1], bound=1.0)
    clipped = clip_norms(ds, 1.0)
    np.testing.assert_array_equal(clipped.features, ds.features)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2), st.floats(0.1, 3.0))
def test_clip_idempotent(coords, b):
    ds = make_dataset([coords], [1], bound=max(np.linalg.norm(coords), 1.0))
    once = clip_norms(ds, b)
    twice = clip_norms(once, b)
    np.testing.assert_array_equal(once.features, twice.features)


# ---------------------------------------------------------------- synthesis

def test_synth_clean_margin_at_least_gamma():
    ds, _ = synth_margin_dataset(100, 6, 0.3, 0, seed=11)
    assert ds.n == 100 and ds.norm_bound == 1.0
    assert geometric_margin_oracle(ds) >= 0.3 - 1e-6


def test_synth_outliers_flip_labels():
    ds, w_star = synth_margin_dataset(100, 6, 0.3, 5, seed=12)
    agree = ds.signed_features() @ w_star > 0
    assert int((~agree).sum()) == 5
    clean = ds.subset(np.nonzero(agree)[0])
    assert geometric_margin_oracle(clean) >= 0.3 - 1e-6


def test_synth_deterministic():
    a, wa = synth_margin_dataset(50, 4, 0.5, 3, seed=9)
    b, wb = synth_margin_dataset(50, 4, 0.5, 3, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(wa, wb)


def test_synth_different_seed_differs():
    a, _ = synth_margin_dataset(50, 4, 0.5, 0, seed=9)
    b, _ = synth_margin_dataset(50, 4, 0.5, 0, seed=10)
    assert not np.array_equal(a.features, b.features)


def test_synth_planted_scores_respect_margin():
    ds, w_star = synth_margin_dataset(500, 30, 0.45, 0, seed=3)
    assert (ds.signed_features() @ w_star).min() >= 0.45 - 1e-12


@pytest.mark.parametrize("kwargs", [
    dict(n=10, d=1, gamma=0.5),
    dict(n=10, d=3, gamma=1.5),
    dict(n=10, d=3, gamma=0.0),
    dict(n=10, d=3, gamma=0.5, n_outliers=5),
])
def test_synth_invalid_params(kwargs):
    with pytest.raises(GenerationError):
        synth_margin_dataset(seed=0, **{"n_outliers": 0, **kwargs})


# ---------------------------------------------------------------- margin oracle

def test_margin_antipodal_pair():
    ds = make_dataset([[1.0, 0.0], [-1.0, 0.0]], [1, -1])
    assert geometric_margin_oracle(ds) == pytest.approx(1.0, abs=1e-6)


def test_margin_contradictory_labels():
    ds = make_dataset([[1.0, 0.0], [1.0, 0.0]], [1, -1])
    assert geometric_margin_oracle(ds) == pytest.approx(0.0, abs=1e-6)


def grid_margin_2d(dataset, resolution=1e-3):
    """Brute-force direction sweep; independent check for d = 2 instances."""
    thetas = np.arange(0.0, 2 * math.pi, resolution)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    mins = (dataset.signed_features() @ dirs.T).min(axis=0)
    return max(float(mins.max()), 0.0)


def test_margin_three_point_case_vs_grid():
    s = 1 / math.sqrt(2)
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0], [-s, -s]], [1, 1, -1])
    expected = grid_margin_2d(ds)
    assert geometric_margin_oracle(ds) == pytest.approx(expected, abs=2e-3)
    assert expected == pytest.approx(s, abs=1e-3)  # hand geometry: mid-direction


def test_margin_matches_grid_on_random_2d(rng):
    for _ in range(10):
        ds = random_unit_dataset(rng, 8, 2)
        assert geometric_margin_oracle(ds) == pytest.approx(grid_margin_2d(ds), abs=2e-3)


def test_margin_monotone_under_removal(rng):
    for _ in range(5):
        ds = random_unit_dataset(rng, 9, 3)
        full = geometric_margin_oracle(ds)
        for drop in range(ds.n):
            keep = [i for i in range(ds.n) if i != drop]
            assert geometric_margin_oracle(ds.subset(keep)) >= full - 1e-9


def test_margin_witness_direction_achieves_margin():
    ds, _ = synth_margin_dataset(60, 5, 0.35, 0, seed=21)
    margin, direction = hard_margin_direction(ds)
    assert margin >= 0.35 - 1e-6
    achieved = (ds.signed_features() @ direction).min()
    assert achieved >= margin - 1e-5


def test_normalized_margin_equals_geometric_on_unit_sphere():
    ds, _ = synth_margin_dataset(40, 4, 0.3, 0, seed=2)
    geo = geometric_margin_oracle(ds)
    assert normalized_margin_oracle(ds) == pytest.approx(geo, abs=1e-6)


def test_normalized_margin_scale_invariant(rng):
    ds = random_unit_dataset(rng, 10, 3)
    scaled = Dataset(ds.features * 3.7, ds.labels.astype(int), 3.7)
    assert normalized_margin_oracle(scaled) == pytest.approx(
        normalized_margin_oracle(ds), abs=1e-6
    )


# ---------------------------------------------------------------- outlier oracle

def test_min_outliers_separable_needs_none():
    ds, _ = synth_margin_dataset(10, 3, 0.4, 0, seed=7)
    count, witness = min_outliers_oracle(ds, 0.4)
    assert count == 0 and witness == ()


def test_min_outliers_single_contradiction():
    ds = make_dataset([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]], [1, -1, -1])
    count, witness = min_outliers_oracle(ds, 0.9)
    assert count == 1 and witness == (2,)


def reference_min_outliers(dataset, gamma, tol=1e-6):
    """Independent re-enumeration using the 2-d direction sweep as the margin."""
    n = dataset.n
    for size in range(n):
        for removed in combinations(range(n), size):
            keep = [i for i in range(n) if i not in removed]
            if grid_margin_2d(dataset.subset(keep)) >= gamma - tol:
                return size
    return n - 1


def test_min_outliers_matches_independent_enumeration(rng):
    for trial in range(3):
        ds = random_unit_dataset(rng, 10, 2)
        for gamma in (0.2, 0.5):
            count, _ = min_outliers_oracle(ds, gamma, tol=3e-3)
            assert count == reference_min_outliers(ds, gamma, tol=3e-3)


def test_min_outliers_monotone_in_gamma(rng):
    ds = random_unit_dataset(rng, 9, 2)
    counts = [min_outliers_oracle(ds, g)[0] for g in (0.1, 0.3, 0.6, 0.9)]
    assert counts == sorted(counts)


def test_min_outliers_size_guard():
    ds, _ = synth_margin_dataset(17, 3, 0.4, 0, seed=1)
    with pytest.raises(SizeError):
        min_outliers_oracle(ds, 0.2)


def test_min_outliers_witness_complement_achieves_margin(rng):
    ds = random_unit_dataset(rng, 8, 2)
    count, witness = min_outliers_oracle(ds, 0.4)
    keep = [i for i in range(ds.n) if i not in witness]
    assert geometric_margin_oracle(ds.subset(keep)) >= 0.4 - 1e-5
    assert len(witness) == count


# ---------------------------------------------------------------- dataset type

def test_dataset_rejects_bad_labels():
    with pytest.raises(LabelError):
        make_dataset([[1.0, 0.0]], [2])


def test_dataset_rejects_nonfinite():
    with pytest.raises(DataFormatError):
        make_dataset([[np.nan, 0.0]], [1])


def test_dataset_arrays_immutable():
    ds = make_dataset([[1.0, 0.0]], [1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 2.0


def test_load_rejects_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("1.0,0.5,+1\n")
    with pytest.raises(DataFormatError, match="two"):
        load_dataset(path, "csv")


def test_dataset_rejects_zero_feature_columns(tmp_path):
    with pytest.raises(DataFormatError, match="feature"):
        Dataset(np.zeros((3, 0)), np.array([1, -1, 1]), 1.0)
    path = tmp_path / "labels_only.libsvm"
    path.write_text("1\n-1\n1\n")
    with pytest.raises(DataFormatError, match="feature"):
        load_dataset(path, "libsvm")
