import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmargin.data import LabeledPoint
from dpmargin.errors import DimensionError
from dpmargin.loss import (
    LossSpec,
    empirical_risk,
    hinge_loss,
    hinge_sensitivity,
    hinge_subgrad,
    zero_one_loss,
)

from conftest import random_unit_dataset


def pt(x, y):
    return LabeledPoint(np.asarray(x, dtype=float), y)


def test_hinge_zero_weights():
    assert hinge_loss(np.zeros(2), pt([1.0, 0.0], 1), 0.5) == 1.0


def test_hinge_kink_is_zero():
    # y<w,x> = c exactly
    assert hinge_loss(np.array([0.5, 0.0]), pt([1.0, 0.0], 1), 0.5) == 0.0


def test_hinge_hand_value():
    # 1 - (-0.5 / 0.25) = 3
    assert hinge_loss(np.array([1.0, 0.0]), pt([0.5, 0.0], -1), 0.25) == 3.0


def test_hinge_dim_mismatch():
    with pytest.raises(DimensionError):
        hinge_loss(np.zeros(3), pt([1.0, 0.0], 1), 1.0)


def test_subgrad_active_region():
    g = hinge_subgrad(np.zeros(2), pt([1.0, 0.0], 1), 0.5)
    np.testing.assert_allclose(g, [-2.0, 0.0])


def test_subgrad_inactive_and_kink_zero():
    p = pt([1.0, 0.0], 1)
    assert np.all(hinge_subgrad(np.array([1.0, 0.0]), p, 0.5) == 0.0)  # y<w,x> = 2c
    assert np.all(hinge_subgrad(np.array([0.5, 0.0]), p, 0.5) == 0.0)  # exactly at kink


def test_subgrad_matches_finite_differences(rng):
    h = 1e-6
    checked = 0
    while checked < 50:
        w = rng.standard_normal(4)
        x = rng.standard_normal(4)
        y = 1 if rng.random() < 0.5 else -1
        c = float(rng.uniform(0.2, 2.0))
        margin = y * float(w @ x)
        if abs(margin - c) < 1e-3:  # skip near the kink
            continue
        p = pt(x, y)
        g = hinge_subgrad(w, p, c)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (hinge_loss(w + e, p, c) - hinge_loss(w - e, p, c)) / (2 * h)
            assert fd == pytest.approx(g[j], abs=1e-6)
        checked += 1


def test_zero_one_cases():
    p = pt([1.0, 0.0], 1)
    assert zero_one_loss(np.array([1.0, 0.0]), p) == 0
    assert zero_one_loss(np.array([-1.0, 0.0]), p) == 1
    assert zero_one_loss(np.zeros(2), p) == 0  # tie counts as correct


def test_empirical_risk_all_correct_zero_one(rng):
    ds = random_unit_dataset(rng, 12, 3)
    # weights aligned with each signed point cannot be built in general; use
    # a separable construction instead
    w = np.array([1.0, 0.0, 0.0])
    labels = np.where(ds.features @ w >= 0, 1, -1)
    from conftest import make_dataset

    aligned = make_dataset(ds.features, labels)
    assert empirical_risk(w, aligned, LossSpec("zero_one")) == 0.0


def test_empirical_risk_averaged_is_summed_over_n(rng):
    ds = random_unit_dataset(rng, 7, 3)
    w = rng.standard_normal(3)
    spec = LossSpec("hinge", 0.7)
    assert empirical_risk(w, ds, spec, "averaged") == pytest.approx(
        empirical_risk(w, ds, spec, "summed") / ds.n, rel=1e-15
    )


def test_empirical_risk_matches_per_point_loop(rng):
    ds = random_unit_dataset(rng, 7, 4)
    w = rng.standard_normal(4)
    spec = LossSpec("hinge", 0.5)
    total = sum(hinge_loss(w, ds.point(i), 0.5) for i in range(ds.n))
    assert empirical_risk(w, ds, spec, "summed") == pytest.approx(total, rel=1e-12)


def test_hinge_sensitivity_values():
    assert hinge_sensitivity(1.0, 0.5) == 2.0
    assert hinge_sensitivity(0.7, 0.7) == 1.0


def test_hinge_sensitivity_validation():
    with pytest.raises(ValueError):
        hinge_sensitivity(0.0, 1.0)
    with pytest.raises(ValueError):
        hinge_sensitivity(1.0, 0.0)


# ---------------------------------------------------------------- properties

coords = st.lists(st.floats(-2, 2), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(coords, coords, st.sampled_from([-1, 1]), st.floats(0.1, 3.0))
def test_hinge_dominates_zero_one(wc, xc, y, c):
    w = np.asarray(wc)
    p = pt(xc, y)
    assert zero_one_loss(w, p) <= hinge_loss(w, p, c) + 1e-12


@settings(max_examples=100, deadline=None)
@given(coords, coords, coords, st.sampled_from([-1, 1]), st.floats(0.1, 3.0),
       st.floats(0.0, 1.0))
def test_hinge_convex_along_lines(w1c, w2c, xc, y, c, lam):
    w1, w2 = np.asarray(w1c), np.asarray(w2c)
    p = pt(xc, y)
    mix = hinge_loss(lam * w1 + (1 - lam) * w2, p, c)
    assert mix <= lam * hinge_loss(w1, p, c) + (1 - lam) * hinge_loss(w2, p, c) + 1e-9


@settings(max_examples=100, deadline=None)
@given(coords, coords, st.sampled_from([-1, 1]), st.floats(0.1, 3.0))
def test_subgrad_norm_bounded_by_sensitivity(wc, xc, y, c):
    w, x = np.asarray(wc), np.asarray(xc)
    b = max(float(np.linalg.norm(x)), 1e-9)
    g = hinge_subgrad(w, pt(xc, y), c)
    assert np.linalg.norm(g) <= hinge_sensitivity(b, c) + 1e-12


def test_zero_one_risk_in_unit_interval(rng):
    for _ in range(20):
        ds = random_unit_dataset(rng, 9, 3)
        w = rng.standard_normal(3) * rng.uniform(0, 5)
        r = empirical_risk(w, ds, LossSpec("zero_one"))
        assert 0.0 <= r <= 1.0
