import math

import numpy as np
import pytest

from dpmargin.errors import PrivacyBudgetError
from dpmargin.privacy import (
    budget_ledger,
    compose_gdp,
    gaussian_noise_std,
    gdp_to_approx_dp,
    gdp_to_approx_dp_high_privacy,
    master_iter_budget,
    master_tnb_budget,
    per_candidate_budget,
    tnb_tune_privacy,
)


# ---------------------------------------------------------------- composition

def test_compose_singleton():
    assert compose_gdp([0.37]) == 0.37


def test_compose_m_copies_round_trip():
    for m in (1, 2, 7, 64):
        mu = 0.83
        assert compose_gdp([mu / math.sqrt(m)] * m) == pytest.approx(mu, abs=1e-12)


def test_compose_three_four_five():
    assert compose_gdp([0.3, 0.4]) == pytest.approx(0.5, abs=1e-15)


def test_compose_permutation_invariant_and_associative(rng):
    mus = list(rng.uniform(0.01, 2.0, size=6))
    shuffled = list(rng.permutation(mus))
    assert compose_gdp(mus) == pytest.approx(compose_gdp(shuffled), abs=1e-12)
    split = compose_gdp([compose_gdp(mus[:3]), compose_gdp(mus[3:])])
    assert split == pytest.approx(compose_gdp(mus), abs=1e-12)


def test_compose_rejects_empty_and_nonpositive():
    with pytest.raises(PrivacyBudgetError):
        compose_gdp([])
    with pytest.raises(PrivacyBudgetError):
        compose_gdp([0.1, 0.0])


# ---------------------------------------------------------------- conversions

def test_gdp_to_approx_dp_closed_form():
    expected = 0.5 + math.sqrt(2 * math.log(1e5))
    assert gdp_to_approx_dp(1.0, 1e-5) == pytest.approx(expected, abs=1e-12)


def test_gdp_to_approx_dp_half_log_case():
    # delta = e^{-1/2} so ln(1/delta) = 1/2 and eps = 0.5 + 1 = 1.5
    assert gdp_to_approx_dp(1.0, math.exp(-0.5)) == pytest.approx(1.5, abs=1e-12)


def test_gdp_to_approx_dp_increasing_in_mu():
    eps = [gdp_to_approx_dp(mu, 1e-6) for mu in np.linspace(0.01, 3.0, 40)]
    assert all(a < b for a, b in zip(eps, eps[1:]))


def test_conversions_monotone_grid():
    mus = np.linspace(0.05, 2.0, 15)
    deltas = np.logspace(-8, -2, 12)
    for delta in deltas:
        col = [gdp_to_approx_dp(m, delta) for m in mus]
        assert all(a < b for a, b in zip(col, col[1:]))
    for mu in mus:
        row = [gdp_to_approx_dp(mu, d) for d in deltas]
        assert all(a > b for a, b in zip(row, row[1:]))  # decreasing in delta


def test_high_privacy_conversion_value():
    expected = 0.2 * math.sqrt(2 * math.log(1e5))
    assert gdp_to_approx_dp_high_privacy(0.1, 1e-5) == pytest.approx(expected, abs=1e-12)


def test_high_privacy_dominates_exact(rng):
    for _ in range(50):
        delta = float(10 ** rng.uniform(-9, -2))
        bound = 2 * math.sqrt(2 * math.log(1 / delta))
        mu = float(rng.uniform(0.01, bound))
        assert gdp_to_approx_dp_high_privacy(mu, delta) >= gdp_to_approx_dp(mu, delta)


def test_high_privacy_boundary_accepted_and_beyond_rejected():
    delta = 1e-5
    bound = 2 * math.sqrt(2 * math.log(1 / delta))
    gdp_to_approx_dp_high_privacy(bound, delta)  # boundary accepted
    with pytest.raises(PrivacyBudgetError, match="2 sqrt"):
        gdp_to_approx_dp_high_privacy(bound * 1.001, delta)


# ---------------------------------------------------------------- master budgets

def test_master_iter_budget_value_and_round_trip():
    mu = master_iter_budget(1.0, 1e-5)
    assert mu == pytest.approx(1.0 / (2 * math.sqrt(2 * math.log(1e5))), abs=1e-12)
    assert gdp_to_approx_dp_high_privacy(mu, 1e-5) == pytest.approx(1.0, abs=1e-12)


def test_master_iter_budget_boundary():
    delta = 1e-4
    master_iter_budget(8 * math.log(1 / delta), delta)  # boundary accepted
    with pytest.raises(PrivacyBudgetError):
        master_iter_budget(8 * math.log(1 / delta) * 1.01, delta)
    with pytest.raises(PrivacyBudgetError):
        master_iter_budget(-1.0, delta)


def test_per_candidate_budget_split():
    base, noise_unit = per_candidate_budget(0.9, 1)
    assert base == pytest.approx(0.9 / math.sqrt(2), abs=1e-15)
    assert noise_unit == pytest.approx(math.sqrt(2) / 0.9, abs=1e-12)
    for grid in (1, 3, 8, 13):
        base, _ = per_candidate_budget(0.9, grid)
        assert compose_gdp([base] * (2 * grid)) == pytest.approx(0.9, abs=1e-12)


def test_per_candidate_budget_frozen_example():
    base, _ = per_candidate_budget(0.104, 8)
    assert base == pytest.approx(0.104 / 4.0, abs=1e-12)  # sqrt(16) = 4


# ---------------------------------------------------------------- advanced tuner

def test_tnb_tune_privacy_closed_form():
    mu, r, delta = 0.05, 1e-4, 1e-5
    expected = 1.5 * mu**2 + 3 * mu * math.sqrt(2 * math.log(1e9)) + delta
    assert tnb_tune_privacy(mu, r, delta) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.9694447118, abs=1e-9)


def test_tnb_simplified_dominates(rng):
    for _ in range(50):
        delta = float(10 ** rng.uniform(-8, -2))
        r = float(10 ** rng.uniform(-6, -1))
        bound = 2 * math.sqrt(2 * math.log(1 / (r * delta)))
        mu = float(rng.uniform(0.001, bound))
        assert tnb_tune_privacy(mu, r, delta, simplified=True) >= tnb_tune_privacy(
            mu, r, delta
        )


def test_tnb_tune_privacy_limit_is_delta():
    eps = tnb_tune_privacy(1e-12, 1e-4, 1e-5)
    assert eps == pytest.approx(1e-5, rel=1e-4)


def test_master_tnb_budget_round_trip():
    eps, delta, grid, n = 1.0, 1e-5, 8, 100
    mu, r = master_tnb_budget(eps, delta, grid, n)
    assert r == pytest.approx(1.0 / 79992, abs=1e-18)
    assert tnb_tune_privacy(mu, r, delta, simplified=True) == pytest.approx(
        eps + delta, abs=1e-12
    )


def test_master_tnb_budget_epsilon_range():
    with pytest.raises(PrivacyBudgetError):
        master_tnb_budget(1e-5, 1e-5, 8, 100)  # eps = delta boundary rejected
    cap = 24 * math.log(8 * 9999 / 1e-5)
    with pytest.raises(PrivacyBudgetError):
        master_tnb_budget(cap, 1e-5, 8, 100)
    master_tnb_budget(cap * 0.999, 1e-5, 8, 100)  # just inside


# ---------------------------------------------------------------- noise chokepoint

def test_gaussian_noise_std():
    assert gaussian_noise_std(2.0, 0.5) == 4.0
    with pytest.raises(PrivacyBudgetError):
        gaussian_noise_std(1.0, 0.0)


# ---------------------------------------------------------------- ledger

def test_budget_ledger_priv_tune_split_and_preconditions():
    ledger = budget_ledger(1.0, 1e-5, "priv_tune", 8, n=100)
    assert (ledger["per_run_mu"], ledger["score_noise_std"]) == per_candidate_budget(
        ledger["mu"], 1
    )
    with pytest.raises(PrivacyBudgetError, match="needs the dataset size n"):
        budget_ledger(1.0, 1e-5, "priv_tune", 8)
    with pytest.raises(ValueError, match="unknown tuner"):
        budget_ledger(1.0, 1e-5, "grid", 8, n=100)


def test_conversion_dominates_exact_gaussian_tradeoff():
    # independent check: at the closed form's epsilon, the exact Gaussian
    # hockey-stick delta must not exceed the claimed delta
    from scipy.stats import norm

    def exact_delta(eps, mu):
        return float(norm.cdf(-eps / mu + mu / 2)
                     - math.exp(eps) * norm.cdf(-eps / mu - mu / 2))

    for mu in np.linspace(0.05, 3.0, 12):
        for delta in np.logspace(-9, -2, 10):
            eps = gdp_to_approx_dp(float(mu), float(delta))
            assert exact_delta(eps, float(mu)) <= delta
