import math

import numpy as np
import pytest

from dpmargin._seeding import TNB_RUNS, stream
from dpmargin.data import synth_margin_dataset
from dpmargin.errors import MissingContextError, ResourceError, UnsupportedError
from dpmargin.optimizer import LinearModel, Provenance
from dpmargin.projection import IdentityMap
from dpmargin.tuning import (
    Candidate,
    ScoreSpec,
    TnbDist,
    geometric_rate_for_failure,
    iter_tune,
    noisy_argmin,
    priv_tune,
    sample_tnb,
    score,
    tnb_mean,
    tnb_not_selected_prob,
    tnb_pgf,
    tnb_pmf,
)

from conftest import make_dataset


def planted(n=60, d=6, gamma=0.4, seed=0):
    return synth_margin_dataset(n, d, gamma, 0, seed=seed)[0]


def aligned_model(ds, scale=1.0):
    """Weights along the dataset's max-margin direction (perfect classifier)."""
    from dpmargin.data import hard_margin_direction

    _, w = hard_margin_direction(ds)
    return LinearModel(scale * w, ds.dim, Provenance(k=ds.dim))


# ---------------------------------------------------------------- score

def test_score_perfect_classifier_zero():
    ds = planted()
    assert score(aligned_model(ds), ds, ScoreSpec("empirical_zero_one")) == 0.0


def test_score_is_integer_count(rng):
    ds = planted(seed=3)
    w = rng.standard_normal(ds.dim)
    value = score(LinearModel(w, ds.dim), ds, ScoreSpec("empirical_zero_one"))
    assert value == int(value)
    assert 0 <= value <= ds.n


def test_score_penalized_frozen_value():
    # 2.5 * (10 ln(200) + ln(400)) computed with the math library = 147.43659553
    ds = planted(n=100, d=4, seed=1)
    model = LinearModel(np.zeros(4), 4, Provenance(k=10))
    base = score(model, ds, ScoreSpec("empirical_zero_one"))
    pen = score(model, ds, ScoreSpec("penalized_population", beta=0.01))
    assert pen - base == pytest.approx(147.43659553147086, abs=1e-9)


def test_score_penalized_default_beta_is_inverse_n_squared():
    ds = planted(n=50, d=4, seed=1)
    model = LinearModel(np.zeros(4), 4, Provenance(k=7))
    pen = score(model, ds, ScoreSpec("penalized_population"))
    expected = 2.5 * (7 * math.log(100) + math.log(4.0 * 50 * 50))
    base = score(model, ds, ScoreSpec("empirical_zero_one"))
    assert pen - base == pytest.approx(expected, abs=1e-9)


def test_score_penalized_requires_k():
    ds = planted(n=20, d=3, seed=2)
    model = LinearModel(np.zeros(3), 3)  # no provenance k
    with pytest.raises(MissingContextError):
        score(model, ds, ScoreSpec("penalized_population"))


def test_score_replacement_sensitivity_at_most_one():
    ds = planted(n=8, d=3, gamma=0.3, seed=4)
    w = np.array([1.0, -0.5, 0.25])
    base = score(LinearModel(w, 3), ds, ScoreSpec("empirical_zero_one"))
    for i in range(ds.n):
        for flip in (-1, 1):
            feats = ds.features.copy()
            labels = ds.labels.astype(int).copy()
            feats[i] = [0.9, 0.1, 0.0]
            labels[i] = flip
            other = make_dataset(feats, labels, bound=ds.norm_bound)
            changed = score(LinearModel(w, 3), other, ScoreSpec("empirical_zero_one"))
            assert abs(changed - base) <= 1.0


# ---------------------------------------------------------------- noisy argmin

def test_noisy_argmin_first_index_tie_break():
    rng = stream(0, 999)
    assert noisy_argmin([5.0, 5.0, 5.0], 0.0, rng) == 0


def test_noisy_argmin_scale_invariance_coupled_seeds():
    values = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    for seed in range(30):
        a = noisy_argmin(values, 0.8, stream(seed, 1))
        b = noisy_argmin(values * 5.0, 0.8 * 5.0, stream(seed, 1))
        assert a == b


def test_noisy_argmin_selection_utility_expected_bound(rng):
    # mean true score of the selected index <= min + 2 sigma sqrt(2 ln m) + MC slack
    values = np.array([0.0, 1.0, 2.0, 5.0, 0.4, 3.0, 2.5, 0.9])
    sigma = 1.3
    picks = [noisy_argmin(values, sigma, stream(s, 7)) for s in range(500)]
    selected = values[picks]
    bound = values.min() + 2 * sigma * math.sqrt(2 * math.log(len(values)))
    slack = 3 * selected.std(ddof=1) / math.sqrt(len(selected))
    assert selected.mean() <= bound + slack


# ---------------------------------------------------------------- iter_tune

def id_candidates(gammas, d):
    return [Candidate(g, IdentityMap(d)) for g in gammas]


def fake_base_factory(score_map):
    """Base returning a fixed-direction model scaled so its score is canned."""

    def base(candidate, mu, seed):
        return score_map[candidate.gamma]

    return base


def models_with_errors(ds, error_counts):
    """One model per requested zero-one count, built by flipping the separator
    away from the worst-margin points."""
    from dpmargin.data import hard_margin_direction

    _, w = hard_margin_direction(ds)
    scores = ds.signed_features() @ w
    order = np.argsort(scores)
    out = []
    for count in error_counts:
        if count == 0:
            out.append(LinearModel(w, ds.dim, Provenance(k=ds.dim)))
            continue
        # orthogonalized correction flipping exactly `count` nearest points
        target = ds.signed_features()[order[:count]].sum(axis=0)
        cand = w - 2.0 * target / max(np.linalg.norm(target), 1e-9)
        model = LinearModel(cand, ds.dim, Provenance(k=ds.dim))
        out.append(model)
    return out


def test_iter_tune_single_candidate_returned_regardless_of_noise():
    ds = planted(seed=6)
    cands = id_candidates([0.4], ds.dim)
    model = aligned_model(ds)
    picked_model, picked = iter_tune(lambda c, mu, s: model, cands, ds, mu=0.01,
                                     spec=ScoreSpec("empirical_zero_one"), seed=0)
    assert picked is cands[0] and picked_model is model


def test_iter_tune_noise_std_audit(monkeypatch):
    import dpmargin.tuning as tun

    seen = {}
    original = tun.noisy_argmin

    def spy(values, noise_std, rng):
        seen["noise_std"] = noise_std
        return original(values, noise_std, rng)

    monkeypatch.setattr(tun, "noisy_argmin", spy)
    ds = planted(seed=7)
    cands = id_candidates([0.2, 0.4, 0.8], ds.dim)
    mu = 0.7
    iter_tune(lambda c, m, s: aligned_model(ds), cands, ds, mu,
              ScoreSpec("empirical_zero_one"), seed=1)
    assert seen["noise_std"] == pytest.approx(math.sqrt(2 * 3) / mu, rel=1e-12)


def test_iter_tune_budget_split_passed_to_base():
    ds = planted(seed=8)
    cands = id_candidates([0.2, 0.4], ds.dim)
    budgets = []

    def base(candidate, mu, seed):
        budgets.append(mu)
        return aligned_model(ds)

    iter_tune(base, cands, ds, mu=0.6, spec=ScoreSpec("empirical_zero_one"), seed=1)
    assert budgets == [0.6 / 2.0] * 2  # mu / sqrt(2*2)


def test_iter_tune_deterministic_and_thread_invariant():
    ds = planted(seed=9)
    cands = id_candidates([0.1, 0.2, 0.4, 0.8], ds.dim)
    seeds_seen = {}

    def base(candidate, mu, seed):
        seeds_seen.setdefault(candidate.gamma, seed)
        rng = np.random.default_rng(seed)
        return LinearModel(rng.standard_normal(ds.dim), ds.dim,
                           Provenance(k=ds.dim))

    one = iter_tune(base, cands, ds, 0.5, ScoreSpec("empirical_zero_one"), seed=3,
                    threads=1)
    eight = iter_tune(base, cands, ds, 0.5, ScoreSpec("empirical_zero_one"), seed=3,
                      threads=8)
    assert one[1] is eight[1]
    np.testing.assert_array_equal(one[0].weights, eight[0].weights)


def test_iter_tune_picks_clearly_best_candidate():
    ds = planted(n=100, seed=10)
    models = models_with_errors(ds, [40, 0, 55])
    cands = id_candidates([0.1, 0.2, 0.4], ds.dim)
    table = dict(zip([0.1, 0.2, 0.4], models))

    def base(candidate, mu, seed):
        return table[candidate.gamma]

    # noise std = sqrt(6)/mu ~ 2.4 << the 40-error gap
    _, picked = iter_tune(base, cands, ds, mu=1.0,
                          spec=ScoreSpec("empirical_zero_one"), seed=2)
    assert picked.gamma == 0.2


# ---------------------------------------------------------------- TNB law

def test_tnb_pmf_geometric_closed_form():
    dist = TnbDist(1, 0.5)
    assert tnb_pmf(dist, 1) == 0.5
    assert tnb_pmf(dist, 2) == 0.25
    assert tnb_pmf(dist, 0) == 0.0
    for k in range(1, 101):
        assert tnb_pmf(TnbDist(1, 0.37), k) == pytest.approx(
            0.37 * 0.63 ** (k - 1), abs=1e-12
        )


def test_tnb_pmf_sums_to_one():
    for dist in (TnbDist(1, 0.2), TnbDist(0, 0.2)):
        total = sum(tnb_pmf(dist, k) for k in range(1, 400))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_tnb_mean_closed_forms():
    assert tnb_mean(TnbDist(1, 0.5)) == 2.0
    assert tnb_mean(TnbDist(0, 0.25)) == pytest.approx(3.0 / math.log(4.0), rel=1e-12)


def test_tnb_mean_matches_pmf_series():
    dist = TnbDist(0, 0.3)
    series = sum(k * tnb_pmf(dist, k) for k in range(1, 2000))
    assert tnb_mean(dist) == pytest.approx(series, rel=1e-9)


def test_tnb_pgf_geometric_form_and_series():
    dist = TnbDist(1, 0.4)
    for x in (0.3, 0.7, 1.0 - 1.0 / 8):
        closed = 0.4 * x / (1 - 0.6 * x)
        series = sum(x**k * tnb_pmf(dist, k) for k in range(1, 800))
        assert tnb_pgf(dist, x) == pytest.approx(closed, rel=1e-12)
        assert tnb_pgf(dist, x) == pytest.approx(series, rel=1e-9)


def test_tnb_not_selected_prob_monte_carlo():
    dist = TnbDist(1, 0.15)
    grid = 5
    rng = stream(0, 555)
    misses = 0
    trials = 4000
    ks = sample_tnb(dist, rng, size=trials)
    pick_rng = stream(1, 556)
    for k in ks:
        if 0 not in pick_rng.integers(0, grid, size=int(k)):
            misses += 1
    expected = tnb_not_selected_prob(dist, grid)
    assert misses / trials == pytest.approx(expected, abs=0.03)


def test_lemma_threshold_grid():
    # r <= beta/((1-beta)(m-1)) forces non-selection prob <= beta
    for beta in (0.01, 0.05, 0.2):
        for m in (2, 5, 13, 40):
            r_max = geometric_rate_for_failure(beta, m)
            dist = TnbDist(1, min(r_max, 0.999))
            assert tnb_not_selected_prob(dist, m) <= beta + 1e-12
            # slightly beyond the threshold the bound breaks
            if r_max * 1.1 < 1:
                worse = TnbDist(1, r_max * 1.1)
                assert tnb_not_selected_prob(worse, m) > beta


def test_sample_tnb_deterministic_and_clamped():
    dist = TnbDist(1, 0.5)
    assert sample_tnb(dist, 4) == sample_tnb(dist, 4)
    draws = sample_tnb(dist, 0, size=1000)
    assert draws.min() >= 1


def test_sample_tnb_empirical_pmf():
    dist = TnbDist(1, 0.5)
    draws = sample_tnb(dist, 3, size=20000)
    assert np.mean(draws == 1) == pytest.approx(0.5, abs=0.02)
    assert np.mean(draws == 2) == pytest.approx(0.25, abs=0.02)


def test_sample_tnb_mean_and_tail():
    dist = TnbDist(1, 0.02)
    draws = sample_tnb(dist, 8, size=30000)
    assert draws.mean() == pytest.approx(50.0, rel=0.05)
    beta = 0.05
    cutoff = math.ceil(math.log(beta) / math.log(1 - 0.02))
    assert np.mean(draws > cutoff) <= beta + 3 * math.sqrt(beta * (1 - beta) / 30000)


def test_tnb_unsupported_eta():
    with pytest.raises(UnsupportedError):
        sample_tnb(TnbDist(0, 0.5), 0)
    with pytest.raises(UnsupportedError):
        tnb_pmf(TnbDist(0.5, 0.5), 3)
    with pytest.raises(ValueError):
        TnbDist(1, 1.5)


# ---------------------------------------------------------------- priv_tune

def find_seed_with_k(dist, want):
    for seed in range(200):
        if sample_tnb(dist, stream(seed, TNB_RUNS)) == want:
            return seed
    raise AssertionError("no such seed in range")


def test_priv_tune_k_one_returns_single_run():
    ds = planted(seed=11)
    dist = TnbDist(1, 0.5)
    seed = find_seed_with_k(dist, 1)
    calls = []

    def base(candidate, mu, s):
        calls.append(candidate.gamma)
        return aligned_model(ds)

    _, picked = priv_tune(base, id_candidates([0.1, 0.4, 0.9], ds.dim), dist, ds,
                          mu=0.5, spec=ScoreSpec("empirical_zero_one"), seed=seed)
    assert len(calls) == 1
    assert picked.gamma == calls[0]


def test_priv_tune_per_run_noise_std(monkeypatch):
    import dpmargin.tuning as tun

    seen = {}
    original = tun.noisy_argmin

    def spy(values, noise_std, rng):
        seen["noise_std"] = noise_std
        return original(values, noise_std, rng)

    monkeypatch.setattr(tun, "noisy_argmin", spy)
    ds = planted(seed=12)
    mu = 0.4
    priv_tune(lambda c, m, s: aligned_model(ds), id_candidates([0.2, 0.4], ds.dim),
              TnbDist(1, 0.3), ds, mu, ScoreSpec("empirical_zero_one"), seed=1)
    assert seen["noise_std"] == pytest.approx(math.sqrt(2) / mu, rel=1e-12)


def test_priv_tune_base_budget_is_mu_over_sqrt2():
    ds = planted(seed=13)
    budgets = []

    def base(candidate, mu, s):
        budgets.append(mu)
        return aligned_model(ds)

    priv_tune(base, id_candidates([0.2, 0.4], ds.dim), TnbDist(1, 0.4), ds,
              mu=0.9, spec=ScoreSpec("empirical_zero_one"), seed=2)
    assert all(b == pytest.approx(0.9 / math.sqrt(2), rel=1e-12) for b in budgets)


def test_priv_tune_run_cap():
    ds = planted(seed=14)
    dist = TnbDist(1, 1e-4)
    seed = next(s for s in range(200)
                if sample_tnb(dist, stream(s, TNB_RUNS)) > 10)
    with pytest.raises(ResourceError):
        priv_tune(lambda c, m, s: aligned_model(ds), id_candidates([0.2], ds.dim),
                  dist, ds, 0.5, ScoreSpec("empirical_zero_one"), seed=seed,
                  run_cap=10)


def test_priv_tune_deterministic():
    ds = planted(seed=15)

    def base(candidate, mu, s):
        rng = np.random.default_rng(s)
        return LinearModel(rng.standard_normal(ds.dim), ds.dim, Provenance(k=ds.dim))

    cands = id_candidates([0.1, 0.3, 0.6], ds.dim)
    a = priv_tune(base, cands, TnbDist(1, 0.2), ds, 0.5,
                  ScoreSpec("empirical_zero_one"), seed=4)
    b = priv_tune(base, cands, TnbDist(1, 0.2), ds, 0.5,
                  ScoreSpec("empirical_zero_one"), seed=4)
    np.testing.assert_array_equal(a[0].weights, b[0].weights)
    assert a[1].gamma == b[1].gamma


def test_priv_tune_selection_utility_conditional_bound():
    # conditioned on the best index being drawn, the mean selected true score
    # is <= min + sigma sqrt(2 ln(1/r)) + MC slack
    values = np.array([0.0, 2.0, 4.0, 6.0, 8.0])
    r = 0.05
    sigma = 1.1
    dist = TnbDist(1, r)
    selected = []
    draws_rng = stream(0, 42)
    for trial in range(500):
        k = sample_tnb(dist, draws_rng)
        idx = draws_rng.integers(0, len(values), size=k)
        noisy = values[idx] + sigma * draws_rng.standard_normal(k)
        if 0 in idx:  # condition on the best candidate being drawn
            selected.append(values[idx[np.argmin(noisy)]])
    selected = np.asarray(selected)
    assert len(selected) > 300
    bound = values.min() + sigma * math.sqrt(2 * math.log(1 / r))
    slack = 3 * selected.std(ddof=1) / math.sqrt(len(selected))
    assert selected.mean() <= bound + slack


def test_tuner_noise_scales_come_from_privacy_module(monkeypatch):
    # intercept the accounting chokepoint; both tuners' injected stds must
    # be values it returned, not independently computed ones
    import dpmargin.tuning as tun

    produced = []
    orig_budget = tun.per_candidate_budget

    def budget_spy(mu, grid):
        base, unit = orig_budget(mu, grid)
        produced.append(unit)
        return base, unit

    monkeypatch.setattr(tun, "per_candidate_budget", budget_spy)

    injected = []
    orig_argmin = tun.noisy_argmin

    def argmin_spy(values, noise_std, rng):
        injected.append(noise_std)
        return orig_argmin(values, noise_std, rng)

    monkeypatch.setattr(tun, "noisy_argmin", argmin_spy)

    ds = planted(seed=30)
    cands = id_candidates([0.2, 0.4], ds.dim)
    iter_tune(lambda c, m, s: aligned_model(ds), cands, ds, 0.5,
              ScoreSpec("empirical_zero_one"), seed=1)
    priv_tune(lambda c, m, s: aligned_model(ds), cands, TnbDist(1, 0.4), ds, 0.5,
              ScoreSpec("empirical_zero_one"), seed=1)
    assert len(injected) == 2
    assert all(std in produced for std in injected)
