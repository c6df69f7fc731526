import math
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from dpmargin._seeding import (
    CANDIDATE_PICK,
    SCORE_NOISE,
    TNB_RUNS,
    noise_key,
    stream,
)
from dpmargin.data import synth_margin_dataset
from dpmargin.errors import MissingContextError, ResourceError
from dpmargin.optimizer import (Lane, LinearModel, Provenance, SelectionRun, iteration_cap, jlgd,
                                project_rows)
from dpmargin.privacy import per_candidate_budget
from dpmargin.projection import BLOCK_ROWS, IdentityMap, JlMatrix, lift, sample_jl
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
    score_noise,
    tnb_not_selected_prob,
    tnb_pgf,
    tnb_pmf,
)

from conftest import make_dataset, on_caller_threads


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

    def base(candidate, rows, mu, seed):
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
    picked_model, picked = iter_tune(lambda c, rows, mu, s: model, cands, ds, mu=0.01,
                                     spec=ScoreSpec("empirical_zero_one"), seed=0)
    assert picked is cands[0] and picked_model is model


def test_iter_tune_noise_std_audit(monkeypatch):
    import dpmargin.tuning as tun

    seen = {}
    original = tun.score_noise

    def spy(noise_std, count, rng):
        seen["noise_std"] = noise_std
        return original(noise_std, count, rng)

    monkeypatch.setattr(tun, "score_noise", spy)
    ds = planted(seed=7)
    cands = id_candidates([0.2, 0.4, 0.8], ds.dim)
    mu = 0.7
    iter_tune(lambda c, rows, m, s: aligned_model(ds), cands, ds, mu,
              ScoreSpec("empirical_zero_one"), seed=1)
    assert seen["noise_std"] == pytest.approx(math.sqrt(2 * 3) / mu, rel=1e-12)


def test_iter_tune_budget_split_passed_to_base():
    ds = planted(seed=8)
    cands = id_candidates([0.2, 0.4], ds.dim)
    budgets = []

    def base(candidate, rows, mu, seed):
        budgets.append(mu)
        return aligned_model(ds)

    iter_tune(base, cands, ds, mu=0.6, spec=ScoreSpec("empirical_zero_one"), seed=1)
    assert budgets == [0.6 / 2.0] * 2  # mu / sqrt(2*2)


def test_iter_tune_deterministic_and_thread_invariant():
    ds = planted(seed=9)
    cands = id_candidates([0.1, 0.2, 0.4, 0.8], ds.dim)
    seeds_seen = {}

    def base(candidate, rows, mu, seed):
        seeds_seen.setdefault(candidate.gamma, seed)
        rng = np.random.default_rng(seed[:3])  # the run's key, index and cap
        return LinearModel(rng.standard_normal(ds.dim), ds.dim,
                           Provenance(k=ds.dim))

    def select():
        return iter_tune(base, cands, ds, 0.5, ScoreSpec("empirical_zero_one"), seed=3)

    one = select()
    for other in on_caller_threads(select):
        assert one[1] is other[1]
        np.testing.assert_array_equal(one[0].weights, other[0].weights)


def test_iter_tune_picks_clearly_best_candidate():
    ds = planted(n=100, seed=10)
    models = models_with_errors(ds, [40, 0, 55])
    cands = id_candidates([0.1, 0.2, 0.4], ds.dim)
    table = dict(zip([0.1, 0.2, 0.4], models))

    def base(candidate, rows, mu, seed):
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
    total = sum(tnb_pmf(TnbDist(1, 0.2), k) for k in range(1, 400))
    assert total == pytest.approx(1.0, abs=1e-9)


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
    for eta in (0, 0.5, 2):
        with pytest.raises(ValueError, match="eta = 1"):
            TnbDist(eta, 0.5)
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

    def base(candidate, rows, mu, s):
        calls.append(candidate.gamma)
        return aligned_model(ds)

    _, picked = priv_tune(base, id_candidates([0.1, 0.4, 0.9], ds.dim), dist, ds,
                          mu=0.5, spec=ScoreSpec("empirical_zero_one"), seed=seed)
    assert len(calls) == 1
    assert picked.gamma == calls[0]


def test_priv_tune_per_run_noise_std(monkeypatch):
    import dpmargin.tuning as tun

    seen = {}
    original = tun.score_noise

    def spy(noise_std, count, rng):
        seen["noise_std"] = noise_std
        return original(noise_std, count, rng)

    monkeypatch.setattr(tun, "score_noise", spy)
    ds = planted(seed=12)
    mu = 0.4
    priv_tune(lambda c, rows, m, s: aligned_model(ds), id_candidates([0.2, 0.4], ds.dim),
              TnbDist(1, 0.3), ds, mu, ScoreSpec("empirical_zero_one"), seed=1)
    assert seen["noise_std"] == pytest.approx(math.sqrt(2) / mu, rel=1e-12)


def test_priv_tune_base_budget_is_mu_over_sqrt2():
    ds = planted(seed=13)
    budgets = []

    def base(candidate, rows, mu, s):
        budgets.append(mu)
        return aligned_model(ds)

    priv_tune(base, id_candidates([0.2, 0.4], ds.dim), TnbDist(1, 0.4), ds,
              mu=0.9, spec=ScoreSpec("empirical_zero_one"), seed=2)
    assert all(b == pytest.approx(0.9 / math.sqrt(2), rel=1e-12) for b in budgets)


def test_priv_tune_run_cap(monkeypatch):
    import dpmargin.tuning as tun

    ds = planted(seed=14)
    dist = TnbDist(1, 1e-4)
    seed = next(s for s in range(200)
                if sample_tnb(dist, stream(s, TNB_RUNS)) > 10)
    k_runs = sample_tnb(dist, stream(seed, TNB_RUNS))
    monkeypatch.setattr(tun, "DEFAULT_RUN_CAP", 10)
    with pytest.raises(ResourceError,
                       match=rf"K = {k_runs} base runs, above the cap of 10; .*--tuner iterate"):
        priv_tune(lambda c, rows, m, s: aligned_model(ds), id_candidates([0.2], ds.dim),
                  dist, ds, 0.5, ScoreSpec("empirical_zero_one"), seed=seed)


def test_priv_tune_deterministic():
    ds = planted(seed=15)

    def base(candidate, rows, mu, s):
        rng = np.random.default_rng(s[:3])  # the run's key, index and cap
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
    orig_noise = tun.score_noise

    def noise_spy(noise_std, count, rng):
        injected.append(noise_std)
        return orig_noise(noise_std, count, rng)

    monkeypatch.setattr(tun, "score_noise", noise_spy)

    ds = planted(seed=30)
    cands = id_candidates([0.2, 0.4], ds.dim)
    iter_tune(lambda c, rows, m, s: aligned_model(ds), cands, ds, 0.5,
              ScoreSpec("empirical_zero_one"), seed=1)
    priv_tune(lambda c, rows, m, s: aligned_model(ds), cands, TnbDist(1, 0.4), ds, 0.5,
              ScoreSpec("empirical_zero_one"), seed=1)
    assert len(injected) == 2
    assert all(std in produced for std in injected)


# ---------------------------------------------------------------- streamed selection

def random_model_base(ds):
    """Base whose model depends only on the run seed."""

    def base(candidate, rows, mu, s):
        rng = np.random.default_rng(s[:3])  # the run's key, index and cap
        return LinearModel(rng.standard_normal(ds.dim), ds.dim, Provenance(k=ds.dim))

    return base


def test_priv_tune_holds_few_models_at_once():
    ds = planted(n=20, d=3, seed=16)
    dist = TnbDist(1, 1e-3)
    seed = next(s for s in range(200)
                if 1000 <= sample_tnb(dist, stream(s, TNB_RUNS)) <= 10000)
    make = random_model_base(ds)
    live = weakref.WeakValueDictionary()  # models are unhashable, so key by seed
    peak = [0]

    def base(candidate, rows, mu, s):
        model = make(candidate, rows, mu, s)
        live[s] = model
        peak[0] = max(peak[0], len(live))
        return model

    priv_tune(base, id_candidates([0.2, 0.4, 0.8], ds.dim), dist, ds, 0.5,
              ScoreSpec("empirical_zero_one"), seed=seed)
    # the running best, the model last scored and the one being built
    assert peak[0] <= 3


def test_priv_tune_models_own_their_weights_and_lanes_close_one_at_a_time():
    # a serial selection holds at most one lane at a time, one for each set
    # of rows, and each model's weights are its own copy, not a view of a
    # lane's buffer
    ds = planted(n=20, d=3, seed=16)
    cands = [Candidate(0.2, IdentityMap(3)), Candidate(0.4, sample_jl(2, 3, seed=1)),
             Candidate(0.8, sample_jl(2, 3, seed=2))]
    dist = TnbDist(1, 1e-3)
    seed = next(s for s in range(200)
                if 1000 <= sample_tnb(dist, stream(s, TNB_RUNS)) <= 3000)
    live = weakref.WeakSet()  # the lanes alive
    lanes, peak, models = [0], [0], []

    def base(candidate, rows, mu, s):
        if s.lane not in live:
            live.add(s.lane)
            lanes[0] += 1
        peak[0] = max(peak[0], len(live))
        model = jlgd(candidate.phi, candidate.gamma / 3, rows, mu, seed=s)
        models.append(model)
        return model

    priv_tune(base, cands, dist, ds, 0.5, ScoreSpec("empirical_zero_one"), seed=seed)
    assert peak[0] == 1 and lanes[0] == 3 and len(models) >= 1000
    assert all(model.weights.base is None for model in models)


@pytest.mark.parametrize("callers", [1, 2])
def test_streamed_selection_matches_noisy_argmin(callers):
    ds = planted(n=40, d=4, seed=17)
    cands = id_candidates([0.1, 0.2, 0.4, 0.8, 1.0], ds.dim)
    spec = ScoreSpec("empirical_zero_one")
    mu = 0.5
    dist = TnbDist(1, 0.05)
    base = random_model_base(ds)

    def reference(runs, noise_std, seed):
        seeds = [SelectionRun(noise_key(seed), i, iteration_cap()) for i in range(len(runs))]
        models = [base(c, ds, None, s) for c, s in zip(runs, seeds)]
        scores = [score(m, ds, spec) for m in models]
        pick = noisy_argmin(scores, noise_std, stream(seed, SCORE_NOISE))
        return models[pick], runs[pick]

    def select(seed):
        # both tuners on each caller thread, which select at once
        return (iter_tune(base, cands, ds, mu, spec, seed=seed),
                priv_tune(base, cands, dist, ds, mu, spec, seed=seed))

    for seed in range(20):
        k_runs = sample_tnb(dist, stream(seed, TNB_RUNS))
        picks = stream(seed, CANDIDATE_PICK).integers(0, len(cands), size=k_runs)
        want = (reference(cands, per_candidate_budget(mu, len(cands))[1], seed),
                reference([cands[int(i)] for i in picks],
                          per_candidate_budget(mu, 1)[1], seed))
        for got in on_caller_threads(lambda: select(seed), callers):
            for (model, cand), (want_model, want_cand) in zip(got, want):
                assert cand is want_cand
                np.testing.assert_array_equal(model.weights, want_model.weights)


def jl_fixture():
    """Two JL candidates, then an identity one, on a 40-row training set."""
    ds = planted(n=40, d=30, seed=20)
    return ds, [Candidate(0.4, sample_jl(10, 30, seed=1)),
                Candidate(0.8, sample_jl(6, 30, seed=2)),
                Candidate(0.1, IdentityMap(30))]


def rows_base(runs=None):
    """The master's base run: jlgd on the candidate's rows.  Appends each
    run's (candidate, budget, run, model) to `runs` when given."""

    def base(candidate, rows, mu, s):
        model = jlgd(candidate.phi, candidate.gamma / 3, rows, mu, seed=s)
        if runs is not None:
            runs.append((candidate, mu, s, model))
        return model

    return base


@pytest.mark.parametrize("callers", [1, 2])
def test_priv_tune_generates_each_reused_jl_matrix_once_before_the_first_run(
        callers, jl_generations, monkeypatch):
    import dpmargin.optimizer as optimizer

    # in one selection, by either tuner, each picked JL matrix is generated
    # once, just before its candidate's first run, to project the rows, and
    # once more, after the last run, only if its candidate wins; the identity
    # candidate's rows are a new dataset on the training set's own signed
    # rows, neither copied nor clipped again.  Each caller thread
    # selects among candidates of its own, at once, and reads only the
    # generations and projections of its own matrices.
    caller = threading.local()
    original = optimizer.project_and_clip

    def spy(phi, dataset, v):
        caller.projected.append(phi)
        return original(phi, dataset, v)

    monkeypatch.setattr(optimizer, "project_and_clip", spy)
    dist = TnbDist(1, 0.2)

    def uses(seed):
        k_runs = sample_tnb(dist, stream(seed, TNB_RUNS))
        picks = stream(seed, CANDIDATE_PICK).integers(0, 3, size=k_runs)
        return np.bincount(picks, minlength=3)

    def check(seed, tuner):
        ds, cands = jl_fixture()
        caller.projected = []
        at_first_run = {}  # gamma -> the generations when its first run began

        def generated():
            return [phi for phi in list(jl_generations)
                    if any(phi is c.phi for c in cands)]

        def base(candidate, rows, mu, s):
            if candidate.gamma not in at_first_run:
                at_first_run[candidate.gamma] = generated()
            assert rows.dim == candidate.phi.k and rows is not ds
            identity = isinstance(candidate.phi, IdentityMap)
            assert (rows.signed_features() is ds.signed_features()) == identity
            assert (rows.norm_bound == ds.norm_bound) == identity
            return jlgd(candidate.phi, candidate.gamma / 3, rows, mu, seed=s)

        spec = ScoreSpec("empirical_zero_one")
        if tuner == "iterate":
            used = [1, 1, 1]
            model, picked = iter_tune(base, cands, ds, 0.5, spec, seed=seed)
        else:
            used = uses(seed)
            model, picked = priv_tune(base, cands, dist, ds, 0.5, spec, seed=seed)
        jl = [c.phi for c, m in zip(cands, used) if m and isinstance(c.phi, JlMatrix)]
        # a candidate's first run follows its own projection and the earlier ones
        want = {c.gamma: jl[:sum(1 for e in cands[:j + 1] if e.phi in jl)]
                for j, (c, m) in enumerate(zip(cands, used)) if m}
        assert at_first_run == want
        won = isinstance(picked.phi, JlMatrix)
        assert generated() == jl + ([picked.phi] if won else [])
        assert caller.projected == jl  # never the identity map's
        assert any(picked is c for c in cands) and model.dim == 30
        return won

    winners = set()
    for seed in range(12):
        for tuner in ("iterate", "priv_tune"):
            jl_generations.clear()
            winners.update(on_caller_threads(lambda: check(seed, tuner), callers))
    assert winners == {True, False}  # JL and identity winners both seen
    # among them, a JL candidate picked more than once, one picked once, and one never
    assert {0, 1} <= {int(m) for seed in range(12) for m in uses(seed)[:2]}
    assert max(uses(seed)[:2].max() for seed in range(12)) > 1


def test_priv_tune_holds_one_jl_candidate_at_a_time_and_no_gram_in_its_runs(monkeypatch):
    import dpmargin.optimizer as optimizer

    # identity runs in the Gram form build one G on the selection's view of
    # the training rows; the JL candidates after them, each run several
    # times in lanes, hold their projected rows one at a time, also while the
    # next one projects, with the identity rows and their G already dropped
    ds = planted(n=40, d=30, seed=20)
    cands = [Candidate(0.1, IdentityMap(30)),
             Candidate(0.4, sample_jl(10, 30, seed=1)),
             Candidate(0.8, sample_jl(6, 30, seed=2))]
    dist = TnbDist(1, 0.05)

    def uses(seed):
        k_runs = sample_tnb(dist, stream(seed, TNB_RUNS))
        return np.bincount(stream(seed, CANDIDATE_PICK).integers(0, 3, size=k_runs),
                           minlength=3)

    seed = next(s for s in range(200) if uses(s).min() > 1)
    held_rows = weakref.WeakValueDictionary()  # id -> rows, while they live
    gram = []  # a weakref to the identity rows' G, once built
    peak, identity_runs, jl_grams, jl_lanes = [0, 0], [0], [], []
    original = optimizer.project_and_clip

    def spy(phi, dataset, v):
        peak[1] = max(peak[1], len(held_rows) + 1)  # the rows being projected
        jl_grams.append(gram[0]())
        return original(phi, dataset, v)

    monkeypatch.setattr(optimizer, "project_and_clip", spy)

    def base(candidate, rows, mu, s):
        held_rows[id(rows)] = rows
        peak[0] = max(peak[0], len(held_rows))
        if isinstance(candidate.phi, IdentityMap):
            model = jlgd(candidate.phi, candidate.gamma / 3, rows, mu, seed=s)
            if not gram:
                gram.append(weakref.ref(rows._gram))
            assert rows._gram is gram[0]()  # one shared G
            identity_runs[0] += 1
            return model
        jl_grams.append(gram[0]())
        jl_lanes.append(s.lane is not None)  # not the lane: it holds the rows
        return jlgd(candidate.phi, candidate.gamma / 3, rows, mu, seed=s)

    priv_tune(base, cands, dist, ds, 0.5, ScoreSpec("empirical_zero_one"), seed=seed)
    assert identity_runs[0] == uses(seed)[0]
    # two projections, then every JL run: none sees the identity G alive
    assert len(jl_grams) == 2 + uses(seed)[1:].sum() and all(g is None for g in jl_grams)
    assert all(jl_lanes)
    assert peak == [1, 1] and ds._gram is None


def test_priv_tune_peak_holds_no_whole_jl_matrix():
    # one JL candidate, four blocks tall, run several times: its matrix is
    # generated a block at a time to project the rows and to lift the
    # winner, so the selection peaks well below one whole k x d matrix
    n, k, d = 40, 4 * BLOCK_ROWS, 2000
    ds = planted(n=n, d=d, seed=21)
    cands = [Candidate(0.8, sample_jl(k, d, seed=3))]
    dist = TnbDist(1, 0.3)
    seed = next(s for s in range(200) if sample_tnb(dist, stream(s, TNB_RUNS)) > 2)
    ds.signed_features()
    tracemalloc.start()
    try:
        model, _ = priv_tune(rows_base(), cands, dist, ds, 0.5,
                             ScoreSpec("empirical_zero_one"), seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.dim == d
    assert 8 * BLOCK_ROWS * d < peak < 8 * k * d


def test_iter_tune_releases_gram_when_a_run_fails():
    # three identity candidates in the Gram form (T = 6,667): the first run
    # builds G on the selection's rows, and the second raises.  The held
    # traceback keeps the failing selection's frame, and so its rows and G,
    # alive; once it is dropped, G is unreachable, and the caller's dataset
    # never held one.  The runs share a lane, which holds the rows, so the
    # base keeps their indices, not the runs
    ds = synth_margin_dataset(40, 60, 0.3, 0, seed=1)[0]
    calls, grams = [], []

    def base(candidate, rows, mu, s):
        assert s.lane is not None
        calls.append(s.index)
        if len(calls) == 2:
            raise RuntimeError("second run fails")
        model = jlgd(candidate.phi, candidate.gamma / 3, rows, mu, seed=s)
        assert model.provenance.schedule.T == 6667
        grams.append(weakref.ref(rows._gram))
        return model

    with pytest.raises(RuntimeError, match="second run fails") as failure:
        iter_tune(base, id_candidates([0.2, 0.4, 0.8], ds.dim), ds, 5.0,
                  ScoreSpec("empirical_zero_one"), seed=0)
    assert len(calls) == 2 and len(grams) == 1 and grams[0]() is not None
    del failure
    assert grams[0]() is None and ds._gram is None


@pytest.mark.parametrize("callers", [1, 2])
def test_priv_tune_projects_each_reused_jl_candidate_once(callers, monkeypatch):
    import dpmargin.optimizer as optimizer

    dist = TnbDist(1, 0.2)
    seed = 3  # both JL candidates run more than once, the identity one never
    picks = stream(seed, CANDIDATE_PICK).integers(
        0, 3, size=sample_tnb(dist, stream(seed, TNB_RUNS)))
    assert min(np.bincount(picks, minlength=3)[:2]) > 1 and 2 not in picks
    # each caller thread selects among candidates of its own, at once
    caller = threading.local()
    original = optimizer.project_and_clip

    def spy(phi, dataset, v):
        caller.projected.append(phi)
        return original(phi, dataset, v)

    monkeypatch.setattr(optimizer, "project_and_clip", spy)

    def alone(run, cand):
        """The run again, alone in a lane of the width `ngd` gives its lane."""
        return run._replace(lane=run.lane and Lane(run.key, [(run.index, cand.c)]))

    def check():
        ds, cands = jl_fixture()
        caller.projected, runs = [], []
        spec = ScoreSpec("empirical_zero_one")
        model, picked = priv_tune(rows_base(runs), cands, dist, ds, 0.5, spec, seed=seed)
        assert Counter(caller.projected) == {cands[0].phi: 1, cands[1].phi: 1}
        assert len(runs) == len(picks)
        noise = score_noise(per_candidate_budget(0.5, 1)[1], len(picks),
                            stream(seed, SCORE_NOISE))
        noisy, lifted = {}, {}
        for cand, mu, s, run_model in runs:
            # each run's k-dim bits, descended alone on freshly projected rows
            fresh = JlMatrix(cand.phi.k, cand.phi.d, cand.phi.seed)
            rows = project_rows(fresh, ds)
            again = jlgd(fresh, cand.c, rows, mu, seed=alone(s, cand))
            assert run_model.dim == cand.phi.k
            assert run_model.weights.tobytes() == again.weights.tobytes()
            noisy[s.index] = score(again, rows, spec) + noise[s.index]
            lifted[s.index] = lift(fresh, again.weights)
        # the winner, the least noisy k-space score, is returned lifted to d
        best = min(noisy, key=lambda i: (noisy[i], i))
        assert picked is cands[picks[best]] and isinstance(picked.phi, JlMatrix)
        assert model.dim == 30 and model.provenance.jl_seed == picked.phi.seed
        assert model.weights.tobytes() == lifted[best].tobytes()

    on_caller_threads(check, callers)


@pytest.mark.parametrize("callers", [1, 2])
def test_streamed_selection_first_index_wins_ties(callers):
    import dpmargin.tuning as tun

    ds = planted(n=30, d=3, seed=18)
    cands = id_candidates([0.1, 0.2, 0.4, 0.8], ds.dim)
    w = np.ones(ds.dim)

    def base(candidate, rows, mu, s):
        return LinearModel(w, ds.dim, Provenance(k=ds.dim))

    def select():
        return tun._private_select(base, cands, np.arange(len(cands)), ds, 0.5, 0.0,
                                   ScoreSpec("empirical_zero_one"), 0)

    for _, picked in on_caller_threads(select, callers):
        assert picked is cands[0]


def test_selection_stops_at_the_first_failing_score():
    ds = planted(n=20, d=3, seed=19)
    cands = id_candidates([0.1] * 400, ds.dim)
    calls = []

    def base(candidate, rows, mu, s):
        calls.append(s)
        return LinearModel(np.ones(ds.dim), ds.dim)  # no k: penalized score fails

    with pytest.raises(MissingContextError):
        iter_tune(base, cands, ds, 0.5, ScoreSpec("penalized_population"), seed=0)
    assert len(calls) == 1
