import json
import math
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import dpmargin.master as master_mod
from dpmargin.data import Dataset, synth_margin_dataset
from dpmargin.errors import PrivacyBudgetError, ResourceError, SizeError
from dpmargin.master import (
    MasterConfig,
    build_candidates,
    dp_adaptive_margin,
    grid_competitiveness_check,
    margin_grid,
    model_from_json,
    model_to_json,
    training_risk,
)
from dpmargin.privacy import budget_ledger
from dpmargin.projection import BLOCK_ROWS, IdentityMap, JlMatrix

from conftest import make_dataset, on_caller_threads, random_unit_dataset


# ---------------------------------------------------------------- margin grid

def test_margin_grid_n8():
    assert margin_grid(8) == [0.125, 0.25, 0.5, 1.0]


def test_margin_grid_n10():
    assert margin_grid(10) == [0.1, 0.2, 0.4, 0.8, 1.0]


def test_margin_grid_b_scaling():
    assert margin_grid(10, b=2.0) == [0.2, 0.4, 0.8, 1.6, 2.0]


def test_margin_grid_size_and_dedup():
    for n in (2, 7, 8, 100, 1024):
        grid = margin_grid(n)
        doubling = int(math.floor(math.log2(n))) + 1
        expected = doubling + (0 if 2 ** (doubling - 1) == n else 1)
        assert len(grid) == expected
        assert grid == sorted(grid)
        assert grid.count(1.0) == 1
        assert grid[0] == 1.0 / n and grid[-1] == 1.0


# ---------------------------------------------------------------- candidates

def test_candidates_identity_when_formula_exceeds_dim():
    cands = build_candidates(n=100, d=10, b=1.0, beta=1e-4, seed=0)
    assert all(isinstance(c.phi, IdentityMap) for c in cands)


def test_candidates_real_projection_for_large_d():
    cands = build_candidates(n=40, d=400, b=1.0, beta=1 / 1600, seed=0)
    kinds = {c.gamma: type(c.phi).__name__ for c in cands}
    assert kinds[1.0] == "JlMatrix"  # k ~ 135 < 400
    assert kinds[min(kinds)] == "IdentityMap"  # tiny gamma blows k past d


def test_candidates_depend_only_on_seed_and_index():
    a = build_candidates(n=40, d=400, b=1.0, beta=1 / 1600, seed=7)
    b = build_candidates(n=40, d=400, b=1.0, beta=1 / 1600, seed=7)
    for ca, cb in zip(a, b):
        if isinstance(ca.phi, JlMatrix):
            np.testing.assert_array_equal(ca.phi.entries, cb.phi.entries)


# ---------------------------------------------------------------- master runs

def small_synth(n=120, d=8, gamma=0.3, outliers=0, seed=0):
    return synth_margin_dataset(n, d, gamma, outliers, seed=seed)[0]


def test_master_end_to_end_low_risk():
    # max risk over nearby seeds measured at 0.015; 0.1 leaves wide margin
    ds = small_synth(n=600, gamma=0.35, seed=4)
    cfg = MasterConfig(epsilon=2.0, delta=1e-6, seed=5)
    result = dp_adaptive_margin(ds, cfg)
    assert training_risk(result.model, ds) <= 0.1
    assert result.gamma_out in margin_grid(ds.n)
    assert result.ledger["guarantee"] == "(2, 1e-06)-DP"


def test_master_deterministic_across_threads(gram_calls):
    # n = 80 < 2d = 200: every base run of the second shape takes the Gram form,
    # and its 8 identity runs share one G, built on the selection's own view
    # of the rows.  A serial run on a fresh dataset comes first; then two
    # caller threads run the same mechanism at once on one more fresh
    # dataset, and each builds exactly one G, on its own rows, with equal bits.
    cfg = MasterConfig(epsilon=2.0, delta=1e-6, seed=9)
    for shape in (dict(seed=6), dict(n=80, d=100, seed=6)):
        gram_calls.clear()
        ds = small_synth(**shape)
        runs = [dp_adaptive_margin(ds, cfg)]
        if ds.n < 2 * ds.dim:
            rows = gram_calls[0][0]
            assert len(gram_calls) == 8 and all(d is rows for d, _ in gram_calls)
            assert all(g is gram_calls[0][1] for _, g in gram_calls)
            assert rows is not ds and rows.signed_features() is ds.signed_features()
            assert ds._gram is None
        gram_calls.clear()
        shared = small_synth(**shape)
        runs += on_caller_threads(lambda: dp_adaptive_margin(shared, cfg))
        if ds.n < 2 * ds.dim:
            per_rows = {}
            for d, g in gram_calls:
                assert d is not shared and d.signed_features() is shared.signed_features()
                per_rows.setdefault(id(d), set()).add(id(g))
            assert len(gram_calls) == 16 and len(per_rows) == 2
            assert all(len(grams) == 1 for grams in per_rows.values())
            assert len({id(g) for _, g in gram_calls}) == 2
            assert all(np.array_equal(g, gram_calls[0][1]) for _, g in gram_calls)
            assert shared._gram is None
        for run in runs[1:]:
            np.testing.assert_array_equal(runs[0].model.weights, run.model.weights)
            assert runs[0].gamma_out == run.gamma_out


def test_master_builds_gram_once_per_dataset(gram_calls):
    # n = 80, d = 400: 6 identity runs on the selection's view of the data
    # and 2 JL runs (k = 246, 158), each on its own projected rows, all in
    # the Gram form.  Each selection builds its own three G, once each, and
    # the caller's dataset holds none.
    ds = small_synth(n=80, d=400, seed=6)
    cfg = MasterConfig(epsilon=2.0, delta=1e-6, seed=9)
    selections = []
    for _ in range(2):
        gram_calls.clear()
        dp_adaptive_margin(ds, cfg)
        assert len(gram_calls) == 8
        datasets = {id(d): d for d, _ in gram_calls}
        grams = {id(g): g for _, g in gram_calls}
        assert len(datasets) == len(grams) == 3 and ds._gram is None
        identity = [(d, g) for d, g in gram_calls
                    if d.signed_features() is ds.signed_features()]
        assert len(identity) == 6 and all(g is identity[0][1] for _, g in identity)
        selections.append(identity[0])
    (first, first_gram), (second, second_gram) = selections
    assert first is not second and first_gram is not second_gram
    np.testing.assert_array_equal(first_gram, second_gram)


def test_master_hinge_parameter_is_gamma_over_three(monkeypatch):
    seen = []
    original = master_mod.jlgd

    def spy(phi, c, dataset, mu, **kwargs):
        seen.append((c, mu))
        return original(phi, c, dataset, mu, **kwargs)

    monkeypatch.setattr(master_mod, "jlgd", spy)
    ds = small_synth(seed=7)
    dp_adaptive_margin(ds, MasterConfig(epsilon=1.0, delta=1e-5, seed=1))
    grid = margin_grid(ds.n)
    assert sorted(c for c, _ in seen) == sorted(g / 3.0 for g in grid)


def test_master_default_jl_failure_beta(monkeypatch):
    seen = []
    original = master_mod.projection_dim

    def spy(gamma, n, grid_size, beta, b=1.0, **kw):
        seen.append(beta)
        return original(gamma, n, grid_size, beta, b, **kw)

    monkeypatch.setattr(master_mod, "projection_dim", spy)
    ds = small_synth(seed=8)
    dp_adaptive_margin(ds, MasterConfig(epsilon=1.0, delta=1e-5, seed=1))
    assert all(beta == 1.0 / ds.n**2 for beta in seen)


def test_master_builds_one_model_per_identity_base_run(built_models):
    ds = small_synth(seed=8)
    assert all(isinstance(c.phi, IdentityMap)
               for c in build_candidates(ds.n, ds.dim, 1.0, 1.0 / ds.n**2, 1))
    dp_adaptive_margin(ds, MasterConfig(epsilon=1.0, delta=1e-5, seed=1))
    assert built_models == [ds.dim] * len(margin_grid(ds.n))


def test_master_projections_sampled_before_any_training(monkeypatch):
    events = []
    orig_sample = master_mod.sample_jl
    orig_jlgd = master_mod.jlgd

    def sample_spy(k, d, seed):
        events.append("sample")
        return orig_sample(k, d, seed)

    def jlgd_spy(*args, **kwargs):
        events.append("train")
        return orig_jlgd(*args, **kwargs)

    monkeypatch.setattr(master_mod, "sample_jl", sample_spy)
    monkeypatch.setattr(master_mod, "jlgd", jlgd_spy)
    ds = synth_margin_dataset(40, 400, 0.4, 0, seed=9)[0]
    dp_adaptive_margin(ds, MasterConfig(epsilon=1.0, delta=1e-5, seed=2))
    assert "sample" in events and "train" in events
    assert events.index("train") > max(i for i, e in enumerate(events) if e == "sample")


def test_master_iterate_generates_each_jl_matrix_to_project_and_to_lift(jl_generations):
    # each JL matrix is generated once to project its candidate's rows, and
    # the winner's once more to lift its weights: at seed 6 a JL candidate
    # wins, at seed 2 an identity one
    ds = synth_margin_dataset(40, 400, 0.4, 0, seed=9)[0]
    for seed, jl_wins in ((6, True), (2, False)):
        jl = [c.phi for c in build_candidates(ds.n, ds.dim, 1.0, 1.0 / ds.n**2, seed)
              if isinstance(c.phi, JlMatrix)]
        assert jl
        jl_generations.clear()
        result = dp_adaptive_margin(ds, MasterConfig(epsilon=1.0, delta=1e-5, seed=seed))
        winner = [phi for phi in jl if phi.seed == result.model.provenance.jl_seed]
        assert bool(winner) == jl_wins
        assert jl_generations == jl + winner


def test_master_iterate_peak_holds_one_jl_matrix():
    ds = synth_margin_dataset(200, 2000, 0.3, 2, seed=21)[0]
    n, d = ds.n, ds.dim
    ks = [c.phi.k for c in build_candidates(n, d, 1.0, 1.0 / n**2, 7)
          if isinstance(c.phi, JlMatrix)]
    k = max(ks)
    # the largest matrix, its projection, the data and G, in float64
    bound = 8 * (k * d + n * k + n * d + n * n)
    assert 8 * sum(ks) * d > bound  # all matrices at once would not fit
    tracemalloc.start()
    try:
        dp_adaptive_margin(ds, MasterConfig(epsilon=1.0, delta=1e-5, seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_master_iterate_peak_has_no_jl_matrix_term():
    ds = synth_margin_dataset(200, 2000, 0.3, 2, seed=21)[0]
    n, d = ds.n, ds.dim
    k = max(c.phi.k for c in build_candidates(n, d, 1.0, 1.0 / n**2, 7)
            if isinstance(c.phi, JlMatrix))
    tracemalloc.start()
    try:
        result = dp_adaptive_margin(ds, MasterConfig(epsilon=1.0, delta=1e-5, seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise_rows = min(result.model.provenance.schedule.T, 512)  # every run has this T
    # the largest run's n x k rows, their G and one noise block in float64, and
    # one matrix block in float64 with the int8 signs it is drawn from
    bound = 8 * (n * k + n * n + noise_rows * k) + 9 * BLOCK_ROWS * d
    assert 8 * k * d > bound  # the whole largest matrix would not fit
    assert peak < bound


@pytest.mark.parametrize("callers", [1, 2])
@pytest.mark.parametrize("tuner", ["iterate", "priv_tune"])
def test_master_training_gram_lives_from_its_first_to_its_last_reader(
        monkeypatch, tuner, callers):
    import dpmargin.optimizer as optimizer

    # iterate: 6 identity runs, then 2 JL runs; priv-tune: 1220 runs on 4
    # identity and 2 reused JL candidates.  Every run takes the Gram form.
    # Each caller thread trains on a dataset of its own, at once, and sees
    # only its own G, each recorded by a weakref
    caller = threading.local()
    original_gram, original_project = Dataset.gram, optimizer.project_and_clip

    def gram(self):
        built = self._gram is None
        g = original_gram(self)
        identity = self.signed_features() is caller.ds.signed_features()
        caller.grams.append((self is caller.ds, identity, built, weakref.ref(g)))
        return g

    def project(phi, dataset, v):
        caller.live_at_projection.append(sum(ref() is not None for *_, ref in caller.grams))
        return original_project(phi, dataset, v)

    monkeypatch.setattr(Dataset, "gram", gram)
    monkeypatch.setattr(optimizer, "project_and_clip", project)

    def train():
        ds, seed = ((small_synth(n=80, d=400, seed=6), 9) if tuner == "iterate"
                    else (small_synth(n=20, d=300, gamma=0.4, seed=3), 1))
        caller.ds, caller.grams, caller.live_at_projection = ds, [], []
        dp_adaptive_margin(ds, MasterConfig(epsilon=2.0, delta=1e-6, tuner=tuner,
                                            seed=seed))
        return ds, caller.grams, caller.live_at_projection

    for ds, grams, live_at_projection in on_caller_threads(train, callers):
        assert ds._gram is None and not any(on_ds for on_ds, *_ in grams)
        # the identity G is built once, by the first identity run
        identity = [built for _, on_view, built, _ in grams if on_view]
        assert identity[0] and not any(identity[1:])
        # the identity candidates come first, and every JL projection follows
        # the drop of every G built before it
        assert live_at_projection and not any(live_at_projection)
        assert all(ref() is None for *_, ref in grams)


def test_master_ledger_composition_exact():
    ds = small_synth(seed=10)
    result = dp_adaptive_margin(ds, MasterConfig(epsilon=1.5, delta=1e-5, seed=3))
    ledger = result.ledger
    assert ledger["composed_mu"] == pytest.approx(ledger["mu"], abs=1e-12)
    from dpmargin.privacy import gdp_to_approx_dp_high_privacy

    assert gdp_to_approx_dp_high_privacy(ledger["mu"], 1e-5) == pytest.approx(
        1.5, abs=1e-12
    )


def test_master_priv_tune_ledger_and_risk():
    ds = small_synth(n=30, d=6, gamma=0.4, seed=11)
    cfg = MasterConfig(epsilon=1.0, delta=1e-5, tuner="priv_tune", seed=4)
    result = dp_adaptive_margin(ds, cfg)
    assert result.ledger["epsilon"] == pytest.approx(1.0 + 1e-5, abs=1e-12)
    assert "epsilon + delta" in result.ledger["guarantee"]
    assert training_risk(result.model, ds) <= 0.34


@pytest.mark.parametrize("tuner", ["priv_tune", "iterate"])
def test_master_priv_tune_makes_one_jlgd_and_one_ngd_call_per_run(tuner, monkeypatch):
    # a traced benchmark run counts one master.jlgd and one optimizer.ngd
    # span per base run and sum T = runs T steps, lanes or not
    import dpmargin.optimizer as optimizer
    from dpmargin._seeding import TNB_RUNS, stream
    from dpmargin.optimizer import lane_width, run_length
    from dpmargin.tuning import TnbDist, sample_tnb

    calls, steps, lanes, widths = Counter(), [], Counter(), Counter()
    jlgd, ngd, descend = master_mod.jlgd, optimizer.ngd, optimizer._feature_descent

    def counted_jlgd(*args, **kwargs):
        calls["jlgd"] += 1
        return jlgd(*args, **kwargs)

    def counted_ngd(*args, **kwargs):
        calls["ngd"] += 1
        lanes[kwargs["seed"].lane] += 1
        model = ngd(*args, **kwargs)
        steps.append(model.provenance.schedule.T)
        return model

    def counted_descent(signed, c, T, sigma, eta, averaging, draw, width=1):
        widths[width] += 1
        return descend(signed, c, T, sigma, eta, averaging, draw, width)

    monkeypatch.setattr(master_mod, "jlgd", counted_jlgd)
    monkeypatch.setattr(optimizer, "ngd", counted_ngd)
    monkeypatch.setattr(optimizer, "_feature_descent", counted_descent)
    ds = small_synth(n=40, d=6, gamma=0.4, seed=11)
    cfg = MasterConfig(epsilon=2.0, delta=1e-6, tuner=tuner, seed=5)
    dp_adaptive_margin(ds, cfg)
    grid = len(margin_grid(ds.n))
    ledger = budget_ledger(cfg.epsilon, cfg.delta, tuner, grid, ds.n)
    if tuner == "iterate":
        runs, T = grid, run_length(ds.n, ledger["per_candidate_mu"])
    else:
        runs = sample_tnb(TnbDist(1, ledger["tnb_r"]), stream(cfg.seed, TNB_RUNS))
        T = run_length(ds.n, ledger["per_run_mu"])
        assert runs > 1000
    assert T > 1
    assert calls == {"jlgd": runs, "ngd": runs}
    assert len(steps) == runs and sum(steps) == runs * T
    # every candidate is an identity one, so the runs share one lane and
    # descend in lanes 32 wide, only the last padded
    assert len(lanes) == 1 and None not in lanes
    width = lane_width(ds.n, ds.dim, T)
    assert width == 32 and widths == {width: -(-runs // width)}


def replay_epsilon(x, n, delta, tuner):
    """An epsilon at which a base run's x = (n mu_run)^2 is `x`: near it for a
    fractional x, exactly in floats for an integer one."""
    grid = len(margin_grid(n))
    key = "per_candidate_mu" if tuner == "iterate" else "per_run_mu"

    def x_at(eps):
        return (n * budget_ledger(eps, delta, tuner, grid, n)[key]) ** 2

    eps = math.sqrt(x / x_at(1.0))
    if x != int(x):
        return eps
    for step in range(200):  # the nearest epsilons, one ulp at a time
        for cand in (eps + step * math.ulp(eps), eps - step * math.ulp(eps)):
            if x_at(cand) == x:
                return cand
    raise AssertionError(f"no epsilon gives x = {x} exactly")


@pytest.mark.parametrize("tuner", ["iterate", "priv_tune"])
@pytest.mark.parametrize("mode", ["averaged", "last_iterate"])
@pytest.mark.parametrize("x", [0.5, 3.3, 4.0])
def test_master_replayed_base_run_costs_stay_within_the_ledger_mu(tuner, mode, x,
                                                                  monkeypatch):
    # each base run's GDP cost, rebuilt from its recorded schedule: m noisy
    # steps read at noise sigma cost sqrt(m) * Delta / sigma, Delta = b / c
    import dpmargin.optimizer as optimizer

    n, delta = 30, 1e-5
    ds = small_synth(n=n, d=6, gamma=0.4, seed=11)
    runs = []
    original = optimizer.ngd

    def recording(c, dataset, mu, mode="averaged", seed=0, overrides=None):
        model = original(c, dataset, mu, mode=mode, seed=seed, overrides=overrides)
        runs.append((model.provenance.schedule, dataset.norm_bound / c, mode))
        return model

    monkeypatch.setattr(optimizer, "ngd", recording)
    cfg = MasterConfig(epsilon=replay_epsilon(x, n, delta, tuner), delta=delta,
                       tuner=tuner, output_mode=mode, seed=4)
    ledger = dp_adaptive_margin(ds, cfg).ledger
    assert {sched.T for sched, _, _ in runs} == {max(1, math.ceil(x))}

    def cost(sched, delta_sens, run_mode):
        read = sched.T if run_mode == "last_iterate" else sched.T - 1  # w_T; w_0..w_{T-1}
        return math.sqrt(read) * delta_sens / sched.sigma

    release = 1.0 / ledger["score_noise_std"]  # one score release
    if tuner == "iterate":  # all runs and all releases compose
        spent = [math.sqrt(math.fsum([cost(*run) ** 2 for run in runs]
                                     + [release ** 2] * len(runs)))]
    else:  # each run composes with its own release
        spent = [math.hypot(cost(*run), release) for run in runs]
    assert max(spent) <= ledger["mu"] * (1 + 1e-12)


@pytest.mark.parametrize("tuner", ["iterate", "priv_tune"])
def test_master_reads_the_iteration_cap_once_and_refuses_before_any_run(tuner,
                                                                        monkeypatch):
    import dpmargin.optimizer as optimizer
    import dpmargin.tuning as tuning

    reads, runs, steps = [], [], set()
    for module in (optimizer, tuning):
        monkeypatch.setattr(module, "iteration_cap",
                            lambda read=module.iteration_cap: reads.append(1) or read())
    original = master_mod.jlgd

    def recording(*args, **kwargs):
        runs.append(1)  # a run started
        model = original(*args, **kwargs)
        steps.add(model.provenance.schedule.T)
        return model

    monkeypatch.setattr(master_mod, "jlgd", recording)
    ds = small_synth(n=40, d=6, gamma=0.4, seed=11)
    cfg = MasterConfig(epsilon=2.0, delta=1e-5, tuner=tuner, seed=4)
    dp_adaptive_margin(ds, cfg)
    # once for the preflight, once by the selection, whatever the run count
    assert len(runs) >= 7 and len(reads) == 2
    (T,) = steps
    assert T > 1
    reads.clear()
    runs.clear()
    monkeypatch.setenv("DPMARGIN_T_CAP", str(T - 1))
    with pytest.raises(ResourceError, match=f"T = {T} exceeds the iteration cap {T - 1}"):
        dp_adaptive_margin(ds, cfg)
    assert runs == [] and len(reads) == 1


@pytest.mark.xfail(strict=True, reason="T = ceil(n^2 mu^2) = 1 at n = 30, so the "
                   "averaged iterate is w0 = 0 and scores 0 errors")
@pytest.mark.parametrize("tuner", ["iterate", "priv_tune"])
def test_master_small_n_model_is_not_vacuous(tuner):
    ds = small_synth(n=30, d=6, gamma=0.4, seed=11)
    result = dp_adaptive_margin(ds, MasterConfig(epsilon=1.0, delta=1e-5, tuner=tuner,
                                                 seed=4))
    assert np.any(result.model.weights != 0.0)


def test_master_rejects_unclipped_data():
    ds = make_dataset([[3.0, 0.0], [0.0, 1.0]], [1, -1], bound=1.0)
    with pytest.raises(ValueError, match="clip"):
        dp_adaptive_margin(ds, MasterConfig(epsilon=1.0, delta=1e-5))


def test_master_epsilon_precondition_propagates():
    ds = small_synth(seed=12)
    with pytest.raises(PrivacyBudgetError):
        dp_adaptive_margin(ds, MasterConfig(epsilon=500.0, delta=1e-2))


def test_master_output_mode_defaults():
    assert MasterConfig(1.0, 1e-5).resolved_mode() == "averaged"
    assert MasterConfig(1.0, 1e-5, score_kind="penalized_population").resolved_mode() \
        == "last_iterate"
    assert MasterConfig(1.0, 1e-5, output_mode="last_iterate").resolved_mode() \
        == "last_iterate"


# ---------------------------------------------------------------- serialization

def test_model_json_round_trip(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    ds = small_synth(seed=13)
    cfg = MasterConfig(epsilon=1.0, delta=1e-5, seed=5)
    result = dp_adaptive_margin(ds, cfg)
    text = model_to_json(result, cfg)
    doc = json.loads(text)
    for key in ("weights", "d", "gamma_out", "k", "jl_seed", "epsilon", "delta",
                "tuner", "score_kind", "timestamps"):
        assert key in doc
    assert doc["timestamps"]["created_unix"] == 1700000000
    model, parsed = model_from_json(text)
    np.testing.assert_allclose(model.weights, result.model.weights, rtol=1e-15)
    assert parsed["gamma_out"] == result.gamma_out
    # serialization is reproducible byte for byte under a pinned epoch
    assert model_to_json(result, cfg) == text


# ---------------------------------------------------------------- grid check

def test_grid_competitiveness_separable():
    ds = synth_margin_dataset(8, 2, 0.5, 0, seed=14)[0]
    assert grid_competitiveness_check(ds, epsilon=1.0) <= 4.0


def test_grid_competitiveness_single_flip():
    ds = synth_margin_dataset(9, 2, 0.5, 1, seed=15)[0]
    assert grid_competitiveness_check(ds, epsilon=1.0) <= 4.0


def test_grid_competitiveness_random_instances(rng):
    for trial in range(3):
        ds = random_unit_dataset(rng, 8, 2)
        ratio = grid_competitiveness_check(ds, epsilon=1.0)
        assert 0 < ratio <= 4.0


def test_grid_competitiveness_skips_margins_no_point_reaches():
    # at gamma = 1 only removing both points works; the continuous side keeps one
    ds = make_dataset([[0.5, 0.0], [0.0, 0.5]], [1, -1], bound=1.0)
    assert grid_competitiveness_check(ds, epsilon=1.0) == pytest.approx(1.0)


def test_grid_competitiveness_size_guard(rng):
    ds = random_unit_dataset(rng, 13, 2)
    with pytest.raises(SizeError):
        grid_competitiveness_check(ds, epsilon=1.0)


def test_master_penalized_score_end_to_end():
    ds = small_synth(n=400, gamma=0.4, seed=16)
    cfg = MasterConfig(epsilon=2.0, delta=1e-6, score_kind="penalized_population",
                       seed=6)
    result = dp_adaptive_margin(ds, cfg)
    assert result.ledger["output_mode"] == "last_iterate"
    assert result.ledger["score_kind"] == "penalized_population"
    assert training_risk(result.model, ds) <= 0.25
