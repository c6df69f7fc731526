import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmargin._seeding import NGD_NOISE, stream
from dpmargin.data import Dataset, synth_margin_dataset
from dpmargin.errors import ResourceError
from dpmargin.loss import LossSpec, empirical_risk, hinge_sensitivity
from dpmargin.optimizer import (
    BETA_OPT,
    LinearModel,
    NgdOverrides,
    Provenance,
    _feature_descent,
    _gram_descent,
    _gram_pays,
    jlgd,
    ngd,
    resolve_schedule,
)
from dpmargin.projection import IdentityMap, lift, project_and_clip, sample_jl

from conftest import random_unit_dataset


def planted(n=120, d=8, gamma=0.4, outliers=0, seed=0):
    return synth_margin_dataset(n, d, gamma, outliers, seed=seed)[0]


# ---------------------------------------------------------------- schedules

def test_schedule_defaults():
    n, k, delta_sens, mu = 50, 6, 2.0, 0.3
    T, sigma, eta = resolve_schedule(n, k, delta_sens, mu, "averaged",
                                     NgdOverrides())
    assert T == math.ceil((n * mu) ** 2)
    assert sigma == n * delta_sens
    assert eta == pytest.approx(
        math.sqrt(1.0 / (T * ((n * delta_sens) ** 2 + k * sigma**2))), rel=1e-12
    )


def test_schedule_last_iterate_eta_shrinks():
    args = (50, 6, 2.0, 0.3)
    _, sigma, eta_avg = resolve_schedule(*args, "averaged", NgdOverrides())
    T, _, eta_last = resolve_schedule(*args, "last_iterate", NgdOverrides())
    expected = math.sqrt(
        1.0 / (T * ((50 * 2.0) ** 2 + 6 * sigma**2 * math.log(1 / BETA_OPT)))
    )
    assert eta_last == pytest.approx(expected, rel=1e-12)
    assert eta_last < eta_avg


def test_schedule_t_override_recalibrates_sigma():
    n, k, delta_sens, mu = 50, 6, 2.0, 0.3
    T, sigma, _ = resolve_schedule(n, k, delta_sens, mu, "averaged",
                                   NgdOverrides(T=123))
    assert T == 123
    assert sigma == pytest.approx(delta_sens * math.sqrt(123) / mu, rel=1e-12)


def test_schedule_minimum_one_iteration():
    T, _, _ = resolve_schedule(5, 2, 1.0, 1e-4, "averaged", NgdOverrides())
    assert T == 1


def test_iteration_cap_resource_error(monkeypatch):
    ds = planted(n=200)
    with pytest.raises(ResourceError, match="DPMARGIN_T_CAP"):
        ngd(0.1, ds, mu=100.0)
    monkeypatch.setenv("DPMARGIN_T_CAP", "500")
    with pytest.raises(ResourceError):
        ngd(0.1, ds, mu=0.2)  # T = 1600 > 500 now


# ---------------------------------------------------------------- noise audit

def test_noise_audit_default_is_n_delta():
    ds = planted(n=80)
    schedule = ngd(0.2, ds, mu=0.05, seed=1).provenance.schedule
    delta_sens = hinge_sensitivity(ds.norm_bound, 0.2)
    assert schedule.T == math.ceil((ds.n * 0.05) ** 2)
    assert schedule.sigma == ds.n * delta_sens


def test_noise_audit_t_override_is_sqrt_t_over_mu():
    ds = planted(n=80)
    mu = 0.05
    model = ngd(0.2, ds, mu=mu, seed=1, overrides=NgdOverrides(T=77))
    delta_sens = hinge_sensitivity(ds.norm_bound, 0.2)
    assert model.provenance.schedule.T == 77
    assert model.provenance.schedule.sigma == pytest.approx(
        delta_sens * math.sqrt(77) / mu, rel=1e-12
    )


def test_noise_scale_derived_from_privacy_module(monkeypatch):
    # intercept the accounting chokepoint and confirm the optimizer's sigma
    # comes out of it rather than being computed independently
    import dpmargin.optimizer as opt

    calls = []
    original = opt.gaussian_noise_std

    def spy(sensitivity, mu):
        out = original(sensitivity, mu)
        calls.append(out)
        return out

    monkeypatch.setattr(opt, "gaussian_noise_std", spy)
    opt._plan.cache_clear()  # an earlier run of this shape would skip the resolution
    ds = planted(n=60)
    model = ngd(0.2, ds, mu=0.05, seed=0)
    assert model.provenance.schedule.sigma in calls


# ---------------------------------------------------------------- noise draws

class DrawRecorder:
    """Stands in for a noise stream and counts the normals drawn from it."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0

    def standard_normal(self, size):
        self.drawn += math.prod(size)
        return self.rng.standard_normal(size)


def test_ngd_draws_exactly_t_times_k_normals(monkeypatch):
    import dpmargin.optimizer as opt

    recorders = []
    original = opt.stream

    def recording_stream(*args):
        recorders.append(DrawRecorder(original(*args)))
        return recorders[-1]

    monkeypatch.setattr(opt, "stream", recording_stream)
    for ds in (planted(n=40, d=5, seed=4), planted(n=30, d=40, seed=4)):
        recorders.clear()
        model = ngd(0.2, ds, mu=0.5, seed=3, overrides=NgdOverrides(T=12))
        assert model.provenance.schedule.sigma > 0
        assert [r.drawn for r in recorders] == [12 * ds.dim]


def full_block_reference(ds, c, schedule, seed):
    """The descent loop drawing noise in full 512-row blocks; (averaged, last)."""
    signed = ds.signed_features()
    T, sigma, eta = schedule.T, schedule.sigma, schedule.eta
    rng = stream(seed, NGD_NOISE)
    w = np.zeros(ds.dim)
    averaged = np.zeros(ds.dim)
    for t in range(T):
        if t % 512 == 0:
            block = rng.standard_normal((512, ds.dim)) * sigma
        active = (signed @ w < c).astype(np.float64)
        grad = signed.T @ active
        grad *= -1.0 / c
        averaged += w
        grad += block[t % 512]
        grad *= eta
        w -= grad
    return averaged / T, w


def dense_gram_reference(signed, c, T, sigma, eta, averaging, rng):
    """The Gram-form loop computing G a at every step, as before reuse."""
    n, k = signed.shape
    gram = signed @ signed.T
    scores = np.zeros(n)
    counts = np.zeros(n)
    noise = np.zeros(k)
    step = np.empty(n)
    inv_c = -1.0 / c
    for start in range(0, T, 512):
        rows = min(512, T - start)
        weights = (np.arange(T - 1 - start, T - 1 - start - rows, -1, dtype=np.float64)
                   if averaging else np.ones(rows))
        if sigma > 0.0:
            block = rng.standard_normal((rows, k))
            block *= sigma
            noise += weights @ block
            block_scores = block @ signed.T
        for t in range(rows):
            active = (scores < c).astype(np.float64)
            np.dot(gram, active, out=step)
            step *= inv_c
            if sigma > 0.0:
                step += block_scores[t]
            step *= eta
            scores -= step
            active *= weights[t]
            counts += active
    w = signed.T @ counts
    w *= inv_c
    w += noise
    w *= -eta
    return w / T if averaging else w


def dense_reference_weights(ds, c, schedule, averaging, seed):
    return dense_gram_reference(ds.signed_features(), c, schedule.T, schedule.sigma,
                                schedule.eta, averaging, stream(seed, NGD_NOISE))


@pytest.mark.parametrize("T", [1, 12, 511, 512, 513, 1100])
def test_ngd_noise_matches_full_block_draws(T):
    # n >= 2d runs in feature space, bit for bit the reference loop; n < 2d
    # runs in the Gram form from T = 12 on, whose sums run in another order,
    # and which is bit for bit the Gram loop that computes G a every step
    c = 0.2
    cases = [(planted(n=30, d=4, seed=6), None), (planted(n=30, d=40, seed=6), None),
             (planted(n=30, d=40, seed=6), 0.0)]
    for ds, sigma in cases:
        for mode in ("averaged", "last_iterate"):
            model = ngd(c, ds, mu=0.5, mode=mode, seed=7,
                        overrides=NgdOverrides(T=T, sigma=sigma))
            schedule = model.provenance.schedule
            averaged, last = full_block_reference(ds, c, schedule, 7)
            want = averaged if mode == "averaged" else last
            if ds.n >= 2 * ds.dim:
                np.testing.assert_array_equal(model.weights, want)
            else:
                np.testing.assert_allclose(model.weights, want, rtol=1e-12)
            if _gram_pays(ds.n, ds.dim, T):
                np.testing.assert_array_equal(
                    model.weights,
                    dense_reference_weights(ds, c, schedule, mode == "averaged", 7))


def test_gram_form_runs_where_it_pays():
    # (n, k, T) of the benchmark shapes: highdim's identity and k = 2180 runs
    # and the smoke highdim shape take the Gram form; highdim's k = 545 and
    # k = 254 runs, lowdim, privtune-small and one-step runs do not
    assert _gram_pays(1500, 3000, 849) and _gram_pays(1500, 2180, 849)
    assert _gram_pays(300, 1000, 41)
    assert not _gram_pays(1500, 545, 849) and not _gram_pays(1500, 254, 849)
    assert not _gram_pays(4000, 20, 22272) and not _gram_pays(100, 20, 12)
    assert not _gram_pays(1500, 3000, 1) and not _gram_pays(1500, 3000, 12)


def test_gram_form_jl_run_matches_reference():
    # k = 25 > n/2 = 20: the k-dim run inside jlgd takes the Gram form
    ds = planted(n=40, d=60, gamma=0.4, seed=8)
    phi = sample_jl(25, 60, seed=5)
    low = project_and_clip(phi, ds, ds.norm_bound)
    for mode in ("averaged", "last_iterate"):
        model = jlgd(phi, 0.13, ds, mu=0.5, mode=mode, seed=2)
        schedule = model.provenance.schedule
        averaged, last = full_block_reference(low, 0.13, schedule, 2)
        want = lift(phi, averaged if mode == "averaged" else last)
        np.testing.assert_allclose(model.weights, want, rtol=1e-12,
                                   atol=1e-14 * np.abs(want).max())
        np.testing.assert_array_equal(
            model.weights,
            lift(phi, dense_reference_weights(low, 0.13, schedule, mode == "averaged", 2)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 24), k=st.integers(1, 24), T=st.integers(1, 600),
       c=st.floats(0.01, 2.0), averaged=st.booleans(), data_seed=st.integers(0, 2**16))
def test_both_descent_forms_match_reference(n, k, T, c, averaged, data_seed):
    # the output is (1/T) sum_{t<T} w_t or w_T in both forms, whichever runs
    ds = random_unit_dataset(np.random.default_rng(data_seed), n, k)
    mode = "averaged" if averaged else "last_iterate"
    schedule = ngd(c, ds, mu=0.5, mode=mode, seed=data_seed,
                   overrides=NgdOverrides(T=T)).provenance.schedule
    want = full_block_reference(ds, c, schedule, data_seed)[0 if averaged else 1]
    for descent in (_feature_descent, _gram_descent):
        got = descent(ds, c, T, schedule.sigma, schedule.eta, averaged,
                      stream(data_seed, NGD_NOISE))
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=1e-12 * np.abs(want).max())
    # the Gram form reusing G a equals the loop recomputing it every step
    np.testing.assert_array_equal(
        got, dense_reference_weights(ds, c, schedule, averaged, data_seed))


# ---------------------------------------------------------------- Gram-form reuse

class ProductCounter(np.ndarray):
    """A view of G that counts the np.dot calls it takes part in."""

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            self.products.append(1)
        return super().__array_function__(func, types, args, kwargs)


def test_gram_reuse_skips_products_while_the_active_set_holds(monkeypatch):
    # the smoke highdim shape (n = 300, d = 1000, 3 outliers) at c = gamma/3
    # for its planted gamma: the active set holds for most steps
    products = []
    original = Dataset.gram

    def counting(self):
        view = original(self).view(ProductCounter)
        view.products = products
        return view

    monkeypatch.setattr(Dataset, "gram", counting)
    ds = synth_margin_dataset(300, 1000, 0.25, 3, seed=7)[0]
    model = ngd(0.25 / 3, ds, mu=0.05, seed=5)
    T = model.provenance.schedule.T
    assert T == 225 and _gram_pays(ds.n, ds.dim, T)
    assert 1 <= len(products) < T // 2
    np.testing.assert_array_equal(
        model.weights,
        dense_reference_weights(ds, 0.25 / 3, model.provenance.schedule, True, 5))


# ---------------------------------------------------------------- dynamics

def noiseless_descent_oracle(ds, c, T, eta):
    """Independent plain subgradient descent; no shared code with ngd."""
    feats = ds.features
    w = np.zeros(ds.dim)
    for _ in range(T):
        grad = np.zeros(ds.dim)
        for i in range(ds.n):
            margin = ds.labels[i] * float(feats[i] @ w)
            if 1.0 - margin / c > 0.0:
                grad -= (ds.labels[i] / c) * feats[i]
        w = w - eta * grad
    return w


def test_noiseless_matches_independent_oracle():
    ds = planted(n=40, d=5, gamma=0.35, seed=3)
    c = 0.35
    T = 200
    delta_sens = hinge_sensitivity(ds.norm_bound, c)
    eta = 1.0 / (ds.n * delta_sens * math.sqrt(T))
    model = ngd(c, ds, mu=1.0, mode="last_iterate", seed=0,
                overrides=NgdOverrides(T=T, sigma=0.0, eta=eta))
    oracle_w = noiseless_descent_oracle(ds, c, T, eta)
    np.testing.assert_allclose(model.weights, oracle_w, rtol=1e-9, atol=1e-12)


def test_noiseless_t500_hinge_risk_below_one_percent():
    # separable data at hinge parameter = planted margin; sigma override 0
    risks = []
    for seed in range(3):
        ds = planted(n=100, d=10, gamma=0.4, seed=seed)
        model = ngd(0.4, ds, mu=1.0, mode="last_iterate",
                    seed=seed, overrides=NgdOverrides(T=500, sigma=0.0))
        risks.append(empirical_risk(model.weights, ds, LossSpec("hinge", 0.4)))
    assert max(risks) <= 0.01


def test_single_step_is_minus_eta_g0():
    ds = planted(n=30, d=4, gamma=0.3, seed=2)
    c = 0.3
    eta = 0.001
    model = ngd(c, ds, mu=1.0, mode="last_iterate", seed=0,
                overrides=NgdOverrides(T=1, sigma=0.0, eta=eta))
    feats = ds.features
    g0 = np.zeros(ds.dim)
    for i in range(ds.n):  # every point is active at w0 = 0
        g0 -= (ds.labels[i] / c) * feats[i]
    np.testing.assert_allclose(model.weights, -eta * g0, rtol=1e-12)


def test_same_seed_identical_trajectories():
    ds = planted(n=60, d=6, gamma=0.3, seed=5)
    a = ngd(0.1, ds, mu=0.08, seed=42)
    b = ngd(0.1, ds, mu=0.08, seed=42)
    np.testing.assert_array_equal(a.weights, b.weights)
    c = ngd(0.1, ds, mu=0.08, seed=43)
    assert not np.array_equal(a.weights, c.weights)


def test_averaged_excess_risk_decreases_in_t():
    ds = planted(n=80, d=6, gamma=0.35, seed=7)
    c = 0.35
    risks = []
    for T in (50, 200, 800):
        delta_sens = hinge_sensitivity(ds.norm_bound, c)
        eta = 1.0 / (ds.n * delta_sens * math.sqrt(T))
        model = ngd(c, ds, mu=1.0, mode="averaged", seed=0,
                    overrides=NgdOverrides(T=T, sigma=0.0, eta=eta))
        risks.append(empirical_risk(model.weights, ds, LossSpec("hinge", c)))
    assert risks[0] >= risks[1] >= risks[2]


# ---------------------------------------------------------------- jlgd

def test_jlgd_classification_agreement_unclipped():
    ds = planted(n=50, d=40, gamma=0.45, seed=9)
    phi = sample_jl(25, 40, seed=4)
    proj = project_and_clip(phi, ds, ds.norm_bound)
    raw = ds.features @ phi.entries.T
    unclipped = np.linalg.norm(raw, axis=1) <= 2 * ds.norm_bound
    assert unclipped.any()
    model = jlgd(phi, 0.15, ds, mu=0.4, mode="averaged", seed=11)
    # reproduce the internal k-dim run (same inputs, same seed)
    low = ngd(0.15, proj, mu=0.4, mode="averaged", seed=11)
    # lifted weights are Phi^T w_k, so <w_lift, x> = <w_k, Phi x> exactly
    lifted_scores = ds.features @ model.weights
    low_scores = proj.features @ low.weights
    np.testing.assert_allclose(lifted_scores[unclipped], low_scores[unclipped],
                               rtol=1e-9, atol=1e-12)
    assert np.array_equal(np.sign(lifted_scores[unclipped]),
                          np.sign(low_scores[unclipped]))


def test_jlgd_noiseless_end_to_end_zero_risk():
    # planted margin = 3c, no outliers, sigma override 0
    gamma = 0.45
    ds = planted(n=100, d=15, gamma=gamma, seed=12)
    model = jlgd(IdentityMap(ds.dim), gamma / 3, ds, mu=1.0, mode="last_iterate",
                 seed=0, overrides=NgdOverrides(T=400, sigma=0.0))
    assert empirical_risk(model.weights, ds, LossSpec("zero_one")) == 0.0


def test_jlgd_budget_provenance():
    ds = planted(n=40, d=6, gamma=0.4, seed=1)
    model = jlgd(IdentityMap(6), 0.1, ds, mu=0.25, seed=3)
    assert model.provenance.k == 6
    assert model.provenance.jl_seed is None


def test_jlgd_real_projection_records_seed():
    ds = planted(n=40, d=30, gamma=0.4, seed=1)
    phi = sample_jl(10, 30, seed=99)
    model = jlgd(phi, 0.13, ds, mu=0.3, seed=3)
    assert model.provenance.jl_seed == 99
    assert model.provenance.k == 10
    assert model.dim == 30


def test_jlgd_same_bits_on_a_held_and_an_unheld_matrix(jl_generations):
    ds = planted(n=40, d=30, gamma=0.4, seed=1)
    phi = sample_jl(10, 30, seed=99)
    unheld = jlgd(phi, 0.13, ds, mu=0.3, seed=3)
    assert jl_generations == [phi, phi]  # once to project, once to lift
    held = phi.hold()
    assert jlgd(held, 0.13, ds, mu=0.3, seed=3).weights.tobytes() == unheld.weights.tobytes()
    assert len(jl_generations) == 3  # only `hold` generated for the held run


def test_inlier_outlier_empirical_bound():
    # averaged hinge risk <= C_emp (b^2 polylog/(n gamma^2 mu) + b m/(n gamma));
    # C_emp = 1 measured with ~5x headroom at these parameters
    n, d, gamma, m_out, mu, b = 400, 12, 0.3, 6, 0.5, 1.0
    beta = 1 / n**2
    polylog = math.sqrt(math.log((n + 2) * (n + 1) / beta))
    bound = 1.0 * (b * b * polylog / (n * gamma**2 * mu) + b * m_out / (n * gamma))
    for seed in range(4):
        ds = synth_margin_dataset(n, d, gamma, m_out, seed=seed)[0]
        model = jlgd(IdentityMap(d), gamma / 3, ds, mu, mode="averaged", seed=seed)
        risk = empirical_risk(model.weights, ds, LossSpec("hinge", gamma / 3))
        assert risk <= bound


def test_jlgd_builds_one_model_per_identity_run(built_models):
    ds = planted(n=40, d=6, gamma=0.4, seed=1)
    jlgd(IdentityMap(6), 0.1, ds, mu=0.25, seed=3)
    assert built_models == [6]


def test_jlgd_builds_one_model_per_space_for_a_projection(built_models):
    ds = planted(n=40, d=30, gamma=0.4, seed=1)
    jlgd(sample_jl(10, 30, seed=99), 0.13, ds, mu=0.3, seed=3)
    assert built_models == [10, 30]  # the k-dim run, then the lifted model


# ---------------------------------------------------------------- model type

def test_linear_model_validation():
    with pytest.raises(Exception):
        LinearModel(np.array([np.inf, 0.0]), 2)
    model = LinearModel(np.array([1.0, 2.0]), 2, Provenance())
    with pytest.raises(ValueError):
        model.weights[0] = 5.0
