import math

import numpy as np
import pytest

from dpmargin._seeding import NGD_NOISE, stream
from dpmargin.data import synth_margin_dataset
from dpmargin.errors import ResourceError
from dpmargin.loss import LossSpec, empirical_risk, hinge_sensitivity
from dpmargin.optimizer import (
    BETA_OPT,
    LinearModel,
    NgdOverrides,
    Provenance,
    jlgd,
    ngd,
    resolve_schedule,
)
from dpmargin.projection import IdentityMap, project_and_clip, sample_jl


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
    ds = planted(n=40, d=5, seed=4)
    model = ngd(0.2, ds, mu=0.5, seed=3, overrides=NgdOverrides(T=12))
    assert model.provenance.schedule.sigma > 0
    assert [r.drawn for r in recorders] == [12 * ds.dim]


def full_block_reference(ds, c, schedule):
    """The descent loop drawing noise in full 512-row blocks; (averaged, last)."""
    signed = ds.signed_features()
    T, sigma, eta = schedule.T, schedule.sigma, schedule.eta
    rng = stream(schedule.seed, NGD_NOISE)
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


@pytest.mark.parametrize("T", [1, 12, 511, 512, 513, 1100])
def test_ngd_noise_matches_full_block_draws(T):
    ds = planted(n=30, d=4, seed=6)
    c = 0.2
    for mode in ("averaged", "last_iterate"):
        model = ngd(c, ds, mu=0.5, mode=mode, seed=7,
                    overrides=NgdOverrides(T=T))
        averaged, last = full_block_reference(ds, c, model.provenance.schedule)
        want = averaged if mode == "averaged" else last
        np.testing.assert_array_equal(model.weights, want)


# ---------------------------------------------------------------- dynamics

def noiseless_descent_oracle(ds, c, T, eta):
    """Independent plain subgradient descent; no shared code with ngd."""
    w = np.zeros(ds.dim)
    for _ in range(T):
        grad = np.zeros(ds.dim)
        for i in range(ds.n):
            margin = ds.labels[i] * float(ds.features[i] @ w)
            if 1.0 - margin / c > 0.0:
                grad -= (ds.labels[i] / c) * ds.features[i]
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
    g0 = np.zeros(ds.dim)
    for i in range(ds.n):  # every point is active at w0 = 0
        g0 -= (ds.labels[i] / c) * ds.features[i]
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
    assert model.provenance.mu == 0.25
    assert model.provenance.k == 6
    assert model.provenance.jl_seed is None


def test_jlgd_real_projection_records_seed():
    ds = planted(n=40, d=30, gamma=0.4, seed=1)
    phi = sample_jl(10, 30, seed=99)
    model = jlgd(phi, 0.13, ds, mu=0.3, seed=3)
    assert model.provenance.jl_seed == 99
    assert model.provenance.k == 10
    assert model.dim == 30


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
