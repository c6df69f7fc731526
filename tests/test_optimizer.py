import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmargin._seeding import NGD_NOISE, block_stream, noise_key, stream
from dpmargin.data import Dataset, synth_margin_dataset
from dpmargin.errors import DimensionError, ResourceError
from dpmargin.loss import LossSpec, empirical_risk, hinge_sensitivity
from dpmargin.optimizer import (
    BETA_OPT,
    LinearModel,
    NgdOverrides,
    Lane,
    Provenance,
    SelectionRun,
    _feature_descent,
    _gram_descent,
    _gram_pays,
    _lane_noise,
    iteration_cap,
    jlgd,
    lane_width,
    lift_model,
    ngd,
    project_rows,
    resolve_schedule,
)
from dpmargin.projection import IdentityMap, lift, sample_jl
from dpmargin.tuning import ScoreSpec, score

from conftest import fresh_block, random_unit_dataset
from oracles import noisy_descent


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
    # an explicit T is held to the same cap, so the message names only the cap
    with pytest.raises(ResourceError, match=r"raise DPMARGIN_T_CAP$"):
        ngd(0.1, ds, mu=0.2, overrides=NgdOverrides(T=501))


# ---------------------------------------------------------------- noise audit

@pytest.mark.parametrize("mu", [0.05, 0.0437])
def test_noise_audit_default_is_delta_sqrt_t_over_mu(mu):
    ds = planted(n=80)
    schedule = ngd(0.2, ds, mu=mu, seed=1).provenance.schedule
    delta_sens = hinge_sensitivity(ds.norm_bound, 0.2)
    assert schedule.T == math.ceil((ds.n * mu) ** 2)
    assert schedule.sigma == pytest.approx(delta_sens * math.sqrt(schedule.T) / mu,
                                           rel=1e-12)
    if (ds.n * mu) ** 2 == schedule.T:  # x = n mu = 4 an integer: sqrt(T)/mu = n
        assert schedule.sigma == ds.n * delta_sens
    else:  # the ceiling raises T, and sigma above n Delta
        assert schedule.sigma > ds.n * delta_sens


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
    for ds in (planted(n=40, d=5, seed=4), planted(n=30, d=40, seed=4)):
        recorders.clear()
        model = ngd(0.2, ds, mu=0.5, seed=3, overrides=NgdOverrides(T=12))
        assert model.provenance.schedule.sigma > 0
        assert [r.drawn for r in recorders] == [12 * ds.dim]


def full_block_reference(ds, c, schedule, seed):
    """The feature-space loop drawing noise in full 512-row blocks; (averaged, last).

    It runs `_feature_descent`'s arithmetic, w_t = (eta/c)(p_t - r_t) with
    r from one cumulative sum per block, so a feature-space run matches it
    bit for bit whatever its own block sizes; `oracles.noisy_descent` checks
    that arithmetic against the plain per-step update."""
    signed = ds.signed_features()
    T, sigma, eta = schedule.T, schedule.sigma, schedule.eta
    rng = stream(seed, NGD_NOISE)
    scale = eta / c
    pulls = np.zeros(ds.dim)
    x = pulls
    total = np.zeros(ds.dim)
    drift = np.zeros(ds.dim)
    for t in range(T):
        if t:
            total += x
        if sigma > 0.0 and t % 512 == 0:
            block = rng.standard_normal((512, ds.dim)) * (c * sigma)
            block[0] += drift
            block = np.cumsum(block, axis=0)
            drift = block[-1]
        active = (signed @ x < c / scale).astype(np.float64)
        pulls += signed.T @ active
        x = pulls - block[t % 512] if sigma > 0.0 else pulls
    total *= scale / T
    return total, x * scale


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
    low = project_rows(phi, ds)
    for mode in ("averaged", "last_iterate"):
        model = jlgd(phi, 0.13, low, mu=0.5, mode=mode, seed=2)
        schedule = model.provenance.schedule
        averaged, last = full_block_reference(low, 0.13, schedule, 2)
        want = averaged if mode == "averaged" else last
        np.testing.assert_allclose(model.weights, want, rtol=1e-12,
                                   atol=1e-14 * np.abs(want).max())
        np.testing.assert_array_equal(
            model.weights, dense_reference_weights(low, 0.13, schedule, mode == "averaged", 2))
        np.testing.assert_array_equal(lift_model(phi, model).weights, lift(phi, model.weights))


@pytest.mark.parametrize("T", [1, 12, 1100])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("averaging", [True, False])
def test_feature_descent_matches_the_per_step_oracle(T, noisy, averaging):
    # T = 1100 spans three noise blocks of at most 512 rows
    ds = planted(n=60, d=5, gamma=0.3, outliers=3, seed=14)
    c = 0.1
    schedule = ngd(c, ds, mu=0.5, overrides=NgdOverrides(T=T)).provenance.schedule
    sigma = schedule.sigma if noisy else 0.0
    rng = stream(8, NGD_NOISE)
    got = _feature_descent(ds.signed_features(), c, T, sigma, schedule.eta, averaging,
                           lambda rows: rng.standard_normal((1, rows, ds.dim)))
    want = noisy_descent(ds.signed_features(), c, T, sigma, schedule.eta, averaging,
                         stream(8, NGD_NOISE))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.any(want != 0.0) or (averaging and T == 1)


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
    rng = stream(data_seed, NGD_NOISE)
    feature = _feature_descent(ds.signed_features(), c, T, schedule.sigma, schedule.eta,
                               averaged, lambda rows: rng.standard_normal((1, rows, k)))
    got = _gram_descent(ds, c, T, schedule.sigma, schedule.eta, averaged,
                        stream(data_seed, NGD_NOISE))
    for out in (feature, got):
        np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())
    # the Gram form reusing G a equals the loop recomputing it every step
    np.testing.assert_array_equal(
        got, dense_reference_weights(ds, c, schedule, averaged, data_seed))


# ---------------------------------------------------------------- lanes

def lane_runs(ds, key, members, mu=0.5, mode="averaged", overrides=None):
    """{index: model} of every run in `members`, (index, c) pairs, each run
    reaching `ngd` in order with one `Lane` over all of them."""
    lane = Lane(key, members)
    return {index: ngd(c, ds, mu, mode=mode, seed=SelectionRun(key, index, iteration_cap(), lane),
                       overrides=overrides)
            for index, c in members}


@pytest.mark.parametrize("T", [12, 1100])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("averaging", [True, False])
def test_lane_columns_match_the_per_step_oracle(T, noisy, averaging):
    # five runs with four distinct c in a lane of 32, so 27 columns are
    # inert; at T = 1100 each member's noise comes in 69 blocks of at most
    # 512 // 32 = 16 rows, read on from where its stream stood
    ds = planted(n=60, d=5, gamma=0.3, outliers=3, seed=14)
    assert lane_width(ds.n, ds.dim, T) == 32
    mode = "averaged" if averaging else "last_iterate"
    overrides = NgdOverrides(T=T, sigma=None if noisy else 0.0)
    key = noise_key(11)
    members = [(3, 0.1), (4, 0.05), (9, 0.1), (10, 0.3), (2**40, 0.02)]
    models = lane_runs(ds, key, members, mode=mode, overrides=overrides)
    for index, c in members:
        schedule = models[index].provenance.schedule
        # the schedule the lane resolved for the run's c is the run's own
        alone = ngd(c, ds, 0.5, mode=mode, seed=SelectionRun(key, index, iteration_cap()),
                    overrides=overrides)
        assert schedule == alone.provenance.schedule and schedule.T == T
        assert (schedule.sigma > 0) == noisy
        want = noisy_descent(ds.signed_features(), c, T, schedule.sigma, schedule.eta,
                             averaging, fresh_block(key, index))
        got = models[index].weights
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(alone.weights - want) <= 1e-12 * np.linalg.norm(want)
        assert np.any(want != 0.0)


def column_bits(ds, key, before, run, after, mu, overrides=None):
    """The bytes of `run`'s weights, (index, c), with `before` and `after`
    its lane mates ahead of it and behind it."""
    models = lane_runs(ds, key, [*before, run, *after], mu=mu, overrides=overrides)
    return models[run[0]].weights.tobytes()


def test_a_runs_column_bits_do_not_depend_on_its_position_or_mates():
    # run 1000 alone, first, in the middle and last among mates at other c
    # in its lane, and in a later lane, gives the same bytes: at
    # privtune-small's shape (n = 100, k = 20, T = 12, lanes of 32) and at
    # iterate-lowdim's (n = 4000, k = 20, lanes of 8; here T = 100, two noise
    # blocks of 64 rows).  A property of the BLAS, which must give a GEMM
    # column the same bits at any position; seen with OpenBLAS
    shapes = [(planted(n=100, d=20, gamma=0.3, outliers=4, seed=21), 32, 0.0346, None, 12),
              (planted(n=4000, d=20, gamma=0.25, seed=22), 8, 0.1, NgdOverrides(T=100), 100)]
    key = noise_key(3)
    cs = [0.02, 0.05, 0.1, 0.2, 0.3]
    run = (1000, 0.1)
    for ds, width, mu, overrides, T in shapes:
        assert ngd(0.1, ds, mu, overrides=overrides).provenance.schedule.T == T
        assert lane_width(ds.n, ds.dim, T) == width
        last = width - 1
        columns = []
        for position, mates in [(0, 0), (0, last), (width // 2, last), (last, last), (5, 6),
                                (width + 5, 2 * width + 3)]:
            before = [(100 + j, cs[j % 5]) for j in range(position)]
            after = [(2000 + j, cs[j % 5]) for j in range(mates - position)]
            columns.append(column_bits(ds, key, before, run, after, mu, overrides))
        assert all(col == columns[0] for col in columns)
        assert np.any(np.frombuffer(columns[0]) != 0.0)


def test_lane_descends_each_lane_once_and_keeps_only_the_last():
    ds = planted(n=60, d=5, seed=14)
    key = noise_key(1)
    lane = Lane(key, ((i, 0.1 * (1 + i % 3)) for i in range(40)))
    held = []
    for i in range(40):
        ngd(0.1 * (1 + i % 3), ds, 0.5, seed=SelectionRun(key, i, iteration_cap(), lane),
            overrides=NgdOverrides(T=12))
        held.append(lane._weights)
        assert len(lane._held) <= 32 and lane._weights.shape == (5, 32)
    # runs 0-31 read one descent, runs 32-39 the next, padded
    assert all(w is held[0] for w in held[:32]) and all(w is held[32] for w in held[32:])
    assert held[32] is not held[0] and len(lane._held) == 8
    assert len(lane._schedules) == 3  # one per distinct c


def test_lane_resolves_each_schedule_once_per_distinct_c(monkeypatch):
    import dpmargin.optimizer as opt

    calls = []
    original = opt.resolve_schedule

    def counting(n, k, delta_sens, *args):
        calls.append(delta_sens)
        return original(n, k, delta_sens, *args)

    monkeypatch.setattr(opt, "resolve_schedule", counting)
    ds = planted(n=60, d=5, seed=14)
    members = [(i, [0.05, 0.1, 0.2][i // 30]) for i in range(90)]
    lane_runs(ds, noise_key(1), members, overrides=NgdOverrides(T=12))
    assert len(calls) == 3 == len(set(calls))


def test_lane_members_must_share_rows_and_schedule():
    ds = planted(n=60, d=5, seed=14)
    key = noise_key(1)
    lane = Lane(key, [(0, 0.1), (1, 0.2), (2, 0.1), (3, 0.1)])

    def run(index, c=0.1, rows=ds, mu=0.5, mode="averaged", T=12):
        return ngd(c, rows, mu, mode=mode, seed=SelectionRun(key, index, iteration_cap(), lane),
                   overrides=NgdOverrides(T=T))

    run(0)
    run(1, c=0.2)
    for bad in (dict(T=13), dict(mu=0.4), dict(mode="last_iterate"),
                dict(rows=planted(n=60, d=5, seed=14)),  # equal rows in another Dataset
                dict(rows=planted(n=60, d=5, seed=15))):
        with pytest.raises(ValueError, match="share their rows and schedule inputs"):
            run(2, **bad)
    # another c, a run out of order, or a run not in the lane
    for index, c in [(2, 0.2), (3, 0.1), (9, 0.1), (-1, 0.1)]:
        with pytest.raises(ValueError, match=f"run {index} at c = {c} is not this lane's next"):
            run(index, c=c)
    run(2)
    run(3)
    with pytest.raises(ValueError, match="run 4 at c = 0.1 is not this lane's next"):
        run(4)  # the lane's members are used up


def test_lane_noise_reads_each_members_stream_bit_for_bit():
    # three members of a lane of 8 at T = 1100: each call draws 64 rows a
    # member, the members' draws interleaved on one thread's generator, and
    # the rows each member reads join up to its stream's T x k draw
    key, indices, k, T = noise_key(7), [5, 2**33, 12], 5, 1100
    draw = _lane_noise(key, indices, 8, k, T)
    got = [[] for _ in indices]
    drawn = 0
    while drawn < T:
        rows = min(64, T - drawn)
        block = draw(rows)
        assert block.shape == (8, rows, k) and block.base.size <= 512 * k
        assert not block[len(indices):].any()  # the inert members draw nothing
        for j in range(len(indices)):
            got[j].append(block[j].copy())
        drawn += rows
    for j, index in enumerate(indices):
        want = block_stream(key, index).standard_normal((T, k))
        assert np.concatenate(got[j]).tobytes() == want.tobytes()


@pytest.mark.parametrize("width, T", [(32, 12), (32, 1100), (8, 1100), (8, 30)])
def test_no_lane_noise_array_exceeds_a_lone_runs_block(width, T, monkeypatch):
    import dpmargin.optimizer as opt

    k, places = 20, []
    original = opt.position

    def counting(rng):
        places.append(1)
        return original(rng)

    monkeypatch.setattr(opt, "position", counting)
    members = width - 3
    draw = _lane_noise(noise_key(2), list(range(members)), width, k, T)
    blocks = []
    for start in range(0, T, 512 // width):
        blocks.append(draw(min(512 // width, T - start)))
    assert max(block.base.size for block in blocks) <= 512 * k
    # a place is saved only where another block follows: none for one block
    assert len(places) == members * (len(blocks) - 1)


def test_a_lane_of_many_runs_holds_state_of_its_width_only():
    # a lane over K runs reads them from an iterator and keeps one lane's
    # members and weights: its memory does not grow with K
    ds = planted(n=20, d=3, seed=16)
    key = noise_key(4)
    assert lane_width(ds.n, ds.dim, 2) == 32

    def peak(runs):
        tracemalloc.start()
        try:
            lane = Lane(key, ((i, 0.1 + 0.1 * (i % 3)) for i in range(runs)))
            for i in range(runs):
                ngd(0.1 + 0.1 * (i % 3), ds, 0.5, seed=SelectionRun(key, i, 10**7, lane),
                    overrides=NgdOverrides(T=2))
            assert len(lane._held) <= 32 and len(lane._schedules) == 3
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1100), peak(4400)
    # 3,300 more runs would add at least 26 kB as one list of references
    assert large - small < 8_000


def test_lane_width_is_a_power_of_two_within_the_lane_budget():
    # 8 at iterate-lowdim's shape and 32 at privtune-small's; a Gram-form
    # run gets 1, and so do rows too many for the budget.  T enters only
    # through the Gram form
    assert lane_width(4000, 20, 22272) == 8 and lane_width(100, 20, 12) == 32
    assert lane_width(1500, 3000, 849) == 1 and lane_width(40000, 20, 12) == 1
    assert lane_width(10000, 20, 12) == 2 and lane_width(100, 20, 1000) == 32
    assert lane_width(20, 3, 2) == 32 == lane_width(20, 3, 600)
    assert lane_width(100, 3000, 1) == 8  # k x W arrays count too
    for n, k, T in [(20, 3, 2), (20, 3, 600), (60, 5, 1100), (300, 20, 100), (30, 20, 1),
                    (4000, 20, 22272), (2000, 20, 9)]:
        width = lane_width(n, k, T)
        assert width & (width - 1) == 0
        assert width * max(n, k) <= 2**15 and (width == 32 or 2 * width * max(n, k) > 2**15)


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
    proj = project_rows(phi, ds)
    raw = ds.features @ phi.entries.T
    unclipped = np.linalg.norm(raw, axis=1) <= 2 * ds.norm_bound
    assert unclipped.any()
    model = jlgd(phi, 0.15, proj, mu=0.4, mode="averaged", seed=11)
    # the k-dim run is ngd's on the projected rows, with phi's seed recorded
    low = ngd(0.15, proj, mu=0.4, mode="averaged", seed=11)
    assert model.weights.tobytes() == low.weights.tobytes()
    # lifted weights are Phi^T w_k, so <w_lift, x> = <w_k, Phi x> exactly
    lifted_scores = ds.features @ lift_model(phi, model).weights
    low_scores = proj.features @ model.weights
    np.testing.assert_allclose(lifted_scores[unclipped], low_scores[unclipped],
                               rtol=1e-9, atol=1e-12)
    assert np.array_equal(np.sign(lifted_scores[unclipped]),
                          np.sign(low_scores[unclipped]))


def test_a_k_dim_model_makes_the_errors_of_its_lift():
    # a run is scored on the projected, clipped rows it descended on: for a
    # clip factor s > 0, sign(<w_k, s Phi z>) = sign(<Phi^T w_k, z>), so its
    # zero-one count is that of its lifted model on the ambient rows
    spec = ScoreSpec("empirical_zero_one")
    clipped = 0
    for k, seed in [(2, seed) for seed in range(6)] + [(40, 6)]:
        ds = planted(n=120, d=60, gamma=0.3, outliers=8, seed=30 + seed)
        phi = sample_jl(k, 60, seed=seed)
        low = project_rows(phi, ds)
        clipped += np.count_nonzero(
            np.linalg.norm(ds.signed_features() @ phi.entries.T, axis=1) > 2 * ds.norm_bound)
        model = jlgd(phi, 0.1, low, mu=0.5, seed=seed)
        errors = score(model, low, spec)
        assert errors > 0
        assert errors == score(lift_model(phi, model), ds, spec)
    assert clipped > 0  # at k = 2 some projected rows leave the radius-2b ball


def test_jlgd_refuses_rows_outside_the_projection_space():
    ds = planted(n=40, d=30, gamma=0.4, seed=1)
    phi = sample_jl(10, 30, seed=99)
    with pytest.raises(DimensionError, match="k=10"):
        jlgd(phi, 0.13, ds, mu=0.3, seed=3)  # ambient rows, not projected ones
    with pytest.raises(DimensionError):
        jlgd(IdentityMap(31), 0.13, ds, mu=0.3, seed=3)


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
    model = jlgd(phi, 0.13, project_rows(phi, ds), mu=0.3, seed=3)
    assert model.provenance.jl_seed is None  # recorded when lifted
    assert model.provenance.k == 10
    assert model.dim == 10
    lifted = lift_model(phi, model)
    assert lifted.dim == 30 and lifted.provenance.jl_seed == 99
    assert lifted.provenance == replace(model.provenance, jl_seed=99)


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


def test_jlgd_builds_k_dim_models_and_lift_model_one_d_dim_model(built_models):
    ds = planted(n=40, d=30, gamma=0.4, seed=1)
    phi = sample_jl(10, 30, seed=99)
    model = jlgd(phi, 0.13, project_rows(phi, ds), mu=0.3, seed=3)
    assert built_models == [10]  # ngd's model, as ngd built it
    lift_model(phi, model)
    assert built_models == [10, 30]
    # the identity map's rows are the dataset's own, and its model is not lifted
    identity = IdentityMap(30)
    rows = project_rows(identity, ds)
    assert rows is not ds and rows.signed_features() is ds.signed_features()
    assert rows.norm_bound == ds.norm_bound
    model = jlgd(identity, 0.13, rows, mu=0.3, seed=3)
    assert lift_model(identity, model) is model and built_models == [10, 30, 30]


# ---------------------------------------------------------------- model type

def test_linear_model_validation():
    with pytest.raises(Exception):
        LinearModel(np.array([np.inf, 0.0]), 2)
    model = LinearModel(np.array([1.0, 2.0]), 2, Provenance())
    with pytest.raises(ValueError):
        model.weights[0] = 5.0
