"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  The end-to-end criteria (4 and 5) share one module-scoped
training sweep of 40 runs, which takes about 6 minutes on two cores.  That
sweep and criterion 6's trials run in two worker processes (`in_two_processes`);
criterion 6's 20 exhaustive trials (one NNLS margin solve per removal subset)
take a few seconds.
"""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dpmargin._seeding import stream
from dpmargin.cli import main as cli_main
from dpmargin.data import (
    geometric_margin_oracle,
    synth_margin_dataset,
)
from dpmargin.loss import LossSpec, empirical_risk
from dpmargin.master import (
    MasterConfig,
    dp_adaptive_margin,
    grid_competitiveness_check,
    training_risk,
)
from dpmargin.optimizer import NgdOverrides, ngd
from dpmargin.privacy import (
    compose_gdp,
    gdp_to_approx_dp,
    gdp_to_approx_dp_high_privacy,
    master_iter_budget,
)
from dpmargin.projection import project_and_clip, projection_dim, sample_jl
from dpmargin.tuning import (
    TnbDist,
    geometric_rate_for_failure,
    noisy_argmin,
    sample_tnb,
    tnb_not_selected_prob,
    tnb_pmf,
)

from conftest import on_caller_threads, random_unit_dataset


def report(num: int, name: str, ok: bool):
    print(f"\nACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def in_two_processes(fn, *iterables):
    """list(map(fn, *iterables)), computed in two worker processes.

    The work mapped here holds the GIL for most of its steps, so threads
    would keep about one core busy, where two processes run two items at
    once.  `fn` must be importable by name in a fresh interpreter.
    """
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, *iterables))


# -------------------------------------------------------------- criterion 1

def test_criterion_1_privacy_closed_forms():
    ok = True
    expected = 0.5 + math.sqrt(2 * math.log(1e5))
    ok &= abs(gdp_to_approx_dp(1.0, 1e-5) - expected) <= 1e-9
    for eps, delta in ((0.5, 1e-6), (1.0, 1e-5), (3.0, 1e-8)):
        mu = master_iter_budget(eps, delta)
        ok &= abs(gdp_to_approx_dp_high_privacy(mu, delta) - eps) <= 1e-12
    for m in (2, 5, 16, 100):
        ok &= abs(compose_gdp([0.7 / math.sqrt(m)] * m) - 0.7) <= 1e-12
    report(1, "privacy closed forms", ok)


# -------------------------------------------------------------- criterion 2

def test_criterion_2_margin_preservation():
    n, d, gamma, beta = 100, 200, 0.3, 0.1
    ds, _ = synth_margin_dataset(n, d, gamma, 0, seed=424242)
    k = projection_dim(gamma, n, 1, beta)
    hits = 0
    draws = 200
    for t in range(draws):
        phi = sample_jl(k, d, seed=t)
        proj = project_and_clip(phi, ds, ds.norm_bound)
        if geometric_margin_oracle(proj, tol=1e-4) >= gamma / 3:
            hits += 1
    freq = hits / draws
    print(f"\n  margin preserved in {hits}/{draws} draws (k={k})")
    report(2, "margin preservation after projection", freq >= 0.85)


# -------------------------------------------------------------- criterion 3

def test_criterion_3_noiseless_convergence():
    gamma, n, d = 0.3, 200, 30
    ds, _ = synth_margin_dataset(n, d, gamma, 0, seed=99)
    k = projection_dim(gamma, n, 1, 0.1)
    risks = []
    for seed in range(10):
        phi = sample_jl(k, d, seed=7000 + seed)
        proj = project_and_clip(phi, ds, ds.norm_bound)
        model = ngd(gamma, proj, mu=1.0, mode="last_iterate", seed=seed,
                    overrides=NgdOverrides(T=500, sigma=0.0))
        risks.append(empirical_risk(model.weights, proj, LossSpec("hinge", gamma)))
    print(f"\n  noiseless averaged hinge risks: max={max(risks):.6f}")
    report(3, "noiseless convergence oracle", max(risks) <= 0.01)


# -------------------------------------------------------- criteria 4 and 5

N_E2E, D_E2E, GAMMA_E2E, EPS_E2E, DELTA_E2E = 4000, 20, 0.25, 2.0, 1e-6
SEEDS_E2E = 20
OUTLIERS_E2E = 40


def end_to_end_risk(job):
    """Training risk of the mechanism on one (outlier count, seed) dataset."""
    n_out, seed = job
    ds, _ = synth_margin_dataset(N_E2E, D_E2E, GAMMA_E2E, n_out, seed=1000 + seed)
    cfg = MasterConfig(epsilon=EPS_E2E, delta=DELTA_E2E, seed=seed)
    result = dp_adaptive_margin(ds, cfg)
    return training_risk(result.model, ds)


@pytest.fixture(scope="module")
def end_to_end_risks():
    variants = (("clean", 0), ("outlier", OUTLIERS_E2E))
    jobs = [(n_out, seed) for _, n_out in variants for seed in range(SEEDS_E2E)]
    flat = in_two_processes(end_to_end_risk, jobs)
    return {variant: flat[i * SEEDS_E2E:(i + 1) * SEEDS_E2E]
            for i, (variant, _) in enumerate(variants)}


@pytest.mark.slow
def test_criterion_4_realizable_end_to_end(end_to_end_risks):
    risks = end_to_end_risks["clean"]
    hits = sum(r <= 0.05 for r in risks)
    print(f"\n  clean risks: min={min(risks):.4f} max={max(risks):.4f} "
          f"hits={hits}/{SEEDS_E2E}")
    report(4, "realizable end-to-end risk <= 0.05 in >= 18/20", hits >= 18)


@pytest.mark.slow
def test_criterion_5_outlier_adaptivity(end_to_end_risks):
    clean = end_to_end_risks["clean"]
    dirty = end_to_end_risks["outlier"]
    # polylog pinned to ln(n); C = 10
    bound = 10.0 * (OUTLIERS_E2E / (GAMMA_E2E * N_E2E)
                    + math.log(N_E2E) / (N_E2E * GAMMA_E2E**2 * EPS_E2E))
    hits = sum(r <= bound for r in dirty)
    increase = float(np.mean(dirty) - np.mean(clean))
    print(f"\n  outlier risks: max={max(dirty):.4f} bound={bound:.4f} "
          f"hits={hits}/{SEEDS_E2E} mean increase={increase:.4f}")
    report(5, "outlier adaptivity", hits >= 18 and increase < 0.1)


# -------------------------------------------------------------- criterion 6

def test_criterion_6_grid_competitiveness():
    rng = np.random.default_rng(606)
    datasets = [random_unit_dataset(rng, 10, 2) for _ in range(20)]
    ratios = in_two_processes(grid_competitiveness_check, datasets, [1.0] * len(datasets))
    print(f"\n  competitiveness ratios: max={max(ratios):.3f}")
    report(6, "doubling grid within factor 4", max(ratios) <= 4.0)


# -------------------------------------------------------------- criterion 7

def test_criterion_7_tnb_law():
    ok = True
    dist = TnbDist(1, 0.01)
    draws = sample_tnb(dist, 7, size=100_000)
    mean = float(draws.mean())
    ok &= abs(mean - 100.0) <= 0.03 * 100.0
    beta = 0.05
    cutoff = math.ceil(math.log(beta) / math.log(1 - 0.01))
    tail = float(np.mean(draws > cutoff))
    ok &= tail <= beta + 3 * math.sqrt(beta * (1 - beta) / 100_000)
    for k in range(1, 101):
        ok &= abs(tnb_pmf(dist, k) - 0.01 * 0.99 ** (k - 1)) <= 1e-12
    for beta_t in (0.02, 0.05, 0.1, 0.25):
        for m in (2, 5, 13, 64):
            r_max = geometric_rate_for_failure(beta_t, m)
            ok &= tnb_not_selected_prob(TnbDist(1, min(r_max, 0.999)), m) \
                <= beta_t + 1e-12
    print(f"\n  TNB empirical mean={mean:.2f} tail={tail:.4f}")
    report(7, "truncated negative binomial law", ok)


# -------------------------------------------------------------- criterion 8

def test_criterion_8_tuner_selection_utility():
    values = np.array([0.0, 1.0, 2.0, 5.0, 0.4, 3.0, 2.5, 0.9])
    sigma = 1.3
    picks = [noisy_argmin(values, sigma, stream(s, 81)) for s in range(500)]
    selected = values[picks]
    bound_iter = values.min() + 2 * sigma * math.sqrt(2 * math.log(len(values)))
    slack_iter = 3 * selected.std(ddof=1) / math.sqrt(len(selected))
    ok = selected.mean() <= bound_iter + slack_iter

    r = 0.05
    dist = TnbDist(1, r)
    run_rng = stream(0, 82)
    conditional = []
    for trial in range(500):
        k = sample_tnb(dist, run_rng)
        idx = run_rng.integers(0, len(values), size=k)
        noisy = values[idx] + sigma * run_rng.standard_normal(k)
        if 0 in idx:
            conditional.append(values[idx[np.argmin(noisy)]])
    conditional = np.asarray(conditional)
    bound_tnb = values.min() + sigma * math.sqrt(2 * math.log(1 / r))
    slack_tnb = 3 * conditional.std(ddof=1) / math.sqrt(len(conditional))
    ok &= conditional.mean() <= bound_tnb + slack_tnb
    print(f"\n  iter mean={selected.mean():.3f} (bound {bound_iter:.3f}); "
          f"tnb mean={conditional.mean():.3f} (bound {bound_tnb:.3f})")
    report(8, "tuner selection utility", bool(ok))


# -------------------------------------------------------------- criterion 9

def test_criterion_9_margin_removal_curve(tmp_path, capsys):
    data = tmp_path / "curve_data.csv"
    code = cli_main(["synth", "--n", "120", "--d", "8", "--gamma", "0.35",
                     "--outliers", "5", "--seed", "909", "--out", str(data)])
    assert code == 0
    out = tmp_path / "curve.csv"
    code = cli_main(["margin-curve", "--dataset", str(data), "--removals", "10",
                     "--seed", "1", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rows = out.read_text().strip().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    monotone = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    strict_within_5 = max(values[1:6]) > values[0] + 1e-9
    print(f"\n  curve values: {[round(v, 4) for v in values]}")
    report(9, "margin-removal curve", monotone and strict_within_5)


# -------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    ok = True

    # library entry point: a serial run and two runs at once on caller
    # threads sharing the dataset give identical weights
    ds, _ = synth_margin_dataset(600, 8, 0.35, 4, seed=77)
    cfg = MasterConfig(epsilon=2.0, delta=1e-6, seed=5)
    results = [dp_adaptive_margin(ds, cfg)]
    results += on_caller_threads(lambda: dp_adaptive_margin(ds, cfg))
    for result in results[1:]:
        ok &= bool(np.array_equal(results[0].model.weights, result.model.weights))
        ok &= results[0].gamma_out == result.gamma_out

    # synth: byte-identical reruns
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert cli_main(["synth", "--n", "150", "--d", "6", "--gamma", "0.3",
                         "--outliers", "3", "--seed", "3", "--out", str(path)]) == 0
    ok &= a.read_bytes() == b.read_bytes()

    # train: byte-identical at any --threads, which is ignored
    models = []
    for threads in ("1", "8"):
        out = tmp_path / f"model{threads}.json"
        assert cli_main(["train", "--dataset", str(a), "--epsilon", "2",
                         "--delta", "1e-6", "--seed", "11", "--threads", threads,
                         "--out", str(out)]) == 0
        models.append(out.read_bytes())
    ok &= models[0] == models[1]

    # margin-curve: byte-identical reruns
    curves = []
    for tag in ("x", "y"):
        out = tmp_path / f"curve{tag}.csv"
        assert cli_main(["margin-curve", "--dataset", str(a), "--removals", "6",
                         "--seed", "2", "--out", str(out)]) == 0
        curves.append(out.read_bytes())
    ok &= curves[0] == curves[1]

    # privacy-report: identical stdout on reruns
    capsys.readouterr()  # drain everything the commands above printed
    outs = []
    for _ in range(2):
        assert cli_main(["privacy-report", "--epsilon", "1", "--delta", "1e-5",
                         "--grid", "8", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    ok &= outs[0] == outs[1]

    report(10, "bit-identical determinism across workers", bool(ok))
