"""Private hyperparameter selection.

Two selectors over margin candidates: the brute-force split-budget sweep and
the advanced scheme whose run count follows a truncated negative binomial law
(geometric at eta = 1).  Scores are summed zero-one counts, optionally with a
dimension-based penalty targeting population rather than empirical risk.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._seeding import CANDIDATE_PICK, CANDIDATE_SEED, SCORE_NOISE, TNB_RUNS, child_seed, stream
from .data import Dataset
from .errors import MissingContextError, ResourceError, UnsupportedError
from .optimizer import LinearModel
from .privacy import per_candidate_budget

#: priv_tune refuses to launch more base runs than this.
DEFAULT_RUN_CAP = 10**6


@dataclass(frozen=True)
class Candidate:
    """A margin value paired with its data-oblivious projection."""

    gamma: float
    phi: object  # JlMatrix or IdentityMap


@dataclass(frozen=True)
class TnbDist:
    """Truncated negative binomial on {1, 2, ...}; eta = 1 is geometric."""

    eta: float
    r: float

    def __post_init__(self):
        if not self.eta > -1:
            raise ValueError(f"eta must exceed -1, got {self.eta}")
        if not 0 < self.r < 1:
            raise ValueError(f"r must lie in (0, 1), got {self.r}")


@dataclass(frozen=True)
class ScoreSpec:
    kind: str  # "empirical_zero_one" | "penalized_population"
    beta: float | None = None  # penalized only; defaults to 1/n^2

    def __post_init__(self):
        if self.kind not in ("empirical_zero_one", "penalized_population"):
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.beta is not None and not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")


def score(model: LinearModel, dataset: Dataset, spec: ScoreSpec) -> float:
    """Summed zero-one count, plus (5/2)(k ln(2n) + ln(4/beta)) if penalized.

    k is the candidate's projection dimension (the VC dimension of the
    low-dimensional halfspace class actually searched).
    """
    if model.dim != dataset.dim:
        raise MissingContextError(
            f"model dim {model.dim} does not match dataset dim {dataset.dim}"
        )
    errs = float(np.sum(dataset.signed_features() @ model.weights < 0.0))
    if spec.kind == "empirical_zero_one":
        return errs
    k = model.provenance.k
    if k is None:
        raise MissingContextError("penalized score needs the candidate projection dim k")
    n = dataset.n
    beta = spec.beta if spec.beta is not None else 1.0 / (n * n)
    return errs + 2.5 * (k * math.log(2 * n) + math.log(4.0 / beta))


def noisy_argmin(values, noise_std: float, rng: np.random.Generator) -> int:
    """Index of the smallest value + N(0, noise_std^2); first index on ties."""
    values = np.asarray(values, dtype=np.float64)
    noisy = values + noise_std * rng.standard_normal(values.shape[0])
    return int(np.argmin(noisy))


def iter_tune(
    base,
    candidates: list[Candidate],
    dataset: Dataset,
    mu: float,
    spec: ScoreSpec,
    seed: int = 0,
    threads: int = 1,
) -> tuple[LinearModel, Candidate]:
    """Run `base(candidate, budget, seed)` once per candidate at an even
    budget split and return the noisy-score argmin.  Total GDP cost is mu.

    Candidate runs use independent derived seeds, so evaluating them on any
    number of worker threads yields identical output.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    base_mu, noise_std = per_candidate_budget(mu, len(candidates))
    return _private_select(base, candidates, dataset, base_mu, noise_std, spec, seed,
                           threads)


def sample_tnb(dist: TnbDist, seed, size: int | None = None):
    """Inverse-CDF draw(s): K = ceil(ln(u) / ln(1-r)), clamped to >= 1.

    Only the geometric case eta = 1 is sampled; `seed` may be an int or an
    existing Generator, and `size` vectorizes the draw.
    """
    if dist.eta != 1:
        raise UnsupportedError(f"sampling implemented for eta = 1 only, got {dist.eta}")
    rng = seed if isinstance(seed, np.random.Generator) else stream(int(seed), TNB_RUNS)
    u = rng.random() if size is None else rng.random(size)
    k = np.ceil(np.log(u) / math.log1p(-dist.r))
    k = np.maximum(k, 1.0)
    return int(k) if size is None else k.astype(np.int64)


def tnb_pmf(dist: TnbDist, k: int) -> float:
    """P(K = k); closed forms for eta in {0, 1}."""
    if k < 1:
        return 0.0
    if dist.eta == 1:
        return dist.r * (1.0 - dist.r) ** (k - 1)
    if dist.eta == 0:
        return (1.0 - dist.r) ** k / (k * math.log(1.0 / dist.r))
    raise UnsupportedError(f"closed forms cover eta in {{0, 1}}, got {dist.eta}")


def tnb_mean(dist: TnbDist) -> float:
    if dist.eta == 1:
        return 1.0 / dist.r
    if dist.eta == 0:
        return (1.0 / dist.r - 1.0) / math.log(1.0 / dist.r)
    raise UnsupportedError(f"closed forms cover eta in {{0, 1}}, got {dist.eta}")


def tnb_pgf(dist: TnbDist, x: float) -> float:
    """E[x^K] for x in [0, 1]."""
    if dist.eta == 1:
        return dist.r * x / (1.0 - (1.0 - dist.r) * x)
    if dist.eta == 0:
        return math.log(1.0 - (1.0 - dist.r) * x) / math.log(dist.r)
    raise UnsupportedError(f"closed forms cover eta in {{0, 1}}, got {dist.eta}")


def tnb_not_selected_prob(dist: TnbDist, grid_size: int) -> float:
    """P(a fixed one of grid_size candidates is never drawn) = PGF(1 - 1/grid)."""
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    return tnb_pgf(dist, 1.0 - 1.0 / grid_size)


def geometric_rate_for_failure(beta: float, grid_size: int) -> float:
    """Largest geometric rate r keeping the non-selection probability <= beta."""
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    if grid_size < 2:
        raise ValueError("need at least two candidates")
    return beta / ((1.0 - beta) * (grid_size - 1))


def priv_tune(
    base,
    candidates: list[Candidate],
    dist: TnbDist,
    dataset: Dataset,
    mu: float,
    spec: ScoreSpec,
    seed: int = 0,
    run_cap: int = DEFAULT_RUN_CAP,
    threads: int = 1,
) -> tuple[LinearModel, Candidate]:
    """Advanced selector: K ~ dist runs on uniformly drawn candidates.

    Each run and its Gaussian score release share mu as in a one-candidate
    `per_candidate_budget` split; the end-to-end privacy is reported through
    `privacy.tnb_tune_privacy(mu, dist.r, delta)`.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    k_runs = sample_tnb(dist, stream(seed, TNB_RUNS))
    if k_runs > run_cap:
        raise ResourceError(
            f"drew K = {k_runs} runs, above the cap {run_cap}; raise run_cap "
            f"or use the iterate tuner"
        )
    picks = stream(seed, CANDIDATE_PICK).integers(0, len(candidates), size=k_runs)
    base_mu, noise_std = per_candidate_budget(mu, 1)
    runs = [candidates[int(i)] for i in picks]
    return _private_select(base, runs, dataset, base_mu, noise_std, spec, seed, threads)


def _private_select(base, runs: list[Candidate], dataset: Dataset, base_mu: float,
                    noise_std: float, spec: ScoreSpec, seed: int, threads: int):
    """Run `base` once per entry of `runs` at budget base_mu, score every
    model, and return the (model, candidate) pair with the least noisy score.
    """
    seeds = [child_seed(seed, CANDIDATE_SEED, i) for i in range(len(runs))]
    models = _run_indexed(lambda i: base(runs[i], base_mu, seeds[i]), len(runs), threads)
    scores = [score(model, dataset, spec) for model in models]
    pick = noisy_argmin(scores, noise_std, stream(seed, SCORE_NOISE))
    return models[pick], runs[pick]


def _run_indexed(fn, count: int, threads: int) -> list:
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))
