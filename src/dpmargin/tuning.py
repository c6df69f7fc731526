"""Private hyperparameter selection.

Two selectors over margin candidates: the brute-force split-budget sweep and
the advanced scheme whose run count is geometric, the eta = 1 case of
truncated-negative-binomial private selection.  Scores are summed zero-one
counts, optionally with a dimension-based penalty targeting population rather
than empirical risk.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._seeding import CANDIDATE_PICK, CANDIDATE_SEED, SCORE_NOISE, TNB_RUNS, child_seeds, stream
from ._seeding import child_seed  # noqa: F401  (unused; perfbench's tracer wraps this name)
from .data import Dataset
from .errors import MissingContextError, ResourceError
from .optimizer import LinearModel, project_rows
from .privacy import per_candidate_budget
from .projection import JlMatrix

#: priv_tune refuses to launch more base runs than this; read at call time.
DEFAULT_RUN_CAP = 10**6


@dataclass(frozen=True)
class Candidate:
    """A margin value paired with its data-oblivious projection.

    `rows`, when set, holds the training set's projected, clipped rows
    (`optimizer.project_rows`), for base runs to read instead of projecting.
    """

    gamma: float
    phi: object  # JlMatrix or IdentityMap
    rows: Dataset | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class TnbDist:
    """Geometric law of the run count on {1, 2, ...} with success rate r.

    It is the truncated negative binomial at eta = 1, the only case the
    tuner uses; any other eta is refused.
    """

    eta: float
    r: float

    def __post_init__(self):
        if self.eta != 1:
            raise ValueError(f"only the geometric law eta = 1 is supported, got {self.eta}")
        if not 0 < self.r < 1:
            raise ValueError(f"r must lie in (0, 1), got {self.r}")


@dataclass(frozen=True)
class ScoreSpec:
    kind: str  # "empirical_zero_one" | "penalized_population"

    def __post_init__(self):
        if self.kind not in ("empirical_zero_one", "penalized_population"):
            raise ValueError(f"unknown score kind {self.kind!r}")


def score(model: LinearModel, dataset: Dataset, spec: ScoreSpec) -> float:
    """Summed zero-one count, plus (5/2)(k ln(2n) + ln(4/beta)) if penalized.

    k is the candidate's projection dimension (the VC dimension of the
    low-dimensional halfspace class actually searched) and beta = 1/n^2.
    """
    if model.dim != dataset.dim:
        raise MissingContextError(
            f"model dim {model.dim} does not match dataset dim {dataset.dim}"
        )
    errs = float(np.count_nonzero(dataset.signed_features() @ model.weights < 0.0))
    if spec.kind == "empirical_zero_one":
        return errs
    k = model.provenance.k
    if k is None:
        raise MissingContextError("penalized score needs the candidate projection dim k")
    n = dataset.n
    beta = 1.0 / (n * n)
    return errs + 2.5 * (k * math.log(2 * n) + math.log(4.0 / beta))


def score_noise(noise_std: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` draws of N(0, noise_std^2), the noise added to the scores."""
    return noise_std * rng.standard_normal(count)


def noisy_argmin(values, noise_std: float, rng: np.random.Generator) -> int:
    """Index of the smallest value + N(0, noise_std^2); first index on ties."""
    values = np.asarray(values, dtype=np.float64)
    noisy = values + score_noise(noise_std, values.shape[0], rng)
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

    `seed` may be an int or an existing Generator, and `size` vectorizes
    the draw.
    """
    rng = seed if isinstance(seed, np.random.Generator) else stream(int(seed), TNB_RUNS)
    u = rng.random() if size is None else rng.random(size)
    k = np.ceil(np.log(u) / math.log1p(-dist.r))
    k = np.maximum(k, 1.0)
    return int(k) if size is None else k.astype(np.int64)


def tnb_pmf(dist: TnbDist, k: int) -> float:
    """P(K = k) = r (1 - r)^(k - 1)."""
    if k < 1:
        return 0.0
    return dist.r * (1.0 - dist.r) ** (k - 1)


def tnb_pgf(dist: TnbDist, x: float) -> float:
    """E[x^K] = r x / (1 - (1 - r) x) for x in [0, 1]."""
    return dist.r * x / (1.0 - (1.0 - dist.r) * x)


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
    if k_runs > DEFAULT_RUN_CAP:
        raise ResourceError(
            f"drew K = {k_runs} base runs, above the cap of {DEFAULT_RUN_CAP}; "
            f"the iterate tuner (--tuner iterate) runs one per candidate"
        )
    picks = stream(seed, CANDIDATE_PICK).integers(0, len(candidates), size=k_runs)
    base_mu, noise_std = per_candidate_budget(mu, 1)
    runs = [candidates[int(i)] for i in picks]
    return _private_select(base, runs, dataset, base_mu, noise_std, spec, seed, threads)


def _private_select(base, runs: list[Candidate], dataset: Dataset, base_mu: float,
                    noise_std: float, spec: ScoreSpec, seed: int, threads: int):
    """Run `base` once per entry of `runs` at budget base_mu and return the
    (model, candidate) pair with the least noisy score.

    The score noise is drawn up front, the same draws `noisy_argmin` makes,
    and so are the run seeds, in one pass (`child_seeds`) that gives the
    seeds `child_seed` gives.  Each model is scored as it arrives.  Only the
    running minimum is kept, so a serial run holds one model at a time
    besides the best so far; the strict `<` keeps the first index on ties,
    as `noisy_argmin` does.

    A JL candidate that more than one run reads has its matrix generated
    and its rows projected once, before the first run, and both held until
    the selection ends; one that a single run reads is generated and
    projected by that run.  The candidate returned is the caller's own.

    Only a run on a non-JL candidate reads the training set's G
    (`Dataset.gram`).  The runs up to the last such run go first; once their
    models are scored, G is released, and only then do the later runs
    start, so a pool never holds G while a JL run projects.
    """
    noise = score_noise(noise_std, len(runs), stream(seed, SCORE_NOISE))
    seeds = child_seeds(seed, CANDIDATE_SEED, len(runs))
    held = _hold_reused(runs, dataset)
    cut = 1 + max((i for i, cand in enumerate(runs) if not isinstance(cand.phi, JlMatrix)),
                  default=-1)

    def run(i):
        return base(held.get(id(runs[i]), runs[i]), base_mu, int(seeds[i]))

    best = None
    for part in (range(cut), range(cut, len(runs))):
        for i, model in enumerate(_run_indexed(run, part, threads), part.start):
            noisy = score(model, dataset, spec) + noise[i]
            if best is None or noisy < best[0]:
                best = (noisy, model, runs[i])
        dataset.release_gram()
    return best[1], best[2]


def _hold_reused(runs: list[Candidate], dataset: Dataset) -> dict[int, Candidate]:
    """Each JL candidate that `runs` lists more than once, mapped from its id
    to a copy that holds its matrix (`JlMatrix.hold`) and the dataset's
    projected rows (`rows`)."""
    uses = Counter(map(id, runs))
    distinct = {id(cand): cand for cand in runs}
    held = {}
    for key, cand in distinct.items():
        if uses[key] > 1 and isinstance(cand.phi, JlMatrix):
            phi = cand.phi.hold()
            held[key] = Candidate(cand.gamma, phi, project_rows(phi, dataset))
    return held


def _run_indexed(fn, indices: range, threads: int):
    """Yield fn(i) for each i in `indices`, in order.

    With a pool, results are handed over as they are consumed.  Closing the
    generator early (the consumer raised) cancels the calls not yet started.
    """
    if threads <= 1 or len(indices) <= 1:
        yield from map(fn, indices)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, indices)
