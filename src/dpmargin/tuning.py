"""Private hyperparameter selection.

Two selectors over margin candidates: the brute-force split-budget sweep and
the advanced scheme whose run count is geometric, the eta = 1 case of
truncated-negative-binomial private selection.  Scores are summed zero-one
counts, optionally with a dimension-based penalty targeting population rather
than empirical risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ._seeding import CANDIDATE_PICK, SCORE_NOISE, TNB_RUNS, noise_key, stream
from ._seeding import child_seed  # noqa: F401  (unused; perfbench's tracer wraps this name)
from .data import Dataset
from .errors import MissingContextError, ResourceError
from .optimizer import LinearModel, Lane, SelectionRun, iteration_cap, lift_model, project_rows
from .privacy import per_candidate_budget

#: priv_tune refuses to launch more base runs than this; read at call time.
DEFAULT_RUN_CAP = 10**6


@dataclass(frozen=True)
class Candidate:
    """A margin value paired with its data-oblivious projection.

    It holds no data: a selection builds the rows a picked candidate's runs
    descend on (`optimizer.project_rows`) and hands them to the base.  Its
    runs descend at the hinge parameter `c`.
    """

    gamma: float
    phi: object  # JlMatrix or IdentityMap

    @property
    def c(self) -> float:
        """gamma/3, the hinge parameter of the candidate's runs: the margin
        its projection preserves with high probability.  The base passes it
        to `jlgd`, and a selection's `Lane` lists it for each run."""
        return self.gamma / 3


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
) -> tuple[LinearModel, Candidate]:
    """Run `base(candidate, rows, budget, run)` once per candidate at an
    even budget split and return the noisy-score argmin.  Total GDP cost is
    mu.  The run list is `np.arange(len(candidates))`: run i reads candidate
    i, on the rows the selection built for it (`_private_select`).

    Run i draws its noise from its own counter block of the seed's noise
    key (`SelectionRun`), so its model follows from the seed and i alone,
    whatever thread runs the selection.  Each candidate is picked once, and
    the candidates that share a map, such as the identity candidates, which
    come first, share one `Lane`: their runs, at equal n, k and T, descend
    together, each at its own c (`_private_select`).
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    base_mu, noise_std = per_candidate_budget(mu, len(candidates))
    return _private_select(base, candidates, np.arange(len(candidates)), dataset, base_mu,
                           noise_std, spec, seed)


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
) -> tuple[LinearModel, Candidate]:
    """Advanced selector: K ~ dist runs on uniformly drawn candidates.

    The run list is the K drawn candidate indices, one integer array; a
    candidate no draw picks is never projected or run.  The picked
    candidates run one at a time, as `base(candidate, rows, budget, run)`
    on the rows the selection built for them.  The runs on one set of rows,
    all those of the picked candidates that share a map, share one `Lane`,
    in which `ngd` descends them together (`_private_select`).

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
    return _private_select(base, candidates, picks, dataset, base_mu, noise_std, spec, seed)


def _private_select(base, candidates: list[Candidate], picks: np.ndarray, dataset: Dataset,
                    base_mu: float, noise_std: float, spec: ScoreSpec, seed: int):
    """Run `base` once per entry of `picks`, run i as
    `base(candidates[picks[i]], rows, base_mu, run)` with `run` a
    `SelectionRun` of index i, and return the (model, candidate) pair with
    the least noisy score.

    The score noise is drawn up front, the same draws `noisy_argmin` makes.
    The noise key, `_seeding.noise_key(seed)`, and the iteration cap are
    read once; run i reads the key from counter block i, so its model does
    not depend on when it runs.  The picked candidates run one at a time in
    index order, each its runs in index order.

    The selection owns the rows its runs descend on, and any G built on
    them (`Dataset.gram`).  It builds them (`optimizer.project_rows`)
    before a picked candidate's first run, unless the previous picked
    candidate has the same map, and drops the old rows and lane first.  So
    the identity candidates, which come first, share one view of the
    training rows and one G, and the caller's dataset never holds a G.  The
    runs return k-dim models, scored on the same rows: for a clip factor
    s > 0, sign(<w_k, s Phi z>) = sign(<Phi^T w_k, z>).  Only the best
    model so far is kept, by (noisy score, run index), so the first index
    wins ties, as in `noisy_argmin`.  The winner goes through
    `optimizer.lift_model`, which generates a JL matrix once more to lift
    the model to d.  The candidate returned is the caller's own.

    When it builds rows for more than one run, it builds one
    `optimizer.Lane` for all of them, which reads each run's (index,
    `Candidate.c`) in run order from the selection's runs, sorted by
    candidate, as the runs reach it; `ngd` picks the lane width from the n,
    k and T it resolves, and each run descends with its lane mates, which
    may belong to other candidates.  A lone run on its rows gets no lane.
    """
    noise = score_noise(noise_std, len(picks), stream(seed, SCORE_NOISE))
    key, cap = noise_key(seed), iteration_cap()
    counts = np.bincount(picks)  # np.unique would import numpy.ma
    order = np.argsort(picks, kind="stable")  # the runs by candidate, each in index order
    best = rows = lane = None  # best: (noisy score, run index, model)
    stop = 0
    for phi, group in groupby(np.flatnonzero(counts).tolist(), lambda j: candidates[j].phi):
        start, stop = stop, stop + int(counts[list(group)].sum())
        rows = lane = None  # drop the last rows, their G and lane before projecting
        rows, runs = project_rows(phi, dataset), order[start:stop]
        if len(runs) > 1:
            lane = Lane(key, ((i, candidates[picks[i]].c) for i in map(int, runs)))
        for i in map(int, runs):
            cand = candidates[picks[i]]
            model = base(cand, rows, base_mu, SelectionRun(key, i, cap, lane))
            noisy = score(model, rows, spec) + noise[i]
            if best is None or (noisy, i) < best[:2]:
                best = (noisy, i, model)
    del rows, lane  # the last rows go before the lift
    winner = candidates[picks[best[1]]]
    return lift_model(winner.phi, best[2]), winner
