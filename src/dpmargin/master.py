"""Top-level mechanism: margin grid, candidate assembly, tuner dispatch.

The only data-dependent inputs to candidate construction are the public
quantities n, d and the norm bound.  Each projection is fixed by its
(k, d, seed), the seed drawn from (master seed, candidate index), before the
optimizer ever reads a feature.  The tuner generates a picked candidate's
entries from those one block of rows at a time to project the training
rows once, every run of that candidate descends and is scored on the
projected rows, and the entries are generated once more only to lift the
winner's weights back to d.  No whole matrix is held.  The rows, and any
Gram matrix built on them, are the selection's own and go with it.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._seeding import JL_SIGNS, child_seed
from .data import Dataset, geometric_margin_oracle, min_outliers_oracle, row_norms
from .errors import DataFormatError, SizeError
from .loss import LossSpec, empirical_risk
from .optimizer import LinearModel, Provenance, SelectionRun, env_int, jlgd, run_length
from .privacy import budget_ledger
from .projection import IdentityMap, projection_dim, sample_jl
from .tuning import Candidate, ScoreSpec, TnbDist, iter_tune, priv_tune


@dataclass(frozen=True)
class MasterConfig:
    epsilon: float
    delta: float
    tuner: str = "iterate"  # "iterate" | "priv_tune"
    score_kind: str = "empirical_zero_one"
    output_mode: str | None = None  # default depends on score kind
    seed: int = 0

    def __post_init__(self):
        if self.tuner not in ("iterate", "priv_tune"):
            raise ValueError(f"unknown tuner {self.tuner!r}")
        ScoreSpec(self.score_kind)  # refuses an unknown score kind
        if self.output_mode not in (None, "averaged", "last_iterate"):
            raise ValueError(f"unknown output mode {self.output_mode!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    def resolved_mode(self) -> str:
        if self.output_mode is not None:
            return self.output_mode
        # empirical score targets the expectation clause (averaged iterate);
        # the penalized score's guarantee is stated for the last iterate.
        return "averaged" if self.score_kind == "empirical_zero_one" else "last_iterate"


@dataclass(frozen=True)
class MasterResult:
    model: LinearModel
    gamma_out: float
    ledger: dict = field(compare=False)


def margin_grid(n: int, b: float = 1.0) -> list[float]:
    """Doubling grid {b/n, 2b/n, ..., b 2^floor(log2 n)/n} plus b, deduplicated."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not b > 0:
        raise ValueError("b must be positive")
    grid = [b * (2.0**j) / n for j in range(int(math.floor(math.log2(n))) + 1)]
    if grid[-1] != b:  # n a power of two lands exactly on b
        grid.append(b)
    return grid


def build_candidates(n: int, d: int, b: float, beta: float, seed: int) -> list[Candidate]:
    """Fix one data-oblivious projection per grid margin.

    When the formula dimension reaches the ambient dimension, the identity
    map is used: it preserves margins exactly, strictly dominating the
    probabilistic guarantee, and keeps small-margin candidates computable.
    """
    grid = margin_grid(n, b)
    candidates = []
    for idx, gamma in enumerate(grid):
        k = projection_dim(gamma, n, len(grid), beta, b)
        if k >= d:
            phi = IdentityMap(d)
        else:
            phi = sample_jl(k, d, child_seed(seed, JL_SIGNS, idx))
        candidates.append(Candidate(gamma=gamma, phi=phi))
    return candidates


def dp_adaptive_margin(dataset: Dataset, cfg: MasterConfig) -> MasterResult:
    """Train a private linear classifier adapting to the best margin/outlier
    trade-off; needs only the dataset and the (epsilon, delta) budget.

    Every candidate's base run is the projected noisy descent at hinge
    parameter gamma/3.  The ledger states exactly the guarantee the chosen
    tuner grants: (eps, delta)-DP for the brute-force sweep,
    (eps + delta, delta)-DP for the advanced tuner.

    `dataset.norm_bound` is the public bound b that every row's norm must
    meet.  It must not depend on the data: the margin grid, c = gamma/3,
    the sensitivity b/c, k and the JL clip radius all scale with it, so a b
    read from the rows (such as their largest norm, which `load_dataset`
    records) lets one row rescale every other and voids the guarantee.
    Fix b in advance and clip the rows to it (`data.clip_norms`).
    """
    n, d, b = dataset.n, dataset.dim, dataset.norm_bound
    if n < 2:
        raise ValueError("need n >= 2")
    if row_norms(dataset.signed_features()).max() > b * (1 + 1e-12):
        raise ValueError("dataset is not clipped to its norm bound; run clip_norms")
    # JL failure probability 1/n^2 per candidate
    candidates = build_candidates(n, d, b, 1.0 / (n * n), cfg.seed)
    grid_size = len(candidates)
    mode = cfg.resolved_mode()
    spec = ScoreSpec(cfg.score_kind)

    def base(candidate: Candidate, rows: Dataset, mu_run: float,
             run: SelectionRun) -> LinearModel:
        return jlgd(candidate.phi, candidate.c, rows, mu_run, mode=mode, seed=run)

    ledger = budget_ledger(cfg.epsilon, cfg.delta, cfg.tuner, grid_size, n)
    # every run's T follows from n and the per-run budget: refuse one above
    # the iteration cap before any run
    run_length(n, ledger["per_candidate_mu" if cfg.tuner == "iterate" else "per_run_mu"])
    if cfg.tuner == "iterate":
        model, winner = iter_tune(base, candidates, dataset, ledger["mu"], spec,
                                  seed=cfg.seed)
    else:
        dist = TnbDist(eta=1.0, r=ledger["tnb_r"])
        model, winner = priv_tune(base, candidates, dist, dataset, ledger["mu"], spec,
                                  seed=cfg.seed)
    ledger["score_kind"] = cfg.score_kind
    ledger["output_mode"] = mode
    return MasterResult(model=model, gamma_out=winner.gamma, ledger=ledger)


def grid_competitiveness_check(dataset: Dataset, epsilon: float, tol: float = 1e-6) -> float:
    """Ratio of the doubling-grid objective minimum to the continuous one.

    Objective: |S_out|/(n gamma) + 1/(n gamma^2 epsilon), grid side evaluated
    through the exhaustive outlier oracle, continuous side over every removal
    subset with gamma the exact margin of the remainder.  Exhaustive: n <= 12.
    """
    n = dataset.n
    if n > 12:
        raise SizeError(f"competitiveness check capped at n=12, got {n}")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")

    def objective(removed: int, gamma: float) -> float:
        return removed / (n * gamma) + 1.0 / (n * gamma * gamma * epsilon)

    grid_min = math.inf
    for gamma in margin_grid(n, dataset.norm_bound):
        count, _ = min_outliers_oracle(dataset, gamma, tol)
        if count < n:  # the continuous side keeps at least one point too
            grid_min = min(grid_min, objective(count, gamma))

    continuous_min = math.inf
    for mask in range(2**n - 1):  # mask encodes the removed set; keep >= 1 point
        keep = [i for i in range(n) if not (mask >> i) & 1]
        gamma = geometric_margin_oracle(dataset.subset(keep), tol)
        if gamma > tol:
            continuous_min = min(continuous_min, objective(n - len(keep), gamma))
    return grid_min / continuous_min


def model_to_json(result: MasterResult, cfg: MasterConfig) -> str:
    """Serialize (model + provenance + ledger); honours SOURCE_DATE_EPOCH."""
    stamp = creation_stamp()
    prov = result.model.provenance
    doc = {
        "weights": [float(v) for v in result.model.weights],
        "d": result.model.dim,
        "gamma_out": result.gamma_out,
        "k": prov.k,
        "jl_seed": prov.jl_seed,
        "epsilon": cfg.epsilon,
        "delta": cfg.delta,
        "tuner": cfg.tuner,
        "score_kind": cfg.score_kind,
        "output_mode": cfg.resolved_mode(),
        "ledger": result.ledger,
        "timestamps": {"created_unix": stamp},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def creation_stamp() -> int:
    """SOURCE_DATE_EPOCH, an integer >= 0, when set; otherwise the current time."""
    return env_int("SOURCE_DATE_EPOCH", int(time.time()), 0)


def model_from_json(text: str) -> tuple[LinearModel, dict]:
    """The model in a `train` model file and the whole document.

    `weights` must be d finite numbers, `d` a positive integer and
    `gamma_out`, if set, a finite positive number; otherwise DataFormatError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"model file is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataFormatError("model file must be a JSON object")
    missing = [key for key in ("weights", "d") if key not in doc]
    if missing:
        raise DataFormatError(f"model file lacks {', '.join(missing)}")
    weights, dim = doc["weights"], doc["d"]
    if not isinstance(weights, list) or not all(map(_finite_number, weights)):
        raise DataFormatError("model file weights must be a list of finite numbers")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DataFormatError(f"model file d must be a positive integer, got {dim!r}")
    if len(weights) != dim:
        raise DataFormatError(f"model file has {len(weights)} weights, d is {dim}")
    gamma = doc.get("gamma_out")
    if gamma is not None and not (_finite_number(gamma) and gamma > 0):
        raise DataFormatError(f"model file gamma_out must be a positive number, got {gamma!r}")
    prov = Provenance(jl_seed=doc.get("jl_seed"), k=doc.get("k"))
    model = LinearModel(np.asarray(weights, dtype=np.float64), dim, prov)
    return model, doc


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def training_risk(model: LinearModel, dataset: Dataset) -> float:
    """Averaged zero-one risk, the quantity the train command reports."""
    return empirical_risk(model.weights, dataset, LossSpec("zero_one"))
