"""Top-level mechanism: margin grid, candidate assembly, tuner dispatch.

The only data-dependent inputs to candidate construction are the public
quantities n, d and the norm bound; every projection matrix is sampled from
(master seed, candidate index) before the optimizer ever reads a feature.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ._seeding import JL_SIGNS, child_seed
from .data import Dataset, geometric_margin_oracle, min_outliers_oracle
from .errors import DataFormatError, SizeError
from .loss import LossSpec, empirical_risk
from .optimizer import LinearModel, Provenance, jlgd
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
    threads: int = 1

    def __post_init__(self):
        if self.tuner not in ("iterate", "priv_tune"):
            raise ValueError(f"unknown tuner {self.tuner!r}")
        if self.score_kind not in ("empirical_zero_one", "penalized_population"):
            raise ValueError(f"unknown score kind {self.score_kind!r}")
        if self.output_mode not in (None, "averaged", "last_iterate"):
            raise ValueError(f"unknown output mode {self.output_mode!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.threads, int) or self.threads < 1:
            raise ValueError(f"threads must be an integer >= 1, got {self.threads!r}")

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
    """Sample one data-oblivious projection per grid margin.

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
    """
    n, d, b = dataset.n, dataset.dim, dataset.norm_bound
    if n < 2:
        raise ValueError("need n >= 2")
    norms = np.linalg.norm(dataset.features, axis=1)
    if norms.max() > b * (1 + 1e-12):
        raise ValueError("dataset is not clipped to its norm bound; run clip_norms")
    # JL failure probability 1/n^2 per candidate
    candidates = build_candidates(n, d, b, 1.0 / (n * n), cfg.seed)
    grid_size = len(candidates)
    mode = cfg.resolved_mode()
    spec = ScoreSpec(cfg.score_kind)

    def base(candidate: Candidate, mu_run: float, run_seed: int) -> LinearModel:
        # gamma/3 is the margin-preservation target; hard-wired in master mode.
        return jlgd(candidate.phi, candidate.gamma / 3.0, dataset, mu_run,
                    mode=mode, seed=run_seed)

    ledger = budget_ledger(cfg.epsilon, cfg.delta, cfg.tuner, grid_size, n)
    if cfg.tuner == "iterate":
        model, winner = iter_tune(base, candidates, dataset, ledger["mu"], spec,
                                  seed=cfg.seed, threads=cfg.threads)
    else:
        dist = TnbDist(eta=1.0, r=ledger["tnb_r"])
        model, winner = priv_tune(base, candidates, dist, dataset, ledger["mu"], spec,
                                  seed=cfg.seed, threads=cfg.threads)
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
    stamp = int(os.environ.get("SOURCE_DATE_EPOCH", time.time()))
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


def model_from_json(text: str) -> tuple[LinearModel, dict]:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise DataFormatError("model file must be a JSON object")
    missing = [key for key in ("weights", "d") if key not in doc]
    if missing:
        raise DataFormatError(f"model file lacks {', '.join(missing)}")
    prov = Provenance(jl_seed=doc.get("jl_seed"), k=doc.get("k"))
    model = LinearModel(np.asarray(doc["weights"], dtype=np.float64), int(doc["d"]), prov)
    return model, doc


def training_risk(model: LinearModel, dataset: Dataset) -> float:
    """Averaged zero-one risk, the quantity the train command reports."""
    return empirical_risk(model.weights, dataset, LossSpec("zero_one"), "averaged")
