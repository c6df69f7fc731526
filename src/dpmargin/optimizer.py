"""Noisy full-batch subgradient descent and its projection-wrapped form.

The iteration count, noise scale and step size follow fixed schedules derived
from (n, budget, sensitivity).  `NgdOverrides` pins T, sigma or eta
explicitly: tests use it, and so does `cli`'s margin-curve command, which
runs a long noiseless descent (T = 400, sigma = 0) for its soft direction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._seeding import NGD_NOISE
# ngd's noise generator: the calling thread's one, reset to what
# `_seeding.stream` would start from.  It keeps the name `stream` because
# perfbench's tracer times a run's seeding through `optimizer.stream`.
from ._seeding import thread_stream as stream
from .data import Dataset
from .errors import DimensionError, ResourceError
from .loss import hinge_sensitivity
from .privacy import gaussian_noise_std
from .projection import IdentityMap, lift, project_and_clip

#: High-probability step-size constant log(1/beta_opt); beta_opt = 0.01.
BETA_OPT = 0.01

_NOISE_BLOCK = 512
_DEFAULT_T_CAP = 10**7


def env_int(name: str, default, least: int):
    """The integer in environment variable `name`, or `default` when unset.

    A value that is not an integer >= `least` raises ValueError naming the
    variable.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {raw!r}")
    return value


def iteration_cap() -> int:
    """Hard cap on T; override with the DPMARGIN_T_CAP environment variable."""
    return env_int("DPMARGIN_T_CAP", _DEFAULT_T_CAP, 1)


@dataclass(frozen=True)
class NgdOverrides:
    """Explicit (T, sigma, eta) for testing; None keeps the schedule value."""

    T: int | None = None
    sigma: float | None = None
    eta: float | None = None


@dataclass(frozen=True)
class NgdConfig:
    """Resolved schedule actually used by a run."""

    T: int
    sigma: float
    eta: float


@dataclass(frozen=True)
class Provenance:
    jl_seed: int | None = None
    k: int | None = None
    schedule: NgdConfig | None = None


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    dim: int
    provenance: Provenance = field(default_factory=Provenance)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.dim,):
            raise DimensionError(f"weights shape {w.shape} != ({self.dim},)")
        if not np.isfinite(w).all():
            raise ValueError("model weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def resolve_schedule(
    n: int,
    k: int,
    delta_sens: float,
    mu: float,
    mode: str,
    overrides: NgdOverrides,
) -> tuple[int, float, float]:
    """Return (T, sigma, eta) for a run.

    Defaults: T = ceil(n^2 mu^2), sigma = n * delta_sens (the per-iteration
    budget mu/sqrt(T) Gaussian calibration), and eta balancing the gradient
    and noise second moments for a reference point of norm 1.  Overriding T
    recalibrates sigma to delta_sens * sqrt(T) / mu so the composed budget
    stays mu.
    """
    if overrides.T is not None:
        T = int(overrides.T)
        if T < 1:
            raise ValueError("T override must be >= 1")
        default_sigma = gaussian_noise_std(delta_sens, mu / math.sqrt(T))
    else:
        T = max(1, math.ceil((n * mu) ** 2))
        default_sigma = gaussian_noise_std(delta_sens, 1.0 / n)  # = n * delta_sens
    cap = iteration_cap()
    if T > cap:
        raise ResourceError(
            f"T = {T} exceeds the iteration cap {cap}; raise DPMARGIN_T_CAP "
            f"or pass an explicit T override"
        )
    sigma = default_sigma if overrides.sigma is None else float(overrides.sigma)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if overrides.eta is not None:
        eta = float(overrides.eta)
    else:
        noise_term = k * sigma * sigma
        if mode == "last_iterate":
            noise_term *= math.log(1.0 / BETA_OPT)
        eta = math.sqrt(1.0 / (T * ((n * delta_sens) ** 2 + noise_term)))
    return T, sigma, eta


def ngd(
    c: float,
    dataset: Dataset,
    mu: float,
    mode: str = "averaged",
    seed: int = 0,
    overrides: NgdOverrides | None = None,
) -> LinearModel:
    """Noisy subgradient descent on the summed hinge loss at `c` from w0 = 0.

    Returns the averaged iterate (1/T) sum_{t<T} w_t or the last iterate w_T
    depending on `mode`.  Deterministic given `seed`.  The resolved schedule
    (T, sigma, eta) is recorded in the model's `provenance.schedule`.

    Gradient noise is drawn from the seed's stream in blocks of at most 512
    rows, none longer than the steps left, so a noisy run draws exactly
    T * k normals.  The stream fills arrays in order, so the noise does not
    depend on the block sizes.  The draws come from the calling thread's
    generator reset to the seed's key (`_seeding.thread_stream`), the same
    numbers a fresh `_seeding.stream(seed, NGD_NOISE)` gives.  (T, sigma,
    eta) and the form are resolved once for each distinct (n, k, b/c, mu,
    mode, overrides), b the norm bound, and reused by every later run of
    that shape.

    The same descent runs in one of two forms, picked from (n, k, T) alone.
    The feature-space form keeps w and costs two n x k matrix-vector
    products a step.  The Gram form keeps the scores S w (S the signed
    rows), costs at most one n x n product a step with G = S S^T, and
    rebuilds w at the end; it runs when n < 2k and T is long enough to repay
    G (see `_gram_pays`).  G is built by the first run that reads it and
    kept on the dataset (`Dataset.gram`), so every Gram-form run on one
    dataset shares it until the tuner releases it after its last reader; the
    n x n product runs only at steps whose hinge active set differs from the
    previous step's.
    Its sums run in another order, so its weights agree with the
    feature-space form to about 1e-15 relative, not bit for bit.
    """
    if mode not in ("averaged", "last_iterate"):
        raise ValueError(f"unknown output mode {mode!r}")
    if dataset.n < 2:
        raise ValueError("need n >= 2")
    if not mu > 0:
        raise ValueError("mu must be positive")
    n, k = dataset.n, dataset.dim
    delta_sens = hinge_sensitivity(dataset.norm_bound, c)
    provenance, descent = _plan(n, k, delta_sens, mu, mode, overrides, iteration_cap())
    sched = provenance.schedule
    rng = stream(seed, NGD_NOISE)
    out = descent(dataset, c, sched.T, sched.sigma, sched.eta, mode == "averaged", rng)
    return LinearModel(out, k, provenance)


@lru_cache(maxsize=256)
def _plan(n, k, delta_sens, mu, mode, overrides, cap):
    """The provenance (schedule) and descent form of an n x k run.

    `cap` is the iteration cap read by the caller; it only keys the cache,
    so a run after DPMARGIN_T_CAP changes is resolved afresh.
    """
    T, sigma, eta = resolve_schedule(n, k, delta_sens, mu, mode, overrides or NgdOverrides())
    descent = _gram_descent if _gram_pays(n, k, T) else _feature_descent
    return Provenance(k=k, schedule=NgdConfig(T=T, sigma=sigma, eta=eta)), descent


def _gram_pays(n: int, k: int, T: int) -> bool:
    """Whether the Gram form beats the feature-space form for an n x k run.

    A step streams n^2 numbers in the Gram form against 2nk, so it saves
    n (2k - n) a step and needs n < 2k.  Building G takes n^2 k
    multiply-adds, which a matrix product runs 27-34 times faster per number
    than a matrix-vector product streams (OpenBLAS, 1 or 2 threads, 2-core
    x86 host); with 16 for a margin, the savings must exceed n^2 k / 16
    over the T steps.  So short runs stay in feature space: T < 63 at
    n = 1500, k = 3000.

    The rule charges the Gram form one n x n product and one G every run.
    `_gram_descent` skips the product while the active set holds, and G is
    shared by every run on a dataset, so the rule is conservative: it may
    keep in feature space a run that the Gram form would finish sooner.
    """
    return 16 * T * (2 * k - n) > n * k


def _feature_descent(dataset, c, T, sigma, eta, averaging, rng) -> np.ndarray:
    """The descent on w: scores and gradient from S every step."""
    signed = dataset.signed_features()
    signed_t = signed.T
    n, k = signed.shape
    w = np.zeros(k)
    averaged = np.zeros(k)
    grad = np.empty(k)
    scores = np.empty(n)
    inv_c = -1.0 / c
    for start in range(0, T, _NOISE_BLOCK):
        rows = min(_NOISE_BLOCK, T - start)
        if sigma > 0.0:
            block = rng.standard_normal((rows, k))
            block *= sigma
        for t in range(rows):
            np.dot(signed, w, out=scores)
            active = (scores < c).astype(np.float64)  # zero subgradient at the kink
            np.dot(signed_t, active, out=grad)
            grad *= inv_c
            if averaging:
                averaged += w
            if sigma > 0.0:
                grad += block[t]
            grad *= eta
            w -= grad
    return averaged / T if averaging else w


def _gram_descent(dataset, c, T, sigma, eta, averaging, rng) -> np.ndarray:
    """The descent on the scores s = S w, rebuilding w once at the end.

    w_t = -eta sum_{u<t} (S^T a_u / -c + noise_u) for the active sets a_u,
    so w_T takes each step's terms once and sum_{t<T} w_t takes step u's
    terms T - 1 - u times.  The loop sums those weighted active sets and noise
    rows and updates s <- s - eta (G a / -c + S noise_t).

    G a / -c depends on the step only through the active set, which often
    stays put for many steps (all rows, or the rows that violate the margin).
    It is recomputed only when the set changes; the step is then built from
    it with the same operations in the same order as when it is recomputed
    every step, so the weights are the same bit for bit.
    """
    signed, gram = dataset.signed_features(), dataset.gram()
    n, k = signed.shape
    scores = np.zeros(n)
    counts = np.zeros(n)  # weighted sum of the active sets
    noise = np.zeros(k)  # weighted sum of the noise rows
    pull = np.empty(n)  # G a / -c for the current active set
    step = np.empty(n)
    weighted = np.empty(n)
    held = None  # the active set `pull` was computed for
    inv_c = -1.0 / c
    for start in range(0, T, _NOISE_BLOCK):
        rows = min(_NOISE_BLOCK, T - start)
        weights = (np.arange(T - 1 - start, T - 1 - start - rows, -1, dtype=np.float64)
                   if averaging else np.ones(rows))
        if sigma > 0.0:
            block = rng.standard_normal((rows, k))
            block *= sigma
            noise += weights @ block
            block_scores = block @ signed.T  # row t is S noise_t
        for t in range(rows):
            mask = scores < c  # zero subgradient at the kink
            if held is None or not np.array_equal(mask, held):
                held = mask
                active = mask.astype(np.float64)
                np.dot(gram, active, out=pull)
                pull *= inv_c
            if sigma > 0.0:
                np.add(pull, block_scores[t], out=step)
            else:
                step[:] = pull
            step *= eta
            scores -= step
            np.multiply(active, weights[t], out=weighted)
            counts += weighted
    w = signed.T @ counts
    w *= inv_c
    w += noise
    w *= -eta
    return w / T if averaging else w


def project_rows(phi, dataset: Dataset) -> Dataset:
    """The rows `jlgd` descends on: `dataset` projected by phi and clipped
    at twice its norm bound."""
    return project_and_clip(phi, dataset, dataset.norm_bound)


def jlgd(
    phi,
    c: float,
    dataset: Dataset,
    mu: float,
    mode: str = "averaged",
    seed: int = 0,
    overrides: NgdOverrides | None = None,
    low: Dataset | None = None,
) -> LinearModel:
    """Project-and-clip, run ngd in k dimensions, lift the weights back.

    The reference-point norm is 1: the analysis anchor is the normalized
    max-margin separator, which the algorithm never needs explicitly.  A
    JL matrix that is not held (`JlMatrix.hold`) is generated twice, a block
    at a time, once to project and once to lift.  `low`, when given, is
    `project_rows(phi, dataset)` held by a caller that runs phi many times;
    the run then skips the projection.
    """
    if phi.d != dataset.dim:
        raise DimensionError(f"projection expects d={phi.d}, dataset has {dataset.dim}")
    if isinstance(phi, IdentityMap):
        # no projection: norms already within the original ball, and ngd's
        # model already records k = d and no JL seed
        return ngd(c, dataset, mu, mode=mode, seed=seed, overrides=overrides)
    if low is None:
        low = project_rows(phi, dataset)
    model_k = ngd(c, low, mu, mode=mode, seed=seed, overrides=overrides)
    del low  # unless the caller holds them, the n x k rows and their G go before the lift
    prov = replace(model_k.provenance, jl_seed=phi.seed)
    return LinearModel(lift(phi, model_k.weights), dataset.dim, prov)
