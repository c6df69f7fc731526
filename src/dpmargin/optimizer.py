"""Noisy full-batch subgradient descent and its projection-wrapped form.

The iteration count, noise scale and step size follow fixed schedules derived
from (n, budget, sensitivity); `NgdOverrides` exists for tests that need to
pin T, sigma or eta explicitly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ._seeding import NGD_NOISE, stream
from .data import Dataset
from .errors import DimensionError, ResourceError
from .loss import LossSpec, hinge_sensitivity
from .privacy import gaussian_noise_std
from .projection import IdentityMap, lift, project_and_clip

#: High-probability step-size constant log(1/beta_opt); beta_opt = 0.01.
BETA_OPT = 0.01

_NOISE_BLOCK = 512
_DEFAULT_T_CAP = 10**7


def iteration_cap() -> int:
    """Hard cap on T; override with the DPMARGIN_T_CAP environment variable."""
    return int(os.environ.get("DPMARGIN_T_CAP", _DEFAULT_T_CAP))


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
    output_mode: str
    seed: int
    overrides: NgdOverrides = field(default_factory=NgdOverrides)


@dataclass(frozen=True)
class Provenance:
    gamma: float | None = None
    jl_seed: int | None = None
    k: int | None = None
    c: float | None = None
    output_mode: str | None = None
    mu: float | None = None
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
        if not np.all(np.isfinite(w)):
            raise ValueError("model weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def resolve_schedule(
    n: int,
    k: int,
    delta_sens: float,
    mu: float,
    ref_norm: float,
    mode: str,
    overrides: NgdOverrides,
) -> tuple[int, float, float]:
    """Return (T, sigma, eta) for a run.

    Defaults: T = ceil(n^2 mu^2), sigma = n * delta_sens (the per-iteration
    budget mu/sqrt(T) Gaussian calibration), and eta balancing the gradient
    and noise second moments.  Overriding T recalibrates sigma to
    delta_sens * sqrt(T) / mu so the composed budget stays mu.
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
        eta = math.sqrt(ref_norm**2 / (T * ((n * delta_sens) ** 2 + noise_term)))
    return T, sigma, eta


def ngd(
    loss: LossSpec,
    dataset: Dataset,
    mu: float,
    ref_norm: float = 1.0,
    mode: str = "averaged",
    seed: int = 0,
    overrides: NgdOverrides | None = None,
) -> LinearModel:
    """Noisy subgradient descent on the summed hinge loss from w0 = 0.

    Returns the averaged iterate (1/T) sum_{t<T} w_t or the last iterate w_T
    depending on `mode`.  Deterministic given `seed`.  The resolved schedule
    (T, sigma, eta) is recorded in the model's `provenance.schedule`.

    Gradient noise is drawn from the seed's stream in blocks of at most 512
    rows, none longer than the steps left, so a noisy run draws exactly
    T * k normals.  The stream fills arrays in order, so the noise does not
    depend on the block sizes.
    """
    if loss.kind != "hinge":
        raise ValueError("the optimizer minimizes hinge loss; got " + loss.kind)
    if mode not in ("averaged", "last_iterate"):
        raise ValueError(f"unknown output mode {mode!r}")
    if dataset.n < 2:
        raise ValueError("need n >= 2")
    if not mu > 0:
        raise ValueError("mu must be positive")
    overrides = overrides or NgdOverrides()
    n, k, c = dataset.n, dataset.dim, loss.c
    delta_sens = hinge_sensitivity(dataset.norm_bound, c)
    T, sigma, eta = resolve_schedule(n, k, delta_sens, mu, ref_norm, mode, overrides)
    schedule = NgdConfig(T=T, sigma=sigma, eta=eta, output_mode=mode, seed=seed,
                         overrides=overrides)

    signed = dataset.signed_features()  # rows y_i x_i
    w = np.zeros(k)
    averaged = np.zeros(k)
    grad = np.empty(k)
    rng = stream(seed, NGD_NOISE)
    block = np.empty((0, k))
    block_pos = 0
    inv_c = -1.0 / c
    for t in range(T):
        scores = signed @ w
        active = (scores < c).astype(np.float64)  # zero subgradient at the kink
        np.dot(signed.T, active, out=grad)
        grad *= inv_c
        if mode == "averaged":
            averaged += w
        if sigma > 0.0:
            if block_pos == len(block):
                block = rng.standard_normal((min(_NOISE_BLOCK, T - t), k))
                block *= sigma
                block_pos = 0
            grad += block[block_pos]
            block_pos += 1
        grad *= eta
        w -= grad
    out = averaged / T if mode == "averaged" else w
    return LinearModel(out, k, Provenance(c=c, k=k, output_mode=mode, mu=mu,
                                          schedule=schedule))


def jlgd(
    phi,
    c: float,
    dataset: Dataset,
    mu: float,
    mode: str = "averaged",
    seed: int = 0,
    overrides: NgdOverrides | None = None,
) -> LinearModel:
    """Project-and-clip, run ngd in k dimensions, lift the weights back.

    The reference-point norm is 1: the analysis anchor is the normalized
    max-margin separator, which the algorithm never needs explicitly.
    """
    if phi.d != dataset.dim:
        raise DimensionError(f"projection expects d={phi.d}, dataset has {dataset.dim}")
    if isinstance(phi, IdentityMap):
        low = dataset  # no projection: norms already within the original ball
    else:
        low = project_and_clip(phi, dataset, dataset.norm_bound)
    model_k = ngd(LossSpec("hinge", c), low, mu, ref_norm=1.0, mode=mode, seed=seed,
                  overrides=overrides)
    ambient = lift(phi, model_k.weights)
    prov = replace(model_k.provenance, jl_seed=phi.seed, k=phi.k)
    return LinearModel(ambient, dataset.dim, prov)
