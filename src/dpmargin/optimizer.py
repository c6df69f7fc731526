"""Noisy full-batch subgradient descent and its projection-wrapped form.

The iteration count, noise scale and step size follow fixed schedules derived
from (n, budget, sensitivity).  `NgdOverrides` pins T, sigma or eta
explicitly: tests use it, and so does `cli`'s margin-curve command, which
runs a long noiseless descent (T = 400, sigma = 0) for its soft direction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

import numpy as np

from ._seeding import NGD_NOISE, block_stream, position, resume, stream
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


_NO_OVERRIDES = NgdOverrides()


class SelectionRun(NamedTuple):
    """Run `index` of a selection, which a tuner passes to its base for
    `ngd`'s seed.

    The run draws its noise from `_seeding.block_stream(key, index)`, `key`
    being `noise_key` of the selection's seed, and holds its T to `cap`, the
    iteration cap its selection read once.  A run given a `lane` descends
    with the other runs on its rows (`Lane`), in the lane's order.  Its bits
    follow from key, index, its c and its lane's width alone, not from its
    lane mates or its place among them.
    """

    key: int
    index: int
    cap: int
    lane: Lane | None = None


class Lane:
    """Runs on one set of rows that `ngd` descends together, W at a time.

    `members` yields each run's (index in its selection, hinge parameter c)
    in the order the runs reach `ngd`, which refuses a run that comes out of
    that order.  The runs bring the same rows (the same `Dataset`) and the
    same (mu, mode, overrides, cap), so they differ only in c: each run's
    schedule (T, sigma, eta) is resolved once per distinct c, and T, which
    does not depend on c, is shared.  `ngd` reads the width W from the n, k
    and T (`lane_width`).  The first run of each lane takes the next W
    members and descends them together, member j in column j with its own
    c, sigma and eta (`_feature_descent`), reading member i's noise from
    `block_stream(key, i)` a block of rows at a time (`_lane_noise`); each
    run then takes a copy of its own column.  Columns past the last member
    are inert, with zero noise, so a run's bits depend on neither its lane
    mates nor their number.  At W = 1, which the Gram form always gets, each
    run descends alone.

    The lane holds only the members and weights of the lane it descended
    last, and one schedule per distinct c: O(W) state, whatever the number
    of runs.
    """

    def __init__(self, key: int, members):
        self.key = key
        self._members = iter(members)
        self._inputs = None  # (rows, mu, mode, overrides, cap) every run brings
        self._schedules = {}  # c -> (T, sigma, eta)
        self._held = []  # (index, c) of the lane descended last, by column
        self._next = 0  # the column of the next run to arrive
        self._weights = None  # k x W

    def column(self, index: int, c: float, inputs: tuple) -> tuple[np.ndarray, tuple]:
        """Run `index`'s weights and (T, sigma, eta), for a run at `c` whose
        schedule follows from `inputs` = (rows, mu, mode, overrides, cap)."""
        if self._inputs is None:
            self._inputs = inputs
        elif inputs[0] is not self._inputs[0] or inputs[1:] != self._inputs[1:]:
            raise ValueError("the runs of a lane must share their rows and schedule inputs")
        if self._next == len(self._held):  # the lane descended last is used up
            self._held, self._next, self._weights = [next(self._members, None)], 0, None
        if self._held[self._next] != (index, c):
            raise ValueError(f"run {index} at c = {c} is not this lane's next run")
        if self._weights is None:
            self._descend()
        self._next += 1
        return self._weights[:, self._next - 1].copy(), self._schedule(c)

    def _schedule(self, c):
        if c not in self._schedules:
            self._schedules[c] = _resolve(c, *self._inputs)
        return self._schedules[c]

    def _descend(self):
        rows, _, mode, _, _ = self._inputs
        averaging = mode == "averaged"
        T = self._schedule(self._held[0][1])[0]
        width = lane_width(rows.n, rows.dim, T)
        self._held += islice(self._members, width - 1)
        if width == 1:
            index, c = self._held[0]
            _, sigma, eta = self._schedule(c)
            out = _descend_alone(rows, c, T, sigma, eta, averaging, block_stream(self.key, index))
            self._weights = out[:, None]
            return
        schedules = [(c, *self._schedule(c)[1:]) for _, c in self._held]
        first_c, _, first_eta = schedules[0]
        schedules += [(first_c, 0.0, first_eta)] * (width - len(schedules))  # inert
        c, sigma, eta = np.array(schedules).T
        draw = _lane_noise(self.key, [index for index, _ in self._held], width, rows.dim, T)
        self._weights = _feature_descent(rows.signed_features(), c, T, sigma, eta, averaging,
                                         draw, width)


def _lane_noise(key: int, indices: list[int], width: int, k: int, T: int):
    """`draw` for a lane's descent: each call fills member j's next `rows`
    noise rows from `block_stream(key, indices[j])`, into one array of
    width x (512 // width) x k, never larger than a lone run's 512 x k
    block.  Between calls each member's place in its stream is saved and
    restored (`_seeding.position`, `resume`), and saved only when more rows
    follow, so a lane of runs no longer than one block draws as a lone
    run's stream would, with no saved place.  The members past `indices`
    keep zero rows."""
    noise = np.zeros((width, min(T, _NOISE_BLOCK // width), k))
    places = [None] * len(indices)
    drawn = 0

    def draw(rows):
        nonlocal drawn
        drawn += rows
        for j, index in enumerate(indices):
            rng = block_stream(key, index) if places[j] is None else resume(places[j])
            rng.standard_normal(out=noise[j, :rows])
            if drawn < T:
                places[j] = position(rng)
        return noise[:, :rows]

    return draw


def lane_width(n: int, k: int, T: int) -> int:
    """Columns of a lane of T-step runs on n x k rows.

    1 where the Gram form runs (`_gram_pays`), which descends alone;
    otherwise the largest power of two up to 32 that keeps the lane's
    n x W scores and each k x W array within 2^15 numbers: 8 at n = 4000,
    k = 20 and 32 at n = 100, k = 20.  A lane's noise is drawn 512 // W
    rows at a time, so its size does not depend on T.  `_feature_descent`
    at n = 4000, k = 20 on one BLAS thread (OpenBLAS, 2-vCPU x86 host) took
    48.5 / 137 / 368 / 359 / 695 us a step at W = 1 / 8 / 13 / 16 / 32,
    so 13 runs go faster as two lanes of 8 than as one lane of 13 or 16;
    at n = 100 widths above 32 were no faster.
    """
    if _gram_pays(n, k, T):
        return 1
    fit = min(32, 2**15 // max(n, k))
    return 1 << max(0, fit.bit_length() - 1)


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


def run_length(n: int, mu: float, overrides: NgdOverrides = _NO_OVERRIDES,
               cap: int | None = None) -> int:
    """T for a run at budget mu: the override, else ceil(n^2 mu^2), at least 1.

    A T above `cap` raises ResourceError; None reads `iteration_cap()`.
    """
    if overrides.T is not None:
        T = int(overrides.T)
        if T < 1:
            raise ValueError("T override must be >= 1")
    else:
        T = max(1, math.ceil((n * mu) ** 2))
    if cap is None:
        cap = iteration_cap()
    if T > cap:
        raise ResourceError(
            f"T = {T} exceeds the iteration cap {cap}; raise DPMARGIN_T_CAP"
        )
    return T


def resolve_schedule(
    n: int,
    k: int,
    delta_sens: float,
    mu: float,
    mode: str,
    overrides: NgdOverrides,
    cap: int | None = None,
) -> tuple[int, float, float]:
    """Return (T, sigma, eta) for a run; T is `run_length`'s, held to `cap`.

    Defaults: T = ceil(n^2 mu^2), sigma = delta_sens * sqrt(T) / mu (each
    step mu/sqrt(T)-GDP, so T noisy steps compose to mu), and eta balancing
    the gradient and noise second moments for a reference point of norm 1.
    An overriding T gets the same sigma.  Either output reads at most T
    noisy steps, so it costs at most mu; at a fractional n^2 mu^2 the
    ceiling costs a little accuracy, not privacy.
    """
    T = run_length(n, mu, overrides, cap)
    if overrides.sigma is None:
        sigma = gaussian_noise_std(delta_sens, mu / math.sqrt(T))
    else:
        sigma = float(overrides.sigma)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if overrides.eta is not None:
        eta = float(overrides.eta)
    else:
        noise_term = k * sigma * sigma
        if mode == "last_iterate":
            noise_term *= math.log(1.0 / BETA_OPT)
        eta = math.sqrt(1.0 / (T * ((n * delta_sens) ** 2 + noise_term)))
    if not eta > 0:
        raise ValueError("eta must be positive")
    return T, sigma, eta


def ngd(
    c: float,
    dataset: Dataset,
    mu: float,
    mode: str = "averaged",
    seed: int | SelectionRun = 0,
    overrides: NgdOverrides | None = None,
) -> LinearModel:
    """Noisy subgradient descent on the summed hinge loss at `c` from w0 = 0.

    Returns the averaged iterate (1/T) sum_{t<T} w_t or the last iterate w_T
    depending on `mode`.  Deterministic given `seed`.  Each run resolves its
    own schedule (T, sigma, eta) and form, and records the schedule in the
    model's `provenance.schedule`.  A `SelectionRun` with a `lane` takes the
    schedule its lane resolved for its c, descends with its lane mates, who
    may have other c, in a lane `lane_width(n, k, T)` columns wide and
    returns its own column (`Lane`); its sums then run as matrix products,
    whose order differs from a lone run's matrix-vector products in the last
    bits.  At width 1, which the Gram form always gets, it descends alone.

    A noisy run draws exactly T * k normals from its stream: a lone run in
    blocks of at most 512 rows, none longer than the steps left, and a lane
    run in blocks of at most 512 // W rows.  The stream fills arrays in
    order, so the noise does not depend on the block sizes.  An integer
    seed opens `_seeding.stream(seed, NGD_NOISE)` and reads DPMARGIN_T_CAP;
    a `SelectionRun` reads its selection's key at its own counter block
    (`_seeding.block_stream`) and brings the cap its selection read.  Block
    0 of a seed's key is that seed's stream, so either way runs on any
    threads draw the same numbers.

    The same descent runs in one of two forms, picked from (n, k, T) alone.
    The feature-space form keeps w, as its gradient sum less its noise
    sum, and costs two n x k matrix-vector products a step.  The Gram form
    keeps the scores S w (S the signed rows), costs at most one n x n
    product a step with G = S S^T, and
    rebuilds w at the end; it runs when n < 2k and T is long enough to repay
    G (see `_gram_pays`).  G is built by the first run that reads it and
    kept on the dataset (`Dataset.gram`), so every Gram-form run on one
    dataset shares it; a selection's rows, and so their G, live only as long
    as the selection holds them (`project_rows`).  The n x n product runs
    only at steps whose hinge active set differs from the previous step's.
    Its sums run in another order, so its weights agree with the
    feature-space form to about 1e-15 relative, not bit for bit.
    """
    if mode not in ("averaged", "last_iterate"):
        raise ValueError(f"unknown output mode {mode!r}")
    if dataset.n < 2:
        raise ValueError("need n >= 2")
    if not mu > 0:
        raise ValueError("mu must be positive")
    run = seed if isinstance(seed, SelectionRun) else None
    inputs = (dataset, mu, mode, overrides or _NO_OVERRIDES, run.cap if run else None)
    if run and run.lane:
        out, (T, sigma, eta) = run.lane.column(run.index, c, inputs)
    else:
        T, sigma, eta = _resolve(c, *inputs)
        rng = block_stream(run.key, run.index) if run else stream(seed, NGD_NOISE)
        out = _descend_alone(dataset, c, T, sigma, eta, mode == "averaged", rng)
    k = dataset.dim
    return LinearModel(out, k, Provenance(k=k, schedule=NgdConfig(T=T, sigma=sigma, eta=eta)))


def _resolve(c, dataset, mu, mode, overrides, cap) -> tuple[int, float, float]:
    """`resolve_schedule` for a run at `c` on `dataset`."""
    return resolve_schedule(dataset.n, dataset.dim, hinge_sensitivity(dataset.norm_bound, c),
                            mu, mode, overrides, cap)


def _descend_alone(dataset, c, T, sigma, eta, averaging, rng) -> np.ndarray:
    """One run's weights, in the form (n, k, T) picks, its noise from `rng`."""
    n, k = dataset.n, dataset.dim
    if _gram_pays(n, k, T):
        return _gram_descent(dataset, c, T, sigma, eta, averaging, rng)
    return _feature_descent(dataset.signed_features(), c, T, sigma, eta, averaging,
                            lambda rows: rng.standard_normal((1, rows, k)))


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


def _feature_descent(signed, c, T, sigma, eta, averaging, draw, width=1) -> np.ndarray:
    """The descent on w of `width` runs at once: scores and gradient from S
    every step.

    With a = 1[S w < c] the active rows, w_t = (eta/c) (p_t - r_t) for the
    pulls p_t = sum_{u<t} S^T a_u and the noise r_t = c sigma sum_{u<t} z_u,
    and S w_t < c iff S (p_t - r_t) < c^2/eta.  So the loop keeps
    x = p - r, takes r from one cumulative sum per noise block, and scales
    by eta/c once at the end.  Step t scores x_t at its end, for step
    t + 1: S w_0 = 0 is never computed, and neither is S w_T.

    Run j is column j of x, so a step is two matrix products, (n x k)(k x W)
    and (k x n)(n x W).  c, sigma and eta enter a column only through its
    noise scale c sigma, its active-set limit c^2/eta and its final scale
    eta/c, so for W > 1 they are W-vectors, one entry per run, and each
    column's bits are those of the same arithmetic on its own scalars.
    `draw(rows)` returns a width x rows x k array, which the loop
    overwrites, whose [j] holds run j's next `rows` noise rows; blocks are
    512 // width rows.  At width 1 every array is a vector, and a step is
    the two matrix-vector products of a lone run.  Returns w, k x `width`
    (a k-vector at width 1).
    """
    signed_t = signed.T
    n, k = signed.shape
    scale = eta / c
    limit = c / scale
    noise_scale = np.reshape(c * sigma, (-1, 1, 1))
    noisy = np.max(sigma) > 0.0
    columns = (width,) if width > 1 else ()
    pulls = np.zeros((k, *columns))
    x = np.empty_like(pulls) if noisy else pulls
    total = np.zeros_like(pulls)  # sum_{t<T} x_t; x_0 = 0
    scores = np.zeros((n, *columns))  # S x_t
    step = np.empty_like(pulls)
    drift = np.zeros((width, k))  # r at the start of the block
    block_rows = _NOISE_BLOCK // width
    for start in range(0, T, block_rows):
        rows = min(block_rows, T - start)
        last = rows - 1 if start + rows == T else rows
        if noisy:
            block = draw(rows)
            block *= noise_scale
            block[:, 0] += drift
            np.cumsum(block, axis=1, out=block)  # row t is r_{start + t + 1}
            drift[:] = block[:, -1]  # `draw` may reuse the block's array
            noise = block[0] if width == 1 else block.transpose(1, 2, 0)
        for t in range(rows):
            active = (scores < limit).astype(np.float64)  # zero subgradient at the kink
            np.dot(signed_t, active, out=step)
            pulls += step
            if noisy:
                np.subtract(pulls, noise[t], out=x)
            if t == last:
                break
            np.dot(signed, x, out=scores)
            if averaging:
                total += x
    if averaging:
        total *= scale / T
        return total
    return x * scale


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
    """The rows a candidate's runs descend on, new for each call.

    For a JL matrix, `dataset` projected by phi and clipped at twice its
    norm bound; for the identity map, a new `Dataset` on `dataset`'s own
    signed rows, not copied and not clipped again.  Any G built on the rows
    (`Dataset.gram`) lives and dies with them.
    """
    if isinstance(phi, IdentityMap):
        return Dataset.from_signed(dataset.signed_features(), dataset.labels,
                                   dataset.norm_bound)
    return project_and_clip(phi, dataset, dataset.norm_bound)


def jlgd(
    phi,
    c: float,
    low: Dataset,
    mu: float,
    mode: str = "averaged",
    seed: int | SelectionRun = 0,
    overrides: NgdOverrides | None = None,
) -> LinearModel:
    """Run ngd on `low`, the rows in phi's k dimensions
    (`project_rows(phi, dataset)`), and return the model as `ngd` built it.

    `lift_model` takes a JL model back to d and records phi's seed.  The
    reference-point norm is 1:
    the analysis anchor is the normalized max-margin separator, which the
    algorithm never needs explicitly.
    """
    if low.dim != phi.k:
        raise DimensionError(f"rows have dim {low.dim}, projection k={phi.k}")
    return ngd(c, low, mu, mode=mode, seed=seed, overrides=overrides)


def lift_model(phi, model: LinearModel) -> LinearModel:
    """A model descended on `project_rows(phi, ...)`, with its weights lifted
    back to phi's d dimensions and phi's seed recorded; an identity-map
    model is returned as it is."""
    if isinstance(phi, IdentityMap):
        return model
    prov = model.provenance
    return LinearModel(lift(phi, model.weights), phi.d,
                       Provenance(jl_seed=phi.seed, k=prov.k, schedule=prov.schedule))
