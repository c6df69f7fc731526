"""Datasets: file ingestion, norm clipping, synthetic generation, margin oracles.

The two oracles here (`geometric_margin_oracle`, `min_outliers_oracle`) exist
for testing and for the small-instance competitiveness check; nothing on the
private training path reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import betainc, betaincinv

from ._seeding import SYNTH, stream
from .errors import (
    DataFormatError,
    DimensionError,
    GenerationError,
    LabelError,
    OracleError,
    SizeError,
)

#: Hard cap for the exhaustive outlier oracle: 2^16 subsets stays interactive.
EXHAUSTIVE_CAP = 16

#: Default additive tolerance for the margin oracle.
DEFAULT_TOL = 1e-6

_ORACLE_MAX_ITER = 200_000


@dataclass(frozen=True)
class LabeledPoint:
    """One example: a feature vector and a label in {-1, +1}."""

    features: np.ndarray
    label: int

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise LabelError(f"label must be -1 or +1, got {self.label}")
        if not np.all(np.isfinite(self.features)):
            raise DataFormatError("features contain NaN/Inf")


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled dataset inside the radius-`norm_bound` ball.

    `features` is an (n, d) float array, `labels` an (n,) array of +/-1.
    Arrays are write-locked after construction so a Dataset can be shared
    across threads.
    """

    features: np.ndarray
    labels: np.ndarray
    norm_bound: float
    _signed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DimensionError("features must be a 2-d array")
        if labs.shape != (feats.shape[0],):
            raise DimensionError("labels must match the number of rows")
        if feats.shape[0] < 1:
            raise DataFormatError("dataset must contain at least one point")
        if feats.shape[1] < 1:
            raise DataFormatError("dataset must have at least one feature column")
        if not np.all(np.isfinite(feats)):
            raise DataFormatError("features contain NaN/Inf")
        bad = ~np.isin(labs, (-1, 1))
        if bad.any():
            raise LabelError(f"label must be -1 or +1, got {labs[bad][0]}")
        if not self.norm_bound > 0:
            raise DataFormatError("norm_bound must be positive")
        feats.setflags(write=False)
        labs = labs.astype(np.float64)
        labs.setflags(write=False)
        signed = feats * labs[:, None]
        signed.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "_signed", signed)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.n

    def point(self, i: int) -> LabeledPoint:
        return LabeledPoint(self.features[i], int(self.labels[i]))

    def signed_features(self) -> np.ndarray:
        """Rows y_i * x_i; the only geometry the margin machinery needs."""
        return self._signed

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(sorted(indices), dtype=np.intp)
        return Dataset(self.features[idx], self.labels[idx].astype(int), self.norm_bound)


def _parse_label(token: str, line: int) -> int:
    try:
        value = float(token)
    except ValueError as exc:
        raise DataFormatError(f"cannot parse label {token!r}", line=line) from exc
    if value not in (-1.0, 0.0, 1.0):
        raise LabelError(f"label must be in {{-1, 0, +1}}, got {token}", line=line)
    return -1 if value <= 0.0 else 1  # 0 maps to -1, common file convention


def load_dataset(path, format: str = "csv") -> Dataset:
    """Read a CSV ("f1,...,fd,label") or LIBSVM ("label idx:val ...") file.

    Labels {0,1} are mapped onto {-1,+1}; LIBSVM indices are 1-based and
    densified; `norm_bound` is set to the largest observed row norm.
    """
    if format not in ("csv", "libsvm"):
        raise DataFormatError(f"unknown format {format!r}")
    rows, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if format == "csv":
        width = None
        for ln, raw in enumerate(lines, start=1):
            if not raw.strip():
                continue
            tokens = [t.strip() for t in raw.split(",")]
            if len(tokens) < 2:
                raise DataFormatError("expected at least one feature and a label", line=ln)
            labels.append(_parse_label(tokens[-1], ln))
            try:
                row = [float(t) for t in tokens[:-1]]
            except ValueError as exc:
                raise DataFormatError(f"cannot parse feature in {raw!r}", line=ln) from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DimensionError(
                    f"line {ln}: row has {len(row)} features, expected {width}"
                )
            rows.append(row)
        feats = np.asarray(rows, dtype=np.float64)
    else:
        entries = []
        dim = 0
        for ln, raw in enumerate(lines, start=1):
            if not raw.strip():
                continue
            tokens = raw.split()
            labels.append(_parse_label(tokens[0], ln))
            pairs = []
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError as exc:
                    raise DataFormatError(f"cannot parse entry {tok!r}", line=ln) from exc
                if idx < 1:
                    raise DataFormatError(f"index must be 1-based, got {idx}", line=ln)
                pairs.append((idx, val))
                dim = max(dim, idx)
            entries.append(pairs)
        feats = np.zeros((len(entries), dim), dtype=np.float64)
        for i, pairs in enumerate(entries):
            for idx, val in pairs:
                feats[i, idx - 1] = val
    if feats.shape[0] < 2:
        raise DataFormatError(f"need at least two data rows in {path}")
    if not np.all(np.isfinite(feats)):
        raise DataFormatError("features contain NaN/Inf")
    norms = np.linalg.norm(feats, axis=1)
    bound = float(norms.max())
    if bound <= 0.0:
        bound = 1.0  # all-zero dataset still needs a positive ball radius
    return Dataset(feats, np.asarray(labels, dtype=int), bound)


def save_csv(dataset: Dataset, path) -> None:
    """Write the CSV form `load_dataset` reads; stable bytes, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(dataset.n):
            feats = ",".join(repr(float(v)) for v in dataset.features[i])
            fh.write(f"{feats},{int(dataset.labels[i]):+d}\n")


def clip_norms(dataset: Dataset, b: float) -> Dataset:
    """Radially project every point into the radius-b ball; idempotent.

    Points within one part in 1e12 of the radius are left untouched so that
    re-clipping never moves a point (rescaling can overshoot b by an ulp).
    """
    if not b > 0:
        raise DataFormatError("clip radius must be positive")
    norms = np.linalg.norm(dataset.features, axis=1)
    outside = norms > b * (1.0 + 1e-12)
    scale = np.where(outside, np.divide(b, norms, out=np.ones_like(norms), where=norms > 0), 1.0)
    return Dataset(dataset.features * scale[:, None], dataset.labels.astype(int), b)


def _unit_sphere(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    g = rng.standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _sphere_cap_scores(rng: np.random.Generator, count: int, d: int, gamma: float) -> np.ndarray:
    """Sample t = <w*, x> for x uniform on S^{d-1} conditioned on |t| >= gamma.

    t^2 follows Beta(1/2, (d-1)/2); the truncated marginal is inverted exactly
    through the regularized incomplete beta, so generation never fails for
    valid parameters (rejection would need ~1/P(|t|>=gamma) draws per point,
    which is astronomically many in high dimension).
    """
    a, bb = 0.5, (d - 1) / 2.0
    lo = betainc(a, bb, gamma * gamma) if gamma < 1.0 else 1.0
    u = rng.random(count)
    v = betaincinv(a, bb, lo + u * (1.0 - lo))
    t = np.sqrt(np.clip(v, gamma * gamma, 1.0))
    signs = np.where(rng.random(count) < 0.5, 1.0, -1.0)
    return signs * t


def synth_margin_dataset(
    n: int,
    d: int,
    gamma: float,
    n_outliers: int = 0,
    seed: int = 0,
) -> tuple[Dataset, np.ndarray]:
    """Plant a margin: labels follow a hidden unit separator w* at margin >= gamma.

    Clean points are uniform on the unit sphere conditioned on
    y <w*, x> >= gamma with y = sign(<w*, x>); outliers are drawn the same
    way and then label-flipped.  Rows are shuffled deterministically by seed.
    Returns the dataset (norm_bound 1) and w*.
    """
    if d < 2:
        raise GenerationError("need d >= 2")
    if not 0.0 < gamma <= 1.0:
        raise GenerationError(f"gamma must lie in (0, 1], got {gamma}")
    if n_outliers < 0 or n_outliers >= n / 2:
        raise GenerationError("need 0 <= n_outliers < n/2")
    if n < 2:
        raise GenerationError("need n >= 2")
    rng = stream(seed, SYNTH)
    w_star = _unit_sphere(rng, 1, d)[0]
    t = _sphere_cap_scores(rng, n, d, gamma)
    # x = t*w* + sqrt(1-t^2) * (uniform direction orthogonal to w*)
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ w_star, w_star)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    feats = t[:, None] * w_star[None, :] + np.sqrt(1.0 - t * t)[:, None] * g
    labels = np.sign(t).astype(int)
    if n_outliers:
        labels[n - n_outliers :] *= -1
    perm = rng.permutation(n)
    return Dataset(feats[perm], labels[perm], 1.0), w_star


def _min_norm_point(signed: np.ndarray, tol: float, max_iter: int = _ORACLE_MAX_ITER):
    """Distance from the origin to conv{y_i x_i} with a witness direction.

    Frank-Wolfe with away steps and exact line search on f(p) = p'Gp over the
    simplex.  sqrt(f) upper-bounds the margin; min_i <z_i, Z'p>/||Z'p||
    lower-bounds it, so |upper - lower| <= tol is a certificate.
    Returns (margin, witness_direction or None).
    """
    n = signed.shape[0]
    gram = signed @ signed.T
    diag = np.diag(gram)
    i0 = int(np.argmin(diag))
    p = np.zeros(n)
    p[i0] = 1.0
    gp = gram[:, i0].copy()  # gp = G p
    lower = 0.0
    upper = math.sqrt(max(float(diag[i0]), 0.0))
    for _ in range(max_iter):
        f = float(p @ gp)
        upper = math.sqrt(max(f, 0.0))
        if upper <= tol:
            return 0.0, None
        lower = float(np.min(gp)) / upper
        if upper - lower <= tol:
            w = signed.T @ p
            return max(lower, 0.0), w / np.linalg.norm(w)
        s = int(np.argmin(gp))
        support = np.nonzero(p > 0)[0]
        a = support[int(np.argmax(gp[support]))]
        if f - gp[s] >= gp[a] - f:  # toward step
            direction = -p
            direction[s] += 1.0
            step_max = 1.0
            g_dir = gram[:, s] - gp
        else:  # away step
            direction = p.copy()
            direction[a] -= 1.0
            step_max = p[a] / (1.0 - p[a]) if p[a] < 1.0 else 0.0
            g_dir = gp - gram[:, a]
        curv = float(direction @ g_dir)
        if curv <= 0.0:
            step = step_max
        else:
            step = min(step_max, max(0.0, -float(p @ g_dir) / curv))
        if step <= 0.0:
            w = signed.T @ p
            norm = np.linalg.norm(w)
            if norm <= tol:
                return 0.0, None
            return max(lower, 0.0), w / norm
        p = np.maximum(p + step * direction, 0.0)
        p /= p.sum()
        gp = gram @ p
    raise OracleError(
        f"margin oracle did not certify tol={tol} in {max_iter} iterations; "
        f"bracket [{lower:.9g}, {upper:.9g}]",
        lower=lower,
        upper=upper,
    )


def geometric_margin_oracle(dataset: Dataset, tol: float = DEFAULT_TOL) -> float:
    """Largest achievable min_i y<w,x>/||w||, within additive `tol`; 0 if none."""
    if dataset.n < 1:
        raise DataFormatError("need at least one point")
    margin, _ = _min_norm_point(dataset.signed_features(), tol)
    return margin


def hard_margin_direction(dataset: Dataset, tol: float = DEFAULT_TOL):
    """(margin, unit separator) pair; direction is None when margin is 0."""
    return _min_norm_point(dataset.signed_features(), tol)


def min_outliers_oracle(
    dataset: Dataset, gamma: float, tol: float = DEFAULT_TOL
) -> tuple[int, tuple[int, ...]]:
    """Smallest removal set whose complement is gamma-separable (exhaustive).

    Enumerates removal sets in increasing size and lexicographic index order,
    so the witness is deterministic.  Guarded at n <= 16.
    """
    n = dataset.n
    if n > EXHAUSTIVE_CAP:
        raise SizeError(f"exhaustive oracle capped at n={EXHAUSTIVE_CAP}, got {n}")
    signed = dataset.signed_features()
    for size in range(n):
        for removed in combinations(range(n), size):
            keep = np.ones(n, dtype=bool)
            keep[list(removed)] = False
            margin, _ = _min_norm_point(signed[keep], tol)
            if margin >= gamma - tol:
                return size, removed
    return n - 1, tuple(range(n - 1))  # single point always separable at ||x||


def normalize_points(dataset: Dataset) -> Dataset:
    """Map every nonzero x to x/||x||; the Eq-of-ratios margin of the result
    equals the per-point-normalized margin of the original."""
    norms = np.linalg.norm(dataset.features, axis=1)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return Dataset(dataset.features * scale[:, None], dataset.labels.astype(int), 1.0)


def normalized_margin_oracle(dataset: Dataset, tol: float = DEFAULT_TOL) -> float:
    """max_w min_i y<w,x>/(||x|| ||w||), within additive tol."""
    return geometric_margin_oracle(normalize_points(dataset), tol)
