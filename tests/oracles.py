"""Per-point reference forms the tests check the library's vectorised code against.

Nothing in the library calls these; they state each quantity one point (or
one closed form) at a time, as the paper writes it, or keep a loop as it was
before a rewrite that must not change its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dpmargin.data import DEFAULT_TOL, geometric_margin_oracle, normalize_points
from dpmargin.errors import DataFormatError, LabelError
from dpmargin.optimizer import _NOISE_BLOCK


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


def point(dataset, i: int) -> LabeledPoint:
    """Row i of a dataset, rebuilt from its signed row alone."""
    label = dataset.labels[i]
    feats = dataset.signed_features()[i] * label
    feats.setflags(write=False)
    return LabeledPoint(feats, int(label))


def hinge_loss(w, p: LabeledPoint, c: float) -> float:
    """max{0, 1 - y<w,x>/c}."""
    return float(max(0.0, 1.0 - p.label * float(np.dot(w, p.features)) / c))


def hinge_subgrad(w, p: LabeledPoint, c: float) -> np.ndarray:
    """-(y/c) x on the active region, zero elsewhere (including the kink)."""
    if 1.0 - p.label * float(np.dot(w, p.features)) / c > 0.0:
        return (-p.label / c) * p.features
    return np.zeros_like(p.features)


def zero_one_loss(w, p: LabeledPoint) -> int:
    """1 iff y<w,x> < 0; an exact tie counts as correct."""
    return int(p.label * float(np.dot(w, p.features)) < 0.0)


def normalized_margin_oracle(dataset, tol: float = DEFAULT_TOL) -> float:
    """max_w min_i y<w,x>/(||x|| ||w||), within additive tol."""
    return geometric_margin_oracle(normalize_points(dataset), tol)


def tnb_tune_privacy_exact(mu: float, r: float, delta: float) -> float:
    """Exact epsilon of geometric-run-count selection:
    1.5 mu^2 + 3 mu sqrt(2 ln(1/(r delta))) + delta."""
    root = math.sqrt(2.0 * math.log(1.0 / (r * delta)))
    return 1.5 * mu * mu + 3.0 * mu * root + delta


def noisy_descent(signed, c: float, T: int, sigma: float, eta: float, averaging: bool,
                  rng) -> np.ndarray:
    """Noisy subgradient descent one step and one noise row at a time.

    w_{t+1} = w_t - eta (g_t + sigma z_t) from w_0 = 0, with g_t = -(1/c) times
    the sum of the signed rows whose score <w_t, s_i> is below c; returns
    (1/T) sum_{t<T} w_t or w_T.
    """
    w = np.zeros(signed.shape[1])
    total = np.zeros_like(w)
    for _ in range(T):
        total += w
        grad = -signed[signed @ w < c].sum(axis=0) / c
        if sigma > 0.0:
            grad = grad + sigma * rng.standard_normal(w.shape[0])
        w = w - eta * grad
    return total / T if averaging else w


def broadcast_feature_descent(signed, c, T, sigma, eta, averaging, draw,
                              width=1) -> np.ndarray:
    """`optimizer._feature_descent` as it was before its active-set test
    went into preallocated buffers, kept verbatim.

    Each step compares the scores to the limits c^2/eta, a scalar or a
    W-vector broadcast along the rows, and casts the result into a new float
    array.  The buffered loop feeds its two products the same 0/1 values, so
    it must return the same weights bit for bit.
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
