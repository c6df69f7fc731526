"""Datasets: file ingestion, norm clipping, synthetic generation, margin oracles.

The margin oracles here (`geometric_margin_oracle`, `hard_margin_direction`,
`min_outliers_oracle`) serve `synth`, `margin-curve` and the small-instance
competitiveness check; nothing on the private training path reads them.
Each margin is one `scipy.optimize.nnls` solve for the point of the signed
rows' convex hull nearest the origin, checked by a certificate that brackets
the margin within `tol`; scipy.optimize is imported on the first oracle call.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

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

_GRAM_LOCK = threading.Lock()

#: Rows whose squares `row_norms` holds at once.
_NORM_BLOCK = 64

#: ASCII line breaks of `str.splitlines` that a text file's lines keep inside.
_EXTRA_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e")


@dataclass(frozen=True, init=False)
class Dataset:
    """Immutable labeled dataset inside the radius-`norm_bound` ball.

    Built from an (n, d) array of features and an (n,) array of +/-1 labels,
    it holds only the signed rows y_i * x_i (one n x d float64 array, about
    8 n d bytes) and the labels; `features` is rebuilt from them on access.
    Arrays are write-locked after construction so a Dataset can be shared
    across threads.
    """

    labels: np.ndarray
    norm_bound: float
    _signed: np.ndarray = field(repr=False)
    _gram: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __init__(self, features, labels, norm_bound):
        feats = np.asarray(features, dtype=np.float64)
        labs = _validate(feats, labels, norm_bound)
        self._hold(feats * labs[:, None], labs, norm_bound)

    @classmethod
    def from_signed(cls, signed, labels, norm_bound) -> "Dataset":
        """Dataset with signed rows `signed`, adopted (and write-locked), not copied."""
        signed = np.ascontiguousarray(signed, dtype=np.float64)
        labs = _validate(signed, labels, norm_bound)
        dataset = object.__new__(cls)
        dataset._hold(signed, labs, norm_bound)
        return dataset

    def _hold(self, signed, labels, norm_bound):
        signed.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "norm_bound", norm_bound)
        object.__setattr__(self, "_signed", signed)
        object.__setattr__(self, "_gram", None)

    @property
    def features(self) -> np.ndarray:
        """The rows x_i, rebuilt (exactly, y being +/-1) on every access: read it once."""
        feats = self._signed * self.labels[:, None]
        feats.setflags(write=False)
        return feats

    @property
    def n(self) -> int:
        return self._signed.shape[0]

    @property
    def dim(self) -> int:
        return self._signed.shape[1]

    def __len__(self) -> int:
        return self.n

    def signed_features(self) -> np.ndarray:
        """Rows y_i * x_i; the only geometry the margin machinery needs."""
        return self._signed

    def gram(self) -> np.ndarray:
        """G = S S^T for the signed rows S (8 n^2 bytes), built on first use
        and kept as long as the dataset.

        A selection builds its own rows (`optimizer.project_rows`), so their
        G lives and dies with them.  The lock makes callers that share a
        dataset across threads build G once.
        """
        with _GRAM_LOCK:
            if self._gram is None:
                gram = self._signed @ self._signed.T
                gram.setflags(write=False)
                object.__setattr__(self, "_gram", gram)
            return self._gram

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(sorted(indices), dtype=np.intp)
        return Dataset.from_signed(self._signed[idx], self.labels[idx], self.norm_bound)


def _validate(rows: np.ndarray, labels, norm_bound) -> np.ndarray:
    """Validate an (n, d) array of (signed) rows with its labels; labels as float64."""
    labs = np.asarray(labels)
    if rows.ndim != 2:
        raise DimensionError("features must be a 2-d array")
    if labs.shape != (rows.shape[0],):
        raise DimensionError("labels must match the number of rows")
    if rows.shape[0] < 1:
        raise DataFormatError("dataset must contain at least one point")
    if rows.shape[1] < 1:
        raise DataFormatError("dataset must have at least one feature column")
    if not np.all(np.isfinite(rows)):
        raise DataFormatError("features contain NaN/Inf")
    bad = ~np.isin(labs, (-1, 1))
    if bad.any():
        raise LabelError(f"label must be -1 or +1, got {labs[bad][0]}")
    if not norm_bound > 0:
        raise DataFormatError("norm_bound must be positive")
    return labs.astype(np.float64)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=1) bit for bit, without its n x d temporary.

    Each row's squares are summed by the same reduction, a block of rows at
    a time, so no more than _NORM_BLOCK rows of squares exist at once.
    """
    norms = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _NORM_BLOCK):
        block = rows[start : start + _NORM_BLOCK]
        np.sqrt(np.add.reduce(block * block, axis=1), out=norms[start : start + _NORM_BLOCK])
    return norms


def _parse_label(token: str, line: int) -> int:
    try:
        value = float(token)
    except ValueError as exc:
        raise DataFormatError(f"cannot parse label {token!r}", line=line) from exc
    if value not in (-1.0, 0.0, 1.0):
        raise LabelError(f"label must be in {{-1, 0, +1}}, got {token}", line=line)
    return -1 if value <= 0.0 else 1  # 0 maps to -1, common file convention


def _plain_lines(fh):
    """The file's lines, refusing a line that `str.splitlines` would split again.

    A text file breaks lines only at \\n, \\r and \\r\\n; `splitlines` also
    breaks at \\v, \\f, \\x1c-\\x1e and three non-ASCII characters, which
    `np.loadtxt` would strip as whitespace around a number instead.
    """
    for line in fh:
        if not line.isascii() or any(c in line for c in _EXTRA_BREAKS):
            raise ValueError("line holds a break that only splitlines honours")
        yield line


def _read_csv_table(path) -> np.ndarray | None:
    """The CSV as an n x (d+1) float table in one C parse, labels last.

    None when the file is not plainly well formed: a parse error, fewer than
    two columns, or a label outside {-1, 0, +1}.  `np.loadtxt` then differs
    from `_parse_csv` in what it accepts (whitespace-only lines, `1_0`
    tokens, one column) or in the line it reports, so the caller reruns the
    per-line parser, which accepts the file or raises with the line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty file
            table = np.loadtxt(_plain_lines(fh), delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    labels = table[:, -1]
    if table.shape[1] < 2 or not np.all((labels == 0.0) | (np.abs(labels) == 1.0)):
        return None
    return table


def _parse_csv(lines: list[str]) -> tuple[np.ndarray, list[int]]:
    rows, labels = [], []
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
            raise DimensionError(f"line {ln}: row has {len(row)} features, expected {width}")
        rows.append(row)
    return np.asarray(rows, dtype=np.float64), labels


def _parse_libsvm(lines: list[str]) -> tuple[np.ndarray, list[int]]:
    labels, entries = [], []
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
    return feats, labels


def _read_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def load_dataset(path, format: str = "csv") -> Dataset:
    """Read a CSV ("f1,...,fd,label") or LIBSVM ("label idx:val ...") file.

    Labels {0,1} are mapped onto {-1,+1}; LIBSVM indices are 1-based and
    densified; `norm_bound` is set to the largest observed row norm.

    A CSV line holds d >= 1 numbers and a label in {-1, 0, +1}, separated by
    commas; anything Python's `float` reads is a number (so `1_0` and `nan`
    parse, and NaN/Inf are then rejected), whitespace around a token and
    blank lines are ignored, and every line must have the same width.
    Errors carry the 1-based line number.  A well-formed ASCII file is
    parsed in one pass of `np.loadtxt`; loading then holds the n x (d+1)
    table and the dataset's n x d signed rows at once, about 16 n d bytes,
    and the returned dataset about 8 n d bytes.
    """
    if format not in ("csv", "libsvm"):
        raise DataFormatError(f"unknown format {format!r}")
    table = _read_csv_table(path) if format == "csv" else None
    if table is not None:
        feats, labels = table[:, :-1], np.where(table[:, -1] > 0.0, 1, -1)
    elif format == "csv":
        feats, labels = _parse_csv(_read_lines(path))
    else:
        feats, labels = _parse_libsvm(_read_lines(path))
    if feats.shape[0] < 2:
        raise DataFormatError(f"need at least two data rows in {path}")
    if not np.all(np.isfinite(feats)):
        raise DataFormatError("features contain NaN/Inf")
    bound = float(row_norms(feats).max())
    if bound <= 0.0:
        bound = 1.0  # all-zero dataset still needs a positive ball radius
    return Dataset(feats, np.asarray(labels, dtype=int), bound)


def save_csv(dataset: Dataset, path) -> None:
    """Write the CSV form `load_dataset` reads; stable bytes, LF endings."""
    features = dataset.features
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row, label in zip(features, dataset.labels.tolist()):
            fh.write(f"{','.join(map(repr, row.tolist()))},{int(label):+d}\n")


def clip_norms(dataset: Dataset, b: float) -> Dataset:
    """Radially project every point into the radius-b ball; idempotent.

    Points within one part in 1e12 of the radius are left untouched so that
    re-clipping never moves a point (rescaling can overshoot b by an ulp).
    """
    if not b > 0:
        raise DataFormatError("clip radius must be positive")
    signed = dataset.signed_features()
    norms = row_norms(signed)
    outside = norms > b * (1.0 + 1e-12)
    scale = np.where(outside, np.divide(b, norms, out=np.ones_like(norms), where=norms > 0), 1.0)
    return Dataset.from_signed(signed * scale[:, None], dataset.labels, b)


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
    # imported here, not at module level: scipy.special (and the numpy.f2py
    # it loads) would add about 20 MB and 0.3 s to every process, and only
    # synthetic generation reads it
    from scipy.special import betainc, betaincinv

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


def _min_norm_point(signed: np.ndarray, tol: float):
    """Distance from the origin to conv{z_i}, z_i = y_i x_i, with a witness direction.

    One nonnegative least-squares solve (Lawson & Hanson 1974) finds the
    hull's nearest point S'p*: x* = argmin_{x >= 0} ||S'x||^2 + (1'x - 1)^2
    equals p*/(1 + ||S'p*||^2), never 0, so p* = x*/1'x*.  ||w|| for
    w = S'p* upper-bounds the margin and min_i <z_i, w>/||w|| lower-bounds
    it, so upper - lower <= tol is a certificate; a solve that misses it
    raises OracleError.  Returns (margin, unit witness direction or None).
    """
    # imported here, not at module level: scipy.optimize would add about
    # 45 MB and 0.6 s to every process, and only the oracles read it
    import scipy.optimize

    system = np.vstack([signed.T, np.ones(signed.shape[0])])  # [S'; 1']
    rhs = np.zeros(system.shape[0])
    rhs[-1] = 1.0
    try:
        x, _ = scipy.optimize.nnls(system, rhs)
    except RuntimeError as exc:
        raise OracleError(f"margin oracle: nnls failed: {exc}") from exc
    w = signed.T @ (x / x.sum())
    upper = float(np.linalg.norm(w))
    if upper <= tol:
        return 0.0, None
    lower = float(np.min(signed @ w)) / upper
    if not upper - lower <= tol:  # also refuses NaN weights
        raise OracleError(
            f"margin oracle did not certify tol={tol}; bracket [{lower:.9g}, {upper:.9g}]",
            lower=lower,
            upper=upper,
        )
    return lower, w / upper


def geometric_margin_oracle(dataset: Dataset, tol: float = DEFAULT_TOL) -> float:
    """Largest achievable min_i y<w,x>/||w||, within additive `tol`; 0 if none."""
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
    so the witness is deterministic; when no single point reaches gamma - tol,
    only removing all n does, and (n, (0, ..., n-1)) is returned.  Guarded at
    n <= 16.
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
    return n, tuple(range(n))  # no single point reaches gamma - tol


def normalize_points(dataset: Dataset) -> Dataset:
    """Map every nonzero x to x/||x||; the Eq-of-ratios margin of the result
    equals the per-point-normalized margin of the original."""
    signed = dataset.signed_features()
    norms = row_norms(signed)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return Dataset.from_signed(signed * scale[:, None], dataset.labels, 1.0)
