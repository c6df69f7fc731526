"""Rademacher Johnson-Lindenstrauss projection.

Dimension selection, seeded sign sampling, projecting-and-clipping datasets,
and lifting low-dimensional weights back to the ambient space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeding import JL_SIGNS, stream
from .data import Dataset, row_norms
from .errors import DimensionError

#: Multiplier in front of (b/gamma)^2 log(...); the source bound hides the
#: constant, 8 keeps the distortion checks comfortably green.  Override per call.
DEFAULT_C_JL = 8.0

#: Rows of a JL matrix generated, projected through and lifted through at
#: once: 6.1 MB of float64 at d = 3000.  A multiple of 4, so the blocks'
#: signs are those of one draw of the whole matrix: the generator packs four
#: int8 draws into each 32-bit word and starts a fresh word at every call.
BLOCK_ROWS = 256


def projection_dim(
    gamma: float,
    n: int,
    grid_size: int,
    beta: float,
    b: float = 1.0,
    c_jl: float = DEFAULT_C_JL,
) -> int:
    """Dimension that preserves a gamma-margin with failure probability beta.

    k = ceil(c_jl * (b/gamma)^2 * ln(grid_size (n+2)(n+1) / beta)).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if gamma > b:
        raise ValueError(f"gamma={gamma} exceeds the norm bound b={b}")
    if not (n >= 1 and grid_size >= 1 and 0 < beta < 1 and b > 0 and c_jl > 0):
        raise ValueError("n, grid_size, beta, b, c_jl out of range")
    arg = grid_size * (n + 2) * (n + 1) / beta
    return max(1, math.ceil(c_jl * (b / gamma) ** 2 * math.log(arg)))


@dataclass(frozen=True)
class JlMatrix:
    """Seeded k x d matrix with entries +/- 1/sqrt(k).

    The entries are a pure function of (k, d, seed), so a matrix keeps none.
    `blocks` generates them from the seed's stream BLOCK_ROWS rows at a time,
    and `project_points` and `lift_weights` drop each block before the next
    is drawn, so no more than one block exists at once.  A selection reads
    a matrix once to project its candidate's rows and once more only to
    lift the winner's weights.  Block by block, the sums run in another
    order than in one product with the whole matrix, so the results can
    differ from it in the last bits.
    """

    k: int
    d: int
    seed: int

    def __post_init__(self):
        if self.k < 1 or self.d < 1:
            raise DimensionError("k and d must be >= 1")

    def blocks(self):
        """Yield the entries from the seed, BLOCK_ROWS rows at a time, top to
        bottom.

        A block is dropped here before the next is drawn, so a reader that
        drops it too holds one block at a time.
        """
        rng = stream(self.seed, JL_SIGNS)
        for start in range(0, self.k, BLOCK_ROWS):
            rows = min(BLOCK_ROWS, self.k - start)
            block = rng.integers(0, 2, size=(rows, self.d), dtype=np.int8).astype(np.float64)
            block *= 2.0
            block -= 1.0
            block /= math.sqrt(self.k)
            block.setflags(write=False)
            yield block
            del block

    @property
    def entries(self) -> np.ndarray:
        """The whole k x d matrix, built from its blocks on every access."""
        return np.concatenate(tuple(self.blocks()))

    def project_points(self, features: np.ndarray) -> np.ndarray:
        if features.shape[-1] != self.d:
            raise DimensionError(f"points have dim {features.shape[-1]}, matrix d={self.d}")
        out = np.empty(features.shape[:-1] + (self.k,))
        start = 0
        for block in self.blocks():
            np.matmul(features, block.T, out=out[..., start : start + len(block)])
            start += len(block)
            del block  # before the next block is drawn
        return out

    def lift_weights(self, w_k: np.ndarray) -> np.ndarray:
        if w_k.shape[-1] != self.k:
            raise DimensionError(f"weights have dim {w_k.shape[-1]}, matrix k={self.k}")
        w = np.zeros(w_k.shape[:-1] + (self.d,))
        start = 0
        for block in self.blocks():
            w += w_k[..., start : start + len(block)] @ block
            start += len(block)
            del block  # before the next block is drawn
        return w


@dataclass(frozen=True)
class IdentityMap:
    """Passthrough used when the formula dimension already exceeds d.

    Projecting up cannot help: the identity preserves margins exactly, which
    dominates the probabilistic guarantee the Rademacher map would give.
    """

    d: int
    seed: None = None

    @property
    def k(self) -> int:
        return self.d

    def project_points(self, features: np.ndarray) -> np.ndarray:
        if features.shape[-1] != self.d:
            raise DimensionError(f"points have dim {features.shape[-1]}, expected {self.d}")
        return features

    def lift_weights(self, w_k: np.ndarray) -> np.ndarray:
        if w_k.shape[-1] != self.d:
            raise DimensionError(f"weights have dim {w_k.shape[-1]}, expected {self.d}")
        return w_k


def sample_jl(k: int, d: int, seed: int) -> JlMatrix:
    """Draw the seeded Rademacher matrix; identical for identical seeds."""
    return JlMatrix(k=int(k), d=int(d), seed=int(seed))


def project_and_clip(phi, dataset: Dataset, v: float) -> Dataset:
    """Project every point and radially clip at radius 2v; labels unchanged.

    Projects the signed rows: negating a row commutes exactly with the
    projection and the clip, so the result's features are those of the
    projected points bit for bit, and only the returned n x k array is built.
    """
    if phi.d != dataset.dim:
        raise DimensionError(f"matrix expects d={phi.d}, dataset has d={dataset.dim}")
    if not v > 0:
        raise ValueError("clip radius parameter v must be positive")
    projected = phi.project_points(dataset.signed_features())
    radius = 2.0 * v
    norms = row_norms(projected)
    scale = np.minimum(1.0, np.divide(radius, norms, out=np.ones_like(norms), where=norms > 0))
    if projected.flags.writeable:
        projected *= scale[:, None]
    else:  # the identity map hands back the dataset's own, write-locked rows
        projected = projected * scale[:, None]
    return Dataset.from_signed(projected, dataset.labels, radius)


def lift(phi, w_k: np.ndarray) -> np.ndarray:
    """Ambient-space weights Phi^T w_k; classification commutes with projection."""
    return phi.lift_weights(np.asarray(w_k, dtype=np.float64))
