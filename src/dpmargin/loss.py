"""Hinge and zero-one losses, subgradients, empirical risk, sensitivity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabeledPoint
from .errors import DimensionError


@dataclass(frozen=True)
class LossSpec:
    kind: str  # "hinge" | "zero_one"
    c: float | None = None  # confidence margin, hinge only

    def __post_init__(self):
        if self.kind not in ("hinge", "zero_one"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "hinge" and not (self.c is not None and self.c > 0):
            raise ValueError("hinge loss needs a confidence margin c > 0")


def _check_dims(w: np.ndarray, dim: int) -> None:
    if w.shape[-1] != dim:
        raise DimensionError(f"weight dim {w.shape[-1]} != feature dim {dim}")


def hinge_loss(w: np.ndarray, p: LabeledPoint, c: float) -> float:
    """max{0, 1 - y<w,x>/c}."""
    _check_dims(np.asarray(w), p.features.shape[-1])
    return float(max(0.0, 1.0 - p.label * float(np.dot(w, p.features)) / c))


def hinge_subgrad(w: np.ndarray, p: LabeledPoint, c: float) -> np.ndarray:
    """-(y/c) x on the active region, zero elsewhere (including the kink)."""
    _check_dims(np.asarray(w), p.features.shape[-1])
    if 1.0 - p.label * float(np.dot(w, p.features)) / c > 0.0:
        return (-p.label / c) * p.features
    return np.zeros_like(p.features)


def zero_one_loss(w: np.ndarray, p: LabeledPoint) -> int:
    """1 iff y<w,x> < 0; an exact tie counts as correct."""
    _check_dims(np.asarray(w), p.features.shape[-1])
    return int(p.label * float(np.dot(w, p.features)) < 0.0)


def hinge_values(w: np.ndarray, dataset: Dataset, c: float) -> np.ndarray:
    """Vector of per-point hinge losses (vectorized form of hinge_loss)."""
    _check_dims(np.asarray(w), dataset.dim)
    return np.maximum(0.0, 1.0 - (dataset.signed_features() @ w) / c)


def zero_one_values(w: np.ndarray, dataset: Dataset) -> np.ndarray:
    _check_dims(np.asarray(w), dataset.dim)
    return (dataset.signed_features() @ w < 0.0).astype(np.float64)


def empirical_risk(w, dataset: Dataset, spec: LossSpec, mode: str = "averaged") -> float:
    """Summed or averaged empirical loss over the dataset."""
    if dataset.n == 0:
        raise DimensionError("empty dataset")
    if mode not in ("averaged", "summed"):
        raise ValueError(f"unknown mode {mode!r}")
    w = np.asarray(w, dtype=np.float64)
    if spec.kind == "hinge":
        values = hinge_values(w, dataset, spec.c)
    else:
        values = zero_one_values(w, dataset)
    total = float(values.sum())  # fixed-order reduction keeps results bit-stable
    return total / dataset.n if mode == "averaged" else total


def hinge_sensitivity(b: float, c: float) -> float:
    """L2 sensitivity b/c of the summed hinge gradient when one point is added
    or removed."""
    if not (b > 0 and c > 0):
        raise ValueError("b and c must be positive")
    return b / c
