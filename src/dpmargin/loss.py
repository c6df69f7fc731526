"""Empirical hinge and zero-one risk, and the hinge gradient's sensitivity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
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


def empirical_risk(w, dataset: Dataset, spec: LossSpec) -> float:
    """Averaged empirical loss over the dataset.

    Per point, the hinge loss is max{0, 1 - y<w,x>/c} and the zero-one loss
    is 1 iff y<w,x> < 0, so an exact tie counts as correct.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != dataset.dim:
        raise DimensionError(f"weight dim {w.shape[-1]} != feature dim {dataset.dim}")
    scores = dataset.signed_features() @ w
    if spec.kind == "hinge":
        values = np.maximum(0.0, 1.0 - scores / spec.c)
    else:
        values = (scores < 0.0).astype(np.float64)
    return float(values.sum()) / dataset.n  # fixed-order reduction keeps results bit-stable


def hinge_sensitivity(b: float, c: float) -> float:
    """L2 sensitivity b/c of the summed hinge gradient when one point is added
    or removed."""
    if not (b > 0 and c > 0):
        raise ValueError("b and c must be positive")
    return b / c
