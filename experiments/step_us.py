"""Microseconds per step of `optimizer._feature_descent` at n = 4000, k = 20.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 experiments/step_us.py

For each lane width W in 1, 4, 8, 16 and 32 it times one noisy, averaged
descent of W columns on `iterate-lowdim`'s rows (n = 4000, d = 20, gamma =
0.25, normalised as `train` normalises them).  The columns are laid out as a
`Lane` lays out its members: column j descends at c = gamma_j / 3 for
`iterate-lowdim`'s margin grid gamma_0, gamma_1, ... (cycled past its 13
values), with its own sigma and eta, so at W > 1 c, sigma and eta are
W-vectors; W = 1 passes scalars, as a lone run does.  Each column draws its
noise as a lane member does (`_lane_noise`).  The script prints the median
over 5 timed descents, after one untimed one, of the wall time per step and
per step and column.  It sets no thread count: pin the BLAS threads in the
environment, as above, before numpy loads.  It is not a test and not part
of the benchmark.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from dpmargin._seeding import noise_key
from dpmargin.data import normalize_points, synth_margin_dataset
from dpmargin.loss import hinge_sensitivity
from dpmargin.master import margin_grid
from dpmargin.optimizer import NgdOverrides, _feature_descent, _lane_noise, resolve_schedule

N, K, GAMMA = 4000, 20, 0.25
MU = 0.0373  # iterate-lowdim's per-candidate budget: T = ceil(n^2 mu^2) = 22,261
STEPS = 2048
WIDTHS = (1, 4, 8, 16, 32)
REPEATS = 5


def lane_schedule(width: int):
    """(c, sigma, eta) of `width` columns, W-vectors at W > 1, as `Lane` builds them."""
    grid = margin_grid(N)
    schedules = []
    for j in range(width):
        c = grid[j % len(grid)] / 3
        _, sigma, eta = resolve_schedule(N, K, hinge_sensitivity(1.0, c), MU, "averaged",
                                         NgdOverrides(T=STEPS))
        schedules.append((c, sigma, eta))
    if width == 1:
        return schedules[0]
    return tuple(np.array(schedules).T)


def descend(signed, width: int, key: int) -> float:
    """Seconds for one `STEPS`-step descent of `width` columns."""
    c, sigma, eta = lane_schedule(width)
    draw = _lane_noise(key, list(range(width)), width, K, STEPS)
    start = time.perf_counter()
    _feature_descent(signed, c, STEPS, sigma, eta, True, draw, width)
    return time.perf_counter() - start


def main() -> None:
    rows = normalize_points(synth_margin_dataset(N, K, GAMMA, 0, seed=1000)[0])
    signed = rows.signed_features()
    key = noise_key(0)
    print(f"_feature_descent, n = {N}, k = {K}, {STEPS} steps, median of {REPEATS}")
    print(f"{'W':>3} {'us/step':>9} {'us/column':>10}")
    for width in WIDTHS:
        descend(signed, width, key)
        seconds = statistics.median(descend(signed, width, key) for _ in range(REPEATS))
        step_us = seconds / STEPS * 1e6
        print(f"{width:>3} {step_us:>9.1f} {step_us / width:>10.1f}")


if __name__ == "__main__":
    main()
