"""The two private selectors side by side on canned scores.

The brute-force sweep splits its budget across every candidate; the advanced
tuner draws a geometric number of runs and pays only a logarithmic privacy
overhead, at the cost of many more base runs.
"""

import numpy as np

from dpmargin import budget_ledger
from dpmargin.tuning import noisy_argmin
from dpmargin._seeding import stream

eps, delta, grid, n = 1.0, 1e-5, 8, 100

sweep = budget_ledger(eps, delta, "iterate", grid)
noise_unit = sweep["score_noise_std"]
print("brute-force sweep:")
print(f"  master GDP mu = {sweep['mu']:.5f}, per-candidate mu = {sweep['per_candidate_mu']:.5f}")
print(f"  score noise std (sensitivity 1) = {noise_unit:.2f}")

tnb = budget_ledger(eps, delta, "priv_tune", grid, n)
print("\nadvanced tuner:")
print(f"  per-run mu = {tnb['per_run_mu']:.5f}, geometric rate r = {tnb['tnb_r']:.3g}")
print(f"  expected number of runs = {1 / tnb['tnb_r']:,.0f}")
print(f"  overall privacy: ({tnb['epsilon']:.5f}, {delta})-DP")

# noisy selection on fixed scores: smaller noise picks the true best more often
scores = np.array([40.0, 12.0, 3.0, 9.0, 25.0, 31.0, 18.0, 22.0])
for sigma in (noise_unit, 2.0):
    picks = [noisy_argmin(scores, sigma, stream(s, 1)) for s in range(2000)]
    best_rate = np.mean(np.asarray(picks) == int(np.argmin(scores)))
    print(f"\nnoise std {sigma:6.2f}: picks the true best {best_rate:.1%} of the time")
