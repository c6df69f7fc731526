"""Gaussian-DP accounting: composition, (eps, delta) conversion, budget splits.

Every noise scale used anywhere in the toolkit is derived through
`gaussian_noise_std`; no other module computes privacy noise on its own.
`budget_ledger` is the one place the per-tuner budget is worked out, for
both the mechanism and `privacy-report`.  All logarithms are natural.
Preconditions raise instead of clamping.
"""

from __future__ import annotations

import math

from .errors import PrivacyBudgetError

_REL_SLACK = 1e-9  # float tolerance at closed-form precondition boundaries

#: The neighbouring relation every ledger's guarantee is stated for.
NEIGHBOURS = ("add or remove one point; Delta = b/c; n is public, as the grid, T and k "
              "are computed from it; replace-one neighbours would need 2b/c")
#: The assumption on the seed that every ledger's guarantee rests on.
SECRET_SEED = ("assumed: every noise draw follows from the seed, so the guarantee holds "
               "only while the seed stays secret; --seed is for reproducible tests, and "
               "a published seed voids the guarantee")
#: How the rows the guarantee speaks of are scaled.
ROW_SCALING = ("train maps every nonzero row x to x/||x|| and runs at b = 1, so no row "
               "sets the scale of another; the library call dp_adaptive_margin keeps "
               "its caller's norm_bound b, which must not depend on the data, and "
               "refuses rows longer than b")


def gaussian_noise_std(sensitivity: float, mu: float) -> float:
    """Noise std making a sensitivity-`sensitivity` Gaussian mechanism mu-GDP."""
    if not sensitivity >= 0:
        raise PrivacyBudgetError("sensitivity must be nonnegative")
    if not mu > 0:
        raise PrivacyBudgetError("mu must be positive")
    return sensitivity / mu


def compose_gdp(budgets) -> float:
    """Root-sum-of-squares composition of GDP budgets."""
    budgets = list(budgets)
    if not budgets:
        raise PrivacyBudgetError("cannot compose an empty budget list")
    if any(not m > 0 for m in budgets):
        raise PrivacyBudgetError("all budgets must be positive")
    return math.sqrt(math.fsum(m * m for m in budgets))


def gdp_to_approx_dp(mu: float, delta: float) -> float:
    """epsilon = mu^2/2 + mu sqrt(2 ln(1/delta))."""
    _check_mu_delta(mu, delta)
    return mu * mu / 2.0 + mu * math.sqrt(2.0 * math.log(1.0 / delta))


def gdp_to_approx_dp_high_privacy(mu: float, delta: float) -> float:
    """epsilon = 2 mu sqrt(2 ln(1/delta)), valid for mu <= 2 sqrt(2 ln(1/delta))."""
    _check_mu_delta(mu, delta)
    bound = 2.0 * math.sqrt(2.0 * math.log(1.0 / delta))
    if mu > bound * (1.0 + _REL_SLACK):
        raise PrivacyBudgetError(
            f"high-privacy conversion needs mu <= 2 sqrt(2 ln(1/delta)) = {bound:.6g}, "
            f"got mu = {mu:.6g}"
        )
    return 2.0 * mu * math.sqrt(2.0 * math.log(1.0 / delta))


def master_iter_budget(epsilon: float, delta: float) -> float:
    """GDP budget eps / (2 sqrt(2 ln(1/delta))) for the brute-force tuner.

    Admissible range 0 < eps <= 8 ln(1/delta); round-trips exactly through
    the high-privacy conversion.
    """
    _check_mu_delta(1.0, delta)
    if not epsilon > 0:
        raise PrivacyBudgetError(f"epsilon must be positive, got {epsilon}")
    cap = 8.0 * math.log(1.0 / delta)
    if epsilon > cap * (1.0 + _REL_SLACK):
        raise PrivacyBudgetError(
            f"iterate tuner needs epsilon <= 8 ln(1/delta) = {cap:.6g}, got {epsilon:.6g}"
        )
    return epsilon / (2.0 * math.sqrt(2.0 * math.log(1.0 / delta)))


def per_candidate_budget(mu: float, grid_size: int) -> tuple[float, float]:
    """(base mechanism budget, score-noise std per unit sensitivity).

    Each of the grid_size base runs and grid_size score releases gets
    mu / sqrt(2 grid_size)-GDP; composing all 2*grid_size returns mu exactly.
    """
    if grid_size < 1:
        raise PrivacyBudgetError("grid_size must be >= 1")
    if not mu > 0:
        raise PrivacyBudgetError("mu must be positive")
    base_mu = mu / math.sqrt(2.0 * grid_size)
    return base_mu, gaussian_noise_std(1.0, base_mu)


def tnb_tune_privacy(mu: float, r: float, delta: float) -> float:
    """epsilon of geometric-run-count private selection at this delta.

    eps = 6 mu sqrt(2 ln(1/(r delta))) + delta, valid for
    mu <= 2 sqrt(2 ln(1/(r delta))), where it bounds the exact cost
    1.5 mu^2 + 3 mu sqrt(2 ln(1/(r delta))) + delta from above.
    """
    _check_mu_delta(mu, delta)
    if not 0 < r < 1:
        raise PrivacyBudgetError(f"r must lie in (0, 1), got {r}")
    root = math.sqrt(2.0 * math.log(1.0 / (r * delta)))
    if mu > 2.0 * root * (1.0 + _REL_SLACK):
        raise PrivacyBudgetError(
            f"geometric selection needs mu <= 2 sqrt(2 ln(1/(r delta))) = {2 * root:.6g}"
        )
    return 6.0 * mu * root + delta


def master_tnb_budget(epsilon: float, delta: float, grid_size: int, n: int):
    """(mu, r) driving the advanced tuner at (epsilon + delta, delta)-DP.

    r = 1/(grid_size (n^2 - 1)); mu = eps / (6 sqrt(2 ln(grid_size (n^2-1)/delta))).
    Admissible: delta < eps < 24 ln(grid_size (n^2 - 1) / delta).
    """
    _check_mu_delta(1.0, delta)
    if grid_size < 1 or n < 2:
        raise PrivacyBudgetError("need grid_size >= 1 and n >= 2")
    denom = grid_size * (n * n - 1)
    cap = 24.0 * math.log(denom / delta)
    if not delta < epsilon < cap:
        raise PrivacyBudgetError(
            f"advanced tuner needs epsilon in (delta, 24 ln(grid (n^2-1)/delta)) "
            f"= ({delta:.6g}, {cap:.6g}), got {epsilon:.6g}"
        )
    r = 1.0 / denom
    mu = epsilon / (6.0 * math.sqrt(2.0 * math.log(denom / delta)))
    return mu, r


def budget_ledger(epsilon: float, delta: float, tuner: str, grid_size: int,
                  n: int | None = None) -> dict:
    """The budget ledger of a run, computed from public inputs only.

    `mu` (and for "priv_tune" the geometric rate `tnb_r`) drive the tuner;
    the per-run budget and score-noise std are the ones it injects.  The
    guarantee is (epsilon, delta)-DP for "iterate" and
    (epsilon + delta, delta)-DP for "priv_tune", which also needs n, both
    under the add/remove-one relation in `neighbours`, with a secret seed
    (`secret_seed`), on rows scaled as `row_scaling` says.
    """
    if tuner == "iterate":
        mu = master_iter_budget(epsilon, delta)
        base_mu, noise_std = per_candidate_budget(mu, grid_size)
        composed = compose_gdp([base_mu] * (2 * grid_size))
        round_trip = math.isclose(composed, mu, rel_tol=1e-12)
        return {
            "tuner": "iterate",
            "grid_size": grid_size,
            "mu": mu,
            "per_candidate_mu": base_mu,
            "score_noise_std": noise_std,
            "composed_mu": composed,
            "compose_round_trip": "OK" if round_trip else "FAIL",
            "epsilon": epsilon,
            "delta": delta,
            "guarantee": f"({epsilon:g}, {delta:g})-DP",
            "neighbours": NEIGHBOURS,
            "secret_seed": SECRET_SEED,
            "row_scaling": ROW_SCALING,
        }
    if tuner != "priv_tune":
        raise ValueError(f"unknown tuner {tuner!r}")
    if n is None:
        raise PrivacyBudgetError("the priv_tune budget needs the dataset size n")
    mu, r = master_tnb_budget(epsilon, delta, grid_size, n)
    base_mu, noise_std = per_candidate_budget(mu, 1)  # one run, one score release
    eps_total = tnb_tune_privacy(mu, r, delta)
    return {
        "tuner": "priv_tune",
        "grid_size": grid_size,
        "mu": mu,
        "tnb_r": r,
        "per_run_mu": base_mu,
        "score_noise_std": noise_std,
        "epsilon": eps_total,
        "delta": delta,
        "guarantee": f"({eps_total:g}, {delta:g})-DP"
                     f" (= (epsilon + delta, delta) at epsilon = {epsilon:g})",
        "neighbours": NEIGHBOURS,
        "secret_seed": SECRET_SEED,
        "row_scaling": ROW_SCALING,
    }


def _check_mu_delta(mu: float, delta: float) -> None:
    if not mu > 0:
        raise PrivacyBudgetError(f"mu must be positive, got {mu}")
    if not 0 < delta < 1:
        raise PrivacyBudgetError(f"delta must lie in (0, 1), got {delta}")
