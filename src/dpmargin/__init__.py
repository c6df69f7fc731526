"""Differentially private linear classification that adapts to large-margin
linearly separable subsets.

The public surface mirrors the module layout: datasets and margin oracles in
`data`, losses in `loss`, random projection in `projection`, Gaussian-DP
accounting in `privacy`, the noisy optimizer in `optimizer`, private
hyperparameter selection in `tuning`, and the end-to-end mechanism in
`master`.
"""

from .data import (
    Dataset,
    LabeledPoint,
    clip_norms,
    geometric_margin_oracle,
    load_dataset,
    min_outliers_oracle,
    normalized_margin_oracle,
    synth_margin_dataset,
)
from .loss import LossSpec, empirical_risk, hinge_loss, hinge_sensitivity, hinge_subgrad, zero_one_loss
from .master import (
    MasterConfig,
    MasterResult,
    dp_adaptive_margin,
    grid_competitiveness_check,
    margin_grid,
    model_from_json,
    model_to_json,
)
from .optimizer import LinearModel, NgdOverrides, jlgd, ngd
from .privacy import (
    budget_ledger,
    compose_gdp,
    gdp_to_approx_dp,
    gdp_to_approx_dp_high_privacy,
    master_iter_budget,
    master_tnb_budget,
    per_candidate_budget,
    tnb_tune_privacy,
)
from .projection import IdentityMap, JlMatrix, lift, project_and_clip, projection_dim, sample_jl
from .tuning import (
    Candidate,
    ScoreSpec,
    TnbDist,
    iter_tune,
    priv_tune,
    sample_tnb,
    score,
    tnb_mean,
    tnb_not_selected_prob,
    tnb_pgf,
    tnb_pmf,
)

__version__ = "0.1.0"
