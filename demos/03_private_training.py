"""End-to-end private training with the adaptive-margin master mechanism.

Only the dataset and the (epsilon, delta) budget go in; the margin grid,
projections, per-candidate budgets and selection all happen inside.
"""

from dpmargin import MasterConfig, dp_adaptive_margin, synth_margin_dataset
from dpmargin.master import training_risk

data, _ = synth_margin_dataset(n=2000, d=15, gamma=0.3, n_outliers=20, seed=3)
config = MasterConfig(epsilon=2.0, delta=1e-6, seed=42)
result = dp_adaptive_margin(data, config)

print(f"selected margin candidate: {result.gamma_out:g}")
print(f"empirical zero-one risk:   {training_risk(result.model, data):.4f}")
print(f"(1% of labels are planted flips, so ~0.01 is the adaptive optimum)")
print("\nbudget ledger:")
for key, value in result.ledger.items():
    print(f"  {key}: {value}")
