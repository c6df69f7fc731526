"""Command-line harness: synth, train, eval, margin-curve, privacy-report.

Exit codes: 0 success, 1 runtime failure, 2 argument/precondition failure.
Every command is deterministic given --seed; without it a seed is drawn from
system entropy and logged.  The environment variables SOURCE_DATE_EPOCH and
DPMARGIN_T_CAP are checked before any command reads or writes data.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys

import numpy as np

from .data import (
    Dataset,
    geometric_margin_oracle,
    hard_margin_direction,
    load_dataset,
    normalize_points,
    save_csv,
    synth_margin_dataset,
)
from .errors import DpMarginError, GenerationError, PrivacyBudgetError
from .loss import LossSpec, empirical_risk
from .master import (
    MasterConfig,
    _finite_number,
    creation_stamp,
    dp_adaptive_margin,
    margin_grid,
    model_from_json,
    model_to_json,
    training_risk,
)
from .optimizer import NgdOverrides, iteration_cap, ngd
from .privacy import budget_ledger

#: Above this size synth reports the planted margin instead of the oracle value.
SYNTH_ORACLE_CAP = 500

_RUN_CONFIG_STRINGS = ("dataset", "format", "out", "tuner", "score", "mode")
_RUN_CONFIG_NUMBERS = ("epsilon", "delta")
# MasterConfig checks seed and threads itself
_RUN_CONFIG_KEYS = {*_RUN_CONFIG_STRINGS, *_RUN_CONFIG_NUMBERS, "seed", "threads"}


def _fail(message: str, code: int, json_errors: bool) -> int:
    if json_errors:
        print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(32)
    print(f"seed: {seed} (drawn from system entropy)")
    return seed


def cmd_synth(args) -> int:
    dataset, w_star = synth_margin_dataset(
        args.n, args.d, args.gamma, args.outliers, _resolve_seed(args)
    )
    save_csv(dataset, args.out)
    # clean subset = points whose label still agrees with the planted separator
    agree = dataset.signed_features() @ w_star > 0
    if args.n <= SYNTH_ORACLE_CAP:
        margin = geometric_margin_oracle(dataset.subset(np.nonzero(agree)[0]))
        print(f"wrote {args.out}: n={dataset.n} d={dataset.dim} "
              f"clean-subset oracle margin={margin:.6f}")
    else:
        print(f"wrote {args.out}: n={dataset.n} d={dataset.dim} "
              f"planted margin={args.gamma}")
    return 0


def _load_run_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise PrivacyBudgetError("run config must be a JSON object")
    unknown = set(doc) - _RUN_CONFIG_KEYS
    if unknown:
        raise PrivacyBudgetError(f"unknown run-config keys: {sorted(unknown)}")
    for key, value in doc.items():
        if key in _RUN_CONFIG_STRINGS and not isinstance(value, str):
            raise ValueError(f"run-config {key} must be a string, got {value!r}")
        if key in _RUN_CONFIG_NUMBERS and not _finite_number(value):
            raise ValueError(f"run-config {key} must be a finite number, got {value!r}")
    return doc


def cmd_train(args) -> int:
    if args.config:
        for key, value in _load_run_config(args.config).items():
            if getattr(args, key, None) is None:  # explicit flags win
                setattr(args, key, value)
    if args.dataset is None or args.epsilon is None or args.delta is None:
        raise PrivacyBudgetError("train needs --dataset, --epsilon and --delta")

    def mapped(value, table, flag):
        try:
            return table[value]
        except KeyError:
            raise ValueError(f"invalid {flag} value {value!r}") from None

    dataset = load_dataset(args.dataset, args.format or "csv")
    cfg = MasterConfig(
        epsilon=float(args.epsilon),
        delta=float(args.delta),
        tuner=mapped(args.tuner or "iterate",
                     {"iterate": "iterate", "priv-tune": "priv_tune"}, "--tuner"),
        score_kind=mapped(args.score or "empirical",
                          {"empirical": "empirical_zero_one",
                           "penalized": "penalized_population"}, "--score"),
        output_mode=mapped(args.mode, {None: None, "averaged": "averaged",
                                       "last": "last_iterate"}, "--mode"),
        seed=_resolve_seed(args),
        threads=1 if args.threads is None else args.threads,
    )
    result = dp_adaptive_margin(dataset, cfg)
    text = model_to_json(result, cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    risk = training_risk(result.model, dataset)
    print(f"empirical zero-one risk: {risk:.6f}")
    print(f"selected margin candidate: {result.gamma_out:g}")
    print(f"privacy: {result.ledger['guarantee']}")
    return 0


def cmd_eval(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model, doc = model_from_json(fh.read())
    dataset = load_dataset(args.dataset, args.format or "csv")
    zo = empirical_risk(model.weights, dataset, LossSpec("zero_one"))
    print(f"averaged zero-one risk: {zo:.6f}")
    gamma = doc.get("gamma_out")
    if gamma is not None:
        hinge = empirical_risk(model.weights, dataset, LossSpec("hinge", gamma / 3.0))
        print(f"averaged hinge risk (c = gamma/3 = {gamma / 3.0:g}): {hinge:.6f}")
    return 0


def _soft_direction(dataset: Dataset, seed: int) -> np.ndarray:
    """Noiseless hinge-descent direction for ranking points on inseparable data."""
    model = ngd(1.0, dataset, mu=1.0, mode="last_iterate", seed=seed,
                overrides=NgdOverrides(T=400, sigma=0.0))
    return model.weights


def cmd_margin_curve(args) -> int:
    dataset = load_dataset(args.dataset, args.format or "csv")
    if args.removals is not None and args.removals < 0:
        raise ValueError(f"--removals must be >= 0, got {args.removals}")
    seed = _resolve_seed(args)
    removals = args.removals if args.removals is not None else min(dataset.n - 2, 20)
    keep = list(range(dataset.n))
    rows = []
    for removed in range(removals + 1):
        current = dataset.subset(keep)
        normalized = normalize_points(current)
        margin, direction = hard_margin_direction(normalized)
        rows.append((removed, margin))
        if removed == removals or len(keep) <= 2:
            break
        if direction is None:  # not separable yet: rank by a soft separator
            direction = _soft_direction(normalized, seed)
        scores = normalized.signed_features() @ direction
        worst = int(np.argmin(scores))  # first index wins ties via argmin
        keep.pop(worst)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("removed_count,normalized_margin\n")
        for removed, margin in rows:
            fh.write(f"{removed},{repr(float(margin))}\n")
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_privacy_report(args) -> int:
    """Print the budget ledger a `train` model file carries for these inputs."""
    if args.n is None:
        if args.grid is None:
            raise PrivacyBudgetError("privacy-report needs --grid or --n")
        grid = args.grid
    else:
        grid = len(margin_grid(args.n))
        if args.grid is not None and args.grid != grid:
            raise PrivacyBudgetError(
                f"--grid {args.grid} contradicts --n {args.n}, whose margin grid "
                f"has {grid} entries; give one of them or make them agree"
            )
    tuner = "priv_tune" if args.tuner == "priv-tune" else "iterate"
    report = budget_ledger(args.epsilon, args.delta, tuner, grid, args.n)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmargin",
        description="Differentially private large-margin linear classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-margin dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--outliers", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--json-errors", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run the adaptive-margin private trainer")
    p.add_argument("--dataset")
    p.add_argument("--format", choices=["csv", "libsvm"])
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--tuner", choices=["iterate", "priv-tune"])
    p.add_argument("--score", choices=["empirical", "penalized"])
    p.add_argument("--mode", choices=["averaged", "last"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="candidate pool size (default 1). With BLAS on one thread on a "
                        "2-core host, 2 cut an iterate train at n=4000, d=20 from 13.3 "
                        "to 11.2 s and slowed a priv-tune train of 28k short runs at "
                        "n=100 from 3.1 to 9.0 s (medians of 3 pairs)")
    p.add_argument("--out")
    p.add_argument("--config", help="JSON run config; CLI flags take precedence")
    p.add_argument("--json-errors", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", choices=["csv", "libsvm"])
    p.add_argument("--json-errors", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("margin-curve", help="greedy removal vs normalized margin")
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", choices=["csv", "libsvm"])
    p.add_argument("--removals", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--json-errors", action="store_true")
    p.set_defaults(func=cmd_margin_curve)

    p = sub.add_parser("privacy-report", help="print the budget ledger")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tuner", choices=["iterate", "priv-tune"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--json-errors", action="store_true")
    p.set_defaults(func=cmd_privacy_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    json_errors = getattr(args, "json_errors", False)
    try:
        # malformed environment settings are refused before any work
        creation_stamp()
        iteration_cap()
        return args.func(args)
    except (PrivacyBudgetError, GenerationError, ValueError) as exc:
        return _fail(str(exc), 2, json_errors)
    except (DpMarginError, OSError) as exc:
        return _fail(str(exc), 1, json_errors)


if __name__ == "__main__":
    sys.exit(main())
