import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpmargin.cli import main
from dpmargin.data import load_dataset
from dpmargin.privacy import ROW_SCALING, SECRET_SEED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- synth

def test_synth_writes_rows_and_reports_margin(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, stdout, _ = run(capsys, "synth", "--n", "200", "--d", "10",
                          "--gamma", "0.3", "--outliers", "2", "--seed", "7",
                          "--out", str(out))
    assert code == 0
    ds = load_dataset(out, "csv")
    assert ds.n == 200 and ds.dim == 10
    assert "clean-subset oracle margin" in stdout


def test_synth_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "synth", "--n", "50", "--d", "4", "--gamma", "0.4",
                         "--seed", "3", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_gamma_out_of_range_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--n", "10", "--d", "3", "--gamma", "1.5",
                       "--seed", "0", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "gamma" in err


def test_synth_large_n_reports_planted_gamma(tmp_path, capsys):
    code, stdout, _ = run(capsys, "synth", "--n", "600", "--d", "6",
                          "--gamma", "0.25", "--seed", "1",
                          "--out", str(tmp_path / "big.csv"))
    assert code == 0
    assert "planted margin=0.25" in stdout


def test_missing_seed_is_drawn_and_logged(tmp_path, capsys):
    code, stdout, _ = run(capsys, "synth", "--n", "20", "--d", "3", "--gamma", "0.4",
                          "--out", str(tmp_path / "e.csv"))
    assert code == 0
    assert "system entropy" in stdout


# ---------------------------------------------------------------- train/eval

@pytest.fixture
def small_dataset(tmp_path, capsys):
    path = tmp_path / "train.csv"
    code, _, _ = run(capsys, "synth", "--n", "200", "--d", "8", "--gamma", "0.35",
                     "--outliers", "2", "--seed", "21", "--out", str(path))
    assert code == 0
    return path


def test_train_writes_model_and_reports(tmp_path, capsys, small_dataset,
                                        monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    model_path = tmp_path / "model.json"
    code, stdout, _ = run(capsys, "train", "--dataset", str(small_dataset),
                          "--epsilon", "2", "--delta", "1e-6", "--seed", "5",
                          "--out", str(model_path))
    assert code == 0
    assert "empirical zero-one risk:" in stdout
    assert "privacy: (2, 1e-06)-DP" in stdout
    doc = json.loads(model_path.read_text())
    assert len(doc["weights"]) == 8


def test_train_says_its_risk_line_is_outside_the_guarantee(tmp_path, capsys,
                                                          small_dataset):
    code, stdout, _ = run(capsys, "train", "--dataset", str(small_dataset),
                          "--epsilon", "2", "--delta", "1e-6", "--seed", "5")
    assert code == 0
    lines = stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("empirical zero-one risk:"))
    assert re.fullmatch(r"empirical zero-one risk: \d\.\d{6}", lines[at])  # the benchmark parses it
    assert lines[at + 1] == ("(the noiseless training risk above is released outside the "
                             "privacy guarantee)")


def test_train_without_seed_draws_a_secret_one(tmp_path, capsys, small_dataset,
                                               monkeypatch):
    import dpmargin.cli as cli

    drawn, used = [], []
    randbits, mechanism = cli.secrets.randbits, cli.dp_adaptive_margin

    def draw(bits):
        drawn.append((bits, randbits(bits)))
        return drawn[-1][1]

    def train(dataset, cfg):
        used.append(cfg.seed)
        return mechanism(dataset, cfg)

    monkeypatch.setattr(cli.secrets, "randbits", draw)
    monkeypatch.setattr(cli, "dp_adaptive_margin", train)
    model_path = tmp_path / "model.json"
    code, stdout, err = run(capsys, "train", "--dataset", str(small_dataset),
                            "--epsilon", "2", "--delta", "1e-6", "--out", str(model_path))
    assert code == 0
    assert len(json.loads(model_path.read_text())["weights"]) == 8
    assert [bits for bits, _ in drawn] == [128] and used == [drawn[0][1]]
    assert "seed" not in stdout and str(used[0]) not in stdout + err
    assert stdout.splitlines()[0].startswith("empirical zero-one risk:")


def test_train_normalises_rows_so_a_far_row_rescales_no_other(tmp_path, capsys):
    # D' = D plus one row of norm 1e5 at right angles to the planted
    # direction: the rows the mechanism receives for D' are D's, bit for
    # bit, and its norm bound, apart from the added row
    import dpmargin.cli as cli
    from dpmargin.data import Dataset, save_csv, synth_margin_dataset

    ds, w_star = synth_margin_dataset(50, 5, 0.3, 0, seed=3)
    u = np.arange(1.0, 6.0)
    u -= (u @ w_star) / (w_star @ w_star) * w_star
    far = Dataset(np.vstack([ds.features, 1e5 * u / np.linalg.norm(u)]),
                  np.append(ds.labels, 1), 1e5)
    seen = []

    def mechanism(dataset, cfg):
        seen.append(dataset)
        return dp_adaptive_margin(dataset, cfg)

    dp_adaptive_margin = cli.dp_adaptive_margin
    for name, data in (("d.csv", ds), ("d_prime.csv", far)):
        save_csv(data, tmp_path / name)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "dp_adaptive_margin", mechanism)
            code, _, _ = run(capsys, "train", "--dataset", str(tmp_path / name),
                             "--epsilon", "1", "--delta", "1e-5", "--seed", "0")
        assert code == 0
    got, got_far = seen
    assert got.norm_bound == got_far.norm_bound == 1.0
    assert got_far.n == got.n + 1
    assert got_far.signed_features()[:-1].tobytes() == got.signed_features().tobytes()
    assert got_far.labels[:-1].tobytes() == got.labels.tobytes()
    np.testing.assert_allclose(np.linalg.norm(got.signed_features(), axis=1), 1.0,
                               rtol=1e-15)


def test_train_thread_count_does_not_change_output(tmp_path, capsys,
                                                   small_dataset, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    outs = []
    for threads in ("1", "8"):
        path = tmp_path / f"m{threads}.json"
        code, _, _ = run(capsys, "train", "--dataset", str(small_dataset),
                         "--epsilon", "2", "--delta", "1e-6", "--seed", "5",
                         "--threads", threads, "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_train_non_positive_threads_exit_2(tmp_path, capsys, small_dataset, threads):
    out = tmp_path / "m.json"
    code, _, err = run(capsys, "train", "--dataset", str(small_dataset),
                       "--epsilon", "2", "--delta", "1e-6", "--seed", "5",
                       "--threads", threads, "--out", str(out))
    assert code == 2
    assert "threads" in err
    assert not out.exists()


def test_train_config_threads_is_an_unknown_key_exit_2(tmp_path, capsys, small_dataset):
    cfg = tmp_path / "run.json"
    out = tmp_path / "m.json"
    for threads in (2, "2", True):
        cfg.write_text(json.dumps({"dataset": str(small_dataset), "epsilon": 2,
                                   "delta": 1e-6, "seed": 5, "threads": threads,
                                   "out": str(out)}))
        code, _, err = run(capsys, "train", "--config", str(cfg))
        assert code == 2 and "unknown run-config keys: ['threads']" in err
        assert not out.exists()


@pytest.mark.parametrize("seed", [7.9, "7", True])
def test_train_config_non_integer_seed_exit_2(tmp_path, capsys, small_dataset, seed):
    cfg = tmp_path / "run.json"
    out = tmp_path / "m.json"
    cfg.write_text(json.dumps({"dataset": str(small_dataset), "epsilon": 2,
                               "delta": 1e-6, "seed": seed, "out": str(out)}))
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 2 and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("out", 1), ("dataset", 5), ("tuner", ["iterate"]), ("format", None),
    ("score", 1.0), ("mode", True), ("epsilon", "2"), ("delta", True),
    ("epsilon", [2]), ("format", "xml"),
])
def test_train_config_mistyped_value_exit_2(tmp_path, capsys, small_dataset, monkeypatch,
                                            key, value):
    import dpmargin.cli as cli

    monkeypatch.setattr(cli, "load_dataset",
                        lambda *a: pytest.fail("read data before checking the config"))
    cfg = tmp_path / "run.json"
    doc = {"dataset": str(small_dataset), "epsilon": 2, "delta": 1e-6, "seed": 5}
    doc[key] = value
    cfg.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "train", "--config", str(cfg))
    assert code == 2 and key in err
    assert stdout == ""


def test_train_zero_feature_libsvm_exit_1(tmp_path, capsys):
    data = tmp_path / "labels_only.libsvm"
    data.write_text("1\n-1\n1\n")
    out = tmp_path / "m.json"
    code, stdout, err = run(capsys, "train", "--dataset", str(data), "--format",
                            "libsvm", "--epsilon", "2", "--delta", "1e-6",
                            "--seed", "5", "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "feature" in err
    assert "risk" not in stdout and not out.exists()


def test_train_priv_tune_prints_eps_plus_delta(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    data = tmp_path / "tiny.csv"
    run(capsys, "synth", "--n", "30", "--d", "5", "--gamma", "0.4", "--seed", "2",
        "--out", str(data))
    code, stdout, _ = run(capsys, "train", "--dataset", str(data),
                          "--epsilon", "1", "--delta", "1e-5",
                          "--tuner", "priv-tune", "--seed", "3",
                          "--out", str(tmp_path / "m.json"))
    assert code == 0
    assert "epsilon + delta" in stdout


def test_train_missing_dataset_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--dataset", str(tmp_path / "nope.csv"),
                       "--epsilon", "1", "--delta", "1e-5", "--seed", "1")
    assert code == 1


def test_train_epsilon_beyond_bound_exit_2_json_errors(capsys, small_dataset):
    code, _, err = run(capsys, "train", "--dataset", str(small_dataset),
                       "--epsilon", "1000", "--delta", "1e-2", "--seed", "1",
                       "--json-errors")
    assert code == 2
    doc = json.loads(err.strip())
    assert "epsilon" in doc["error"]


def test_train_config_file_and_unknown_key(tmp_path, capsys, small_dataset):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "dataset": str(small_dataset), "epsilon": 2, "delta": 1e-6, "seed": 9,
    }))
    code, stdout, _ = run(capsys, "train", "--config", str(cfg))
    assert code == 0 and "risk" in stdout
    cfg.write_text(json.dumps({"dataset": str(small_dataset), "epsilon": 2,
                               "delta": 1e-6, "weird_knob": 1}))
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 2 and "weird_knob" in err


def test_eval_matches_train_report(tmp_path, capsys, small_dataset, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    model_path = tmp_path / "model.json"
    code, train_out, _ = run(capsys, "train", "--dataset", str(small_dataset),
                             "--epsilon", "2", "--delta", "1e-6", "--seed", "5",
                             "--out", str(model_path))
    trained_risk = float(train_out.split("risk: ")[1].split()[0])
    code, eval_out, _ = run(capsys, "eval", "--model", str(model_path),
                            "--dataset", str(small_dataset))
    assert code == 0
    assert float(eval_out.split("zero-one risk: ")[1].split()[0]) == trained_risk


def test_eval_zero_weights_risk_zero(tmp_path, capsys, small_dataset):
    model = tmp_path / "zero.json"
    model.write_text(json.dumps({"weights": [0.0] * 8, "d": 8, "gamma_out": 0.3}))
    code, stdout, _ = run(capsys, "eval", "--model", str(model),
                          "--dataset", str(small_dataset))
    assert code == 0
    assert "zero-one risk: 0.000000" in stdout  # ties count as correct


def test_eval_dimension_mismatch_fails(tmp_path, capsys, small_dataset):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps({"weights": [0.0] * 3, "d": 3, "gamma_out": 0.3}))
    code, _, err = run(capsys, "eval", "--model", str(model),
                       "--dataset", str(small_dataset))
    assert code in (1, 2)


@pytest.mark.parametrize("doc", [
    {"d": 3, "gamma_out": 0.3},  # no weights
    {"weights": [0.0] * 8},  # no d
    [1, 2, 3],  # not an object
    "not json",  # written as is
    {"weights": [1, None], "d": 2},  # null weight
    {"weights": "ab", "d": 2},  # not a list
    {"weights": [0.0, True], "d": 2},  # bool weight
    {"weights": [0.0, 10**400], "d": 2},  # beyond the float range
    {"weights": [0.0] * 8, "d": "x"},
    {"weights": [0.0] * 8, "d": 2.7},
    {"weights": [0.0] * 8, "d": True},
    {"weights": [0.0] * 8, "d": 8, "gamma_out": "x"},
    {"weights": [0.0] * 8, "d": 8, "gamma_out": -1.0},
    {"weights": [1.0, 2.0], "d": 3},  # fewer weights than d
    {"weights": [], "d": 0},  # d not positive
])
@pytest.mark.parametrize("json_errors", [False, True])
def test_eval_malformed_model_file_exit_1(tmp_path, capsys, small_dataset, doc,
                                          json_errors):
    model = tmp_path / "bad.json"
    model.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = ["eval", "--model", str(model), "--dataset", str(small_dataset)]
    code, _, err = run(capsys, *argv, *(["--json-errors"] if json_errors else []))
    assert code == 1
    if json_errors:
        assert "model file" in json.loads(err)["error"]
    else:
        assert err.startswith("error: model file")


# ---------------------------------------------------------------- margin curve

def test_margin_curve_monotone_with_outliers(tmp_path, capsys):
    data = tmp_path / "curve.csv"
    run(capsys, "synth", "--n", "120", "--d", "8", "--gamma", "0.35",
        "--outliers", "5", "--seed", "17", "--out", str(data))
    out = tmp_path / "curve_out.csv"
    code, _, _ = run(capsys, "margin-curve", "--dataset", str(data),
                     "--removals", "10", "--seed", "1", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "removed_count,normalized_margin"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    counts = [int(r.split(",")[0]) for r in rows[1:]]
    assert counts == list(range(11))
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.0, abs=1e-6)  # outliers kill the margin
    assert max(values[:6]) > 0.0  # strict increase within the first 5 removals


def test_margin_curve_separable_first_value_positive(tmp_path, capsys):
    data = tmp_path / "sep.csv"
    run(capsys, "synth", "--n", "80", "--d", "6", "--gamma", "0.4", "--seed", "19",
        "--out", str(data))
    out = tmp_path / "sep_curve.csv"
    code, _, _ = run(capsys, "margin-curve", "--dataset", str(data),
                     "--removals", "3", "--seed", "1", "--out", str(out))
    assert code == 0
    first = float(out.read_text().strip().splitlines()[1].split(",")[1])
    assert first >= 0.4 - 1e-4


def test_margin_curve_breaks_support_ties_by_the_margin_left(tmp_path, capsys):
    # unit points at -80, 80, -30 and 20 degrees: the two at +-80 tie as support
    # points; removing -80 (listed first) leaves margin cos 55, removing 80 cos 50
    data = tmp_path / "tied.csv"
    angles = [math.radians(a) for a in (-80.0, 80.0, -30.0, 20.0)]
    data.write_text("".join(f"{math.cos(a)!r},{math.sin(a)!r},+1\n" for a in angles))
    out = tmp_path / "tied_curve.csv"
    code, _, _ = run(capsys, "margin-curve", "--dataset", str(data),
                     "--removals", "1", "--seed", "1", "--out", str(out))
    assert code == 0
    values = [float(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]]
    assert values == pytest.approx([math.cos(math.radians(80.0)),
                                    math.cos(math.radians(50.0))], abs=1e-6)


def test_margin_curve_negative_removals_exit_2(tmp_path, capsys):
    data = tmp_path / "sep.csv"
    run(capsys, "synth", "--n", "40", "--d", "4", "--gamma", "0.4", "--seed", "19",
        "--out", str(data))
    out = tmp_path / "curve.csv"
    code, _, err = run(capsys, "margin-curve", "--dataset", str(data),
                       "--removals", "-2", "--seed", "1", "--out", str(out))
    assert code == 2 and "--removals" in err
    assert not out.exists()


# ---------------------------------------------------------------- privacy report

def test_privacy_report_iterate_values(capsys):
    code, stdout, _ = run(capsys, "privacy-report", "--epsilon", "1",
                          "--delta", "1e-5", "--grid", "8", "--tuner", "iterate",
                          "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["mu"] == pytest.approx(0.10419866624665258, abs=1e-9)
    assert doc["per_candidate_mu"] == pytest.approx(0.026049666561663146, abs=1e-9)
    assert doc["compose_round_trip"] == "OK"
    assert doc["guarantee"] == "(1, 1e-05)-DP"


def test_privacy_report_priv_tune(capsys):
    code, stdout, _ = run(capsys, "privacy-report", "--epsilon", "1",
                          "--delta", "1e-5", "--grid", "8", "--n", "100",
                          "--tuner", "priv-tune", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["tnb_r"] == pytest.approx(1.0 / 79992, abs=1e-15)
    assert "epsilon + delta" in doc["guarantee"]
    assert doc["epsilon"] == pytest.approx(1.0 + 1e-5, abs=1e-12)


@pytest.mark.parametrize("tuner", ["iterate", "priv-tune"])
def test_privacy_report_prints_the_model_ledger(tmp_path, capsys, monkeypatch, tuner):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    run(capsys, "synth", "--n", "30", "--d", "5", "--gamma", "0.4", "--seed", "2",
        "--out", str(data))
    code, _, _ = run(capsys, "train", "--dataset", str(data), "--epsilon", "1",
                     "--delta", "1e-5", "--tuner", tuner, "--seed", "3",
                     "--out", str(model))
    assert code == 0
    ledger = json.loads(model.read_text())["ledger"]
    del ledger["score_kind"], ledger["output_mode"]
    code, stdout, _ = run(capsys, "privacy-report", "--json", "--n", "30",
                          "--epsilon", "1", "--delta", "1e-5", "--tuner", tuner)
    assert code == 0
    assert json.loads(stdout) == ledger


@pytest.mark.parametrize("tuner", ["iterate", "priv-tune"])
def test_model_file_and_privacy_report_state_the_secret_seed_assumption(tmp_path, capsys,
                                                                       tuner):
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    run(capsys, "synth", "--n", "30", "--d", "5", "--gamma", "0.4", "--seed", "2",
        "--out", str(data))
    code, _, _ = run(capsys, "train", "--dataset", str(data), "--epsilon", "1",
                     "--delta", "1e-5", "--tuner", tuner, "--seed", "3", "--out", str(model))
    assert code == 0
    assert json.loads(model.read_text())["ledger"]["secret_seed"] == SECRET_SEED
    code, stdout, _ = run(capsys, "privacy-report", "--n", "30", "--epsilon", "1",
                          "--delta", "1e-5", "--tuner", tuner)
    assert code == 0 and f"secret_seed: {SECRET_SEED}" in stdout.splitlines()
    assert "published seed voids the guarantee" in SECRET_SEED


@pytest.mark.parametrize("tuner", ["iterate", "priv-tune"])
def test_model_file_and_privacy_report_state_how_train_scales_rows(tmp_path, capsys, tuner):
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    run(capsys, "synth", "--n", "30", "--d", "5", "--gamma", "0.4", "--seed", "2",
        "--out", str(data))
    code, _, _ = run(capsys, "train", "--dataset", str(data), "--epsilon", "1",
                     "--delta", "1e-5", "--tuner", tuner, "--seed", "3", "--out", str(model))
    assert code == 0
    assert json.loads(model.read_text())["ledger"]["row_scaling"] == ROW_SCALING
    code, stdout, _ = run(capsys, "privacy-report", "--n", "30", "--epsilon", "1",
                          "--delta", "1e-5", "--tuner", tuner)
    assert code == 0 and f"row_scaling: {ROW_SCALING}" in stdout.splitlines()
    assert "x/||x||" in ROW_SCALING and "keeps its caller's norm_bound" in ROW_SCALING


def test_privacy_report_grid_contradicting_n_exit_2(capsys):
    # margin_grid(30) has 6 entries, so no train run on 30 rows has grid_size 8
    code, stdout, err = run(capsys, "privacy-report", "--epsilon", "1",
                            "--delta", "1e-5", "--n", "30", "--grid", "8",
                            "--tuner", "priv-tune")
    assert code == 2
    assert stdout == ""
    assert "--grid 8" in err and "6" in err
    code, _, _ = run(capsys, "privacy-report", "--epsilon", "1", "--delta", "1e-5",
                     "--n", "30", "--grid", "6", "--tuner", "priv-tune")
    assert code == 0


def test_privacy_report_epsilon_too_large_exit_2(capsys):
    code, _, err = run(capsys, "privacy-report", "--epsilon", "100",
                       "--delta", "1e-2", "--grid", "8", "--tuner", "iterate")
    assert code == 2
    assert "8 ln(1/delta)" in err


def test_train_config_invalid_mode_exit_2(tmp_path, capsys, small_dataset):
    cfg = tmp_path / "bad_mode.json"
    cfg.write_text(json.dumps({"dataset": str(small_dataset), "epsilon": 2,
                               "delta": 1e-6, "mode": "median"}))
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 2 and "--mode" in err


def test_train_eval_libsvm_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    from dpmargin.data import synth_margin_dataset

    ds, _ = synth_margin_dataset(150, 6, 0.4, 0, seed=33)
    path = tmp_path / "data.svm"
    feats = ds.features
    with open(path, "w", newline="\n") as fh:
        for i in range(ds.n):
            pairs = " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(feats[i]))
            fh.write(f"{int(ds.labels[i]):+d} {pairs}\n")
    model = tmp_path / "m.json"
    code, stdout, _ = run(capsys, "train", "--dataset", str(path), "--format",
                          "libsvm", "--epsilon", "2", "--delta", "1e-6",
                          "--seed", "2", "--out", str(model))
    assert code == 0
    code, out, _ = run(capsys, "eval", "--model", str(model), "--dataset",
                       str(path), "--format", "libsvm")
    assert code == 0 and "zero-one risk" in out


# ---------------------------------------------------------------- environment

@pytest.mark.parametrize("name, value", [
    ("SOURCE_DATE_EPOCH", "abc"), ("SOURCE_DATE_EPOCH", "-1"), ("SOURCE_DATE_EPOCH", "1.5"),
    ("DPMARGIN_T_CAP", "abc"), ("DPMARGIN_T_CAP", "-5"), ("DPMARGIN_T_CAP", "0"),
])
def test_malformed_environment_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                      name, value):
    monkeypatch.setenv(name, value)
    model = tmp_path / "m.json"
    # the dataset does not exist, so reading it first would exit 1
    code, stdout, err = run(capsys, "train", "--dataset", str(tmp_path / "nope.csv"),
                            "--epsilon", "1", "--delta", "1e-5", "--seed", "1",
                            "--out", str(model))
    assert code == 2 and stdout == "" and not model.exists()
    assert err == f"error: {name} must be an integer >= {int(name == 'DPMARGIN_T_CAP')}, " \
                  f"got {value!r}\n"
    out = tmp_path / "s.csv"
    code, stdout, _ = run(capsys, "synth", "--n", "20", "--d", "3", "--gamma", "0.4",
                          "--seed", "1", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()


def test_environment_bounds_are_accepted(tmp_path, capsys, monkeypatch, small_dataset):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.setenv("DPMARGIN_T_CAP", "1")
    model = tmp_path / "m.json"
    argv = ("train", "--dataset", str(small_dataset), "--epsilon", "1", "--delta", "1e-5",
            "--seed", "1", "--out", str(model))
    code, _, err = run(capsys, *argv)
    assert code == 1 and "exceeds the iteration cap 1" in err  # the cap is read as 1
    monkeypatch.delenv("DPMARGIN_T_CAP")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(model.read_text())["timestamps"] == {"created_unix": 0}


_IMPORT_GUARD = """
import json, sys
import dpmargin, dpmargin.cli

def heavy():
    return [name for name in ("scipy.special", "scipy.optimize", "numpy.f2py",
                              "concurrent.futures") if name in sys.modules]

seen = {"import": heavy()}
seen["train"] = dpmargin.cli.main(["train", "--dataset", sys.argv[1], "--epsilon", "2",
                                   "--delta", "1e-6", "--seed", "3"]), heavy()
seen["synth"] = dpmargin.cli.main(["synth", "--n", "20", "--d", "3", "--gamma", "0.4",
                                   "--seed", "1", "--out", sys.argv[2]]), heavy()
print(json.dumps(seen))
"""


def test_scipy_special_is_loaded_only_by_synth(tmp_path, small_dataset):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("SOURCE_DATE_EPOCH", None)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(small_dataset),
                           str(tmp_path / "s.csv")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "train": [0, []],
                    "synth": [0, ["scipy.special", "scipy.optimize", "numpy.f2py",
                                  "concurrent.futures"]]}
