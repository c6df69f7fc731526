"""One benchmark job in a fresh process.

    python3 perfbench/job.py setup '<job json>'   # synth + save_csv
    python3 perfbench/job.py train '<job json>'   # one in-process `dpmargin train`

run.py starts each job with PYTHONPATH pointing at the checkout's `src` and
the BLAS thread count pinned in the environment, so numpy loads with it.
The last line of stdout is a JSON object with the job's measurements and a
list of failed correctness checks (empty when the job is correct).
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # setup_s includes the imports below

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracer import SETUP_SITES, SITES, Tracer  # noqa: E402
from workloads import DELTA, predict_counts, train_argv  # noqa: E402


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def setup(job: dict) -> dict:
    from dpmargin import data

    spec = job["spec"]
    tracer = Tracer(SETUP_SITES) if job["trace"] else None
    if tracer:
        tracer.install()
    dataset, _ = data.synth_margin_dataset(spec["n"], spec["d"], spec["gamma"],
                                           spec["outliers"], spec["synth_seed"] + job["seed"])
    data.save_csv(dataset, job["csv"])
    out = {"setup_s": time.perf_counter() - _START, "csv_sha256": sha256(job["csv"]),
           "failures": []}
    if tracer:
        tracer.restore()
        out["data.save_s"] = sum(s.dur for s in tracer.spans)
    return out


def blas_threads() -> int | None:
    """Thread count OpenBLAS actually runs with, read from the loaded library."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(spec: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            l3 = fh.read().strip()
    except OSError:
        l3 = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "pool": spec["pool"], "l3": l3}


def check_model(spec: dict, path: str, risk: float | None) -> list[str]:
    """Correctness gate on one `train` output; returns the failed checks."""
    failures = []
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"model JSON unreadable: {exc}"]
    weights = doc.get("weights")
    if not isinstance(weights, list) or len(weights) != spec["d"]:
        failures.append(f"weights are not a list of {spec['d']} numbers")
    elif not all(math.isfinite(w) for w in weights):
        failures.append("weights are not finite")
    elif not any(weights):
        failures.append("all-zero (vacuous) model")
    eps = spec["epsilon"]
    ledger = doc.get("ledger", {})
    if spec["tuner"] == "iterate":
        want_eps, want = eps, f"({eps:g}, {DELTA:g})-DP"
        guarantee_ok = ledger.get("guarantee") == want
    else:  # (epsilon + delta, delta)-DP at the requested epsilon
        want_eps, want = eps + DELTA, f"at epsilon = {eps:g})"
        guarantee_ok = str(ledger.get("guarantee", "")).endswith(want)
    if not (guarantee_ok and ledger.get("delta") == DELTA
            and math.isclose(ledger.get("epsilon", math.nan), want_eps, rel_tol=1e-9)):
        failures.append(f"ledger guarantee {ledger.get('guarantee')!r} does not match "
                        f"the requested ({eps:g}, {DELTA:g})")
    if risk is None:
        failures.append("train printed no risk")
    elif spec["max_risk"] is not None and not risk <= spec["max_risk"]:
        failures.append(f"risk {risk} above the workload threshold {spec['max_risk']}")
    return failures


def train(job: dict) -> dict:
    import dpmargin.cli as cli

    spec = job["spec"]
    argv = train_argv(spec, job["csv"], job["model"])
    tracer = Tracer(SITES) if job["trace"] else None
    if tracer:
        tracer.install()
    printed = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    train_s = time.perf_counter() - start
    if tracer:
        tracer.restore()
    risk = None
    for line in printed.getvalue().splitlines():
        if line.startswith("empirical zero-one risk:"):
            risk = float(line.split(":", 1)[1])
    failures = [f"train exited with {code}"] if code != 0 else []
    if code == 0:
        failures += check_model(spec, job["model"], risk)
    out = {"train_s": train_s, "risk": risk, "failures": failures,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
           "model_sha256": sha256(job["model"]) if code == 0 else None,
           "env": environment(spec)}
    if tracer:
        layers = tracer.metrics()
        predicted = predict_counts(spec)
        for key, metric in (("grid_size", "master.grid_size"),
                            ("jl_candidates", "master.jl_candidates"),
                            ("runs", "tuning.runs"), ("runs", "optimizer.ngd_calls"),
                            ("steps", "optimizer.steps")):
            if layers[metric] != predicted[key]:
                failures.append(f"{metric} = {layers[metric]}, predicted {predicted[key]}")
        out.update(layers=layers, predicted=predicted)
    return out


def main() -> None:
    role, job = sys.argv[1], json.loads(sys.argv[2])
    out = {"setup": setup, "train": train}[role](job)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
