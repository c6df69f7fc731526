"""dpmargin benchmark: `train` wall time, risk and memory per workload.

    python3 perfbench/run.py --workload iterate-lowdim --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload iterate-lowdim --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

Run from the repository root.  Every job (set-up or one `train` call) runs in
a fresh process from job.py.  With --trace 0 the run sets up several times,
then repeats untraced `train` calls until about --seconds have passed and
reports medians of the end-to-end metrics.  With --trace 1 it runs one
untraced and one traced call and reports the per-layer metrics.  The last stdout line is
the JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS
from workloads import SMOKE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 9, 3.0
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

# End-to-end metrics of the result line; `risk` and `failed_frac` are only
# printed (risk is 0 on iterate-lowdim and varies with the data seed on
# privtune-small; failed_frac is 0 when the code is correct).
END_TO_END = {"train_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = dict(END_TO_END, risk="1")


class JobError(RuntimeError):
    """A job process crashed or printed no result."""


def job_env(blas: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every import costs the same
    env["SOURCE_DATE_EPOCH"] = "0"  # byte-identical model JSON across calls
    return env


def run_job(role: str, job: dict, env: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "job.py"), role, json.dumps(job)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise JobError(f"{role} job passed the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobError(f"{role} job exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


class Run:
    """One benchmark run of one workload; counts attempted and failed jobs."""

    def __init__(self, name: str, spec: dict, seed: int, workdir: Path):
        self.name, self.spec, self.seed = name, spec, seed
        self.csv = str(workdir / "data.csv")
        self.model = str(workdir / "model.json")
        self.env = job_env(spec["blas"])
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = self.failed = 0

    def job(self, role: str, trace: bool) -> dict | None:
        """Run one job; return its result, or None when it failed."""
        self.attempted += 1
        job = {"spec": self.spec, "seed": self.seed, "csv": self.csv,
               "model": self.model, "trace": trace}
        try:
            out = run_job(role, job, self.env, self.deadline)
        except JobError as exc:
            out = {"failures": [str(exc)]}
        if out["failures"]:
            self.failed += 1
            for failure in out["failures"]:
                print(f"[{self.name}] {role} job failed: {failure}", file=sys.stderr)
            return None
        return out


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(run: Run, seconds: float) -> tuple[dict, bool]:
    """Untraced run: medians of the end-to-end metrics over repeated jobs.

    Set-up runs SETUP_MIN_REPS to SETUP_MAX_REPS times (cheap set-ups get
    more reps for a steadier median), then `train` jobs repeat while the
    next one is expected to end within `seconds` of the start.
    """
    start = time.monotonic()
    setups = []
    while len(setups) < SETUP_MIN_REPS or (len(setups) < SETUP_MAX_REPS and
                                           time.monotonic() - start < SETUP_BUDGET_S):
        out = run.job("setup", False)
        if out is None:
            break
        setups.append(out)
    trains, walls = [], []
    while setups:
        t0 = time.monotonic()
        out = run.job("train", False)
        walls.append(time.monotonic() - t0)
        if out:
            trains.append(out)
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    if not trains:
        return {}, False
    # every job of a run sees identical inputs, so outputs must be identical
    deterministic = (len({s["csv_sha256"] for s in setups}) == 1
                     and len({t["model_sha256"] for t in trains}) == 1
                     and len({t["risk"] for t in trains}) == 1)
    if not deterministic:
        print(f"[{run.name}] outputs differ between identical jobs", file=sys.stderr)
    samples = {"train_s": [t["train_s"] for t in trains],
               "risk": [t["risk"] for t in trains],
               "setup_s": [s["setup_s"] for s in setups],
               "peak_rss_mb": [t["peak_rss_mb"] for t in trains]}
    print(f"workload {run.name} seed {run.seed}  env {json.dumps(trains[0]['env'])}")
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        print(f"  {name:<12} {statistics.median(values):>12.6g} {UNITS[name]:<3}"
              f"  n={len(values)} q1={q1:.6g} q3={q3:.6g}")
    print(f"  {'failed_frac':<12} {run.failed / run.attempted:>12.6g} 1"
          f"    failed={run.failed} attempted={run.attempted}")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, deterministic


def measure_traced(run: Run) -> tuple[dict, bool]:
    """Traced run: one untraced and one traced `train` call, per-layer metrics."""
    setup = run.job("setup", True)
    plain = run.job("train", False) if setup else None
    traced = run.job("train", True) if plain else None
    if not traced:
        return {}, False
    layers = dict(traced["layers"])
    layers["data.save_s"] = setup["data.save_s"]
    layers["loss.risk"] = traced["risk"]
    layers["trace.train_s"] = traced["train_s"]
    layers["trace.overhead_s"] = traced["train_s"] - plain["train_s"]
    same_risk = traced["risk"] == plain["risk"]
    if not same_risk:
        print(f"[{run.name}] traced risk {traced['risk']} != untraced {plain['risk']}",
              file=sys.stderr)
    print(f"workload {run.name} seed {run.seed} (traced)  env {json.dumps(traced['env'])}")
    print(f"  predicted counts {json.dumps(traced['predicted'])}")
    for name, value in sorted(layers.items()):
        print(f"  {name:<28} {value:.6g}")
    metrics = {name: {"value": layers[name], "unit": unit}  # KeyError: metric missing
               for name, unit in LAYER_UNITS.items()}
    return metrics, same_risk


def one_run(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(name, spec, seed, workdir)
        if trace:
            metrics, consistent = measure_traced(run)
        else:
            metrics, consistent = measure(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    return {"correct": consistent and run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main() -> int:
    # subprocess.run kills its job when an exception unwinds through it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--split", metavar="POOL,BLAS",
                        help="override the workload's thread split")
    parser.add_argument("--smoke", action="store_true",
                        help="traced runs of all workloads at tiny shapes")
    args = parser.parse_args()
    if not (ROOT / "src" / "dpmargin" / "cli.py").is_file():
        print(f"error: no dpmargin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        results = {name: one_run(name, spec, args.seed, 0, True)
                   for name, spec in SMOKE.items()}
        ok = all(r["correct"] and r["metrics"] for r in results.values())
        print(json.dumps({name: r["correct"] for name, r in results.items()}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    spec = dict(WORKLOADS[args.workload])
    if args.split:
        spec["pool"], spec["blas"] = (int(v) for v in args.split.split(","))
    result = one_run(args.workload, spec, args.seed, args.seconds, bool(args.trace))
    if not result["metrics"]:
        print(f"error: no job of {args.workload} succeeded", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
