"""In-memory span tracer that wraps dpmargin functions from outside.

Modules bind each other's functions with `from ... import`, so a function is
wrapped at the name its caller looks up (`dpmargin.master.jlgd`, not only
`dpmargin.optimizer.jlgd`).  Each call records a span (name, start, end,
parent, thread id, attributes); spans stay in memory until `metrics()`.

Parent of a span: the innermost open span on the same thread.  A pool
worker thread has no open span of its own, so its spans hang off the
innermost open span of the thread that installed the tracer (the tuner).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import threading
from dataclasses import dataclass
from time import perf_counter

# Unit of every per-layer metric a traced run reports.
LAYER_UNITS = {
    "data.load_s": "s", "data.load_mb_per_s": "MB/s", "data.save_s": "s",
    "master.mechanism_s": "s", "master.candidates_s": "s", "master.grid_size": "count",
    "master.jl_candidates": "count", "master.model_json_s": "s",
    "projection.sample_s": "s", "projection.project_s": "s",
    "projection.project_calls": "count", "projection.lift_s": "s",
    "optimizer.ngd_self_s": "s", "optimizer.ngd_calls": "count",
    "optimizer.steps": "count", "optimizer.step_us": "us", "optimizer.call_us": "us",
    "optimizer.flops_computed": "FLOP", "optimizer.bytes_computed": "B",
    "optimizer.gflops": "GFLOP/s", "optimizer.noise_use_ratio": "1",
    "tuning.runs": "count", "tuning.tune_self_s": "s", "tuning.parallel_eff": "1",
    "tuning.score_s": "s", "tuning.score_calls": "count",
    "seeding.calls": "count", "seeding.s": "s", "loss.risk_s": "s", "loss.risk": "1",
    "trace.spans": "count", "trace.train_s": "s", "trace.overhead_s": "s",
}

NOISE_BLOCK = 512  # rows of Gaussian noise optimizer.ngd draws at a time


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict | None = None  # filled by the site's hook, if it has one

    @property
    def dur(self) -> float:
        return self.end - self.start


def _attrs_load(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _attrs_candidates(args, kwargs, result):
    return {"grid": len(result), "jl": sum(c.phi.seed is not None for c in result)}


def _attrs_ngd(args, kwargs, result):
    sched = result.provenance.schedule
    dataset = args[1]
    return {"T": sched.T, "n": dataset.n, "k": dataset.dim, "noisy": sched.sigma > 0}


def _attrs_tune(args, kwargs, result):
    return {"pool": max(1, int(kwargs.get("threads", 1)))}


# (module looked up by the caller, attribute, span name, attribute hook)
SITES = [
    ("dpmargin.cli", "load_dataset", "data.load", _attrs_load),
    ("dpmargin.cli", "dp_adaptive_margin", "master.mechanism", None),
    ("dpmargin.master", "build_candidates", "master.candidates", _attrs_candidates),
    ("dpmargin.cli", "model_to_json", "master.model_json", None),
    ("dpmargin.master", "sample_jl", "projection.sample", None),
    ("dpmargin.optimizer", "project_and_clip", "projection.project", None),
    ("dpmargin.optimizer", "lift", "projection.lift", None),
    ("dpmargin.optimizer", "ngd", "optimizer.ngd", _attrs_ngd),
    ("dpmargin.master", "jlgd", "master.jlgd", None),
    ("dpmargin.master", "iter_tune", "tuning.tune", _attrs_tune),
    ("dpmargin.master", "priv_tune", "tuning.tune", _attrs_tune),
    ("dpmargin.tuning", "score", "tuning.score", None),
    ("dpmargin.optimizer", "stream", "seeding.stream", None),
    ("dpmargin.tuning", "stream", "seeding.stream", None),
    ("dpmargin.tuning", "child_seed", "seeding.child_seed", None),
    ("dpmargin.cli", "training_risk", "loss.training_risk", None),
]

# Set-up jobs call save_csv through the dpmargin.data module.
SETUP_SITES = [("dpmargin.data", "save_csv", "data.save", None)]


class Tracer:
    """Patch the given sites on `install()`, restore them on `restore()`."""

    def __init__(self, sites):
        self.sites = sites
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._patched = []

    def install(self) -> None:
        for module_name, attr, name, hook in self.sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # AttributeError: site renamed
            setattr(module, attr, self._wrap(original, name, hook))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
                if stack:
                    parent = stack[-1]
                else:
                    home = self._stacks.get(self._home)
                    parent = home[-1] if home else None
                span = Span(name, parent, tid)
                index = len(self.spans)
                self.spans.append(span)
                stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return traced

    def self_times(self, only_children=None) -> list[float]:
        """Span duration minus the part of it that child spans cover.

        Children on pool threads overlap each other, so the covered part is
        the union of their intervals, not the sum of their durations.
        `only_children` limits the subtraction to children of one name.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None and (only_children is None
                                            or span.name == only_children):
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.dur - covered)
        return out

    def metrics(self) -> dict:
        """Per-layer figures for one traced `train` call."""
        spans = self.spans
        self_time = self.self_times()
        self_jlgd = self.self_times("master.jlgd")

        def named(name):
            return [i for i, s in enumerate(spans) if s.name == name]

        def total(name):
            return sum(spans[i].dur for i in named(name))

        load = named("data.load")
        load_s = total("data.load")
        load_mb = sum(spans[i].attrs["bytes"] for i in load) / 1e6
        cand = [spans[i].attrs for i in named("master.candidates")]
        ngd = named("optimizer.ngd")
        ngd_self = sum(self_time[i] for i in ngd)
        steps = sum(spans[i].attrs["T"] for i in ngd)
        nk_steps = sum(spans[i].attrs["T"] * spans[i].attrs["n"] * spans[i].attrs["k"]
                       for i in ngd)
        used = sum(spans[i].attrs["T"] * spans[i].attrs["k"] for i in ngd
                   if spans[i].attrs["noisy"])
        drawn = sum(math.ceil(spans[i].attrs["T"] / NOISE_BLOCK) * NOISE_BLOCK
                    * spans[i].attrs["k"] for i in ngd if spans[i].attrs["noisy"])
        tune = named("tuning.tune")
        tune_wall = sum(spans[i].dur for i in tune)
        pool = max((spans[i].attrs["pool"] for i in tune), default=1)
        seeding = named("seeding.stream") + named("seeding.child_seed")
        flops = 4.0 * nk_steps
        return {
            "data.load_s": load_s,
            "data.load_mb_per_s": load_mb / load_s if load_s else 0.0,
            "master.mechanism_s": total("master.mechanism"),
            "master.candidates_s": total("master.candidates"),
            "master.grid_size": sum(c["grid"] for c in cand),
            "master.jl_candidates": sum(c["jl"] for c in cand),
            "master.model_json_s": total("master.model_json"),
            "projection.sample_s": total("projection.sample"),
            "projection.project_s": total("projection.project"),
            "projection.project_calls": len(named("projection.project")),
            "projection.lift_s": total("projection.lift"),
            "optimizer.ngd_self_s": ngd_self,
            "optimizer.ngd_calls": len(ngd),
            "optimizer.steps": steps,
            "optimizer.step_us": 1e6 * ngd_self / steps if steps else 0.0,
            "optimizer.call_us": 1e6 * ngd_self / len(ngd) if ngd else 0.0,
            "optimizer.flops_computed": flops,
            "optimizer.bytes_computed": 16.0 * nk_steps,
            "optimizer.gflops": flops / ngd_self / 1e9 if ngd_self else 0.0,
            "optimizer.noise_use_ratio": used / drawn if drawn else 0.0,
            "tuning.runs": len(named("master.jlgd")),
            "tuning.tune_self_s": sum(self_jlgd[i] for i in tune),
            "tuning.parallel_eff": (total("master.jlgd") / (tune_wall * pool)
                                    if tune_wall else 0.0),
            "tuning.score_s": total("tuning.score"),
            "tuning.score_calls": len(named("tuning.score")),
            "seeding.calls": len(seeding),
            "seeding.s": sum(spans[i].dur for i in seeding),
            "loss.risk_s": total("loss.training_risk"),
            "trace.spans": len(spans),
        }
