"""Spans around dpss's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function, in every ``dpss`` module
that binds it, by a wrapper that records a span: name, start, end, parent
span and whether the call raised.  Model methods are wrapped on each model
class that defines them.  Spans live in flat arrays in memory and are
written out once, after the run; ``layer_metrics`` turns them into the
per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

MEAN_MAP = "expfam.mean_map"
FISHER = "expfam.fisher"
INVERSE = "expfam.inverse_mean_map"
FALLBACK = "expfam.inverse_mean_map.fallback"
BOOTSTRAP = "estimate.parametric_bootstrap"
NOISE_AWARE = "estimate.noise_aware_mle"
HARNESS = "harness.run_experiment"

# (module, attribute, span name): module-level functions
FUNCTIONS = [
    ("dpss.rng", "substream", "rng.substream"),
    ("dpss.privacy", "calibrate_agm", "privacy.calibrate_agm"),
    ("dpss.privacy", "release", "privacy.release"),
    ("dpss.estimate", "plugin_mle", "estimate.plugin_mle"),
    ("dpss.estimate", "noise_aware_mle", NOISE_AWARE),
    ("dpss.estimate", "dp_variance", "estimate.dp_variance"),
    ("dpss.estimate", "parametric_bootstrap", BOOTSTRAP),
    ("dpss.estimate", "nonprivate_mle", "estimate.nonprivate_mle"),
    ("dpss.synthgen", "generate_synthetic", "synthgen.generate_synthetic"),
    ("dpss.synthgen", "naive_analysis", "synthgen.naive_analysis"),
    ("dpss.synthgen", "noise_aware_synth_analysis", "synthgen.noise_aware_synth_analysis"),
    ("dpss.harness", "run_experiment", HARNESS),
    ("dpss.harness", "make_model_and_data", "harness.make_model_and_data"),
    ("dpss.expfam", "load_model_config", "io.load_model_config"),
    ("dpss.expfam", "dataset_from_csv", "io.dataset_from_csv"),
    ("dpss.expfam", "dataset_to_csv", "io.dataset_to_csv"),
]
# (module, class, attribute, span name): methods of one class
METHODS = [
    ("dpss.privacy", "ReleasedStatistic", "load", "io.release_load"),
    ("dpss.privacy", "ReleasedStatistic", "save", "io.release_save"),
    ("dpss.estimate", "EstimateReport", "to_json", "io.report_to_json"),
]
# model methods, wrapped on every ExpFamModel subclass that defines them
MODEL_METHODS = {
    "grad_log_partition": MEAN_MAP,
    "fisher_info": FISHER,
    "inverse_mean_map": INVERSE,
    "_inverse_mean_map_fallback": FALLBACK,
    "sample": "expfam.sample",
    "clip": "expfam.clip",
}


def _model_size(model) -> tuple[int, int]:
    design = getattr(model, "design", None)
    return (1, model.d) if design is None else design.shape


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self.flops = 0  # computed: n*d per mean map call, n*d*d per Fisher call
        self.bootstrap_draws = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        except BaseException:
            self.raised[idx] = 1
            raise
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer._close(idx)

        return traced

    def install(self) -> list[str]:
        """Wrap every traced function; return the targets that do not exist."""
        missing = []
        modules = [m for n, m in sys.modules.items() if n == "dpss" or n.startswith("dpss.")]
        for mod_name, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            on_call = self._count_draws if name == BOOTSTRAP else None
            wrapped = self.wrap(name, fn, on_call)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._wrap_method(cls, attr, name)
        base = sys.modules["dpss.expfam"].ExpFamModel
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for attr, name in MODEL_METHODS.items():
            if not any(attr in vars(cls) for cls in classes):
                missing.append(f"ExpFamModel.{attr}")
            for cls in classes:
                if attr in vars(cls):
                    self._wrap_method(cls, attr, name)
        return missing

    def _wrap_method(self, cls, attr: str, name: str) -> None:
        raw = vars(cls)[attr]
        on_call = {MEAN_MAP: self._count_mean_map, FISHER: self._count_fisher}.get(name)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, on_call)))
        else:
            setattr(cls, attr, self.wrap(name, raw, on_call))

    def _count_mean_map(self, args):
        n, d = _model_size(args[0])
        self.flops += n * d

    def _count_fisher(self, args):
        n, d = _model_size(args[0])
        self.flops += n * d * d

    def _count_draws(self, args):
        cfg = args[2]
        self.bootstrap_draws += cfg.b_boot

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-span durations, self times and ancestor names, from a Tracer."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.raised = a["raised"].astype(bool)
        self.dur = a["end"] - a["start"]
        n = len(self.dur)
        has_parent = self.parent >= 0
        self.self_time = self.dur - np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )
        # bit k of anc[i] is set when some ancestor of span i has name id k;
        # parents precede children, so propagation settles in depth steps
        bit = np.left_shift(np.uint64(1), self.name.astype(np.uint64))
        parent = np.where(has_parent, self.parent, 0)
        self.anc = np.zeros(n, dtype=np.uint64)
        while True:
            new = np.where(has_parent, self.anc[parent] | bit[parent], np.uint64(0))
            if np.array_equal(new, self.anc):
                break
            self.anc = new

    def _bit(self, name: str) -> np.uint64:
        if name not in self.names:
            return np.uint64(0)
        return np.left_shift(np.uint64(1), np.uint64(self.names.index(name)))

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        return (self.anc & self._bit(name)) != 0

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def inclusive(self, *names: str) -> float:
        """Seconds inside spans of these names, not counting nested ones twice."""
        sel = np.zeros(len(self.dur), dtype=bool)
        bits = np.uint64(0)
        for name in names:
            sel |= self.mask(name)
            bits |= self._bit(name)
        return float(self.dur[sel & ((self.anc & bits) == 0)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith("_s_per_rep"):
        return "s"
    if metric.endswith(".calls"):
        return "count"
    return {"expfam.flops_computed": "flop",
            "estimate.bootstrap.mean_map_calls_per_draw": "calls/draw",
            "estimate.noise_aware.mean_map_calls_per_solve": "calls/solve"}.get(metric, "ratio")


PER_LAYER = [
    "cli.release_s", "cli.estimate_s", "cli.bootstrap_s", "cli.synth_s", "cli.analyze_s",
    "cli.io_s", "estimate.parametric_bootstrap_s", "estimate.bootstrap.mean_map_calls_per_draw",
    "estimate.bootstrap.failure_ratio", "estimate.noise_aware_mle_s",
    "estimate.noise_aware.mean_map_calls_per_solve", "estimate.plugin_mle_s",
    "estimate.dp_variance_s", "estimate.nonprivate_mle_s", "expfam.mean_map.calls",
    "expfam.fisher.calls", "expfam.mean_map_s", "expfam.fisher_s", "expfam.flops_computed",
    "expfam.inverse_mean_map.calls", "expfam.inverse_mean_map_s", "expfam.fallback_ratio",
    "expfam.sample_s", "expfam.clip_s", "privacy.release_s", "privacy.calibrate_agm.calls",
    "privacy.calibrate_agm_s", "rng.substream.calls", "rng.substream_s",
    "synthgen.generate_synthetic_s", "synthgen.naive_analysis_s",
    "synthgen.noise_aware_synth_analysis_s", "harness.self_s_per_rep",
    "harness.make_model_and_data_s", "harness.pool_efficiency", "trace.overhead_frac",
]
UNITS = {m: _unit(m) for m in PER_LAYER}

IO_SPANS = (
    "io.load_model_config", "io.dataset_from_csv", "io.dataset_to_csv",
    "io.release_load", "io.release_save", "io.report_to_json",
)


def layer_metrics(tracer: Tracer, passes: int, reps: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``passes`` passes with ``reps`` replications.

    Times and call counts are per pass; a ``_s`` time includes the calls
    the layer makes.  ``harness.self_s_per_rep`` is harness time outside
    every other traced span, per replication.
    """
    t = SpanTable(tracer)

    def per_pass(x):
        return x / passes

    def ratio(num, den):
        return num / den if den else 0.0

    inverse = t.mask(INVERSE)
    boot_inner = inverse & np.isin(t.parent, np.flatnonzero(t.mask(BOOTSTRAP)))
    m = {f"cli.{c}_s": per_pass(t.inclusive(f"cli.{c}"))
         for c in ("release", "estimate", "bootstrap", "synth", "analyze")}
    m["cli.io_s"] = per_pass(t.inclusive(*IO_SPANS))
    m["estimate.parametric_bootstrap_s"] = per_pass(t.inclusive(BOOTSTRAP))
    m["estimate.bootstrap.mean_map_calls_per_draw"] = ratio(
        int((t.mask(MEAN_MAP) & t.under(BOOTSTRAP)).sum()), tracer.bootstrap_draws)
    m["estimate.bootstrap.failure_ratio"] = ratio(
        int((boot_inner & t.raised).sum()), int(boot_inner.sum()))
    m["estimate.noise_aware_mle_s"] = per_pass(t.inclusive(NOISE_AWARE))
    m["estimate.noise_aware.mean_map_calls_per_solve"] = ratio(
        int((t.mask(MEAN_MAP) & t.under(NOISE_AWARE)).sum()), t.count(NOISE_AWARE))
    for name in ("plugin_mle", "dp_variance", "nonprivate_mle"):
        m[f"estimate.{name}_s"] = per_pass(t.inclusive(f"estimate.{name}"))
    m["expfam.mean_map.calls"] = per_pass(t.count(MEAN_MAP))
    m["expfam.fisher.calls"] = per_pass(t.count(FISHER))
    m["expfam.mean_map_s"] = per_pass(t.inclusive(MEAN_MAP))
    m["expfam.fisher_s"] = per_pass(t.inclusive(FISHER))
    m["expfam.flops_computed"] = per_pass(tracer.flops)
    m["expfam.inverse_mean_map.calls"] = per_pass(int(inverse.sum()))
    m["expfam.inverse_mean_map_s"] = per_pass(t.inclusive(INVERSE))
    m["expfam.fallback_ratio"] = ratio(t.count(FALLBACK), int(inverse.sum()))
    m["expfam.sample_s"] = per_pass(t.inclusive("expfam.sample"))
    m["expfam.clip_s"] = per_pass(t.inclusive("expfam.clip"))
    m["privacy.release_s"] = per_pass(t.inclusive("privacy.release"))
    m["privacy.calibrate_agm.calls"] = per_pass(t.count("privacy.calibrate_agm"))
    m["privacy.calibrate_agm_s"] = per_pass(t.inclusive("privacy.calibrate_agm"))
    m["rng.substream.calls"] = per_pass(t.count("rng.substream"))
    m["rng.substream_s"] = per_pass(t.inclusive("rng.substream"))
    for name in ("generate_synthetic", "naive_analysis", "noise_aware_synth_analysis"):
        m[f"synthgen.{name}_s"] = per_pass(t.inclusive(f"synthgen.{name}"))
    m["harness.self_s_per_rep"] = ratio(t.self_seconds(HARNESS), reps)
    m["harness.make_model_and_data_s"] = per_pass(t.inclusive("harness.make_model_and_data"))
    return m
