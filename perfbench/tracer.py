"""Outside-in layer tracing for dul_lab.

The tracer wraps every public function, every public method and every class
constructor of the lab's modules from the benchmark's side; nothing in
``src/`` is edited. Each module is one layer. A span is opened only when a
call enters a layer from outside it (from the benchmark or from another
layer); calls that stay inside a layer only bump a per-function counter, so
the million per-row Dirichlet calls of a dul finetune cost a counter
increment each, not a span. Spans are aggregated per (name, parent) in
memory and turned into per-layer metrics when the traced passes end.

Aliases made by ``from .nn import sgd_step`` and the like are rebound too,
so a call through any module-level name of the lab reaches a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

from dul_lab.losses import LOSS_KINDS
from dul_lab.metrics import SCORE_METHODS

LAYERS = ("nn", "losses", "dirichlet", "metrics", "theory", "data", "runner",
          "config")
ROOT = "<bench>"
# per-layer metric name -> lab function whose entry spans it aggregates
METRIC_FUNCTIONS = {
    "fpr95": "metrics.fpr_at_95tpr",
    "auroc": "metrics.auroc",
    "aupr": "metrics.aupr",
    "uncertainty_stats": "metrics.uncertainty_stats",
    "accuracy": "metrics.accuracy",
}
FORWARDS = ("nn.Mlp.forward", "nn.Mlp.forward_cache")
THEORY_CHECKS = ("theory.pinsker_check", "theory.bretagnolle_huber_check",
                 "theory.lemma2_check")
# Calls per pass that a workload fixes, for the count self-check. Loss and
# score rows count entries into the layer; the functions count every call.
COUNTED_FUNCTIONS = ("nn.sgd_step", "nn.load_checkpoint", "runner.evaluate",
                     "runner.noise_sweep", "theory.theorem1_bound")
COUNTED = ([f"losses.{k}.calls" for k in LOSS_KINDS]
           + [f"metrics.score.{s}.calls" for s in SCORE_METHODS]
           + [f"{fn}.calls" for fn in COUNTED_FUNCTIONS])


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _leading_rows(value) -> int:
    """Rows in an (n, K) array, or 1 for one vector or scalar. Batches,
    datasets, Dirichlet parameters and simplex vectors count by the array
    they hold."""
    for attr in ("inputs", "points", "alpha", "p"):
        if hasattr(value, attr):
            value = getattr(value, attr)
            break
    shape = np.shape(value)
    return int(shape[0]) if len(shape) >= 2 else 1


# Span names that carry an argument: one losses row per loss kind and one
# metrics row per score method.
_NAMERS = {
    "losses.loss_backward":
        lambda a, k: f"losses.loss_backward.{_arg(a, k, 2, 'spec').kind}",
    "metrics.score_logits":
        lambda a, k: f"metrics.score_logits.{_arg(a, k, 1, 'method')}",
}


def _rows(full: str, layer: str, args, kwargs, result) -> int:
    """Work count recorded on an entry span: input rows for forwards and
    the Dirichlet layer, output rows for dataset builders, file bytes for
    checkpoint loads."""
    if full in FORWARDS:
        return _leading_rows(args[1])
    if full == "nn.load_checkpoint":
        return os.path.getsize(_arg(args, kwargs, 0, "path"))
    if layer == "dirichlet":
        return _leading_rows(args[0]) if args else 1
    if layer == "data" and hasattr(result, "points"):
        return _leading_rows(result)
    return 0


class Tracer:
    """Install with ``install()``, run the traced work, then ``uninstall()``
    and read ``layer_metrics(n_passes)``."""

    def __init__(self):
        self.stack: list = []  # open spans: [name, layer, child_seconds]
        self.spans: dict = {}  # (name, parent) -> [entries, total_s, self_s, rows]
        self.calls: Counter = Counter()  # every call of a wrapped function
        self.durations = defaultdict(list)  # inclusive seconds per entry
        self.forwards = 0
        self.repeats = 0
        self._seen: dict = {}  # forwards of the current top-level call
        self._patched: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"dul_lab.{layer}")
                   for layer in LAYERS}
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, name))
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (attr == "__init__"
                                                       or not attr.startswith("_")):
                            qual = name if attr == "__init__" else f"{name}.{attr}"
                            self._patch(obj, attr, self._wrap(fn, layer, qual))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, layer: str, qualname: str):
        full = f"{layer}.{qualname}"
        namer = _NAMERS.get(full)
        is_forward = full in FORWARDS
        keep_durations = full in ("losses.loss_backward", "theory.theorem1_bound")
        calls, stack, spans = self.calls, self.stack, self.spans
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[full] += 1
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            name = namer(args, kwargs) if namer else full
            parent = stack[-1][0] if stack else ROOT
            if is_forward:
                tracer._note_forward(args[0], args[1])
            frame = [name, layer, 0.0]
            stack.append(frame)
            rows = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                rows = _rows(full, layer, args, kwargs, result)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer._seen.clear()
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                agg[3] += rows
                if keep_durations:
                    tracer.durations[name].append(dur)

        return traced

    def _note_forward(self, model, x) -> None:
        """Count a forward as a repeat when the same model object already
        ran on the same input array within the current top-level call.
        Weak references keep a reused id() from matching a dead object."""
        x = getattr(x, "inputs", x)
        self.forwards += 1
        key = (id(model), id(x))
        refs = self._seen.get(key)
        if refs is not None and refs[0]() is model and refs[1]() is x:
            self.repeats += 1
            return
        try:
            self._seen[key] = (weakref.ref(model), weakref.ref(x))
        except TypeError:  # a plain list input cannot be weakly referenced
            pass

    # -- reporting --------------------------------------------------------

    def entries(self) -> dict:
        """name -> [entries, total_s, self_s, rows], summed over parents."""
        out = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for (name, _parent), agg in self.spans.items():
            row = out[name]
            for i, v in enumerate(agg):
                row[i] += v
        return dict(out)

    def layer_metrics(self, n_passes: int) -> dict:
        """Per-pass per-layer metrics, keyed by the names in BENCHMARK.json."""
        e = self.entries()
        zero = [0, 0.0, 0.0, 0]

        def tot(names, i):
            return sum(e.get(n, zero)[i] for n in names)

        def layer(prefix, i):
            return sum(v[i] for n, v in e.items() if n.startswith(prefix + "."))

        def ms(name, q):
            d = self.durations.get(name)
            return float(np.percentile(d, q) * 1e3) if d else 0.0

        per = 1.0 / n_passes
        m = {
            "nn.forward_cache.calls": self.calls["nn.Mlp.forward_cache"] * per,
            "nn.forward_cache.rows": tot(FORWARDS, 3) * per,
            "nn.forward_cache.self_s": tot(FORWARDS, 2) * per,
            "nn.backward.calls": self.calls["nn.Mlp.backward"] * per,
            "nn.backward.self_s": tot(["nn.Mlp.backward"], 2) * per,
            "nn.sgd_step.calls": self.calls["nn.sgd_step"] * per,
            "nn.sgd_step.self_s": tot(["nn.sgd_step"], 2) * per,
            "nn.load_checkpoint.self_s": tot(["nn.load_checkpoint"], 2) * per,
            "nn.checkpoint_bytes": tot(["nn.load_checkpoint"], 3) * per,
            "nn.forward.repeat_frac":
                self.repeats / self.forwards if self.forwards else 0.0,
        }
        for kind in LOSS_KINDS:
            name = f"losses.loss_backward.{kind}"
            m[f"losses.{kind}.calls"] = tot([name], 0) * per
            m[f"losses.{kind}.self_s"] = tot([name], 2) * per
            m[f"losses.{kind}.call_ms_p50"] = ms(name, 50)
            m[f"losses.{kind}.call_ms_p90"] = ms(name, 90)
        calls, rows = layer("dirichlet", 0), layer("dirichlet", 3)
        m["dirichlet.calls"] = calls * per
        m["dirichlet.rows"] = rows * per
        m["dirichlet.self_s"] = layer("dirichlet", 2) * per
        m["dirichlet.rows_per_call"] = rows / calls if calls else 0.0
        for method in SCORE_METHODS:
            m[f"metrics.score.{method}.self_s"] = \
                tot([f"metrics.score_logits.{method}"], 2) * per
        for short, fn in METRIC_FUNCTIONS.items():
            m[f"metrics.{short}.self_s"] = tot([fn], 2) * per
        m["theory.theorem1_bound.calls"] = tot(["theory.theorem1_bound"], 0) * per
        m["theory.theorem1_bound.self_s"] = tot(["theory.theorem1_bound"], 2) * per
        m["theory.theorem1_bound.call_ms_p50"] = ms("theory.theorem1_bound", 50)
        m["theory.disparity.calls"] = self.calls["theory.disparity"] * per
        m["theory.checks.self_s"] = tot(THEORY_CHECKS, 2) * per
        m["data.calls"] = layer("data", 0) * per
        m["data.rows"] = layer("data", 3) * per
        m["data.self_s"] = layer("data", 2) * per
        m["runner.self_s"] = layer("runner", 2) * per
        m["config.self_s"] = layer("config", 2) * per
        return m

    def counts(self, n_passes: int) -> dict:
        """Per-pass call counts that a workload fixes, for the self-check."""
        e = self.entries()
        out = {f"losses.{k}.calls": e.get(f"losses.loss_backward.{k}", [0])[0]
               for k in LOSS_KINDS}
        out.update({f"metrics.score.{s}.calls":
                    e.get(f"metrics.score_logits.{s}", [0])[0]
                    for s in SCORE_METHODS})
        for fn in COUNTED_FUNCTIONS:
            out[f"{fn}.calls"] = self.calls[fn]
        return {k: v / n_passes for k, v in out.items()}
