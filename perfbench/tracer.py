"""Spans around calls into enkpf's layers, recorded from outside the program.

A hook replaces a function at the module attribute its caller looks it up
through (for example `enkpf.bridge.select_gamma`, which is how
`enkpf_update` reaches it) with a wrapper that records a span: name,
start, end and parent span. Spans stay in memory. A layer's self time is
its span time minus the time of its child spans.

Targets are resolved once, at start. A metric whose targets no longer all
exist is reported as missing, with the target that is gone, instead of
being measured on half its call sites.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Hook:
    """One span name recorded at every listed target.

    `classify(args)` may rename the span per call; `observe(tracer, args,
    result)` may add counters after the span has ended.
    """

    span: str
    targets: tuple[str, ...]
    classify: object = None
    observe: object = None
    resolved: list = field(default_factory=list)  # (owner, attr, original)
    missing: list = field(default_factory=list)


def _is_truth(args) -> bool:
    # the cycling loop propagates the truth as a (q,) vector and the
    # ensemble as an Ensemble or (q, N) matrix
    return getattr(args[0], "ndim", 2) == 1


def _count_probes(tracer, args, result):
    tracer.count["gamma.probes"] += len(result[1] or ())


def _count_distinct(tracer, args, result):
    tracer.count["resampling.distinct"] += len(np.unique(result)) / len(result)
    tracer.count["resampling.passes"] += 1


HOOKS = (
    Hook(
        "models.propagate",
        ("enkpf.experiment.lorenz96_propagate",),
        classify=lambda args: "models.propagate_truth" if _is_truth(args) else "models.propagate",
    ),
    Hook("ensemble.tapered_covariance", ("enkpf.bridge.tapered_covariance",)),
    Hook("gamma.select", ("enkpf.bridge.select_gamma",), observe=_count_probes),
    Hook("mixture.build", ("enkpf.gamma._mixture_from_cov", "enkpf.bridge._mixture_from_cov")),
    Hook("mixture.sample", ("enkpf.bridge.sample_update",)),
    Hook("observation.gain", ("enkpf.mixture.scaled_gain", "enkpf.mixture.kalman_gain")),
    Hook("observation.loglik", ("enkpf.mixture.gaussian_innovation_loglik",)),
    Hook("resampling.resample", ("enkpf.mixture.balanced_resample",), observe=_count_distinct),
    Hook("bridge.update", ("enkpf.experiment.enkpf_update", "enkpf.cli.enkpf_update")),
    Hook(
        "experiment.write_matrix_csv",
        ("enkpf.experiment.write_matrix_csv", "enkpf.cli.write_matrix_csv"),
    ),
    Hook("experiment.read_matrix_csv", ("enkpf.cli.read_matrix_csv",)),
    Hook("scoring", ("enkpf.experiment.rmse", "enkpf.experiment.crps")),
    Hook("rng.generator", ("enkpf.rng.RngNode.generator",)),
)

def _resolve(target: str):
    """(owner object, attribute name, current value) of a dotted target."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"no module in {target!r}")


class Tracer:
    """Records spans while installed; aggregates them per span name."""

    def __init__(self):
        self.hooks = [Hook(h.span, h.targets, h.classify, h.observe) for h in HOOKS]
        self.spans: list = []  # (name, start_ns, end_ns, parent index)
        self.count = defaultdict(float)
        self._stack: list[int] = []
        for hook in self.hooks:
            for target in hook.targets:
                try:
                    hook.resolved.append(_resolve(target))
                except (ImportError, AttributeError):
                    hook.missing.append(target)

    def missing(self) -> dict[str, list[str]]:
        return {h.span: h.missing for h in self.hooks if h.missing}

    def install(self):
        for hook in self.hooks:
            if hook.missing:
                continue
            for owner, attr, original in hook.resolved:
                setattr(owner, attr, self._wrap(hook, original))

    def uninstall(self):
        for hook in self.hooks:
            for owner, attr, original in hook.resolved:
                setattr(owner, attr, original)

    def _wrap(self, hook: Hook, fn):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = hook.classify(args) if hook.classify else hook.span
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook.observe:
                hook.observe(self, args, result)
            return result

        return wrapper

    def root(self, name: str):
        """Context manager for a span the benchmark opens around one op."""
        return _RootSpan(self, name)

    def totals(self):
        """Per span name: (calls, total ns, self ns)."""
        calls = defaultdict(int)
        total = defaultdict(int)
        child = defaultdict(int)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        return {n: (calls[n], total[n], total[n] - child[n]) for n in calls}


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter_ns()
        t._stack.pop()
        t.spans[self.index] = (self.name, self.start, end, -1)
        return False


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics per op, as {name: (value or None, unit, missing)}.

    `missing` names the hook targets that no longer exist; the value is
    then None. Metrics of a layer the workload never calls read 0.
    """
    t = tracer.totals()
    c = tracer.count

    def ms(span, kind="total"):
        calls, total, self_ns = t.get(span, (0, 0, 0))
        return (total if kind == "total" else self_ns) / 1e6 / ops

    def calls(*spans):
        return sum(t.get(s, (0, 0, 0))[0] for s in spans) / ops

    passes = c["resampling.passes"]
    table = {
        # name: (hook span it depends on, value, unit); None = a root span
        "models.propagate_ms": ("models.propagate", ms("models.propagate"), "ms/op"),
        "models.propagate_truth_ms": (
            "models.propagate", ms("models.propagate_truth"), "ms/op"),
        "models.propagate_calls": (
            "models.propagate",
            calls("models.propagate", "models.propagate_truth"),
            "count/op",
        ),
        "ensemble.tapered_covariance_ms": (
            "ensemble.tapered_covariance", ms("ensemble.tapered_covariance"), "ms/op"),
        "ensemble.tapered_covariance_calls": (
            "ensemble.tapered_covariance", calls("ensemble.tapered_covariance"), "count/op"),
        "gamma.select_ms": ("gamma.select", ms("gamma.select"), "ms/op"),
        "gamma.probes": ("gamma.select", c["gamma.probes"] / ops, "count/op"),
        "mixture.build_ms": ("mixture.build", ms("mixture.build"), "ms/op"),
        "mixture.builds": ("mixture.build", calls("mixture.build"), "count/op"),
        "mixture.sample_ms": ("mixture.sample", ms("mixture.sample"), "ms/op"),
        "observation.gain_ms": ("observation.gain", ms("observation.gain"), "ms/op"),
        "observation.gain_calls": ("observation.gain", calls("observation.gain"), "count/op"),
        "observation.loglik_ms": ("observation.loglik", ms("observation.loglik"), "ms/op"),
        "resampling.resample_ms": ("resampling.resample", ms("resampling.resample"), "ms/op"),
        "resampling.distinct_frac": (
            "resampling.resample",
            c["resampling.distinct"] / passes if passes else 0.0,
            "frac",
        ),
        "bridge.update_ms": ("bridge.update", ms("bridge.update"), "ms/op"),
        "bridge.self_ms": ("bridge.update", ms("bridge.update", "self"), "ms/op"),
        "experiment.write_matrix_csv_ms": (
            "experiment.write_matrix_csv", ms("experiment.write_matrix_csv"), "ms/op"),
        "experiment.read_matrix_csv_ms": (
            "experiment.read_matrix_csv", ms("experiment.read_matrix_csv"), "ms/op"),
        "experiment.self_ms": (None, ms("experiment.run", "self"), "ms/op"),
        "cli.self_ms": (None, ms("cli.main", "self"), "ms/op"),
        "scoring.ms": ("scoring", ms("scoring"), "ms/op"),
        "rng.generators": ("rng.generator", calls("rng.generator"), "count/op"),
        "rng.generator_ms": ("rng.generator", ms("rng.generator"), "ms/op"),
    }
    gone = tracer.missing()
    return {
        name: (None, unit, gone[hook]) if hook in gone else (value, unit, None)
        for name, (hook, value, unit) in table.items()
    }


def breakdown(tracer: Tracer, ops: int) -> list[str]:
    """Self-time table per op, largest self time first."""
    rows = sorted(tracer.totals().items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':32s} {'calls/op':>9s} {'total ms/op':>12s} {'self ms/op':>11s}"]
    for name, (calls, total, self_ns) in rows:
        lines.append(
            f"{name:32s} {calls / ops:9.2f} {total / 1e6 / ops:12.3f} {self_ns / 1e6 / ops:11.3f}"
        )
    return lines
