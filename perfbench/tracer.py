"""In-memory span tracer that wraps the program's public functions from outside.

``Tracer.install`` rebinds each function in ``WRAPPED`` in every ``opdep``
module that holds it (the defining module, the modules that imported it
by name, the package namespace), so calls from inside the program and
from the benchmark both pass through the wrapper.  ``uninstall`` puts the
originals back.

A span is ``[name, start, end, parent, op, calls, busy]``.  A call that
makes no traced call of its own is a leaf; leaves of the same function
under the same parent span are merged into one span with ``calls`` and
summed ``busy``, which keeps millions of ``pattern_of`` calls in a few
records and loses nothing the per-layer figures need: one thread runs
the spans, so children never overlap and a parent's covered time is the
sum of its children's busy time.

Counts are read from arguments and results at the same boundaries; the
ones marked "computed" in ``PER_LAYER`` are derived from argument sizes
(for example d!^2 per cell), not observed inside the program.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

MODULES = ("cli", "estimator", "patterns", "piecewise", "discrete", "modelio", "scenarios")
WRAPPED = {
    "cli": ["main"],
    "estimator": ["TimeSeriesPair", "empirical_opd"],
    "patterns": ["pattern_of", "enumerate_patterns", "distribution_from_counts", "cross_match_probability",
                 "dependence_from_terms"],
    "piecewise": ["exact_opd", "pattern_coincidence", "joint_pattern_distribution", "marginal_pattern_distribution",
                  "cdf", "survival", "concordance_check", "validate", "sample", "mc_probability"],
    "discrete": ["exact_opd_discrete", "check_theorem_conditions", "conditional", "marginal", "cdf", "survival"],
    "modelio": ["load_model"],
    "scenarios": ["run_scenario"],
}

# (name, unit, better, note); the note says what a count is and the base of a ratio.
COUNTS = [
    ("cli.rows_parsed", "count", "lower", "rows of TimeSeriesPair built inside cli.main"),
    ("estimator.windows_used", "count", "lower", "OpdEstimate.window_count"),
    ("estimator.windows_skipped", "count", "lower", "OpdEstimate.skipped_windows"),
    ("estimator.skip_ratio", "ratio", "lower", "windows_skipped / (windows_used + windows_skipped)"),
    ("estimator.windows_per_s", "1/s", "higher", "windows_used / estimator.empirical_opd.busy_s"),
    ("piecewise.cells", "count", "lower", "cells of models passed to joint_pattern_distribution"),
    ("piecewise.pattern_pairs_possible", "count", "lower", "computed: sum of cells * (d!)^2 over joint calls"),
    ("piecewise.joint_entries", "count", "lower", "entries of joint_pattern_distribution results"),
    ("piecewise.joint_fill_ratio", "ratio", "lower", "joint_entries / sum of (d!)^2 over joint calls"),
    ("piecewise.grid_points", "count", "lower", "computed: points_per_axis^(2d) per concordance_check"),
    ("piecewise.draws", "count", "lower", "n passed to sample"),
    ("discrete.atoms_scanned", "count", "lower", "computed: atoms of the law passed to cdf/survival/conditional/marginal"),
    ("discrete.conditionings", "count", "lower", "conditional calls inside check_theorem_conditions"),
    ("discrete.skipped", "count", "lower", "of those, calls raising ZeroMassCondition"),
    ("discrete.skip_ratio", "ratio", "lower", "skipped / conditionings"),
    ("discrete.violations", "count", "lower", "violations in check_theorem_conditions reports"),
    ("modelio.bytes_read", "B", "lower", "size of files passed to load_model"),
]
EXTRA = [
    ("trace_overhead", "ratio", "lower", "traced loop time / untraced loop time, reference seconds, same passes"),
    ("error_rate", "ratio", "lower", "failed ops / attempted ops, both loops"),
]


def per_layer_metrics() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric as (name, unit, better, note), in report order."""
    out = []
    for module, names in WRAPPED.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count", "lower", "calls per pass"))
            out.append((f"{module}.{fn}.busy_s", "s", "lower", "inclusive time per pass"))
    out += [(f"{m}.self_s", "s", "lower", "busy time minus child spans, per pass") for m in MODULES]
    return out + COUNTS + EXTRA


def _ancestor(stack, name: str) -> bool:
    return any(frame[0] == name for frame in stack)


def _hooks():
    """Per-function count hooks: hook(counters, stack, args, kwargs, result, error)."""

    def rows(c, stack, args, kwargs, result, error):
        if result is not None and _ancestor(stack, "cli.main"):
            c["cli.rows_parsed"] += len(result)

    def windows(c, stack, args, kwargs, result, error):
        if result is not None:
            c["estimator.windows_used"] += result.window_count
            c["estimator.windows_skipped"] += result.skipped_windows

    def joint(c, stack, args, kwargs, result, error):
        model = args[0]
        table = math.factorial(model.order) ** 2
        c["piecewise.cells"] += len(model.cells)
        c["piecewise.pattern_pairs_possible"] += len(model.cells) * table
        c["piecewise.dense_entries"] += table
        if result is not None:
            c["piecewise.joint_entries"] += len(result)

    def grid(c, stack, args, kwargs, result, error):
        model = args[0]
        if kwargs.get("grid") is not None:
            c["piecewise.grid_points"] += math.prod(len(axis) for axis in kwargs["grid"])
        else:
            c["piecewise.grid_points"] += kwargs.get("points_per_axis", 9) ** model.dimension

    def draws(c, stack, args, kwargs, result, error):
        c["piecewise.draws"] += args[1] if len(args) > 1 else kwargs["n"]

    def scanned(c, stack, args, kwargs, result, error):
        c["discrete.atoms_scanned"] += len(args[0].atoms)

    def conditioned(c, stack, args, kwargs, result, error):
        scanned(c, stack, args, kwargs, result, error)
        if _ancestor(stack, "discrete.check_theorem_conditions"):
            c["discrete.conditionings"] += 1
            if type(error).__name__ == "ZeroMassCondition":
                c["discrete.skipped"] += 1

    def violations(c, stack, args, kwargs, result, error):
        if result is not None:
            c["discrete.violations"] += len(result.violations)

    def read(c, stack, args, kwargs, result, error):
        c["modelio.bytes_read"] += os.path.getsize(args[0])

    return {
        "estimator.TimeSeriesPair": rows, "estimator.empirical_opd": windows,
        "piecewise.joint_pattern_distribution": joint, "piecewise.concordance_check": grid,
        "piecewise.sample": draws, "discrete.cdf": scanned, "discrete.survival": scanned,
        "discrete.marginal": scanned, "discrete.conditional": conditioned,
        "discrete.check_theorem_conditions": violations, "modelio.load_model": read,
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.leaves: dict[tuple[int, str], int] = {}
        self.counters: Counter = Counter()
        self.op = -1
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack, leaves, counters, clock = self.spans, self.stack, self.leaves, self.counters, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[2] < 0:  # the parent has a child, so it gets its own span
                parent[2] = len(spans)
                spans.append([parent[0], parent[1], 0.0, parent[3], tracer.op, 1, 0.0])
            frame = [name, 0.0, -1, parent[2] if parent is not None else -1]
            stack.append(frame)
            result = error = None
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                busy = end - frame[1]
                if frame[2] >= 0:
                    span = spans[frame[2]]
                    span[2], span[6] = end, busy
                elif parent is None:
                    spans.append([name, frame[1], end, -1, tracer.op, 1, busy])
                else:
                    key = (frame[3], name)
                    index = leaves.get(key)
                    if index is None:
                        leaves[key] = len(spans)
                        spans.append([name, frame[1], end, frame[3], tracer.op, 1, busy])
                    else:
                        span = spans[index]
                        span[2] = end
                        span[5] += 1
                        span[6] += busy
                if hook is not None:
                    hook(counters, stack, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        hooks = _hooks()
        program = [m for name, m in sys.modules.items() if name == "opdep" or name.startswith("opdep.")]
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(f"opdep.{module_name}")
            for fn_name in names:
                original = getattr(module, fn_name)
                qualified = f"{module_name}.{fn_name}"
                wrapper = self._wrap(qualified, original, hooks.get(qualified))
                for holder in program:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._installed.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per pass over the op list, computed from the spans."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            calls[span[0]] += span[5]
            busy[span[0]] += span[6]
            if span[3] >= 0:
                covered[span[3]] += span[6]
        self_time: Counter = Counter()
        for span, child in zip(self.spans, covered):
            self_time[span[0].split(".")[0]] += span[6] - child
        out: dict[str, float] = {}
        for module, names in WRAPPED.items():
            for fn in names:
                out[f"{module}.{fn}.calls"] = _per_pass(calls[f"{module}.{fn}"], passes)
                out[f"{module}.{fn}.busy_s"] = busy[f"{module}.{fn}"] / passes
        for module in MODULES:
            out[f"{module}.self_s"] = self_time[module] / passes
        c = self.counters
        for name, *_ in COUNTS:
            if name in c:
                out[name] = _per_pass(c[name], passes)
        offsets = c["estimator.windows_used"] + c["estimator.windows_skipped"]
        out["estimator.skip_ratio"] = c["estimator.windows_skipped"] / offsets if offsets else 0.0
        opd_busy = busy["estimator.empirical_opd"]
        out["estimator.windows_per_s"] = c["estimator.windows_used"] / opd_busy if opd_busy else 0.0
        dense = c["piecewise.dense_entries"]
        out["piecewise.joint_fill_ratio"] = c["piecewise.joint_entries"] / dense if dense else 0.0
        tried = c["discrete.conditionings"]
        out["discrete.skip_ratio"] = c["discrete.skipped"] / tried if tried else 0.0
        for name, *_ in COUNTS:
            out.setdefault(name, 0)
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span once, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op", "calls", "busy"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans, "counters": dict(self.counters)}, handle)


def _per_pass(total: float, passes: int):
    return total // passes if total % passes == 0 else total / passes
