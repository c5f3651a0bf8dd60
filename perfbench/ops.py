"""Ops of each workload and the checks of their outputs.

``build_ops`` turns a manifest into a list of zero-argument callables.
Each one calls the program the way a user does: CLI commands go through
``opdep.cli.main`` in process with stdout and stderr captured, library
calls go through the module attribute (so a tracer that rebinds it sees
the call).  An op returns the CLI's ``(exit code, stdout, stderr)``, the
library result, or a ``Raised`` record of the exception.

``check`` compares one output with the reference.  References come from
``ref`` (numpy, no program code) or, for the concordance and condition
reports, from re-evaluating a seeded sample of grid points and every
reported witness or violation with ``ref``.  Documented errors count as
correct only where the reference predicts them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import ref

TOL = 1e-12
SAMPLED_POINTS = 40


class Raised(NamedTuple):
    error: str
    message: str


def run_cli(argv: list[str]):
    import opdep.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = opdep.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _guard(fn: Callable[[], object]) -> Callable[[], object]:
    def call():
        try:
            return fn()
        except Exception as exc:  # the checker decides whether it was predicted
            return Raised(type(exc).__name__, str(exc))

    return call


def _cli_op(argv: list[str]) -> Callable[[], object]:
    return lambda: run_cli(argv)


def build_ops(manifest: dict, fixtures, workdir: Path) -> list[Callable[[], object]]:
    from opdep import discrete, estimator, piecewise

    models, series, pairs = fixtures
    ops = []
    for op in manifest["ops"]:
        kind = op["kind"]
        if kind == "estimate":
            call = _cli_op(["estimate", str(workdir / op["csv"]), "-d", str(op["d"]), "--step", str(op["step"]),
                            "--format", "json"])
        elif kind in ("model_opd", "model_patterns"):
            call = _cli_op(["model", kind[6:], str(workdir / manifest["files"][op["model"]]), "--format", "json"])
        elif kind == "mc":
            model, n, seed = models[op["model"]], op["n"], op["seed"]
            call = _guard(lambda m=model, n=n, s=seed: piecewise.mc_probability(m, piecewise.PatternCoincidence(), n, s))
        elif kind == "concordance":
            call = _cli_op(["concordance", str(workdir / op["first"]), str(workdir / op["second"]),
                            "--grid", str(op["grid"]), "--format", "json"])
        elif kind == "theorem":
            first, second = pairs[op["pair"]]
            call = _guard(lambda a=first, b=second, v=op["variant"]: discrete.check_theorem_conditions(a, b, v))
        elif kind == "verify":
            call = _cli_op(["verify", op["scenario"], "--format", "json"])
        elif kind == "empirical":
            call = _guard(lambda p=series[op["series"]], d=op["d"], s=op["step"]: estimator.empirical_opd(p, d, s))
        elif kind == "pw_cdf":
            fn_name = "cdf" if op["lower"] else "survival"
            call = _guard(lambda m=models[op["model"]], pt=tuple(op["point"]), f=fn_name: getattr(piecewise, f)(m, pt))
        elif kind == "cli_cdf":
            call = _cli_op(["model", "cdf", str(workdir / op["file"]), "--point=" + ",".join(map(repr, op["point"])),
                            "--format", "json"])
        elif kind == "exact_opd":
            call = _guard(lambda m=models[op["model"]]: piecewise.exact_opd(m))
        elif kind == "disc_cdf":
            fn_name = "cdf" if op["lower"] else "survival"
            call = _guard(lambda law=models[op["law"]], pt=tuple(op["point"]), f=fn_name: getattr(discrete, f)(law, pt))
        elif kind == "disc_cond":
            call = _guard(lambda law=models[op["law"]], s=tuple(op["subset"]), g=tuple(op["given"]):
                          discrete.conditional(law, s, g))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        ops.append(call)
    return ops


# -- checks ----------------------------------------------------------------------------


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and not isinstance(a, bool) and abs(a - b) <= TOL


def _json_payload(output, code: int = 0):
    """The JSON stdout of a CLI output with the expected exit code, else None."""
    if not (isinstance(output, tuple) and len(output) == 3 and output[0] == code):
        return None
    try:
        return json.loads(output[1])
    except json.JSONDecodeError:
        return None


def _expected_error(kind: str, expect: dict):
    """(exit code, library error) a reference predicts, or None when it predicts a value."""
    if expect.get("ambiguous"):
        return 2, "AmbiguousBlockOrder"
    if expect.get("degenerate") and kind not in ("model_patterns", "mc"):
        return 3, "DegenerateDistribution"
    if expect.get("empty"):
        return 2, "EmptyInput"
    if expect.get("zero_mass"):
        return 2, "ZeroMassCondition"
    return None


def _cli_error_ok(output, predicted) -> bool:
    return isinstance(output, tuple) and output[0] == predicted[0] and output[2].startswith("error:")


def check_estimate_payload(payload, expect) -> str | None:
    if not isinstance(payload, dict):
        return "no estimate"
    for key in ("window_count", "skipped_windows"):
        if payload.get(key) != expect[key]:
            return f"{key} {payload.get(key)} != {expect[key]}"
    for key in ("value", "coincidence", "cross_term"):
        if not _close(payload.get(key), expect[key]):
            return f"{key} {payload.get(key)!r} != {expect[key]!r}"
    return None


def _check_terms(payload, expect) -> str | None:
    for key in ("value", "coincidence"):
        if not _close(payload.get(key), expect[key]):
            return f"{key} {payload.get(key)!r} != {expect[key]!r}"
    return None


def _check_pattern_tables(payload, expect, order: int) -> str | None:
    keys = [ref.pattern_key(p) for p in ref.all_patterns(order)]
    for axis, law in (("x", expect["px"]), ("y", expect["py"])):
        table = payload.get(axis)
        if not isinstance(table, dict) or list(table) != keys:
            return f"{axis} table keys differ"
        if abs(math.fsum(table.values()) - 1.0) > TOL:
            return f"{axis} table sums to {math.fsum(table.values())!r}"
        for key, got, want in zip(keys, table.values(), law):
            if not _close(got, want):
                return f"{axis} {key}: {got!r} != {want!r}"
    return None


def check_cli(op: dict, output, context: "CheckContext") -> str | None:
    kind, expect = op["kind"], op.get("expect", {})
    predicted = _expected_error(kind, expect)
    if predicted is not None:
        return None if _cli_error_ok(output, predicted) else f"expected exit {predicted[0]} ({predicted[1]}), got {output[:2]!r}"
    if kind == "concordance":
        return context.check_concordance(op, output)
    payload = _json_payload(output)
    if payload is None:
        return f"exit/parse failure: {output!r}"[:300]
    if kind == "estimate":
        return check_estimate_payload(payload, expect)
    if kind == "model_opd":
        return _check_terms(payload, expect)
    if kind == "model_patterns":
        return _check_pattern_tables(payload, expect, _order_of(len(expect["px"])))
    if kind == "verify":
        checks = payload.get("checks") or []
        ok = payload.get("pass") is True and checks and all(c.get("pass") is True for c in checks)
        return None if ok else f"verify {op['scenario']} did not PASS"
    if kind == "cli_cdf":
        ok = _close(payload.get("cdf"), expect["cdf"]) and _close(payload.get("survival"), expect["survival"])
        return None if ok else f"cdf/survival {payload} != {expect}"
    return f"unknown CLI op {kind}"


def _order_of(size: int) -> int:
    return next(d for d in range(2, 9) if math.factorial(d) == size)


def check_library(op: dict, output, context: "CheckContext") -> str | None:
    kind, expect = op["kind"], op.get("expect", {})
    predicted = _expected_error(kind, expect) if isinstance(expect, dict) else None
    if predicted is not None:
        ok = isinstance(output, Raised) and output.error == predicted[1]
        return None if ok else f"expected {predicted[1]}, got {output!r}"[:300]
    if isinstance(output, Raised):
        return f"unexpected {output.error}: {output.message}"[:300]
    if kind == "mc":
        if not (0.0 <= output.estimate <= 1.0):
            return f"estimate {output.estimate} outside [0, 1]"
        gap = abs(output.estimate - expect["coincidence"])
        return None if gap <= 4.0 * output.std_error + TOL else f"mc {output} vs exact {expect['coincidence']}"
    if kind == "theorem":
        return context.check_theorem(op, output)
    if kind == "empirical":
        return check_estimate_payload(output.to_dict(), expect)
    if kind == "pw_cdf":
        want = expect["cdf" if op["lower"] else "survival"]
        return None if _close(output, want) else f"{output!r} != {want!r}"
    if kind == "exact_opd":
        return None if _close(output, expect["value"]) else f"{output!r} != {expect['value']!r}"
    if kind == "disc_cdf":
        return None if _close(output, expect) else f"{output!r} != {expect!r}"
    if kind == "disc_cond":
        points = [list(p) for p, _ in output.atoms]
        probs = [p for _, p in output.atoms]
        if points != expect["points"]:
            return "conditional support differs"
        return None if all(_close(a, b) for a, b in zip(probs, expect["probs"])) else "conditional probabilities differ"
    return f"unknown library op {kind}"


CLI_KINDS = {"estimate", "model_opd", "model_patterns", "concordance", "verify", "cli_cdf"}


def check(op: dict, output, context: "CheckContext") -> str | None:
    """None if the output is correct, else a one-line reason."""
    try:
        if op["kind"] in CLI_KINDS:
            return check_cli(op, output, context)
        return check_library(op, output, context)
    except Exception as exc:  # a malformed output must fail the op, not the run
        return f"check raised {type(exc).__name__}: {exc}"[:300]


# -- orthant re-evaluation ------------------------------------------------------------------


def read_piecewise(path: Path) -> dict:
    """A model file as plain data with real numbers, read without the program."""
    data = json.loads(path.read_text(encoding="utf-8"))
    cells = [{"value": float(c["value"]),
              "blocks": [dict(b, lo=float(b["lo"]), hi=float(b["hi"])) for b in c["blocks"]]} for c in data["cells"]]
    return {"order": data["order"], "cells": cells}


def default_grid(models: list[dict], points: int, padding: float = 0.5) -> list[list[float]]:
    """Evenly spaced points per coordinate over the models' padded bounding box."""
    d = models[0]["order"]
    lo = [math.inf] * (2 * d)
    hi = [-math.inf] * (2 * d)
    for model in models:
        for cell in model["cells"]:
            for b in cell["blocks"]:
                for p in b["positions"]:
                    c = (0 if b["axis"] == "x" else d) + p - 1
                    lo[c], hi[c] = min(lo[c], b["lo"]), max(hi[c], b["hi"])
    return [[a - padding + (b - a + 2 * padding) * i / (points - 1) for i in range(points)] for a, b in zip(lo, hi)]


def _law_arrays(law) -> tuple[np.ndarray, np.ndarray]:
    return np.array([p for p, _ in law.atoms], dtype=float), np.array([q for _, q in law.atoms])


class CheckContext:
    """What the concordance and condition checks need beyond one op's output."""

    def __init__(self, manifest: dict, fixtures, workdir: Path, golden: dict | None):
        self.fixtures = fixtures
        self.workdir = workdir
        self.golden = golden
        self.recorded: dict | None = None
        self.rng = random.Random(manifest["seed"])

    # concordance ---------------------------------------------------------------

    def check_concordance(self, op: dict, output) -> str | None:
        if not isinstance(output, tuple) or output[0] not in (0, 1):
            return f"concordance failed: {output!r}"[:300]
        report = json.loads(output[1])
        dominated = report["cdf_dominated"] and report["survival_dominated"]
        if (output[0] == 0) != dominated:
            return "exit code disagrees with the report"
        if op["predict_dominated"] and (not dominated or report["witness_points"]):
            return "pair ordered by construction reported as not dominated"
        if report["cdf_dominated"] != (report["max_cdf_violation"] <= TOL) or \
                report["survival_dominated"] != (report["max_survival_violation"] <= TOL):
            return "domination flags disagree with the violation maxima"
        models = [read_piecewise(self.workdir / op[k]) for k in ("first", "second")]

        def violation(points) -> tuple[np.ndarray, np.ndarray]:
            pts = np.asarray(points, dtype=float)
            lower = ref.piecewise_orthant(models[0], pts, True) - ref.piecewise_orthant(models[1], pts, True)
            upper = ref.piecewise_orthant(models[0], pts, False) - ref.piecewise_orthant(models[1], pts, False)
            return lower, upper

        witnesses = report["witness_points"]
        if len(witnesses) > 20 or (not dominated and not witnesses):
            return f"{len(witnesses)} witnesses for a report with dominated={dominated}"
        if witnesses:
            lower, upper = violation(witnesses)
            worst = np.maximum(lower, upper)
            if not (worst > TOL).all() or (np.diff(worst) > TOL).any():
                return "a witness does not violate, or witnesses are not worst-first"
            if abs(worst[0] - max(report["max_cdf_violation"], report["max_survival_violation"])) > TOL:
                return "first witness is not the largest violation"
        grid = default_grid(models, op["grid"])
        sample = [[self.rng.choice(axis) for axis in grid] for _ in range(SAMPLED_POINTS)]
        lower, upper = violation(sample)
        if lower.max() > report["max_cdf_violation"] + TOL or upper.max() > report["max_survival_violation"] + TOL:
            return "a sampled grid point violates more than the reported maximum"
        return self._golden("concordance", op["first"], {
            "cdf_dominated": report["cdf_dominated"], "survival_dominated": report["survival_dominated"],
            "max_cdf_violation": report["max_cdf_violation"], "max_survival_violation": report["max_survival_violation"],
            "witnesses": len(witnesses)})

    # condition families ------------------------------------------------------------------

    def check_theorem(self, op: dict, report) -> str | None:
        first, second = self.fixtures.pairs[op["pair"]]
        d = first.order
        laws = {"first": _law_arrays(first), "second": _law_arrays(second)}
        if report.holds != (not report.violations):
            return "holds disagrees with the violation list"
        if op["predict_holds"] and not report.holds:
            return "a law compared with itself reported a violation"
        shared = tuple(i for i in range(1, d + 1)
                       if _same_law(ref.discrete_marginal(*laws["first"], d, (i,)), ref.discrete_marginal(*laws["second"], d, (i,))))
        if tuple(report.shared_positions) != shared:
            return f"shared positions {report.shared_positions} != {shared}"
        family = _Families(d, laws, shared, op["variant"])
        for v in report.violations:
            lhs, rhs = family.sides(v.subset, v.outer, v.conditioning_point, v.side, v.evaluation_point)
            if lhs is None or not (_close(v.lhs, lhs) and _close(v.rhs, rhs) and lhs > rhs + TOL):
                return f"violation {v} does not re-evaluate"
        for s in report.skipped:
            inner = laws["second" if s.outer == "first" else "first"]
            if ref.discrete_conditional(*inner, d, s.subset, s.conditioning_point) is not None:
                return f"skip {s} has mass in the other law"
        found = {(v.subset, v.side, v.outer, v.conditioning_point, v.evaluation_point) for v in report.violations}
        for key in family.sample(self.rng, SAMPLED_POINTS):
            lhs, rhs = family.sides(*key)
            if lhs is not None and lhs > rhs + TOL and (key[0], key[3], key[1], key[2], key[4]) not in found:
                return f"sampled violation {key} missing from the report"
        first_violation = report.violations[0].to_dict() if report.violations else None
        return self._golden("theorem", f"{op['pair']}{op['variant']}", {
            "holds": report.holds, "violations": len(report.violations), "skipped": len(report.skipped),
            "shared_positions": list(report.shared_positions), "first_violation": first_violation})

    # golden outputs ----------------------------------------------------------------------

    def _golden(self, kind: str, label: str, digest: dict) -> str | None:
        if self.recorded is not None:
            self.recorded[f"{kind}:{label}"] = digest
        if self.golden is None:
            return None
        want = self.golden.get(f"{kind}:{label}")
        if want is None:
            return f"no golden output for {kind}:{label}"
        return None if _same_digest(digest, want) else f"{kind}:{label} differs from the golden output"


def _same_law(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(abs(a[k] - b[k]) <= TOL for k in a)


def _same_digest(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and set(got) == set(want) and all(_same_digest(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, (list, tuple)) and len(got) == len(want) and all(map(_same_digest, got, want))
    if isinstance(want, float):
        return isinstance(got, (int, float)) and abs(got - want) <= TOL
    return got == want


class _Families:
    """The inequality families of one variant, evaluated with ``ref``."""

    def __init__(self, d: int, laws: dict, shared: tuple[int, ...], variant: str):
        self.d, self.laws, self.shared, self.variant = d, laws, set(shared), variant
        points = np.vstack([laws["first"][0], laws["second"][0]])
        self.values = [[points[:, c].min() - 1.0] + sorted(set(points[:, c].tolist())) + [points[:, c].max() + 1.0]
                       for c in range(2 * d)]

    def sides(self, subset, outer, given, side, point):
        """(lhs, rhs) of one inequality; lhs belongs to the first law.  None if not evaluable."""
        subset = tuple(subset)
        complement = [i for i in range(1, self.d + 1) if i not in subset]
        cols = ref.subset_columns(self.d, complement)
        lower = side == "cdf"
        if outer == "none":
            return tuple(ref.discrete_orthant(pts[:, cols], probs, point, lower)
                         for pts, probs in (self.laws["first"], self.laws["second"]))
        inner = "second" if outer == "first" else "first"
        own = ref.discrete_conditional(*self.laws[outer], self.d, subset, given)
        mixed = ref.discrete_conditional(*self.laws[inner], self.d, subset, given)
        if own is None or mixed is None:
            return None, None
        values = [ref.discrete_orthant(pts, probs, point, lower) for pts, probs in (own, mixed)]
        return tuple(values) if outer == "first" else tuple(reversed(values))

    def sample(self, rng: random.Random, count: int) -> list[tuple]:
        """Seeded (subset, outer, given, side, point) keys from the swept families."""
        keys = []
        positions = range(1, self.d + 1)
        subsets = [s for size in range(0, self.d) for s in itertools.combinations(positions, size)
                   if (self.variant == "B" or s) and not (self.variant == "A" and set(positions) - set(s) <= self.shared)]
        for _ in range(count if subsets else 0):
            subset = rng.choice(subsets)
            complement = [i for i in positions if i not in subset]
            point = tuple(rng.choice(self.values[c]) for c in ref.subset_columns(self.d, complement))
            side = rng.choice(("cdf", "survival"))
            if self.variant == "B":
                keys.append((subset, "none", None, side, point))
                continue
            outer = rng.choice(("first", "second"))
            pts, _ = self.laws[outer]
            given = tuple(pts[rng.randrange(len(pts)), ref.subset_columns(self.d, subset)].tolist())
            keys.append((subset, outer, given, side, point))
        return keys
