"""Self-test of the benchmark at smoke size, and recording of its golden outputs.

    python3 perfbench/selftest.py                  # about a minute
    python3 perfbench/selftest.py --record-golden  # rewrite golden/orthant-seed1.json

The self-test checks, for every workload, that

* every op of a smoke-size op list passes its check on the program as it is;
* each checker rejects deliberately perturbed outputs (a window count off
  by one, a coincidence off by 1e-9, a flipped ``holds``, ...);
* two traced smoke runs of the same seed report identical counts.

It exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import gen
import ops
import run
import setup_probe


def _prepared(workload: str, seed: int, smoke: bool, workdir: Path):
    manifest = gen.build(workload, seed, workdir, smoke)
    setup_probe.import_program()
    fixtures = setup_probe.prepare(manifest, workdir)
    outputs = [call() for call in ops.build_ops(manifest, fixtures, workdir)]
    return manifest, fixtures, outputs


def _json_edit(output, edit):
    code, out, err = output
    payload = json.loads(out)
    edit(payload)
    return code, json.dumps(payload), err


def _bump(key: str, delta):
    def edit(payload):
        payload[key] += delta

    return edit


def _first_table_entry(payload):
    first = next(iter(payload["x"]))
    payload["x"][first] += 1e-9


def perturbations(op: dict, output) -> list[tuple[str, object]]:
    """Wrong variants of one correct output, each of which the checker must reject."""
    kind = op["kind"]
    predicted_error = kind in ops.CLI_KINDS and kind != "concordance" and output[0] != 0
    if isinstance(output, ops.Raised) or predicted_error:
        return []
    if kind == "estimate":
        return [("window_count + 1", _json_edit(output, _bump("window_count", 1))),
                ("value + 1e-9", _json_edit(output, _bump("value", 1e-9)))]
    if kind == "model_opd":
        return [("coincidence + 1e-9", _json_edit(output, _bump("coincidence", 1e-9)))]
    if kind == "model_patterns":
        return [("pattern probability + 1e-9", _json_edit(output, _first_table_entry))]
    if kind == "mc":
        return [("estimate off by 5 standard errors + 1e-9",
                 output._replace(estimate=output.estimate + 5 * output.std_error + 1e-9))]
    if kind == "theorem":
        return [("holds flipped", dataclasses.replace(output, holds=not output.holds))]
    if kind == "concordance":
        def flip(payload):
            payload["cdf_dominated"] = not payload["cdf_dominated"]

        return [("cdf_dominated flipped", _json_edit(output, flip))]
    if kind == "verify":
        def fail(payload):
            payload["pass"] = False

        return [("verify FAIL", _json_edit(output, fail))]
    if kind == "empirical":
        return [("window_count + 1", dataclasses.replace(output, window_count=output.window_count + 1))]
    if kind in ("pw_cdf", "exact_opd", "disc_cdf"):
        return [("value + 1e-9", output + 1e-9)]
    if kind == "cli_cdf":
        return [("survival + 1e-9", _json_edit(output, _bump("survival", 1e-9)))]
    if kind == "disc_cond":
        (point, prob), *rest = output.atoms
        wrong = copy.copy(output)  # DiscreteJoint validates its mass, so bypass its constructor
        object.__setattr__(wrong, "atoms", ((point, prob + 1e-9), *rest))
        return [("probability + 1e-9", wrong)]
    return []


def check_workload(workload: str, workdir: Path) -> None:
    manifest, fixtures, outputs = _prepared(workload, run.DEFAULT_SEED, True, workdir)
    context = ops.CheckContext(manifest, fixtures, workdir, None)
    rejected: set[str] = set()
    for op, output in zip(manifest["ops"], outputs):
        reason = ops.check(op, output, context)
        if reason is not None:
            raise AssertionError(f"{workload}: correct {op['kind']} output rejected: {reason}")
        for label, wrong in perturbations(op, output):
            if ops.check(op, wrong, context) is None:
                raise AssertionError(f"{workload}: {op['kind']} checker accepted {label}")
            rejected.add(op["kind"])
    kinds = {op["kind"] for op in manifest["ops"]}
    missing = kinds - rejected
    if missing:
        raise AssertionError(f"{workload}: no perturbation was tried for {sorted(missing)}")
    print(f"ok   {workload}: {len(outputs)} smoke ops correct; perturbed outputs rejected for {sorted(rejected)}")


def check_traced_counts(workload: str) -> None:
    runs = [run.measure(workload, run.DEFAULT_SEED, 0.0, trace=True, smoke=True) for _ in range(2)]
    counts = [{name: value for name, (value, unit, _) in r["metrics"].items() if unit in ("count", "B")} for r in runs]
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        raise AssertionError(f"{workload}: traced counts differ between runs: {differ}")
    if not all(r["correct"] for r in runs):
        raise AssertionError(f"{workload}: traced smoke run failed checks: {runs[0]['reasons'][:3]}")
    print(f"ok   {workload}: two traced smoke runs give identical counts ({len(counts[0])} counts)")


def record_golden(workdir: Path) -> None:
    manifest, fixtures, outputs = _prepared("orthant", run.DEFAULT_SEED, False, workdir)
    context = ops.CheckContext(manifest, fixtures, workdir, None)
    context.recorded = {}
    for op, output in zip(manifest["ops"], outputs):
        reason = ops.check(op, output, context)
        if reason is not None:
            raise AssertionError(f"cannot record golden outputs: {op['kind']} failed: {reason}")
    run.GOLDEN.parent.mkdir(exist_ok=True)
    run.GOLDEN.write_text(json.dumps(context.recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(context.recorded)} golden reports to {run.GOLDEN}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    workdir = run.ROOT / ".perfbench" / "selftest"
    try:
        if args.record_golden:
            record_golden(workdir)
            return 0
        for workload in ("series", "exact", "orthant", "small_calls"):
            shutil.rmtree(workdir, ignore_errors=True)
            check_workload(workload, workdir)
            check_traced_counts(workload)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
