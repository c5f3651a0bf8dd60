"""opdep benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload series --seed 1 --seconds 10 --trace 0

Run from any directory; the program is imported from ``src/`` of the
checkout that holds this file, and nothing is read or written outside
that checkout.  Inputs are generated from the seed in a child process
under ``.perfbench/``, which is removed at the end.

Each workload is a closed loop with one client in this one process:
whole passes over the workload's fixed op list, at least two, until
``--seconds`` have elapsed.  Every op's output is checked after the
loop.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` the loop runs untraced for half the time and then traced
for the same number of passes, and the per-layer metrics come from the
traced passes only (spans are written to ``.perfbench/trace-*.json``).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for what each
metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import calibrate
import ops
import setup_probe
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
MIN_PASSES = 2
SETUP_PROBES = 5
CALIBRATION_EVERY_S = 0.1  # see calibrate.py
CHILD_TIMEOUT_S = 150
GOLDEN = HERE / "golden" / f"orthant-seed{DEFAULT_SEED}.json"


class Loop(NamedTuple):
    passes: int
    latencies: list  # wall seconds per op
    scaled: list  # reference seconds per op
    outputs: list

    @property
    def scaled_s(self) -> float:
        return math.fsum(self.scaled)


def to_reference(spans: list[tuple[float, float]], marks: list[tuple[float, float]]) -> list[float]:
    """Each op's wall time in reference seconds, using the six kernel runs nearest to it."""
    times = np.array([t for t, _ in marks])
    kernel = np.array([k for _, k in marks])
    scaled = []
    for began, ended in spans:
        i = int(np.searchsorted(times, (began + ended) / 2))
        near = kernel[max(0, i - 3): i + 3]
        scaled.append((ended - began) * calibrate.REFERENCE_S / float(np.median(near)))
    return scaled


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile that leaves at least ten of the guaranteed samples beyond it."""
    samples = MIN_PASSES * ops_per_pass
    return max(0, math.floor(100 * (1 - 10 / samples)))


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def generate(workload: str, seed: int, workdir: Path, smoke: bool) -> dict:
    command = [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(workdir)]
    done = subprocess.run(command + (["--smoke"] if smoke else []), timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"input generation failed with exit code {done.returncode}")
    return json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))


def setup_seconds(workdir: Path, probes: int) -> float:
    """Median over fresh interpreters of ``import opdep`` plus the preparation, in reference seconds."""
    samples = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(workdir)], capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        elapsed, factor = map(float, done.stdout.split())
        samples.append(elapsed / factor)
    return statistics.median(samples)


def run_loop(calls: list, seconds: float, min_passes: int, passes: int | None = None, tracer=None) -> Loop:
    """Whole passes over ``calls``: exactly ``passes`` if given, else until ``min_passes``
    are done and the ops have been busy for ``seconds``.  The calibration kernel runs
    between ops at most every CALIBRATION_EVERY_S; its time is not part of any op."""
    clock = time.perf_counter
    marks = [(clock(), calibrate.kernel())]
    spans: list[tuple[float, float]] = []
    outputs: list = []
    busy = 0.0
    done = 0
    while True:
        for i, call in enumerate(calls):
            if clock() - marks[-1][0] >= CALIBRATION_EVERY_S:
                marks.append((clock(), calibrate.kernel()))
            if tracer is not None:
                tracer.op = done * len(calls) + i
            began = clock()
            output = call()
            ended = clock()
            spans.append((began, ended))
            outputs.append(output)
            busy += ended - began
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif done >= min_passes and busy >= seconds:
            break
    marks.append((clock(), calibrate.kernel()))
    return Loop(done, [e - b for b, e in spans], to_reference(spans, marks), outputs)


def check_outputs(specs: list[dict], outputs: list, context) -> list[str]:
    """One reason per failed op; later passes must repeat the checked first pass exactly."""
    n = len(specs)
    verdicts = [ops.check(spec, output, context) for spec, output in zip(specs, outputs[:n])]
    reasons = []
    for k, output in enumerate(outputs):
        i = k % n
        reason = verdicts[i] if k < n else verdicts[i] or (None if output == outputs[i] else "differs from pass 1")
        if reason is not None:
            reasons.append(f"op {i} ({specs[i]['kind']}): {reason}")
    return reasons


class Measured(NamedTuple):
    metrics: dict  # name -> (value, unit, note)
    outputs: list
    passes: int


def untraced(calls: list, seconds: float, setup: float) -> Measured:
    loop = run_loop(calls, seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(loop.scaled)
    percentile = tail_percentile(len(calls))
    wall = math.fsum(loop.latencies)
    metrics = {
        "setup_s": (setup, "s", "median of fresh-interpreter probes of import opdep + preparation, reference s"),
        "ops_per_s": (n / loop.scaled_s, "1/s", f"ops / loop time; loop {loop.scaled_s:.3f} reference s, {wall:.3f} wall s"),
        "op_p50_s": (statistics.median(loop.scaled), "s", f"median over {n} ops, reference s"),
        "op_tail_s": (nearest_rank(loop.scaled, percentile), "s", f"p{percentile} (nearest rank) over {n} ops, reference s"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process at the end of the loop"),
    }
    return Measured(metrics, loop.outputs, loop.passes)


def traced(calls: list, seconds: float, trace_file: Path) -> Measured:
    base = run_loop(calls, seconds / 2, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = run_loop(calls, 0.0, 1, passes=base.passes, tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics(loop.passes)
    values["trace_overhead"] = loop.scaled_s / base.scaled_s
    tracer.write(trace_file, {"passes": loop.passes, "ops_per_pass": len(calls)})
    metrics = {name: (values.get(name), unit, note) for name, unit, _, note in tracing.per_layer_metrics()}
    return Measured(metrics, base.outputs + loop.outputs, loop.passes)


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Generate, prepare, loop and check one workload."""
    workdir = ROOT / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        manifest = generate(workload, seed, workdir, smoke)
        setup = None if trace else setup_seconds(workdir, 2 if smoke else SETUP_PROBES)
        setup_probe.import_program()
        fixtures = setup_probe.prepare(manifest, workdir)
        calls = ops.build_ops(manifest, fixtures, workdir)
        if trace:
            measured = traced(calls, seconds, ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json")
        else:
            measured = untraced(calls, seconds, setup)
        golden = None
        if workload == "orthant" and seed == DEFAULT_SEED and not smoke and GOLDEN.is_file():
            golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        reasons = check_outputs(manifest["ops"], measured.outputs, ops.CheckContext(manifest, fixtures, workdir, golden))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(measured.outputs)
    metrics = dict(measured.metrics)
    error_note = f"{len(reasons)} failed / {attempted} attempted"
    if trace:
        metrics["error_rate"] = (len(reasons) / attempted, "ratio", error_note)
    return {
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": metrics,
        "header": f"workload {workload}  seed {seed}  passes {measured.passes}  ops/pass {len(calls)}",
        "error_line": None if trace else ("error_rate", (len(reasons) / attempted, "ratio", error_note)),
        "reasons": reasons,
    }


def report(result: dict) -> None:
    """Human-readable lines: every metric by name with its unit and what it means."""
    print(f"{result['header']}  attempted {result['attempted']}  failed {result['failed']}")
    rows = list(result["metrics"].items()) + ([result["error_line"]] if result["error_line"] else [])
    for name, (value, unit, note) in rows:
        print(f"  {name:<48} {value!r:>24} {unit:<6} {note}")
    for reason in result["reasons"][:20]:
        print(f"FAILED {reason}", file=sys.stderr)


def result_line(result: dict) -> str:
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
                       "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one opdep benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("series", "exact", "orthant", "small_calls"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opdep" / "__init__.py").is_file():
        print(f"error: no opdep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError, SystemExit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
