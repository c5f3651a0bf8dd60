"""Program-side preparation of a workload, and a probe that times it.

``prepare`` is the work the program does before a workload's first op:
load every model file with ``modelio.load_model``, build the in-memory
series with ``TimeSeriesPair``, and assemble the discrete pairs with
``product_extend`` and ``mixture_from_conditionals``.

Run as a script it times ``import opdep`` plus ``prepare`` in a fresh
interpreter and prints the seconds and the host's speed factor measured
just before and after (see ``calibrate``); ``run.py`` runs it several times and reports the
median in reference seconds as ``setup_s``.  Only the standard library is imported
before the clock starts, so numpy's import is part of the figure::

    python3 perfbench/setup_probe.py WORKDIR
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calibrate

ROOT = Path(__file__).resolve().parent.parent


class Fixtures(NamedTuple):
    models: dict
    series: dict
    pairs: dict


def import_program():
    """Import ``opdep`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "opdep" / "__init__.py").is_file():
        raise SystemExit(f"error: no opdep package under {src}")
    sys.path.insert(0, str(src))
    import opdep

    if Path(opdep.__file__).resolve().parent != (src / "opdep").resolve():
        raise SystemExit(f"error: imported opdep from {opdep.__file__}, not from {src}")
    return opdep


def prepare(manifest: dict, workdir: Path) -> Fixtures:
    from opdep import discrete, estimator, modelio

    models = {name: modelio.load_model(workdir / rel) for name, rel in manifest["files"].items()}
    series = {name: estimator.TimeSeriesPair(s["x"], s["y"]) for name, s in manifest.get("series", {}).items()}
    pairs = {}
    for name, spec in manifest.get("pairs", {}).items():
        if spec["kind"] == "laws":
            pairs[name] = (models[spec["first"]], models[spec["second"]])
        elif spec["kind"] == "product":
            tail = models[spec["tail"]]
            pairs[name] = tuple(discrete.product_extend(models[spec[head]], tail) for head in ("head", "head_star"))
        else:
            tail = models[spec["tail"]]
            pairs[name] = tuple(
                discrete.mixture_from_conditionals(tail, {tuple(point): models[law] for point, law in spec[heads]})
                for heads in ("heads", "heads_star")
            )
    return Fixtures(models, series, pairs)


def main() -> int:
    workdir = Path(sys.argv[1])
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    before = calibrate.speed_factor()
    start = time.perf_counter()
    import_program()
    prepare(manifest, workdir)
    elapsed = time.perf_counter() - start
    print(repr(elapsed), repr((before + calibrate.speed_factor()) / 2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
