"""Seeded input generators for the four benchmark workloads.

``build(workload, seed, outdir)`` writes the workload's CSV and model files
into ``outdir`` and returns a manifest: the op list, the files and
fixtures the program loads before its first op, and the reference output
of every op whose answer follows from the inputs alone (see ``ref``).
All randomness comes from ``opdep.randomness.make_rng`` (Philox), so one
seed gives the same inputs on every machine.  The op lists have a fixed
shape per workload (sizes, orders, block shapes, op kinds); the seed
draws the data, the interval layouts and the op order.

Run as a script it writes ``manifest.json`` next to the inputs::

    python3 perfbench/gen.py --workload series --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import ref

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("series", "exact", "orthant", "small_calls")

# series: (rows, order, step, copies); most ops are 2*10^5 rows or fewer.
# Ops of one size class are grouped so that the median and the tail rank
# (the sixth-slowest op of a pass) each fall inside a group, not between two.
SERIES_OPS = [
    (1_000_000, 2, 2, 1),
    (200_000, 3, 2, 1),
    (100_000, 5, 2, 1),
    (50_000, 6, 1, 1),
    (50_000, 2, 1, 3),
    (20_000, 3, 1, 10),
    (20_000, 5, 2, 2),
    (20_000, 6, 2, 2),
    (20_000, 2, 2, 3),
]
SERIES_SMOKE = [(3_000, 2, 1, 1), (2_000, 4, 2, 1), (1_000, 3, 1, 1)]

# exact: piecewise models as per-cell (x blocks, y blocks); "fK" is a free
# block of K positions, "c2" a size-2 chain.  Each entry: (name, order, cells).
# The ten slowest ops of a pass (eight "model opd" on models with a d=6
# free x free cell, "model opd" and "model patterns" on the 2*10^4-atom law
# d6) give twenty samples, so the tail rank falls in the middle of them.
F6 = (["f6"], ["f6"])
PIECEWISE_MODELS = [
    ("wide6a", 6, [F6, (["c2", "c2", "f2"], ["f3", "f1", "f1", "f1"])]),
    ("wide6b", 6, [F6, (["f2", "f2", "f2"], ["c2", "f4"]), (["f1"] * 6, ["f1"] * 6), (["f3", "f3"], ["c2", "c2", "c2"])]),
    ("wide6c", 6, [F6, (["f1"] * 6, ["c2", "f2", "c2"]), (["f4", "c2"], ["f1"] * 6)]),
    ("wide6d", 6, [F6, (["c2", "f3", "f1"], ["f6"])]),
    ("wide6e", 6, [F6, (["f2", "c2", "f2"], ["f1"] * 6)]),
    ("wide6f", 6, [F6, (["f1"] * 6, ["f3", "c2", "f1"]), (["c2", "c2", "c2"], ["f2", "f4"])]),
    ("wide6g", 6, [F6, (["f5", "f1"], ["c2", "f1", "f3"])]),
    ("wide6h", 6, [F6, (["c2", "f4"], ["f2", "f2", "f2"]), (["f3", "f3"], ["f1"] * 6)]),
    ("mid5", 5, [(["f5"], ["f5"]), (["c2", "f3"], ["f2", "f2", "f1"]), (["f1"] * 5, ["f4", "f1"]), (["f3", "c2"], ["c2", "c2", "f1"]),
                 (["f2", "f3"], ["f5"]), (["f1"] * 5, ["f1"] * 5), (["c2", "f1", "c2"], ["f3", "f2"]), (["f4", "f1"], ["f2", "c2", "f1"])]),
    ("mid4", 4, [(["f4"], ["f4"]), (["c2", "c2"], ["f2", "f2"]), (["f1"] * 4, ["f3", "f1"]), (["f2", "c2"], ["c2", "f1", "f1"]),
                 (["f3", "f1"], ["f4"]), (["f1"] * 4, ["f1"] * 4)]),
    ("narrow3", 3, [(["f3"], ["c2", "f1"]), (["f1"] * 3, ["f3"]), (["c2", "f1"], ["f1"] * 3)]),
    ("single3", 3, [(["f1"] * 3, ["f1"] * 3)]),
]
# ops on the models above: (kind, model) with kind "opd" or "patterns"
PIECEWISE_OPS = [
    ("opd", "wide6a"), ("opd", "wide6b"), ("opd", "wide6c"), ("opd", "wide6d"), ("opd", "wide6e"),
    ("opd", "wide6f"), ("opd", "wide6g"), ("opd", "wide6h"), ("patterns", "wide6a"), ("patterns", "wide6b"),
    ("opd", "mid5"), ("patterns", "mid5"), ("opd", "mid4"), ("patterns", "mid4"),
    ("opd", "narrow3"), ("opd", "single3"), ("opd", "ambiguous4"), ("patterns", "ambiguous4"), ("opd", "degenerate3"),
]
# discrete laws: (name, order, atoms, lattice size)
DISCRETE_LAWS = [("d3", 3, 1_000, 5), ("d4", 4, 5_000, 5), ("d4b", 4, 5_000, 5), ("d5", 5, 2_000, 4),
                 ("d6", 6, 20_000, 4)]
DISCRETE_OPS = [("opd", "d3"), ("patterns", "d3"), ("opd", "d4"), ("patterns", "d4"), ("opd", "d4b"),
                ("opd", "d5"), ("patterns", "d5"), ("opd", "d6"), ("patterns", "d6")]
# A pass has 14 ops well under 0.1 s, seven between about 0.08 and 0.25 s
# (the mc ops, d4, d4b and d5 opd) and the ten heavy ones, so the median op
# (the 16th) is one of the seven.
MC_OPS = [("mid4", 200_000), ("narrow3", 200_000), ("wide6a", 200_000)]

# orthant: concordance (order, grid, pair kind), theorem pairs, scenarios.
# The five d=3 grid-5 ops and the d=2 grid-11 op cost about the same and
# are the slowest after the grid-13 op, so the tail rank (the sixth-slowest
# op of a pass) falls among them.
CONCORDANCE_OPS = [
    (2, 9, "ordered"), (2, 9, "self"), (2, 11, "reversed"), (2, 13, "unrelated"),
    (3, 5, "ordered"), (3, 5, "self"), (3, 5, "reversed"), (3, 5, "unrelated"), (3, 5, "unrelated"),
]
# (kind, order, lattice size, atoms, variants).  Order-3 laws use a 2-point
# lattice so that the full-joint family of variant B stays near 4^6 grid
# points.  For "product" the atoms are per head law (the tail has 4), for
# "mixture" per conditional head law (the tail has 3).  The twelve order-2
# random pairs under variant B cost about the same, and there are as many
# cheaper ops below them as dearer ops above, so the median op of a pass is
# one of them.
THEOREM_PAIRS = [
    ("random", 3, 2, 16, "AB"), ("self", 3, 2, 16, "AB"), ("product", 3, 2, 4, "AB"), ("mixture", 3, 2, 4, "AB"),
    ("product", 2, 3, 6, "AB"), ("mixture", 2, 3, 4, "AB"),
] + [("random", 2, 3, 30, "AB")] * 12
SCENARIOS = ("counterexample", "example42", "example43")
BASE_CELLS = 1

# small_calls: op mix per pass (kind, count) and fixture sizes.
SMALL_MIX = [("empirical", 120), ("pw_cdf", 500), ("cli_cdf", 60), ("exact_opd", 150),
             ("disc_cdf", 350), ("disc_cond", 220)]
SMALL_SERIES = [100, 200, 500, 1000, 2000, 150, 300, 800, 1500, 2000]
SMALL_PIECEWISE = [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (2, 3)]
SMALL_DISCRETE = [(2, 12), (2, 30), (2, 50), (3, 20), (3, 40), (3, 50)]


def make_rng(seed: int):
    sys.path.insert(0, str(ROOT / "src"))
    from opdep.randomness import make_rng as program_rng

    return program_rng(seed)


# -- writers -----------------------------------------------------------------------


def _real(v: float) -> str:
    return repr(float(v))


def write_piecewise(path: Path, model: dict) -> None:
    cells = [
        {"value": _real(c["value"]),
         "blocks": [{"axis": b["axis"], "positions": list(b["positions"]), "lo": _real(b["lo"]),
                     "hi": _real(b["hi"]), "kind": b["kind"]} for b in c["blocks"]]}
        for c in model["cells"]
    ]
    path.write_text(json.dumps({"kind": "piecewise", "order": model["order"], "cells": cells}), encoding="utf-8")


def write_discrete(path: Path, order: int, points: np.ndarray, probs: np.ndarray) -> None:
    atoms = [{"point": [_real(v) for v in row], "prob": _real(p)} for row, p in zip(points.tolist(), probs.tolist())]
    path.write_text(json.dumps({"kind": "discrete", "order": order, "atoms": atoms}), encoding="utf-8")


def write_csv(path: Path, x: np.ndarray, y: np.ndarray, header: bool) -> None:
    body = "\n".join(f"{a:.2f},{b:.2f}" for a, b in zip(x.tolist(), y.tolist()))
    path.write_text(("x,y\n" if header else "") + body + "\n", encoding="utf-8")


# -- series --------------------------------------------------------------------------


def coupled_ar1(rng, n: int, shape: float) -> tuple[np.ndarray, np.ndarray]:
    """A coupled AR(1) pair on a 0.01 lattice (so ties occur) with NaN gaps.

    ``shape`` in [0, 1] sets the persistence, the coupling and the gap rate
    (0-1 %), so the cost of an op depends on its place in the op list, not on
    the seed; the seed draws the innovations and the gap positions.
    """
    from scipy.signal import lfilter

    phi_x, phi_y, coupling = 0.2 + 0.7 * shape, 0.9 - 0.7 * shape, 0.2 + 0.6 * shape
    e = rng.standard_normal((2, n))
    x = lfilter([1.0], [1.0, -phi_x], e[0])
    y = lfilter([1.0], [1.0, -phi_y], coupling * x + e[1])
    x = np.round(x * 100.0) / 100.0
    y = np.round(y * 100.0) / 100.0
    gaps = 0.01 * shape
    x[rng.random(n) < gaps / 2] = np.nan
    y[rng.random(n) < gaps / 2] = np.nan
    return x, y


def build_series(rng, outdir: Path, smoke: bool) -> dict:
    ops = []
    for rows, d, step, copies in SERIES_SMOKE if smoke else SERIES_OPS:
        for copy in range(copies):
            name = f"series{len(ops)}.csv"
            x, y = coupled_ar1(rng, rows, shape=(copy + 0.5) / copies)
            write_csv(outdir / name, x, y, header=len(ops) % 2 == 0)
            ops.append({"kind": "estimate", "csv": name, "d": d, "step": step, "rows": rows,
                        "expect": ref.estimate(x, y, d, step)})
    return {"ops": ops}


# -- piecewise models ----------------------------------------------------------------


def _blocks(rng, axis: str, spec: list[str], lo: float, hi: float) -> list[dict]:
    """Blocks of one axis on disjoint sub-intervals of [lo, hi], in random order."""
    perm = rng.permutation(np.arange(1, sum(int(t[1:]) for t in spec) + 1)).tolist()
    seg = (hi - lo) / len(spec)
    slots = rng.permutation(len(spec)).tolist()
    blocks = []
    for tok, slot in zip(spec, slots):
        k = int(tok[1:])
        positions, perm = perm[:k], perm[k:]
        g1, g2 = rng.uniform(0.0, 0.2, size=2)
        blocks.append({"axis": axis, "positions": positions, "kind": "chain" if tok[0] == "c" else "free",
                       "lo": round(lo + (slot + g1) * seg, 4), "hi": round(lo + (slot + 1 - g2) * seg, 4)})
    return blocks


def _geometry(blocks: list[dict]) -> float:
    vol = 1.0
    for b in blocks:
        k = len(b["positions"])
        vol *= (b["hi"] - b["lo"]) ** k / (math.factorial(k) if b["kind"] == "chain" else 1)
    return vol


def _with_masses(order: int, cell_blocks: list[list[dict]], masses) -> dict:
    cells = [{"value": float(m) / _geometry(blocks), "blocks": blocks} for blocks, m in zip(cell_blocks, masses)]
    return {"order": order, "cells": cells}


def _masses(rng, n: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, size=n)
    return w / math.fsum(w.tolist())


def piecewise_model(rng, order: int, shapes) -> dict:
    """Cells on disjoint bands [3c, 3c + 2], so no two cells overlap."""
    cell_blocks = [_blocks(rng, "x", xs, 3.0 * c, 3.0 * c + 2.0) + _blocks(rng, "y", ys, 3.0 * c, 3.0 * c + 2.0)
                   for c, (xs, ys) in enumerate(shapes)]
    return _with_masses(order, cell_blocks, _masses(rng, len(shapes)))


def ambiguous_model(rng) -> dict:
    """A 4th-order model whose first cell has two x blocks on overlapping intervals."""
    model = piecewise_model(rng, 4, [(["f2", "f2"], ["f4"]), (["c2", "f2"], ["f1"] * 4)])
    first, second = [b for b in model["cells"][0]["blocks"] if b["axis"] == "x"]
    second["lo"] = first["lo"] + (first["hi"] - first["lo"]) / 2
    second["hi"] = first["hi"] + 0.5
    return model


def degenerate_model(rng) -> dict:
    """One cell of singletons with the same interval order on both axes."""
    slots = rng.permutation(3).tolist()
    blocks = [{"axis": axis, "positions": [p + 1], "kind": "free", "lo": float(s), "hi": s + 0.5}
              for axis in ("x", "y") for p, s in enumerate(slots)]
    return _with_masses(3, [blocks], [1.0])


SHAPES = {
    2: [["f2"], ["c2"], ["f1", "f1"]],
    3: [["f3"], ["c2", "f1"], ["f1", "f1", "f1"], ["f2", "f1"]],
}


def random_shapes(rng, order: int, cells: int) -> list:
    options = SHAPES[order]
    return [(options[rng.integers(len(options))], options[rng.integers(len(options))]) for _ in range(cells)]


# -- discrete laws -------------------------------------------------------------------


def lattice_law(rng, order: int, atoms: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``atoms`` distinct points on {0..size-1}^(2*order); y mostly tracks x."""
    found = np.empty((0, 2 * order))
    while len(found) < atoms:
        x = rng.integers(0, size, size=(2 * atoms, order))
        y = np.clip(x + rng.integers(-1, 2, size=x.shape), 0, size - 1)
        loose = rng.random(2 * atoms) < 0.3
        y[loose] = rng.integers(0, size, size=(int(loose.sum()), order))
        found = np.unique(np.vstack([found, np.hstack([x, y]).astype(float)]), axis=0)
    points = found[rng.permutation(len(found))[:atoms]]
    w = rng.uniform(0.1, 1.0, size=atoms)
    return points, w / math.fsum(w.tolist())


def build_exact(rng, outdir: Path, smoke: bool) -> dict:
    models = {name: piecewise_model(rng, order, shapes) for name, order, shapes in PIECEWISE_MODELS}
    models["ambiguous4"] = ambiguous_model(rng)
    models["degenerate3"] = degenerate_model(rng)
    files = {}
    terms = {}
    for name, model in models.items():
        write_piecewise(outdir / f"{name}.json", model)
        files[name] = f"{name}.json"
        terms[name] = ref.piecewise_terms(model)
    for name, order, atoms, size in DISCRETE_LAWS:
        points, probs = lattice_law(rng, order, atoms // 10 if smoke else atoms, size)
        write_discrete(outdir / f"{name}.json", order, points, probs)
        files[name] = f"{name}.json"
        terms[name] = ref.discrete_terms(points, probs, order)
    ops = [{"kind": "model_" + kind, "model": name, "expect": terms[name]} for kind, name in PIECEWISE_OPS + DISCRETE_OPS]
    for name, draws in MC_OPS:
        ops.append({"kind": "mc", "model": name, "n": draws // 20 if smoke else draws,
                    "seed": int(rng.integers(2**31)), "expect": terms[name]})
    if smoke:
        ops = [op for op in ops if not op["model"].startswith(("wide6", "d6"))]
    return {"ops": ops, "files": files}


# -- orthant -----------------------------------------------------------------------------


def transfer_pair(rng, order: int) -> tuple[dict, dict]:
    """Two models with equal marginals, the first below the second in concordance order.

    Both share ``BASE_CELLS`` base cells.  The rest of the mass sits on four
    transfer cells that differ only in (x_1, y_1): the first model puts it
    on the off-diagonal squares (L, H) and (H, L) of [0, 2]^2, the second
    on the diagonal ones (L, L) and (H, H).  Moving mass onto the diagonal
    raises every lower and upper orthant probability, so F_A <= F_B and
    S_A <= S_B hold everywhere.
    """
    rest = SHAPES[order - 1] if order > 2 else [["f1"]]
    rest_x = rest[rng.integers(len(rest))]
    rest_y = rest[rng.integers(len(rest))]
    tail = _blocks(rng, "x", rest_x, 2.5, 3.5) + _blocks(rng, "y", rest_y, 2.5, 3.5)
    for b in tail:
        b["positions"] = [p + 1 for p in b["positions"]]

    def transfer(x_lo: float, y_lo: float) -> list[dict]:
        return [{"axis": "x", "positions": [1], "kind": "free", "lo": x_lo, "hi": x_lo + 1.0},
                {"axis": "y", "positions": [1], "kind": "free", "lo": y_lo, "hi": y_lo + 1.0}] + [dict(b) for b in tail]

    base = [_blocks(rng, "x", xs, 2.6 + j, 3.5 + j) + _blocks(rng, "y", ys, 2.6 + j, 3.5 + j)
            for j, (xs, ys) in enumerate(random_shapes(rng, order, BASE_CELLS))]
    moved = rng.uniform(0.3, 0.6)
    base_mass = (1.0 - moved) * _masses(rng, BASE_CELLS)
    masses = list(base_mass) + [moved / 2, moved / 2]
    first = _with_masses(order, base + [transfer(0.0, 1.0), transfer(1.0, 0.0)], masses)
    second = _with_masses(order, base + [transfer(0.0, 0.0), transfer(1.0, 1.0)], masses)
    return first, second


def build_orthant(rng, outdir: Path, smoke: bool) -> dict:
    files: dict[str, str] = {}

    def save_piecewise(name: str, model: dict) -> str:
        write_piecewise(outdir / f"{name}.json", model)
        return f"{name}.json"

    def save_law(name: str, order: int, law) -> str:
        write_discrete(outdir / f"{name}.json", order, *law)
        files[name] = f"{name}.json"
        return name

    ops = []
    for k, (order, grid, kind) in enumerate(CONCORDANCE_OPS):
        first, second = transfer_pair(rng, order)
        if kind == "unrelated":
            second = transfer_pair(rng, order)[1]
        pair = {"ordered": (first, second), "self": (first, first), "reversed": (second, first),
                "unrelated": (first, second)}[kind]
        ops.append({"kind": "concordance", "first": save_piecewise(f"con{k}a", pair[0]),
                    "second": save_piecewise(f"con{k}b", pair[1]), "grid": 5 if smoke else grid,
                    "predict_dominated": kind in ("ordered", "self")})

    pairs = {}
    for k, (kind, order, size, atoms, variants) in enumerate(THEOREM_PAIRS):
        name = f"pair{k}"
        if kind in ("random", "self"):
            first = save_law(f"{name}a", order, lattice_law(rng, order, atoms, size))
            second = first if kind == "self" else save_law(f"{name}b", order, lattice_law(rng, order, atoms, size))
            pairs[name] = {"kind": "laws", "first": first, "second": second}
        elif kind == "product":
            pairs[name] = {"kind": "product",
                           "head": save_law(f"{name}h", order - 1, lattice_law(rng, order - 1, atoms, size)),
                           "head_star": save_law(f"{name}hs", order - 1, lattice_law(rng, order - 1, atoms, size)),
                           "tail": save_law(f"{name}t", 1, lattice_law(rng, 1, 4, size))}
        else:
            tail_points, tail_probs = lattice_law(rng, 1, 3, 3)
            tail = save_law(f"{name}t", 1, (tail_points, tail_probs))
            heads = [[], []]
            for j, point in enumerate(tail_points.tolist()):
                for side, tag in enumerate(("h", "hs")):
                    law = save_law(f"{name}{tag}{j}", order - 1, lattice_law(rng, order - 1, atoms, size))
                    heads[side].append([point, law])
            pairs[name] = {"kind": "mixture", "tail": tail, "heads": heads[0], "heads_star": heads[1]}
        for variant in variants:
            ops.append({"kind": "theorem", "pair": name, "variant": variant, "predict_holds": kind == "self"})
    ops += [{"kind": "verify", "scenario": s} for s in SCENARIOS]
    return {"ops": ops, "files": files, "pairs": pairs}


# -- small calls -------------------------------------------------------------------------


def build_small_calls(rng, outdir: Path, smoke: bool) -> dict:
    """Fixtures and ops cycle deterministically, so the cost mix is the same for every seed."""
    series = {}
    for k, n in enumerate(SMALL_SERIES):
        x, y = coupled_ar1(rng, n, shape=k / (len(SMALL_SERIES) - 1))
        series[f"s{k}"] = {"x": x.tolist(), "y": y.tolist()}
    models = {}
    files = {}
    for k, (order, cells) in enumerate(SMALL_PIECEWISE):
        options = SHAPES[order]
        shapes = [(options[(k + c) % len(options)], options[(k + 2 * c + 1) % len(options)]) for c in range(cells)]
        models[f"m{k}"] = piecewise_model(rng, order, shapes)
        write_piecewise(outdir / f"m{k}.json", models[f"m{k}"])
        files[f"m{k}"] = f"m{k}.json"
    laws = {}
    for k, (order, atoms) in enumerate(SMALL_DISCRETE):
        laws[f"l{k}"] = (order, *lattice_law(rng, order, atoms, 4))
        write_discrete(outdir / f"l{k}.json", *laws[f"l{k}"])
        files[f"l{k}"] = f"l{k}.json"
    estimates = [(name, d, step) for name in series for d in (2, 3, 4) for step in (1, 2)]
    model_names = list(models)
    law_names = list(laws)

    ops = []
    for kind, count in SMALL_MIX:
        for i in range(max(3, count // 20) if smoke else count):
            if kind == "empirical":
                name, d, step = estimates[i % len(estimates)]
                s = series[name]
                op = {"series": name, "d": d, "step": step,
                      "expect": ref.estimate(np.array(s["x"]), np.array(s["y"]), d, step)}
            elif kind in ("pw_cdf", "cli_cdf", "exact_opd"):
                name = model_names[i % len(model_names)]
                model = models[name]
                if kind == "exact_opd":
                    op = {"model": name, "expect": ref.piecewise_terms(model)}
                else:
                    point = np.round(rng.uniform(-0.5, 3.0 * len(model["cells"]), size=2 * model["order"]), 3).tolist()
                    cdf_value, surv_value = (float(ref.piecewise_orthant(model, point, side)[0]) for side in (True, False))
                    op = {"model": name, "point": point, "lower": (i // len(model_names)) % 2 == 0,
                          "expect": {"cdf": cdf_value, "survival": surv_value}, "file": files[name]}
            else:
                name = law_names[i % len(law_names)]
                order, points, probs = laws[name]
                if kind == "disc_cdf":
                    point = rng.integers(-1, 5, size=2 * order).astype(float).tolist()
                    lower = (i // len(law_names)) % 2 == 0
                    op = {"law": name, "point": point, "lower": lower,
                          "expect": ref.discrete_orthant(points, probs, point, lower)}
                else:
                    subset = sorted(rng.choice(np.arange(1, order + 1), size=int(rng.integers(1, order)), replace=False).tolist())
                    given = points[rng.integers(len(points)), ref.subset_columns(order, subset)].tolist()
                    if i % 10 == 9:
                        given[0] = 9.0  # off the lattice: zero mass
                    law = ref.discrete_conditional(points, probs, order, subset, given)
                    expect = {"zero_mass": True} if law is None else {"points": law[0].tolist(), "probs": law[1].tolist()}
                    op = {"law": name, "subset": subset, "given": given, "expect": expect}
            op["kind"] = kind
            ops.append(op)
    return {"ops": ops, "files": files, "series": series}


BUILDERS = {"series": build_series, "exact": build_exact, "orthant": build_orthant, "small_calls": build_small_calls}


def build(workload: str, seed: int, outdir: Path, smoke: bool = False) -> dict:
    rng = make_rng(seed)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = BUILDERS[workload](rng, outdir, smoke)
    order = rng.permutation(len(manifest["ops"])).tolist()
    manifest["ops"] = [manifest["ops"][i] for i in order]
    manifest.setdefault("files", {})
    manifest.update(workload=workload, seed=seed, smoke=smoke)
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    outdir = Path(args.out)
    manifest = build(args.workload, args.seed, outdir, args.smoke)
    (outdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
