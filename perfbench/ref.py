"""Reference computations that share no code path with the timed program.

Everything here is plain numpy (plus ``math.fsum``) over the benchmark's
own plain-data descriptions of its inputs:

* a series estimate is rebuilt from stable ``argsort`` ranks, a
  finite-window mask and ``bincount``;
* a piecewise model (a dict in the on-disk schema, with real numbers)
  gets its pattern laws from per-cell admissibility masks over all d!
  rank tuples, and its orthant probabilities from closed-form block
  volumes written out afresh;
* a discrete law is an ``(n, 2d)`` atom array with a probability vector.

Patterns are indexed lexicographically by their rank tuples, which is
the order the program uses for its pattern tables.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEGENERATE_TOL = 1e-12


def all_patterns(d: int) -> np.ndarray:
    """All d! rank tuples of order d, lexicographically, as a (d!, d) array."""
    return np.array(list(itertools.permutations(range(1, d + 1))), dtype=np.int64)


def pattern_key(ranks) -> str:
    return ",".join(str(int(r)) for r in ranks)


def rank_rows(values: np.ndarray) -> np.ndarray:
    """Ranks 1..d per row; ties rank the earlier column first."""
    order = np.argsort(values, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(1, values.shape[1] + 1), order.shape), axis=1)
    return ranks


def lehmer_index(ranks: np.ndarray) -> np.ndarray:
    """Lexicographic position of each rank-tuple row among all d! tuples."""
    d = ranks.shape[1]
    index = np.zeros(len(ranks), dtype=np.int64)
    for i in range(d):
        smaller_after = (ranks[:, i + 1 :] < ranks[:, i : i + 1]).sum(axis=1)
        index += smaller_after * math.factorial(d - 1 - i)
    return index


def _terms(coincidence: float, px: np.ndarray, py: np.ndarray) -> dict:
    cross = math.fsum((px * py).tolist())
    out = {"coincidence": coincidence, "cross_term": cross, "px": px.tolist(), "py": py.tolist()}
    if abs(1.0 - cross) <= DEGENERATE_TOL:
        out["degenerate"] = True
    else:
        out["value"] = (coincidence - cross) / (1.0 - cross)
    return out


def estimate(x: np.ndarray, y: np.ndarray, d: int, step: int) -> dict:
    """Expected ``OpdEstimate`` fields, or the documented error that applies."""
    wx = sliding_window_view(x, d)[::step]
    wy = sliding_window_view(y, d)[::step]
    finite = np.isfinite(wx).all(axis=1) & np.isfinite(wy).all(axis=1)
    n = int(finite.sum())
    skipped = len(finite) - n
    if n == 0:
        return {"empty": True}
    ix = lehmer_index(rank_rows(wx[finite]))
    iy = lehmer_index(rank_rows(wy[finite]))
    size = math.factorial(d)
    coincidence = int((ix == iy).sum()) / n
    px = np.bincount(ix, minlength=size) / n
    py = np.bincount(iy, minlength=size) / n
    out = _terms(coincidence, px, py)
    out.update(window_count=n, skipped_windows=skipped)
    return out


# -- piecewise models --------------------------------------------------------


def _axis_blocks(cell: dict, axis: str) -> list[dict]:
    return sorted((b for b in cell["blocks"] if b["axis"] == axis), key=lambda b: (b["lo"], b["hi"]))


def ambiguous(model: dict) -> bool:
    """Whether some cell has same-axis blocks on overlapping intervals."""
    for cell in model["cells"]:
        for axis in ("x", "y"):
            blocks = _axis_blocks(cell, axis)
            if any(r["lo"] < l["hi"] for l, r in zip(blocks, blocks[1:])):
                return True
    return False


def cell_mass(cell: dict) -> float:
    mass = cell["value"]
    for b in cell["blocks"]:
        k = len(b["positions"])
        mass *= (b["hi"] - b["lo"]) ** k
        if b["kind"] == "chain":
            mass /= math.factorial(k)
    return mass


def _axis_law(cell: dict, axis: str, pats: np.ndarray) -> np.ndarray:
    """Probability of each pattern for one cell's axis window."""
    ok = np.ones(len(pats), dtype=bool)
    prob = 1.0
    offset = 0
    for b in _axis_blocks(cell, axis):
        cols = [p - 1 for p in b["positions"]]
        k = len(cols)
        ranks = pats[:, cols]
        ok &= (ranks.min(axis=1) > offset) & (ranks.max(axis=1) <= offset + k)
        if b["kind"] == "chain":
            ok &= (np.diff(ranks, axis=1) > 0).all(axis=1)
        else:
            prob /= math.factorial(k)
        offset += k
    return ok * prob


def piecewise_terms(model: dict) -> dict:
    """Exact coincidence, marginal pattern laws and dependence of a model."""
    if ambiguous(model):
        return {"ambiguous": True}
    pats = all_patterns(model["order"])
    masses = [cell_mass(c) for c in model["cells"]]
    total = math.fsum(masses)
    px = np.zeros(len(pats))
    py = np.zeros(len(pats))
    coincidence = []
    for cell, mass in zip(model["cells"], masses):
        lx = _axis_law(cell, "x", pats)
        ly = _axis_law(cell, "y", pats)
        w = mass / total
        px += w * lx
        py += w * ly
        coincidence.append(w * float(lx @ ly))
    return _terms(math.fsum(coincidence), px, py)


def _lower_interval(lo: float, hi: float, t: np.ndarray) -> np.ndarray:
    return np.clip(t, lo, hi) - lo


def _lower_chain2(lo: float, hi: float, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    # Area of {lo <= u <= v <= hi, u <= t1, v <= t2}: integrate v over [u, b]
    # for u in [lo, a], where b caps v and a caps u (a <= b).
    b = np.clip(t2, lo, hi)
    a = np.minimum(np.clip(t1, lo, hi), b)
    return (a - lo) * (b - (a + lo) / 2.0)


def piecewise_orthant(model: dict, points: np.ndarray, lower: bool) -> np.ndarray:
    """P(all coordinates <= point) (or >=) for each row of ``points``."""
    d = model["order"]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    total = np.zeros(len(pts))
    for cell in model["cells"]:
        term = np.full(len(pts), cell["value"])
        for b in cell["blocks"]:
            lo, hi = b["lo"], b["hi"]
            cols = [(0 if b["axis"] == "x" else d) + p - 1 for p in b["positions"]]
            # Upper orthants reflect u -> lo + hi - u, which maps the block
            # onto itself and reverses the order of a chain.
            t = pts[:, cols] if lower else lo + hi - pts[:, cols]
            if b["kind"] == "chain" and len(cols) == 2:
                t1, t2 = (t[:, 0], t[:, 1]) if lower else (t[:, 1], t[:, 0])
                term = term * _lower_chain2(lo, hi, t1, t2)
            else:
                term = term * np.prod(_lower_interval(lo, hi, t), axis=1)
        total += term
    return total


# -- discrete laws -------------------------------------------------------------


def discrete_terms(points: np.ndarray, probs: np.ndarray, d: int) -> dict:
    ix = lehmer_index(rank_rows(points[:, :d]))
    iy = lehmer_index(rank_rows(points[:, d:]))
    size = math.factorial(d)
    coincidence = math.fsum(probs[ix == iy].tolist())
    px = np.bincount(ix, weights=probs, minlength=size)
    py = np.bincount(iy, weights=probs, minlength=size)
    return _terms(coincidence, px, py)


def discrete_orthant(points: np.ndarray, probs: np.ndarray, point, lower: bool) -> float:
    pt = np.asarray(point, dtype=float)
    inside = (points <= pt).all(axis=1) if lower else (points >= pt).all(axis=1)
    return math.fsum(probs[inside].tolist())


def subset_columns(order: int, positions) -> list[int]:
    """Flat columns of a position subset: its x's, then its y's."""
    return [p - 1 for p in positions] + [order + p - 1 for p in positions]


def discrete_marginal(points: np.ndarray, probs: np.ndarray, order: int, positions) -> dict:
    out: dict[tuple, float] = {}
    for row, p in zip(points[:, subset_columns(order, positions)].tolist(), probs.tolist()):
        key = tuple(row)
        out[key] = out.get(key, 0.0) + p
    return out


def discrete_conditional(points: np.ndarray, probs: np.ndarray, order: int, subset, given):
    """Law of the complement positions given values at ``subset``.

    Returns ``(points, probs)`` of the conditional law with merged atoms, or
    ``None`` when the conditioning event has zero mass.
    """
    complement = [i for i in range(1, order + 1) if i not in subset]
    match = (points[:, subset_columns(order, subset)] == np.asarray(given, dtype=float)).all(axis=1)
    if not match.any():
        return None
    mass = math.fsum(probs[match].tolist())
    merged = discrete_marginal(points[match], probs[match], order, complement)
    keys = sorted(merged)
    return np.array(keys, dtype=float).reshape(len(keys), -1), np.array([merged[k] / mass for k in keys])
