"""Piecewise-uniform joint densities with exact pattern probabilities.

A model describes the joint law of two windows ``X = (X_1, ..., X_d)`` and
``Y = (Y_1, ..., Y_d)`` as a finite sum of cells.  Each cell carries a
constant density value on a product region built from blocks:

* a ``free`` block places its coordinates independently and uniformly in
  ``[lo, hi]`` (as a region: the full hypercube),
* a ``chain`` block constrains its coordinates, in the listed order, to the
  simplex ``lo <= u_1 <= u_2 <= ... <= u_k <= hi``.

Coordinates are laid out as ``(x_1, ..., x_d, y_1, ..., y_d)``; block
``positions`` are 1-based window positions on their axis.  Within one cell
every block is a separate factor, so the X part and the Y part of a cell
are independent; dependence between the axes comes from mixing cells.

Interval endpoints are treated as closed throughout.  Because all laws are
absolutely continuous, boundary conventions never change a probability;
they only matter for region bookkeeping, and the overlap check below
compares interval interiors.

Pattern probabilities are exact: within a cell, the relative order of a
free block's coordinates is uniform over its k! arrangements, a chain
block's order is deterministic, and blocks with disjoint interval
interiors are almost surely ordered by position on the line.  A cell's
pattern law on one axis is therefore a masked constant over the rows of
the order's rank table; the coincidence and both marginals are sums of
these vectors over cells, and the (d!)^2 joint is built only on request.
Distribution functions (cdf and survival, i.e. lower and upper orthant
probabilities) are exact in closed form for free blocks and chains of
size 2; longer chains have no closed form here and route to Monte Carlo.
"""

from __future__ import annotations

import graphlib
import heapq
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    AmbiguousBlockOrder,
    DimensionMismatch,
    InvalidParameter,
    MassNotOne,
    ModelStructureError,
    NonFiniteInput,
    OverlappingCells,
    UnsupportedChainLength,
    ZeroMassCondition,
)
from .patterns import (
    Pattern,
    PatternDistribution,
    _check_tol,
    _integer,
    dependence_from_pattern_terms,
    enumerate_patterns,
    pattern_codes,
    rank_table,
)
from .randomness import check_count, make_rng, take_words
from .records import Record

AXES = ("x", "y")
KINDS = ("chain", "free")
# Rows of one cell drawn at a time by the sampler.
_CHUNK = 2**14


@dataclass(frozen=True)
class Block:
    """One factor of a cell: coordinates of a single axis on one interval.

    ``positions`` are 1-based window positions on ``axis``.  For a chain
    block the listed order is the almost-sure increasing order of the
    coordinate values.
    """

    axis: str
    positions: tuple[int, ...]
    lo: float
    hi: float
    kind: str

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ModelStructureError(f"axis must be one of {AXES}, got {self.axis!r}")
        if self.kind not in KINDS:
            raise ModelStructureError(f"kind must be one of {KINDS}, got {self.kind!r}")
        positions = tuple(_integer(p, "position") for p in self.positions)
        if not positions:
            raise ModelStructureError("a block needs at least one position")
        if any(p < 1 for p in positions):
            raise ModelStructureError(f"positions must be >= 1, got {positions}")
        if len(set(positions)) != len(positions):
            raise ModelStructureError(f"duplicate positions in block: {positions}")
        lo, hi = float(self.lo), float(self.hi)
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ModelStructureError(f"need lo < hi with a finite width hi - lo, got [{lo}, {hi}]")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Cell:
    """A constant-density region: the product of its blocks' regions."""

    value: float
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        value = float(self.value)
        if not math.isfinite(value) or value <= 0.0:
            raise ModelStructureError(f"cell value must be finite and positive, got {value}")
        blocks = tuple(self.blocks)
        if not blocks:
            raise ModelStructureError("a cell needs at least one block")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "blocks", blocks)

    def axis_blocks(self, axis: str) -> tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.axis == axis)


@dataclass(frozen=True)
class PiecewiseUniformDensity:
    """A joint density for windows of order ``order``, given as cells.

    Structural requirements checked on construction: for every cell and
    every axis, the blocks of that axis partition the positions 1..order.
    Mass and overlap properties are checked separately by :func:`validate`
    so that sub-probability building blocks can be represented too.
    """

    order: int
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        order = _integer(self.order, "order")
        if order < 1:
            raise ModelStructureError(f"order must be >= 1, got {order}")
        cells = tuple(self.cells)
        if not cells:
            raise ModelStructureError("a model needs at least one cell")
        for ci, cell in enumerate(cells):
            for axis in AXES:
                seen = sorted(p for block in cell.axis_blocks(axis) for p in block.positions)
                if seen != list(range(1, order + 1)):
                    raise ModelStructureError(
                        f"cell {ci}: {axis} blocks cover positions {seen}, "
                        f"expected exactly 1..{order}"
                    )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "cells", cells)

    @property
    def dimension(self) -> int:
        return 2 * self.order

    @cached_property
    def _exact_cells(self) -> tuple[Cell, ...]:
        """The cells where a product that a float orthant walk makes could leave the normal float range.

        Rounding is monotone, so each factor of a walk is at most the same
        expression on the block's width ``w``: ``w`` per interval coordinate
        and ``w * w / 2 + w * w`` for a size-2 chain, and each product at most
        these bounds' product in the walk's order, up to a longer chain, where
        the walk raises.  A cell is exact when the value, an interval block's
        running product, ``w * w`` or a chain's bound, or the running term
        after a block is above ``sys.float_info.max`` or below
        ``sys.float_info.min``, where an underflow part way would lose the
        cell.  Both walks evaluate these cells by :func:`_exact_terms`.
        """
        def leaves_normal(cell: Cell) -> bool:
            term = cell.value
            products = [term]
            for b in cell.blocks:
                w = b.length
                if b.kind == "chain" and b.size > 2:
                    break
                if b.kind == "free" or b.size == 1:
                    products += itertools.accumulate(itertools.repeat(w, b.size), operator.mul)
                else:
                    products += (w * w, w * w / 2 + w * w)
                term *= products[-1]
                products.append(term)
            return not all(sys.float_info.min <= p <= sys.float_info.max for p in products)

        return tuple(filter(leaves_normal, self.cells))

    @cached_property
    def _orthant_plan(self) -> tuple[tuple, tuple]:
        """The upper and the lower orthant's plan of the other cells, indexed by ``lower``.

        Per cell (value, blocks), per block (interval product?, centre, lo,
        hi, size, coordinates).  The upper orthant reflects by ``u -> centre
        - u`` onto ``[lo, hi]``: ``centre = lo + hi`` with the block's
        bounds, or, where ``lo + hi`` overflows, 0.0 with ``[-hi, -lo]``.
        """
        def bounds(b: Block, lower: bool) -> tuple:
            if lower:
                return None, b.lo, b.hi
            centre = b.lo + b.hi
            return (centre, b.lo, b.hi) if math.isfinite(centre) else (0.0, -b.hi, -b.lo)

        return tuple(
            tuple(
                (cell.value, tuple(
                    (b.kind == "free" or b.size == 1, *bounds(b, lower), b.size,
                     tuple(coordinate_index(self.order, b.axis, p) for p in b.positions))
                    for b in cell.blocks
                ))
                for cell in self.cells
                if cell not in self._exact_cells
            )
            for lower in (False, True)
        )


class McResult(NamedTuple):
    """Monte Carlo estimate with its binomial standard error."""

    estimate: float
    std_error: float


@dataclass(frozen=True)
class PatternCoincidence:
    """Event: both windows show the same ordinal pattern."""


@dataclass(frozen=True)
class LowerOrthant:
    """Event: every coordinate is <= the corresponding point coordinate."""

    point: tuple[float, ...]


@dataclass(frozen=True)
class UpperOrthant:
    """Event: every coordinate is >= the corresponding point coordinate."""

    point: tuple[float, ...]


Event = Union[PatternCoincidence, LowerOrthant, UpperOrthant]


@dataclass(frozen=True)
class ConcordanceReport(Record):
    """Outcome of a grid comparison of two models' distribution functions.

    ``cdf_dominated`` holds when ``F_A <= F_B + tol`` at every grid point,
    ``survival_dominated`` likewise for upper orthant probabilities; both
    together assert that model A precedes model B in the concordance order
    as far as the grid can see.  Violation maxima are exact over the full
    grid; ``witness_points`` keeps the worst offending points (largest
    violation first, capped at 20).
    """

    cdf_dominated: bool
    survival_dominated: bool
    max_cdf_violation: float
    max_survival_violation: float
    witness_points: tuple[tuple[float, ...], ...]
    tol: float

    @property
    def dominated(self) -> bool:
        return self.cdf_dominated and self.survival_dominated


def coordinate_index(order: int, axis: str, position: int) -> int:
    """Index of window position ``position`` of ``axis`` in the flat layout."""
    if axis not in AXES:
        raise ModelStructureError(f"axis must be one of {AXES}, got {axis!r}")
    position = _integer(position, "position")
    if not 1 <= position <= order:
        raise ModelStructureError(f"position {position} outside 1..{order}")
    offset = 0 if axis == "x" else order
    return offset + position - 1


def cell_mass(cell: Cell) -> float:
    """Integral of the cell's constant density over its region.

    A free block of size k contributes ``length ** k``; a chain block
    contributes ``length ** k / k!`` (the simplex fraction of the cube).
    The product is taken exactly as a ratio of integers and rounded once, so
    the mass is correctly rounded: OverflowError above the float range, 0.0
    below it.
    """
    numerator, denominator = cell.value.as_integer_ratio()
    for block in cell.blocks:
        top, bottom = block.length.as_integer_ratio()
        numerator *= top**block.size
        denominator *= bottom**block.size
        if block.kind == "chain":
            denominator *= math.factorial(block.size)
    return numerator / denominator


def _masses(model: PiecewiseUniformDensity) -> tuple[np.ndarray, float]:
    """Every cell's mass, and their total.

    Raises:
        ModelStructureError: a cell's mass or the total overflows.
    """
    try:
        masses = np.array([cell_mass(cell) for cell in model.cells])
        return masses, math.fsum(masses.tolist())
    except OverflowError:
        raise ModelStructureError("the cells' total mass overflows; the model's law is undefined") from None


def total_mass(model: PiecewiseUniformDensity) -> float:
    """Sum of the cells' masses; 0.0 when every cell's mass underflows.

    Raises:
        ModelStructureError: a cell's mass or the total overflows.
    """
    return _masses(model)[1]


def cells_overlap(cell_a: Cell, cell_b: Cell, order: int) -> bool:
    """Whether two cells' regions intersect on a set of positive measure.

    The intersection is the product of per-coordinate open-interval overlaps
    cut by both cells' chain constraints ``u < v``.  It has positive measure
    exactly when every overlap is nonempty, the constraints are acyclic (a
    cycle forces equality somewhere), and, walked in topological order, no
    coordinate's infimum, the largest lower bound of it and its
    predecessors, reaches its upper bound.
    """
    bounds: dict[int, tuple[float, float]] = {}
    before: dict[int, set[int]] = {}
    for cell in (cell_a, cell_b):
        for b in cell.blocks:
            coords = [coordinate_index(order, b.axis, p) for p in b.positions]
            for c in coords:
                lo, hi = bounds.get(c, (b.lo, b.hi))
                bounds[c] = max(lo, b.lo), min(hi, b.hi)
                before.setdefault(c, set())
            if b.kind == "chain":
                for u, v in zip(coords, coords[1:]):
                    before[v].add(u)
    if any(lo >= hi for lo, hi in bounds.values()):
        return False
    infimum: dict[int, float] = {}
    try:
        for c in graphlib.TopologicalSorter(before).static_order():
            infimum[c] = max([bounds[c][0], *(infimum[p] for p in before[c])])
            if infimum[c] >= bounds[c][1]:
                return False
    except graphlib.CycleError:
        return False
    return True


def validate(
    model: PiecewiseUniformDensity, expected_mass: float = 1.0, tol: float = 1e-12
) -> None:
    """Check that the model is a density of the expected total mass.

    Raises:
        InvalidParameter: tol is NaN, infinite or negative.
        ModelStructureError: a cell's mass or the total overflows.
        MassNotOne: the total mass differs from ``expected_mass`` by more
            than ``tol``, or either is NaN.
        OverlappingCells: two cells intersect with positive measure, so the
            cell decomposition double-counts density.
    """
    _check_tol(tol)
    mass = total_mass(model)
    if not abs(mass - expected_mass) <= tol:
        raise MassNotOne(mass, expected_mass)
    for i, j in itertools.combinations(range(len(model.cells)), 2):
        if cells_overlap(model.cells[i], model.cells[j], model.order):
            raise OverlappingCells(i, j)


def _check_point(model: PiecewiseUniformDensity, point: Sequence[float]) -> tuple[float, ...]:
    pt = tuple(map(float, point))
    if len(pt) != model.dimension:
        raise DimensionMismatch(f"point has {len(pt)} coordinates, model needs {model.dimension}")
    if any(map(math.isnan, pt)):
        raise NonFiniteInput("point contains NaN")
    return pt


def _chain2_lower(lo: float, hi: float, t1: float, t2: float) -> float:
    """Volume of {lo <= u <= v <= hi, u <= t1, v <= t2}."""
    beta = min(t2, hi)
    if beta <= lo:
        return 0.0
    a = min(max(t1, lo), beta)
    return (a - lo) * (a - lo) / 2.0 + (a - lo) * (beta - a)


def _long_chain(size: int) -> UnsupportedChainLength:
    return UnsupportedChainLength(f"no closed-form orthant volume for a chain of size {size}; use mc_probability")


def _exact_terms(model: PiecewiseUniformDensity, pt: Sequence[float], lower: bool) -> list[float]:
    """The terms at ``pt`` of the cells of ``_exact_cells``, each one exact ratio rounded once.

    A term above the float range is inf.  Each coordinate is clamped to its
    block first, which is exact, so every difference is one of finite
    floats.  A chain of size 3 or more raises if the term is still nonzero.
    """
    terms = []
    for cell in model._exact_cells:
        term = Fraction(cell.value)
        for b in cell.blocks:
            lo, hi = Fraction(b.lo), Fraction(b.hi)
            ts = [Fraction(min(max(pt[coordinate_index(model.order, b.axis, p)], b.lo), b.hi)) for p in b.positions]
            if b.kind == "free" or b.size == 1:
                term *= math.prod(t - lo if lower else hi - t for t in ts)
            elif b.size == 2:  # u <= min(t1, v), v <= t2; or, reflected by u -> -u, u <= min(-t2, v), v <= -t1
                base, (s1, s2) = (lo, ts) if lower else (-hi, (-ts[1], -ts[0]))
                a = min(s1, s2)
                term *= (a - base) ** 2 / 2 + (a - base) * (s2 - a)
            elif term:
                raise _long_chain(b.size)
        try:
            terms.append(float(term))
        except OverflowError:
            terms.append(math.inf)
    return terms


def _orthant_probability(model: PiecewiseUniformDensity, pt: tuple[float, ...], lower: bool) -> float:
    """Sum over cells of the value times each block's volume inside the orthant.

    ``pt`` is a point as :func:`_check_point` returns it.  The upper orthant
    reflects each block as its plan says, which maps a chain onto its
    reflected interval reversed.  The cells of ``_exact_cells`` come
    last, by :func:`_exact_terms`; ``fsum`` does not depend on the order.
    """
    terms: list[float] = []
    for term, blocks in model._orthant_plan[lower]:
        for interval, centre, lo, hi, size, coords in blocks:
            if interval:
                vol = 1.0
                for c in coords:
                    t = pt[c] if lower else centre - pt[c]
                    vol *= max(0.0, min(t, hi) - lo)
                    if vol == 0.0:
                        break
            elif size == 2:
                t1, t2 = pt[coords[0]], pt[coords[1]]
                if lower:
                    vol = _chain2_lower(lo, hi, t1, t2)
                else:
                    vol = _chain2_lower(lo, hi, centre - t2, centre - t1)
            else:
                raise _long_chain(size)
            term *= vol
            if term == 0.0:
                break
        terms.append(term)
    if model._exact_cells:
        terms += _exact_terms(model, pt, lower)
    return math.fsum(terms)


def _carry(cells: Sequence[tuple[float, Sequence[tuple]]], idx: tuple[int, ...]) -> list[float]:
    """Each (term, factors) cell's term times its factors looked up at grid index ``idx``, with the walk's early exits.

    A term that is already 0.0 is the one the walk stopped at, so it stays.
    """
    terms = []
    for term, factors in cells:
        if term != 0.0:
            for interval, size, table in factors:
                if interval:
                    vol = 1.0
                    for c, column in table:
                        vol *= column[idx[c]]
                        if vol == 0.0:
                            break
                elif size == 2:
                    c1, c2, rows = table
                    vol = rows[idx[c1]][idx[c2]]
                else:
                    raise _long_chain(size)
                term *= vol
                if term == 0.0:
                    break
        terms.append(term)
    return terms


def _orthant_grid(
    model: PiecewiseUniformDensity, axes: Sequence[Sequence[float]], lower: bool
) -> Iterator[float]:
    """:func:`_orthant_probability` at each point of ``itertools.product(*axes)``, in order.

    Each block's factors are tabulated once by that walk's expressions, one
    entry per value of its coordinate's axis, or per pair of values for a
    size-2 chain.  Each point multiplies its looked-up factors in the same
    order and with the same early exits, so every value is that walk's, bit
    for bit, and a chain of size 3 or more raises only where a term still
    nonzero reaches it.  The cells of ``_exact_cells`` are evaluated
    per point by :func:`_exact_terms`.

    The product varies the y coordinates fastest, and a cell's X and Y
    blocks are separate factors, so each cell's X part, the leading run of
    its x blocks that are interval blocks or size-2 chains, is multiplied
    once per x-window, the values of the first ``model.order`` axes.  Each
    point of the window carries that partial term through the cell's
    remaining blocks, a longer chain among them; a partial term of 0.0 is
    where the walk would stop.  Only the partial terms of one window are
    kept, so memory still grows with the axis lengths, not the points.
    """
    order = model.order
    x_parts, y_parts = [], []
    for value, blocks in model._orthant_plan[lower]:
        factors = []
        for interval, centre, lo, hi, size, coords in blocks:
            if interval:
                table = [(c, [max(0.0, min(t if lower else centre - t, hi) - lo) for t in axes[c]]) for c in coords]
            elif size == 2:
                c1, c2 = coords
                if lower:
                    rows = [[_chain2_lower(lo, hi, t1, t2) for t2 in axes[c2]] for t1 in axes[c1]]
                else:
                    rows = [[_chain2_lower(lo, hi, centre - t2, centre - t1) for t2 in axes[c2]] for t1 in axes[c1]]
                table = (c1, c2, rows)
            else:
                table = None
            factors.append((interval, size, table))
        split = next(
            (i for i, (interval, _, _, _, size, coords) in enumerate(blocks)
             if coords[0] >= order or not (interval or size == 2)),
            len(blocks),
        )
        x_parts.append((value, factors[:split]))
        y_parts.append(factors[split:])
    exact = model._exact_cells
    ranges = [range(len(axis)) for axis in axes]
    for x_idx in itertools.product(*ranges[:order]):
        partials = list(zip(_carry(x_parts, x_idx), y_parts))
        for y_idx in itertools.product(*ranges[order:]):
            idx = x_idx + y_idx
            terms = _carry(partials, idx)
            if exact:
                terms += _exact_terms(model, tuple(map(operator.getitem, axes, idx)), lower)
            yield math.fsum(terms)


def cdf(model: PiecewiseUniformDensity, point: Sequence[float]) -> float:
    """Lower orthant probability P(all coordinates <= point), exactly.

    ``point`` may contain infinities, so marginals are plain evaluations
    with the remaining coordinates at +inf.  Each cell's term is its value
    times its blocks' volumes, multiplied in floats; a cell where such a
    product could leave the normal float range, above or below, has its term
    computed exactly and rounded once.  A coordinate within about 1e-308 of
    a block edge can still make its own factor, and so the term, subnormal.

    Raises:
        UnsupportedChainLength: a cell not yet zero at ``point`` reaches a chain of size >= 3.
    """
    return _orthant_probability(model, _check_point(model, point), lower=True)


def survival(model: PiecewiseUniformDensity, point: Sequence[float]) -> float:
    """Upper orthant probability P(all coordinates >= point), exactly.

    Note this is not ``1 - cdf`` beyond dimension one.  Terms are formed as
    :func:`cdf` forms them.
    """
    return _orthant_probability(model, _check_point(model, point), lower=False)


def _ordered_axis_blocks(cell: Cell, axis: str) -> list[Block]:
    blocks = sorted(cell.axis_blocks(axis), key=lambda b: (b.lo, b.hi))
    for left, right in zip(blocks, blocks[1:]):
        if right.lo < left.hi:
            raise AmbiguousBlockOrder(
                f"{axis} blocks on [{left.lo}, {left.hi}] and [{right.lo}, {right.hi}] "
                "overlap, so their coordinates have no almost-sure order"
            )
    return blocks


def _axis_pattern_law(cell: Cell, axis: str, ranks: np.ndarray) -> np.ndarray:
    """Probability of each pattern for the cell's ``axis`` window.

    ``ranks`` is ``rank_table(d).T``: row c holds position c+1's rank in
    every pattern.  Each block takes the ranks just above those of the
    blocks below it on the line, so a free block bounds each of its
    positions to that range and a chain fixes each position's rank in its
    listed order.  Patterns inside every bound share one probability, the
    product over free blocks of 1/k!; the rest have zero.
    """
    bounds = [(0, 0)] * len(ranks)
    prob = 1.0
    taken = 0
    for block in _ordered_axis_blocks(cell, axis):
        size = len(block.positions)
        if block.kind == "chain":
            for rank, p in enumerate(block.positions, start=taken + 1):
                bounds[p - 1] = (rank, rank)
        else:
            for p in block.positions:
                bounds[p - 1] = (taken + 1, taken + size)
            prob /= math.factorial(size)
        taken += size
    low_high = np.array(bounds, dtype=np.int8)
    inside = (ranks >= low_high[:, :1]) & (ranks <= low_high[:, 1:])
    return np.logical_and.reduce(inside) * prob


def _cell_laws(model: PiecewiseUniformDensity, axes: Sequence[str]) -> np.ndarray:
    """The (axes, cells, d!) array of every cell's pattern law on each axis.

    Cells are visited in order, each on every axis in turn, so the first
    ambiguous block order met is the one reported.
    """
    ranks = rank_table(model.order).T
    laws = [[_axis_pattern_law(cell, axis, ranks) for axis in axes] for cell in model.cells]
    return np.array(laws).transpose(1, 0, 2)


def _cell_masses(model: PiecewiseUniformDensity) -> tuple[np.ndarray, float]:
    """Every cell's mass, and their total, which must be positive.

    Raises:
        ModelStructureError: a cell's mass or the total overflows.
        ZeroMassCondition: the total is 0.0, as when every cell's mass underflows.
    """
    masses, mass = _masses(model)
    if not mass > 0.0:
        raise ZeroMassCondition(f"the cells' total mass is {mass!r}; the model's law is undefined")
    return masses, mass


def _marginals_from_laws(
    order: int, masses: np.ndarray, mass: float, laws: np.ndarray
) -> list[PatternDistribution]:
    """Per axis of ``laws``, each pattern's fsum of its cells' weighted laws over the total mass.

    Patterns admitted by the same set of cells have the same column, so each
    distinct column, keyed by its bytes, is summed once for either axis.
    """
    weighted = np.multiply(laws.transpose(0, 2, 1), masses, order="C")
    keys = weighted.view(f"V{weighted.itemsize * len(masses)}").ravel().tolist()
    sums = {key: math.fsum(memoryview(key).cast("d")) / mass for key in set(keys)}
    probs = operator.itemgetter(*keys)(sums)
    n = laws.shape[2]
    return [PatternDistribution(order=order, probs=probs[i:i + n]) for i in range(0, len(probs), n)]


def marginal_pattern_distribution(
    model: PiecewiseUniformDensity, axis: str
) -> PatternDistribution:
    """Exact pattern distribution of the X or Y window.

    For sub-probability models the result is normalized by total mass.

    Raises:
        AmbiguousBlockOrder: some cell has same-axis blocks on overlapping
            interval interiors.
        OrderTooSmall: the model order is below 2.
        ZeroMassCondition / ModelStructureError: the cells' total mass
            underflows to 0.0 or overflows.
    """
    if axis not in AXES:
        raise ModelStructureError(f"axis must be one of {AXES}, got {axis!r}")
    laws = _cell_laws(model, (axis,))
    (law,) = _marginals_from_laws(model.order, *_cell_masses(model), laws)
    return law


def joint_pattern_distribution(
    model: PiecewiseUniformDensity,
) -> dict[tuple[Pattern, Pattern], float]:
    """Exact joint law of (X pattern, Y pattern); zero entries are omitted.

    Within a cell the two axes are independent, so each cell contributes a
    product of its per-axis pattern probabilities, weighted by cell mass.
    The result has up to (d!)^2 entries; :func:`pattern_coincidence` and
    :func:`exact_opd` never build it.
    """
    patterns = enumerate_patterns(model.order)
    laws_x, laws_y = _cell_laws(model, AXES)
    masses, mass = _cell_masses(model)
    joint: dict[tuple[Pattern, Pattern], float] = {}
    for weight, px, py in zip(masses / mass, laws_x, laws_y):
        xs, ys = np.flatnonzero(px), np.flatnonzero(py)
        terms = ((weight * px[xs])[:, None] * py[ys]).tolist()
        y_patterns = [patterns[j] for j in ys.tolist()]
        for i, row in zip(xs.tolist(), terms):
            pat_x = patterns[i]
            for pat_y, term in zip(y_patterns, row):
                joint[pat_x, pat_y] = joint.get((pat_x, pat_y), 0.0) + term
    return joint


def pattern_coincidence(model: PiecewiseUniformDensity) -> float:
    """Exact probability that both windows show the same pattern."""
    return pattern_terms(model)[0]


def pattern_terms(
    model: PiecewiseUniformDensity,
) -> tuple[float, PatternDistribution, PatternDistribution]:
    """Pattern coincidence and the X and Y pattern laws, from one pass over the cells.

    The coincidence is the diagonal of :func:`joint_pattern_distribution`,
    summed cell by cell in the same order, without the off-diagonal entries.
    """
    laws = _cell_laws(model, AXES)
    masses, mass = _cell_masses(model)
    diagonal = ((masses / mass)[:, None] * laws[0] * laws[1]).sum(axis=0)
    px, py = _marginals_from_laws(model.order, masses, mass, laws)
    return math.fsum(memoryview(diagonal)), px, py


def exact_opd(model: PiecewiseUniformDensity) -> float:
    """Exact normalized pattern dependence of the model.

    Raises:
        DegenerateDistribution: both pattern marginals are the same point
            mass, so the coefficient is undefined.
    """
    return dependence_from_pattern_terms(pattern_terms(model))


def default_grid(
    models: Sequence[PiecewiseUniformDensity], points_per_axis: int = 9
) -> list[list[float]]:
    """Evenly spaced grid over the per-coordinate hull of the models' cells, widened by 0.5 on each side.

    Raises:
        InvalidParameter: no models, or ``points_per_axis`` is not an integer >= 2.
        DimensionMismatch: the models differ in dimension.
    """
    n = _integer(points_per_axis, "points_per_axis", 2)
    if not models:
        raise InvalidParameter("need at least one model")
    dim = models[0].dimension
    lo, hi = [math.inf] * dim, [-math.inf] * dim
    for model in models:
        if model.dimension != dim:
            raise DimensionMismatch("models have different dimensions")
        for cell in model.cells:
            for block in cell.blocks:
                for p in block.positions:
                    c = coordinate_index(model.order, block.axis, p)
                    lo[c] = min(lo[c], block.lo)
                    hi[c] = max(hi[c], block.hi)
    grid = []
    for a, b in zip(lo, hi):
        a, b = a - 0.5, b + 0.5
        if math.isfinite(b - a):
            grid.append([a + (b - a) * i / (n - 1) for i in range(n)])
        else:  # the width overflows; the weighted ends do not
            grid.append([a * ((n - 1 - i) / (n - 1)) + b * (i / (n - 1)) for i in range(n)])
    return grid


def concordance_check(
    model_a: PiecewiseUniformDensity,
    model_b: PiecewiseUniformDensity,
    grid: Sequence[Sequence[float]] | None = None,
    tol: float = 1e-12,
    points_per_axis: int = 9,
) -> ConcordanceReport:
    """Grid test of whether model A precedes model B in concordance order.

    At every grid point both the cdf and the survival function of A must
    not exceed B's by more than ``tol``.  With ``grid`` omitted, the grid
    is ``points_per_axis`` evenly spaced values per coordinate over the
    joint bounding box widened by 0.5 on each side.

    The grid is checked once, before any evaluation.  Each model's block
    factors are then tabulated once per orthant over the axis values, and
    each point's four orthant probabilities are read from those tables, a
    cell's leading x blocks once per x-window (the first ``order`` axes'
    values) and its other blocks per point; they equal :func:`cdf` and
    :func:`survival` at that point, bit for bit, and the tables grow with
    the axis lengths, not the points.  The
    witnesses are at most 20 of the points where a violation exceeds
    ``tol``: the largest violation first, and points of equal violation in
    the order ``itertools.product`` visits them.  The sweep keeps only those
    20, so its memory does not grow with the number of violating points.

    Raises:
        DimensionMismatch: the models, or the grid and the models, differ in dimension.
        InvalidParameter: ``points_per_axis`` is not an integer >= 2, with or
            without ``grid``, a grid value is not a real number, or an axis is empty.
        NonFiniteInput: a grid value is NaN; this is raised before any
            point is evaluated, so before an UnsupportedChainLength that a
            grid point ahead of the NaN would raise.
        UnsupportedChainLength: a cell not yet zero at a grid point reaches
            a chain of size >= 3.
    """
    _check_tol(tol)
    if model_a.dimension != model_b.dimension:
        raise DimensionMismatch("models have different dimensions")
    if grid is None:
        axes = default_grid([model_a, model_b], points_per_axis)
    else:
        _integer(points_per_axis, "points_per_axis", 2)
        try:
            axes = [[float(v) for v in axis_values] for axis_values in grid]
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"grid values must be real numbers: {exc}") from None
        if len(axes) != model_a.dimension:
            raise DimensionMismatch(f"grid has {len(axes)} axes, models need {model_a.dimension}")
        if any(not axis for axis in axes):
            raise InvalidParameter("every grid axis needs at least one value")
    if any(map(math.isnan, itertools.chain.from_iterable(axes))):
        raise NonFiniteInput("point contains NaN")
    max_cdf = max_surv = 0.0

    def violators() -> Iterator[tuple[float, tuple[float, ...]]]:
        nonlocal max_cdf, max_surv
        walks = (_orthant_grid(model, axes, lower) for lower in (True, False) for model in (model_a, model_b))
        for point, cdf_a, cdf_b, surv_a, surv_b in zip(itertools.product(*axes), *walks):
            v_cdf = cdf_a - cdf_b
            v_surv = surv_a - surv_b
            max_cdf = max(max_cdf, v_cdf)
            max_surv = max(max_surv, v_surv)
            worst = max(v_cdf, v_surv)
            if worst > tol:
                yield worst, point

    # Equal to sorted(violators, key=...)[:20], so ties keep product order.
    top = heapq.nsmallest(20, violators(), key=lambda item: -item[0])
    return ConcordanceReport(
        cdf_dominated=max_cdf <= tol,
        survival_dominated=max_surv <= tol,
        max_cdf_violation=max(max_cdf, 0.0),
        max_survival_violation=max(max_surv, 0.0),
        witness_points=tuple(point for _, point in top),
        tol=tol,
    )


def _choose_cells(rng: np.random.Generator, masses: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """The cell of each of ``n`` draws, ``_CHUNK`` draws at a time.

    The cells are the values of ``rng.choice(masses.size, size=n,
    p=masses / masses.sum())``, computed as ``choice`` does: one ``random``
    value per draw, located in the normalized cumulative masses.  ``rng``
    moves past all ``n`` values at once (:func:`take_words`), so what it
    draws next is what it would draw after that ``choice``.
    """
    cdf = (masses / masses.sum()).cumsum()
    cdf /= cdf[-1]
    stream = take_words(rng, n)
    for start in range(0, n, _CHUNK):
        yield cdf.searchsorted(stream.random(min(_CHUNK, n - start)), side="right")


def _cell_columns(
    model: PiecewiseUniformDensity, rng: np.random.Generator, cell: Cell, count: int
) -> Iterator[np.ndarray]:
    """The (2*order, rows) coordinates of ``count`` draws from one cell, ``_CHUNK`` rows at a time.

    Each block takes its part of ``rng``'s stream (:func:`take_words`), and
    its ``uniform`` draws, sorted along each row for a chain, are made a
    chunk at a time, so they are the values of one draw per block.
    """
    streams = [take_words(rng, count * block.size) for block in cell.blocks]
    for start in range(0, count, _CHUNK):
        rows = min(_CHUNK, count - start)
        columns = np.empty((model.dimension, rows))
        for block, stream in zip(cell.blocks, streams):
            block_draws = stream.uniform(block.lo, block.hi, size=(rows, block.size))
            coords = [coordinate_index(model.order, block.axis, p) for p in block.positions]
            if block.kind == "chain" and block.size == 2:
                # Uniform draws hold no NaN and no -0.0, so min and max sort a pair exactly.
                first, second = block_draws.T
                np.minimum(first, second, out=columns[coords[0]])
                np.maximum(first, second, out=columns[coords[1]])
                continue
            if block.kind == "chain" and block.size > 2:
                block_draws.sort(axis=1)
            columns[coords] = block_draws.T
        yield columns


def sample(model: PiecewiseUniformDensity, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` points from the model; returns an (n, 2*order) array.

    The stream is the counter-based Philox generator, so a given seed
    yields the same draw on every platform.  Sub-probability models are
    sampled from their normalized law.  Draws are made a fixed number of
    rows of one cell at a time and written into the result; besides it,
    the cell choices and one cell's row indices take 8 bytes per point each.

    Raises:
        ZeroMassCondition / ModelStructureError: the cells' total mass
            underflows to 0.0 or overflows.
    """
    check_count(n)
    rng = make_rng(seed)
    masses, _ = _cell_masses(model)
    choice = np.concatenate(list(_choose_cells(rng, masses, n)))
    out = np.empty((n, model.dimension))
    for ci, cell in enumerate(model.cells):
        rows = np.flatnonzero(choice == ci)
        for start, columns in zip(range(0, rows.size, _CHUNK), _cell_columns(model, rng, cell, rows.size)):
            out[rows[start:start + _CHUNK]] = columns.T
    return out


def mc_probability(
    model: PiecewiseUniformDensity, event: Event, n: int, seed: int
) -> McResult:
    """Monte Carlo estimate of an event probability with its standard error.

    The standard error is the binomial ``sqrt(p * (1 - p) / n)``.  This
    path works for any chain size, unlike the closed-form cdf/survival.
    The draws are those of :func:`sample`.  A cell's draws depend only on
    how many there are, so the cell choices are only counted, and the
    draws are counted a fixed number of rows of one cell at a time: the
    memory used does not grow with ``n``.

    Raises:
        OrderTooSmall / OrderTooLarge: a pattern event on a model whose
            order is outside [2, 8].
        ZeroMassCondition / ModelStructureError: the cells' total mass
            underflows to 0.0 or overflows.
    """
    check_count(n)
    rng = make_rng(seed)
    masses, _ = _cell_masses(model)
    counts = sum(np.bincount(cells, minlength=masses.size) for cells in _choose_cells(rng, masses, n))
    draws = (
        columns
        for cell, count in zip(model.cells, counts.tolist())
        for columns in _cell_columns(model, rng, cell, count)
    )
    if isinstance(event, PatternCoincidence):
        d = model.order
        hits = (pattern_codes(cols[:d].T) == pattern_codes(cols[d:].T) for cols in draws)
    elif isinstance(event, (LowerOrthant, UpperOrthant)):
        pt = np.asarray(_check_point(model, event.point))[:, None]
        inside = np.less_equal if isinstance(event, LowerOrthant) else np.greater_equal
        hits = (inside(cols, pt).all(axis=0) for cols in draws)
    else:
        raise InvalidParameter(f"unknown event {event!r}")
    estimate = float(sum(int(np.count_nonzero(cell_hits)) for cell_hits in hits) / n)
    std_error = math.sqrt(estimate * (1.0 - estimate) / n)
    return McResult(estimate=estimate, std_error=std_error)
