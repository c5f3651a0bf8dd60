"""Piecewise orthant probabilities against the per-block bodies they replaced.

The functions in the first section are ``_check_point``,
``_interval_lower``, ``_block_orthant_volume`` and ``_orthant_probability``
of ``opdep.piecewise`` as they were when every call looked up each block's
coordinates through ``coordinate_index`` and dispatched on the block's
kind, kept verbatim.  ``cdf`` and ``survival`` must match them by
``repr``, which tells 0.0 from -0.0; an error must match in type and
message.

The grid walk of ``concordance_check``, which reads each block's factors
from tables built once per check, must give ``cdf`` and ``survival`` at
every point by ``repr``, and raise where they raise; its tables must not
grow with the number of points.

``concordance_check`` there is the grid check as it was when it made four
public ``cdf``/``survival`` calls per point, each checking the point, and
sorted the whole list of violating points; it too is kept verbatim.  Its
reports must equal those of ``opdep.piecewise.concordance_check`` by
``==`` and by ``repr``, and its errors must match, except that a NaN grid
value is now refused before any point is evaluated.
"""

from __future__ import annotations

import itertools
import math
import sys
import tracemalloc
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from opdep import piecewise as pw
from opdep.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFiniteInput,
    OpdepError,
    UnsupportedChainLength,
)
from opdep.modelio import load_model, model_to_json
from opdep.patterns import _check_tol
from opdep.piecewise import (
    Block,
    Cell,
    ConcordanceReport,
    PiecewiseUniformDensity,
    _chain2_lower,
    cdf,
    coordinate_index,
    default_grid,
    survival,
)
from opdep.scenarios import build_counterexample

# -- the oracles: the former per-block bodies, verbatim -----------------------------


def _check_point(model: PiecewiseUniformDensity, point: Sequence[float]) -> tuple[float, ...]:
    pt = tuple(float(v) for v in point)
    if len(pt) != model.dimension:
        raise DimensionMismatch(
            f"point has {len(pt)} coordinates, model needs {model.dimension}"
        )
    if any(math.isnan(v) for v in pt):
        raise NonFiniteInput("point contains NaN")
    return pt


def _interval_lower(lo: float, hi: float, t: float) -> float:
    return max(0.0, min(t, hi) - lo)


def _block_orthant_volume(block: Block, thresholds: Sequence[float], lower: bool) -> float:
    """Volume of the block's region cut by per-coordinate half-lines.

    For the upper orthant the chain case uses the reflection
    ``u -> lo + hi - u``, which maps the simplex onto itself with the
    coordinate order reversed.
    """
    if block.kind == "free" or block.size == 1:
        vol = 1.0
        for t in thresholds:
            if lower:
                vol *= _interval_lower(block.lo, block.hi, t)
            else:
                vol *= _interval_lower(block.lo, block.hi, block.lo + block.hi - t)
            if vol == 0.0:
                return 0.0
        return vol
    if block.size == 2:
        t1, t2 = thresholds
        if lower:
            return _chain2_lower(block.lo, block.hi, t1, t2)
        return _chain2_lower(block.lo, block.hi, block.lo + block.hi - t2, block.lo + block.hi - t1)
    raise UnsupportedChainLength(
        f"no closed-form orthant volume for a chain of size {block.size}; use mc_probability"
    )


def _orthant_probability(
    model: PiecewiseUniformDensity, point: Sequence[float], lower: bool
) -> float:
    pt = _check_point(model, point)
    terms: list[float] = []
    for cell in model.cells:
        term = cell.value
        for block in cell.blocks:
            thresholds = [
                pt[coordinate_index(model.order, block.axis, p)] for p in block.positions
            ]
            term *= _block_orthant_volume(block, thresholds, lower)
            if term == 0.0:
                break
        terms.append(term)
    return math.fsum(terms)


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
    """
    _check_tol(tol)
    if model_a.dimension != model_b.dimension:
        raise DimensionMismatch("models have different dimensions")
    if grid is None:
        axes = default_grid([model_a, model_b], points_per_axis)
    else:
        axes = [[float(v) for v in axis_values] for axis_values in grid]
        if len(axes) != model_a.dimension:
            raise DimensionMismatch(
                f"grid has {len(axes)} axes, models need {model_a.dimension}"
            )
        if any(not axis for axis in axes):
            raise InvalidParameter("every grid axis needs at least one value")
    max_cdf = 0.0
    max_surv = 0.0
    violators: list[tuple[float, tuple[float, ...]]] = []
    for point in itertools.product(*axes):
        v_cdf = cdf(model_a, point) - cdf(model_b, point)
        v_surv = survival(model_a, point) - survival(model_b, point)
        max_cdf = max(max_cdf, v_cdf)
        max_surv = max(max_surv, v_surv)
        worst = max(v_cdf, v_surv)
        if worst > tol:
            violators.append((worst, point))
    violators.sort(key=lambda item: -item[0])
    witnesses = tuple(point for _, point in violators[:20])
    return ConcordanceReport(
        cdf_dominated=max_cdf <= tol,
        survival_dominated=max_surv <= tol,
        max_cdf_violation=max(max_cdf, 0.0),
        max_survival_violation=max(max_surv, 0.0),
        witness_points=witnesses,
        tol=tol,
    )


# -- comparison ------------------------------------------------------------------------


def outcome(fn, *args):
    """``repr`` of the result, or the error's type and message."""
    try:
        return repr(fn(*args))
    except (OpdepError, TypeError, ValueError) as err:
        return type(err), str(err)


def assert_matches(model, point):
    """cdf and survival at ``point`` against the oracle; the two outcomes."""
    got = (outcome(pw.cdf, model, point), outcome(pw.survival, model, point))
    expected = (
        outcome(_orthant_probability, model, point, True),
        outcome(_orthant_probability, model, point, False),
    )
    assert got == expected, (model, point)
    return got


# Block bounds come from a small lattice, so thresholds land exactly on them.
BOUNDS = (-1.5, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.5)
EDGE_VALUES = BOUNDS + (math.inf, -math.inf, 0.1, 0.75, 1.25, -7.0, 9.0)


@st.composite
def axis_blocks(draw, axis, order, longest_chain):
    """Blocks partitioning positions 1..order of ``axis``, in a drawn order."""
    positions = draw(st.permutations(range(1, order + 1)))
    blocks = []
    while positions:
        kind = draw(st.sampled_from(("free", "chain")))
        longest = len(positions) if kind == "free" else min(len(positions), longest_chain)
        size = draw(st.integers(1, longest))
        bounds = draw(st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2, unique=True))
        lo, hi = sorted(bounds)  # unique: never both -0.0 and 0.0
        blocks.append(Block(axis=axis, positions=tuple(positions[:size]), lo=lo, hi=hi, kind=kind))
        positions = positions[size:]
    return blocks


@st.composite
def models(draw, longest_chain=2, max_order=3, order=None):
    if order is None:
        order = draw(st.integers(1, max_order))
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        blocks = draw(axis_blocks("x", order, longest_chain)) + draw(axis_blocks("y", order, longest_chain))
        blocks = draw(st.permutations(blocks))
        value = draw(st.sampled_from((0.5, 1.0, 3.0, 1e-300)))
        cells.append(Cell(value=value, blocks=tuple(blocks)))
    return PiecewiseUniformDensity(order=order, cells=tuple(cells))


def points(dimension):
    coordinate = st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.floats(min_value=-3.0, max_value=4.0, allow_nan=False),
    )
    return st.lists(coordinate, min_size=dimension, max_size=dimension).map(tuple)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_orthants_match_the_oracle_on_free_and_short_chain_blocks(data):
    model = data.draw(models())
    for _ in range(12):
        cdf_out, survival_out = assert_matches(model, data.draw(points(model.dimension)))
        assert isinstance(cdf_out, str) and isinstance(survival_out, str)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_long_chains_raise_exactly_where_the_oracle_does(data):
    model = data.draw(models(longest_chain=3, max_order=3))
    for _ in range(12):
        assert_matches(model, data.draw(points(model.dimension)))


def test_a_long_chain_raises_only_once_its_cell_is_reached():
    # The x block comes first: where it has no volume the chain is never evaluated,
    # and where it has, both functions raise; neither construction nor the plan does.
    model = PiecewiseUniformDensity(
        order=3,
        cells=(
            Cell(1.0, (
                Block("x", (1, 2, 3), 0.0, 1.0, "free"),
                Block("y", (1, 2, 3), 0.0, 1.0, "chain"),
            )),
        ),
    )
    returned = raised = 0
    for x, y in itertools.product((-1.0, -0.0, 0.0, 0.5, 1.0, 2.0), repeat=2):
        for out in assert_matches(model, (x, 0.5, 0.5, y, y, y)):
            if isinstance(out, str):
                returned += 1
            else:
                assert out[0] is UnsupportedChainLength
                raised += 1
    assert returned and raised


@pytest.mark.parametrize(
    "point, error",
    [
        ((0.5,), DimensionMismatch),
        ((0.5, 0.5, 0.5), DimensionMismatch),
        ((math.nan,), DimensionMismatch),
        ((0.5, math.nan), NonFiniteInput),
        ((0.5, "x"), ValueError),
        ((None, 0.5), TypeError),
        (("0.25", 1), None),
    ],
)
def test_point_errors_match_the_oracle(point, error):
    model = PiecewiseUniformDensity(
        1, (Cell(1.0, (Block("x", (1,), 0, 1, "free"), Block("y", (1,), 0, 1, "free"))),)
    )
    outs = assert_matches(model, point)
    assert {out[0] if isinstance(out, tuple) else None for out in outs} == {error}


MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
SHIPPED = {
    path.stem: model
    for path in sorted(MODEL_DIR.glob("*.json"))
    if isinstance(model := load_model(path), PiecewiseUniformDensity)
}


def test_every_shipped_piecewise_model_is_compared():
    assert len(SHIPPED) == 8


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_models_match_the_oracle_on_their_grids(name):
    model = SHIPPED[name]
    for point in itertools.product(*pw.default_grid([model], points_per_axis=5)):
        assert_matches(model, point)


def test_an_orthant_call_leaves_equality_hash_repr_and_json_unchanged():
    model, twin = (load_model(MODEL_DIR / "counterexample_f.json") for _ in range(2))
    before = (hash(model), repr(model), model_to_json(model))
    pw.cdf(model, (0.5, 0.5, 0.5, 0.5))
    pw.survival(model, (0.5, 0.5, 0.5, 0.5))
    assert model == twin and twin == model
    assert (hash(model), repr(model), model_to_json(model)) == before
    assert before == (hash(twin), repr(twin), model_to_json(twin))


# -- concordance reports ---------------------------------------------------------------


def report_outcome(fn, *args, **kwargs):
    """The report and its ``repr``, or the error's type and message."""
    try:
        report = fn(*args, **kwargs)
    except (OpdepError, TypeError, ValueError) as err:
        return type(err), str(err)
    return report, repr(report)


def assert_reports_match(model_a, model_b, **kwargs):
    got = report_outcome(pw.concordance_check, model_a, model_b, **kwargs)
    expected = report_outcome(concordance_check, model_a, model_b, **kwargs)
    grid = kwargs.get("grid")
    if grid is not None and any(math.isnan(v) for axis in grid for v in axis):
        # Refused before any evaluation; the oracle raised at the first point it
        # could not evaluate, which may come before the first NaN.
        assert got == (NonFiniteInput, "point contains NaN")
        assert expected == got or expected[0] is UnsupportedChainLength
    else:
        assert got == expected, (model_a, model_b, kwargs)
    return got


GRID_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(min_value=-3.0, max_value=4.0, allow_nan=False),
)
# Values per axis by order, so that a grid has at most 256 points.
AXIS_SIZES = {1: 12, 2: 4, 3: 2}


@st.composite
def model_pairs(draw, longest_chain=2):
    order = draw(st.integers(1, 3))
    return order, draw(models(longest_chain, order=order)), draw(models(longest_chain, order=order))


def grids(order):
    """Axes of one to AXIS_SIZES[order] values each, repeats allowed."""
    axis = st.lists(GRID_VALUES, min_size=1, max_size=AXIS_SIZES[order])
    return st.lists(axis, min_size=2 * order, max_size=2 * order)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_concordance_reports_match_the_oracle(data):
    order, model_a, model_b = data.draw(model_pairs())
    tol = data.draw(st.sampled_from((0.0, 1e-12, 0.05)))
    report = assert_reports_match(model_a, model_b, grid=data.draw(grids(order)), tol=tol)[0]
    assert isinstance(report, ConcordanceReport)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_concordance_errors_match_the_oracle_but_nan_comes_first(data):
    order, model_a, model_b = data.draw(model_pairs(longest_chain=3))
    grid = data.draw(grids(order))
    if data.draw(st.booleans()):
        # Last on its axis, so the oracle evaluates points before it reaches one.
        grid[data.draw(st.integers(0, 2 * order - 1))].append(math.nan)
    assert_reports_match(model_a, model_b, grid=grid)


@pytest.mark.parametrize("points_per_axis", [2, 3, 5])
@pytest.mark.parametrize("reverse", [False, True])
def test_concordance_default_grid_reports_match_the_oracle(points_per_axis, reverse):
    models_ = build_counterexample()
    pair = (models_.f_star, models_.f) if reverse else (models_.f, models_.f_star)
    assert_reports_match(*pair, points_per_axis=points_per_axis)


def _violations(model_a, model_b, axes, tol=1e-12):
    """(worst violation, point) of every violating point, in product order."""
    out = []
    for point in itertools.product(*axes):
        worst = max(cdf(model_a, point) - cdf(model_b, point), survival(model_a, point) - survival(model_b, point))
        if worst > tol:
            out.append((worst, point))
    return out


@pytest.mark.parametrize("axis", [[0.25, 0.75, 0.75, 1.5], [1.5, 0.5, 1.0], [math.inf, 1.0, -math.inf, 1.0]])
def test_ties_across_the_twentieth_witness_keep_product_order(axis):
    models_ = build_counterexample()
    axes = [axis] * 4
    ranked = sorted(_violations(models_.f_star, models_.f, axes), key=lambda item: -item[0])
    # Many violators, and a run of equal violations across the cut at 20.
    assert len(ranked) > 20 and ranked[19][0] == ranked[20][0]
    report = assert_reports_match(models_.f_star, models_.f, grid=axes)[0]
    assert report.witness_points == tuple(point for _, point in ranked[:20])


def test_nan_grid_value_is_refused_before_a_long_chain_is_reached():
    model = PiecewiseUniformDensity(
        order=3,
        cells=(
            Cell(1.0, (
                Block("x", (1, 2, 3), 0.0, 1.0, "free"),
                Block("y", (1, 2, 3), 0.0, 1.0, "chain"),
            )),
        ),
    )
    grid = [[0.5]] * 5 + [[0.5, math.nan]]
    with pytest.raises(UnsupportedChainLength):
        concordance_check(model, model, grid=grid)
    with pytest.raises(NonFiniteInput, match="point contains NaN"):
        pw.concordance_check(model, model, grid=grid)


def _sweep_peak(model_a, model_b, axes, tol):
    tracemalloc.start()
    try:
        report = pw.concordance_check(model_a, model_b, grid=axes, tol=tol)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_violators():
    # The same 6,561 points with no violator and with thousands: the list the
    # oracle sorts would hold every violating point.
    models_ = build_counterexample()
    axes = default_grid([models_.f, models_.f_star], points_per_axis=9)
    assert len(_violations(models_.f_star, models_.f, axes)) > 2000
    _sweep_peak(models_.f_star, models_.f, axes, 1e-12)  # warm caches
    none, quiet = _sweep_peak(models_.f_star, models_.f, axes, 1.0)
    many, busy = _sweep_peak(models_.f_star, models_.f, axes, 1e-12)
    assert none.witness_points == () and len(many.witness_points) == 20
    assert busy - quiet < 16 * 1024, (quiet, busy)


# -- the grid walk against cdf and survival --------------------------------------------

# 5e-324 and 1e-300 make terms that round to 0.0 part way through a cell.
WALK_VALUES = (0.5, 1.0, 3.0, 1e-300, 5e-324)
# Block scales that make a cell's float products overflow, or overflow and come back.
WIDE_SCALES = (1.0, 1e-200, 1e160, 1e200)


@st.composite
def walk_models(draw, longest_chain=2):
    """A drawn model, sometimes with a cell of a size-2 chain on each axis, or with blocks scaled wide or narrow."""
    order = draw(st.integers(1, 3))
    layouts = [cell.blocks for cell in draw(models(longest_chain, order=order)).cells]
    if draw(st.booleans()):
        blocks = draw(models(longest_chain, order=order)).cells[0].blocks
        scales = draw(st.lists(st.sampled_from(WIDE_SCALES), min_size=len(blocks), max_size=len(blocks)))
        scaled = tuple(Block(b.axis, b.positions, b.lo * k, b.hi * k, b.kind) for b, k in zip(blocks, scales))
        layouts.insert(draw(st.integers(0, len(layouts))), scaled)
    if order >= 2 and draw(st.booleans()):
        blocks = []
        for axis in ("x", "y"):
            positions = draw(st.permutations(range(1, order + 1)))
            for kind, chunk in (("chain", positions[:2]), ("free", positions[2:])):
                if chunk:
                    bounds = draw(st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2, unique=True))
                    lo, hi = sorted(bounds)
                    blocks.append(Block(axis, tuple(chunk), lo, hi, kind))
        layouts.insert(draw(st.integers(0, len(layouts))), tuple(blocks))
    cells = tuple(Cell(draw(st.sampled_from(WALK_VALUES)), blocks) for blocks in layouts)
    return order, PiecewiseUniformDensity(order, cells)


def walk_outcomes(values):
    """``repr`` of each value up to the first error, then the error's type and message."""
    out = []
    try:
        for value in values:
            out.append(repr(value))
    except OpdepError as err:
        out.append((type(err), str(err)))
    return out


def assert_walks_match(model, axes):
    points = list(itertools.product(*axes))
    for lower, scalar in ((True, pw.cdf), (False, pw.survival)):
        expected = walk_outcomes(scalar(model, point) for point in points)
        assert walk_outcomes(pw._orthant_grid(model, axes, lower)) == expected, (model, axes, lower)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_grid_walk_gives_cdf_and_survival_at_every_point(data):
    order, model = data.draw(walk_models())
    axes = data.draw(grids(order))
    if data.draw(st.booleans()):
        axis = data.draw(st.integers(0, 2 * order - 1))
        axes[axis] = [data.draw(GRID_VALUES)] * data.draw(st.integers(1, AXIS_SIZES[order]))
    assert_walks_match(model, axes)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_grid_walk_raises_at_the_point_where_cdf_and_survival_raise(data):
    order, model = data.draw(walk_models(longest_chain=3))
    assert_walks_match(model, data.draw(grids(order)))


def test_grid_walk_matches_on_the_shipped_models_and_counterexample_grids():
    for model in SHIPPED.values():
        assert_walks_match(model, pw.default_grid([model], points_per_axis=5))
    models_ = build_counterexample()
    assert_walks_match(models_.f_star, [[-math.inf, 0.25, 0.25, 1.0, math.inf]] * 4)


def test_grid_walk_matches_on_cells_whose_float_products_overflow():
    overflow_then_back = PiecewiseUniformDensity(2, (Cell(2e-300, (
        Block("x", (1, 2), 0.0, 1e-10, "free"), Block("y", (1, 2), 0.0, 1e160, "chain"),
    )),))
    infinite_times_zero = PiecewiseUniformDensity(2, (Cell(1.0, (
        Block("x", (1,), -1e200, 0.0, "free"), Block("x", (2,), 0.0, 1e200, "free"),
        Block("y", (1, 2), 0.0, 1e-200, "free"),
    )),))
    for model in (overflow_then_back, infinite_times_zero):
        assert model._exact_cells == model.cells
        assert_walks_match(model, pw.default_grid([model], points_per_axis=5))
        # With a cell of the float walk beside it, in either order.
        (cell,) = model.cells
        plain = Cell(0.5, tuple(Block(b.axis, b.positions, 2.0, 3.0, "free") for b in cell.blocks))
        for cells in ((cell, plain), (plain, cell)):
            mixed = PiecewiseUniformDensity(2, cells)
            assert mixed._exact_cells == (cell,) and len(mixed._orthant_plan[True]) == 1
            assert_walks_match(mixed, pw.default_grid([mixed], points_per_axis=4))


def _table_bytes(model, axes):
    """An upper bound on the bytes of one walk's factor tables over ``axes``.

    Each interval-block coordinate holds a list of one float per value of
    its axis and each size-2 chain a list of such lists; every entry is
    counted as a float of its own, with its list's header and slot, and each
    block and cell gets 256 bytes for its tuples.
    """
    lengths = [len(axis) for axis in axes]
    float_size = sys.getsizeof(0.0)
    total = 0
    for _, blocks in model._orthant_plan[True]:
        total += 256
        for interval, _, _, _, size, coords in blocks:
            total += 256
            if interval:
                total += sum(sys.getsizeof([0.0] * lengths[c]) + float_size * lengths[c] for c in coords)
            elif size == 2:
                rows, cols = (lengths[c] for c in coords)
                row = sys.getsizeof([0.0] * cols) + float_size * cols
                total += sys.getsizeof([None] * rows) + rows * row
    return total


def test_grid_walk_tables_grow_with_the_axis_lengths_not_the_points():
    # The counterexample's blocks are size-2 chains, so its tables hold n^2
    # entries per block against the n^4 points of its grid.
    models_ = build_counterexample()
    for n in (5, 15):
        axes = pw.default_grid([models_.f, models_.f_star], points_per_axis=n)
        points = math.prod(map(len, axes))
        for model, lower in ((models_.f, True), (models_.f_star, False)):
            # The walk's own frames, the product's pools and one point's terms.
            bound = _table_bytes(model, axes) + 8 * 1024
            # Keeping one float per point would not fit in that bound at n = 15.
            assert n == 5 or points * sys.getsizeof(0.0) > 10 * bound, (points, bound)
            tracemalloc.start()
            try:
                last = None
                for last in pw._orthant_grid(model, axes, lower):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert last is not None
            assert peak <= bound, (n, lower, peak, bound)
