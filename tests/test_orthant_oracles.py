"""Piecewise orthant probabilities against the per-block bodies they replaced.

The functions in the first section are ``_check_point``,
``_interval_lower``, ``_block_orthant_volume`` and ``_orthant_probability``
of ``opdep.piecewise`` as they were when every call looked up each block's
coordinates through ``coordinate_index`` and dispatched on the block's
kind, kept verbatim.  ``cdf`` and ``survival`` must match them by
``repr``, which tells 0.0 from -0.0; an error must match in type and
message.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from opdep import piecewise as pw
from opdep.errors import DimensionMismatch, NonFiniteInput, OpdepError, UnsupportedChainLength
from opdep.modelio import load_model, model_to_json
from opdep.piecewise import (
    Block,
    Cell,
    PiecewiseUniformDensity,
    _chain2_lower,
    coordinate_index,
)

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
def models(draw, longest_chain=2, max_order=3):
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
