"""Vector pattern laws against the scalar per-pattern and per-atom oracles.

The oracles below are the engines' former code paths: the piecewise one
asks every pattern of every cell whether it is admissible and builds the
dense (d!)^2 joint; the discrete one computes ``pattern_of`` for every
atom and tallies dicts; the Monte Carlo one ranks each window drawn by
the former sampler with a stable argsort.  The vector paths do the same arithmetic in the
same order, so results must be equal, not merely close.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opdep import discrete as disc
from opdep.discrete import DiscreteJoint
from opdep.errors import AmbiguousBlockOrder, OrderTooSmall, ZeroMassCondition
from opdep.modelio import load_model
from opdep.patterns import (
    PatternDistribution,
    cross_match_probability,
    dependence_from_terms,
    distribution_from_counts,
    enumerate_patterns,
    pattern_codes,
    pattern_of,
)
from opdep.piecewise import (
    AXES,
    Block,
    Cell,
    McResult,
    PatternCoincidence,
    PiecewiseUniformDensity,
    _ordered_axis_blocks,
    cell_mass,
    exact_opd,
    joint_pattern_distribution,
    marginal_pattern_distribution,
    mc_probability,
    pattern_coincidence,
    total_mass,
)
from test_sampling_oracles import oracle_sample

MODELS = Path(__file__).resolve().parent.parent / "models"


# --- scalar piecewise oracle ---------------------------------------------

def oracle_axis_pattern_probability(cell, axis, pattern):
    """Probability that the cell's ``axis`` window shows ``pattern``."""
    blocks = _ordered_axis_blocks(cell, axis)
    prev_max = 0
    prob = 1.0
    for block in blocks:
        ranks = [pattern[p - 1] for p in block.positions]
        if min(ranks) <= prev_max:
            return 0.0
        prev_max = max(ranks)
        if block.kind == "chain":
            if any(a >= b for a, b in zip(ranks, ranks[1:])):
                return 0.0
        elif block.size >= 2:
            prob /= math.factorial(block.size)
    return prob


def oracle_marginal(model, axis):
    patterns = enumerate_patterns(model.order)
    mass = total_mass(model)
    probs = []
    for pattern in patterns:
        acc = [
            cell_mass(cell) * oracle_axis_pattern_probability(cell, axis, pattern)
            for cell in model.cells
        ]
        probs.append(math.fsum(acc) / mass)
    return PatternDistribution(order=model.order, probs=tuple(probs))


def oracle_joint(model):
    patterns = enumerate_patterns(model.order)
    mass = total_mass(model)
    joint = {}
    for cell in model.cells:
        weight = cell_mass(cell) / mass
        px = [(p, oracle_axis_pattern_probability(cell, "x", p)) for p in patterns]
        # The y patterns the cell admits, once per cell, in pattern order.
        py = [(p, prob) for p in patterns if (prob := oracle_axis_pattern_probability(cell, "y", p)) != 0.0]
        for pat_x, prob_x in px:
            if prob_x == 0.0:
                continue
            for pat_y, prob_y in py:
                key = (pat_x, pat_y)
                joint[key] = joint.get(key, 0.0) + weight * prob_x * prob_y
    return joint


def oracle_coincidence(model):
    return math.fsum(prob for (a, b), prob in oracle_joint(model).items() if a == b)


def oracle_exact_opd(model):
    coincidence = oracle_coincidence(model)
    cross = cross_match_probability(oracle_marginal(model, "x"), oracle_marginal(model, "y"))
    return dependence_from_terms(coincidence, cross)


# --- per-atom discrete oracle --------------------------------------------

def oracle_pattern_pairs(dist):
    d = dist.order
    return [(pattern_of(atom[:d]), pattern_of(atom[d:]), prob) for atom, prob in dist.atoms]


def oracle_discrete_marginal(dist, axis):
    counts = {}
    for pat_x, pat_y, prob in oracle_pattern_pairs(dist):
        pat = pat_x if axis == "x" else pat_y
        counts[pat] = counts.get(pat, 0.0) + prob
    return distribution_from_counts(dist.order, counts)


def oracle_discrete_coincidence(dist):
    return math.fsum(prob for pat_x, pat_y, prob in oracle_pattern_pairs(dist) if pat_x == pat_y)


def oracle_exact_opd_discrete(dist):
    coincidence = oracle_discrete_coincidence(dist)
    px = oracle_discrete_marginal(dist, "x")
    py = oracle_discrete_marginal(dist, "y")
    return dependence_from_terms(coincidence, cross_match_probability(px, py))


# --- Monte Carlo window oracle ---------------------------------------------

def oracle_stable_rank_rows(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, axis=1, kind="stable")
    ranks = np.empty_like(order)
    cols = np.arange(1, values.shape[1] + 1)
    np.put_along_axis(ranks, order, np.broadcast_to(cols, order.shape), axis=1)
    return ranks


def oracle_mc_coincidence(model, n, seed):
    points = oracle_sample(model, n, seed)
    d = model.order
    ranks_x = oracle_stable_rank_rows(points[:, :d])
    ranks_y = oracle_stable_rank_rows(points[:, d:])
    hits = np.all(ranks_x == ranks_y, axis=1)
    estimate = float(hits.mean())
    std_error = math.sqrt(estimate * (1.0 - estimate) / n)
    return McResult(estimate=estimate, std_error=std_error)


def outcome(fn, *args):
    """Result of a call, or the type and message of the error it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc)
    if isinstance(result, PatternDistribution):
        return result.order, result.probs
    if isinstance(result, dict):
        return list(result.items())
    return result


# --- strategies ------------------------------------------------------------

@st.composite
def axis_blocks(draw, axis, order):
    """Blocks partitioning 1..order: free blocks of any size and size-2
    chains, each on its own unit slot of the line; a stretched interval
    sometimes overlaps the next slot, which makes the block order ambiguous."""
    positions = draw(st.permutations(range(1, order + 1)))
    slots = draw(st.permutations(range(order)))
    blocks = []
    i = 0
    while i < order:
        kind = draw(st.sampled_from(("free", "free", "chain")))
        if kind == "chain" and order - i >= 2:
            size = 2
        else:
            kind = "free"
            size = draw(st.integers(min_value=1, max_value=order - i))
        lo = float(slots[len(blocks)]) + draw(st.sampled_from((0.0, 0.25)))
        hi = lo + draw(st.sampled_from((0.5, 0.75, 0.75, 0.75, 1.75)))
        blocks.append(Block(axis=axis, positions=positions[i:i + size], lo=lo, hi=hi, kind=kind))
        i += size
    return blocks


@st.composite
def piecewise_models(draw, min_order=2, max_order=5):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    cells = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        blocks = draw(axis_blocks("x", order)) + draw(axis_blocks("y", order))
        blocks = draw(st.permutations(blocks))
        value = draw(st.floats(min_value=0.05, max_value=5.0))
        cells.append(Cell(value, tuple(blocks)))
    return PiecewiseUniformDensity(order=order, cells=tuple(cells))


@st.composite
def wide_models(draw):
    """64 to 70 cells, past the 63 bits of a signed 64-bit mask of cells.

    The first 64 cells repeat one to three drawn shapes, each cell with its
    own value; the rest have shapes of their own, so some patterns differ
    only in which of the cells past the 64th admit them.  Every block keeps
    to its own slot of the line, so no block order is ambiguous.
    """
    order = draw(st.integers(min_value=2, max_value=4))

    def shape():
        blocks = draw(axis_blocks("x", order)) + draw(axis_blocks("y", order))
        return tuple(replace(block, hi=block.lo + 0.5) for block in blocks)

    shapes = [shape() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    layout = [shapes[i % len(shapes)] for i in range(64)]
    layout += [shape() for _ in range(draw(st.integers(min_value=0, max_value=6)))]
    values = draw(st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=len(layout), max_size=len(layout)))
    return PiecewiseUniformDensity(order=order, cells=tuple(map(Cell, values, layout)))


def _blocks(axis, *specs):
    """Blocks on consecutive unit slots of the line, from (kind, positions) pairs."""
    return tuple(
        Block(axis=axis, positions=positions, lo=2.0 * i, hi=2.0 * i + 1.0, kind=kind)
        for i, (kind, positions) in enumerate(specs)
    )


# Cells of orders 7 and 8 that mix chains and free blocks.  The scalar
# oracles sweep every pattern for every cell, so the order-8 model has one.
HIGH_ORDER_MODELS = (
    PiecewiseUniformDensity(order=7, cells=(
        Cell(1.5, _blocks("x", ("chain", (3, 1, 4)), ("free", (2, 6)), ("chain", (7, 5)))
             + _blocks("y", ("free", (1, 2, 3)), ("chain", (5, 4, 6)), ("free", (7,)))),
        Cell(0.25, _blocks("x", ("free", (1, 2, 3)), ("chain", (4, 5, 6, 7)))
             + _blocks("y", ("chain", (7, 6)), ("free", (5, 4, 3)), ("chain", (2, 1)))),
        Cell(0.5, _blocks("x", ("free", (1, 2, 3)), ("chain", (4, 5, 6, 7)))
             + _blocks("y", ("free", (3, 2, 1)), ("chain", (4, 5, 6, 7)))),
    )),
    PiecewiseUniformDensity(order=8, cells=(
        Cell(2.0, _blocks("x", ("chain", (3, 1, 4)), ("free", (2, 6, 5)), ("chain", (8, 7)))
             + _blocks("y", ("free", (1, 2, 3)), ("chain", (5, 4, 6, 8)), ("free", (7,)))),
    )),
)


@st.composite
def lattice_laws(draw, min_order=2, max_order=6):
    """Laws on a 4-point lattice per coordinate, so windows tie often."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    coords = st.integers(min_value=0, max_value=3).map(float)
    points = draw(
        st.lists(st.tuples(*[coords] * (2 * order)), min_size=1, max_size=40, unique=True)
    )
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=len(points), max_size=len(points))
    )
    total = sum(weights)
    return DiscreteJoint(order=order, atoms=[(p, w / total) for p, w in zip(points, weights)])


# --- piecewise ----------------------------------------------------------------

@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(piecewise_models(), wide_models()))
@example(HIGH_ORDER_MODELS[0])
@example(HIGH_ORDER_MODELS[1])
def test_piecewise_laws_equal_scalar_oracle(model):
    assert outcome(pattern_coincidence, model) == outcome(oracle_coincidence, model)
    for axis in AXES:
        assert outcome(marginal_pattern_distribution, model, axis) == outcome(
            oracle_marginal, model, axis
        )
    assert outcome(exact_opd, model) == outcome(oracle_exact_opd, model)
    # items and key order
    assert outcome(joint_pattern_distribution, model) == outcome(oracle_joint, model)


def _free_cell(order, lo=0.0, hi=1.0, value=1.0):
    positions = tuple(range(1, order + 1))
    return Cell(
        value,
        (
            Block(axis="x", positions=positions, lo=lo, hi=hi, kind="free"),
            Block(axis="y", positions=positions, lo=lo, hi=hi, kind="free"),
        ),
    )


def test_order_one_model_raises_order_too_small():
    model = PiecewiseUniformDensity(order=1, cells=(_free_cell(1),))
    for fn in (pattern_coincidence, exact_opd, joint_pattern_distribution):
        with pytest.raises(OrderTooSmall):
            fn(model)
    with pytest.raises(OrderTooSmall):
        marginal_pattern_distribution(model, "x")


def test_model_whose_mass_underflows_raises_zero_mass_condition():
    # The cell value is accepted, but value * 0.5 ** 4 rounds to 0.0.
    model = PiecewiseUniformDensity(order=2, cells=(_free_cell(2, hi=0.5, value=5e-324),))
    assert total_mass(model) == 0.0
    for fn in (pattern_coincidence, exact_opd, joint_pattern_distribution):
        with pytest.raises(ZeroMassCondition):
            fn(model)
    with pytest.raises(ZeroMassCondition):
        marginal_pattern_distribution(model, "x")


def test_overlapping_blocks_raise_ambiguous_block_order():
    cell = Cell(
        1.0,
        (
            Block(axis="x", positions=(1,), lo=0.0, hi=1.0, kind="free"),
            Block(axis="x", positions=(2, 3), lo=0.5, hi=1.5, kind="chain"),
            Block(axis="y", positions=(1, 2, 3), lo=0.0, hi=1.0, kind="free"),
        ),
    )
    model = PiecewiseUniformDensity(order=3, cells=(_free_cell(3, 2.0, 3.0), cell))
    for fn in (pattern_coincidence, exact_opd, joint_pattern_distribution):
        with pytest.raises(AmbiguousBlockOrder):
            fn(model)
    with pytest.raises(AmbiguousBlockOrder):
        marginal_pattern_distribution(model, "x")
    assert marginal_pattern_distribution(model, "y").probs == (1 / 6,) * 6


# --- advertised orders ----------------------------------------------------

def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


@pytest.mark.parametrize("order", [7, 8])
def test_free_by_free_cell_at_high_order(order):
    model = PiecewiseUniformDensity(order=order, cells=(_free_cell(order),))
    value, elapsed = _timed(exact_opd, model)
    assert elapsed < 1.0
    assert value == pytest.approx(0.0, abs=1e-12)
    assert abs(pattern_coincidence(model) - 1.0 / math.factorial(order)) <= 1e-12


def test_mixed_chain_free_model_at_order_eight():
    def cell(value, x_blocks, y_blocks):
        blocks = [Block("x", *b) for b in x_blocks] + [Block("y", *b) for b in y_blocks]
        return Cell(value, tuple(blocks))

    model = PiecewiseUniformDensity(
        order=8,
        cells=(
            cell(
                1.0,
                [((2, 1), 0, 1, "chain"), ((3, 5, 8), 1, 2, "free"), ((6, 4), 2, 3, "chain"), ((7,), 3, 4, "free")],
                [((1, 2, 3, 4, 5, 6, 7, 8), 0, 1, "free")],
            ),
            cell(
                0.5,
                [((1, 2, 3, 4), 4, 5, "free"), ((5, 6, 7, 8), 5, 6, "free")],
                [((8, 7), 1, 2, "chain"), ((1, 2, 3, 4, 5, 6), 2, 3, "free")],
            ),
            cell(
                2.0,
                [((4, 3, 2, 1, 5, 6, 7, 8), 7, 8, "free")],
                [((3, 4), 4, 5, "chain"), ((1, 2), 3, 4, "chain"), ((5, 6, 7, 8), 5, 6, "free")],
            ),
        ),
    )
    value, elapsed = _timed(exact_opd, model)
    assert elapsed < 1.0
    assert -1.0 <= value <= 1.0
    for axis in AXES:
        assert marginal_pattern_distribution(model, axis) == oracle_marginal(model, axis)


# --- discrete ---------------------------------------------------------------

@settings(max_examples=200, derandomize=True, deadline=None)
@given(lattice_laws())
def test_discrete_laws_equal_per_atom_oracle(law):
    assert disc.pattern_coincidence(law) == oracle_discrete_coincidence(law)
    for axis in AXES:
        assert disc.marginal_pattern_distribution(law, axis) == oracle_discrete_marginal(
            law, axis
        )
    assert outcome(disc.exact_opd, law) == outcome(oracle_exact_opd_discrete, law)


def test_order_one_discrete_law_raises_order_too_small():
    law = DiscreteJoint(order=1, atoms={(0.0, 1.0): 0.5, (1.0, 0.0): 0.5})
    for fn in (disc.pattern_coincidence, disc.exact_opd):
        with pytest.raises(OrderTooSmall):
            fn(law)
    with pytest.raises(OrderTooSmall):
        disc.marginal_pattern_distribution(law, "y")


# --- Monte Carlo window encoder ------------------------------------------------

@st.composite
def tied_row_pairs(draw):
    """Two (n, d) arrays of small integers, d in 2..8.  Each row of the second
    is a fresh row, an increasing transform of the first's row (same
    pattern), or that row with one entry redrawn, so both equal and
    unequal patterns occur at every order, with many ties."""
    d = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=1, max_value=12))
    value = st.integers(min_value=0, max_value=3)
    a = [draw(st.lists(value, min_size=d, max_size=d)) for _ in range(n)]
    b = []
    for row in a:
        how = draw(st.sampled_from(("fresh", "same", "redraw")))
        if how == "fresh":
            b.append(draw(st.lists(value, min_size=d, max_size=d)))
        elif how == "same":
            b.append([3 * v - 5 for v in row])
        else:
            changed = list(row)
            changed[draw(st.integers(min_value=0, max_value=d - 1))] = draw(value)
            b.append(changed)
    return np.array(a, dtype=float), np.array(b, dtype=float)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tied_row_pairs())
def test_pattern_codes_match_stable_rank_oracle(rows):
    a, b = rows
    expected = (oracle_stable_rank_rows(a) == oracle_stable_rank_rows(b)).all(1)
    assert np.array_equal(pattern_codes(a) == pattern_codes(b), expected)


def _chain_free_model():
    blocks = (
        Block("x", (2, 1), 0.0, 1.0, "chain"),
        Block("x", (3, 5, 4), 1.0, 2.0, "free"),
        Block("y", (1, 2, 3, 4, 5), 0.0, 1.0, "free"),
    )
    return PiecewiseUniformDensity(order=5, cells=(Cell(1.0, blocks),))


@pytest.mark.parametrize(
    "model",
    [
        load_model(MODELS / "counterexample_f.json"),
        load_model(MODELS / "example42_continuous.json"),
        _chain_free_model(),
        PiecewiseUniformDensity(order=8, cells=(_free_cell(8),)),
    ],
    ids=["counterexample_f", "example42_continuous", "chain_free_d5", "free_d8"],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mc_coincidence_equals_stable_rank_estimate(model, seed):
    result = mc_probability(model, PatternCoincidence(), 5_000, seed)
    assert result == oracle_mc_coincidence(model, 5_000, seed)


def test_mc_coincidence_shares_the_exact_order_range():
    model = PiecewiseUniformDensity(order=1, cells=(_free_cell(1),))
    with pytest.raises(OrderTooSmall):
        mc_probability(model, PatternCoincidence(), 100, 1)
