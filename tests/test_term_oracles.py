"""Each pattern term has one derivation per engine: checked against the old ones.

The functions named ``oracle_*`` are the bodies that derived these terms
before: the piecewise and discrete coincidence helpers, the factorial-base
pattern decoder and the dict-count estimator with its per-offset window
check (``_finite_window``), kept verbatim.  The new code must agree with
them bit for bit.
"""

import math
import struct
from dataclasses import replace
from pathlib import Path
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opdep import discrete as disc
from opdep import estimator
from opdep import piecewise as pw
from opdep.discrete import DiscreteJoint
from opdep.errors import EmptyInput, IndexOutOfRange, InvalidParameter, SeriesTooShort
from opdep.estimator import (
    OpdEstimate,
    TimeSeriesPair,
    empirical_opd,
)
from opdep.modelio import load_model
from opdep.patterns import (
    Pattern,
    _check_order,
    cross_match_probability,
    dependence_from_terms,
    distribution_from_counts,
    index_to_pattern,
    pattern_of,
)
from opdep.piecewise import AXES, Cell, PiecewiseUniformDensity, cell_mass, total_mass

from test_pattern_laws import HIGH_ORDER_MODELS, axis_blocks, lattice_laws, piecewise_models, wide_models

MODEL_FILES = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.json"))


# --- the old derivations, verbatim ---------------------------------------------

def oracle_coincidence_from_laws(
    model: PiecewiseUniformDensity, laws_x: np.ndarray, laws_y: np.ndarray
) -> float:
    mass = total_mass(model)
    diagonal = np.zeros(laws_x.shape[1])
    for cell, px, py in zip(model.cells, laws_x, laws_y):
        diagonal += cell_mass(cell) / mass * px * py
    return math.fsum(diagonal.tolist())


def oracle_piecewise_coincidence(model):
    return oracle_coincidence_from_laws(model, *pw._cell_laws(model, AXES))


def oracle_coincidence(codes_x: np.ndarray, codes_y: np.ndarray, probs: np.ndarray) -> float:
    return math.fsum(probs[codes_x == codes_y].tolist())


def oracle_discrete_coincidence(dist):
    (codes_x, codes_y), probs = disc._atom_codes(dist, ("x", "y"))
    return oracle_coincidence(codes_x, codes_y, probs)


def oracle_index_to_pattern(index: int, d: int) -> Pattern:
    """Pattern of order d at the given lexicographic position.

    Raises:
        IndexOutOfRange: index outside [0, d! - 1].
    """
    _check_order(d)
    total = math.factorial(d)
    if not 0 <= index < total:
        raise IndexOutOfRange(f"index {index} outside [0, {total - 1}] for order {d}")
    remaining = list(range(1, d + 1))
    ranks: list[int] = []
    rem = index
    for i in range(d):
        f = math.factorial(d - 1 - i)
        pos, rem = divmod(rem, f)
        ranks.append(remaining.pop(pos))
    return tuple(ranks)


def _window_offsets(length: int, d: int, step: int) -> range:
    if step < 1:
        raise InvalidParameter(f"step must be >= 1, got {step}")
    if length < d:
        raise SeriesTooShort(f"series of length {length} has no window of order {d}")
    return range(0, length - d + 1, step)


def _finite_window(series: Sequence[float], start: int, d: int) -> tuple[float, ...] | None:
    window = series[start : start + d]
    for v in window:
        if not math.isfinite(v):
            return None
    return tuple(window)


def oracle_empirical_opd(pair: TimeSeriesPair, d: int, step: int = 1, tol: float = 1e-12) -> OpdEstimate:
    _check_order(d)
    xs = pair.x
    ys = pair.y
    x_patterns: list[Pattern] = []
    y_patterns: list[Pattern] = []
    skipped = 0
    for start in _window_offsets(len(xs), d, step):
        wx = _finite_window(xs, start, d)
        wy = _finite_window(ys, start, d)
        if wx is None or wy is None:
            skipped += 1
            continue
        x_patterns.append(pattern_of(wx))
        y_patterns.append(pattern_of(wy))
    if not x_patterns:
        raise EmptyInput("no common finite window available")

    n = len(x_patterns)
    hits = sum(1 for a, b in zip(x_patterns, y_patterns) if a == b)
    coincidence = hits / n

    x_counts: dict[Pattern, float] = {}
    y_counts: dict[Pattern, float] = {}
    for pat in x_patterns:
        x_counts[pat] = x_counts.get(pat, 0.0) + 1.0
    for pat in y_patterns:
        y_counts[pat] = y_counts.get(pat, 0.0) + 1.0
    px = distribution_from_counts(d, x_counts)
    py = distribution_from_counts(d, y_counts)
    cross = cross_match_probability(px, py)

    value = dependence_from_terms(coincidence, cross, tol=tol)
    return OpdEstimate(
        value=value,
        coincidence=coincidence,
        cross_term=cross,
        window_count=n,
        skipped_windows=skipped,
    )


def outcome(fn, *args):
    """A float result as its bit pattern, another result as is, or the error."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc)
    if isinstance(result, float):
        return struct.pack("<d", result)
    return result


# --- patterns -------------------------------------------------------------------

@pytest.mark.parametrize("d", range(2, 9))
def test_index_to_pattern_equals_the_factorial_base_decoder(d):
    for k in range(math.factorial(d)):
        assert index_to_pattern(k, d) == oracle_index_to_pattern(k, d)


@pytest.mark.parametrize("index", [np.int64(5), np.int8(0), np.uint16(3), True, False])
def test_index_to_pattern_takes_any_integer(index):
    assert index_to_pattern(index, 3) == oracle_index_to_pattern(index, 3)
    assert all(type(rank) is int for rank in index_to_pattern(index, 3))


@pytest.mark.parametrize("index, d", [(-1, 3), (6, 3), (np.int64(24), 4), (2, 9), (0, 1)])
def test_index_to_pattern_rejects_what_the_decoder_rejected(index, d):
    assert outcome(index_to_pattern, index, d) == outcome(oracle_index_to_pattern, index, d)


# --- estimator ------------------------------------------------------------------

def _series(seed: int, n: int = 240) -> TimeSeriesPair:
    """Seeded series on a few levels, so windows tie, with NaN and infinite gaps."""
    rng = np.random.default_rng(seed)
    levels = int(rng.integers(2, 6))
    x = rng.integers(0, levels, size=n).astype(float)
    # y follows x on some stretches, so the patterns coincide more than by chance.
    y = np.where(rng.random(n) < 0.5, x, rng.integers(0, levels, size=n))
    for series in (x, y):
        gaps = rng.choice(n, size=int(rng.integers(0, 12)), replace=False)
        series[gaps] = rng.choice([math.nan, math.inf, -math.inf], size=len(gaps))
    return TimeSeriesPair(x.tolist(), y.tolist())


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("seed", range(6))
def test_empirical_opd_equals_the_dict_count_estimator(seed, d, step):
    pair = _series(seed)
    assert empirical_opd(pair, d, step) == oracle_empirical_opd(pair, d, step)


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("d", range(2, 7))
def test_empirical_opd_over_several_chunks_equals_the_dict_count_estimator(d, step):
    # Three chunks of window offsets and part of a fourth.
    values_per_chunk = estimator._CHUNK * step
    n = 3 * values_per_chunk + 5 * step + d
    rng = np.random.default_rng(100 * d + step)
    x = rng.integers(0, 4, size=n).astype(float)
    y = np.where(rng.random(n) < 0.5, x, rng.integers(0, 4, size=n))
    # Non-finite runs across the first values of the second and third chunks;
    # the windows on either side of the fourth chunk's first value are finite.
    x[values_per_chunk - 2 : values_per_chunk + 3] = [math.nan, math.inf, -math.inf, math.nan, math.inf]
    y[2 * values_per_chunk - 1 : 2 * values_per_chunk + 1] = [-math.inf, math.nan]
    pair = TimeSeriesPair(x, y)
    assert len(range(0, n - d + 1, step)) > 3 * estimator._CHUNK
    assert empirical_opd(pair, d, step) == oracle_empirical_opd(pair, d, step)


@st.composite
def split_series(draw):
    """A series pair on a few levels with a non-finite run, its order and
    step, and cuts into blocks: cuts may repeat (empty blocks), fall closer
    together than d, and one falls inside the run."""
    d = draw(st.integers(2, 8))
    step = draw(st.integers(1, 16))
    n = draw(st.integers(0, 60))
    x = draw(st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n))
    y = [a if keep else b for a, b, keep in zip(
        x, draw(st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n)),
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    )]
    cuts = draw(st.lists(st.integers(0, n), max_size=10))
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, min(n, start + 6)))
    for series in draw(st.sampled_from([(x,), (y,), (x, y)])):
        series[start:stop] = draw(
            st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), min_size=stop - start, max_size=stop - start)
        )
    if stop - start > 1:
        cuts.append(draw(st.integers(start + 1, stop - 1)))
    return x, y, d, step, sorted(cuts)


def oracle_on_pair(x, y, d, step):
    return oracle_empirical_opd(TimeSeriesPair(x, y), d, step)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(case=split_series(), arrays=st.booleans(), chunk=st.sampled_from([estimator._CHUNK, 1, 2, 3]))
def test_empirical_opd_on_blocks_equals_the_dict_count_estimator(case, arrays, chunk):
    x, y, d, step, cuts = case
    bounds = list(zip([0, *cuts], [*cuts, len(x)]))
    convert = np.array if arrays else list
    blocks = [(convert(x[a:b]), convert(y[a:b])) for a, b in bounds]
    with mock.patch.object(estimator, "_CHUNK", chunk):
        assert outcome(empirical_opd, iter(blocks), d, step) == outcome(oracle_on_pair, x, y, d, step)


@pytest.mark.parametrize("step", [1, 3, 4, 7, 16])
def test_a_pair_is_counted_in_place_in_chunks_of_bounded_span(step):
    # Up to step d, _CHUNK offsets a chunk; past it, as many as span at most _CHUNK values.
    d, n = 4, 3 * estimator._CHUNK * step + 11
    per_chunk = estimator._CHUNK if step <= d else estimator._CHUNK // step
    pair = _series(step, n)
    seen = []
    count = estimator._count_windows

    def spy(x, y, *args):
        seen.append((len(x), np.shares_memory(x, pair.x), np.shares_memory(y, pair.y)))
        return count(x, y, *args)

    offsets = range(0, n - d + 1, step)
    chunks = [offsets[first : first + per_chunk] for first in range(0, len(offsets), per_chunk)]
    with mock.patch.object(estimator, "_count_windows", spy):
        assert empirical_opd(pair, d, step) == oracle_empirical_opd(pair, d, step)
    assert seen == [(chunk[-1] + d - chunk[0], True, True) for chunk in chunks]
    assert max(span for span, _, _ in seen) <= estimator._CHUNK * (d if step <= d else 1)


@pytest.mark.parametrize(
    "x, y",
    [
        ([1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]),  # one pattern each: undefined
        ([math.nan, 1.0, math.nan, 2.0], [1.0, 2.0, 3.0, 4.0]),  # no finite window
    ],
)
def test_empirical_opd_fails_as_the_dict_count_estimator(x, y):
    def run(estimator):
        return estimator(TimeSeriesPair(x, y), 2, 1)

    assert outcome(run, empirical_opd) == outcome(run, oracle_empirical_opd)


# --- exact engines --------------------------------------------------------------

@st.composite
def many_cell_models(draw):
    """5 to 40 cells, so the coincidence sums many per-cell diagonals.

    Each block keeps to its own slot of the line, so no block order is
    ambiguous and every model has a coincidence.
    """
    order = draw(st.integers(min_value=2, max_value=4))
    cells = []
    for _ in range(draw(st.integers(min_value=5, max_value=40))):
        blocks = draw(axis_blocks("x", order)) + draw(axis_blocks("y", order))
        blocks = [replace(block, hi=block.lo + 0.5) for block in blocks]
        cells.append(Cell(draw(st.floats(min_value=0.05, max_value=5.0)), tuple(blocks)))
    return PiecewiseUniformDensity(order=order, cells=tuple(cells))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(piecewise_models(), many_cell_models(), wide_models()))
@example(HIGH_ORDER_MODELS[0])
@example(HIGH_ORDER_MODELS[1])
def test_piecewise_coincidence_is_bit_identical(model):
    expected = outcome(oracle_piecewise_coincidence, model)
    assert outcome(pw.pattern_coincidence, model) == expected
    assert outcome(lambda m: pw.pattern_terms(m)[0], model) == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(lattice_laws())
def test_discrete_coincidence_is_bit_identical(law):
    expected = outcome(oracle_discrete_coincidence, law)
    assert outcome(disc.pattern_coincidence, law) == expected
    assert outcome(lambda d: disc.pattern_terms(d)[0], law) == expected


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.stem)
def test_shipped_models_coincidence_is_bit_identical(path):
    model = load_model(path)
    if isinstance(model, DiscreteJoint):
        engine, oracle = disc, oracle_discrete_coincidence
    else:
        engine, oracle = pw, oracle_piecewise_coincidence
    assert outcome(engine.pattern_coincidence, model) == outcome(oracle, model)
