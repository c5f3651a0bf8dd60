"""Piecewise sampling and Monte Carlo against the bodies they replaced.

``oracle_sample`` and ``oracle_mc_probability`` are ``sample`` and
``mc_probability`` of ``opdep.piecewise`` as they were when every draw was
scattered into one (n, 2*order) array, one coordinate at a time, and the
Monte Carlo events were evaluated on that array; they are kept verbatim.
``sample`` must return the same bytes in the same shape, ``mc_probability``
an equal ``McResult``, and an error must match in type and message.  The
draws, made a chunk of rows at a time, are compared at the real chunk size
and, with ``_CHUNK`` patched, at chunks of one to five rows.
"""

from __future__ import annotations

import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdep import discrete as disc
from opdep import piecewise as pw
from opdep.errors import InvalidParameter, ModelStructureError, ZeroMassCondition
from opdep.modelio import load_model
from opdep.patterns import pattern_codes
from opdep.piecewise import (
    Block,
    Cell,
    LowerOrthant,
    McResult,
    PatternCoincidence,
    PiecewiseUniformDensity,
    UpperOrthant,
    _check_point,
    cell_mass,
    coordinate_index,
)
from opdep.randomness import make_rng, take_words

# -- the oracles: the former bodies, verbatim ----------------------------------------


def oracle_sample(model: PiecewiseUniformDensity, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` points from the model; returns an (n, 2*order) array.

    The stream is the counter-based Philox generator, so a given seed
    yields the same draw on every platform.  Sub-probability models are
    sampled from their normalized law.
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    masses = np.array([cell_mass(c) for c in model.cells])
    choice = rng.choice(len(model.cells), size=n, p=masses / masses.sum())
    out = np.empty((n, model.dimension))
    for ci, cell in enumerate(model.cells):
        rows = np.flatnonzero(choice == ci)
        if rows.size == 0:
            continue
        for block in cell.blocks:
            draws = rng.uniform(block.lo, block.hi, size=(rows.size, block.size))
            if block.kind == "chain" and block.size > 1:
                draws.sort(axis=1)
            for col, p in enumerate(block.positions):
                out[rows, coordinate_index(model.order, block.axis, p)] = draws[:, col]
    return out


def oracle_mc_probability(
    model: PiecewiseUniformDensity, event, n: int, seed: int
) -> McResult:
    """Monte Carlo estimate of an event probability with its standard error.

    The standard error is the binomial ``sqrt(p * (1 - p) / n)``.  This
    path works for any chain size, unlike the closed-form cdf/survival.

    Raises:
        OrderTooSmall / OrderTooLarge: a pattern event on a model whose
            order is outside [2, 8].
    """
    points = oracle_sample(model, n, seed)
    if isinstance(event, PatternCoincidence):
        d = model.order
        hits = pattern_codes(points[:, :d]) == pattern_codes(points[:, d:])
    elif isinstance(event, (LowerOrthant, UpperOrthant)):
        pt = _check_point(model, event.point)
        if isinstance(event, LowerOrthant):
            hits = np.all(points <= np.asarray(pt), axis=1)
        else:
            hits = np.all(points >= np.asarray(pt), axis=1)
    else:
        raise InvalidParameter(f"unknown event {event!r}")
    estimate = float(hits.mean())
    std_error = math.sqrt(estimate * (1.0 - estimate) / n)
    return McResult(estimate=estimate, std_error=std_error)


# -- comparison -------------------------------------------------------------------------

COUNTS = (1, 2, 17, 5000)
SEEDS = (0, 3, 2**40 + 7)
# Rows per chunk patched in below, and counts that put a cell's rows on and
# either side of several multiples of each.
SMALL_CHUNKS = (1, 2, 3, 5)
CHUNK_COUNTS = (1, 2, 3, 4, 6, 11, 16, 17, 40)


def outcome(fn, *args):
    """Result of a call, or the type and message of the error it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc)
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    assert type(result) is McResult and type(result.estimate) is float
    return result, repr(result)


def assert_same_draws(model, events, n, seed):
    assert outcome(pw.sample, model, n, seed) == outcome(oracle_sample, model, n, seed)
    for event in events:
        got = outcome(pw.mc_probability, model, event, n, seed)
        assert got == outcome(oracle_mc_probability, model, event, n, seed)


def orthant_events(points):
    return [event(tuple(point)) for point in points for event in (LowerOrthant, UpperOrthant)]


# -- the stream placement -----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_take_words_splits_a_reference_stream_bit_for_bit(seed):
    positions = set()
    for drawn in range(5):
        for words in (*range(41), 2**20 + 3):
            reference = np.random.Generator(np.random.Philox(seed))
            reference.random(drawn)
            expected_taken = reference.random(words).tobytes()
            expected_next = reference.random(9).tobytes()
            rng = make_rng(seed)
            rng.random(drawn)
            positions.add(rng.bit_generator.state["buffer_pos"])
            taken = take_words(rng, words)
            assert rng.random(9).tobytes() == expected_next
            assert taken.random(words).tobytes() == expected_taken
    assert positions == {1, 2, 3, 4}


@pytest.mark.parametrize("n", [1, 2, pw._CHUNK - 1, pw._CHUNK, pw._CHUNK + 1, 2 * pw._CHUNK, 3 * pw._CHUNK + 5])
@pytest.mark.parametrize("seed", SEEDS)
def test_cells_are_chosen_in_chunks_as_generator_choice_chooses_them(n, seed):
    masses = np.random.default_rng(seed).random(7)
    masses[seed % 7] = 1e-300
    for drawn in range(4):
        reference = np.random.Generator(np.random.Philox(seed))
        reference.random(drawn)
        expected = reference.choice(masses.size, size=n, p=masses / masses.sum())
        rng = make_rng(seed)
        rng.random(drawn)
        chunks = list(pw._choose_cells(rng, masses, n))
        assert max(chunk.size for chunk in chunks) == min(n, pw._CHUNK)
        cells = np.concatenate(chunks)
        assert cells.dtype == expected.dtype and cells.tobytes() == expected.tobytes()
        assert rng.random(9).tobytes() == reference.random(9).tobytes()


# -- the shipped models ------------------------------------------------------------------

MODELS = Path(__file__).resolve().parent.parent / "models"
SHIPPED = {
    path.stem: model
    for path in sorted(MODELS.glob("*.json"))
    if isinstance(model := load_model(path), PiecewiseUniformDensity)
}


def test_eight_piecewise_models_ship():
    assert len(SHIPPED) == 8


@pytest.mark.parametrize("name", sorted(SHIPPED))
@pytest.mark.parametrize("seed", SEEDS)
def test_shipped_models_draw_as_the_former_bodies(name, seed):
    model = SHIPPED[name]
    grid = pw.default_grid([model], points_per_axis=3)
    points = [[axis[1] for axis in grid], [axis[0] for axis in grid], [axis[2] for axis in grid]]
    rng = np.random.default_rng(seed)
    points += rng.uniform(-0.5, 3.5, size=(4, model.dimension)).tolist()
    events = [PatternCoincidence(), *orthant_events(points)]
    for n in COUNTS:
        assert_same_draws(model, events, n, seed)


def _centre_events(model):
    """The coincidence and both orthants at the centre of the model's default grid."""
    grid = pw.default_grid([model], points_per_axis=3)
    return [PatternCoincidence(), *orthant_events([[axis[1] for axis in grid]])]


@pytest.mark.parametrize("name", sorted(SHIPPED))
@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_shipped_models_draw_as_the_former_bodies_in_small_chunks(name, chunk):
    model = SHIPPED[name]
    with mock.patch.object(pw, "_CHUNK", chunk):
        for n in CHUNK_COUNTS:
            assert_same_draws(model, _centre_events(model), n, SEEDS[chunk % len(SEEDS)])


def chunk_widths(model, n, seed):
    """The rows in each chunk ``_cell_columns`` yields while ``sample`` draws ``n`` points."""
    widths = []
    cell_columns = pw._cell_columns

    def recording(*args):
        for columns in cell_columns(*args):
            widths.append(columns.shape[1])
            yield columns

    with mock.patch.object(pw, "_cell_columns", recording):
        pw.sample(model, n, seed)
    return widths


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_models_draw_as_the_former_bodies_past_a_chunk(name):
    model = SHIPPED[name]
    # With this many draws some cell gets more than one chunk of rows.
    n = len(model.cells) * pw._CHUNK + 1
    assert max(chunk_widths(model, n, 3)) == pw._CHUNK
    assert_same_draws(model, _centre_events(model), n, 3)


# -- generated models ----------------------------------------------------------------------

BOUNDS = (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)
VALUES = (1e-300, 1e-6, 0.01, 0.3, 1.0, 2.5)
PROBES = (-math.inf, -1.0, -0.0, 0.0, 0.3, 0.5, 1.0, 1.7, math.inf)


@st.composite
def sampling_models(draw):
    """Orders 1–4 and 1–4 cells of free blocks and chains of size 1–3.

    Bounds may overlap, which sampling allows; cell values are tiny to
    large, so the law is a sub-probability one and light cells often get
    no draws."""
    order = draw(st.integers(min_value=1, max_value=4))
    cells = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        blocks = []
        for axis in ("x", "y"):
            positions = draw(st.permutations(range(1, order + 1)))
            i = 0
            while i < order:
                size = draw(st.integers(min_value=1, max_value=min(3, order - i)))
                lo, hi = sorted(draw(st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2, unique=True)))
                kind = draw(st.sampled_from(("free", "chain")))
                blocks.append(Block(axis, tuple(positions[i:i + size]), lo, hi, kind))
                i += size
        cells.append(Cell(draw(st.sampled_from(VALUES)), tuple(draw(st.permutations(blocks)))))
    return PiecewiseUniformDensity(order=order, cells=tuple(cells))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sampling_models(), st.data())
def test_generated_models_draw_as_the_former_bodies(model, data):
    points = data.draw(st.lists(
        st.lists(st.sampled_from(PROBES), min_size=model.dimension, max_size=model.dimension),
        min_size=1, max_size=3,
    ))
    events = [PatternCoincidence(), *orthant_events(points)]
    seed = data.draw(st.sampled_from(SEEDS))
    for n in COUNTS:
        assert_same_draws(model, events, n, seed)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sampling_models(), st.data())
def test_generated_models_draw_as_the_former_bodies_in_small_chunks(model, data):
    points = data.draw(st.lists(
        st.lists(st.sampled_from(PROBES), min_size=model.dimension, max_size=model.dimension),
        min_size=1, max_size=2,
    ))
    events = [PatternCoincidence(), *orthant_events(points)]
    seed = data.draw(st.sampled_from(SEEDS))
    with mock.patch.object(pw, "_CHUNK", data.draw(st.sampled_from(SMALL_CHUNKS))):
        for n in CHUNK_COUNTS:
            assert_same_draws(model, events, n, seed)


def _chained_model(*, second: bool) -> PiecewiseUniformDensity:
    """Order 5 with chains of size 1 to 4 and free blocks, same-axis blocks interleaved.

    A light cell, listed first, gets no draws; ``second`` adds another cell that draws."""
    light = Cell(1e-12, (Block("x", (1, 2, 3, 4, 5), 5.0, 6.0, "free"), Block("y", (2, 3, 1), 5.0, 6.0, "chain"),
                         Block("y", (4, 5), 6.0, 7.0, "chain")))
    heavy = Cell(1.0, (
        Block("x", (4,), 0.0, 1.0, "chain"), Block("y", (5, 1, 4, 2), 0.0, 1.0, "chain"),
        Block("x", (3, 1, 5), 2.0, 3.0, "chain"), Block("y", (3,), 1.0, 2.0, "free"),
        Block("x", (2,), 1.0, 2.0, "free"),
    ))
    other = Cell(0.5, (
        Block("x", (2, 5), 0.0, 1.0, "free"), Block("x", (3, 1), 1.0, 2.0, "chain"), Block("x", (4,), 2.0, 3.0, "free"),
        Block("y", (4, 2), 0.0, 1.0, "chain"), Block("y", (1, 3, 5), 1.0, 2.0, "free"),
    ))
    return PiecewiseUniformDensity(order=5, cells=(light, heavy, other) if second else (light, heavy))


CHAIN_EVENTS = [PatternCoincidence(), *orthant_events([(1.5,) * 10, (2.5, 1.5, 2.5, 0.5, 2.5, 0.5, 0.5, 1.5, 0.5, 0.5)])]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_chains_and_cells_without_draws_across_small_chunks(chunk):
    model = _chained_model(second=True)
    with mock.patch.object(pw, "_CHUNK", chunk):
        for n in CHUNK_COUNTS:
            assert (pw.sample(model, n, 1) < 5.0).all()
            assert_same_draws(model, CHAIN_EVENTS, n, 1)


def test_chains_draw_as_the_former_bodies_one_row_past_a_chunk():
    model = _chained_model(second=False)
    n = pw._CHUNK + 1
    assert chunk_widths(model, n, 2) == [pw._CHUNK, 1]
    assert_same_draws(model, CHAIN_EVENTS, n, 2)


def test_a_cell_without_draws_is_skipped_in_the_stream():
    heavy = Cell(1.0, (Block("x", (1, 2), 0.0, 1.0, "chain"), Block("y", (2, 1), 0.0, 1.0, "free")))
    light = Cell(1e-9, (Block("x", (1, 2), 2.0, 3.0, "free"), Block("y", (1, 2), 2.0, 3.0, "chain")))
    for cells in ((light, heavy), (heavy, light), (light, heavy, light)):
        model = PiecewiseUniformDensity(order=2, cells=cells)
        events = [PatternCoincidence(), *orthant_events([(0.5, 0.5, 0.5, 0.5)])]
        for n in COUNTS:
            assert (pw.sample(model, n, 1) < 2.0).all()
            assert_same_draws(model, events, n, 1)


# -- memory --------------------------------------------------------------------------------


def test_monte_carlo_on_a_large_cell_peaks_far_below_its_draw_columns():
    # One (16, 10**6) array of draws alone would take 122 MiB.
    cell = Cell(1.0, (Block("x", tuple(range(1, 9)), 0.0, 1.0, "free"), Block("y", tuple(range(1, 9)), 0.0, 1.0, "free")))
    model = PiecewiseUniformDensity(order=8, cells=(cell,))
    tracemalloc.start()
    try:
        pw.mc_probability(model, PatternCoincidence(), 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak


# -- errors --------------------------------------------------------------------------------


def test_errors_match_the_former_bodies():
    model = SHIPPED["counterexample_f"]
    order1 = PiecewiseUniformDensity(order=1, cells=(Cell(1.0, (Block("x", (1,), 0.0, 1.0, "free"),
                                                            Block("y", (1,), 0.0, 1.0, "free"))),))
    cases = [
        (model, PatternCoincidence(), 0, 1),
        (model, PatternCoincidence(), -3, 1),
        (model, PatternCoincidence(), 10, -1),
        (model, PatternCoincidence(), 10, "x"),
        (model, "coincidence", 10, 1),
        (model, LowerOrthant((0.5, 0.5, 0.5)), 10, 1),
        (model, UpperOrthant((0.5,) * 5), 10, 1),
        (model, LowerOrthant((math.nan, 0.5, 0.5, 0.5)), 10, 1),
        (order1, PatternCoincidence(), 10, 1),
        (model, "coincidence", 0, 1),
        (model, LowerOrthant((0.5,)), 10, -1),
    ]
    for model_, event, n, seed in cases:
        expected = outcome(oracle_mc_probability, model_, event, n, seed)
        assert isinstance(expected[0], str)
        assert outcome(pw.mc_probability, model_, event, n, seed) == expected
    for n, seed in ((0, 1), (-3, 1), (10, -1), (10, "x")):
        expected = outcome(oracle_sample, model, n, seed)
        assert isinstance(expected[0], str)
        assert outcome(pw.sample, model, n, seed) == expected


def _free_cells(*value_and_length):
    """One cell per (value, length) pair, each a free block of both positions on each axis."""
    return PiecewiseUniformDensity(order=2, cells=tuple(
        Cell(value, (Block("x", (1, 2), 0.0, length, "free"), Block("y", (1, 2), 0.0, length, "free")))
        for value, length in value_and_length
    ))


@pytest.mark.parametrize(
    "model, error, message",
    [
        # value * length ** 4 underflows to 0.0.
        (_free_cells((1e-300, 1e-10)), ZeroMassCondition, r"^the cells' total mass is 0\.0; "),
        # value * length ** 4 overflows to inf.
        (_free_cells((1e308, 10.0)), ModelStructureError, r"^the cells' total mass overflows; "),
        # 1.0 * (1e200) ** 4 overflows the float range.
        (_free_cells((1.0, 1e200)), ModelStructureError, r"^the cells' total mass overflows; "),
        # Each mass is finite and their sum overflows.
        (_free_cells((1e307, 2.0), (1e307, 2.0)), ModelStructureError, r"^the cells' total mass overflows; "),
    ],
)
def test_a_total_mass_out_of_range_is_refused_without_a_warning(model, error, message):
    calls = [
        lambda: pw.sample(model, 5, 1),
        lambda: pw.mc_probability(model, PatternCoincidence(), 5, 1),
        lambda: pw.mc_probability(model, LowerOrthant((0.5,) * 4), 5, 1),
        lambda: pw.pattern_terms(model),
        lambda: pw.marginal_pattern_distribution(model, "y"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(error, match=message):
                call()


@pytest.mark.parametrize("n", [True, False, 2.5, 3.0, "3", None, np.float64(4.0), np.bool_(True)])
def test_a_count_that_is_not_an_integer_is_refused_by_both_engines(n):
    model = SHIPPED["counterexample_f"]
    law = load_model(MODELS / "example43_law.json")
    calls = [
        lambda: pw.sample(model, n, 1),
        lambda: pw.mc_probability(model, PatternCoincidence(), n, 1),
        lambda: disc.sample(law, n, 1),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter, match=r"^n must be an integer >= 1, got "):
            call()


def test_a_numpy_integer_count_draws_as_a_python_one():
    model = SHIPPED["counterexample_f"]
    law = load_model(MODELS / "example43_law.json")
    assert pw.sample(model, np.int64(17), 2).tobytes() == pw.sample(model, 17, 2).tobytes()
    event = LowerOrthant((0.5,) * 4)
    assert repr(pw.mc_probability(model, event, np.int32(17), 2)) == repr(pw.mc_probability(model, event, 17, 2))
    assert disc.sample(law, np.int64(5), 2) == disc.sample(law, 5, 2)


@pytest.mark.parametrize("seed", [np.int64(2), np.uint64(2), np.int8(2), np.uint64(2**40 + 7)])
def test_a_numpy_integer_seed_draws_as_the_equal_python_one(seed):
    model = SHIPPED["counterexample_f"]
    law = load_model(MODELS / "example43_law.json")
    same = int(seed)
    assert pw.sample(model, 17, seed).tobytes() == pw.sample(model, 17, same).tobytes()
    for event in (PatternCoincidence(), LowerOrthant((0.5,) * 4)):
        assert repr(pw.mc_probability(model, event, 17, seed)) == repr(pw.mc_probability(model, event, 17, same))
    assert disc.sample(law, 5, seed) == disc.sample(law, 5, same)


@pytest.mark.parametrize("seed", [np.bool_(True), np.bool_(False), True, np.int64(-1), np.int8(-3), -1, 1.0, np.float64(2.0)])
def test_a_seed_that_is_not_a_nonnegative_integer_is_refused_by_both_engines(seed):
    model = SHIPPED["counterexample_f"]
    law = load_model(MODELS / "example43_law.json")
    calls = [
        lambda: pw.sample(model, 3, seed),
        lambda: pw.mc_probability(model, PatternCoincidence(), 3, seed),
        lambda: disc.sample(law, 3, seed),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter, match=r"^seed must be a nonnegative integer, got "):
            call()
