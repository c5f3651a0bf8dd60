"""Estimator: hand-enumerated window oracles, gap handling, invariances."""

import math
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdep.discrete import DiscreteJoint, exact_opd
from opdep.errors import (
    DegenerateDistribution,
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    OrderTooLarge,
    OrderTooSmall,
    SeriesTooShort,
)
from opdep.estimator import TimeSeriesPair, empirical_opd
from opdep.patterns import index_to_pattern, pattern_codes

NAN = math.nan


def test_pair_validation():
    with pytest.raises(EmptyInput):
        TimeSeriesPair([], [])
    with pytest.raises(DimensionMismatch):
        TimeSeriesPair([1.0, 2.0], [1.0])
    pair = TimeSeriesPair([1, 2], [3, 4])
    assert tuple(pair.x) == (1.0, 2.0) and len(pair) == 2


def test_pair_holds_read_only_float64_arrays_and_converts_other_input():
    xs, ys = (1.0, NAN), (2.5, -0.0)
    pair = TimeSeriesPair(xs, ys)
    for values, array in ((xs, pair.x), (ys, pair.y)):
        assert type(array) is np.ndarray and array.dtype == np.float64 and array.ndim == 1
        assert not array.flags.writeable
        assert struct.pack("<2d", *values) == array.tobytes()
    # A float64 array is copied, so writing to it leaves the pair as it was.
    column = np.array([1.0, 2.0])
    pair = TimeSeriesPair(column, column)
    column[0] = 5.0
    assert tuple(pair.x) == (1.0, 2.0) and pair.x is not pair.y
    # Ints, float subclasses, lists, generators and other arrays are converted value for value.
    for raw in ((1, 2.0), (np.float64(1.0), 2.0), [1.0, 2.0], (v for v in (1, 2)), np.array([1, 2])):
        x = TimeSeriesPair(raw, (3.0, 4.0)).x
        assert tuple(x) == (1.0, 2.0) and x.dtype == np.float64
    with pytest.raises(TypeError, match="not 'NoneType'"):
        TimeSeriesPair((1.0, None), (1.0, 2.0))
    with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
        TimeSeriesPair((1.0, "a"), (1.0, 2.0))
    with pytest.raises(TypeError, match="not iterable"):
        TimeSeriesPair(1.0, (1.0,))


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1 / 3]


@pytest.mark.parametrize(
    "array",
    [
        np.array([2**63 - 1, -(2**63 - 1), -(2**63), 2**53 + 1, -(2**53 + 1), 0], dtype=np.int64),
        np.array([2**64 - 1, 2**53 + 1, 0], dtype=np.uint64),
        np.array([-128, 127], dtype=np.int8),
        np.array(SPECIALS + [65504.0], dtype=np.float16),
        np.array(SPECIALS + [3.4e38], dtype=np.float32),
        np.array(SPECIALS + [1e308], dtype=np.longdouble),
        np.array(SPECIALS, dtype=">f8"),
        np.array([True, False, True]),
    ],
    ids=lambda array: array.dtype.str,
)
def test_a_numeric_array_is_cast_to_the_floats_float_gives(array):
    pair = TimeSeriesPair(array, array)
    expected = np.fromiter(map(float, array), float).tobytes()
    assert pair.x.tobytes() == expected and pair.y.tobytes() == expected
    assert not pair.x.flags.writeable and pair.x.dtype == np.float64


def test_sliding_patterns_hand_enumeration():
    # windows: (1,2)->(1,2), (2,3)->(1,2), (3,2)->(2,1), (2,1)->(2,1)
    series = [1, 2, 3, 2, 1]
    windows = [series[t : t + 2] for t in range(len(series) - 1)]
    patterns = [index_to_pattern(int(c), 2) for c in pattern_codes(windows)]
    assert patterns == [(1, 2), (1, 2), (2, 1), (2, 1)]


def test_empirical_opd_fully_coincident_pair():
    # Four windows, all pattern-coincident, half of each pattern:
    # coincidence 1, cross term 1/2, value (1 - 1/2) / (1 - 1/2) = 1.
    pair = TimeSeriesPair([1, 2, 3, 2, 1], [2, 3, 4, 1, 0])
    est = empirical_opd(pair, d=2)
    assert est.value == 1.0
    assert est.coincidence == 1.0
    assert est.cross_term == 0.5
    assert est.window_count == 4
    assert est.skipped_windows == 0


def test_empirical_opd_hand_case_mixed():
    # x windows: (1,2),(1,2),(2,1); y windows: (1,2),(2,1),(1,2)
    # coincidence 1/3; px=(2/3,1/3), py=(2/3,1/3); cross=5/9
    # value = (1/3 - 5/9) / (1 - 5/9) = -0.5
    pair = TimeSeriesPair([0, 1, 2, 0], [1, 2, 0, 5])
    est = empirical_opd(pair, d=2)
    assert est.coincidence == pytest.approx(1 / 3, abs=1e-15)
    assert est.cross_term == pytest.approx(5 / 9, abs=1e-15)
    assert est.value == pytest.approx(-0.5, abs=1e-15)


def test_empirical_opd_common_window_set():
    # NaN in x at index 2 and in y at index 5: of the six offsets only
    # 0 and 3 have both windows finite.
    x = [1, 2, NAN, 4, 3, 6, 7]
    y = [1, 0, 3, 4, 5, NAN, 2]
    est = empirical_opd(TimeSeriesPair(x, y), d=2)
    assert est.window_count == 2
    assert est.skipped_windows == 4
    assert est.coincidence == 0.0
    assert est.value == -1.0


def test_empirical_opd_errors():
    with pytest.raises(SeriesTooShort):
        empirical_opd(TimeSeriesPair([1], [1]), d=2)
    with pytest.raises(EmptyInput):
        empirical_opd(TimeSeriesPair([1, NAN, 3], [1, 2, NAN]), d=2)
    with pytest.raises(DegenerateDistribution):
        empirical_opd(TimeSeriesPair([1, 2, 3, 4], [4, 5, 6, 7]), d=2)


def test_empirical_opd_too_short_or_zero_step():
    with pytest.raises(SeriesTooShort):
        empirical_opd(TimeSeriesPair([1.0, 2.0], [2.0, 1.0]), d=3)
    with pytest.raises(InvalidParameter):
        empirical_opd(TimeSeriesPair([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]), d=2, step=0)


def test_block_input_is_checked_as_a_pair_is():
    assert empirical_opd([([1, 2], (2.0, 1.0)), ([], []), (np.array([3, 0]), [3.0, 4.0])], d=2) == empirical_opd(
        TimeSeriesPair([1, 2, 3, 0], [2, 1, 3, 4]), d=2
    )
    with pytest.raises(DimensionMismatch, match="^series lengths differ: 2 vs 1$"):
        empirical_opd([([1.0, 2.0], [1.0, 2.0]), ([1.0, 2.0], [1.0])], d=2)
    with pytest.raises(ValueError, match="could not convert"):
        empirical_opd([([1.0, "a"], [1.0, 2.0])], d=2)
    with pytest.raises(EmptyInput, match="^both series must be nonempty$"):
        empirical_opd([([], []), ([], [])], d=2)
    with pytest.raises(SeriesTooShort, match="^series of length 2 has no window of order 3$"):
        empirical_opd([([1.0], [2.0]), ([2.0], [1.0])], d=3)


@pytest.mark.parametrize("d, step", [(1, 1), (9, 1), (2, 0)])
def test_a_block_error_comes_before_an_order_or_step_error(d, step):
    def blocks():
        yield [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]
        raise InvalidParameter("row 4 is bad")

    with pytest.raises(InvalidParameter, match="^row 4 is bad$"):
        empirical_opd(blocks(), d=d, step=step)
    with pytest.raises(DimensionMismatch):
        empirical_opd([([1.0, 2.0], [1.0])], d=d, step=step)
    # With good blocks the order or step error is raised.
    with pytest.raises((OrderTooSmall, OrderTooLarge, InvalidParameter)):
        empirical_opd(iter([([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])]), d=d, step=step)


@pytest.mark.parametrize("length", [3, 10])
@pytest.mark.parametrize("d", [-5, -1, 0, 1, 9])
def test_empirical_opd_names_the_order_it_was_given(d, length):
    # The order is checked before any window is cut, so the error names d
    # itself, whatever the series length.
    pair = TimeSeriesPair([float(i) for i in range(length)], [float(-i) for i in range(length)])
    with pytest.raises(OrderTooSmall if d < 2 else OrderTooLarge, match=f"^order {d} "):
        empirical_opd(pair, d=d)


def test_empirical_opd_ties_break_toward_earlier_index():
    # x windows (1,1) and (1,0) have patterns (1,2) and (2,1), as do the y
    # windows (0,1) and (1,0).  Ranking ties toward the later index would
    # give x the patterns (2,1), (2,1): coincidence 1/2 and value 0.
    est = empirical_opd(TimeSeriesPair([1, 1, 0], [0, 1, 0]), d=2)
    assert est.coincidence == 1.0
    assert est.cross_term == 0.5
    assert est.value == 1.0


def test_empirical_opd_step_offsets():
    # step=2 uses offsets 0 and 2 (offset 4 does not fit).  There both
    # series show (1,2) then (2,1); offsets 0,1 or 1,3 would give 1/2.
    est = empirical_opd(TimeSeriesPair([1, 2, 3, 2, 1], [1, 2, 1, 0, -1]), d=2, step=2)
    assert est.window_count == 2
    assert est.skipped_windows == 0
    assert est.coincidence == 1.0
    assert est.value == 1.0


def test_empirical_opd_skips_non_finite_windows():
    # Offsets 0..3; the x windows at 1 and 2 touch the NaN.  The offsets
    # left, 0 and 3, give x (1,2), (1,2) and y (2,1), (1,2).
    est = empirical_opd(TimeSeriesPair([1, 2, NAN, 4, 5], [2, 1, 3, 4, 5]), d=2)
    assert est.window_count == 2
    assert est.skipped_windows == 2
    assert est.coincidence == 0.5
    assert est.cross_term == 0.5
    assert est.value == 0.0


def test_estimate_invariant_under_increasing_transforms_bit_for_bit():
    x = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9]
    y = [2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4]
    base = empirical_opd(TimeSeriesPair(x, y), d=3)
    for transform in (lambda t: 3.0 * t + 1.0, lambda t: float(t) ** 3, math.atan):
        mapped = empirical_opd(
            TimeSeriesPair([transform(v) for v in x], [transform(v) for v in y]), d=3
        )
        assert mapped == base


series = st.lists(st.integers(min_value=-9, max_value=9), min_size=6, max_size=40)


@settings(max_examples=200, derandomize=True)
@given(series, series)
def test_estimate_terms_are_probabilities(xs, ys):
    n = min(len(xs), len(ys))
    pair = TimeSeriesPair(xs[:n], ys[:n])
    try:
        est = empirical_opd(pair, d=2)
    except DegenerateDistribution:
        return
    assert 0.0 <= est.coincidence <= 1.0
    assert 0.0 < est.cross_term <= 1.0
    assert est.value <= 1.0
    assert est.window_count == n - 1
    assert est.skipped_windows == 0
    # determinism
    assert empirical_opd(pair, d=2) == est


# Four values, so windows tie often, and gaps rarer than values.
lattice_values = st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0] * 3 + [NAN, math.inf]), min_size=6, max_size=24)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.tuples(lattice_values, lattice_values).map(lambda xy: (xy[0][: len(xy[1])], xy[1][: len(xy[0])])),
    st.integers(2, 4),
    st.integers(1, 3),
)
def test_estimate_is_the_exact_dependence_of_the_window_law(xy, d, step):
    """The estimate is the exact dependence of the law that puts mass count/n on each distinct window pair."""
    x, y = xy
    windows = Counter(
        tuple(x[s : s + d] + y[s : s + d])
        for s in range(0, len(x) - d + 1, step)
        if all(map(math.isfinite, x[s : s + d] + y[s : s + d]))
    )
    n = sum(windows.values())
    if not n:
        with pytest.raises((EmptyInput, SeriesTooShort)):
            empirical_opd(TimeSeriesPair(x, y), d, step)
        return
    law = DiscreteJoint(order=d, atoms={window: count / n for window, count in windows.items()})
    outcomes = []
    for estimate in (lambda: empirical_opd(TimeSeriesPair(x, y), d, step).value, lambda: exact_opd(law)):
        try:
            outcomes.append(estimate())
        except DegenerateDistribution:
            outcomes.append(None)
    if None in outcomes:
        assert outcomes == [None, None]
    else:
        assert abs(outcomes[0] - outcomes[1]) <= 1e-12


def test_empirical_opd_memory_does_not_grow_with_the_series():
    def peak(n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        pair = TimeSeriesPair(x, x + rng.standard_normal(n))
        tracemalloc.start()
        try:
            # At step 4, 10^5 points fill six chunks of window offsets and part of a seventh.
            empirical_opd(pair, d=5, step=4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**5), peak(4 * 10**5)
    assert large - small < 2**20, (small, large)


def test_empirical_opd_memory_does_not_grow_with_a_step_above_the_order():
    rng = np.random.default_rng(16)
    x = rng.standard_normal(2**16)
    y = x + rng.standard_normal(2**16)

    def peak(step):
        tracemalloc.start()
        try:
            # One block, so the peak holds its float64 copies and one chunk's boxed values.
            empirical_opd([(x, y)], d=3, step=step)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) <= peak(1)
