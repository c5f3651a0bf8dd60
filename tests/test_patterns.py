"""Ordinal core: oracle comparisons, bijections, and invariances."""

import math
import re

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

from opdep.errors import (
    DegenerateDistribution,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    InvalidParameter,
    InvalidPermutation,
    ModelStructureError,
    NonFiniteInput,
    OrderTooLarge,
    OrderTooSmall,
)
from opdep.discrete import DiscreteJoint, conditional, marginal, subset_coordinates
from opdep.estimator import TimeSeriesPair, empirical_opd
from opdep.patterns import (
    PatternDistribution,
    cross_match_probability,
    dependence_from_terms,
    distribution_from_counts,
    enumerate_patterns,
    index_to_pattern,
    pattern_codes,
    pattern_index,
    pattern_of,
    rank_table,
)
from opdep.piecewise import Block, PiecewiseUniformDensity, coordinate_index


def oracle_pattern(values):
    """Rank by definition: one plus the count of strictly smaller values,
    counting equal values only at earlier indices."""
    return tuple(
        1 + sum(1 for j, w in enumerate(values) if w < v or (w == v and j < i))
        for i, v in enumerate(values)
    )


windows = st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=8)
float_windows = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=8
)


@settings(max_examples=300, derandomize=True)
@given(windows)
def test_pattern_matches_oracle_on_tied_integers(values):
    assert pattern_of(values) == oracle_pattern(values)


@settings(max_examples=300, derandomize=True)
@given(float_windows)
def test_pattern_matches_oracle_on_floats(values):
    assert pattern_of(values) == oracle_pattern(values)


@settings(max_examples=200, derandomize=True)
@given(windows)
def test_pattern_is_a_permutation(values):
    pat = pattern_of(values)
    assert sorted(pat) == list(range(1, len(values) + 1))


@pytest.mark.parametrize("d", range(2, 9))
def test_constant_window_gets_identity_pattern(d):
    assert pattern_of([3.5] * d) == tuple(range(1, d + 1))


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=2, max_size=8))
def test_strictly_increasing_transforms_preserve_patterns(values):
    base = pattern_of(values)
    for transform in (lambda t: 3.0 * t + 1.0, lambda t: float(t) ** 3, math.atan):
        assert pattern_of([transform(v) for v in values]) == base


@settings(max_examples=200, derandomize=True)
@given(st.permutations(list(range(8))), st.integers(min_value=2, max_value=8))
def test_negation_reverses_ranks_on_distinct_values(perm, d):
    values = [float(v) for v in perm[:d]]
    pat = pattern_of(values)
    flipped = pattern_of([-v for v in values])
    assert flipped == tuple(d + 1 - r for r in pat)


@pytest.mark.parametrize("d", range(2, 7))
def test_enumeration_is_lexicographic_distinct_and_complete(d):
    pats = enumerate_patterns(d)
    assert len(pats) == math.factorial(d)
    assert len(set(pats)) == len(pats)
    assert list(pats) == sorted(pats)
    assert pats[0] == tuple(range(1, d + 1))
    assert pats[-1] == tuple(range(d, 0, -1))


@pytest.mark.parametrize("d", range(2, 7))
def test_index_and_pattern_are_mutually_inverse(d):
    pats = enumerate_patterns(d)
    for k, pat in enumerate(pats):
        assert pattern_index(pat) == k
        assert index_to_pattern(k, d) == pat


def test_index_errors():
    with pytest.raises(IndexOutOfRange):
        index_to_pattern(-1, 3)
    with pytest.raises(IndexOutOfRange):
        index_to_pattern(6, 3)
    with pytest.raises(InvalidPermutation):
        pattern_index((1, 3))
    with pytest.raises(InvalidPermutation):
        pattern_index((1, 1, 2))


def test_order_bounds():
    with pytest.raises(OrderTooSmall):
        pattern_of([1.0])
    with pytest.raises(OrderTooLarge):
        pattern_of(list(range(9)))
    with pytest.raises(OrderTooSmall):
        enumerate_patterns(1)
    with pytest.raises(OrderTooLarge):
        enumerate_patterns(9)


@pytest.mark.parametrize("order", [2.0, 2.5, np.float64(3.0), "2", None])
def test_order_that_is_not_an_integer_is_an_invalid_parameter(order):
    pair = TimeSeriesPair([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    # A table cached for an integer order does not answer for an equal float.
    rank_table(2)
    rank_table(3)
    calls = (
        lambda: enumerate_patterns(order),
        lambda: rank_table(order),
        lambda: empirical_opd(pair, d=order),
        lambda: DiscreteJoint(order, {(0.0, 1.0): 1.0}),
        lambda: PiecewiseUniformDensity(order, ()),
    )
    for call in calls:
        with pytest.raises(InvalidParameter, match="^order must be an integer, got "):
            call()


def _integer_argument_calls():
    """One call per integer argument other than an order, taking the argument's value."""
    pair = TimeSeriesPair([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    law = DiscreteJoint(2, {(0.0, 1.0, 2.0, 3.0): 0.5, (1.0, 0.0, 3.0, 2.0): 0.5})
    return {
        "step": ("step", lambda v: empirical_opd(pair, 2, step=v)),
        "marginal position": ("position", lambda v: marginal(law, (v,))),
        "conditional position": ("position", lambda v: conditional(law, (v,), (0.0, 2.0))),
        "block position": ("position", lambda v: Block("x", (v,), 0.0, 1.0, "free")),
        "pattern index": ("index", lambda v: index_to_pattern(v, 3)),
        "coordinate index position": ("position", lambda v: coordinate_index(2, "x", v)),
        "subset coordinates position": ("position", lambda v: subset_coordinates(2, (v,))),
    }


@pytest.mark.parametrize("value", [1.5, 2.0, np.float64(1.0), "2", None])
@pytest.mark.parametrize("argument", list(_integer_argument_calls()))
def test_an_integer_argument_that_is_not_an_integer_is_an_invalid_parameter(argument, value):
    name, call = _integer_argument_calls()[argument]
    with pytest.raises(InvalidParameter, match=f"^{name} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("argument", list(_integer_argument_calls()))
def test_an_integer_argument_takes_any_integer_type(argument):
    _, call = _integer_argument_calls()[argument]
    assert call(np.int64(1)) == call(1)


def test_a_position_keeps_its_range_error():
    with pytest.raises(ModelStructureError, match=r"^position 3 outside 1\.\.2$"):
        coordinate_index(2, "y", 3)
    with pytest.raises(ModelStructureError, match="^axis must be one of "):
        coordinate_index(2, "z", 1.5)
    assert coordinate_index(2, "y", np.int64(2)) == 3


def test_integer_orders_of_other_types_are_checked_as_before():
    assert enumerate_patterns(np.int64(3)) == enumerate_patterns(3)
    assert rank_table(np.int8(2)).tolist() == [[1, 2], [2, 1]]
    with pytest.raises(OrderTooSmall, match="^order True is below the minimum of 2$"):
        enumerate_patterns(True)
    with pytest.raises(OrderTooLarge, match="^order 9 exceeds the maximum of 8$"):
        rank_table(np.int64(9))


def test_rank_table_rows_are_indexed_patterns():
    for d in range(2, 7):
        table = rank_table(d)
        assert table.shape == (math.factorial(d), d)
        assert [tuple(row) for row in table.tolist()] == list(enumerate_patterns(d))
    table = rank_table(8)
    for k in (0, 1, 719, 5040, 20000, 40319):
        assert tuple(table[k].tolist()) == index_to_pattern(k, 8)
    assert rank_table(8) is table
    assert not table.flags.writeable
    with pytest.raises(OrderTooSmall):
        rank_table(1)
    with pytest.raises(OrderTooLarge):
        rank_table(9)


tied_window_rows = st.integers(min_value=2, max_value=8).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3).map(float), min_size=d, max_size=d),
        min_size=1,
        max_size=20,
    )
)


@settings(max_examples=300, derandomize=True)
@given(tied_window_rows)
def test_pattern_codes_match_pattern_index_on_tied_windows(rows):
    codes = pattern_codes(rows)
    assert codes.tolist() == [pattern_index(pattern_of(row)) for row in rows]


def oracle_pattern_codes(w):
    """Former ``pattern_codes`` body: one strided comparison block per position."""
    d = w.shape[1]
    codes = np.zeros(w.shape[0], dtype=np.int64)
    for i in range(d - 1):
        smaller_after = np.count_nonzero(w[:, i + 1 :] < w[:, i : i + 1], axis=1)
        codes += smaller_after * math.factorial(d - 1 - i)
    return codes


# Few distinct values, so most windows hold ties; 0.0 and -0.0 are a tie too.
signed_zero_tie_arrays = st.integers(min_value=2, max_value=8).flatmap(
    lambda d: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), min_size=d, max_size=d),
        min_size=0,
        max_size=40,
    ).map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), d))
)


@settings(max_examples=300, derandomize=True)
@given(signed_zero_tie_arrays)
def test_pattern_codes_match_the_former_body_bit_for_bit(w):
    codes = pattern_codes(w)
    expected = oracle_pattern_codes(w)
    assert codes.dtype == expected.dtype == np.int64
    assert codes.shape == (w.shape[0],)
    assert np.array_equal(codes, expected)


def test_pattern_codes_match_the_former_body_on_wide_and_empty_batches():
    rng = np.random.default_rng(5)
    for d in range(2, 9):
        w = rng.integers(-2, 3, size=(5000, d)).astype(float)
        w[rng.random(w.shape) < 0.2] = -0.0
        # A non-contiguous view, as the discrete engine passes its x and y halves.
        halves = np.hstack([w, w[:, ::-1]])[:, :d]
        for batch in (w, halves, w[:0], w[::-3]):
            assert np.array_equal(pattern_codes(batch), oracle_pattern_codes(batch))


def test_pattern_codes_validation():
    assert pattern_codes(np.empty((0, 4))).tolist() == []
    with pytest.raises(DimensionMismatch):
        pattern_codes([1.0, 2.0, 3.0])
    with pytest.raises(OrderTooSmall):
        pattern_codes([[1.0], [2.0]])
    with pytest.raises(OrderTooLarge):
        pattern_codes([list(range(9))])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteInput):
            pattern_codes([[1.0, 2.0], [1.0, bad]])


def test_non_finite_values_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteInput):
            pattern_of([1.0, bad])


def test_distribution_validation():
    with pytest.raises(ModelStructureError):
        PatternDistribution(order=2, probs=(0.5, 0.6))
    with pytest.raises(ModelStructureError):
        PatternDistribution(order=2, probs=(1.0,))
    with pytest.raises(ModelStructureError):
        PatternDistribution(order=2, probs=(-0.1, 1.1))
    dist = PatternDistribution(order=2, probs=(0.25, 0.75))
    assert dist.prob_of((1, 2)) == 0.25
    assert dist.as_dict() == {(1, 2): 0.25, (2, 1): 0.75}


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "probs, named",
    [
        ((NAN, 0.2, -0.1, 0.3, INF, 0.6), "nan"),
        ((0.2, 0.3, NAN, -0.1, 0.6, 0.0), "nan"),
        ((0.2, 0.3, 0.1, 0.4, 0.0, NAN), "nan"),
        ((0.2, INF, NAN, 0.3, -0.1, 0.0), "inf"),
        ((0.2, 0.3, 0.5, 0.0, 0.0, INF), "inf"),
        ((0.2, -INF, INF, NAN, 0.6, 0.0), "-inf"),
        ((-0.1, NAN, 0.4, 0.3, 0.2, 0.2), "-0.1"),
        ((0.5, 0.5, 0.1, 0.0, 0.0, -1e-300), "-1e-300"),
        # Bad entries behind finite ones whose sum overflows are still named.
        ((1e308, 1e308, NAN, 0.0, 0.0, 0.0), "nan"),
        ((1e308, 1e308, 0.0, -0.5, INF, 0.0), "-0.5"),
    ],
)
def test_distribution_names_its_first_invalid_entry(probs, named):
    with pytest.raises(ModelStructureError, match=f"^invalid probability {re.escape(named)}$"):
        PatternDistribution(order=3, probs=probs)


@pytest.mark.parametrize(
    "probs, total",
    [((0.5, 0.6), "1.1"), ((0.5, 0.5 + 2e-12), "1.000000000002"), ((0.5, 0.5 - 2e-12), "0.999999999998")],
)
def test_distribution_names_a_sum_off_by_more_than_1e_12(probs, total):
    with pytest.raises(ModelStructureError, match=f"^probabilities sum to {re.escape(total)}, not 1$"):
        PatternDistribution(order=2, probs=probs)


def test_distribution_of_finite_entries_whose_sum_overflows_raises_overflow_error():
    with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
        PatternDistribution(order=2, probs=(1e308, 1e308))
    with pytest.raises(OverflowError):
        PatternDistribution(order=3, probs=(0.0, 1e308, 0.0, 1e308, 0.0, 0.5))


def test_distribution_validation_sums_exactly_at_order_eight():
    # A running sum of these 8! entries is off by 1.6e-12; the exact sum is 1.
    n = math.factorial(8)
    probs = (0.9,) + (0.1 / (n - 1),) * (n - 1)
    assert abs(math.fsum(probs) - 1.0) <= 1e-12
    assert PatternDistribution(order=8, probs=probs).probs == probs


def test_distribution_from_counts_normalizes():
    dist = distribution_from_counts(2, {(1, 2): 3.0, (2, 1): 1.0})
    assert dist.probs == (0.75, 0.25)
    with pytest.raises(EmptyInput):
        distribution_from_counts(2, {})


@pytest.mark.parametrize("pattern", [(2, 1), (1, 2, 3, 4)])
def test_pattern_of_another_order_is_rejected(pattern):
    message = re.escape(f"pattern {pattern!r} is not of order 3")
    with pytest.raises(InvalidPermutation, match=message):
        distribution_from_counts(3, {pattern: 1.0})
    uniform = PatternDistribution(order=3, probs=(1.0 / 6,) * 6)
    with pytest.raises(InvalidPermutation, match=message):
        uniform.prob_of(pattern)


def test_cross_match_probability_uniform():
    for d in (2, 3, 4):
        n = math.factorial(d)
        uniform = PatternDistribution(order=d, probs=tuple(1.0 / n for _ in range(n)))
        assert math.isclose(cross_match_probability(uniform, uniform), 1.0 / n, abs_tol=1e-15)


def test_dependence_from_terms():
    assert dependence_from_terms(1.0, 0.5) == 1.0
    assert dependence_from_terms(0.5, 0.5) == 0.0
    assert dependence_from_terms(0.0, 0.375) == pytest.approx(-0.6, abs=1e-15)
    with pytest.raises(DegenerateDistribution):
        dependence_from_terms(1.0, 1.0)
    with pytest.raises(DegenerateDistribution):
        dependence_from_terms(1.0, 1.0 - 1e-13)
