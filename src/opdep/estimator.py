"""Empirical ordinal pattern dependence from paired time series.

Both series are cut into sliding windows of length d (offset ``step``),
each window is reduced to its ordinal pattern, and dependence is measured
as the excess probability that the two series show the same pattern in the
same window, over the coincidence an independent pair with the same
marginal pattern frequencies would produce:

    value = (coincidence - cross_term) / (1 - cross_term)

All three ingredients are plug-in estimates computed on one common window
set: a window offset is used only if both windows are fully finite, so NaN
or infinite samples mark gaps rather than poisoning the estimate.

Estimates are deterministic functions of the input (fixed left-to-right
summation, no randomness) and invariant, bit for bit, under strictly
increasing transformations applied to either series, because only patterns
enter the computation.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, EmptyInput, InvalidParameter, SeriesTooShort
from .patterns import (
    Pattern,
    _check_order,
    cross_match_probability,
    dependence_from_terms,
    distribution_from_counts,
    pattern_of,
)
from .records import Record


# Window offsets whose values are boxed into Python floats at a time.
_CHUNK = 2**14


def _read_only_floats(values: Iterable[float]) -> np.ndarray:
    """A read-only float64 copy of ``values``.

    A one-dimensional ndarray of bool, integer or real dtype is cast with
    ``astype``, which rounds as ``float()`` does; any other input is
    converted entry by entry with ``float()``, which raises its own errors.
    """
    if type(values) is np.ndarray and values.dtype.kind in "biuf" and values.ndim == 1:
        array = values.astype(np.float64)
    else:
        array = np.fromiter(map(float, values), dtype=np.float64)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class TimeSeriesPair:
    """Two real-valued series observed on the same time axis.

    ``x`` and ``y`` are read-only float64 arrays, 8 bytes per entry.
    Entries may be NaN or infinite; such values invalidate the windows that
    contain them.  The two series must be equally long and nonempty.  Pairs
    compare and hash by identity.
    """

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x: Iterable[float], y: Iterable[float]) -> None:
        xs = _read_only_floats(x)
        ys = _read_only_floats(y)
        if not xs.size or not ys.size:
            raise EmptyInput("both series must be nonempty")
        if len(xs) != len(ys):
            raise DimensionMismatch(f"series lengths differ: {len(xs)} vs {len(ys)}")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)

    @classmethod
    def _from_table(cls, table: np.ndarray) -> TimeSeriesPair:
        """A pair whose ``x`` and ``y`` view the columns of an ``(n, 2)`` float64
        table, n >= 1, which a bulk reader hands over and which is made read-only."""
        table.flags.writeable = False
        pair = cls.__new__(cls)
        object.__setattr__(pair, "x", table[:, 0])
        object.__setattr__(pair, "y", table[:, 1])
        return pair

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class OpdEstimate(Record):
    """Result of an empirical dependence computation.

    Attributes:
        value: the normalized dependence coefficient.
        coincidence: fraction of common windows with equal patterns.
        cross_term: coincidence an independent pair with the same empirical
            pattern frequencies would have.
        window_count: number of windows actually used.
        skipped_windows: offsets dropped because either window was not finite.
    """

    value: float
    coincidence: float
    cross_term: float
    window_count: int
    skipped_windows: int


def _window_offsets(length: int, d: int, step: int) -> range:
    if step < 1:
        raise InvalidParameter(f"step must be >= 1, got {step}")
    if length < d:
        raise SeriesTooShort(f"series of length {length} has no window of order {d}")
    return range(0, length - d + 1, step)


def _count_windows(
    x: np.ndarray, y: np.ndarray, d: int, step: int, x_counts: Counter, y_counts: Counter
) -> int:
    """Count the patterns of the common finite windows of ``x`` and ``y``, offsets ``step`` apart.

    One array test over the chunk picks the offsets whose x and y windows
    are both finite.  Adds the patterns to ``x_counts`` and ``y_counts`` and
    returns how many windows show equal patterns.  The values boxed into
    Python floats and the pattern lists are freed on return.
    """
    finite = np.isfinite(x) & np.isfinite(y)
    kept = sliding_window_view(finite, d)[::step].all(axis=1)
    xs = x.tolist()
    ys = y.tolist()
    x_patterns: list[Pattern] = []
    y_patterns: list[Pattern] = []
    # The starts are read off the boolean mask one at a time: an int64
    # array of them (flatnonzero) left about 1.7 MB more resident memory
    # after a run of estimates, through heap fragmentation.
    for start in itertools.compress(range(0, len(xs) - d + 1, step), kept):
        x_patterns.append(pattern_of(xs[start : start + d]))
        y_patterns.append(pattern_of(ys[start : start + d]))
    x_counts.update(x_patterns)
    y_counts.update(y_patterns)
    return sum(map(operator.eq, x_patterns, y_patterns))


def empirical_opd(pair: TimeSeriesPair, d: int, step: int = 1) -> OpdEstimate:
    """Plug-in dependence estimate for a pair of series.

    A window offset enters the computation only if the x window and the y
    window at that offset are both finite, so coincidence, both marginal
    pattern frequencies, and the cross term are all estimated on the same
    window set.  Windows are counted ``_CHUNK`` offsets at a time, so
    besides the pair the memory used stays bounded in the series length.

    Raises:
        OrderTooSmall / OrderTooLarge: d outside [2, 8].
        SeriesTooShort: no window of order d fits the series.
        EmptyInput: every window offset was skipped.
        DegenerateDistribution: the empirical cross term equals 1 within 1e-12.
    """
    _check_order(d)
    offsets = _window_offsets(len(pair), d, step)
    x_counts: Counter[Pattern] = Counter()
    y_counts: Counter[Pattern] = Counter()
    equal = 0
    for first in range(0, len(offsets), _CHUNK):
        chunk = offsets[first : first + _CHUNK]
        values = slice(chunk[0], chunk[-1] + d)
        equal += _count_windows(pair.x[values], pair.y[values], d, step, x_counts, y_counts)
    n = sum(x_counts.values())
    if not n:
        raise EmptyInput("no common finite window available")

    coincidence = equal / n
    px = distribution_from_counts(d, x_counts)
    py = distribution_from_counts(d, y_counts)
    cross = cross_match_probability(px, py)
    return OpdEstimate(
        value=dependence_from_terms(coincidence, cross),
        coincidence=coincidence,
        cross_term=cross,
        window_count=n,
        skipped_windows=len(offsets) - n,
    )
