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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, EmptyInput, OpdepError, SeriesTooShort
from .patterns import (
    Pattern,
    _check_order,
    _integer,
    cross_match_probability,
    dependence_from_terms,
    distribution_from_counts,
    pattern_of,
)
from .records import Record


# Window offsets whose values are boxed into Python floats at a time.  When
# step > d a chunk takes fewer, so that it spans at most _CHUNK values.
_CHUNK = 2**12


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


def _check_lengths(xs: np.ndarray, ys: np.ndarray) -> None:
    if len(xs) != len(ys):
        raise DimensionMismatch(f"series lengths differ: {len(xs)} vs {len(ys)}")


def _block(x: Iterable[float], y: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """One ``(x, y)`` block of a series pair, converted and checked as a pair's series
    are, except that it may be empty."""
    xs = _read_only_floats(x)
    ys = _read_only_floats(y)
    _check_lengths(xs, ys)
    return xs, ys


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
        _check_lengths(xs, ys)
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)

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


def _count_blocks(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], d: int, step: int, x_counts: Counter, y_counts: Counter
) -> tuple[int, int, int]:
    """Count the windows of a series pair fed as ``(x, y)`` float64 blocks in series order.

    Every offset 0, step, 2*step, ... whose window fits in the series is
    counted once, through ``_count_windows`` and ``_CHUNK`` offsets at a
    time, or ``_CHUNK // step`` (at least one) when ``step > d``, so
    that a chunk spans at most ``_CHUNK`` values.  Between blocks only
    the values from the next offset on are carried, fewer than d, or, when
    ``step > d`` puts that offset past the end of a block, the number of
    values still to skip.  A block with no
    carry is counted in place.  Returns the series length, the number of
    offsets, and how many windows show equal patterns.
    """
    per_chunk = _CHUNK if step <= d else max(1, _CHUNK // step)
    length = offsets = equal = skip = 0
    carry_x = carry_y = np.empty(0)
    for x, y in blocks:
        length += len(x)
        if skip >= len(x):
            skip -= len(x)
            continue
        if carry_x.size:
            x = np.concatenate((carry_x, x))
            y = np.concatenate((carry_y, y))
        x, y = x[skip:], y[skip:]
        starts = range(0, len(x) - d + 1, step)
        for first in range(0, len(starts), per_chunk):
            chunk = starts[first : first + per_chunk]
            values = slice(chunk[0], chunk[-1] + d)
            equal += _count_windows(x[values], y[values], d, step, x_counts, y_counts)
        offsets += len(starts)
        following = len(starts) * step
        skip = max(following - len(x), 0)
        carry_x, carry_y = x[following:].copy(), y[following:].copy()
    return length, offsets, equal


def empirical_opd(
    series: TimeSeriesPair | Iterable[tuple[Iterable[float], Iterable[float]]], d: int, step: int = 1
) -> OpdEstimate:
    """Plug-in dependence estimate for a pair of series.

    ``series`` is a ``TimeSeriesPair`` or an iterable of ``(x, y)`` blocks
    that, joined in order, make up the two series.  Each block is converted
    and checked as a pair's series are, but may be empty, and is counted as
    it arrives, so a series read block by block is never held whole.  A
    pair is counted as one block.

    A window offset enters the computation only if the x window and the y
    window at that offset are both finite, so coincidence, both marginal
    pattern frequencies, and the cross term are all estimated on the same
    window set.  Windows are counted one chunk at a time, at most
    ``_CHUNK`` offsets spanning at most ``_CHUNK * d`` values, or at most
    ``_CHUNK`` values when ``step > d``, so besides the input the memory
    used stays bounded in the series length and the step.

    Raises:
        Any error of a block, or of the iterable yielding it, first.
        OrderTooSmall / OrderTooLarge: d outside [2, 8].
        InvalidParameter: step not an integer >= 1.
        EmptyInput: the blocks hold no values.
        SeriesTooShort: no window of order d fits the series.
        EmptyInput: every window offset was skipped.
        DegenerateDistribution: the empirical cross term equals 1 within 1e-12.
    """
    # A pair is told from blocks by not being iterable: perfbench/tracer.py
    # rebinds the name TimeSeriesPair in this module to a function.
    if isinstance(series, Iterable):
        blocks = (_block(x, y) for x, y in series)
    else:
        blocks = ((series.x, series.y),)
    try:
        _check_order(d)
        step = _integer(step, "step", 1)
    except OpdepError:
        for _ in blocks:
            pass
        raise
    x_counts: Counter[Pattern] = Counter()
    y_counts: Counter[Pattern] = Counter()
    length, offsets, equal = _count_blocks(blocks, d, step, x_counts, y_counts)
    if not length:
        raise EmptyInput("both series must be nonempty")
    if length < d:
        raise SeriesTooShort(f"series of length {length} has no window of order {d}")
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
        skipped_windows=offsets - n,
    )
