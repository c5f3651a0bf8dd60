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

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

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


_FLOAT = frozenset({float})


def _float_tuple(values: Sequence[float]) -> tuple[float, ...]:
    # A tuple of floats is already converted; keeping it saves a copy.
    if type(values) is tuple and _FLOAT.issuperset(map(type, values)):
        return values
    return tuple(map(float, values))


@dataclass(frozen=True)
class TimeSeriesPair:
    """Two real-valued series observed on the same time axis.

    Entries may be NaN or infinite; such values invalidate the windows that
    contain them.  The two series must be equally long and nonempty.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __init__(self, x: Sequence[float], y: Sequence[float]) -> None:
        xs = _float_tuple(x)
        ys = _float_tuple(y)
        if not xs or not ys:
            raise EmptyInput("both series must be nonempty")
        if len(xs) != len(ys):
            raise DimensionMismatch(f"series lengths differ: {len(xs)} vs {len(ys)}")
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


def empirical_opd(pair: TimeSeriesPair, d: int, step: int = 1) -> OpdEstimate:
    """Plug-in dependence estimate for a pair of series.

    A window offset enters the computation only if the x window and the y
    window at that offset are both finite, so coincidence, both marginal
    pattern frequencies, and the cross term are all estimated on the same
    window set.

    Raises:
        OrderTooSmall / OrderTooLarge: d outside [2, 8].
        SeriesTooShort: no window of order d fits the series.
        EmptyInput: every window offset was skipped.
        DegenerateDistribution: the empirical cross term equals 1 within 1e-12.
    """
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
    coincidence = sum(map(operator.eq, x_patterns, y_patterns)) / n
    px = distribution_from_counts(d, Counter(x_patterns))
    py = distribution_from_counts(d, Counter(y_patterns))
    cross = cross_match_probability(px, py)
    return OpdEstimate(
        value=dependence_from_terms(coincidence, cross),
        coincidence=coincidence,
        cross_term=cross,
        window_count=n,
        skipped_windows=skipped,
    )
