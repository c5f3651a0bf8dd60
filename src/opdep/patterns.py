"""Ordinal patterns of fixed order and distributions over them.

A vector ``x = (x_1, ..., x_d)`` of reals is summarized by its ordinal
pattern: the tuple of ranks ``pi`` with ``pi_i < pi_j`` exactly when
``x_i < x_j``, or ``x_i == x_j`` and ``i < j``.  Ties are therefore broken
toward the earlier index, which makes the map total and deterministic; a
constant vector gets the identity pattern ``(1, 2, ..., d)``.

Patterns are represented directly as rank tuples, i.e. permutations of
``1..d``, and as integer codes, their lexicographic positions.  The
supported orders are ``2 <= d <= 8``; the pattern count d! stays small
enough for exact enumeration throughout the package.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
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

Pattern = tuple[int, ...]

MIN_ORDER = 2
MAX_ORDER = 8


def _integer(value: object, name: str, least: int | None = None) -> int:
    """``value`` read by ``operator.index``; InvalidParameter unless it is an integer >= ``least``."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}") from None
    if least is not None and n < least:
        raise InvalidParameter(f"{name} must be >= {least}, got {n}")
    return n


def _check_order(d: int) -> None:
    _integer(d, "order")
    if d < MIN_ORDER:
        raise OrderTooSmall(f"order {d} is below the minimum of {MIN_ORDER}")
    if d > MAX_ORDER:
        raise OrderTooLarge(f"order {d} exceeds the maximum of {MAX_ORDER}")


def pattern_of(values: Sequence[float]) -> Pattern:
    """Return the ordinal pattern (rank tuple) of a window of reals.

    Ranks run from 1 (smallest value) to d (largest); equal values are
    ranked in index order, so the earlier coordinate gets the smaller rank.

    Raises:
        OrderTooSmall / OrderTooLarge: window length outside [2, 8].
        NonFiniteInput: any entry is NaN or infinite.
    """
    d = len(values)
    if not MIN_ORDER <= d <= MAX_ORDER:
        _check_order(d)
    vals = [float(v) for v in values]
    for v in vals:
        if not math.isfinite(v):
            raise NonFiniteInput(f"window contains non-finite value {v!r}")
    if d == 2:
        return (1, 2) if vals[0] <= vals[1] else (2, 1)
    order = sorted(range(d), key=lambda i: (vals[i], i))
    ranks = [0] * d
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return tuple(ranks)


def enumerate_patterns(d: int) -> tuple[Pattern, ...]:
    """All d! patterns of order d in lexicographic order of their rank tuples."""
    _check_order(d)
    return tuple(itertools.permutations(range(1, d + 1)))


@functools.lru_cache(maxsize=None)
def rank_table(d: int) -> np.ndarray:
    """Read-only (d!, d) array whose row k is the pattern at lexicographic position k.

    Built on first use for each order and cached, column by column, so each
    row of its transpose (one position's rank in every pattern) is contiguous.
    """
    _check_order(d)
    table = np.array(list(itertools.permutations(range(1, d + 1))), dtype=np.int8, order="F")
    table.flags.writeable = False
    return table


def pattern_codes(windows: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    """Pattern codes of the rows of a 2-D array of windows.

    The code of a row w is its Lehmer index
    ``sum_i (d-1-i)! * #{j > i : w_j < w_i}`` under the earlier-index tie
    rule, so it equals ``pattern_index(pattern_of(w))``.

    Raises:
        DimensionMismatch: the input is not 2-D.
        OrderTooSmall / OrderTooLarge: row length outside [2, 8].
        NonFiniteInput: any entry is NaN or infinite.
    """
    w = np.asarray(windows, dtype=float)
    if w.ndim != 2:
        raise DimensionMismatch(f"windows must be a 2-D array, got {w.ndim} dimensions")
    d = w.shape[1]
    _check_order(d)
    if not np.isfinite(w).all():
        raise NonFiniteInput("windows contain a non-finite value")
    # One contiguous row per window position: d(d-1)/2 comparisons of whole
    # columns cost less than a strided comparison block per position.
    columns = np.ascontiguousarray(w.T)
    codes = np.zeros(w.shape[0], dtype=np.int64)
    for i in range(d - 1):
        smaller_after = np.zeros(w.shape[0], dtype=np.int64)
        for j in range(i + 1, d):
            smaller_after += columns[j] < columns[i]
        codes += smaller_after * math.factorial(d - 1 - i)
    return codes


def _check_permutation(pattern: Sequence[int]) -> Pattern:
    pat = tuple(pattern)
    n = len(pat)
    _check_order(n)
    if sorted(pat) != list(range(1, n + 1)):
        raise InvalidPermutation(f"{pat!r} is not a permutation of 1..{n}")
    return pat


def pattern_index(pattern: Sequence[int]) -> int:
    """Lexicographic rank of a pattern among all patterns of its order.

    The identity pattern maps to 0 and the reversal ``(d, ..., 1)`` to
    ``d! - 1``.  Inverse of :func:`index_to_pattern`.
    """
    pat = _check_permutation(pattern)
    d = len(pat)
    index = 0
    for i in range(d):
        smaller_after = sum(1 for j in range(i + 1, d) if pat[j] < pat[i])
        index += smaller_after * math.factorial(d - 1 - i)
    return index


def _index_at_order(pattern: Sequence[int], order: int) -> int:
    if len(pattern) != order:
        raise InvalidPermutation(f"pattern {tuple(pattern)!r} is not of order {order}")
    return pattern_index(pattern)


def index_to_pattern(index: int, d: int) -> Pattern:
    """Pattern of order d at the given lexicographic position (a row of :func:`rank_table`).

    Raises:
        IndexOutOfRange: index outside [0, d! - 1].
    """
    table = rank_table(d)
    index = _integer(index, "index")
    if not 0 <= index < len(table):
        raise IndexOutOfRange(f"index {index} outside [0, {len(table) - 1}] for order {d}")
    return tuple(table[index].tolist())


@dataclass(frozen=True)
class PatternDistribution:
    """Probability distribution over all patterns of one order.

    ``probs[k]`` is the probability of ``index_to_pattern(k, order)``.  The
    entries must be nonnegative and sum to 1 within 1e-12.
    """

    order: int
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_order(self.order)
        expected = math.factorial(self.order)
        if len(self.probs) != expected:
            raise ModelStructureError(
                f"order {self.order} needs {expected} probabilities, got {len(self.probs)}"
            )
        # min sees a negative entry or a leading NaN, sum any NaN or infinity; an
        # overflow of finite entries passes the loop on to fsum's OverflowError.
        if not (min(self.probs) >= 0.0 and math.isfinite(sum(self.probs))):
            for p in self.probs:
                if not math.isfinite(p) or p < 0.0:
                    raise ModelStructureError(f"invalid probability {p!r}")
        # A running sum of 8! rounded entries can drift past 1e-12 by itself.
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ModelStructureError(f"probabilities sum to {total!r}, not 1")

    def prob_of(self, pattern: Sequence[int]) -> float:
        """Probability of one pattern."""
        return self.probs[_index_at_order(pattern, self.order)]

    def as_dict(self) -> dict[Pattern, float]:
        """Mapping from pattern to probability, in lexicographic order."""
        pats = enumerate_patterns(self.order)
        return {pat: p for pat, p in zip(pats, self.probs)}


def distribution_from_counts(order: int, counts: dict[Pattern, float]) -> PatternDistribution:
    """Normalize nonnegative pattern weights into a :class:`PatternDistribution`.

    Raises:
        EmptyInput: all weights are zero or the mapping is empty.
    """
    _check_order(order)
    total = math.fsum(counts.values())
    if not counts or total <= 0.0:
        raise EmptyInput("no pattern weight to normalize")
    probs = [0.0] * math.factorial(order)
    for pat, c in counts.items():
        probs[_index_at_order(pat, order)] = c / total
    return PatternDistribution(order=order, probs=tuple(probs))


def cross_match_probability(p: PatternDistribution, q: PatternDistribution) -> float:
    """Probability that independent draws from p and q show the same pattern."""
    if p.order != q.order:
        raise InvalidPermutation(f"orders differ: {p.order} vs {q.order}")
    return math.fsum(map(operator.mul, p.probs, q.probs))


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise InvalidParameter(f"tol must be a finite number >= 0, got {tol}")


def dependence_from_terms(coincidence: float, cross_term: float, tol: float = 1e-12) -> float:
    """Normalized pattern dependence from its two defining probabilities.

    Computes ``(coincidence - cross_term) / (1 - cross_term)``, the excess of
    observed pattern coincidence over the independence baseline, rescaled so
    that perfect coincidence gives 1.

    Raises:
        InvalidParameter: tol is NaN, infinite or negative.
        DegenerateDistribution: the baseline coincidence is 1 within tol, so
            the normalization is undefined.
    """
    _check_tol(tol)
    denom = 1.0 - cross_term
    if abs(denom) <= tol:
        raise DegenerateDistribution(
            "independent-copy coincidence is 1; pattern dependence is undefined"
        )
    return (coincidence - cross_term) / denom

