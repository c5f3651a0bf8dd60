"""Discrete bivariate window laws and dependence-ordering conditions.

A :class:`DiscreteJoint` is a finitely supported joint law of two windows
``X = (X_1, ..., X_d)`` and ``Y = (Y_1, ..., Y_d)``, stored as an array of
atom points over the flat coordinate layout ``(x_1, ..., x_d, y_1, ..., y_d)``
and a vector of their probabilities.  Every operation below computes on
these two arrays, and every law it derives is built from arrays.

Position subsets select window positions, not flat coordinates: subset
``I`` of ``{1, ..., d}`` refers to the pairs ``(X_i, Y_i), i in I``, and a
point for ``I`` lists the x values of its positions in increasing position
order followed by the y values.

The module provides exact cdf/survival and conditional laws, exact pattern
dependence, independent products and mixtures for assembling laws from
head and tail parts, and :func:`check_theorem_conditions`, which sweeps
the conditional (variant A) or marginal (variant B) domination inequality
families that order pattern dependence of two laws.

The mixed comparisons in variant A (one law's window part conditioned on
the other law's values) are only well defined relative to a coupling of
the two laws on one space.  The checker models the common construction in
which some positions are literally shared between the laws: for shared
conditioning positions the mixed term reduces to the second law's own
conditional at the same value, and when all compared positions are shared
the two sides coincide and the family is trivially satisfied.  Shared
positions are auto-detected (identical pair marginals) unless given
explicitly.  Conditioning values that have zero mass on one side are
skipped and logged rather than treated as violations.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMixture,
    InvalidParameter,
    MassNotOne,
    ModelStructureError,
    NonFiniteInput,
    ZeroMassCondition,
)
from .patterns import (
    PatternDistribution,
    _check_tol,
    _integer,
    dependence_from_pattern_terms,
    pattern_codes,
)
from .randomness import check_count, make_rng
from .records import Record

log = logging.getLogger(__name__)

Point = tuple[float, ...]
AtomItems = Iterable[tuple[Sequence[float], float]]


@dataclass(frozen=True, eq=False, repr=False)
class DiscreteJoint:
    """Finitely supported joint law of paired windows of one order.

    The law is held as two read-only arrays: ``_points``, the distinct
    atom points of length ``2 * order`` as an ``(n, 2 * order)`` array
    sorted lexicographically, and ``_probs``, their positive probabilities
    in the same order, summing to 1 within 1e-12.  Every operation reads
    these arrays.  ``atoms``, the same law as ``(point, probability)``
    pairs in that order, is the view for ``repr``, equality, hashing and
    serialization, so equal laws have equal representations; it is built
    the first time it is read and then kept.
    """

    order: int

    def __init__(self, order: int, atoms: Mapping[Sequence[float], float] | AtomItems) -> None:
        order = _integer(order, "order")
        if order < 1:
            raise ModelStructureError(f"order must be >= 1, got {order}")
        items = atoms.items() if isinstance(atoms, Mapping) else atoms
        points: list[Point] = []
        probs: list[float] = []
        try:
            for raw_point, raw_prob in items:
                points.append(tuple(map(float, raw_point)))
                probs.append(float(raw_prob))
        except Exception as exc:
            unconverted = exc
        else:
            unconverted = None
        if unconverted is not None:
            # The atoms before one that does not convert are checked first,
            # so their errors take precedence over the conversion error.
            _check_atoms(order, points[: len(probs)], probs)
            raise unconverted
        if not set(map(len, points)) <= {2 * order}:
            _check_atoms(order, points, probs)
        point_array = np.array(points, dtype=float).reshape(len(points), 2 * order)
        self._store(order, point_array, np.array(probs, dtype=float))

    @classmethod
    def _from_arrays(cls, order: int, points: np.ndarray, probs: np.ndarray) -> DiscreteJoint:
        """A law from an ``(n, 2 * order)`` float array of points and their
        probabilities, checked in input order and sorted as the constructor's
        atoms are.  For the JSON loader and for laws derived from other laws'
        arrays, which all take this one path; ``order`` must be an int >= 1.
        """
        law = cls.__new__(cls)
        law._store(order, points, probs)
        return law

    def _store(self, order: int, points: np.ndarray, probs: np.ndarray) -> None:
        """Check the atoms, sort them by point and keep them as read-only arrays.

        Raises, in this order of precedence: ModelStructureError if there
        is no atom, the error of the first bad atom in input order (see
        :func:`_check_atoms`), and MassNotOne.
        """
        if not len(probs):
            raise ModelStructureError("a law needs at least one atom")
        # Stable, so equal points stay in input order; the last key is the primary one.
        by_point = np.lexsort(points.T[::-1])
        sorted_points = points[by_point]
        prob_list = probs.tolist()
        # Only a law with a bad atom fails these screens (a NaN or infinite
        # probability makes the sum non-finite), and it is then checked atom by
        # atom; so is a law whose huge probabilities overflow the sum.  Equal
        # points end up adjacent, and 0.0 == -0.0, so a point written with
        # either sign of zero is one point.
        if not (
            min(prob_list) > 0.0
            and math.isfinite(sum(prob_list))
            and np.isfinite(points).all()
            and not (sorted_points[1:] == sorted_points[:-1]).all(axis=1).any()
        ):
            _check_atoms(order, list(map(tuple, points.tolist())), prob_list)
        mass = math.fsum(prob_list)
        if abs(mass - 1.0) > 1e-12:
            raise MassNotOne(mass)
        sorted_probs = probs[by_point]
        sorted_points.flags.writeable = False
        sorted_probs.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_points", sorted_points)
        object.__setattr__(self, "_probs", sorted_probs)

    @functools.cached_property
    def atoms(self) -> tuple[tuple[Point, float], ...]:
        """The ``(point, probability)`` pairs, sorted by point."""
        return tuple(zip(map(tuple, self._points.tolist()), self._probs.tolist()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.atoms) == (other.order, other.atoms)

    def __hash__(self) -> int:
        return hash((self.order, self.atoms))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(order={self.order!r}, atoms={self.atoms!r})"

    @property
    def dimension(self) -> int:
        return 2 * self.order

    def as_dict(self) -> dict[Point, float]:
        return dict(self.atoms)

    def prob_of(self, point: Sequence[float]) -> float:
        """Probability of the atom at ``point``; 0.0 if there is none, as for a NaN point.

        Raises:
            DimensionMismatch: ``point`` does not have ``dimension`` coordinates.
        """
        pt = _check_dimension(self, tuple(float(v) for v in point))
        # Lexsorted rows: those matching pt's first k coordinates are one block, sorted on k.
        lo, hi = 0, len(self._points)
        for k, value in enumerate(pt):
            column = self._points[lo:hi, k]
            lo, hi = lo + column.searchsorted(value, "left"), lo + column.searchsorted(value, "right")
        return float(self._probs[lo]) if lo < hi else 0.0


def _check_atoms(order: int, points: list[Point], probs: list[float]) -> None:
    """Raise the error of the first bad atom in input order, if there is one.

    An atom is bad if it has the wrong length, a non-finite coordinate, a
    probability that is not positive, or the point of an earlier atom (0.0
    and -0.0 are the same point); its checks run in that order.
    """
    seen: set[Point] = set()
    for point, prob in zip(points, probs):
        if len(point) != 2 * order:
            raise DimensionMismatch(f"atom {point} has {len(point)} coordinates, expected {2 * order}")
        if not all(map(math.isfinite, point)):
            raise NonFiniteInput(f"atom {point} has a non-finite coordinate")
        if not math.isfinite(prob) or prob <= 0.0:
            raise ModelStructureError(f"atom probability must be positive, got {prob!r}")
        if point in seen:
            raise ModelStructureError(f"duplicate atom {point}")
        seen.add(point)


def _check_dimension(dist: DiscreteJoint, pt: Point) -> Point:
    if len(pt) != dist.dimension:
        raise DimensionMismatch(
            f"point has {len(pt)} coordinates, law needs {dist.dimension}"
        )
    return pt


def _check_point(dist: DiscreteJoint, point: Sequence[float]) -> Point:
    pt = _check_dimension(dist, tuple(float(v) for v in point))
    if any(math.isnan(v) for v in pt):
        raise NonFiniteInput("point contains NaN")
    return pt


def cdf(dist: DiscreteJoint, point: Sequence[float]) -> float:
    """P(all coordinates <= point), exactly."""
    pt = _check_point(dist, point)
    return math.fsum(dist._probs[(dist._points <= pt).all(axis=1)].tolist())


def survival(dist: DiscreteJoint, point: Sequence[float]) -> float:
    """P(all coordinates >= point), exactly.  Not ``1 - cdf`` beyond dimension 1."""
    pt = _check_point(dist, point)
    return math.fsum(dist._probs[(dist._points >= pt).all(axis=1)].tolist())


def _check_subset(d: int, subset: Iterable[int], allow_empty: bool = False) -> tuple[int, ...]:
    positions = tuple(sorted(set(_integer(i, "position") for i in subset)))
    if not positions and not allow_empty:
        raise InvalidParameter("position subset must be nonempty")
    return _in_range(d, positions)


def _in_range(d: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    if any(not 1 <= i <= d for i in positions):
        raise InvalidParameter(f"positions {positions} outside 1..{d}")
    return positions


def subset_coordinates(order: int, positions: Sequence[int]) -> list[int]:
    """Flat coordinate indices of a position subset: its x's, then its y's."""
    positions = _in_range(order, tuple(_integer(i, "position") for i in positions))
    return [i - 1 for i in positions] + [order + i - 1 for i in positions]


def marginal(dist: DiscreteJoint, subset: Iterable[int]) -> DiscreteJoint:
    """Joint law of the window pairs at the given positions."""
    positions = _check_subset(dist.order, subset)
    return DiscreteJoint._from_arrays(len(positions), *_merged(dist, positions))


def _merged(dist: DiscreteJoint, positions: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct points of ``dist`` on checked ``positions``, sorted, and their summed probabilities."""
    points = dist._points[:, subset_coordinates(dist.order, positions)]
    # Stable, so a run of equal rows keeps its atoms in atom order: the merged
    # point keeps the first atom's sign of zero, and bincount adds in atom order.
    by_point = np.lexsort(points.T[::-1])
    sorted_points = points[by_point]
    starts = np.append(True, (sorted_points[1:] != sorted_points[:-1]).any(axis=1))
    return sorted_points[starts], np.bincount(np.cumsum(starts) - 1, weights=dist._probs[by_point])


def conditional(dist: DiscreteJoint, subset: Iterable[int], given: Sequence[float]) -> DiscreteJoint:
    """Law of the complement positions given exact values at ``subset``.

    ``given`` lists x values of the subset positions in increasing position
    order, then the y values.  With an empty subset the law is returned
    unchanged.

    Raises:
        ZeroMassCondition: the conditioning event has probability zero.
    """
    positions = _check_subset(dist.order, subset, allow_empty=True)
    if not positions:
        return dist
    complement = tuple(i for i in range(1, dist.order + 1) if i not in positions)
    if not complement:
        raise InvalidParameter("cannot condition on every position")
    value = tuple(float(v) for v in given)
    if len(value) != 2 * len(positions):
        raise DimensionMismatch(
            f"conditioning point has {len(value)} coordinates, subset needs {2 * len(positions)}"
        )
    rows = (dist._points[:, subset_coordinates(dist.order, positions)] == value).all(axis=1)
    if not rows.any():
        raise ZeroMassCondition(f"no mass at positions {positions} = {value}")
    # The selected atoms are distinct on the kept coordinates, since they
    # agree on the others.  cumsum adds in atom order, one term at a time.
    probs = dist._probs[rows]
    points = dist._points[rows][:, subset_coordinates(dist.order, complement)]
    return DiscreteJoint._from_arrays(len(complement), points, probs / np.cumsum(probs)[-1])


def _atom_codes(dist: DiscreteJoint, axes: Sequence[str]) -> tuple[list[np.ndarray], np.ndarray]:
    """Pattern codes of every atom's window on each of ``axes``, and the atom probabilities."""
    d = dist.order
    windows = {"x": dist._points[:, :d], "y": dist._points[:, d:]}
    return [pattern_codes(windows[axis]) for axis in axes], dist._probs


def _pattern_law(order: int, codes: np.ndarray, probs: np.ndarray) -> PatternDistribution:
    weights = np.bincount(codes, weights=probs, minlength=math.factorial(order))
    total = math.fsum(weights.tolist())
    return PatternDistribution(order=order, probs=tuple((weights / total).tolist()))


def marginal_pattern_distribution(dist: DiscreteJoint, axis: str) -> PatternDistribution:
    """Exact pattern distribution of the X or Y window of a discrete law."""
    if axis not in ("x", "y"):
        raise ModelStructureError(f"axis must be 'x' or 'y', got {axis!r}")
    (codes,), probs = _atom_codes(dist, (axis,))
    return _pattern_law(dist.order, codes, probs)


def pattern_coincidence(dist: DiscreteJoint) -> float:
    """Exact probability that both windows show the same pattern."""
    return pattern_terms(dist)[0]


def pattern_terms(dist: DiscreteJoint) -> tuple[float, PatternDistribution, PatternDistribution]:
    """Pattern coincidence and the X and Y pattern laws, from one encoding of the atoms."""
    (codes_x, codes_y), probs = _atom_codes(dist, ("x", "y"))
    return (
        math.fsum(probs[codes_x == codes_y].tolist()),
        _pattern_law(dist.order, codes_x, probs),
        _pattern_law(dist.order, codes_y, probs),
    )


def exact_opd(dist: DiscreteJoint) -> float:
    """Exact normalized pattern dependence of a discrete law.

    Raises:
        DegenerateDistribution: the independent-copy coincidence is 1, e.g.
            when both windows are almost surely in the same fixed pattern.
    """
    return dependence_from_pattern_terms(pattern_terms(dist))


# The package-level ``opdep.exact_opd`` is the piecewise one.
exact_opd_discrete = exact_opd


def sample(dist: DiscreteJoint, n: int, seed: int) -> list[Point]:
    """Draw ``n`` atoms by probability; Philox-seeded like continuous sampling."""
    check_count(n)
    rng = make_rng(seed)
    total = math.fsum(dist._probs.tolist())
    idx = rng.choice(len(dist._probs), size=n, p=dist._probs / total)
    return list(map(tuple, dist._points[idx].tolist()))


def product_extend(head: DiscreteJoint, tail: DiscreteJoint) -> DiscreteJoint:
    """Independent concatenation: head positions first, then tail positions."""
    return _interleave([head] * len(tail._probs), tail)


def mixture_from_conditionals(
    tail: DiscreteJoint, conditionals: Mapping[Sequence[float], DiscreteJoint]
) -> DiscreteJoint:
    """Joint law with tail marginal ``tail`` and per-tail-value head laws.

    ``conditionals`` maps every tail atom point to the conditional law of
    the head positions given that tail value.  Head positions come first
    in the result, as in :func:`product_extend`.

    Raises:
        InvalidMixture: two conditional keys are the same point, the keys
            do not match the tail support, or the head laws disagree in order.
    """
    keyed: dict[Point, DiscreteJoint] = {}
    for key, law in conditionals.items():
        point = tuple(float(v) for v in key)
        if point in keyed:
            raise InvalidMixture(f"conditional keys repeat the point {point}")
        keyed[point] = law
    support = {point for point, _ in tail.atoms}
    if set(keyed) != support:
        missing = sorted(support - set(keyed))
        extra = sorted(set(keyed) - support)
        raise InvalidMixture(
            f"conditional keys do not match tail support (missing {missing}, extra {extra})"
        )
    orders = {law.order for law in keyed.values()}
    if len(orders) != 1:
        raise InvalidMixture(f"conditional head laws disagree in order: {sorted(orders)}")
    return _interleave([keyed[point] for point, _ in tail.atoms], tail)


def _interleave(heads: Sequence[DiscreteJoint], tail: DiscreteJoint) -> DiscreteJoint:
    """The mixture of ``heads[k]`` at the ``k``-th tail atom; heads share one order."""
    d1, d2 = heads[0].order, tail.order
    # Rows from different tail atoms differ on the tail coordinates, so all rows are distinct.
    tail_rows = np.repeat(np.arange(len(heads)), [len(law._probs) for law in heads])
    hp, tp = np.concatenate([law._points for law in heads]), tail._points[tail_rows]
    points = np.hstack([hp[:, :d1], tp[:, :d2], hp[:, d1:], tp[:, d2:]])
    probs = tail._probs[tail_rows] * np.concatenate([law._probs for law in heads])
    return DiscreteJoint._from_arrays(d1 + d2, points, probs)


def shared_position_detect(dist: DiscreteJoint, dist_star: DiscreteJoint, tol: float = 1e-12) -> tuple[int, ...]:
    """Positions whose pair marginals (X_i, Y_i) agree in both laws.

    These are the positions a common construction can share verbatim; the
    detection is necessary for sharing but cannot see the underlying
    coupling, so explicit knowledge should be passed through when present.
    """
    if dist.order != dist_star.order:
        raise DimensionMismatch(f"orders differ: {dist.order} vs {dist_star.order}")
    _check_tol(tol)
    return _shared_positions(_position_arrays(dist, dist_star), tol)


def _position_arrays(dist: DiscreteJoint, dist_star: DiscreteJoint) -> dict[tuple[int, ...], tuple]:
    """Both laws' :func:`_merged` arrays at each single position, keyed by the subset ``(i,)``."""
    return {(i,): (_merged(dist, (i,)), _merged(dist_star, (i,))) for i in range(1, dist.order + 1)}


def _shared_positions(merged: dict[tuple[int, ...], tuple], tol: float) -> tuple[int, ...]:
    # Both laws' points are sorted, so equal supports line up row by row.
    return tuple(
        i
        for (i,), ((points, probs), (points_star, probs_star)) in merged.items()
        if np.array_equal(points, points_star) and (np.abs(probs - probs_star) <= tol).all()
    )


@dataclass(frozen=True, slots=True)
class ConditionViolation(Record):
    """One broken inequality: an unstarred value exceeding the starred one.

    ``outer`` names the law whose values were conditioned on ("first",
    "second", or "none" for unconditional families), ``side`` is "cdf" or
    "survival".  Slotted, since a sweep can report thousands.
    """

    subset: tuple[int, ...]
    side: str
    outer: str
    conditioning_point: Point | None
    evaluation_point: Point
    lhs: float
    rhs: float


# One part of a report's violations: its subset; per outer law, the outer's
# name and its conditioning points, a float64 array with one row per group
# ("first" and "second") or None ("none"); the grid, one list of values per
# axis; and its rows' range in the report's columns.
_Part = tuple[tuple[int, ...], tuple[tuple[str, np.ndarray | None], ...], tuple[list[float], ...], int, int]


class _ViolationColumns(Sequence):
    """A report's violations, held as columns; the records are built when first read.

    Row ``r`` of a part stands for one violation per outer law of the part:
    ``codes[r]`` is ``2 * (group * grid size + flat grid index) + side``
    (0 for "cdf", 1 for "survival"), and ``values[r]`` is its ``(lhs, rhs)``.
    The records run part by part, and within a part outer by outer, each
    over all the part's rows.  A row takes 24 B, shared by the part's outer
    laws, so a variant-A violation takes 12 B until the records are built;
    each outer law adds 8 B per conditioning coordinate of each group.

    The first index or iteration builds every record and keeps them, as
    :attr:`DiscreteJoint.atoms` is kept.  A part's records share its subset
    and one evaluation-point tuple per grid point, those of one outer law
    one conditioning-point tuple per group, and the report's records one
    float per value.  The sequence equals, hashes, prints and pickles as
    the tuple of its records, and ``len`` reads the columns only.  ``==``
    between two such sequences builds both record lists for that comparison
    alone and keeps neither, so there is one definition of equality.
    """

    __slots__ = ("_parts", "_codes", "_values", "_length", "_records")

    def __init__(self, parts: tuple[_Part, ...], codes: np.ndarray, values: np.ndarray) -> None:
        codes.flags.writeable = values.flags.writeable = False
        self._parts, self._codes, self._values = parts, codes, values
        self._length = sum(len(outers) * (stop - start) for _, outers, _, start, stop in parts)
        self._records: tuple[ConditionViolation, ...] | None = None

    def __reduce__(self) -> tuple:
        return type(self), (self._parts, self._codes, self._values)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, tuple):
            return self._built() == other
        if not isinstance(other, _ViolationColumns):
            return NotImplemented
        return self is other or (len(self) == len(other) and self._build() == other._build())

    def _built(self) -> tuple[ConditionViolation, ...]:
        if self._records is None:
            self._records = tuple(self._build())
        return self._records

    def _build(self) -> list[ConditionViolation]:
        """Every record, in order."""
        records: list[ConditionViolation] = []
        values_of: dict[float, float] = {}
        for subset, outers, grid, start, stop in self._parts:
            index, sides = np.divmod(self._codes[start:stop], 2)
            groups, at = np.divmod(index, math.prod(map(len, grid)))
            distinct, inverse = np.unique(at, return_inverse=True)
            corners = zip(*(c.tolist() for c in np.unravel_index(distinct, tuple(map(len, grid)))))
            points = [tuple(map(operator.getitem, grid, corner)) for corner in corners]
            evaluation_points = list(map(points.__getitem__, inverse.tolist()))
            side_names = list(map(("cdf", "survival").__getitem__, sides.tolist()))
            values = self._values[start:stop].T.tolist()
            lhs, rhs = (list(map(values_of.setdefault, column, column)) for column in values)
            groups = groups.tolist()
            for outer, conditioning in outers:
                given = [None] if conditioning is None else list(map(tuple, conditioning.tolist()))
                records += map(
                    ConditionViolation, itertools.repeat(subset), side_names, itertools.repeat(outer),
                    map(given.__getitem__, groups), evaluation_points, lhs, rhs,
                )
        return records


@dataclass(frozen=True, slots=True)
class ConditionSkip(Record):
    """A conditioning combination that could not be evaluated."""

    subset: tuple[int, ...]
    outer: str
    conditioning_point: Point
    reason: str


@dataclass(frozen=True)
class ConditionReport(Record):
    """Outcome of a sweep of one variant's inequality families.

    The checker's ``violations`` is a sequence that keeps them as columns
    and builds their records when first read; it equals, hashes, prints,
    serializes and pickles as the tuple of its records.  Two reports compare
    their violations by records built for the comparison, which neither keeps.
    """

    variant: str
    holds: bool
    violations: Sequence[ConditionViolation]
    skipped: tuple[ConditionSkip, ...]
    shared_positions: tuple[int, ...]
    tol: float


def evaluation_grid(
    dist: DiscreteJoint, dist_star: DiscreteJoint, positions: Sequence[int]
) -> list[list[float]]:
    """Per-coordinate evaluation values for the given positions.

    All coordinate values occurring in either law, extended by one sentinel
    below and above; step-function comparisons attain their extremes on
    this grid.  Positions keep the caller's order.
    """
    if dist.order != dist_star.order:
        raise DimensionMismatch(f"orders differ: {dist.order} vs {dist_star.order}")
    grid = []
    for coord in subset_coordinates(dist.order, positions):
        column = np.concatenate([dist._points[:, coord], dist_star._points[:, coord]])
        # Stable, so of 0.0 and -0.0 the one met first is kept.
        ordered = column[np.argsort(column, kind="stable")]
        values = ordered[np.append(True, ordered[1:] != ordered[:-1])].tolist()
        grid.append([values[0] - 1.0] + values + [values[-1] + 1.0])
    return grid


def _orthant_tensors(
    laws: np.ndarray, groups: np.ndarray, low: np.ndarray, high: np.ndarray, probs: np.ndarray, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Two laws' cdf and survival for a batch of groups at every point of a grid, as two tensors of shape ``(2, *shape)``.

    ``shape`` is the number of groups, then the grid's axis lengths.  Each
    atom has its law (0 or 1) in ``laws``, its group in ``groups`` and its
    cell on every axis of a grid that has every coordinate of the laws in a
    column of ``low`` and of ``high``: in ``low`` the first index of the
    coordinate's value on the axis, in ``high`` the last.  They differ only
    where an axis repeats a value, as when a sentinel ``v - 1.0`` rounds to
    ``v``.  Forward cumulative sums of the ``low`` histogram along every
    grid axis give the cdf, reverse ones of the ``high`` histogram the
    survival.  A group of one law has distinct points, so a cell holds at
    most one of its atoms, and each entry sums nonnegative terms in a tree
    of depth below the sum of the grid's axis lengths: within that many
    units of 2**-53 of the exact sum, relative to the group's mass.
    """
    cdf = np.zeros((2, *shape))
    cdf[(laws, groups, *low)] = probs
    survival = np.zeros((2, *shape))
    survival[(laws, groups, *high)] = probs
    reverse = survival[(slice(None),) * 2 + (slice(None, None, -1),) * (len(shape) - 1)]
    for axis in range(2, len(shape) + 1):
        np.cumsum(cdf, axis=axis, out=cdf)
        np.cumsum(reverse, axis=axis, out=reverse)
    return cdf, survival


def _exact_sums(
    probs: np.ndarray,
    groups: np.ndarray,
    cells: np.ndarray,
    points: tuple[np.ndarray, ...],
    inside: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[list[float], list[float]]:
    """Per point of ``points`` (index arrays: a group, then each grid axis) and
    per law, ``math.fsum`` of the probabilities of that law's atoms of the
    group whose cells satisfy ``inside(cell, index)`` on every grid axis:
    with ``operator.le`` on the ``low`` cells of :func:`_orthant_tensors` the
    value of :func:`cdf` at that grid point, with ``operator.ge`` on the
    ``high`` cells that of :func:`survival`.  Row ``k`` of ``probs`` holds
    the atoms' probabilities in law ``k`` and 0.0 at the other law's atoms,
    which leave an ``fsum`` unchanged.
    """
    prob_lists = probs.tolist()
    sums: tuple[list[float], list[float]] = ([], [])
    rows = max(1, 2**16 // len(groups))  # bounds the mask of one chunk
    for start in range(0, len(points[0]), rows):
        group, *chunk = (index[start : start + rows, None] for index in points)
        selected = groups == group
        for cell, index in zip(cells, chunk):
            selected &= inside(cell, index)
        # Many points select the same atoms, so each distinct selection, as
        # bytes of 0 and 1, is summed once.
        keys = selected.view(np.dtype((np.void, len(groups)))).ravel().tolist()
        distinct = dict.fromkeys(keys)
        for prob_list, law_sums in zip(prob_lists, sums):
            sum_of = dict(zip(distinct, map(math.fsum, map(itertools.compress, itertools.repeat(prob_list), distinct))))
            law_sums += map(sum_of.__getitem__, keys)
    return sums


def _sweep_groups(
    atoms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    count: int,
    grid: Sequence[Sequence[float]],
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Where the first law's cdf or survival exceeds the second's by more than ``tol``, group by group.

    ``atoms`` holds both laws' atoms as their laws (0 for the first, 1 for
    the second), groups (ascending, in ``range(count)``), points on the
    grid's axes and probabilities; group ``g`` of the first law is compared
    with group ``g`` of the second, each as a law of its own.  Returns two
    arrays, one row per violation in order of group, then of the grid in
    ``itertools.product`` order, "cdf" before "survival" at a point: the
    int64 code ``2 * (group * grid size + flat grid index) + side``, with
    side 0 for "cdf" and 1 for "survival", and ``(lhs, rhs)``, what
    :func:`cdf` and :func:`survival` return there on the group's two laws.
    The codes ascend, so they are the order.

    Groups are swept in batches of ``max(1, 2**16 // grid size)``, so a batch
    has at most the larger of one group's grid and 2**16 entries per law.
    The two laws' orthant tensors of a batch screen it; only where their
    difference exceeds ``tol`` less a rounding margin are both sides summed
    exactly.  With ``n`` the sum of the grid's axis lengths and masses at
    most 2, the tensor errors, the roundings of the exact sums, of ``rhs +
    tol`` and of the screen's subtractions add up to about ``(4 * n + 8 + 2
    * tol) * 2**-53``; the margin is ``8 * (n + 2 + tol) * 2**-53``.
    """
    laws, groups, points, probs = atoms
    axes = [np.asarray(values) for values in grid]
    shape = tuple(map(len, axes))
    size = math.prod(shape)
    per_batch = max(1, 2**16 // size)
    threshold = tol - 8 * (sum(shape) + 2 + tol) * 2.0**-53
    low = np.array([np.searchsorted(axis, column) for axis, column in zip(axes, points.T)])
    high = np.array([np.searchsorted(axis, column, side="right") for axis, column in zip(axes, points.T)]) - 1
    law_probs = np.where(laws == np.array([[0], [1]]), probs, 0.0)
    codes, values = [np.empty(0, dtype=np.int64)], [np.empty((0, 2))]
    for start in range(0, count, per_batch):
        batch_shape = (min(per_batch, count - start), *shape)
        rows = slice(*np.searchsorted(groups, (start, start + per_batch)).tolist())
        batch_groups = groups[rows] - start
        tensors = _orthant_tensors(laws[rows], batch_groups, low[:, rows], high[:, rows], probs[rows], batch_shape)
        for side, (inside, cells) in enumerate(((operator.le, low), (operator.ge, high))):
            first, second = tensors[side]
            flat = np.flatnonzero(np.subtract(first, second, out=first) > threshold)
            candidates = np.unravel_index(flat, batch_shape)
            sums = np.array(_exact_sums(law_probs[:, rows], batch_groups, cells[:, rows], candidates, inside))
            broken = sums[0] > sums[1] + tol
            codes.append(2 * (start * size + flat[broken]) + side)
            values.append(sums[:, broken].T)
    codes, values = np.concatenate(codes), np.concatenate(values)
    order = np.argsort(codes)
    return codes[order], values[order]


def _conditional_atoms(
    dist: DiscreteJoint, dist_star: DiscreteJoint, subset: tuple[int, ...], complement: tuple[int, ...]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]:
    """Both laws' conditional laws at each value at ``subset`` that both hold, for :func:`_sweep_groups`.

    Returns, per law, its values in sorted order, each as written in its
    first atom that holds it (the points of its :func:`marginal`), and a
    flag per value telling whether the other law holds it too; the atoms of
    those values, as :func:`_sweep_groups` takes them, in groups numbered
    in sorted order of value, with points on ``complement`` and
    probabilities divided by their law's group total as :func:`conditional`
    divides them; and the number of groups.  0.0 and -0.0 are one value.
    bincount adds a group's probabilities in atom order, one term at a
    time, as the ``np.cumsum`` of :func:`conditional` does.

    Raises:
        MassNotOne: where :func:`conditional` would refuse one of the laws,
            taken value by value, the first law's before the second's.
    """
    laws = np.repeat((0, 1), (len(dist._probs), len(dist_star._probs)))
    points = np.concatenate([dist._points, dist_star._points])
    values = points[:, subset_coordinates(dist.order, subset)]
    by_value = np.lexsort(values.T[::-1])
    ordered = values[by_value]
    ids = np.empty(len(values), dtype=np.intp)
    ids[by_value] = np.cumsum(np.append(True, (ordered[1:] != ordered[:-1]).any(axis=1))) - 1
    held = [np.bincount(ids[laws == law], minlength=ids.max() + 1) > 0 for law in (0, 1)]
    both = held[0] & held[1]
    # Each law's rows in sorted order of value, and of them the first of each value.
    sorted_rows = [by_value[laws[by_value] == law] for law in (0, 1)]
    firsts = [rows[np.append(True, ids[rows[1:]] != ids[rows[:-1]])] for rows in sorted_rows]
    count = int(both.sum())
    rows = np.flatnonzero(both[ids])
    # Ordered by group, then law, and within each in atom order.
    key = 2 * (np.cumsum(both) - 1)[ids[rows]] + laws[rows]
    by_key = np.argsort(key, kind="stable")
    rows, key = rows[by_key], key[by_key]
    probs = np.concatenate([dist._probs, dist_star._probs])[rows]
    probs = probs / np.bincount(key, weights=probs)[key]
    bounds = np.searchsorted(key, np.arange(2 * count + 1)).tolist()
    prob_list = probs.tolist()
    for start, stop in zip(bounds, bounds[1:]):
        mass = math.fsum(prob_list[start:stop])
        if abs(mass - 1.0) > 1e-12:
            raise MassNotOne(mass)
    complement_points = points[rows][:, subset_coordinates(dist.order, complement)]
    return [(values[first], both[ids[first]]) for first in firsts], (key % 2, key // 2, complement_points, probs), count


def check_theorem_conditions(
    dist: DiscreteJoint,
    dist_star: DiscreteJoint,
    variant: str,
    tol: float = 1e-12,
    shared_positions: Iterable[int] | None = None,
) -> ConditionReport:
    """Sweep the inequality families that order pattern dependence.

    Variant "A" checks, for every nonempty proper position subset I and
    every positive-mass value of the subset variables, that the first
    law's conditional cdf and survival of the complement positions never
    exceed the second law's (see the module docstring for how the mixed
    terms are resolved through shared positions).  At a value both laws
    hold, the two variant-A families, conditioned on the first law's values
    and on the second's, are the same inequalities: the report lists each
    violation under both ``outer`` names, and the checker computes it once.
    Variant "B" checks the unconditional domination of cdf and survival
    for every complement marginal, including the full joint (I empty).

    All families are evaluated on the sentinel-extended atom grid, which
    attains the extremes of the step functions involved, so ``holds`` is
    exact for the swept family up to ``tol``.  Cumulative-sum tensors screen
    the grid and exact sums decide each verdict (see :func:`_sweep_groups`),
    so the values reported are those of :func:`cdf` and :func:`survival`.
    Variant A sweeps all values of one subset together, a batch of them at
    a time, as conditional laws normalized as :func:`conditional` does.
    A sweep reads the laws' point and probability arrays alone: it builds
    no marginal or conditional law and no :attr:`DiscreteJoint.atoms`, so
    the mass of a merged marginal is not checked, as :func:`marginal` checks it.

    The grid of a family has, over the swept coordinates, the product of
    (distinct values in either law + 2) points, and a sweep holds about 33 B
    per grid point of a batch: both laws' cdf and survival tensors and the
    screen's mask.  For example, the full-joint grid of the ``exact``
    benchmark workload's order-5 law has 6e7 points (about 2 GB), and that
    of its order-6 law 2.2e9 (about 72 GB).

    Raises:
        MassNotOne: a conditional law that :func:`conditional` would refuse.
    """
    if dist.order != dist_star.order:
        raise DimensionMismatch(f"orders differ: {dist.order} vs {dist_star.order}")
    if variant not in ("A", "B"):
        raise InvalidParameter(f"variant must be 'A' or 'B', got {variant!r}")
    _check_tol(tol)
    d = dist.order
    # Both laws' merged arrays by position subset: those that detection
    # merges, and the laws' own for the full joint (variant B, I empty).
    merged = {}
    if shared_positions is None:
        merged = _position_arrays(dist, dist_star)
        shared = frozenset(_shared_positions(merged, min(tol, 1e-12) or 1e-12))
    else:
        shared = frozenset(_check_subset(d, shared_positions, allow_empty=True))
    positions = range(1, d + 1)
    merged[tuple(positions)] = ((dist._points, dist._probs), (dist_star._points, dist_star._probs))
    # Every coordinate's evaluation values, from which each swept subset's grid
    # is taken; variant A sweeps no subset when every position is shared.
    everything_shared = variant == "A" and shared.issuperset(positions)
    coordinate_values = [] if everything_shared else evaluation_grid(dist, dist_star, positions)
    parts: list[_Part] = []
    codes: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    values: list[np.ndarray] = [np.empty((0, 2))]
    rows = 0
    skipped: list[ConditionSkip] = []
    for size in range(0 if variant == "B" else 1, d):
        for subset in itertools.combinations(positions, size):
            complement = tuple(i for i in positions if i not in subset)
            if variant == "A" and set(complement) <= shared:
                # The compared window parts are literally the same variables, so
                # both sides of every inequality in these families coincide.
                continue
            grid = [coordinate_values[coord] for coord in subset_coordinates(d, complement)]
            if variant == "B":
                laws = merged.get(complement) or (_merged(dist, complement), _merged(dist_star, complement))
                atoms = (
                    np.repeat((0, 1), [len(probs) for _, probs in laws]),
                    np.zeros(sum(len(probs) for _, probs in laws), dtype=np.intp),
                    *map(np.concatenate, zip(*laws)),
                )
                outers = [("none", None)]
                count = 1
            else:
                # Each law's own values: the second's may hold -0.0 where the first's holds 0.0.
                values_of, atoms, count = _conditional_atoms(dist, dist_star, subset, complement)
                outers = []
                for outer, (law_values, law_held) in zip(("first", "second"), values_of):
                    for value in map(tuple, law_values[~law_held].tolist()):
                        log.debug(
                            "skipped subset %s, outer law %s, value %s: zero mass in the other law",
                            subset, outer, value,
                        )
                        skipped.append(
                            ConditionSkip(
                                subset=subset,
                                outer=outer,
                                conditioning_point=value,
                                reason="conditioning value has zero mass in the other law",
                            )
                        )
                    outers.append((outer, law_values[law_held]))
            part_codes, part_values = _sweep_groups(atoms, count, grid, tol)
            if len(part_codes):
                parts.append((subset, tuple(outers), tuple(grid), rows, rows + len(part_codes)))
                codes.append(part_codes)
                values.append(part_values)
                rows += len(part_codes)
    violations = _ViolationColumns(tuple(parts), np.concatenate(codes), np.concatenate(values))
    return ConditionReport(
        variant=variant,
        holds=not violations,
        violations=violations,
        skipped=tuple(skipped),
        shared_positions=tuple(sorted(shared)),
        tol=tol,
    )
