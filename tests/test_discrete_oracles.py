"""Discrete law operations against the tuple bodies they replaced.

The functions in the first section are ``cdf``, ``survival``,
``marginal``, ``conditional``, ``product_extend``,
``mixture_from_conditionals``, ``shared_position_detect`` and
``evaluation_grid`` as they were when they walked ``DiscreteJoint.atoms``
as tuples and built derived laws from dicts, kept verbatim.  Every result
of the array operations in ``opdep.discrete`` must match its oracle by
``repr`` and, for laws, by serialized JSON text; both tell 0.0 from -0.0.
An error must match in type and message.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from opdep import discrete as disc
from opdep.discrete import DiscreteJoint, Point, _check_point, _check_subset, subset_coordinates
from opdep.errors import DimensionMismatch, InvalidMixture, InvalidParameter, OpdepError, ZeroMassCondition
from opdep.modelio import load_model, model_to_dict
from opdep.patterns import _check_tol

# -- the oracles: the former tuple bodies, verbatim ---------------------------------


def cdf(dist: DiscreteJoint, point: Sequence[float]) -> float:
    """P(all coordinates <= point), exactly."""
    pt = _check_point(dist, point)
    return math.fsum(
        prob for atom, prob in dist.atoms if all(a <= t for a, t in zip(atom, pt))
    )


def survival(dist: DiscreteJoint, point: Sequence[float]) -> float:
    """P(all coordinates >= point), exactly.  Not ``1 - cdf`` beyond dimension 1."""
    pt = _check_point(dist, point)
    return math.fsum(
        prob for atom, prob in dist.atoms if all(a >= t for a, t in zip(atom, pt))
    )


def marginal(dist: DiscreteJoint, subset: Iterable[int]) -> DiscreteJoint:
    """Joint law of the window pairs at the given positions."""
    positions = _check_subset(dist.order, subset)
    # A subset has an x and a y coordinate per position, so this returns tuples.
    project = operator.itemgetter(*subset_coordinates(dist.order, positions))
    out: dict[Point, float] = {}
    for atom, prob in dist.atoms:
        key = project(atom)
        out[key] = out.get(key, 0.0) + prob
    return DiscreteJoint(order=len(positions), atoms=out)


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
    project_cond = operator.itemgetter(*subset_coordinates(dist.order, positions))
    project_keep = operator.itemgetter(*subset_coordinates(dist.order, complement))
    out: dict[Point, float] = {}
    mass = 0.0
    for atom, prob in dist.atoms:
        if project_cond(atom) != value:
            continue
        mass += prob
        key = project_keep(atom)
        out[key] = out.get(key, 0.0) + prob
    if mass <= 0.0:
        raise ZeroMassCondition(f"no mass at positions {positions} = {value}")
    scaled = {point: prob / mass for point, prob in out.items()}
    return DiscreteJoint(order=len(complement), atoms=scaled)


def product_extend(head: DiscreteJoint, tail: DiscreteJoint) -> DiscreteJoint:
    """Independent concatenation: head positions first, then tail positions."""
    return mixture_from_conditionals(tail, {point: head for point, _ in tail.atoms})


def mixture_from_conditionals(
    tail: DiscreteJoint, conditionals: Mapping[Sequence[float], DiscreteJoint]
) -> DiscreteJoint:
    """Joint law with tail marginal ``tail`` and per-tail-value head laws.

    ``conditionals`` maps every tail atom point to the conditional law of
    the head positions given that tail value.  Head positions come first
    in the result, as in :func:`product_extend`.

    Raises:
        InvalidMixture: the conditional keys do not match the tail support
            or the head laws disagree in order.
    """
    keyed = {tuple(float(v) for v in key): law for key, law in conditionals.items()}
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
    d1 = orders.pop()
    d2 = tail.order
    out: dict[Point, float] = {}
    for tp, weight in tail.atoms:
        for hp, hprob in keyed[tp].atoms:
            point = hp[:d1] + tp[:d2] + hp[d1:] + tp[d2:]
            out[point] = out.get(point, 0.0) + weight * hprob
    return DiscreteJoint(order=d1 + d2, atoms=out)


def shared_position_detect(dist: DiscreteJoint, dist_star: DiscreteJoint, tol: float = 1e-12) -> tuple[int, ...]:
    """Positions whose pair marginals (X_i, Y_i) agree in both laws.

    These are the positions a common construction can share verbatim; the
    detection is necessary for sharing but cannot see the underlying
    coupling, so explicit knowledge should be passed through when present.
    """
    _check_tol(tol)
    shared = []
    for i in range(1, dist.order + 1):
        a = marginal(dist, (i,)).as_dict()
        b = marginal(dist_star, (i,)).as_dict()
        if set(a) == set(b) and all(abs(a[k] - b[k]) <= tol for k in a):
            shared.append(i)
    return tuple(shared)


def evaluation_grid(
    dist: DiscreteJoint, dist_star: DiscreteJoint, positions: Sequence[int]
) -> list[list[float]]:
    """Per-coordinate evaluation values for the given positions.

    All coordinate values occurring in either law, extended by one sentinel
    below and above; step-function comparisons attain their extremes on
    this grid.
    """
    grid = []
    for coord in subset_coordinates(dist.order, positions):
        values = sorted({atom[coord] for law in (dist, dist_star) for atom, _ in law.atoms})
        grid.append([values[0] - 1.0] + values + [values[-1] + 1.0])
    return grid


# -- comparison ---------------------------------------------------------------------


def outcome(fn, *args):
    """A result as ``repr`` text (and JSON text for a law), or an error's type and message."""
    try:
        result = fn(*args)
    except OpdepError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, DiscreteJoint):
        return repr(result), json.dumps(model_to_dict(result))
    return repr(result)


def assert_matches(name, *args):
    assert outcome(getattr(disc, name), *args) == outcome(globals()[name], *args)


def subsets(order, proper=False):
    positions = range(1, order + 1)
    sizes = range(1, order) if proper else range(1, order + 1)
    return [s for size in sizes for s in itertools.combinations(positions, size)]


def flip_zeros(point):
    """The same point with the sign of every zero flipped."""
    return tuple(-v if v == 0.0 else v for v in point)


def check_law(law, points):
    """Orthants at ``points``; every marginal; every conditional at each held value and beyond."""
    for point in points:
        assert_matches("cdf", law, point)
        assert_matches("survival", law, point)
    for subset in subsets(law.order):
        assert_matches("marginal", law, subset)
    for subset in subsets(law.order, proper=True):
        held = [value for value, _ in marginal(law, subset).atoms]
        for value in held + [flip_zeros(v) for v in held] + [(7.5,) * (2 * len(subset))]:
            assert_matches("conditional", law, subset, value)


def check_pair(law, law_star):
    for positions in subsets(law.order):
        assert_matches("evaluation_grid", law, law_star, positions)
    for tol in (0.0, 1e-12, 0.25):
        assert_matches("shared_position_detect", law, law_star, tol)


# -- shipped models -----------------------------------------------------------------

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
SHIPPED = {
    path.stem: law
    for path in sorted(MODEL_DIR.glob("*.json"))
    if isinstance(law := load_model(path), DiscreteJoint)
}


def test_every_shipped_discrete_model_is_compared():
    assert len(SHIPPED) == 6


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_laws_match_the_oracles(name):
    law = SHIPPED[name]
    grid = evaluation_grid(law, law, range(1, law.order + 1))
    check_law(law, itertools.product(*grid))


@pytest.mark.parametrize("first, second", itertools.combinations(sorted(SHIPPED), 2))
def test_shipped_pairs_match_the_oracles(first, second):
    check_pair(SHIPPED[first], SHIPPED[second])
    check_pair(SHIPPED[second], SHIPPED[first])


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_laws_rebuild_as_products_and_mixtures(name):
    law = SHIPPED[name]
    head, tail = marginal(law, (1,)), marginal(law, (law.order,))
    assert_matches("product_extend", head, tail)
    heads = {point: conditional(law, (law.order,), point) for point, _ in tail.atoms}
    assert_matches("mixture_from_conditionals", tail, heads)


# -- lattice laws with signed-zero ties ---------------------------------------------

# 0.0 and -0.0 are one value, so points that differ only in the sign of a
# zero are one atom, and projections and columns merge values of either sign.
COORDS = [-0.0, 0.0, 1.0, 2.0]
PROBES = [-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf]


def lattice_laws(order):
    points = st.lists(
        st.tuples(*[st.sampled_from(COORDS)] * (2 * order)), min_size=1, max_size=8, unique=True
    )
    return points.flatmap(
        lambda pts: st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)).map(
            lambda ws: DiscreteJoint(order=order, atoms=[(p, w / sum(ws)) for p, w in zip(pts, ws)])
        )
    )


orders = st.integers(min_value=1, max_value=3)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_lattice_laws_match_the_oracles(data):
    law = data.draw(orders.flatmap(lattice_laws))
    points = data.draw(st.lists(st.tuples(*[st.sampled_from(PROBES)] * law.dimension), max_size=12))
    check_law(law, points + [point for point, _ in law.atoms])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(orders.flatmap(lambda d: st.tuples(lattice_laws(d), lattice_laws(d))))
def test_lattice_pairs_match_the_oracles(pair):
    check_pair(*pair)
    check_pair(*reversed(pair))
    check_pair(pair[0], pair[0])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_products_and_mixtures_match_the_oracles(data):
    # Orders up to 2 each keep the mixture's sweep of subsets small.
    head = data.draw(st.integers(1, 2).flatmap(lattice_laws))
    tail = data.draw(st.integers(1, 2).flatmap(lattice_laws))
    assert_matches("product_extend", head, tail)
    points = [point for point, _ in tail.atoms]
    laws = data.draw(st.lists(lattice_laws(head.order), min_size=len(points), max_size=len(points)))
    # Keys find their tail atom by ==, whatever the sign of their zeros.
    keys = [flip_zeros(p) if data.draw(st.booleans()) else p for p in points]
    heads = dict(zip(keys, laws))
    assert_matches("mixture_from_conditionals", tail, heads)
    law = disc.mixture_from_conditionals(tail, heads)
    check_law(law, [point for point, _ in law.atoms])
    # The tail coordinates come last in each window, so conditioning on the
    # last tail position at a value the tail never takes has zero mass.
    if head.order + tail.order > 1:
        last = head.order + tail.order
        assert outcome(disc.conditional, law, (last,), (7.5, 7.5)) == (
            "ZeroMassCondition", f"no mass at positions {(last,)} = (7.5, 7.5)"
        )
    assert_matches("mixture_from_conditionals", tail, dict(zip(keys[1:], laws)))
    assert_matches("mixture_from_conditionals", tail, dict(zip(keys, [product_extend(head, head)] + laws[1:])))
    assert_matches("mixture_from_conditionals", tail, {**heads, (9.0,) * tail.dimension: head})
