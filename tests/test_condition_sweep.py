"""The condition checker's sweep against the sweep it replaced.

``oracle_check_theorem_conditions`` is ``discrete.check_theorem_conditions``
as it was when variant A built the two conditional laws at each
conditioning value, once per law, and compared them at every grid point by
calling ``cdf`` and ``survival``, where the checker now sweeps all values
of a subset in batches of cumulative-sum tensors.  Its helpers are kept
verbatim, and the law operations it calls are the former tuple bodies kept
in ``test_discrete_oracles``.  Every report must equal the oracle's, as
records (``==``) and as JSON text, which also tells 0.0 from -0.0.
"""

from __future__ import annotations

import copy
import gc
import itertools
import json
import logging
import math
import pickle
import random
import tracemalloc
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdep import discrete as disc
from opdep.discrete import (
    ConditionReport,
    ConditionSkip,
    ConditionViolation,
    DiscreteJoint,
    Point,
    _check_subset,
    check_theorem_conditions,
    subset_coordinates,
)
from opdep.errors import DimensionMismatch, InvalidParameter, MassNotOne, ZeroMassCondition
from opdep.scenarios import build_example42, build_example43, example42_tail_interleaved
from test_discrete_oracles import cdf, conditional, lattice_laws, marginal, shared_position_detect, survival
from test_records import lattice_pairs

log = logging.getLogger(__name__)


# -- the oracle: the former sweep, verbatim ----------------------------------------


def _coordinate_values(
    dist: DiscreteJoint, dist_star: DiscreteJoint, coord: int
) -> list[float]:
    values = {atom[coord] for atom, _ in dist.atoms}
    values |= {atom[coord] for atom, _ in dist_star.atoms}
    ordered = sorted(values)
    return [ordered[0] - 1.0] + ordered + [ordered[-1] + 1.0]


def evaluation_grid(
    dist: DiscreteJoint, dist_star: DiscreteJoint, positions: Sequence[int]
) -> list[list[float]]:
    coords = subset_coordinates(dist.order, positions)
    return [_coordinate_values(dist, dist_star, c) for c in coords]


def _compare_laws(
    lhs_law: DiscreteJoint,
    rhs_law: DiscreteJoint,
    grid: Sequence[Sequence[float]],
    subset: tuple[int, ...],
    outer: str,
    conditioning_point: Point | None,
    tol: float,
    violations: list[ConditionViolation],
) -> None:
    """Record every grid point where a cdf or survival of ``lhs_law`` exceeds ``rhs_law``'s."""
    for point in itertools.product(*grid):
        for side, fn in (("cdf", cdf), ("survival", survival)):
            lhs = fn(lhs_law, point)
            rhs = fn(rhs_law, point)
            if lhs > rhs + tol:
                violations.append(
                    ConditionViolation(
                        subset=subset,
                        side=side,
                        outer=outer,
                        conditioning_point=conditioning_point,
                        evaluation_point=point,
                        lhs=lhs,
                        rhs=rhs,
                    )
                )


def _sweep_conditional(
    dist: DiscreteJoint,
    dist_star: DiscreteJoint,
    subset: tuple[int, ...],
    complement: tuple[int, ...],
    shared: frozenset[int],
    tol: float,
    violations: list[ConditionViolation],
    skipped: list[ConditionSkip],
) -> None:
    if set(complement) <= shared:
        # The compared window parts are literally the same variables, so
        # both sides of every inequality in these families coincide.
        return
    grid = evaluation_grid(dist, dist_star, complement)
    for outer_name, outer, inner, outer_is_first in (
        ("first", dist, dist_star, True),
        ("second", dist_star, dist, False),
    ):
        for value, _ in marginal(outer, subset).atoms:
            own = conditional(outer, subset, value)
            try:
                mixed = conditional(inner, subset, value)
            except ZeroMassCondition:
                log.debug(
                    "skipped subset %s, outer law %s, value %s: zero mass in the other law",
                    subset,
                    outer_name,
                    value,
                )
                skipped.append(
                    ConditionSkip(
                        subset=subset,
                        outer=outer_name,
                        conditioning_point=value,
                        reason="conditioning value has zero mass in the other law",
                    )
                )
                continue
            # Orient so that lhs belongs to the first law, rhs to the second.
            lhs_law, rhs_law = (own, mixed) if outer_is_first else (mixed, own)
            _compare_laws(lhs_law, rhs_law, grid, subset, outer_name, value, tol, violations)


def oracle_check_theorem_conditions(
    dist: DiscreteJoint,
    dist_star: DiscreteJoint,
    variant: str,
    tol: float = 1e-12,
    shared_positions: Iterable[int] | None = None,
) -> ConditionReport:
    if dist.order != dist_star.order:
        raise DimensionMismatch(f"orders differ: {dist.order} vs {dist_star.order}")
    if variant not in ("A", "B"):
        raise InvalidParameter(f"variant must be 'A' or 'B', got {variant!r}")
    if tol < 0.0:
        raise InvalidParameter(f"tol must be >= 0, got {tol}")
    d = dist.order
    if shared_positions is None:
        shared = frozenset(shared_position_detect(dist, dist_star, tol=min(tol, 1e-12) or 1e-12))
    else:
        shared = frozenset(_check_subset(d, shared_positions, allow_empty=True))
    positions = range(1, d + 1)
    violations: list[ConditionViolation] = []
    skipped: list[ConditionSkip] = []
    for size in range(0, d):
        for subset in itertools.combinations(positions, size):
            if variant == "A" and not subset:
                continue
            complement = tuple(i for i in positions if i not in subset)
            if variant == "B":
                law = marginal(dist, complement) if subset else dist
                law_star = marginal(dist_star, complement) if subset else dist_star
                grid = evaluation_grid(dist, dist_star, complement)
                _compare_laws(law, law_star, grid, subset, "none", None, tol, violations)
            else:
                _sweep_conditional(
                    dist, dist_star, subset, complement, shared, tol, violations, skipped
                )
    return ConditionReport(
        variant=variant,
        holds=not violations,
        violations=tuple(violations),
        skipped=tuple(skipped),
        shared_positions=tuple(sorted(shared)),
        tol=tol,
    )


# -- inputs -------------------------------------------------------------------------


def lattice_law_3(rng):
    points = rng.sample(list(itertools.product((0.0, 1.0), repeat=6)), rng.randint(3, 5))
    weights = [rng.randint(1, 5) for _ in points]
    return DiscreteJoint(order=3, atoms=[(p, w / sum(weights)) for p, w in zip(points, weights)])


def order3_pairs(count):
    """The first ``count`` seeded order-3 pairs whose variant-A sweep has violations and skips."""
    pairs = []
    for seed in itertools.count():
        rng = random.Random(seed)
        pair = lattice_law_3(rng), lattice_law_3(rng)
        report = oracle_check_theorem_conditions(*pair, "A")
        if report.violations and report.skipped:
            pairs.append(pair)
            if len(pairs) == count:
                return pairs


# The second law holds position 1's value (0.0, 0.0) as (-0.0, 0.0): the
# laws share the value, and each law's report entries keep its own zero.
SIGNED_ZERO = (
    DiscreteJoint(order=2, atoms={(0.0, 1.0, 0.0, 1.0): 0.5, (1.0, 0.0, 1.0, 0.0): 0.5}),
    DiscreteJoint(order=2, atoms={(-0.0, 1.0, 0.0, 0.0): 0.5, (1.0, 0.0, 1.0, 1.0): 0.5}),
)

# Beyond 2**53 the sentinels v - 1.0 and v + 1.0 round back to v, so every
# axis of the grid repeats its lowest and highest value.
BIG, BIGGER = 1e17, 1e17 + 64
REPEATED_SENTINELS = (
    DiscreteJoint(order=2, atoms={(BIG, BIG, BIG, BIGGER): 0.5, (BIG, BIG, BIGGER, BIG): 0.5}),
    DiscreteJoint(order=2, atoms={(BIG, BIG, BIG, BIG): 0.5, (BIGGER, BIGGER, BIG, BIG): 0.5}),
)

PAIRS = {
    "example42": tuple(build_example42()),
    "example42 interleaved": tuple(build_example42(example42_tail_interleaved())),
    "example43": tuple(build_example43()),
    "example43 interleaved": tuple(build_example43(c1=(1.5, 2.5), c2=(2.5, 1.5))),
    "signed zero": SIGNED_ZERO,
    "repeated sentinels": REPEATED_SENTINELS,
}
PAIRS.update({f"lattice {i}": pair for i, pair in enumerate(lattice_pairs(20))})
PAIRS.update({f"order 3, {i}": pair for i, pair in enumerate(order3_pairs(10))})


def runs(pair):
    """Both argument orders; variant A with each shared-positions choice, and variant B.

    Variant B does not read the shared positions beyond reporting them.
    """
    first, second = pair
    for law, law_star in ((first, second), (second, first)):
        yield law, law_star, "B", None
        for shared in [None, ()] + [(i,) for i in range(1, law.order + 1)]:
            yield law, law_star, "A", shared


# -- tests --------------------------------------------------------------------------


def assert_matches_oracle(law, law_star, variant, tol=1e-12, shared=None):
    report = check_theorem_conditions(law, law_star, variant, tol=tol, shared_positions=shared)
    expected = oracle_check_theorem_conditions(law, law_star, variant, tol=tol, shared_positions=shared)
    assert report == expected
    assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())
    return report


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_reports_match_oracle(name):
    for law, law_star, variant, shared in runs(PAIRS[name]):
        assert_matches_oracle(law, law_star, variant, shared=shared)


@pytest.mark.parametrize("tol", [0.0, 0.25])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_reports_match_oracle_at_other_tolerances(name, tol):
    first, second = PAIRS[name]
    for law, law_star in ((first, second), (second, first)):
        for variant in ("A", "B"):
            assert_matches_oracle(law, law_star, variant, tol=tol)


lattice_law_pairs = st.integers(1, 2).flatmap(lambda d: st.tuples(lattice_laws(d), lattice_laws(d)))


@pytest.mark.parametrize("variant", ["A", "B"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(pair=lattice_law_pairs)
def test_lattice_pairs_with_signed_zeros_match_oracle(variant, pair):
    for law, law_star in (pair, pair[::-1]):
        assert_matches_oracle(law, law_star, variant)


@pytest.mark.parametrize("tol", [0.0, 0.25])
@pytest.mark.parametrize("variant", ["A", "B"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(pair=lattice_law_pairs)
def test_lattice_pairs_match_oracle_at_other_tolerances(variant, tol, pair):
    for law, law_star in (pair, pair[::-1]):
        assert_matches_oracle(law, law_star, variant, tol=tol)


def test_order_3_reports_cover_both_subset_sizes():
    sizes = set()
    for law, law_star in order3_pairs(10):
        sizes |= {len(v.subset) for v in assert_matches_oracle(law, law_star, "A", shared=()).violations}
    assert sizes == {1, 2}


@pytest.mark.parametrize("variant", ["A", "B"])
def test_each_subset_is_merged_once(monkeypatch, variant):
    """The single-position arrays that shared-position detection merges are the sweep's too."""
    merged = []
    merged_of = disc._merged

    def counted(law, positions):
        merged.append((id(law), tuple(positions)))
        return merged_of(law, positions)

    monkeypatch.setattr(disc, "_merged", counted)
    for law, law_star in [*order3_pairs(3), PAIRS["example43"]]:
        merged.clear()
        assert_matches_oracle(law, law_star, variant)
        assert merged and len(merged) == len(set(merged))


@pytest.mark.parametrize("shared", [None, ()])
@pytest.mark.parametrize("variant", ["A", "B"])
def test_a_sweep_builds_no_law_and_no_atoms(monkeypatch, variant, shared):
    """A sweep and its records read the laws' arrays: no marginal or other law is built, and no atoms view."""
    pairs = [
        tuple(DiscreteJoint._from_arrays(law.order, law._points, law._probs) for law in pair)
        for pair in [*order3_pairs(3), *PAIRS.values()]
    ]

    def refused(*args):
        raise AssertionError("the sweep built a law")

    monkeypatch.setattr(disc, "marginal", refused)
    monkeypatch.setattr(DiscreteJoint, "_from_arrays", classmethod(refused))
    violations = skipped = 0
    for law, law_star in pairs:
        for first, second in ((law, law_star), (law_star, law)):
            report = check_theorem_conditions(first, second, variant, shared_positions=shared)
            violations += len(tuple(report.violations))
            skipped += len(report.skipped)
        assert "atoms" not in law.__dict__ and "atoms" not in law_star.__dict__
    assert violations and (skipped or variant == "B")


def test_repeated_sentinels_keep_the_extreme_atoms():
    # The atoms at the lowest value sit under both copies of it on an axis;
    # summing the survival from the first copy only dropped them at the second.
    law, law_star = REPEATED_SENTINELS
    assert disc.evaluation_grid(law, law_star, (1,))[0] == [BIG, BIG, BIGGER, BIGGER]
    report = assert_matches_oracle(law, law_star, "B")
    assert len(report.violations) == 96
    # Both survivals are 1 at the lowest point, which the first copies alone reported as 0.5 against 0.
    assert disc.survival(law, (BIG,) * 4) == disc.survival(law_star, (BIG,) * 4) == 1.0
    assert not [v for v in report.violations if v.evaluation_point == (BIG,) * 4]


def many_values_pair(values):
    """An order-2 pair holding ``values`` values (i, i) at position 1, each with two atoms in each law.

    The laws' position-2 values lie on different lattices, so no value at
    position 2 is held by both, and the complement grid is 32 by 32.
    """
    rng = random.Random(0)
    laws = []
    for parity in (0, 1):
        atoms = set()
        for i in range(values):
            while len(atoms) < 2 * (i + 1):
                atoms.add((float(i), float(2 * rng.randrange(15) + parity), float(i), float(2 * rng.randrange(15) + parity)))
        laws.append(DiscreteJoint(order=2, atoms=[(point, 1 / len(atoms)) for point in atoms]))
    return laws


def test_values_swept_in_several_batches_match_oracle(monkeypatch):
    law, law_star = many_values_pair(65)
    grid = disc.evaluation_grid(law, law_star, (2,))
    assert math.prod(map(len, grid)) == 1024  # so a batch holds 2**16 // 1024 = 64 values
    batches = []
    tensors = disc._orthant_tensors

    def counted(laws, groups, low, high, probs, shape):
        batches.append(shape[0])
        return tensors(laws, groups, low, high, probs, shape)

    monkeypatch.setattr(disc, "_orthant_tensors", counted)
    report = assert_matches_oracle(law, law_star, "A", shared=())
    assert report.violations and report.skipped
    # The values at position 1 take two batches; no value at position 2 is held by both laws.
    assert batches == [64, 1]


def test_a_conditional_law_that_conditional_refuses_is_refused():
    # Added one at a time after 0.5, each 2**-55 rounds away, so the running
    # total of the value (0, 0) at position 1 stays 0.5: the marginal law there
    # misses 7.5e-13 of its mass, within 1e-12, and the conditional law
    # normalized by that total has mass 1 + 1.5e-12.
    tiny = 2.0**-55
    atoms = {(0.0, float(k), 0.0, float(k)): tiny for k in range(1, 27_001)}
    atoms[(0.0, 0.0, 0.0, 0.0)] = 0.5
    atoms[(1.0, 0.0, 1.0, 0.0)] = 0.5 - 27_000 * tiny
    law = DiscreteJoint(order=2, atoms=atoms)
    law_star = DiscreteJoint(order=2, atoms={(0.0, 0.0, 0.0, 0.0): 0.5, (1.0, 0.0, 1.0, 0.0): 0.5})
    with pytest.raises(MassNotOne) as refused:
        disc.conditional(law, (1,), (0.0, 0.0))
    with pytest.raises(MassNotOne) as checked:
        check_theorem_conditions(law, law_star, "A")
    assert checked.value.actual == refused.value.actual > 1.0 + 1e-12


def test_violations_at_one_grid_point_share_its_evaluation_point():
    repeated = 0
    for law, law_star, variant, shared in runs(PAIRS["example42"]):
        report = check_theorem_conditions(law, law_star, variant, shared_positions=shared)
        points, values = {}, {}
        for v in report.violations:
            # repr tells 0.0 from -0.0, which are one key of a dict.
            group = points.setdefault((v.subset, repr(v.evaluation_point)), [])
            group.append(v.evaluation_point)
            assert v.evaluation_point is group[0]
            assert v.lhs is values.setdefault(v.lhs, v.lhs) and v.rhs is values.setdefault(v.rhs, v.rhs)
        repeated += sum(len(group) > 1 for group in points.values())
    assert repeated


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_a_report_holds_each_value_once_and_both_families_share_their_fields(name):
    for law, law_star, variant, shared in runs(PAIRS[name]):
        report = check_theorem_conditions(law, law_star, variant, shared_positions=shared)
        values = {}
        for v in report.violations:
            assert v.lhs is values.setdefault(v.lhs, v.lhs) and v.rhs is values.setdefault(v.rhs, v.rhs)
        # The two variant-A records of one inequality, "first" and "second",
        # run in step (see test_second_family_repeats_the_first).
        first = [v for v in report.violations if v.outer == "first"]
        second = [v for v in report.violations if v.outer == "second"]
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.subset is b.subset and a.evaluation_point is b.evaluation_point
            assert a.lhs is b.lhs and a.rhs is b.rhs


@pytest.fixture
def exact_points(monkeypatch):
    """How many grid points each batch of a sweep summed exactly, per side, for both laws at once."""
    counts = []
    exact_sums = disc._exact_sums

    def counted(probs, groups, cells, points, inside):
        counts.append(len(points[0]))
        return exact_sums(probs, groups, cells, points, inside)

    monkeypatch.setattr(disc, "_exact_sums", counted)
    return counts


def test_a_difference_at_or_within_rounding_of_tol_is_decided_by_exact_sums(exact_points):
    # At the lower left grid points the cdfs are 0.75 and 0.5, so lhs - rhs
    # is 0.25 exactly.  0.5 + tol rounds to 0.75 for the two largest tols, so
    # those hold; the other three are broken.
    law = DiscreteJoint(order=1, atoms={(0.0, 0.0): 0.75, (1.0, 1.0): 0.25})
    law_star = DiscreteJoint(order=1, atoms={(0.0, 0.0): 0.5, (1.0, 1.0): 0.5})
    verdicts = []
    for k in range(5):
        exact_points.clear()
        report = assert_matches_oracle(law, law_star, "B", tol=0.25 - k * 2.0**-54)
        assert sum(exact_points) > 0
        verdicts.append(report.holds)
    assert verdicts == [True, True, False, False, False]


def test_a_one_ulp_excess_is_a_violation_at_tol_zero(exact_points):
    # fsum(0.1, 0.2) is 0.30000000000000004, one ulp above 0.3.
    law = DiscreteJoint(order=1, atoms={(0.0, 0.0): 0.1, (0.0, 1.0): 0.2, (1.0, 1.0): 0.7})
    law_star = DiscreteJoint(order=1, atoms={(0.0, 0.0): 0.3, (1.0, 1.0): 0.7})
    report = assert_matches_oracle(law, law_star, "B", tol=0.0)
    broken = [v for v in report.violations if v.side == "cdf"]
    assert [v.evaluation_point for v in broken] == [(0.0, 1.0), (0.0, 2.0)]
    assert {(v.lhs, v.rhs) for v in broken} == {(0.30000000000000004, 0.3)}
    # The survival at (0, 1) is 0.9 against 0.7, a violation at any tol below 0.2.
    assert {v.side for v in assert_matches_oracle(law, law_star, "B").violations} == {"survival"}


def test_a_violation_that_the_tensors_round_away_is_kept():
    # On the diagonal the cdf tensor adds the first three probabilities in
    # order, to 0.676300578034682; their fsum is one ulp larger.  The second
    # law's cdf there is exactly the smaller value, so only the margin makes
    # the point a candidate, and at tol 0 it is a violation.
    weights = (63, 4, 50, 56)
    law = DiscreteJoint(order=1, atoms={(float(i), float(i)): w / 173 for i, w in enumerate(weights)})
    low = 63 / 173 + 4 / 173 + 50 / 173
    law_star = DiscreteJoint(order=1, atoms={(0.0, 0.0): low, (5.0, 5.0): 1.0 - low})
    report = assert_matches_oracle(law, law_star, "B", tol=0.0)
    assert ConditionViolation(
        subset=(), side="cdf", outer="none", conditioning_point=None,
        evaluation_point=(2.0, 2.0), lhs=0.6763005780346821, rhs=low,
    ) in report.violations


def test_a_law_against_itself_at_tol_zero_sums_every_grid_point(exact_points):
    law = PAIRS["order 3, 0"][0]
    grid = disc.evaluation_grid(law, law, range(1, 4))
    report = check_theorem_conditions(law, law, "B", tol=0.0)
    assert report.holds
    # Both sides for the full joint, the first family swept.
    assert exact_points[:2] == [math.prod(map(len, grid))] * 2


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_orthant_tensors_match_the_scalar_values(name):
    law, law_star = PAIRS[name]
    d = law.order
    for size in range(1, d + 1):
        for positions in itertools.combinations(range(1, d + 1), size):
            grid = disc.evaluation_grid(law, law_star, positions)
            axes = [np.asarray(values) for values in grid]
            shape = tuple(map(len, axes))
            parts = (disc.marginal(law, positions), disc.marginal(law_star, positions))
            points = np.concatenate([part._points for part in parts])
            laws = np.repeat((0, 1), [len(part._probs) for part in parts])
            low = np.array([np.searchsorted(a, c) for a, c in zip(axes, points.T)])
            high = np.array([np.searchsorted(a, c, side="right") for a, c in zip(axes, points.T)]) - 1
            probs = np.concatenate([part._probs for part in parts])
            tensors = disc._orthant_tensors(laws, np.zeros(len(laws), dtype=np.intp), low, high, probs, (1, *shape))
            for k, part in enumerate(parts):
                for index, point in zip(np.ndindex(shape), itertools.product(*grid)):
                    assert abs(tensors[0][(k, 0, *index)] - disc.cdf(part, point)) <= 1e-12
                    assert abs(tensors[1][(k, 0, *index)] - disc.survival(part, point)) <= 1e-12


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_second_family_repeats_the_first(name):
    for law, law_star, variant, shared in runs(PAIRS[name]):
        if variant == "A":
            report = check_theorem_conditions(law, law_star, variant, shared_positions=shared)
            # Violations arise only at values both laws hold, and each law
            # lists its values in sorted order, so the two families run in step.
            first = [v for v in report.violations if v.outer == "first"]
            second = [v for v in report.violations if v.outer == "second"]
            assert len(first) + len(second) == len(report.violations)
            assert [replace(v, outer="first") for v in second] == first


def test_relabelled_violations_keep_the_second_laws_value():
    report = check_theorem_conditions(*SIGNED_ZERO, "A", shared_positions=())
    points = {
        outer: {json.dumps(v.conditioning_point) for v in report.violations if v.outer == outer}
        for outer in ("first", "second")
    }
    assert "[0.0, 0.0]" in points["first"] and "[-0.0, 0.0]" not in points["first"]
    assert "[-0.0, 0.0]" in points["second"] and "[0.0, 0.0]" not in points["second"]


@pytest.mark.parametrize("variant", ["A", "B"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(pair=lattice_law_pairs)
def test_a_report_is_the_report_of_its_records(variant, pair):
    """Columns and the tuple of their records make the same report in every public form."""
    for law, law_star in (pair, pair[::-1]):
        report = check_theorem_conditions(law, law_star, variant)
        swapped = check_theorem_conditions(law_star, law, variant)
        # Compared from the columns alone, as their records compare.
        assert (report.violations == swapped.violations) is (tuple(report.violations) == tuple(swapped.violations))
        rebuilt = replace(report, violations=tuple(report.violations))
        assert report == rebuilt and rebuilt == report and not report != rebuilt
        assert hash(report) == hash(rebuilt) and repr(report) == repr(rebuilt)
        assert json.dumps(report.to_dict()) == json.dumps(rebuilt.to_dict())
        for kept in (report, rebuilt):
            for restored in (pickle.loads(pickle.dumps(kept)), copy.deepcopy(kept)):
                assert restored == report and rebuilt == restored and hash(restored) == hash(report)
                assert repr(restored) == repr(report)
                assert json.dumps(restored.to_dict()) == json.dumps(report.to_dict())


def test_length_verdict_and_equality_build_no_records():
    law, law_star = PAIRS["example43"]
    report, again = (check_theorem_conditions(law, law_star, "A", shared_positions=()) for _ in range(2))
    assert len(report.violations) > 0 and not report.holds and report == again
    assert report.violations._records is None and again.violations._records is None
    assert len(report.violations) == len(tuple(report.violations))


@pytest.mark.parametrize("variant, values", [("A", 20), ("B", 6)])
def test_a_report_keeps_its_violations_in_a_few_bytes_each(variant, values):
    law, law_star = many_values_pair(values)
    check_theorem_conditions(law, law_star, variant, shared_positions=())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = check_theorem_conditions(law, law_star, variant, shared_positions=())
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.violations) >= 5000 and report.violations._records is None
    # A row of codes and values takes 24 B, and both variant-A families share it.
    assert retained <= 40 * len(report.violations)


@st.composite
def lattice_report_inputs(draw):
    """A lattice pair in either order, a variant, a shared-positions choice and a tolerance."""
    pair = draw(st.sampled_from([PAIRS[f"lattice {i}"] for i in range(20)]))
    law, law_star = pair if draw(st.booleans()) else pair[::-1]
    shared = draw(st.sampled_from([None, (), (1,), (2,), (1, 2)]))
    return law, law_star, draw(st.sampled_from("AB")), shared, draw(st.sampled_from((0.0, 1e-12, 0.25)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_two_reports_compare_as_their_records(data):
    first = data.draw(lattice_report_inputs())
    second = first if data.draw(st.booleans()) else data.draw(lattice_report_inputs())
    a, b = (
        check_theorem_conditions(law, law_star, variant, tol=tol, shared_positions=shared)
        for law, law_star, variant, shared, tol in (first, second)
    )
    same_violations = a.violations == b.violations
    assert a.violations._records is None and b.violations._records is None
    same_reports = a == b
    assert a.violations._records is None and b.violations._records is None
    assert same_violations is (tuple(a.violations) == tuple(b.violations))
    assert same_reports is (replace(a, violations=tuple(a.violations)) == replace(b, violations=tuple(b.violations)))
    if first == second:
        assert same_violations and same_reports
