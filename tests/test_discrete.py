"""Discrete joint laws: orthants, conditioning, mixtures, condition sweeps."""

import logging
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opdep
from opdep import discrete, piecewise
from opdep.discrete import (
    DiscreteJoint,
    check_theorem_conditions,
    conditional,
    cdf,
    evaluation_grid,
    exact_opd,
    marginal,
    marginal_pattern_distribution,
    mixture_from_conditionals,
    pattern_coincidence,
    product_extend,
    sample,
    shared_position_detect,
    subset_coordinates,
    survival,
)
from opdep.errors import (
    DegenerateDistribution,
    DimensionMismatch,
    InvalidMixture,
    InvalidParameter,
    MassNotOne,
    ModelStructureError,
    NonFiniteInput,
    ZeroMassCondition,
)
from opdep.patterns import pattern_of
from opdep.scenarios import (
    build_example42,
    build_example43,
    example42_tail_interleaved,
    head_law,
    head_law_star,
    uniform_head_law,
)


def oracle_opd(dist):
    """Brute-force dependence: tally pattern pairs straight off the atoms."""
    d = dist.order
    joint = defaultdict(float)
    px = defaultdict(float)
    py = defaultdict(float)
    for atom, prob in dist.atoms:
        xp = pattern_of(atom[:d])
        yp = pattern_of(atom[d:])
        joint[(xp, yp)] += prob
        px[xp] += prob
        py[yp] += prob
    coincidence = sum(p for (a, b), p in joint.items() if a == b)
    cross = sum(px[pat] * py.get(pat, 0.0) for pat in px)
    return (coincidence - cross) / (1.0 - cross)


# --- construction and orthants ----------------------------------------------

def test_construction_validation():
    with pytest.raises(MassNotOne):
        DiscreteJoint(order=1, atoms={(0.0, 0.0): 0.5})
    with pytest.raises(ModelStructureError):
        DiscreteJoint(order=1, atoms={(0.0, 0.0): -1.0, (1.0, 1.0): 2.0})
    with pytest.raises(ModelStructureError):
        DiscreteJoint(order=1, atoms=[((0.0, 0.0), 0.5), ((0.0, 0.0), 0.5)])
    with pytest.raises(DimensionMismatch):
        DiscreteJoint(order=2, atoms={(0.0, 0.0): 1.0})
    with pytest.raises(NonFiniteInput):
        DiscreteJoint(order=1, atoms={(math.inf, 0.0): 1.0})
    with pytest.raises(ModelStructureError):
        DiscreteJoint(order=1, atoms={})


def test_atoms_are_sorted_and_equal_laws_compare_equal():
    a = DiscreteJoint(order=1, atoms={(2.0, 2.0): 0.5, (1.0, 3.0): 0.5})
    b = DiscreteJoint(order=1, atoms=[((1, 3), 0.5), ((2, 2), 0.5)])
    assert a.atoms == b.atoms
    assert a.atoms[0][0] == (1.0, 3.0)


def test_cdf_survival_hand_values():
    law = DiscreteJoint(order=1, atoms={(1.0, 2.0): 0.5, (2.0, 1.0): 0.5})
    assert cdf(law, (1.5, 1.5)) == 0.0
    assert survival(law, (1.5, 1.5)) == 0.0
    # for joint laws the survival function is not one minus the cdf
    assert 1.0 - cdf(law, (1.5, 1.5)) == 1.0
    assert cdf(law, (2.0, 2.0)) == 1.0
    assert survival(law, (1.0, 1.0)) == 1.0
    assert cdf(law, (1.0, 2.0)) == 0.5
    assert survival(law, (2.0, 1.0)) == 0.5
    with pytest.raises(NonFiniteInput):
        cdf(law, (math.nan, 0.0))
    with pytest.raises(DimensionMismatch):
        survival(law, (1.0,))


def test_subset_coordinates_layout():
    assert subset_coordinates(3, (1, 3)) == [0, 2, 3, 5]
    assert subset_coordinates(2, (2,)) == [1, 3]
    assert subset_coordinates(1, (1,)) == [0, 1]
    # Position 0 would wrap to the last x coordinate, and position 3 of order 2 read y_1.
    for positions in ((0,), (3,)):
        with pytest.raises(InvalidParameter, match=rf"^positions \({positions[0]},\) outside 1\.\.2$"):
            subset_coordinates(2, positions)


# --- marginals and conditionals ----------------------------------------------

def test_marginal_projects_window_pairs():
    pair = build_example42()
    tail = marginal(pair.law, (2,))
    assert tail.as_dict() == {(5.0, 5.0): 0.5, (6.0, 6.0): 0.5}
    head = marginal(pair.law, (1,))
    assert head.as_dict() == head_law().as_dict()
    full = marginal(pair.law, (1, 2))
    assert full.atoms == pair.law.atoms


def test_conditional_slices_and_normalizes():
    pair = build_example43()
    at_c1 = conditional(pair.law, (2,), (10.0, 10.0))
    assert at_c1.as_dict() == head_law().as_dict()
    at_c2 = conditional(pair.law, (2,), (20.0, 20.0))
    assert at_c2.as_dict() == uniform_head_law().as_dict()
    with pytest.raises(ZeroMassCondition):
        conditional(pair.law, (2,), (15.0, 15.0))
    with pytest.raises(InvalidParameter):
        conditional(pair.law, (1, 2), (1.0, 10.0, 3.0, 10.0))
    with pytest.raises(DimensionMismatch):
        conditional(pair.law, (2,), (10.0,))
    assert conditional(pair.law, (), ()) is pair.law


def test_disintegration_identity():
    # marginal(tail) times conditional(head | tail) rebuilds the joint pmf
    pair = build_example43()
    law = pair.law
    tail = marginal(law, (2,))
    rebuilt = defaultdict(float)
    for tail_point, weight in tail.atoms:
        head = conditional(law, (2,), tail_point)
        for head_point, prob in head.atoms:
            point = (head_point[0], tail_point[0], head_point[1], tail_point[1])
            rebuilt[point] += weight * prob
    assert set(rebuilt) == set(law.as_dict())
    for point, prob in law.atoms:
        assert rebuilt[point] == pytest.approx(prob, abs=1e-12)


def test_conditional_cdf_survival_wrappers():
    pair = build_example43()
    given_c1 = conditional(pair.law, (2,), (10.0, 10.0))
    assert cdf(given_c1, (1.0, 2.0)) == 0.0
    assert cdf(given_c1, (2.0, 3.0)) == 1.0
    assert survival(given_c1, (2.0, 2.0)) == 0.5


# --- patterns and dependence ---------------------------------------------

def test_pattern_distribution_breaks_ties_by_index():
    law = DiscreteJoint(order=2, atoms={(1.0, 1.0, 5.0, 6.0): 1.0})
    px = marginal_pattern_distribution(law, "x")
    assert px.prob_of((1, 2)) == 1.0
    py = marginal_pattern_distribution(law, "y")
    assert py.prob_of((1, 2)) == 1.0
    with pytest.raises(ModelStructureError):
        marginal_pattern_distribution(law, "z")


def test_product_law_has_zero_dependence():
    # head components independent, tail pinned between the head values:
    # the x pattern is decided by x1 alone and the y pattern by y1 alone
    head = DiscreteJoint(
        order=1,
        atoms={(0.0, 0.0): 0.25, (0.0, 1.0): 0.25, (1.0, 0.0): 0.25, (1.0, 1.0): 0.25},
    )
    product = product_extend(head, DiscreteJoint(order=1, atoms={(0.5, 0.5): 1.0}))
    px = marginal_pattern_distribution(product, "x")
    py = marginal_pattern_distribution(product, "y")
    assert px.probs == (0.5, 0.5) and py.probs == (0.5, 0.5)
    assert pattern_coincidence(product) == 0.5
    assert exact_opd(product) == pytest.approx(0.0, abs=1e-12)


def test_both_engines_answer_the_same_calls():
    for name in ("exact_opd", "pattern_coincidence", "marginal_pattern_distribution",
                 "cdf", "survival", "sample"):
        assert callable(getattr(piecewise, name)) and callable(getattr(discrete, name))
    assert opdep.exact_opd is piecewise.exact_opd
    assert opdep.exact_opd_discrete is discrete.exact_opd_discrete is discrete.exact_opd


def test_degenerate_cross_term_raises():
    law = DiscreteJoint(order=2, atoms={(1.0, 2.0, 3.0, 4.0): 1.0})
    with pytest.raises(DegenerateDistribution):
        exact_opd(law)
    defaults = build_example42()
    with pytest.raises(DegenerateDistribution):
        exact_opd(defaults.law)


def test_interleaved_tail_dependence_frozen_values():
    inter = build_example42(tail=example42_tail_interleaved())
    assert exact_opd(inter.law) == pytest.approx(-0.6, abs=1e-12)
    assert exact_opd(inter.law_star) == pytest.approx(0.2, abs=1e-12)
    mixed = build_example43(c1=(1.5, 2.5), c2=(2.5, 1.5))
    assert exact_opd(mixed.law) == pytest.approx(-0.6, abs=1e-12)
    assert exact_opd(mixed.law_star) == pytest.approx(0.2, abs=1e-12)


def test_exact_opd_matches_bruteforce_oracle():
    laws = [
        build_example42(tail=example42_tail_interleaved()).law,
        build_example42(tail=example42_tail_interleaved()).law_star,
        build_example43(c1=(1.5, 2.5), c2=(2.5, 1.5)).law,
        build_example43(c1=(1.5, 2.5), c2=(2.5, 1.5)).law_star,
        DiscreteJoint(
            order=2,
            atoms={
                (1.0, 2.0, 1.0, 2.0): 0.3,
                (2.0, 1.0, 2.0, 1.0): 0.3,
                (1.0, 2.0, 2.0, 1.0): 0.2,
                (1.0, 1.0, 2.0, 2.0): 0.2,
            },
        ),
    ]
    for law in laws:
        assert exact_opd(law) == pytest.approx(oracle_opd(law), abs=1e-12)


# --- composition -------------------------------------------------------------

def test_product_extend_layout_and_marginals():
    head = DiscreteJoint(order=1, atoms={(1.0, 3.0): 0.5, (2.0, 2.0): 0.5})
    tail = DiscreteJoint(order=2, atoms={(5.0, 6.0, 7.0, 8.0): 1.0})
    law = product_extend(head, tail)
    assert law.order == 3
    # head x, tail xs, head y, tail ys
    assert law.prob_of((1.0, 5.0, 6.0, 3.0, 7.0, 8.0)) == 0.5
    assert marginal(law, (1,)).as_dict() == head.as_dict()
    assert marginal(law, (2, 3)).as_dict() == tail.as_dict()


def test_mixture_validation():
    tail = DiscreteJoint(order=1, atoms={(1.0, 1.0): 0.5, (2.0, 2.0): 0.5})
    head = head_law()
    with pytest.raises(InvalidMixture):
        mixture_from_conditionals(tail, {(1.0, 1.0): head})
    with pytest.raises(InvalidMixture):
        mixture_from_conditionals(
            tail,
            {
                (1.0, 1.0): head,
                (2.0, 2.0): product_extend(head, tail),
            },
        )
    law = mixture_from_conditionals(tail, {(1.0, 1.0): head, (2.0, 2.0): head})
    # constant conditional collapses to a product
    assert law.as_dict() == product_extend(head, tail).as_dict()


def test_mixture_keys_that_are_one_point_are_refused():
    tail = DiscreteJoint(order=1, atoms={(1.0, 2.0): 0.5, (3.0, 4.0): 0.5})
    a, b = head_law(), head_law_star()
    with pytest.raises(InvalidMixture, match=r"^conditional keys repeat the point \(1\.0, 2\.0\)$"):
        mixture_from_conditionals(tail, {("1.0", "2.0"): a, (1.0, 2.0): b, (3.0, 4.0): a})
    tail = DiscreteJoint(order=1, atoms={(0.0, 2.0): 0.5, (3.0, 4.0): 0.5})
    with pytest.raises(InvalidMixture, match=r"^conditional keys repeat the point \(-0\.0, 2\.0\)$"):
        mixture_from_conditionals(tail, {(0.0, 2.0): a, ("-0.0", 2): b, (3.0, 4.0): a})


def test_shared_position_detection():
    pair = build_example42()
    assert shared_position_detect(pair.law, pair.law_star) == (2,)
    assert shared_position_detect(head_law(), head_law_star()) == ()
    p43 = build_example43()
    assert shared_position_detect(p43.law, p43.law_star) == (2,)


def test_sample_discrete_deterministic_and_supported():
    law = build_example43().law
    a = sample(law, 400, seed=9)
    b = sample(law, 400, seed=9)
    assert a == b
    support = set(law.as_dict())
    assert set(a) <= support
    # every atom of a 8-point law shows up in 400 draws
    assert set(a) == support
    with pytest.raises(InvalidParameter):
        sample(law, 0, seed=1)


def oracle_sample(dist, n, seed):
    """Former ``discrete.sample`` body, which drew from ``atoms``."""
    from opdep.randomness import make_rng

    rng = make_rng(seed)
    probs = [prob for _, prob in dist.atoms]
    total = math.fsum(probs)
    idx = rng.choice(len(dist.atoms), size=n, p=[p / total for p in probs])
    return [dist.atoms[i][0] for i in idx]


def _bits(points):
    return np.array(points, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("seed", [0, 1, 9, 2**40 + 3])
def test_sample_draws_the_former_body_bit_for_bit(seed):
    uneven = DiscreteJoint(2, [
        ((0.0, -0.0, 1.0, 2.0), 0.1),
        ((-0.0, 1.0, 0.0, 2.0), 0.2),
        ((1e-300, 3.0, -2.5, 0.0), 0.3),
        ((7.0, 7.0, 7.0, 7.0), 0.4 - 1e-13),
        ((-1.0, 2.0, 2.0, -1.0), 1e-13),
    ])
    for law in (build_example43().law, uneven, head_law()):
        fresh = DiscreteJoint(law.order, law.atoms)
        drawn = sample(fresh, 500, seed=seed)
        assert "atoms" not in vars(fresh)
        expected = oracle_sample(law, 500, seed=seed)
        assert all(type(point) is tuple for point in drawn)
        assert _bits(drawn) == _bits(expected)


# --- condition sweeps --------------------------------------------------------

def test_evaluation_grid_includes_sentinels():
    pair = build_example42()
    grid = evaluation_grid(pair.law, pair.law_star, (1,))
    # position 1 spans coordinates x1 and y1
    assert len(grid) == 2
    assert grid[0] == [0.0, 1.0, 2.0, 3.0]
    assert grid[1] == [1.0, 2.0, 3.0, 4.0]
    grid_tail = evaluation_grid(pair.law, pair.law_star, (2,))
    assert grid_tail[0] == [4.0, 5.0, 6.0, 7.0]


def test_evaluation_grid_refuses_positions_outside_the_order():
    pair = build_example42()
    # Position 0 used to wrap around to the last columns, position 3 to raise IndexError.
    for positions in ((0,), (3,), (1, 3), (-1, 2)):
        with pytest.raises(InvalidParameter, match=r"outside 1\.\.2"):
            evaluation_grid(pair.law, pair.law_star, positions)


def test_evaluation_grid_keeps_the_callers_order_of_positions():
    pair = build_example42()
    head = evaluation_grid(pair.law, pair.law_star, (1,))
    tail = evaluation_grid(pair.law, pair.law_star, (2,))
    assert evaluation_grid(pair.law, pair.law_star, (2, 1)) == [tail[0], head[0], tail[1], head[1]]
    assert evaluation_grid(pair.law, pair.law_star, range(1, 3)) == [head[0], tail[0], head[1], tail[1]]


def test_laws_of_different_orders_are_refused():
    # An order-1 and an order-2 law keep their y coordinates in different columns.
    short, long = head_law(), build_example42().law
    for first, second in ((short, long), (long, short)):
        with pytest.raises(DimensionMismatch, match="orders differ: "):
            evaluation_grid(first, second, (1,))
        with pytest.raises(DimensionMismatch, match="orders differ: "):
            shared_position_detect(first, second)


def test_law_operations_never_build_atoms():
    law, law_star = (DiscreteJoint(p.order, p.atoms) for p in build_example43())
    head = DiscreteJoint(1, head_law().atoms)
    cdf(law, (2.0, 20.0, 3.0, 20.0))
    survival(law, (2.0, 20.0, 3.0, 20.0))
    marginal(law, (1,))
    conditional(law, (2,), (10.0, 10.0))
    with pytest.raises(ZeroMassCondition):
        conditional(law, (2,), (15.0, 15.0))
    evaluation_grid(law, law_star, (1, 2))
    shared_position_detect(law, law_star)
    product_extend(head, law)
    assert not {"atoms"} & (vars(law).keys() | vars(law_star).keys() | vars(head).keys())


def test_conditions_hold_on_worked_pairs():
    for pair in (build_example42(), build_example43()):
        for variant in ("A", "B"):
            report = check_theorem_conditions(pair.law, pair.law_star, variant)
            assert report.holds
            assert report.violations == ()
            assert report.shared_positions == (2,)
    # variant A on the tail-switching pair leans on the shared tail
    report = check_theorem_conditions(build_example43().law, build_example43().law_star, "A")
    assert report.skipped == ()


def test_conditions_fail_when_swapped():
    pair = build_example42()
    report = check_theorem_conditions(pair.law_star, pair.law, "B")
    assert not report.holds
    assert any(
        v.subset == (2,)
        and v.side == "cdf"
        and v.evaluation_point == (1.0, 2.0)
        and v.lhs == 0.5
        and v.rhs == 0.0
        for v in report.violations
    )
    p43 = build_example43()
    report = check_theorem_conditions(p43.law_star, p43.law, "A")
    assert not report.holds
    assert any(v.conditioning_point == (10.0, 10.0) for v in report.violations)


def test_naive_hybrid_conditioning_rejects_valid_pair():
    # with sharing knowledge suppressed the checker must condition each law
    # on its own tail only, and the tail-switching pair then fails size-1
    # sweeps even though the ordering conclusion is true
    p43 = build_example43()
    report = check_theorem_conditions(p43.law, p43.law_star, "A", shared_positions=())
    assert report.shared_positions == ()
    assert not report.holds
    assert any(v.subset == (1,) for v in report.violations)


def test_skips_are_logged_for_unmatched_tail_support():
    head = head_law()
    tail_a = DiscreteJoint(order=1, atoms={(10.0, 10.0): 0.5, (20.0, 20.0): 0.5})
    tail_b = DiscreteJoint(order=1, atoms={(10.0, 10.0): 0.5, (30.0, 30.0): 0.5})
    law = product_extend(head, tail_a)
    law_star = product_extend(head, tail_b)
    report = check_theorem_conditions(law, law_star, "A", shared_positions=(2,))
    assert report.skipped
    assert all(s.subset == (2,) for s in report.skipped)
    assert {s.conditioning_point for s in report.skipped} == {(20.0, 20.0), (30.0, 30.0)}


def test_each_skip_emits_one_debug_record(caplog):
    head = head_law()
    law = product_extend(head, DiscreteJoint(order=1, atoms={(10.0, 10.0): 0.5, (20.0, 20.0): 0.5}))
    law_star = product_extend(head, DiscreteJoint(order=1, atoms={(10.0, 10.0): 0.5, (30.0, 30.0): 0.5}))
    with caplog.at_level(logging.DEBUG, logger="opdep.discrete"):
        report = check_theorem_conditions(law, law_star, "A", shared_positions=(2,))
    records = [r for r in caplog.records if r.name == "opdep.discrete"]
    assert len(records) == len(report.skipped) == 2
    for record, skip in zip(records, report.skipped):
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert str(skip.subset) in message
        assert f"outer law {skip.outer}" in message
        assert str(skip.conditioning_point) in message


def test_tolerance_monotonicity_and_validation():
    pair = build_example42()
    strict = check_theorem_conditions(pair.law_star, pair.law, "B")
    assert not strict.holds
    loose = check_theorem_conditions(pair.law_star, pair.law, "B", tol=1.0)
    assert loose.holds
    with pytest.raises(InvalidParameter):
        check_theorem_conditions(pair.law, pair.law_star, "C")
    with pytest.raises(InvalidParameter):
        check_theorem_conditions(pair.law, pair.law_star, "A", tol=-0.1)
    with pytest.raises(DimensionMismatch):
        check_theorem_conditions(pair.law, head_law(), "A")


def test_report_serialization_round_trip_fields():
    pair = build_example42()
    report = check_theorem_conditions(pair.law_star, pair.law, "B")
    payload = report.to_dict()
    assert payload["variant"] == "B"
    assert payload["holds"] is False
    assert payload["shared_positions"] == [2]
    assert payload["violations"]
    for v in payload["violations"]:
        assert v["side"] in ("cdf", "survival")
        assert v["conditioning_point"] is None  # variant B is unconditional
        assert v["lhs"] > v["rhs"]


# --- properties ---------------------------------------------------------------

@st.composite
def small_laws(draw):
    order = draw(st.integers(min_value=1, max_value=2))
    n_atoms = draw(st.integers(min_value=1, max_value=5))
    coords = st.integers(min_value=0, max_value=3).map(float)
    points = draw(
        st.lists(
            st.tuples(*[coords] * (2 * order)),
            min_size=n_atoms,
            max_size=n_atoms,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=8),
            min_size=n_atoms,
            max_size=n_atoms,
        )
    )
    total = sum(weights)
    return DiscreteJoint(
        order=order, atoms=[(p, w / total) for p, w in zip(points, weights)]
    )


@settings(max_examples=200, derandomize=True)
@given(small_laws(), st.floats(min_value=-0.5, max_value=3.5), st.floats(min_value=-0.5, max_value=3.5))
def test_orthant_bounds_and_monotonicity(law, a, b):
    point = (a, b) * law.order
    lower = cdf(law, point)
    upper = survival(law, point)
    assert 0.0 <= lower <= 1.0 + 1e-12
    assert 0.0 <= upper <= 1.0 + 1e-12
    # shifting the point up can only grow the cdf and shrink the survival
    shifted = tuple(v + 0.75 for v in point)
    assert cdf(law, shifted) >= lower - 1e-12
    assert survival(law, shifted) <= upper + 1e-12
    assert lower + upper <= 1.0 + cdf(law, point) + 1e-12  # trivially consistent


@settings(max_examples=200, derandomize=True)
@given(small_laws())
def test_self_comparison_always_holds(law):
    for variant in ("A", "B"):
        report = check_theorem_conditions(law, law, variant)
        assert report.holds
        assert report.shared_positions == tuple(range(1, law.order + 1))
