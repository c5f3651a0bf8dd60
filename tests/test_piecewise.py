"""Piecewise engine: quadrature oracles, geometry checks, sampling, MC."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opdep.errors import (
    AmbiguousBlockOrder,
    DimensionMismatch,
    InvalidParameter,
    MassNotOne,
    ModelStructureError,
    NonFiniteInput,
    OverlappingCells,
    UnsupportedChainLength,
)
from opdep.piecewise import (
    Block,
    Cell,
    ConcordanceReport,
    LowerOrthant,
    PatternCoincidence,
    PiecewiseUniformDensity,
    UpperOrthant,
    _chain2_lower,
    cdf,
    cell_mass,
    cells_overlap,
    concordance_check,
    default_grid,
    exact_opd,
    joint_pattern_distribution,
    marginal_pattern_distribution,
    mc_probability,
    pattern_coincidence,
    sample,
    survival,
    total_mass,
    validate,
)
from opdep.scenarios import build_counterexample

INF = math.inf


def chain(axis, positions, lo, hi):
    return Block(axis=axis, positions=positions, lo=lo, hi=hi, kind="chain")


def free(axis, positions, lo, hi):
    return Block(axis=axis, positions=positions, lo=lo, hi=hi, kind="free")


def model(order, *cells):
    return PiecewiseUniformDensity(order=order, cells=tuple(cells))


def quad_chain2_lower(lo, hi, t1, t2, n=1500):
    """Midpoint-rule volume of {lo <= u <= v <= hi, u <= t1, v <= t2}."""
    step = (hi - lo) / n
    xs = np.linspace(lo, hi, n, endpoint=False) + step / 2
    u = xs[:, None]
    v = xs[None, :]
    ind = (u <= v) & (u <= t1) & (v <= t2)
    return float(ind.sum()) * step * step


def quad_chain2_upper(lo, hi, t1, t2, n=1500):
    step = (hi - lo) / n
    xs = np.linspace(lo, hi, n, endpoint=False) + step / 2
    u = xs[:, None]
    v = xs[None, :]
    ind = (u <= v) & (u >= t1) & (v >= t2)
    return float(ind.sum()) * step * step


# --- masses and structure -------------------------------------------------

def test_cell_mass_formulas():
    c = Cell(1.0, (chain("x", (1, 2), 0.0, 1.0), chain("y", (1, 2), 0.0, 1.0)))
    assert cell_mass(c) == 0.25
    c = Cell(2.0, (free("x", (1, 2), 0.0, 1.0), free("y", (1, 2), 3.0, 5.0)))
    assert cell_mass(c) == 2.0 * 1.0 * 4.0
    c = Cell(1.0, (chain("x", (1, 2, 3), 0.0, 2.0), free("y", (1, 2, 3), 0.0, 1.0)))
    assert cell_mass(c) == pytest.approx(8.0 / 6.0, abs=1e-15)


def oracle_cell_mass(cell, steps):
    """``cell_mass`` as it was when the product was taken in floats; each intermediate goes to ``steps``."""
    mass = cell.value
    for block in cell.blocks:
        power = block.length ** block.size
        mass *= power
        steps += [power, mass]
        if block.kind == "chain":
            mass /= math.factorial(block.size)
            steps.append(mass)
    return mass


@st.composite
def scaled_cells(draw, max_exponent):
    """Cells of 1–4 blocks of size 1–4; the value and each block's hi are
    ``m * 10.0 ** e`` with 1 <= m < 10 and |e| <= max_exponent, and lo is 0 or -hi/2."""
    def scaled():
        mantissa = draw(st.floats(1.0, 10.0, exclude_max=True))
        return mantissa * 10.0 ** draw(st.integers(-max_exponent, max_exponent))

    blocks = []
    for axis in draw(st.lists(st.sampled_from("xy"), min_size=1, max_size=4)):
        hi = scaled()
        lo = -hi * draw(st.sampled_from((0.0, 0.5)))
        positions = tuple(range(1, draw(st.integers(1, 4)) + 1))
        blocks.append(Block(axis, positions, lo, hi, draw(st.sampled_from(("free", "chain")))))
    return Cell(scaled(), tuple(blocks))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(scaled_cells(max_exponent=30))
def test_cell_mass_is_within_a_few_roundings_of_the_float_product_wherever_its_intermediates_are_normal(cell):
    steps = []
    try:
        expected = oracle_cell_mass(cell, steps)
    except OverflowError:
        return
    if all(sys.float_info.min <= step < math.inf for step in steps):
        mass = Fraction(cell_mass(cell))
        assert abs(mass - Fraction(expected)) <= mass * Fraction(2) ** -48


def _glibc_length_cell(length, size):
    """A cell whose mass a product of mantissa powers misses in the last bit:
    with glibc 2.36, ``m ** size`` of ``m, e = math.frexp(length)`` differs from
    the correctly rounded ``length ** size / 2 ** (e * size)``."""
    positions = tuple(range(1, size + 1))
    length = float.fromhex(length)
    return Cell(1.0, (free("x", positions, 0.0, length), free("y", positions, 0.0, 1.0)))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(scaled_cells(max_exponent=300))
@example(_glibc_length_cell("0x1.4d534bf14dde9p+293", 2))
@example(_glibc_length_cell("0x1.20fc4593e3010p+156", 4))
@example(_glibc_length_cell("0x1.0fc7456a87a9dp-97", 8))
def test_cell_mass_is_the_correctly_rounded_exact_product(cell):
    exact = Fraction(cell.value)
    for block in cell.blocks:
        exact *= Fraction(block.length) ** block.size
        if block.kind == "chain":
            exact /= math.factorial(block.size)
    try:
        expected = float(exact)
    except OverflowError:
        with pytest.raises(OverflowError):
            cell_mass(cell)
        return
    assert cell_mass(cell).hex() == expected.hex()


def test_a_chain_of_171_positions_has_a_mass():
    """171! is above the float range; the mass 1e300 / 171! is not."""
    positions = tuple(range(1, 172))
    cell = Cell(1e300, (chain("x", positions, 0.0, 1.0), free("y", positions, 0.0, 1.0)))
    assert cell_mass(cell) == 8.057900396443103e-10 == float(Fraction(1e300) / math.factorial(171))


def test_block_and_cell_validation():
    with pytest.raises(ModelStructureError):
        Block(axis="z", positions=(1,), lo=0.0, hi=1.0, kind="free")
    with pytest.raises(ModelStructureError):
        Block(axis="x", positions=(1, 1), lo=0.0, hi=1.0, kind="free")
    with pytest.raises(ModelStructureError):
        Block(axis="x", positions=(1,), lo=1.0, hi=1.0, kind="free")
    with pytest.raises(ModelStructureError):
        Block(axis="x", positions=(1,), lo=0.0, hi=1.0, kind="sorted")
    with pytest.raises(ModelStructureError, match="finite width"):
        Block(axis="x", positions=(1,), lo=-1e308, hi=1e308, kind="free")
    with pytest.raises(ModelStructureError):
        Block(axis="x", positions=(1,), lo=-INF, hi=1.0, kind="free")
    with pytest.raises(ModelStructureError):
        Cell(0.0, (free("x", (1,), 0.0, 1.0),))
    with pytest.raises(ModelStructureError):
        Cell(1.0, ())


def test_model_requires_full_axis_coverage():
    with pytest.raises(ModelStructureError):
        model(2, Cell(1.0, (free("x", (1,), 0, 1), free("y", (1, 2), 0, 1))))
    with pytest.raises(ModelStructureError):
        model(
            2,
            Cell(
                1.0,
                (free("x", (1,), 0, 1), free("x", (1, 2), 0, 1), free("y", (1, 2), 0, 1)),
            ),
        )
    # position outside 1..order
    with pytest.raises(ModelStructureError):
        model(2, Cell(1.0, (free("x", (1, 3), 0, 1), free("y", (1, 2), 0, 1))))


def test_validate_mass():
    m = model(1, Cell(2.0, (free("x", (1,), 0, 1), free("y", (1,), 0, 1))))
    with pytest.raises(MassNotOne) as err:
        validate(m)
    assert err.value.actual == 2.0
    validate(m, expected_mass=2.0)


def test_validate_refuses_a_nan_expected_mass():
    with pytest.raises(MassNotOne) as err:
        validate(build_counterexample().f, expected_mass=math.nan)
    assert err.value.actual == 1.0 and math.isnan(err.value.expected)


@pytest.mark.parametrize(
    "m",
    [
        # (2e300) ** 2 * 1 overflows the float range.
        model(2, Cell(1.0, (free("x", (1, 2), -1e300, 1e300), free("y", (1, 2), 0, 1)))),
        # 2e300 * 2e300 is inf.
        model(1, Cell(1.0, (free("x", (1,), -1e300, 1e300), free("y", (1,), -1e300, 1e300)))),
    ],
)
def test_an_overflowing_mass_is_a_structure_error(m):
    for call in (total_mass, validate):
        with pytest.raises(ModelStructureError, match=r"^the cells' total mass overflows; "):
            call(m)


def test_validate_overlap_identical_cells():
    c = Cell(0.5, (free("x", (1,), 0, 1), free("y", (1,), 0, 1)))
    with pytest.raises(OverlappingCells) as err:
        validate(model(1, c, c))
    assert (err.value.first, err.value.second) == (0, 1)


def test_contradictory_chains_do_not_overlap():
    a = Cell(1.0, (chain("x", (1, 2), 0, 1), free("y", (1, 2), 0, 1)))
    b = Cell(1.0, (chain("x", (2, 1), 0, 1), free("y", (1, 2), 0, 1)))
    assert not cells_overlap(a, b, 2)
    validate(model(2, a, b), expected_mass=1.0)


def test_chain_against_free_overlaps():
    a = Cell(1.0, (chain("x", (1, 2), 0, 1), free("y", (1, 2), 0, 1)))
    b = Cell(1.0, (free("x", (1, 2), 0, 1), free("y", (1, 2), 0, 1)))
    assert cells_overlap(a, b, 2)
    with pytest.raises(OverlappingCells):
        validate(model(2, a, b), expected_mass=1.5)


def test_touching_intervals_do_not_overlap():
    a = Cell(1.0, (free("x", (1,), 0, 1), free("y", (1,), 0, 1)))
    b = Cell(1.0, (free("x", (1,), 1, 2), free("y", (1,), 0, 1)))
    assert not cells_overlap(a, b, 1)


def test_order_constraint_propagation_detects_infeasibility():
    # x1 < x2 in one cell; the other confines x1 to (0.6, 1) and x2 to
    # (0, 0.5), so the combined region needs 0.6 < x1 < x2 < 0.5: empty.
    a = Cell(1.0, (chain("x", (1, 2), 0, 1), free("y", (1, 2), 0, 1)))
    b = Cell(
        1.0,
        (free("x", (1,), 0.6, 1.0), free("x", (2,), 0.0, 0.5), free("y", (1, 2), 0, 1)),
    )
    assert not cells_overlap(a, b, 2)
    # widen x2 so the order becomes satisfiable
    c = Cell(
        1.0,
        (free("x", (1,), 0.6, 1.0), free("x", (2,), 0.0, 0.9), free("y", (1, 2), 0, 1)),
    )
    assert cells_overlap(a, c, 2)


# --- distribution functions -----------------------------------------------

def test_free_cell_cdf_survival_closed_form():
    m = model(1, Cell(1.0, (free("x", (1,), 0, 1), free("y", (1,), 0, 1))))
    assert cdf(m, (0.25, 0.5)) == 0.125
    assert survival(m, (0.25, 0.5)) == 0.75 * 0.5
    assert cdf(m, (2.0, 2.0)) == 1.0
    assert cdf(m, (-0.5, 0.5)) == 0.0
    assert survival(m, (-1.0, -1.0)) == 1.0


@pytest.mark.parametrize(
    "t1,t2",
    [
        (0.25, 0.75),
        (0.75, 0.25),
        (0.5, 2.0),
        (2.0, 0.5),
        (-1.0, 0.5),
        (0.5, -1.0),
        (1.0, 1.0),
        (0.3, 0.3),
        (2.0, 2.0),
        (0.9, 0.1),
    ],
)
def test_chain2_orthants_match_quadrature(t1, t2):
    m = model(2, Cell(1.0, (chain("x", (1, 2), 0, 1), free("y", (1, 2), 5, 6))))
    got_lower = cdf(m, (t1, t2, INF, INF))
    got_upper = survival(m, (t1, t2, -INF, -INF))
    # normalize by the model's 1/2 chain mass: the quadrature integrates the
    # raw region, the model weights it by the unit density
    assert got_lower == pytest.approx(quad_chain2_lower(0.0, 1.0, t1, t2) / 0.5 * 0.5, abs=3e-3)
    assert got_upper == pytest.approx(quad_chain2_upper(0.0, 1.0, t1, t2) / 0.5 * 0.5, abs=3e-3)


def test_chain2_exact_dyadic_values():
    m = model(2, Cell(1.0, (chain("x", (1, 2), 0, 1), free("y", (1, 2), 5, 6))))
    # full simplex
    assert cdf(m, (1.0, 1.0, INF, INF)) == 0.5
    # u <= 0.5 only: (0.5^2)/2 + 0.5*(1 - 0.5) = 0.375
    assert cdf(m, (0.5, 1.0, INF, INF)) == 0.375
    # both <= 0.5: triangle of side 0.5
    assert cdf(m, (0.5, 0.5, INF, INF)) == 0.125
    # reflection symmetry of the survival function
    assert survival(m, (0.0, 0.5, -INF, -INF)) == 0.375
    assert survival(m, (0.5, 0.5, -INF, -INF)) == 0.125
    assert survival(m, (0.5, 0.0, -INF, -INF)) == 0.125


def test_survival_is_complement_of_cdf_per_coordinate():
    models = build_counterexample()
    values = [-0.5, 0.0, 0.4, 1.0, 1.7, 2.5]
    for m in (models.f, models.f_star):
        for coord in range(4):
            for t in values:
                lo_pt = [INF] * 4
                hi_pt = [-INF] * 4
                lo_pt[coord] = t
                hi_pt[coord] = t
                # continuous law: P(X >= t) = 1 - P(X <= t)
                assert survival(m, hi_pt) == pytest.approx(1.0 - cdf(m, lo_pt), abs=1e-12)


def test_point_validation():
    m = model(1, Cell(1.0, (free("x", (1,), 0, 1), free("y", (1,), 0, 1))))
    with pytest.raises(DimensionMismatch):
        cdf(m, (0.5,))
    with pytest.raises(NonFiniteInput):
        cdf(m, (0.5, math.nan))


def test_long_chain_routes_to_monte_carlo():
    m = model(
        3,
        Cell(1.0, (chain("x", (1, 2, 3), 0, 1), free("y", (1, 2, 3), 0, 1))),
    )
    assert total_mass(m) == pytest.approx(1.0 / 6.0, abs=1e-15)
    with pytest.raises(UnsupportedChainLength):
        cdf(m, (1.0,) * 6)
    with pytest.raises(UnsupportedChainLength):
        survival(m, (0.0,) * 6)
    # P(all x <= t) on the normalized simplex is t^3
    est, se = mc_probability(m, LowerOrthant((0.5, 0.5, 0.5, INF, INF, INF)), 200_000, seed=7)
    assert abs(est - 0.125) <= 4 * se


def test_random_models_have_monotone_distribution_functions():
    rng = np.random.Generator(np.random.Philox(123))
    for _ in range(25):
        cells = []
        for _ in range(int(rng.integers(1, 4))):
            blocks = []
            for axis in ("x", "y"):
                lo = float(rng.uniform(-2, 1))
                hi = lo + float(rng.uniform(0.5, 2))
                kind = "chain" if rng.random() < 0.5 else "free"
                blocks.append(Block(axis=axis, positions=(1, 2), lo=lo, hi=hi, kind=kind))
            cells.append(Cell(float(rng.uniform(0.2, 2.0)), tuple(blocks)))
        m = PiecewiseUniformDensity(order=2, cells=tuple(cells))
        mass = total_mass(m)
        for _ in range(20):
            p = rng.uniform(-3, 3, size=4)
            q = p + rng.uniform(0, 2, size=4)
            assert cdf(m, p) <= cdf(m, q) + 1e-12
            assert survival(m, p) >= survival(m, q) - 1e-12
            assert -1e-12 <= cdf(m, p) <= mass + 1e-12
            assert -1e-12 <= survival(m, p) <= mass + 1e-12


# --- pattern probabilities -------------------------------------------------

def test_free_cell_patterns_are_uniform():
    m = model(2, Cell(1.0, (free("x", (1, 2), 0, 1), free("y", (1, 2), 0, 1))))
    assert marginal_pattern_distribution(m, "x").probs == (0.5, 0.5)
    m3 = model(3, Cell(1.0, (free("x", (1, 2, 3), 0, 1), free("y", (1, 2, 3), 0, 1))))
    assert marginal_pattern_distribution(m3, "x").probs == tuple([1 / 6] * 6)


def test_chain_cell_patterns_are_deterministic():
    m = model(2, Cell(1.0, (chain("x", (2, 1), 0, 1), chain("y", (1, 2), 0, 1))))
    px = marginal_pattern_distribution(m, "x")
    py = marginal_pattern_distribution(m, "y")
    assert px.prob_of((2, 1)) == 1.0
    assert py.prob_of((1, 2)) == 1.0


def test_cross_block_order_fixes_rank_partition():
    # positions 1,2 free on [0,1]; position 3 alone on [2,3]: rank 3 is
    # always at position 3, the first two ranks are uniform.
    m = model(
        3,
        Cell(
            1.0,
            (
                free("x", (1, 2), 0, 1),
                free("x", (3,), 2, 3),
                free("y", (1, 2, 3), 0, 1),
            ),
        ),
    )
    px = marginal_pattern_distribution(m, "x")
    assert px.prob_of((1, 2, 3)) == 0.5
    assert px.prob_of((2, 1, 3)) == 0.5


def test_chain_below_free_block():
    # x2 < x1 in [0,1], x3 in [-2,-1]: position 3 is the smallest, so the
    # pattern is (3, 2, 1) with probability 1.
    m = model(
        3,
        Cell(
            1.0,
            (
                chain("x", (2, 1), 0, 1),
                free("x", (3,), -2, -1),
                free("y", (1, 2, 3), 0, 1),
            ),
        ),
    )
    px = marginal_pattern_distribution(m, "x")
    assert px.prob_of((3, 2, 1)) == 1.0


def test_ambiguous_block_order_raises_for_patterns_only():
    m = model(
        2,
        Cell(1.0, (free("x", (1,), 0, 1), free("x", (2,), 0.5, 1.5), free("y", (1, 2), 0, 1))),
    )
    with pytest.raises(AmbiguousBlockOrder):
        marginal_pattern_distribution(m, "x")
    # distribution functions never need a block order
    assert cdf(m, (1.0, 1.5, 1.0, 1.0)) > 0.0


def test_product_model_joint_factorizes_and_opd_is_zero():
    # independent product: two x parts times two y parts, four cells
    x_parts = [(0.5, chain("x", (1, 2), 0.0, 1.0)), (0.5, chain("x", (2, 1), 2.0, 4.0))]
    y_parts = [(0.25, free("y", (1, 2), 0.0, 1.0)), (0.75, free("y", (1, 2), 2.0, 3.0))]
    cells = []
    for wx, bx in x_parts:
        for wy, by in y_parts:
            # cell value chosen so that cell mass equals wx * wy
            mass_x = bx.length ** 2 / 2.0
            mass_y = by.length ** 2
            cells.append(Cell(wx * wy / (mass_x * mass_y), (bx, by)))
    m = PiecewiseUniformDensity(order=2, cells=tuple(cells))
    validate(m)
    joint = joint_pattern_distribution(m)
    px = marginal_pattern_distribution(m, "x")
    py = marginal_pattern_distribution(m, "y")
    for (pat_x, pat_y), prob in joint.items():
        assert prob == pytest.approx(px.prob_of(pat_x) * py.prob_of(pat_y), abs=1e-12)
    assert exact_opd(m) == pytest.approx(0.0, abs=1e-12)


def test_counterexample_pattern_values():
    models = build_counterexample()
    assert pattern_coincidence(models.f) == 1.0
    assert pattern_coincidence(models.f_star) == 0.5
    assert exact_opd(models.f) == 1.0
    assert exact_opd(models.f_star) == 0.0
    joint = joint_pattern_distribution(models.f)
    assert joint == {((1, 2), (1, 2)): 0.5, ((2, 1), (2, 1)): 0.5}


# --- sampling and Monte Carlo ----------------------------------------------

def test_sampling_is_seed_deterministic():
    m = build_counterexample().f
    a = sample(m, 500, seed=42)
    b = sample(m, 500, seed=42)
    c = sample(m, 500, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_samples_respect_cell_geometry():
    m = model(
        2,
        Cell(1.0, (chain("x", (2, 1), 0, 1), chain("y", (1, 2), 2, 3))),
    )
    pts = sample(m, 2000, seed=11)
    x1, x2, y1, y2 = pts.T
    assert np.all((0 <= x1) & (x1 <= 1) & (0 <= x2) & (x2 <= 1))
    assert np.all(x2 <= x1)
    assert np.all((2 <= y1) & (y1 <= 3) & (y2 >= y1))


def test_sample_validation():
    m = build_counterexample().f
    with pytest.raises(InvalidParameter):
        sample(m, 0, seed=1)
    with pytest.raises(InvalidParameter):
        sample(m, 10, seed=-1)
    with pytest.raises(InvalidParameter):
        sample(m, 10, seed="x")


def test_mc_matches_exact_cdf_on_counterexample():
    m = build_counterexample().f
    n = 100_000
    for k, point in enumerate([(0.5, 0.5, 1.5, 1.5), (1.0, 1.0, 1.0, 1.0), (1.5, 1.2, 0.8, 0.9)]):
        exact = cdf(m, point)
        est, se = mc_probability(m, LowerOrthant(point), n, seed=100 + k)
        assert abs(est - exact) <= 4 * max(se, 1e-4)
        exact_up = survival(m, point)
        est_up, se_up = mc_probability(m, UpperOrthant(point), n, seed=200 + k)
        assert abs(est_up - exact_up) <= 4 * max(se_up, 1e-4)


def test_mc_pattern_coincidence():
    models = build_counterexample()
    est, se = mc_probability(models.f, PatternCoincidence(), 20_000, seed=5)
    assert est == 1.0 and se == 0.0
    est, se = mc_probability(models.f_star, PatternCoincidence(), 100_000, seed=6)
    assert abs(est - 0.5) <= 4 * se


# --- concordance -----------------------------------------------------------

def test_concordance_of_counterexample_is_exact():
    models = build_counterexample()
    report = concordance_check(models.f, models.f_star)
    assert report.dominated
    assert report.max_cdf_violation == 0.0
    assert report.max_survival_violation == 0.0
    assert report.witness_points == ()


def test_concordance_reversed_fails_with_witnesses():
    models = build_counterexample()
    report = concordance_check(models.f_star, models.f)
    assert not report.cdf_dominated
    assert not report.survival_dominated
    assert report.max_cdf_violation > 0.1
    assert 0 < len(report.witness_points) <= 20
    # the first witness attains the worst violation on one of the two sides
    worst = report.witness_points[0]
    gap_cdf = cdf(models.f_star, worst) - cdf(models.f, worst)
    gap_surv = survival(models.f_star, worst) - survival(models.f, worst)
    assert max(gap_cdf, gap_surv) == pytest.approx(
        max(report.max_cdf_violation, report.max_survival_violation), abs=1e-15
    )
    # a huge tolerance turns the verdict around (monotonicity in tol)
    assert concordance_check(models.f_star, models.f, tol=1.0).dominated


def test_concordance_custom_grid_and_validation():
    models = build_counterexample()
    grid = [[0.5, 1.5]] * 4
    report = concordance_check(models.f, models.f_star, grid=grid)
    assert report.dominated
    with pytest.raises(DimensionMismatch):
        concordance_check(models.f, models.f_star, grid=[[0.5]] * 3)
    with pytest.raises(InvalidParameter):
        concordance_check(models.f, models.f_star, grid=[[0.5], [], [0.5], [0.5]])


def test_default_grid_covers_padded_hull():
    models = build_counterexample()
    grid = default_grid([models.f, models.f_star], points_per_axis=9)
    assert len(grid) == 4
    for axis in grid:
        assert axis[0] == -0.5 and axis[-1] == 2.5 and len(axis) == 9


@pytest.mark.parametrize("points_per_axis", [2.5, 5.0, "5", None, 1, 0, True, -3])
def test_points_per_axis_must_be_an_integer_of_at_least_two(points_per_axis):
    models = build_counterexample()
    with pytest.raises(InvalidParameter, match="points_per_axis must be"):
        default_grid([models.f], points_per_axis=points_per_axis)
    with pytest.raises(InvalidParameter, match="points_per_axis must be"):
        concordance_check(models.f, models.f_star, points_per_axis=points_per_axis)
    with pytest.raises(InvalidParameter, match="points_per_axis must be"):
        concordance_check(models.f, models.f_star, grid=[[0.5]] * 4, points_per_axis=points_per_axis)


def test_points_per_axis_takes_any_integer_type():
    models = build_counterexample()
    assert default_grid([models.f], points_per_axis=np.int64(3)) == default_grid([models.f], points_per_axis=3)


@pytest.mark.parametrize("bad", ["a", None, 1j, [0.5]])
def test_grid_value_that_is_not_a_real_number_is_invalid(bad):
    models = build_counterexample()
    grid = [[0.5], [0.5, bad], [0.5], [0.5]]
    with pytest.raises(InvalidParameter, match="grid values must be real numbers"):
        concordance_check(models.f, models.f_star, grid=grid)


def test_grid_of_numeric_strings_is_read_as_floats():
    models = build_counterexample()
    report = concordance_check(models.f_star, models.f, grid=[["0.5", 1, 1.5]] * 4)
    assert report == concordance_check(models.f_star, models.f, grid=[[0.5, 1.0, 1.5]] * 4)


# --- blocks whose lo + hi overflows ----------------------------------------------

HIGH = (1e308, 1.7e308)
LOW = (-1.7e308, -1e308)


def wide_model(lo, hi):
    """Order 1: x uniform on [lo, hi], whose sum lo + hi overflows, y uniform on [0, 1]."""
    return model(1, Cell(1 / (hi - lo), (free("x", (1,), lo, hi), free("y", (1,), 0.0, 1.0))))


def wide_x_values(lo, hi):
    """Below, at, inside and above [lo, hi], infinities included."""
    outside = 1.75e308 * math.copysign(1.0, lo)
    return sorted({-INF, INF, 0.0, outside, lo, hi, lo + (hi - lo) * 0.25, lo + (hi - lo) * 0.5})


@pytest.mark.parametrize("bounds", [HIGH, LOW])
def test_survival_of_an_interval_block_whose_sum_overflows(bounds):
    lo, hi = bounds
    m = wide_model(lo, hi)
    assert math.isinf(lo + hi) and total_mass(m) == pytest.approx(1.0, abs=1e-12)
    for k, point in enumerate((x, y) for x in wide_x_values(lo, hi) for y in (-1.0, 0.5, 2.0)):
        x, y = point
        exact = max(0.0, hi - max(x, lo)) / (hi - lo) * max(0.0, 1.0 - max(y, 0.0))
        got = survival(m, point)
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-300), point
        est, se = mc_probability(m, UpperOrthant(point), 20_000, seed=300 + k)
        assert abs(est - exact) <= 4 * max(se, 1e-4), point


def test_the_reproduced_overflow_points_read_their_closed_form():
    assert survival(wide_model(*HIGH), (1.75e308, 0.5)) == 0.0
    assert survival(wide_model(*LOW), (-1.75e308, 0.5)) == 0.5


@pytest.mark.parametrize("bounds", [HIGH, LOW])
def test_survival_of_a_size_2_chain_whose_sum_overflows_is_zero_outside_its_region(bounds):
    # A nonzero volume of such a chain is at least the square of the float
    # spacing near 1e308 over 2, which overflows, so only the points where the
    # upper orthant misses the chain's region have a finite closed form: 0.
    lo, hi = bounds
    m = model(2, Cell(5e-324, (chain("x", (1, 2), lo, hi), free("y", (1, 2), 0.0, 1.0))))
    above = 1.75e308 if lo > 0 else 0.0
    points = [(hi, hi), (above, lo), (lo, above), (above, above), (INF, -INF), (-INF, INF), (hi, lo)]
    for k, (t1, t2) in enumerate(points):
        point = (t1, t2, -INF, -INF)
        assert survival(m, point) == 0.0, point
        est, se = mc_probability(m, UpperOrthant(point), 20_000, seed=400 + k)
        assert est == 0.0 and se == 0.0, point


@pytest.mark.parametrize(
    "t1,t2",
    [(0.25, 0.75), (0.75, 0.25), (0.5, 2.0), (-1.0, 0.5), (0.5, -1.0), (1.0, 1.0), (0.9, 0.1), (-INF, INF)],
)
def test_the_reflection_used_where_the_sum_overflows_matches_quadrature(t1, t2):
    # Such a block's upper orthant reflects by u -> -u onto [-hi, -lo].
    lo, hi = 0.0, 1.0
    reflected = _chain2_lower(-hi, -lo, -t2, -t1)
    assert reflected == pytest.approx(quad_chain2_upper(lo, hi, t1, t2), abs=3e-3)
    assert reflected == pytest.approx(_chain2_lower(lo, hi, lo + hi - t2, lo + hi - t1), abs=1e-15)


def test_default_grid_of_a_box_whose_width_overflows_and_its_report():
    low, high = wide_model(*LOW), wide_model(*HIGH)
    grid = default_grid([low, high], points_per_axis=3)
    assert grid == [[-1.7e308, 0.0, 1.7e308], [-0.5, 0.5, 1.5]]
    # At x = 0 the low model has all its x mass below and the high one none:
    # the low cdf exceeds the high one by P(Y <= y) there, and its survival
    # is 0.  At either end of the axis both cdfs, and both survivals, agree.
    assert concordance_check(low, high, points_per_axis=3) == ConcordanceReport(
        cdf_dominated=False, survival_dominated=True, max_cdf_violation=1.0, max_survival_violation=0.0,
        witness_points=((0.0, 1.5), (0.0, 0.5)), tol=1e-12,
    )
    assert concordance_check(high, low, points_per_axis=3) == ConcordanceReport(
        cdf_dominated=True, survival_dominated=False, max_cdf_violation=0.0, max_survival_violation=1.0,
        witness_points=((0.0, -0.5), (0.0, 0.5)), tol=1e-12,
    )


def test_a_grid_whose_width_is_finite_keeps_the_plain_interpolation():
    m = model(1, Cell(1.0, (free("x", (1,), 0.1, 1.1), free("y", (1,), -3.3, -2.3))))
    for n in (2, 3, 7, 10):
        for (lo, hi), axis in zip([(0.1, 1.1), (-3.3, -2.3)], default_grid([m], n)):
            a, b = lo - 0.5, hi + 0.5
            assert axis == [a + (b - a) * i / (n - 1) for i in range(n)]
