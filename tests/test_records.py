"""Result records: the one JSON form against the former hand-written forms.

The oracles below are the former ``to_dict`` bodies of the seven result
records and the former body of ``discrete.product_extend``, kept verbatim
apart from taking the record as an argument.  ``==`` on the payloads tells
a tuple from a list, and the ``json.dumps`` text fixes the key order.
"""

import copy
import itertools
import json
import math
import pickle
import random
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdep import piecewise as pw
from opdep.discrete import (
    ConditionViolation,
    DiscreteJoint,
    _ViolationColumns,
    check_theorem_conditions,
    product_extend,
)
from opdep.estimator import TimeSeriesPair, empirical_opd
from opdep.modelio import load_model
from opdep.scenarios import SCENARIOS, run_scenario

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
MODELS = {path.stem: load_model(path) for path in sorted(MODEL_DIR.glob("*.json"))}
DISCRETE_PAIRS = [
    ("example42_interleaved_law", "example42_interleaved_law_star"),
    ("example42_law", "example42_law_star"),
    ("example43_law", "example43_law_star"),
]


def oracle_estimate(self):
    return {
        "value": self.value,
        "coincidence": self.coincidence,
        "cross_term": self.cross_term,
        "window_count": self.window_count,
        "skipped_windows": self.skipped_windows,
    }


def oracle_concordance(self):
    return {
        "cdf_dominated": self.cdf_dominated,
        "survival_dominated": self.survival_dominated,
        "max_cdf_violation": self.max_cdf_violation,
        "max_survival_violation": self.max_survival_violation,
        "witness_points": [list(p) for p in self.witness_points],
        "tol": self.tol,
    }


def oracle_violation(self):
    return {
        "subset": list(self.subset),
        "side": self.side,
        "outer": self.outer,
        "conditioning_point": None
        if self.conditioning_point is None
        else list(self.conditioning_point),
        "evaluation_point": list(self.evaluation_point),
        "lhs": self.lhs,
        "rhs": self.rhs,
    }


def oracle_skip(self):
    return {
        "subset": list(self.subset),
        "outer": self.outer,
        "conditioning_point": list(self.conditioning_point),
        "reason": self.reason,
    }


def oracle_condition_report(self):
    return {
        "variant": self.variant,
        "holds": self.holds,
        "violations": [oracle_violation(v) for v in self.violations],
        "skipped": [oracle_skip(s) for s in self.skipped],
        "shared_positions": list(self.shared_positions),
        "tol": self.tol,
    }


def oracle_check(self):
    return {
        "name": self.name,
        "expected": self.expected,
        "actual": self.actual,
        "pass": self.passed,
    }


def oracle_scenario(self):
    return {
        "scenario": self.scenario,
        "checks": [oracle_check(c) for c in self.checks],
        "pass": self.passed,
    }


def oracle_product_extend(head, tail):
    d1 = head.order
    d2 = tail.order
    out = {}
    for hp, hprob in head.atoms:
        for tp, tprob in tail.atoms:
            point = hp[:d1] + tp[:d2] + hp[d1:] + tp[d2:]
            out[point] = out.get(point, 0.0) + hprob * tprob
    return DiscreteJoint(order=d1 + d2, atoms=out)


def assert_same_form(record, oracle):
    payload, expected = record.to_dict(), oracle(record)
    assert payload == expected
    assert json.dumps(payload) == json.dumps(expected)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_reports(name):
    assert_same_form(run_scenario(name), oracle_scenario)


@pytest.mark.parametrize("tol", [1e-12, 1.0])
def test_concordance_reports_on_shipped_pairs(tol):
    piecewise = [model for model in MODELS.values() if isinstance(model, pw.PiecewiseUniformDensity)]
    witnessed = 0
    for a, b in itertools.product(piecewise, repeat=2):
        if a.order == b.order:
            report = pw.concordance_check(a, b, tol=tol, points_per_axis=5)
            witnessed += bool(report.witness_points)
            assert_same_form(report, oracle_concordance)
    assert (witnessed > 0) == (tol < 1.0)


def lattice_law(rng):
    points = rng.sample(list(itertools.product((0.0, 1.0, 2.0), repeat=4)), rng.randint(3, 6))
    weights = [rng.randint(1, 5) for _ in points]
    return DiscreteJoint(order=2, atoms=[(p, w / sum(weights)) for p, w in zip(points, weights)])


def lattice_pairs(count):
    """The first ``count`` seeded lattice pairs whose variant-A sweep has violations and skips."""
    pairs = []
    for seed in itertools.count():
        rng = random.Random(seed)
        pair = lattice_law(rng), lattice_law(rng)
        report = check_theorem_conditions(*pair, "A")
        if report.violations and report.skipped:
            pairs.append(pair)
            if len(pairs) == count:
                return pairs


@pytest.mark.parametrize("variant", ["A", "B"])
def test_condition_reports(variant):
    pairs = [(MODELS[a], MODELS[b]) for a, b in DISCRETE_PAIRS] + lattice_pairs(20)
    for first, second in pairs:
        for law, law_star in ((first, second), (second, first)):
            assert_same_form(check_theorem_conditions(law, law_star, variant), oracle_condition_report)


def test_estimates():
    rng = random.Random(7)
    xs = [rng.gauss(0.0, 1.0) for _ in range(200)]
    ys = [x + rng.gauss(0.0, 0.5) for x in xs]
    xs[17] = math.nan
    ys[101] = math.inf
    pair = TimeSeriesPair(xs, ys)
    for d, step in itertools.product((2, 3, 4), (1, 3)):
        assert_same_form(empirical_opd(pair, d=d, step=step), oracle_estimate)


@st.composite
def laws(draw):
    order = draw(st.integers(min_value=1, max_value=2))
    coords = st.sampled_from([-1.5, 0.0, 0.1, 1.0 / 3.0, 2.5, 1e300])
    points = draw(st.lists(st.tuples(*[coords] * (2 * order)), min_size=1, max_size=5, unique=True))
    weight = st.integers(min_value=1, max_value=9)
    weights = draw(st.lists(weight, min_size=len(points), max_size=len(points)))
    return DiscreteJoint(order=order, atoms=[(p, w / sum(weights)) for p, w in zip(points, weights)])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(laws(), laws())
def test_product_extend_matches_the_former_body(head, tail):
    law, expected = product_extend(head, tail), oracle_product_extend(head, tail)
    assert law.order == expected.order
    assert repr(law.atoms) == repr(expected.atoms)


def test_violations_are_slotted_records():
    report = check_theorem_conditions(*lattice_pairs(1)[0], "A")
    violation = report.violations[0]
    assert type(violation) is ConditionViolation and not hasattr(violation, "__dict__")
    copy = ConditionViolation(**{name: getattr(violation, name) for name in ConditionViolation.__slots__})
    assert copy == violation and hash(copy) == hash(violation)
    assert replace(violation, lhs=2.0) != violation
    assert replace(violation, lhs=2.0).lhs == 2.0 and violation.lhs != 2.0
    with pytest.raises(FrozenInstanceError):
        violation.lhs = 2.0
    assert json.dumps(violation.to_dict()) == json.dumps(oracle_violation(violation))
    for v in report.violations:
        restored = pickle.loads(pickle.dumps(v))
        assert restored == v and hash(restored) == hash(v) and repr(restored) == repr(v)
    restored = pickle.loads(pickle.dumps(report))
    assert restored == report and json.dumps(restored.to_dict()) == json.dumps(report.to_dict())


# Two parts by hand: a variant-A subset on a 3 x 3 grid and a variant-B one on
# a 2 x 2 grid.  Each row's code is 2 * (group * grid size + flat index) + side.
HAND_GRID = ([-1.0, 0.0, 1.0], [-0.0, 2.0, math.inf])
HAND_COLUMNS = (
    (
        ((1,), (("first", np.array([[0.0, 0.0], [1.0, -0.0]])), ("second", np.array([[-0.0, 0.0], [1.0, 0.0]]))), HAND_GRID, 0, 3),
        ((), (("none", None),), ([0.0, 1.0], [1e300, -1e300]), 3, 5),
    ),
    [2 * 3 + 0, 2 * (9 + 8) + 1, 2 * (9 + 8) + 0, 2 * 1 + 1, 2 * 2 + 0],
    [(0.5, 0.25), (1e-300, 0.0), (1.0, 0.5), (0.75, 0.25), (1.0, 1e-300)],
)
HAND_ROWS = [
    ((1,), "cdf", "first", (0.0, 0.0), (0.0, -0.0), 0.5, 0.25),
    ((1,), "survival", "first", (1.0, -0.0), (1.0, math.inf), 1e-300, 0.0),
    ((1,), "cdf", "first", (1.0, -0.0), (1.0, math.inf), 1.0, 0.5),
    ((1,), "cdf", "second", (-0.0, 0.0), (0.0, -0.0), 0.5, 0.25),
    ((1,), "survival", "second", (1.0, 0.0), (1.0, math.inf), 1e-300, 0.0),
    ((1,), "cdf", "second", (1.0, 0.0), (1.0, math.inf), 1.0, 0.5),
    ((), "survival", "none", None, (0.0, -1e300), 0.75, 0.25),
    ((), "cdf", "none", None, (1.0, 1e300), 1.0, 1e-300),
]


def hand_columns():
    parts, codes, values = HAND_COLUMNS
    return _ViolationColumns(parts, np.array(codes, dtype=np.int64), np.array(values))


def test_column_built_violations_equal_constructed_ones():
    columns = hand_columns()
    constructed = tuple(ConditionViolation(*row) for row in HAND_ROWS)
    assert len(columns) == len(constructed) and columns._records is None
    assert columns == constructed and constructed == columns and not columns != constructed
    assert hash(columns) == hash(constructed) and repr(columns) == repr(constructed)
    for record, expected in zip(columns, constructed):
        assert type(record) is ConditionViolation and not hasattr(record, "__dict__")
        assert hash(record) == hash(expected) and repr(record) == repr(expected)
        assert json.dumps(record.to_dict()) == json.dumps(expected.to_dict()) == json.dumps(oracle_violation(expected))
        restored = pickle.loads(pickle.dumps(record))
        assert restored == expected and repr(restored) == repr(expected)
    with pytest.raises(FrozenInstanceError):
        columns[0].lhs = 2.0
    # Built once and kept; a slice is a tuple, as a tuple's is.
    assert columns[0] is columns[0] and columns[-1] is tuple(columns)[-1]
    assert columns[1:3] == constructed[1:3] and type(columns[1:3]) is tuple
    assert constructed[3] in columns and ConditionViolation(*HAND_ROWS[0][:-1], 0.3) not in columns
    # The records of one part and value share their objects across outers.
    first, second = columns[0], columns[3]
    assert first.subset is second.subset and first.evaluation_point is second.evaluation_point
    assert first.lhs is second.lhs and columns[1].evaluation_point is columns[2].evaluation_point


def test_columns_compare_without_building_records():
    columns, same = hand_columns(), hand_columns()
    assert columns == same and not columns != same
    assert columns._records is None and same._records is None
    parts, codes, values = HAND_COLUMNS
    subset, outers, grid, start, stop = parts[0]

    def first_part(**fields):
        changed = dict(zip(("subset", "outers", "grid", "start", "stop"), parts[0]), **fields)
        return (tuple(changed.values()),) + parts[1:]

    changed = [
        (parts, [codes[0] + 1] + codes[1:], values),  # the other side
        (parts, codes, [(0.5, 0.3)] + values[1:]),  # another rhs
        (first_part(grid=([-1.0, 0.5, 1.0], grid[1])), codes, values),  # another evaluation point
        (first_part(outers=outers[::-1]), codes, values),  # the outers swapped
        (first_part(outers=((outers[0][0], outers[0][1][::-1]), outers[1])), codes, values),  # a conditioning point
        (first_part(subset=(2,)), codes, values),
        (parts[:1], codes[:3], values[:3]),
    ]
    for changed_parts, changed_codes, changed_values in changed:
        other = _ViolationColumns(changed_parts, np.array(changed_codes, dtype=np.int64), np.array(changed_values))
        assert (columns == other) is (tuple(columns) == tuple(other)) is False
    # Grids of other values whose points in use are the same give the same records.
    other = _ViolationColumns(first_part(grid=([-5.0, 0.0, 1.0], [-0.0, 3.0, math.inf])), np.array(codes, dtype=np.int64), np.array(values))
    assert columns == other == tuple(columns)
    # Neither a list nor another type equals the sequence, as none equals a tuple.
    assert columns != list(columns) and columns != None  # noqa: E711


def test_columns_pickle_and_copy_as_columns():
    columns = hand_columns()
    for restored in (pickle.loads(pickle.dumps(columns)), copy.deepcopy(columns), copy.copy(columns)):
        assert type(restored) is _ViolationColumns and restored._records is None
        assert restored == columns and restored == tuple(columns) and repr(restored) == repr(columns)
    assert not columns._codes.flags.writeable and not columns._values.flags.writeable
