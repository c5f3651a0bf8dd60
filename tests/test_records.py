"""Result records: the one JSON form against the former hand-written forms.

The oracles below are the former ``to_dict`` bodies of the seven result
records and the former body of ``discrete.product_extend``, kept verbatim
apart from taking the record as an argument.  ``==`` on the payloads tells
a tuple from a list, and the ``json.dumps`` text fixes the key order.
"""

import itertools
import json
import math
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opdep import piecewise as pw
from opdep.discrete import (
    _VIOLATION_FIELDS,
    ConditionViolation,
    DiscreteJoint,
    _violations,
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


def test_column_built_violations_equal_constructed_ones():
    # The helper takes one column per field in this order, so adding or moving a field fails here.
    assert _VIOLATION_FIELDS == tuple(field.name for field in fields(ConditionViolation))
    report = check_theorem_conditions(*lattice_pairs(1)[0], "A")
    rows = [
        ((1,), "cdf", "first", (0.0,), (1.0, -0.0), 0.5, 0.25),
        ((1, 2), "survival", "none", None, (), 1.0, 0.0),
        ((2,), "cdf", "second", (-0.0,), (math.inf,), 1e-300, -0.0),
    ] + [tuple(getattr(v, name) for name in _VIOLATION_FIELDS) for v in report.violations]
    built = _violations(len(rows), *zip(*rows))
    constructed = [ConditionViolation(*row) for row in rows]
    assert built == constructed
    for record, expected in zip(built, constructed):
        assert type(record) is ConditionViolation and not hasattr(record, "__dict__")
        assert hash(record) == hash(expected) and repr(record) == repr(expected)
        assert json.dumps(record.to_dict()) == json.dumps(expected.to_dict()) == json.dumps(oracle_violation(expected))
        assert all(getattr(record, name) is getattr(expected, name) for name in _VIOLATION_FIELDS)
        restored = pickle.loads(pickle.dumps(record))
        assert restored == expected and repr(restored) == repr(expected)
    with pytest.raises(FrozenInstanceError):
        built[0].lhs = 2.0
    # One column fewer or more than there are fields is refused.
    columns = list(zip(*rows))
    for wrong in (columns[:-1], columns + [columns[-1]]):
        with pytest.raises(ValueError):
            _violations(len(rows), *wrong)
