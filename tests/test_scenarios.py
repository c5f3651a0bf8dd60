"""Scenario verifiers: deterministic reports, JSON round trips, dispatch."""

import itertools
import json
import math
from pathlib import Path

import pytest

from opdep import discrete as disc
from opdep import piecewise as pw
from opdep.errors import InvalidParameter
from opdep.piecewise import Cell, PiecewiseUniformDensity
from opdep.scenarios import (
    INF,
    SCENARIOS,
    _chain,
    _free,
    _marginal_cdf_checks,
    _value_check,
    build_counterexample,
    run_scenario,
    verify_counterexample,
    verify_example42,
    verify_example43,
)

# Every check of the three reports, in order: name, expected and computed
# value, and result.
PINNED_REPORTS = Path(__file__).resolve().parent / "data" / "scenario_reports.json"


def test_all_scenarios_pass():
    for name, verify in (
        ("counterexample", verify_counterexample),
        ("example42", verify_example42),
        ("example43", verify_example43),
    ):
        report = verify()
        failed = [c for c in report.checks if not c.passed]
        assert report.scenario == name
        assert report.passed, f"{name} failed: {[c.name for c in failed]}"
        assert len(report.checks) >= 20


def test_reports_are_deterministic():
    for verify in (verify_counterexample, verify_example42, verify_example43):
        assert verify() == verify()


def test_check_names_are_unique_and_filled():
    for verify in (verify_counterexample, verify_example42, verify_example43):
        report = verify()
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
        for check in report.checks:
            assert check.name and check.expected and check.actual


def test_report_json_round_trip():
    report = verify_example42()
    payload = report.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["scenario"] == "example42"
    assert payload["pass"] is True
    assert all(set(c) == {"name", "expected", "actual", "pass"} for c in payload["checks"])


def test_run_scenario_dispatch():
    assert set(SCENARIOS) == {"counterexample", "example42", "example43"}
    report = run_scenario("counterexample")
    assert report == verify_counterexample()
    with pytest.raises(InvalidParameter):
        run_scenario("unknown")


def test_tolerance_is_threaded_through():
    # an absurdly tight tolerance cannot break exact rational checks, so the
    # reports stay green even at tol=0
    report = verify_counterexample(tol=0.0)
    assert report.passed


@pytest.mark.parametrize("name", ["counterexample", "example42", "example43"])
def test_reports_match_the_pinned_checks(name):
    pinned = json.loads(PINNED_REPORTS.read_text(encoding="utf-8"))[name]
    assert run_scenario(name).to_dict() == pinned


def test_counterexample_takes_the_pattern_terms_of_each_law_once(monkeypatch):
    calls = []
    terms = pw.pattern_terms

    def counted(model):
        calls.append(model)
        return terms(model)

    monkeypatch.setattr(pw, "pattern_terms", counted)
    assert verify_counterexample().passed
    f, f_star = build_counterexample()[:2]
    assert calls == [f, f_star]


@pytest.mark.parametrize(
    "coords_a, coords_b",
    [((0, 1), (0, 1)), ((2, 3), (2, 3)), ((0,), (1,)), ((0,), (3,)), ((0, 2), (1, 3)), ((1, 2), (0, 3))],
)
def test_marginal_cdf_checks_match_the_scalar_cdf_loop(coords_a, coords_b):
    """The grid walks pair the points as the scalar loop over +inf-padded points did."""
    f, f_star, h, h_star = build_counterexample()
    # Unlike the counterexample's laws, its coordinates have four different laws.
    blocks = (_free("x", (1,), 0.0, 1.0), _free("x", (2,), 0.5, 1.5), _chain("y", (2, 1), 0.25, 2.0))
    skewed = PiecewiseUniformDensity(order=2, cells=(Cell(1.0, blocks),))
    values = pw.default_grid([f, f_star])[0]
    for model_a, model_b in ((f, h), (h_star, skewed), (skewed, f_star)):
        worst = 0.0
        for combo in itertools.product(values, repeat=len(coords_a)):
            point_a, point_b = [INF] * 4, [INF] * 4
            for c, v in zip(coords_a, combo):
                point_a[c] = v
            for c, v in zip(coords_b, combo):
                point_b[c] = v
            worst = max(worst, abs(pw.cdf(model_a, point_a) - pw.cdf(model_b, point_b)))
        assert worst > 0.0
        for tol in (1e-12, worst):
            expected = _value_check("check", 0.0, worst, tol)
            assert _marginal_cdf_checks("check", model_a, model_b, coords_a, coords_b, values, tol) == expected


def lattice_law(model, m):
    """The law putting each box of side 1/m on [0, 2]^4 at its midpoint, with the model's mass there.

    A box's mass is the inclusion-exclusion of the cdf at its 16 corners,
    read from one grid walk over the (2m + 1)^4 corners.
    """
    corners = [k / m for k in range(2 * m + 1)]
    n = len(corners)
    cdfs = list(pw._orthant_grid(model, [corners] * 4, True))
    atoms = {}
    for box in itertools.product(range(2 * m), repeat=4):
        mass = math.fsum(
            (-1) ** (4 - sum(step)) * cdfs[sum((i + s) * n ** (3 - c) for c, (i, s) in enumerate(zip(box, step)))]
            for step in itertools.product((0, 1), repeat=4)
        )
        if mass:
            atoms[tuple((i + 0.5) / m for i in box)] = mass
    return atoms


def test_the_lattice_counterexample_fails_premise_a_alone():
    """At m=2 the counterexample's lattice laws are concordance-ordered, B holds and A fails."""
    f, f_star = build_counterexample()[:2]
    atoms, atoms_star = lattice_law(f, 2), lattice_law(f_star, 2)
    assert (len(atoms), len(atoms_star)) == (28, 36)
    assert all((32 * p).is_integer() for p in atoms.values())
    assert all((64 * p).is_integer() for p in atoms_star.values())
    assert sum(atoms.values()) == sum(atoms_star.values()) == 1.0
    f2, f2_star = disc.DiscreteJoint(2, atoms), disc.DiscreteJoint(2, atoms_star)
    assert disc.exact_opd(f2) == pytest.approx(1 / 3, abs=1e-12)
    assert disc.exact_opd(f2_star) == pytest.approx(0.0, abs=1e-12)
    # Strictly concordance-ordered: the full joint is variant B's family with I empty.
    assert disc.check_theorem_conditions(f2, f2_star, "B").holds
    reverse = disc.check_theorem_conditions(f2_star, f2, "B")
    assert not reverse.holds and len(reverse.violations) == 918
    report = disc.check_theorem_conditions(f2, f2_star, "A")
    assert not report.holds
    assert (len(report.violations), len(report.skipped), report.shared_positions) == (224, 16, ())
    first = report.violations[0]
    assert (first.subset, first.side, first.outer) == ((1,), "survival", "first")
    assert (first.conditioning_point, first.evaluation_point) == ((0.25, 1.25), (-0.75, 1.75))
    assert first.lhs == pytest.approx(0.6, abs=1e-12) and first.rhs == 0.0

