"""Scenario verifiers: deterministic reports, JSON round trips, dispatch."""

import json
from pathlib import Path

import pytest

from opdep import piecewise as pw
from opdep.errors import InvalidParameter
from opdep.scenarios import (
    SCENARIOS,
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
