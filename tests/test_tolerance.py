"""A tolerance must be a finite number >= 0, in every function and command that takes one.

A NaN tolerance makes every ``x > tol`` comparison false, so a check that
should fail passes; an infinite one does the same; a negative one can make
the dependence formula divide by zero.
"""

import math
from pathlib import Path

import pytest

from opdep import discrete as disc
from opdep import piecewise as pw
from opdep.cli import main
from opdep.discrete import DiscreteJoint
from opdep.errors import InvalidParameter
from opdep.modelio import save_model
from opdep.patterns import dependence_from_terms
from opdep.scenarios import build_counterexample, build_example43

MODELS = Path(__file__).resolve().parent.parent / "models"
BAD_TOLS = [math.nan, -math.nan, math.inf, -math.inf, -1.0, -1e-300]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_library_calls_reject_a_bad_tol(tol):
    pair = build_example43()
    models = build_counterexample()
    calls = [
        lambda: dependence_from_terms(0.5, 0.25, tol=tol),
        lambda: pw.validate(models.h, expected_mass=0.5, tol=tol),
        lambda: pw.concordance_check(models.f_star, models.f, tol=tol, points_per_axis=3),
        lambda: disc.shared_position_detect(pair.law_star, pair.law, tol=tol),
        lambda: disc.check_theorem_conditions(pair.law_star, pair.law, "A", tol=tol),
        lambda: disc.check_theorem_conditions(pair.law_star, pair.law, "B", tol=tol),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter, match="tol must be a finite number >= 0"):
            call()


def test_library_calls_keep_taking_zero_and_large_tols():
    pair = build_example43()
    assert dependence_from_terms(0.5, 0.25, tol=0.0) == pytest.approx(1 / 3)
    assert disc.shared_position_detect(pair.law_star, pair.law, tol=0.0) == (2,)
    assert not disc.check_theorem_conditions(pair.law_star, pair.law, "A", tol=0.0).holds
    assert disc.check_theorem_conditions(pair.law_star, pair.law, "A", tol=1e300).holds


def run_cli(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_usage_error(result):
    code, out, err = result
    assert (code, out) == (2, "")
    assert err.startswith("error: tol must be a finite number >= 0") and err.count("\n") == 1


@pytest.fixture
def one_pattern_law(tmp_path):
    """Both windows always in pattern (1, 2): the coefficient is undefined."""
    path = tmp_path / "one_atom.json"
    save_model(DiscreteJoint(order=2, atoms={(1.0, 2.0, 1.0, 2.0): 1.0}), path)
    return path


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_model_opd_rejects_a_bad_tol(capsys, one_pattern_law, tol):
    _assert_usage_error(run_cli(capsys, "model", "opd", one_pattern_law, f"--tol={tol}"))
    # With a usable tol the coefficient is undefined, as before.
    assert run_cli(capsys, "model", "opd", one_pattern_law)[0] == 3


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("model", ["counterexample_h.json", "example43_law.json"])
def test_model_validate_rejects_a_bad_tol(capsys, model, tol):
    _assert_usage_error(run_cli(capsys, "model", "validate", MODELS / model, f"--tol={tol}"))


def test_model_validate_still_reports_a_bad_mass(capsys):
    code, out, _ = run_cli(capsys, "model", "validate", MODELS / "counterexample_h.json")
    assert code == 1 and out.startswith("invalid: ")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_concordance_rejects_a_bad_tol(capsys, tol):
    _assert_usage_error(
        run_cli(
            capsys, "concordance", MODELS / "counterexample_f_star.json",
            MODELS / "counterexample_f.json", "--grid", "3", f"--tol={tol}",
        )
    )
