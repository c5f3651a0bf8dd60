"""Command line interface: commands, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opdep import cli
from opdep import discrete as disc
from opdep import piecewise as pw
from opdep.cli import _build_parser, main
from opdep.errors import DegenerateDistribution, OpdepError
from opdep.modelio import load_model, save_model
from opdep.patterns import enumerate_patterns
from opdep.piecewise import Block, Cell, PiecewiseUniformDensity
from opdep.scenarios import build_counterexample, build_example43

MODEL_FILES = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.json"))


@pytest.fixture
def coincident_csv(tmp_path):
    path = tmp_path / "series.csv"
    rows = ["x,y"] + [f"{x},{y}" for x, y in zip([1, 2, 3, 2, 1], [2, 3, 4, 1, 0])]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def f_model_path(tmp_path):
    path = tmp_path / "f.json"
    save_model(build_counterexample().f, path)
    return str(path)


@pytest.fixture
def f_star_model_path(tmp_path):
    path = tmp_path / "f_star.json"
    save_model(build_counterexample().f_star, path)
    return str(path)


@pytest.fixture
def discrete_model_path(tmp_path):
    path = tmp_path / "law.json"
    save_model(build_example43().law, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- estimate ----------------------------------------------------------------

def test_estimate_text(capsys, coincident_csv):
    code, out, _ = run_cli(capsys, "estimate", coincident_csv)
    assert code == 0
    assert "value 1.0" in out
    assert "window_count 4" in out


def test_estimate_json_and_out_file(capsys, tmp_path, coincident_csv):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "estimate", coincident_csv, "--format", "json", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["value"] == 1.0
    assert payload["coincidence"] == 1.0
    assert payload["cross_term"] == 0.5
    assert payload["window_count"] == 4
    assert payload["skipped_windows"] == 0


def test_estimate_order_flag(capsys, coincident_csv):
    code, out, _ = run_cli(capsys, "estimate", coincident_csv, "-d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["window_count"] == 3


def test_estimate_missing_file(capsys):
    code, _, err = run_cli(capsys, "estimate", "/nonexistent/series.csv")
    assert code == 2
    assert "error" in err


def test_estimate_bad_row(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\noops,3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "estimate", str(path))
    assert code == 2
    assert ":3:" in err  # line number of the offending row


def test_estimate_single_column(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("1\n2\n3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "estimate", str(path))
    assert code == 2
    assert "two columns" in err


@pytest.mark.parametrize("d, message", [("-1", "order -1 is below"), ("9", "order 9 exceeds")])
def test_estimate_order_outside_range_exits_2(capsys, coincident_csv, d, message):
    code, _, err = run_cli(capsys, "estimate", coincident_csv, "-d", d)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "command", [["estimate", "{}"], ["model", "validate", "{}"], ["concordance", "{}", "{}"]]
)
def test_input_that_is_not_utf8_exits_2(capsys, tmp_path, command):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y\n1,2\n\xff,3\n")
    code, out, err = run_cli(capsys, *[part.format(path) for part in command])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
    ]


@pytest.mark.parametrize(
    "data, offset",
    [(b"x,y\n" + b"1,2\n" * 5000 + b"\xff,3\n", 20004), (b"\xef\xbb\xbfx,y\n\xff,3\n", 7)],
    ids=["past the first chunk", "after a byte order mark"],
)
def test_undecodable_byte_is_reported_at_its_file_offset(capsys, tmp_path, data, offset):
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "estimate", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte"
    ]


def test_estimate_degenerate_exits_3(capsys, tmp_path):
    path = tmp_path / "mono.csv"
    path.write_text("\n".join(f"{i},{i}" for i in range(10)), encoding="utf-8")
    code, _, err = run_cli(capsys, "estimate", str(path))
    assert code == 3
    assert "error" in err


def test_estimate_shipped_small_series(capsys):
    # A header, a blank row and a NaN: the NaN drops the three d=3 windows
    # that hold it.
    path = Path(__file__).resolve().parent / "data" / "series_small.csv"
    code, out, _ = run_cli(capsys, "estimate", str(path), "-d", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "value": 0.4545454545454544,
        "coincidence": 0.6666666666666666,
        "cross_term": 0.3888888888888889,
        "window_count": 6,
        "skipped_windows": 3,
    }


# --- verify -------------------------------------------------------------------

@pytest.mark.parametrize("scenario", ["counterexample", "example42", "example43"])
def test_verify_passes(capsys, scenario):
    code, out, _ = run_cli(capsys, "verify", scenario, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["scenario"] == scenario


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "counterexample")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("counterexample: PASS")


def test_verify_unknown_scenario_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "mystery"])
    assert exc.value.code == 2


# --- model --------------------------------------------------------------------

def test_model_validate(capsys, f_model_path):
    code, out, _ = run_cli(capsys, "model", "validate", f_model_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"valid": True, "kind": "piecewise", "order": 2, "total_mass": 1.0}


def test_model_validate_discrete(capsys, discrete_model_path):
    code, out, _ = run_cli(capsys, "model", "validate", discrete_model_path)
    assert code == 0
    assert "valid discrete model" in out


def test_model_validate_rejects_bad_mass(capsys, tmp_path):
    bad = PiecewiseUniformDensity(
        order=1,
        cells=(
            Cell(
                2.0,
                (
                    Block(axis="x", positions=(1,), lo=0.0, hi=1.0, kind="free"),
                    Block(axis="y", positions=(1,), lo=0.0, hi=1.0, kind="free"),
                ),
            ),
        ),
    )
    path = tmp_path / "bad.json"
    save_model(bad, path)
    code, out, _ = run_cli(capsys, "model", "validate", str(path))
    assert code == 1
    assert "invalid" in out


def _overflow_model_text(order, y_lo, y_hi):
    """A one-cell piecewise model whose x block spans every position on (-1e300, 1e300)."""
    positions = list(range(1, order + 1))
    blocks = [
        {"axis": "x", "positions": positions, "lo": "-1e300", "hi": "1e300", "kind": "free"},
        {"axis": "y", "positions": positions, "lo": y_lo, "hi": y_hi, "kind": "free"},
    ]
    return json.dumps({"kind": "piecewise", "order": order, "cells": [{"value": "1.0", "blocks": blocks}]})


OVERFLOW = "the cells' total mass overflows; the model's law is undefined"


@pytest.mark.parametrize(
    "order, y_lo, y_hi",
    [
        (2, "0.0", "1.0"),  # (2e300) ** 2 * 1 overflows the float range
        (1, "-1e300", "1e300"),  # 2e300 * 2e300 is inf
    ],
)
def test_model_validate_reports_an_overflowing_mass_as_invalid(capsys, tmp_path, order, y_lo, y_hi):
    path = tmp_path / "overflow.json"
    path.write_text(_overflow_model_text(order, y_lo, y_hi), encoding="utf-8")
    assert run_cli(capsys, "model", "validate", str(path)) == (1, f"invalid: {OVERFLOW}\n", "")
    code, out, err = run_cli(capsys, "model", "validate", str(path), "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"valid": False, "kind": "piecewise", "order": order, "error": OVERFLOW}
    code, _, err = run_cli(capsys, "model", "opd", str(path))
    assert code == 2 and "Traceback" not in err


# Two one-cell models of mass 1 whose plain float product of block factors
# overflows or underflows on the way: inf * 0.0 in the first, overflow in the second.
WIDE_BLOCKS = {
    "infinite_times_zero": ("1.0", [
        {"axis": "x", "positions": [1], "lo": "-1e200", "hi": "0.0", "kind": "free"},
        {"axis": "x", "positions": [2], "lo": "0.0", "hi": "1e200", "kind": "free"},
        {"axis": "y", "positions": [1, 2], "lo": "0.0", "hi": "1e-200", "kind": "free"},
    ], "0.9999999999999999"),
    "overflow_then_back": ("2e-300", [
        {"axis": "x", "positions": [1, 2], "lo": "0.0", "hi": "1e-10", "kind": "free"},
        {"axis": "y", "positions": [1, 2], "lo": "0.0", "hi": "1e160", "kind": "chain"},
    ], "1.0"),
}


def _wide_model_path(tmp_path, name):
    value, blocks, _ = WIDE_BLOCKS[name]
    path = tmp_path / "wide.json"
    cells = [{"value": value, "blocks": blocks}]
    path.write_text(json.dumps({"kind": "piecewise", "order": 2, "cells": cells}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(WIDE_BLOCKS))
def test_a_mass_whose_float_product_leaves_the_range_validates(capsys, tmp_path, name):
    path, mass = _wide_model_path(tmp_path, name), WIDE_BLOCKS[name][2]
    expected = f"valid piecewise model, order 2, mass {mass}\n"
    assert run_cli(capsys, "model", "validate", path) == (0, expected, "")
    code, out, err = run_cli(capsys, "model", "validate", path, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(
        {"valid": True, "kind": "piecewise", "order": 2, "total_mass": float(mass)}, indent=2
    ) + "\n"
    assert run_cli(capsys, "model", "opd", path) == (0, "value 0.0\ncoincidence 0.5\n", "")
    code, out, err = run_cli(capsys, "model", "opd", path, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps({"value": 0.0, "coincidence": 0.5}, indent=2) + "\n"


def test_a_model_whose_float_product_overflows_samples_inside_its_blocks(capsys, tmp_path):
    path = _wide_model_path(tmp_path, "overflow_then_back")
    code, out, err = run_cli(capsys, "model", "sample", path, "--seed", "3", "--count", "200")
    assert (code, err) == (0, "")
    x1, x2, y1, y2 = [list(column) for column in zip(*(map(float, line.split(",")) for line in out.splitlines()))]
    assert len(x1) == 200
    assert all(0.0 <= x <= 1e-10 for x in x1 + x2)
    assert all(0.0 <= a <= b <= 1e160 for a, b in zip(y1, y2))


@pytest.mark.parametrize(
    "action",
    [["cdf", "--point", "inf,inf"], ["validate"], ["sample", "--seed", "1", "--count", "3"]],
    ids=["cdf", "validate", "sample"],
)
def test_a_block_wider_than_the_float_range_is_a_format_error(capsys, tmp_path, action):
    """Both bounds are finite, but hi - lo = 2e308 is not."""
    blocks = [
        {"axis": "x", "positions": [1], "lo": "-1e308", "hi": "1e308", "kind": "free"},
        {"axis": "y", "positions": [1], "lo": "0.0", "hi": "1.0", "kind": "free"},
    ]
    path = tmp_path / "wide.json"
    cells = [{"value": "2.5e-309", "blocks": blocks}]
    path.write_text(json.dumps({"kind": "piecewise", "order": 1, "cells": cells}), encoding="utf-8")
    code, out, err = run_cli(capsys, "model", action[0], str(path), *action[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: model format: cells[0].blocks[0]: ") and "Traceback" not in err


def test_a_non_finite_result_is_text_only(capsys, tmp_path):
    """The chain's mass overflows, so model validate refuses the model, but model cdf does not validate."""
    blocks = [
        {"axis": "x", "positions": [1, 2], "lo": "1e308", "hi": "1.7e308", "kind": "chain"},
        {"axis": "y", "positions": [1, 2], "lo": "0.0", "hi": "1.0", "kind": "free"},
    ]
    path = tmp_path / "overflowing-mass.json"
    path.write_text(json.dumps({"kind": "piecewise", "order": 2, "cells": [{"value": "1.0", "blocks": blocks}]}))
    point = "--point=1.5e308,1.6e308,1,1"
    assert run_cli(capsys, "model", "cdf", str(path), point) == (0, "cdf inf\nsurvival 0.0\n", "")
    out_file = tmp_path / "out.json"
    for extra in ([], ["--out", str(out_file)]):
        code, out, err = run_cli(capsys, "model", "cdf", str(path), point, "--format", "json", *extra)
        assert (code, out) == (2, "")
        assert err == "error: JSON has no number for the non-finite cdf (--format text prints it)\n"
    assert not out_file.exists()
    # An infinite coordinate of the point is written as a string, as model files write reals.
    marginal = str(MODEL_FILES[0].parent / "counterexample_f.json")
    code, out, err = run_cli(capsys, "model", "cdf", marginal, "--point=inf,0.5,-inf,inf", "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["point"] == ["inf", 0.5, "-inf", "inf"]
    code, out, err = run_cli(capsys, "model", "cdf", marginal, "--point=inf,0.5,inf,inf", "--format", "json")
    payload = {"point": ["inf", 0.5, "inf", "inf"], "cdf": 0.25, "survival": 0.0}
    assert (code, out, err) == (0, json.dumps(payload, indent=2) + "\n", "")


def test_a_chain_of_171_positions_validates_to_its_mass(capsys, tmp_path):
    """171! is above the float range, but the cell's mass 1e300 / 171! is not."""
    positions = list(range(1, 172))
    blocks = [
        {"axis": "x", "positions": positions, "lo": "0.0", "hi": "1.0", "kind": "chain"},
        {"axis": "y", "positions": positions, "lo": "0.0", "hi": "1.0", "kind": "free"},
    ]
    path = tmp_path / "chain171.json"
    cells = [{"value": "1e300", "blocks": blocks}]
    path.write_text(json.dumps({"kind": "piecewise", "order": 171, "cells": cells}), encoding="utf-8")
    expected = "invalid: total mass 8.057900396443103e-10 differs from expected 1.0\n"
    assert run_cli(capsys, "model", "validate", str(path)) == (1, expected, "")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "expected a JSON object, got list"),
        ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"kind": "piecewise", "order": 2, "cells": [], "extra": 1}', "extra: unknown field"),
        ('{"kind": "discrete", "order": 1}', "atoms: missing field"),
    ],
)
def test_model_format_error_at_the_document_root_has_no_empty_path(capsys, tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "model", "validate", str(path)) == (2, "", f"error: model format: {message}\n")


def test_model_opd(capsys, f_model_path, discrete_model_path):
    code, out, _ = run_cli(capsys, "model", "opd", f_model_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"value": 1.0, "coincidence": 1.0}
    # the default tails of the mixture law make the coefficient undefined
    code, _, err = run_cli(capsys, "model", "opd", discrete_model_path)
    assert code == 3


def test_model_opd_uses_tol(capsys):
    path = str(MODEL_FILES[0].parent / "example42_interleaved_law.json")
    code, out, _ = run_cli(capsys, "model", "opd", path)
    assert (code, out) == (0, "value -0.6\ncoincidence 0.0\n")
    # The cross term is 0.375, so 1 - cross is within a tolerance of 0.9.
    code, _, err = run_cli(capsys, "model", "opd", path, "--tol", "0.9")
    assert code == 3 and "undefined" in err


def _assert_unrecognized(capsys, argv, extra):
    """``argv`` plus ``extra`` exits 2, and the parser of ``argv``'s command reports ``extra``."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, *extra])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    prog = "opdep " + " ".join(argv[:2] if argv[0] == "model" else argv[:1])
    assert captured.err.startswith(f"usage: {prog} [-h]")
    assert captured.err.endswith(f"\n{prog}: error: unrecognized arguments: {' '.join(extra)}\n")


# The options each model action reads, with the ones it requires given.
MODEL_ACTION_OPTIONS = {
    "validate": [],
    "opd": [],
    "patterns": [],
    "cdf": ["--point=2,20,3,20"],
    "sample": ["--seed=1", "--count=3"],
}
UNREAD_OPTIONS = {
    "validate": ["--point", "--count", "--seed"],
    "opd": ["--point", "--count", "--seed"],
    "patterns": ["--point", "--count", "--seed"],
    "cdf": ["--count", "--seed"],
    "sample": ["--point", "--format"],
}
OPTION_VALUES = {"--point": "1,1,2,2", "--count": "3", "--seed": "1", "--format": "json"}


@pytest.mark.parametrize("action", ["patterns", "cdf", "sample"])
@pytest.mark.parametrize("tol", ["5", "1e-12", "nan"])
def test_model_refuses_tol_where_it_is_unused(capsys, action, tol):
    path = str(MODEL_FILES[0].parent / "example43_law.json")
    argv = ["model", action, path, *MODEL_ACTION_OPTIONS[action]]
    _assert_unrecognized(capsys, argv, ["--tol", tol])
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize(
    "action, option", [(a, o) for a, options in UNREAD_OPTIONS.items() for o in options]
)
def test_model_refuses_options_it_does_not_read(capsys, action, option):
    """Every option but --tol, which the test above covers, on every action that ignores it."""
    path = str(MODEL_FILES[0].parent / "counterexample_f.json")
    argv = ["model", action, path, *MODEL_ACTION_OPTIONS[action]]
    _assert_unrecognized(capsys, argv, [option, OPTION_VALUES[option]])
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("action", sorted(MODEL_ACTION_OPTIONS))
def test_model_action_reports_a_leftover_argument(capsys, action):
    path = str(MODEL_FILES[0].parent / "counterexample_f.json")
    extra = ["--point", "1"] if action == "sample" else ["--seed", "1"]
    _assert_unrecognized(capsys, ["model", action, path, *MODEL_ACTION_OPTIONS[action]], extra)


@pytest.mark.parametrize("command", ["estimate", "verify", "concordance"])
def test_command_reports_a_leftover_argument(capsys, command):
    models = MODEL_FILES[0].parent
    argv = {
        "estimate": ["estimate", str(Path(__file__).resolve().parent / "data" / "series_small.csv")],
        "verify": ["verify", "example43"],
        "concordance": ["concordance", str(models / "counterexample_f.json"), str(models / "counterexample_f_star.json")],
    }[command]
    _assert_unrecognized(capsys, argv, ["--seed", "1"])


def test_cached_parser_keeps_no_state_between_calls(capsys, f_model_path):
    path = str(MODEL_FILES[0].parent / "example42_interleaved_law.json")
    assert run_cli(capsys, "model", "opd", path, "--tol", "0.9")[0] == 3
    assert run_cli(capsys, "model", "opd", path)[:2] == (0, "value -0.6\ncoincidence 0.0\n")
    calls = {
        "cdf": ["model", "cdf", f_model_path, "--point", "1,1,2,2"],
        "sample": ["model", "sample", f_model_path, "--seed", "7", "--count", "5"],
    }
    alone = {}
    for action, argv in calls.items():
        _build_parser.cache_clear()
        alone[action] = run_cli(capsys, *argv)
    assert _build_parser() is _build_parser()
    for action in ("cdf", "sample", "cdf"):
        assert run_cli(capsys, *calls[action]) == alone[action]


def test_model_patterns(capsys, f_model_path):
    code, out, _ = run_cli(capsys, "model", "patterns", f_model_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == {"1,2": 0.5, "2,1": 0.5}
    assert payload["y"] == {"1,2": 0.5, "2,1": 0.5}


def test_pattern_keys_join_each_rank_row_with_commas():
    for order in range(2, 9):
        assert cli._pattern_keys(order) == [",".join(map(str, pat)) for pat in enumerate_patterns(order)]


def test_model_patterns_builds_its_text_lines_only_for_text(capsys, monkeypatch, discrete_model_path):
    built = []
    pattern_lines = cli._pattern_lines

    def counted(payload):
        for line in pattern_lines(payload):
            built.append(line)
            yield line

    monkeypatch.setattr(cli, "_pattern_lines", counted)
    code, out, _ = run_cli(capsys, "model", "patterns", discrete_model_path, "--format", "json")
    assert code == 0 and built == []
    payload = json.loads(out)
    code, out, _ = run_cli(capsys, "model", "patterns", discrete_model_path)
    assert code == 0
    expected = []
    for axis in ("x", "y"):
        expected += [f"{axis} patterns:"] + [f"  {key} {prob}" for key, prob in payload[axis].items()]
    assert out == "\n".join(expected) + "\n"
    assert built == expected


def test_model_cdf(capsys, f_model_path):
    # half of f's mass sits in the box x in [0,1]^2, y in [1,2]^2
    code, out, _ = run_cli(
        capsys, "model", "cdf", f_model_path, "--point", "1,1,2,2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cdf"] == 0.5
    assert payload["survival"] == 0.0
    with pytest.raises(SystemExit) as exc:
        main(["model", "cdf", f_model_path])
    assert exc.value.code == 2
    assert "the following arguments are required: --point" in capsys.readouterr().err
    code, _, err = run_cli(capsys, "model", "cdf", f_model_path, "--point", "1,zap")
    assert code == 2


def test_model_sample_requires_seed(capsys, f_model_path):
    with pytest.raises(SystemExit) as exc:
        main(["model", "sample", f_model_path])
    assert exc.value.code == 2
    assert "the following arguments are required: --seed" in capsys.readouterr().err


def test_model_sample_deterministic(capsys, f_model_path, discrete_model_path, tmp_path):
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    for path in (a_path, b_path):
        code = main(
            ["model", "sample", f_model_path, "--count", "50", "--seed", "7", "--out", str(path)]
        )
        assert code == 0
    assert a_path.read_text(encoding="utf-8") == b_path.read_text(encoding="utf-8")
    rows = a_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 50
    assert all(len(row.split(",")) == 4 for row in rows)
    code, out, _ = run_cli(
        capsys, "model", "sample", discrete_model_path, "--count", "5", "--seed", "1"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def _engine_result(action, model):
    """What the model's own engine module answers for one CLI action."""
    engine = pw if isinstance(model, pw.PiecewiseUniformDensity) else disc
    if action == "opd":
        return {"value": engine.exact_opd(model), "coincidence": engine.pattern_coincidence(model)}
    if action == "patterns":
        keys = [",".join(map(str, pat)) for pat in enumerate_patterns(model.order)]
        return {
            axis: dict(zip(keys, engine.marginal_pattern_distribution(model, axis).probs))
            for axis in ("x", "y")
        }
    if action == "cdf":
        point = (0.5,) * model.dimension
        return {
            "point": list(point),
            "cdf": engine.cdf(model, point),
            "survival": engine.survival(model, point),
        }
    return [[float(v) for v in row] for row in engine.sample(model, 20, 1)]


@pytest.mark.parametrize("action", ["opd", "patterns", "cdf", "sample"])
@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.stem)
def test_model_actions_match_engine_calls(capsys, path, action):
    model = load_model(path)
    try:
        expected, expected_code = _engine_result(action, model), 0
    except DegenerateDistribution:
        expected, expected_code = None, 3
    except OpdepError:
        expected, expected_code = None, 2
    argv = ["model", action, str(path)]
    if action == "cdf":
        argv += ["--point", ",".join(["0.5"] * model.dimension)]
    if action == "sample":
        argv += ["--seed", "1", "--count", "20"]
    else:
        argv += ["--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code
    if expected is None:
        assert out == "" and err.startswith("error: ")
    elif action == "sample":
        assert [[float(v) for v in line.split(",")] for line in out.splitlines()] == expected
    else:
        assert json.loads(out) == expected


def test_model_format_error_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "piecewise", "order": 2}', encoding="utf-8")
    code, _, err = run_cli(capsys, "model", "validate", str(path))
    assert code == 2
    assert "model format" in err
    path.write_text("not json at all", encoding="utf-8")
    code, _, err = run_cli(capsys, "model", "validate", str(path))
    assert code == 2


@pytest.mark.parametrize("kind, parts", [("discrete", "atoms"), ("piecewise", "cells")])
def test_model_order_below_one_exits_2_at_field_order(capsys, tmp_path, kind, parts):
    path = tmp_path / "order0.json"
    path.write_text(json.dumps({"kind": kind, "order": 0, parts: []}), encoding="utf-8")
    code, out, err = run_cli(capsys, "model", "validate", str(path))
    assert (code, out, err) == (2, "", "error: model format: order: must be >= 1, got 0\n")


@pytest.mark.parametrize("kind, parts, field", [
    ("discrete", [{"point": [10**400, "0.0"], "prob": "1.0"}], "atoms[0].point[0]"),
    ("piecewise", [{"value": "1.0", "blocks": [
        {"axis": "x", "positions": [1], "lo": "0.0", "hi": 10**400, "kind": "free"},
        {"axis": "y", "positions": [1], "lo": "0.0", "hi": "1.0", "kind": "free"}]}], "cells[0].blocks[0].hi"),
])
def test_an_integer_too_large_for_a_float_exits_2_at_its_field(capsys, tmp_path, kind, parts, field):
    path = tmp_path / "huge.json"
    key = "atoms" if kind == "discrete" else "cells"
    path.write_text(json.dumps({"kind": kind, "order": 1, key: parts}), encoding="utf-8")
    code, out, err = run_cli(capsys, "model", "validate", str(path))
    assert (code, out, err) == (2, "", f"error: model format: {field}: integer too large for a real number\n")


def _counting(monkeypatch, module, name):
    """Rebind ``module.name`` to a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_model_opd_computes_the_pattern_laws_once(capsys, monkeypatch):
    models = MODEL_FILES[0].parent
    # Each window of a discrete law is encoded once: x and y.
    encodings = _counting(monkeypatch, disc, "pattern_codes")
    code, out, _ = run_cli(capsys, "model", "opd", str(models / "example42_interleaved_law.json"))
    assert code == 0 and out.startswith("value ")
    assert len(encodings) == 2
    # Each cell's pattern law is built once per axis.
    cell_laws = _counting(monkeypatch, pw, "_axis_pattern_law")
    path = models / "counterexample_f.json"
    code, out, _ = run_cli(capsys, "model", "opd", str(path))
    assert code == 0 and out.startswith("value ")
    assert len(cell_laws) == 2 * len(load_model(path).cells)


# --- concordance ---------------------------------------------------------------

def test_concordance_dominated(capsys, f_model_path, f_star_model_path):
    code, out, _ = run_cli(
        capsys, "concordance", f_model_path, f_star_model_path, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cdf_dominated"] is True
    assert payload["survival_dominated"] is True
    assert payload["max_cdf_violation"] == 0.0


def test_concordance_reversed_exits_1(capsys, f_model_path, f_star_model_path):
    code, out, _ = run_cli(capsys, "concordance", f_star_model_path, f_model_path)
    assert code == 1
    assert "cdf_dominated False" in out
    assert "witness" in out


def test_concordance_grid_flag(capsys, f_model_path, f_star_model_path):
    code, _, _ = run_cli(
        capsys, "concordance", f_model_path, f_star_model_path, "--grid", "3"
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "concordance", f_model_path, f_star_model_path, "--grid", "1"
    )
    assert code == 2


CONCORDANCE_GOLDENS = Path(__file__).resolve().parent / "data" / "concordance"


@pytest.mark.parametrize(
    "first, second, grid, expected_code",
    [
        ("counterexample_f", "counterexample_f_star", 9, 0),
        ("counterexample_f_star", "counterexample_f", 9, 1),
        ("counterexample_f", "counterexample_f_star", 15, 0),
        ("counterexample_f_star", "counterexample_f", 15, 1),
        ("example42_continuous", "example42_continuous_star", 9, 0),
        ("example42_continuous_star", "example42_continuous", 9, 1),
    ],
)
def test_concordance_json_matches_golden_bytes(capsys, first, second, grid, expected_code):
    models = MODEL_FILES[0].parent
    code, out, _ = run_cli(
        capsys, "concordance", str(models / f"{first}.json"), str(models / f"{second}.json"),
        "--grid", str(grid), "--format", "json",
    )
    golden = CONCORDANCE_GOLDENS / f"{first}__{second}__grid{grid}.json"
    assert code == expected_code
    assert out.encode("utf-8") == golden.read_bytes()


SAMPLE_GOLDENS = Path(__file__).resolve().parent / "data" / "sample"


@pytest.mark.parametrize(
    "name",
    [
        "counterexample_f", "counterexample_f_star", "counterexample_h", "counterexample_h_star",
        "example42_continuous", "example42_continuous_star", "example42_head", "example42_head_star",
    ],
)
def test_model_sample_matches_golden_bytes(capsys, name):
    path = MODEL_FILES[0].parent / f"{name}.json"
    assert isinstance(load_model(path), PiecewiseUniformDensity)
    code, out, _ = run_cli(capsys, "model", "sample", str(path), "--seed", "3", "--count", "40")
    assert code == 0
    assert out.encode("utf-8") == (SAMPLE_GOLDENS / f"{name}__seed3__count40.txt").read_bytes()


def test_concordance_rejects_discrete(capsys, f_model_path, discrete_model_path):
    code, _, err = run_cli(capsys, "concordance", f_model_path, discrete_model_path)
    assert code == 2
    assert "piecewise" in err


# --- process-level checks --------------------------------------------------------

def test_entry_point_subprocess(tmp_path):
    env = dict(os.environ, OPDEP_LOG="INFO")
    result = subprocess.run(
        [sys.executable, "-m", "opdep.cli", "verify", "counterexample", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["pass"] is True


def test_logging_env_writes_to_stderr(tmp_path, coincident_csv):
    env = dict(os.environ, OPDEP_LOG="INFO")
    result = subprocess.run(
        [sys.executable, "-m", "opdep.cli", "estimate", coincident_csv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0
    assert "INFO opdep" in result.stderr
    quiet = subprocess.run(
        [sys.executable, "-m", "opdep.cli", "estimate", coincident_csv],
        capture_output=True,
        text=True,
        env={k: v for k, v in os.environ.items() if k != "OPDEP_LOG"},
        check=False,
    )
    assert quiet.returncode == 0
    assert "INFO opdep" not in quiet.stderr


def test_logging_env_debug_shows_discrete_skips():
    script = (
        "from opdep.cli import _setup_logging\n"
        "from opdep.discrete import DiscreteJoint, check_theorem_conditions, product_extend\n"
        "from opdep.scenarios import head_law\n"
        "_setup_logging()\n"
        "tail = {(10.0, 10.0): 0.5, (20.0, 20.0): 0.5}\n"
        "tail_star = {(10.0, 10.0): 0.5, (30.0, 30.0): 0.5}\n"
        "law = product_extend(head_law(), DiscreteJoint(order=1, atoms=tail))\n"
        "law_star = product_extend(head_law(), DiscreteJoint(order=1, atoms=tail_star))\n"
        "check_theorem_conditions(law, law_star, 'A', shared_positions=(2,))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPDEP_LOG="DEBUG"),
        check=True,
    )
    lines = [line for line in result.stderr.splitlines() if line.startswith("DEBUG opdep.discrete:")]
    assert len(lines) == 2
    assert all("skipped subset (2,)" in line for line in lines)
