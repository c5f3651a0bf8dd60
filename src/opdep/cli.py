"""Command line interface.

Commands:
    estimate     empirical pattern dependence from a two-column CSV
    verify       run a named scenario verifier (exit 0 only if it passes)
    model        operations on a serialized model file (validate, opd, patterns,
                 cdf, sample), each action taking only the options it reads
    concordance  grid domination check between two piecewise models

Exit codes: 0 success (and, for verify/concordance, the property holds);
1 a verification or domination check failed; 2 usage, parse, or schema
errors; 3 the dependence coefficient is undefined for the input.

Set ``OPDEP_LOG`` to a level name (DEBUG, INFO, ...) to enable logging.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
import warnings
from array import array
from pathlib import Path
from typing import Sequence

import numpy as np

from . import discrete as disc
from . import piecewise as pw
from .errors import DegenerateDistribution, InvalidParameter, ModelFormatError, OpdepError
from .estimator import TimeSeriesPair, empirical_opd
from .modelio import load_model
from .patterns import _check_tol, cross_match_probability, dependence_from_terms
from .scenarios import SCENARIOS, run_scenario

log = logging.getLogger("opdep")


def _setup_logging() -> None:
    level_name = os.environ.get("OPDEP_LOG", "").strip().upper()
    if not level_name:
        return
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
    else:
        print(text)


def _emit_payload(payload: dict, text_lines: list[str], args: argparse.Namespace) -> None:
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit("\n".join(text_lines), args.out)


def _parse_point(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise InvalidParameter(f"--point must be comma-separated reals, got {raw!r}") from None


# On files holding any of these the bulk parse could disagree with the row
# loop: a quote opens a csv field that may span lines, numpy strips the
# separators \x1c-\x1f around a number where float() rejects them, and
# csv rejects NUL on Python 3.10.
_ROW_LOOP_ONLY = '"\x00\x1c\x1d\x1e\x1f'
# Characters screened at a time.  A read of n characters briefly holds the
# raw bytes, their decoded pieces and the joined text, about 5n bytes.
_SCREEN_CHUNK = 2**16


def _parse_columns(path: str) -> np.ndarray:
    """Both columns of a CSV file as an ``(n, 2)`` float64 table, parsed in one C-level pass.

    Takes only files on which it gives the row loop's values: a first line
    of two or more fields (a header if either of its first two fields is
    not a number), then rows whose first two fields are numbers, with
    empty lines between them and any fields after the second.  Any other
    file raises ValueError (numpy's, or one naming the reason) or a
    warning turned into an error, and the row loop reads it instead.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        # Lines end at \n, \r\n or a lone \r, for readline, the row loop and
        # numpy's universal newlines alike.  Of the text, only the first line
        # and one chunk are held; numpy reads the file again by its path.
        chunk = first_line = handle.readline()
        line_ends = 0
        while chunk:
            for char in _ROW_LOOP_ONLY:
                if char in chunk:
                    raise ValueError(f"the file contains {char!r}")
            # A \r\n split between chunks counts twice, which only loosens the
            # bound on the rows below.
            line_ends += chunk.count("\n") + chunk.count("\r") - chunk.count("\r\n")
            chunk = handle.read(_SCREEN_CHUNK)
    fields = first_line.rstrip("\r\n").split(",")
    if len(fields) < 2 or not any(field.strip() for field in fields):
        raise ValueError("the first line is not a row of two or more fields")
    try:
        float(fields[0])
        float(fields[1])
        header = 0
    except ValueError:
        header = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a file without data rows
        # Given at least the number of rows (the last line may have no end),
        # loadtxt allocates the table once instead of growing it by copies,
        # and notes each empty line, which the bound counts anyway.
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
        return np.loadtxt(
            path, delimiter=",", usecols=(0, 1), comments=None, ndmin=2, skiprows=header,
            max_rows=line_ends + 1, encoding="utf-8-sig",
        )


def _loop_columns(path: str) -> np.ndarray:
    """Both columns of a CSV file as an ``(n, 2)`` float64 table, read row by row
    into C doubles, 16 bytes a row; the source of every error."""
    values = array("d")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        first_data_row = True
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not col.strip() for col in row):
                continue
            if len(row) < 2:
                raise InvalidParameter(f"{path}:{lineno}: need at least two columns")
            try:
                x = float(row[0])
                y = float(row[1])
            except ValueError:
                if first_data_row:
                    first_data_row = False
                    continue
                raise InvalidParameter(f"{path}:{lineno}: not numeric: {row[:2]!r}") from None
            first_data_row = False
            values.append(x)
            values.append(y)
    if not values:
        raise InvalidParameter(f"{path}: no data rows")
    # Over the array's buffer itself: a reshaped view would leave a writable
    # array as the base of the pair's columns.
    return np.ndarray((len(values) // 2, 2), buffer=values)


# Bound at import: perfbench/tracer.py rebinds the name TimeSeriesPair in every
# opdep module to a function, which has no _from_table.
_pair_of_table = TimeSeriesPair._from_table


def _read_series_csv(path: str) -> TimeSeriesPair:
    """Two-column CSV; an optional non-numeric first row is a header.

    The file is parsed in bulk where that gives the row loop's values, and
    read row by row otherwise, so both give the same pair and every error
    comes from the loop.  The pair views the one table either reader fills.
    """
    try:
        table = _parse_columns(path)
        reader = "bulk parse"
    except (ValueError, Warning) as exc:
        log.debug("bulk parse of %s rejected (%s); reading it row by row", path, exc)
        try:
            table = _loop_columns(path)
        except UnicodeDecodeError:
            # The loop's stream decodes a chunk at a time, and its error gives a
            # position within the chunk.  Decoding the whole file raises the same
            # error at the byte's offset in the file, counting a byte order mark.
            Path(path).read_bytes().decode("utf-8")
            raise
        reader = "row loop"
    pair = _pair_of_table(table)
    log.info("read %d rows from %s by the %s", len(pair), path, reader)
    return pair


def cmd_estimate(args: argparse.Namespace) -> int:
    pair = _read_series_csv(args.csv)
    estimate = empirical_opd(pair, d=args.order, step=args.step)
    payload = estimate.to_dict()
    lines = [f"{key} {value}" for key, value in payload.items()]
    _emit_payload(payload, lines, args)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_scenario(args.scenario)
    lines = []
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"{status} {check.name} (expected {check.expected}, got {check.actual})")
    lines.append(
        f"{report.scenario}: {'PASS' if report.passed else 'FAIL'} ({len(report.checks)} checks)"
    )
    _emit_payload(report.to_dict(), lines, args)
    return 0 if report.passed else 1


def _pattern_table(dist) -> dict[str, float]:
    return {",".join(map(str, pat)): prob for pat, prob in dist.as_dict().items()}


def cmd_model(args: argparse.Namespace) -> int:
    if "tol" in args:
        # Checked before validate's try block, which reports every error as "invalid:".
        _check_tol(args.tol)
    model = load_model(args.path)
    # Both engine modules answer the same calls.  They are looked up on the
    # module at each call, so a rebound module attribute takes effect here.
    if isinstance(model, pw.PiecewiseUniformDensity):
        engine, kind = pw, "piecewise"
    else:
        engine, kind = disc, "discrete"
    log.info("loaded %s model of order %d from %s", kind, model.order, args.path)

    if args.action == "validate":
        if engine is pw:
            try:
                pw.validate(model, tol=args.tol)
            except OpdepError as exc:
                _emit_payload(
                    {"valid": False, "kind": kind, "order": model.order, "error": str(exc)},
                    [f"invalid: {exc}"],
                    args,
                )
                return 1
            mass = pw.total_mass(model)
        else:
            # Discrete laws check atom mass on construction, so loading
            # succeeded means the law is valid.
            mass = 1.0
        payload = {"valid": True, "kind": kind, "order": model.order, "total_mass": mass}
        _emit_payload(payload, [f"valid {kind} model, order {model.order}, mass {mass}"], args)
        return 0

    if args.action == "opd":
        coincidence, px, py = engine.pattern_terms(model)
        value = dependence_from_terms(coincidence, cross_match_probability(px, py), tol=args.tol)
        payload = {"value": value, "coincidence": coincidence}
        _emit_payload(payload, [f"value {value}", f"coincidence {coincidence}"], args)
        return 0

    if args.action == "patterns":
        px = engine.marginal_pattern_distribution(model, "x")
        py = engine.marginal_pattern_distribution(model, "y")
        payload = {"x": _pattern_table(px), "y": _pattern_table(py)}
        lines = ["x patterns:"]
        lines += [f"  {k} {v}" for k, v in payload["x"].items()]
        lines.append("y patterns:")
        lines += [f"  {k} {v}" for k, v in payload["y"].items()]
        _emit_payload(payload, lines, args)
        return 0

    if args.action == "cdf":
        point = _parse_point(args.point)
        lower = engine.cdf(model, point)
        upper = engine.survival(model, point)
        payload = {"point": list(point), "cdf": lower, "survival": upper}
        _emit_payload(payload, [f"cdf {lower}", f"survival {upper}"], args)
        return 0

    # The parser admits no other action.
    rows = engine.sample(model, args.count, args.seed)
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    _emit(text, args.out)
    return 0


def cmd_concordance(args: argparse.Namespace) -> int:
    model_a = load_model(args.first)
    model_b = load_model(args.second)
    if not isinstance(model_a, pw.PiecewiseUniformDensity) or not isinstance(
        model_b, pw.PiecewiseUniformDensity
    ):
        raise InvalidParameter("concordance compares two piecewise models")
    report = pw.concordance_check(
        model_a, model_b, tol=args.tol, points_per_axis=args.grid
    )
    lines = [
        f"cdf_dominated {report.cdf_dominated}",
        f"survival_dominated {report.survival_dominated}",
        f"max_cdf_violation {report.max_cdf_violation}",
        f"max_survival_violation {report.max_survival_violation}",
    ]
    for point in report.witness_points[:5]:
        lines.append("witness " + ",".join(repr(v) for v in point))
    _emit_payload(report.to_dict(), lines, args)
    return 0 if report.dominated else 1


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which reports arguments it does not take under its own usage.

    argparse would hand them up to the top-level parser, whose message shows
    only ``usage: opdep [-h] {estimate,...}``.
    """

    def parse_known_args(
        self, args: Sequence[str] | None = None, namespace: argparse.Namespace | None = None
    ) -> tuple[argparse.Namespace, list[str]]:
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opdep",
        description="Ordinal pattern dependence: estimation, exact models, verification.",
    )
    # The model actions' parsers inherit the class.
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to this file")

    p_est = sub.add_parser("estimate", help="empirical dependence from a two-column CSV")
    p_est.add_argument("csv", help="CSV file with x and y columns")
    p_est.add_argument("-d", "--order", type=int, default=2, help="pattern order (default 2)")
    p_est.add_argument("--step", type=int, default=1, help="window offset step (default 1)")
    add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_ver = sub.add_parser("verify", help="run a scenario verifier")
    p_ver.add_argument("scenario", choices=sorted(SCENARIOS))
    add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_mod = sub.add_parser("model", help="operate on a serialized model")
    p_mod.set_defaults(func=cmd_model)
    actions = p_mod.add_subparsers(dest="action", required=True)
    p_act = {name: actions.add_parser(name) for name in ("validate", "opd", "patterns", "cdf", "sample")}
    for name, p in p_act.items():
        p.add_argument("path", help="model JSON file")
        if name in ("validate", "opd"):
            p.add_argument("--tol", type=float, default=1e-12, help="tolerance (default 1e-12)")
        if name != "sample":
            add_common(p)
    p_act["cdf"].add_argument("--point", required=True, help="comma-separated coordinates")
    p_act["sample"].add_argument("--count", type=int, default=1000, help="sample size (default 1000)")
    p_act["sample"].add_argument("--seed", type=int, required=True, help="RNG seed")
    p_act["sample"].add_argument("--out", default=None, help="write output to this file")

    p_con = sub.add_parser("concordance", help="cdf/survival domination of two models")
    p_con.add_argument("first", help="model whose distribution functions must lie below")
    p_con.add_argument("second", help="model whose distribution functions must lie above")
    p_con.add_argument("--grid", type=int, default=9, help="grid points per axis (default 9)")
    p_con.add_argument("--tol", type=float, default=1e-12)
    add_common(p_con)
    p_con.set_defaults(func=cmd_concordance)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"error: model format: {exc}", file=sys.stderr)
        return 2
    except DegenerateDistribution as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OpdepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
