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
import contextlib
import csv
import functools
import io
import itertools
import json
import logging
import math
import os
import sys
import warnings
from array import array
from pathlib import Path
from typing import Generator, Iterable, Iterator, Sequence

import numpy as np

from . import discrete as disc
from . import piecewise as pw
from .errors import DegenerateDistribution, InvalidParameter, ModelFormatError, NonFiniteInput, OpdepError
from .estimator import empirical_opd
from .modelio import load_model
from .patterns import _check_tol, cross_match_probability, dependence_from_terms, rank_table
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


def _emit_payload(payload: dict, text_lines: Iterable[str], args: argparse.Namespace) -> None:
    """Write the payload as JSON, or the text lines; JSON has no number for inf or NaN, so it refuses them."""
    if args.format == "json":
        try:
            text = json.dumps(payload, indent=2, allow_nan=False)
        except ValueError:
            named = [key for key, value in payload.items() if any(
                isinstance(v, float) and not math.isfinite(v) for v in (value if isinstance(value, list) else [value]))]
            raise NonFiniteInput(f"JSON has no number for the non-finite {' and '.join(named) or 'value'}"
                                 " (--format text prints it)") from None
        _emit(text, args.out)
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
# Characters read, screened and parsed at a time, with the rest of the line
# they end in.  A chunk of n characters briefly holds its bytes, its text, a
# StringIO copy and numpy's table of its rows, about 11n bytes.
_SCREEN_CHUNK = 2**16
# Rows of a block the row loop yields, 1 MiB of float64 at the default.
_BLOCK_ROWS = 2**16

_Block = tuple[np.ndarray, np.ndarray]


def _parse_chunk(chunk: str, first: bool) -> np.ndarray:
    """The ``(rows, 2)`` float64 table of a chunk of whole CSV lines, parsed in C.

    Refuses, with a ``ValueError`` or a warning, any chunk on which it may
    not give the row loop's values.  ``first`` says the chunk starts the
    file, whose first line must be a row of two or more fields: a header if
    either of its first two fields is not a number.
    """
    for char in _ROW_LOOP_ONLY:
        if char in chunk:
            raise ValueError(f"it contains {char!r}")
    skip = 0
    if first:
        fields = chunk.partition("\n")[0].partition("\r")[0].split(",")
        if len(fields) < 2 or not any(field.strip() for field in fields):
            raise ValueError("the first line is not a row of two or more fields")
        try:
            float(fields[0])
            float(fields[1])
        except ValueError:
            skip = 1  # the header
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
        # A chunk of empty lines, or of the header alone, holds no rows.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # Lines end at \n, \r\n or a lone \r, for numpy and the row loop alike.
        text = io.StringIO(chunk, newline="")
        return np.loadtxt(text, delimiter=",", usecols=(0, 1), comments=None, ndmin=2, skiprows=skip)


def _loop_blocks(
    path: str, lines: Iterable[str], lineno: int = 1, header: bool = True
) -> Generator[_Block, None, int]:
    """Both columns of ``lines``, the CSV lines of ``path`` from number ``lineno``
    on, as ``(x, y)`` float64 blocks read row by row into C doubles; returns the
    number of rows.  While ``header`` holds, a non-numeric row is the header."""
    values = array("d")  # x and y of each row in turn
    rows = 0
    lineno -= 1  # of the last row read
    try:
        for lineno, row in enumerate(csv.reader(lines), start=lineno + 1):
            if not row or all(not col.strip() for col in row):
                continue
            if len(row) < 2:
                raise InvalidParameter(f"{path}:{lineno}: need at least two columns")
            try:
                x = float(row[0])
                y = float(row[1])
            except ValueError:
                if header:
                    header = False
                    continue
                raise InvalidParameter(f"{path}:{lineno}: not numeric: {row[:2]!r}") from None
            header = False
            values.append(x)
            values.append(y)
            if len(values) == 2 * _BLOCK_ROWS:
                rows += _BLOCK_ROWS
                yield tuple(np.frombuffer(values).reshape(-1, 2).T)
                values = array("d")
    except csv.Error as exc:
        # Reading the next row: a stray quote can open a field past csv's size
        # limit, and csv refuses NUL on Python 3.10.
        raise InvalidParameter(f"{path}:{lineno + 1}: {exc}") from None
    if values:
        yield tuple(np.frombuffer(values).reshape(-1, 2).T)
    return rows + len(values) // 2


def _csv_blocks(path: str) -> Iterator[_Block]:
    """Both columns of a two-column CSV file as ``(x, y)`` float64 blocks, in
    order.  An optional non-numeric first row is a header.

    The file is read once, in chunks of ``_SCREEN_CHUNK`` characters and the
    rest of the line they end in, and parsed in bulk until a chunk is refused;
    the row loop reads that chunk and the rest.  Only a file that fails is
    read again, by the row loop from the start, which raises its first error.
    """
    bulk = loop = 0
    lineno = 1  # of the chunk's first line
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            # The text layer ends a line at \n, \r\n (also across a read's
            # end) or a lone \r, so each chunk ends at a line end or the EOF.
            while chunk := handle.read(_SCREEN_CHUNK) + handle.readline():
                try:
                    table = _parse_chunk(chunk, lineno == 1)
                except (ValueError, Warning) as exc:
                    log.debug("bulk parse of %s refused the chunk from line %d (%s)", path, lineno, exc)
                    lines = itertools.chain(io.StringIO(chunk, newline=""), handle)
                    loop = yield from _loop_blocks(path, lines, lineno, lineno == 1)
                    break
                bulk += len(table)
                yield table[:, 0], table[:, 1]
                lineno += chunk.count("\n") + (chunk.count("\r") - chunk.count("\r\n") if "\r" in chunk else 0)
    except (UnicodeDecodeError, InvalidParameter):
        # Errors come from the row loop over the whole file, in its order: read
        # in chunks, a file can show an undecodable byte before an earlier bad
        # row, or a bad row before a byte the loop decodes first.  Decoding the
        # whole file gives the byte's offset in it, counting a byte order mark.
        with open(path, newline="", encoding="utf-8-sig") as handle, contextlib.suppress(UnicodeDecodeError):
            for _ in _loop_blocks(path, handle):
                pass
        Path(path).read_bytes().decode("utf-8")
        raise
    if not bulk + loop:
        raise InvalidParameter(f"{path}: no data rows")
    if bulk and loop:
        log.info("read %d rows from %s: %d by the bulk parse, then %d by the row loop from line %d",
                 bulk + loop, path, bulk, loop, lineno)
    else:
        log.info("read %d rows from %s by the %s", bulk + loop, path, "row loop" if loop else "bulk parse")


def cmd_estimate(args: argparse.Namespace) -> int:
    estimate = empirical_opd(_csv_blocks(args.csv), d=args.order, step=args.step)
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


def _pattern_keys(order: int) -> list[str]:
    """``"1,2,..."`` for each row of ``rank_table(order)``, read from code points: ranks are single digits."""
    table = rank_table(order)
    chars = np.full((len(table), 2 * order - 1), ord(","), dtype=np.uint32)
    chars[:, ::2] = table + ord("0")
    return chars.view(f"U{2 * order - 1}").ravel().tolist()


def _pattern_lines(payload: dict[str, dict[str, float]]) -> Iterator[str]:
    """The text form of a ``model patterns`` payload, built only when it is printed."""
    for axis, table in payload.items():
        yield f"{axis} patterns:"
        yield from (f"  {key} {prob}" for key, prob in table.items())


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
        keys = _pattern_keys(model.order)
        payload = {"x": dict(zip(keys, px.probs)), "y": dict(zip(keys, py.probs))}
        _emit_payload(payload, _pattern_lines(payload), args)
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
