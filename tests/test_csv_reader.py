"""CSV ingestion of `opdep estimate`: the bulk parse against the row-loop oracle.

``oracle_read_series_csv`` is the reader as it was before the bulk parse,
kept verbatim: every file must give the same pair, bit for bit, or the
same error.  The one intended difference, a leading UTF-8 byte order
mark, has its own tests.
"""

import csv
import logging
import struct
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from opdep.cli import _read_series_csv, main
from opdep.errors import InvalidParameter
from opdep.estimator import TimeSeriesPair


def oracle_read_series_csv(path: str) -> TimeSeriesPair:
    """Two-column CSV; an optional non-numeric first row is a header."""
    xs: list[float] = []
    ys: list[float] = []
    with open(path, newline="", encoding="utf-8") as handle:
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
            xs.append(x)
            ys.append(y)
    if not xs:
        raise InvalidParameter(f"{path}: no data rows")
    return TimeSeriesPair(xs, ys)


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _outcome(reader, path):
    """The pair as float64 bit patterns, or the error as (type, message)."""
    try:
        pair = reader(str(path))
    except Exception as exc:  # compared, not handled
        return ("error", type(exc), str(exc))
    return ("pair", _bits(pair.x), _bits(pair.y))


def _read_strictly(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _outcome(_read_series_csv, path)


def _assert_matches_oracle(path, data: bytes) -> None:
    path.write_bytes(data)
    assert _read_strictly(path) == _outcome(oracle_read_series_csv, path)


# -- generated files -------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(
        ["nan", "-nan", "NaN", "inf", "-inf", "infinity", "-Infinity", "1e400", "-1e400", "1e-400",
         "+.5", "5.", "0.01", "-0.0"]
    ),
)
ODD_TOKENS = st.sampled_from(
    ["1_000", "\u0661\u0662", "\u0663.5", "", " ", "x", "oops", "#", "1#2", "# 3", '"1.5"', '"a,b"',
     '"2\n3"', '"4\r\n5,6"', '"', "'1'", "1e", "0x10", "nan(1)", "1\x00", "1\ufeff", "1 2"]
)
CLEAN_PADS = st.sampled_from(["", "", "", " ", "\t"])
ODD_PADS = st.sampled_from(["\u2003", "\x85", "\xa0", "\u3000", "\x1c", "\x1f", "\x0b", "\x0c", "\r"])
ODD_ROWS = st.sampled_from(
    ["  ", "\t", ",", " , ", ",,", "\u2003", "1", "x", "oops,1", "1,", ",2", "# 1,2", "1,2#3", "1,2 # note"]
)
HEADERS = st.sampled_from([None, None, "x,y", "x,y,z", "time, value", "a", "x,1", '"x","y"', "x\ry", ","])
CLEAN_ENDS = st.sampled_from(["\n", "\n", "\r\n"])
ODD_ENDS = st.sampled_from(["\r", "\n\n", "\r\n\r\n", "\n \n"])


@st.composite
def csv_texts(draw):
    """CSV texts, from ones the bulk parse takes to ones only the loop reads.

    The odd share sets how often a token, a pad, a row or a line ending is
    one of the odd cases; at 0 the file is clean apart from empty lines and
    at most one odd row.
    """
    odd_percent = draw(st.sampled_from([0, 0, 1, 3, 30]))

    def odd() -> bool:
        return draw(st.sampled_from(range(100))) < odd_percent

    def field() -> str:
        token = draw(ODD_TOKENS) if odd() else draw(NUMBERS)
        return (draw(ODD_PADS) if odd() else draw(CLEAN_PADS)) + token + (
            draw(ODD_PADS) if odd() else draw(CLEAN_PADS)
        )

    def row() -> str:
        if odd():
            return draw(ODD_ROWS)
        if draw(st.integers(0, 9)) == 0:
            return ""
        return ",".join(field() for _ in range(draw(st.integers(2, 4))))

    rows = [row() for _ in range(draw(st.integers(0, 12)))]
    if draw(st.sampled_from([False, False, True])):
        # One odd row at a random line, often the only odd thing in the file.
        rows.insert(draw(st.integers(0, len(rows))), draw(ODD_ROWS))
    header = draw(HEADERS)
    if header is not None:
        rows.insert(0, header)
    text = "".join(r + (draw(ODD_ENDS) if odd() else draw(CLEAN_ENDS)) for r in rows)
    if rows and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "series.csv"


@settings(derandomize=True, max_examples=600, deadline=None)
@given(text=csv_texts())
def test_reader_matches_oracle_on_generated_files(csv_path, text):
    _assert_matches_oracle(csv_path, text.encode("utf-8"))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "x,y\n",
        "x,y",
        "x,y\n\n,\n",
        "x,y\n1,2\n",
        "1,2\n3,4",
        "x,y\r\n1,2\r\n\r\n3,4\r\n",
        "x,y\r1,2\n3,4\n",  # a lone CR ends the header row
        "1,2\r3,4\r",
        "x,y\n1,2,\r3,4\n",
        "x,y\n1,2\n  \n3,4\n",
        "x,y\n1,2\n,\n3,4\n",
        "\n\nx,y\n1,2\n",
        "x,y\nx,y\n1,2\n",
        "1,2\nx,y\n",
        "x,y\n1,2\n3\n",
        "x\n1,2\n",
        "x,y\n1,2,extra,\n3,4\n5,6,7\n",
        "x,y\n1,2\n3,4,\"a\n5,6,\"\n",  # a quoted field swallows the next line
        "x,y\n\"1\",\"2\"\n3,4\n",
        "x,y\n1_000,2\n",
        "x,y\n\u0661,2\n",
        "x,y\n\u20031.5\u2003,\x852\x85\n",
        "x,y\n\x1c1,2\n",
        "x,y\n1,2\x1f\n",
        "x,y\n1,2,\x00\n",
        "x,y\n1#2,3\n",
        "x,y\n#1,3\n",
        "x,y\n1,2 # note\n",
        "nan,-nan\ninf,infinity\n1e400,1e-400\n-inf,-Infinity\n",
    ],
)
def test_reader_matches_oracle_on_hand_cases(tmp_path, text):
    _assert_matches_oracle(tmp_path / "series.csv", text.encode("utf-8"))


def test_reader_matches_oracle_on_undecodable_files(tmp_path):
    _assert_matches_oracle(tmp_path / "early.csv", b"x,y\n1,2\n\xff,3\n4,5\n")
    # A bad row before the undecodable bytes is reported first.
    _assert_matches_oracle(tmp_path / "late.csv", b"x,y\n1,2\noops,3\n" + b"4,5\n" * 5000 + b"\xfe,6\n")


# -- byte order mark ---------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    ["1.0,2.0\n2.0,1.0\n3.0,3.0\n", "x,y\n1,2\n3,4\n", '"1",2\n3,4\n', "x,y\n1,2\n  \n3,4\n"],
)
def test_byte_order_mark_is_not_part_of_the_first_field(tmp_path, text):
    marked, plain = tmp_path / "marked.csv", tmp_path / "plain.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    plain.write_bytes(text.encode("utf-8"))
    assert _read_strictly(marked)[1:] == _outcome(oracle_read_series_csv, plain)[1:]


def test_byte_order_mark_keeps_the_first_data_row(capsys, tmp_path):
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n2.0,1.0\n3.0,3.0\n")
    code = main(["estimate", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "value 0.0" in out and "window_count 2" in out


# -- observability -------------------------------------------------------------------

def test_log_names_the_reader(caplog, tmp_path):
    caplog.set_level(logging.DEBUG, logger="opdep")
    bulk, loop = tmp_path / "bulk.csv", tmp_path / "loop.csv"
    bulk.write_text("x,y\n1,2\n\n3,4\n", encoding="utf-8")
    loop.write_text('x,y\n"1",2\n3,4\n', encoding="utf-8")

    _read_series_csv(str(bulk))
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("INFO", f"read 2 rows from {bulk} by the bulk parse")
    ]
    caplog.clear()

    _read_series_csv(str(loop))
    records = [(r.levelname, r.getMessage()) for r in caplog.records]
    assert len(records) == 2
    assert records[0][0] == "DEBUG"
    assert records[0][1].startswith(f"bulk parse of {loop} rejected (") and "'\"'" in records[0][1]
    assert records[1] == ("INFO", f"read 2 rows from {loop} by the row loop")
