"""CSV ingestion of `opdep estimate`: the chunked bulk parse, and the row loop
it hands the rest of a file to, against the row-loop oracle.

``oracle_read_series_csv`` is the reader as it was before the bulk parse,
kept verbatim but for one change: it reports a ``csv.Error`` as an
``InvalidParameter`` naming the row csv was reading, as every other row
error names its row.  Every file must give the same rows, bit for bit, or
the same error, and ``opdep estimate`` must print the same output and exit
with the same code as when it read the whole pair with the oracle and
then estimated.  The one intended difference, a leading UTF-8 byte order
mark, has its own tests.  The bulk parse yields a block for each chunk of
``_SCREEN_CHUNK`` characters and the rest of the line they end in, the row
loop its rows in blocks of ``_BLOCK_ROWS``; the tests also cut both to a few.
"""

import csv
import io
import itertools
import logging
import re
import struct
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdep import cli
from opdep.cli import _csv_blocks, main
from opdep.errors import InvalidParameter
from opdep.estimator import TimeSeriesPair, empirical_opd


def oracle_read_series_csv(path: str) -> TimeSeriesPair:
    """Two-column CSV; an optional non-numeric first row is a header."""
    xs: list[float] = []
    ys: list[float] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        first_data_row = True
        lineno = 0
        try:
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
        except csv.Error as exc:
            raise InvalidParameter(f"{path}:{lineno + 1}: {exc}") from None
    if not xs:
        raise InvalidParameter(f"{path}: no data rows")
    return TimeSeriesPair(xs, ys)


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _joined(blocks):
    """The ``(x, y)`` blocks joined into the two series."""
    xs, ys = zip(*blocks)
    return np.concatenate(xs), np.concatenate(ys)


def _read_rows(path):
    return _joined(_csv_blocks(path))


def _oracle_rows(path):
    pair = oracle_read_series_csv(path)
    return pair.x, pair.y


def _outcome(reader, path):
    """The rows as float64 bit patterns, or the error as (type, message)."""
    try:
        x, y = reader(str(path))
    except Exception as exc:  # compared, not handled
        return ("error", type(exc), str(exc))
    return ("pair", _bits(x), _bits(y))


def _read_strictly(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _outcome(_read_rows, path)


def _run(argv):
    """Exit code, stdout and stderr of ``opdep`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_on_oracle_pair(argv):
    """``_run`` as when the whole pair was read with the oracle, then estimated."""
    with mock.patch.object(cli, "_csv_blocks", oracle_read_series_csv):
        return _run(argv)


def _assert_matches_oracle(path, data: bytes, options=("-d", "2")) -> None:
    path.write_bytes(data)
    assert _read_strictly(path) == _outcome(_oracle_rows, path)
    argv = ["estimate", str(path), *options]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(argv) == _run_on_oracle_pair(argv)


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


# -d and --step options: step 1, step at and below d, and step above d.
OPTIONS = st.sampled_from([("-d", "2"), ("-d", "3", "--step", "2"), ("-d", "2", "--step", "3"), ("-d", "3", "--step", "5")])
SMALL_BLOCKS = (1, 2, 3, 7)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(text=csv_texts(), options=OPTIONS)
def test_reader_matches_oracle_on_generated_files(csv_path, text, options):
    _assert_matches_oracle(csv_path, text.encode("utf-8"), options)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=csv_texts(), options=OPTIONS, block_rows=st.sampled_from(SMALL_BLOCKS))
def test_reader_matches_oracle_on_generated_files_in_small_blocks(csv_path, text, options, block_rows):
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        _assert_matches_oracle(csv_path, text.encode("utf-8"), options)


@pytest.fixture(params=(cli._BLOCK_ROWS,) + SMALL_BLOCKS)
def block_rows(request, monkeypatch):
    """Both readers yield blocks of this many rows."""
    monkeypatch.setattr(cli, "_BLOCK_ROWS", request.param)
    return request.param


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
def test_reader_matches_oracle_on_hand_cases(block_rows, tmp_path, text):
    _assert_matches_oracle(tmp_path / "series.csv", text.encode("utf-8"))
    _assert_matches_oracle(tmp_path / "series.csv", text.encode("utf-8"), ("-d", "2", "--step", "3"))


def test_reader_matches_oracle_on_undecodable_files(block_rows, tmp_path):
    _assert_matches_oracle(tmp_path / "early.csv", b"x,y\n1,2\n\xff,3\n4,5\n")
    # A bad row before the undecodable bytes is reported first.
    _assert_matches_oracle(tmp_path / "late.csv", b"x,y\n1,2\noops,3\n" + b"4,5\n" * 5000 + b"\xfe,6\n")


# -- screening in chunks ------------------------------------------------------------

@pytest.fixture(params=[1, 2, 3])
def small_chunks(request, monkeypatch):
    """The bulk parse reads the file this many characters at a time."""
    monkeypatch.setattr(cli, "_SCREEN_CHUNK", request.param)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=csv_texts())
def test_reader_matches_oracle_on_generated_files_screened_in_three_character_chunks(csv_path, text):
    with mock.patch.object(cli, "_SCREEN_CHUNK", 3):
        _assert_matches_oracle(csv_path, text.encode("utf-8"))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "time, value, note\n1,2,a\n3,4,b\n",  # a first line longer than a chunk
        "x,y\r\n1,2\r\n3,4\r\n",  # some chunk ends between \r and \n
        "1,2\r\n3,4\r\n",
        "x,y\r1,2\r3,4",
        "1,2\r3,4\n\n5,6\r\n\r\n7,8",  # every line end, empty lines, no end on the last line
        # Odd characters only past the first chunk, the last one in the last chunk.
        'x,y\n1,2\n3,4,"a\n5,6,"',  # numpy would read the quoted line as a row
        "x,y\n1,2\n3,4\x1f",  # numpy would strip the separator that float() rejects
        "x,y\n1,2\n3,4,\x00",
    ],
)
def test_reader_matches_oracle_when_screened_in_small_chunks(small_chunks, tmp_path, text):
    _assert_matches_oracle(tmp_path / "series.csv", text.encode("utf-8"))


def test_byte_order_mark_is_dropped_when_screened_in_small_chunks(small_chunks, tmp_path):
    text = "1.0,2.0\r\n2.0,1.0\r\n3.0,3.0\r\n"
    marked, plain = tmp_path / "marked.csv", tmp_path / "plain.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    plain.write_bytes(text.encode("utf-8"))
    assert _read_strictly(marked)[1:] == _outcome(_oracle_rows, plain)[1:]


def test_undecodable_byte_past_the_first_chunk_is_reported_by_the_row_loop(small_chunks, tmp_path):
    path = tmp_path / "late.csv"
    path.write_bytes(b"x,y\n" + b"1,2\n" * 5000 + b"\xff,3\n")
    fed = []
    with pytest.raises(UnicodeDecodeError) as info:
        for x, _ in _csv_blocks(str(path)):
            fed.append(len(x))
    # The bulk parse had yielded rows before it read the byte.  The offset is
    # the byte's in the file, as when the whole file was read first.
    assert sum(fed) > 0
    assert str(info.value) == "'utf-8' codec can't decode byte 0xff in position 20004: invalid start byte"


# -- handing the rest of the file to the row loop ----------------------------------

# Rows the bulk parse refuses, each in a form the row loop reads.  "1_000"
# is a number to float() but not to numpy; the quoted third field spans two lines.
HANDOFF_ROWS = {
    "quote": '"7",8',
    "nul": "7,8,\x00",
    "separator": "7,8,\x1c",
    "underscore": "1_000,8",
    "multiline": '7,8,"a\nb"',
}
# Data rows of the files read in small chunks and in the default chunk, which
# span three chunks or more.
HANDOFF_LENGTHS = {"small": 9, "default": 30000}


def _refused_at(caplog) -> int:
    """The first line of the chunk the bulk parse refused first."""
    for record in caplog.records:
        found = re.fullmatch(r"bulk parse of .* refused the chunk from line (\d+) \(.*\)", record.getMessage(), re.S)
        if found:
            return int(found.group(1))
    raise AssertionError("no chunk was refused")


@pytest.fixture(params=[1, 2, 3, None])
def chunking(request, monkeypatch):
    """Files are read in chunks of 1 to 3 characters, or of ``_SCREEN_CHUNK``."""
    if request.param is None:
        return "default"
    monkeypatch.setattr(cli, "_SCREEN_CHUNK", request.param)
    return "small"


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", sorted(HANDOFF_ROWS))
def test_row_loop_takes_over_at_the_refused_chunk(chunking, caplog, tmp_path, kind, position):
    rows = [f"{i % 97},{i * i % 89}" for i in range(HANDOFF_LENGTHS[chunking])]
    index = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[position]
    rows[index] = HANDOFF_ROWS[kind]
    caplog.set_level(logging.DEBUG, logger="opdep")
    _assert_matches_oracle(tmp_path / "series.csv", ("x,y\n" + "\n".join(rows) + "\n").encode("utf-8"))
    # The refused chunk holds the row at line index + 2 and, past the first
    # position, starts after the first row and the middle row respectively.
    line = _refused_at(caplog)
    assert line <= index + 2
    if position != "first":
        assert line > {"middle": 2, "last": len(rows) // 2 + 2}[position]


def test_undecodable_byte_decoded_with_an_earlier_bad_row_is_reported_first(tmp_path):
    # With a two-byte character in every row, reads of 2^16 characters end
    # between the 8 KiB blocks that reading row by row decodes at a time.  A
    # bad row at the start of such a block, before a read's end, and an
    # undecodable byte right after that end: row by row, the block fails to
    # decode before its rows are read, so the byte is reported first.
    base = ("x,y\n" + "".join(f"{i % 10},2,\u00e9\n" for i in range(60000))).encode("utf-8")
    path = tmp_path / "series.csv"
    path.write_bytes(base)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        ends = []
        while handle.read(cli._SCREEN_CHUNK) + handle.readline():
            ends.append(handle.buffer.tell())
    cases = 0
    for end in ends[:-1]:
        block = end // 8192 * 8192
        bad_row = base.index(b"\n", block) + 1
        bad_byte = base.index("\u00e9".encode(), end)
        if not bad_row < end - 30 < bad_byte < block + 8192:
            continue
        data = bytearray(base)
        data[bad_row : bad_row + 1] = b"x"
        data[bad_byte : bad_byte + 2] = b"\xff\xff"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as info:
            _read_rows(str(path))
        with pytest.raises(UnicodeDecodeError) as whole:
            bytes(data).decode("utf-8")
        assert str(info.value) == str(whole.value)
        assert _outcome(_oracle_rows, path)[1] is UnicodeDecodeError
        cases += 1
    assert cases >= 3


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("chunk", ["small", "default"])
def test_bad_row_after_the_handoff_is_reported_at_the_oracle_line(monkeypatch, tmp_path, chunk, end):
    # A quoted row, a quoted field over two lines, then a non-numeric row.
    rows = [f"{i % 7},{i % 5}" for i in range(HANDOFF_LENGTHS[chunk])]
    rows[len(rows) // 3] = '"1",2,"a\nb"'
    rows[2 * len(rows) // 3] = "oops,3"
    if chunk == "small":
        monkeypatch.setattr(cli, "_SCREEN_CHUNK", 2)
    path = tmp_path / "series.csv"
    _assert_matches_oracle(path, ("x,y" + end + end.join(rows) + end).encode("utf-8"))
    # Lines are numbered by csv record, so the quoted field's two lines are one.
    with pytest.raises(InvalidParameter, match=rf":{2 * len(rows) // 3 + 2}: not numeric"):
        _read_rows(str(path))


def test_line_end_split_across_a_chunk_edge(caplog, tmp_path):
    # The first read ends between the \r and \n of a line end.
    text = "x,y\r\n" + "1,2\r\n" * (cli._SCREEN_CHUNK // 5 - 2) + "12,34\r\n"
    text += "5,6\r\n" * 3
    assert text[cli._SCREEN_CHUNK - 1 : cli._SCREEN_CHUNK + 1] == "\r\n"
    caplog.set_level(logging.DEBUG, logger="opdep")
    _assert_matches_oracle(tmp_path / "series.csv", text.encode("utf-8"))
    assert not [r for r in caplog.records if r.levelname == "DEBUG"]
    # The row loop takes over in the first chunk, or in the second, which
    # starts on the line after the \r\n that the first read ends in.
    for edited, line in (("x,\x1c" + text[3:], 1), (text + '"5",6\r\n', cli._SCREEN_CHUNK // 5 + 1)):
        caplog.clear()
        _assert_matches_oracle(tmp_path / "series.csv", edited.encode("utf-8"))
        assert _refused_at(caplog) == line


def _straddled_text(n: int, handoff: bool) -> str:
    """A CSV text read ``n`` characters and the rest of the line at a time whose
    reads, past the first when its first row is longer than ``n - 1``, end
    between the \\r and \\n of a line end.  Between those line ends, blank
    lines and rows end in \\n, \\r\\n and a lone \\r.  With ``handoff``, the
    fourth chunk starts with a quoted row."""
    pieces = itertools.cycle(["\n", "\r", "3,4\n", "5,6\r\n", "7,8\r"])

    def whole_lines(length):
        text = ""
        while len(text) < length:
            text += next(piece for piece in pieces if len(text) + len(piece) <= length)
        return text

    first = "1,2\n" if n < 4 else "1,2\r\n" if n == 4 else "1,2\n" + whole_lines(n - 5) + "\r\n"
    chunks = [first] + [whole_lines(n - 1) + "\r\n" for _ in range(5)]
    if handoff:
        chunks.insert(3, '"5",6\n')
    return "".join(chunks)


@pytest.mark.parametrize("handoff", [False, True], ids=["bulk", "handoff"])
@pytest.mark.parametrize("n", range(1, 10))
def test_every_chunk_ends_at_a_line_end(monkeypatch, tmp_path, n, handoff):
    monkeypatch.setattr(cli, "_SCREEN_CHUNK", n)
    parse_chunk, loop_blocks = cli._parse_chunk, cli._loop_blocks
    chunks, handed = [], []

    def recorded_parse(chunk, first):
        chunks.append(chunk)
        return parse_chunk(chunk, first)

    def recorded_loop(path, lines, *args):
        def recorded():
            for line in lines:
                handed.append(line)
                yield line

        return (yield from loop_blocks(path, recorded(), *args))

    monkeypatch.setattr(cli, "_parse_chunk", recorded_parse)
    monkeypatch.setattr(cli, "_loop_blocks", recorded_loop)
    text = _straddled_text(n, handoff)
    if n > 1:
        assert re.search("\r(?!\n)", text) and "\r\n" in text and re.search("(?<!\r)\n", text)
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read_strictly(path) == _outcome(_oracle_rows, path)
    assert bool(handed) == handoff
    # The bulk-parsed chunks and the text handed to the row loop, which
    # starts with the refused chunk, are the file.
    bulk = chunks[:-1] if handoff else chunks
    assert "".join(bulk) + "".join(handed) == text
    if handoff:
        assert "".join(handed).startswith(chunks[-1])
    start = 0
    for index, chunk in enumerate(chunks):
        assert text.startswith(chunk, start)
        end = start + len(chunk)
        # A chunk ends at a line end or the end of the file, and its last line
        # starts no later than its character n + 1.
        assert end == len(text) or chunk.endswith("\n") or (chunk.endswith("\r") and text[end] != "\n")
        last_line = io.StringIO(chunk, newline="").readlines()[-1]
        assert len(chunk) - len(last_line) <= n
        if index < len(bulk) and (index or n >= 4):
            assert text[start + n - 1 : start + n + 1] == "\r\n"
        start = end
    assert len(bulk) == (3 if handoff else 6)


# -- byte order mark ---------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    ["1.0,2.0\n2.0,1.0\n3.0,3.0\n", "x,y\n1,2\n3,4\n", '"1",2\n3,4\n', "x,y\n1,2\n  \n3,4\n"],
)
def test_byte_order_mark_is_not_part_of_the_first_field(tmp_path, text):
    marked, plain = tmp_path / "marked.csv", tmp_path / "plain.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    plain.write_bytes(text.encode("utf-8"))
    assert _read_strictly(marked)[1:] == _outcome(_oracle_rows, plain)[1:]


def test_byte_order_mark_keeps_the_first_data_row(capsys, tmp_path):
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n2.0,1.0\n3.0,3.0\n")
    code = main(["estimate", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "value 0.0" in out and "window_count 2" in out


# -- error precedence ---------------------------------------------------------------

# The files of the table below.  "late_text" has its non-numeric row after
# three blocks of two rows.
ERROR_FILES = {
    "missing": None,
    "undecodable": b"x,y\n" + b"1,2\n" * 9 + b"\xff,3\n",
    "late_text": b"x,y\n" + b"".join(b"%d,%d\n" % (i % 5, i % 3) for i in range(7)) + b"oops,3\n4,5\n",
    "no_rows": b"x,y\n\n",
    "one_column": b"x,y\n1,2\n3,4\n5\n6,7\n",
    "short": b"x,y\n1,2\n2,1\n",
    "gaps": b"nan,1\n2,2\n3,inf\n4,3\n-inf,5\n",
    "degenerate": b"x,y\n1,1\n2,2\n3,3\n4,4\n",
    "good": b"x,y\n" + b"".join(b"%d,%d\n" % (i * i * 7 % 11, i * i * i * 5 % 13) for i in range(23)),
}
# (file, options, exit code, stdout, stderr) as `opdep estimate` gave them
# when it read the whole pair before estimating.  A CSV error wins over a
# bad -d or --step.
ERROR_TABLE = [
    ('missing', ['-d', '1'], 2, '', "error: [Errno 2] No such file or directory: '{path}'\n"),
    ('missing', ['-d', '9'], 2, '', "error: [Errno 2] No such file or directory: '{path}'\n"),
    ('missing', ['--step', '0'], 2, '', "error: [Errno 2] No such file or directory: '{path}'\n"),
    ('undecodable', ['-d', '1'], 2, '', "error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte\n"),
    ('undecodable', ['-d', '9'], 2, '', "error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte\n"),
    ('undecodable', ['--step', '0'], 2, '', "error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte\n"),
    ('late_text', ['-d', '1'], 2, '', "error: {path}:9: not numeric: ['oops', '3']\n"),
    ('late_text', ['-d', '9'], 2, '', "error: {path}:9: not numeric: ['oops', '3']\n"),
    ('late_text', ['--step', '0'], 2, '', "error: {path}:9: not numeric: ['oops', '3']\n"),
    ('no_rows', ['-d', '1'], 2, '', 'error: {path}: no data rows\n'),
    ('no_rows', ['-d', '9'], 2, '', 'error: {path}: no data rows\n'),
    ('no_rows', ['--step', '0'], 2, '', 'error: {path}: no data rows\n'),
    ('one_column', ['-d', '1'], 2, '', 'error: {path}:4: need at least two columns\n'),
    ('one_column', ['-d', '9'], 2, '', 'error: {path}:4: need at least two columns\n'),
    ('one_column', ['--step', '0'], 2, '', 'error: {path}:4: need at least two columns\n'),
    ('short', ['-d', '1'], 2, '', 'error: order 1 is below the minimum of 2\n'),
    ('short', ['-d', '3'], 2, '', 'error: series of length 2 has no window of order 3\n'),
    ('gaps', [], 2, '', 'error: no common finite window available\n'),
    ('gaps', ['--step', '0'], 2, '', 'error: step must be >= 1, got 0\n'),
    ('degenerate', [], 3, '', 'error: independent-copy coincidence is 1; pattern dependence is undefined\n'),
    ('degenerate', ['-d', '9'], 2, '', 'error: order 9 exceeds the maximum of 8\n'),
    ('good', [], 0, 'value 0.440677966101695\ncoincidence 0.7272727272727273\ncross_term 0.512396694214876\nwindow_count 22\nskipped_windows 0\n', ''),
    ('good', ['--step', '0'], 2, '', 'error: step must be >= 1, got 0\n'),
    ('good', ['-d', '3', '--step', '5'], 0, 'value 0.4736842105263157\ncoincidence 0.6\ncross_term 0.24000000000000005\nwindow_count 5\nskipped_windows 0\n', ''),
]


@pytest.mark.parametrize("block_rows", [cli._BLOCK_ROWS, 2])
@pytest.mark.parametrize("name, options, code, out, err", ERROR_TABLE)
def test_estimate_reports_errors_in_the_order_it_did(monkeypatch, tmp_path, block_rows, name, options, code, out, err):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    path = tmp_path / f"{name}.csv"
    if ERROR_FILES[name] is not None:
        path.write_bytes(ERROR_FILES[name])
    expected = (code, out.replace("{path}", str(path)), err.replace("{path}", str(path)))
    assert _run(["estimate", str(path), *options]) == expected


# Files on which csv itself raises, as the row loop reads them: a stray quote
# opens a field that runs past csv's limit of 131,072 characters, and on
# Python 3.10 csv refuses a NUL.
CSV_ERROR_FILES = {
    "unterminated_quote": b'x,y\n"7,8\n' + b"1.5,2.5\n" * 30000,
    "long_field": b'x,y\n1,2\n"' + b"1" * 140000 + b'",3\n',
    "nul": b"x,y\n1,2\n\x00,3\n4,5\n",
    # Refused in its second chunk, so the row loop takes over mid-file.
    "late_quote": b"x,y\n" + b"1,2\n" * 20000 + b'"7,8\n' + b"1.5,2.5\n" * 30000,
}


# The row each error names: the one csv was reading when it raised.
CSV_ERROR_ROWS = {"unterminated_quote": 2, "long_field": 3, "nul": 3, "late_quote": 20002}


@pytest.mark.parametrize("name", sorted(CSV_ERROR_FILES))
def test_csv_error_is_reported_as_a_parse_error(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    _assert_matches_oracle(path, CSV_ERROR_FILES[name])
    code, out, err = _run(["estimate", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:{CSV_ERROR_ROWS[name]}: ") and err.count("\n") == 1
    if name != "nul":
        assert err == f"error: {path}:{CSV_ERROR_ROWS[name]}: field larger than field limit (131072)\n"


@pytest.mark.parametrize("first", [1, 7])
def test_row_loop_numbers_a_csv_error_from_the_line_it_starts_at(first):
    # As after a handoff: the two rows are lines first and first + 1.
    lines = io.StringIO('1,2\n3,4\n"' + "1" * 140000 + '",3\n', newline="")
    with pytest.raises(InvalidParameter, match=rf"^P:{first + 2}: field larger than field limit"):
        list(cli._loop_blocks("P", lines, first, False))


# -- observability -------------------------------------------------------------------

@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_log_names_the_reader(caplog, monkeypatch, tmp_path, end):
    caplog.set_level(logging.DEBUG, logger="opdep")
    bulk, loop, both = tmp_path / "bulk.csv", tmp_path / "loop.csv", tmp_path / "both.csv"
    bulk.write_bytes(f"x,y{end}1,2{end}{end}3,4{end}".encode())
    loop.write_bytes(f'x,y{end}"1",2{end}3,4{end}'.encode())
    # Read 8 characters and the rest of the line at a time, the bulk parse
    # takes lines 1 to 3 in one chunk and refuses the chunk of the quoted row.
    # With \r\n the first read ends between a \r and \n, so the first chunk
    # ends at line 2 and the refused one holds lines 3 and 4.
    both.write_bytes(f'x,y{end}1,2{end}3,4{end}"5",6{end}7,8{end}'.encode())
    refused, bulk_rows = (3, 1) if end == "\r\n" else (4, 2)

    _read_rows(str(bulk))
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("INFO", f"read 2 rows from {bulk} by the bulk parse")
    ]
    caplog.clear()

    _read_rows(str(loop))
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("DEBUG", f"bulk parse of {loop} refused the chunk from line 1 (it contains '\"')"),
        ("INFO", f"read 2 rows from {loop} by the row loop"),
    ]
    caplog.clear()

    monkeypatch.setattr(cli, "_SCREEN_CHUNK", 8)
    _read_rows(str(both))
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("DEBUG", f"bulk parse of {both} refused the chunk from line {refused} (it contains '\"')"),
        ("INFO", f"read 4 rows from {both}: {bulk_rows} by the bulk parse, "
                 f"then {4 - bulk_rows} by the row loop from line {refused}"),
    ]


def test_log_counts_the_rows_of_every_block(block_rows, caplog, monkeypatch, tmp_path):
    caplog.set_level(logging.INFO, logger="opdep")
    bulk, loop, both = tmp_path / "bulk.csv", tmp_path / "loop.csv", tmp_path / "both.csv"
    bulk.write_text("x,y\n" + "1,2\n\n" * 15, encoding="utf-8")
    loop.write_text('"x",y\n' + "1,2\n\n" * 15, encoding="utf-8")
    # Read 5 characters and the rest of the line at a time, the first chunk is
    # lines 1-3 and every later one three lines.  The chunks up to line 30
    # hold the 14 rows on the odd lines 3-29, and the chunk of lines 31-33
    # holds the quoted row, so the row loop reads the rows from line 31 on.
    both.write_text("x,y\n\n" + "1,2\n\n" * 15 + '"1",2\n' + "1,2\n\n" * 15, encoding="utf-8")
    for path, reader in ((bulk, "bulk parse"), (loop, "row loop")):
        _read_rows(str(path))
        assert caplog.records[-1].getMessage() == f"read 15 rows from {path} by the {reader}"
    monkeypatch.setattr(cli, "_SCREEN_CHUNK", 5)
    _read_rows(str(both))
    assert caplog.records[-1].getMessage() == (
        f"read 31 rows from {both}: 14 by the bulk parse, then 17 by the row loop from line 31"
    )


def test_a_file_refused_in_its_third_chunk_is_estimated_once(caplog, monkeypatch, tmp_path):
    # Read 4 characters and the rest of the line at a time, the chunks are
    # lines 1-2, lines 3-4, then the quoted row's chunk, which the row loop
    # reads with the rows after it.
    monkeypatch.setattr(cli, "_SCREEN_CHUNK", 4)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
    caplog.set_level(logging.DEBUG, logger="opdep")
    path = tmp_path / "late.csv"
    path.write_text('1,2\n3,4\n5,6\n7,8\n"9",10\n11,12\n13,14\n', encoding="utf-8")
    argv = ["estimate", str(path)]
    expected = _run_on_oracle_pair(argv)
    fed = []

    def counted_opd(blocks, **options):
        lengths = []
        fed.append(lengths)

        def counted():
            for x, y in blocks:
                lengths.append(len(x))
                yield x, y

        return empirical_opd(counted(), **options)

    monkeypatch.setattr(cli, "empirical_opd", counted_opd)
    assert _run(argv) == expected
    assert len(fed) == 1 and sum(fed[0]) == 7
    assert fed == [[2, 2, 2, 1]]
    assert _refused_at(caplog) == 5


# -- memory --------------------------------------------------------------------------

def _series_text(rows: int, header: str = "x,y") -> str:
    rng = np.random.default_rng(rows)
    x = np.cumsum(rng.standard_normal(rows)).tolist()
    y = rng.standard_normal(rows).tolist()
    return header + "\n" + "".join(f"{a:.2f},{b:.2f}\n" for a, b in zip(x, y))


def _estimate_peak(path):
    """The peak of memory traced while ``opdep estimate`` runs on ``path``."""
    tracemalloc.start()
    try:
        code, _, _ = _run(["estimate", str(path), "-d", "3", "--step", "16"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize(
    "header, quoted_last, reader",
    [
        pytest.param("x,y", False, " by the bulk parse", id="x,y-bulk parse"),
        pytest.param('"x","y"', False, " by the row loop", id='"x","y"-row loop'),
        pytest.param("x,y", True, r": \d+ by the bulk parse, then \d+ by the row loop from line \d+", id="x,y-handoff"),
    ],
)
def test_estimate_memory_does_not_grow_with_the_rows(caplog, tmp_path, header, quoted_last, reader):
    caplog.set_level(logging.INFO, logger="opdep")
    peaks = {}
    for rows in (10**5, 4 * 10**5):
        path = tmp_path / f"{rows}.csv"
        text = _series_text(rows, header)
        if quoted_last:
            # The row loop reads the last chunk.
            last = text.rindex("\n", 0, -1) + 1
            text = text[:last] + '"' + text[last:].replace(",", '",', 1)
        path.write_text(text, encoding="utf-8")
        peaks[rows] = _estimate_peak(path)
        assert re.fullmatch(f"read {rows} rows from {re.escape(str(path))}{reader}", caplog.records[-1].getMessage())
    # Both files span more than one block.  A table of all rows would add
    # 16 bytes a row, 4.6 MiB here.
    assert peaks[4 * 10**5] - peaks[10**5] < 2**20, peaks
