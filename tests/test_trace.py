"""Trace ingestion, validation, serialization, and synthesis."""
import csv
import io
import json
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spotbid as sb
from spotbid.cli import main
from conftest import EPOCH, FIXTURES, UNIX_EPOCH, epoch_seconds, make_trace

CSV_TWO_ROWS = b"timestamp,price\n2015-05-03T00:20:06Z,0.256\n2015-05-03T01:00:00Z,0.300\n"


def test_parse_csv_basic():
    trace = sb.parse_csv(CSV_TWO_ROWS)
    assert len(trace) == 2
    assert trace.prices() == (0.256, 0.300)
    assert trace.stamps[0] == epoch_seconds(
        datetime(2015, 5, 3, 0, 20, 6, tzinfo=timezone.utc)
    )
    assert trace.instance_type == ""


def test_parse_csv_accepts_crlf_and_bom():
    raw = "﻿timestamp,price\r\n2015-05-03T00:20:06Z,0.256\r\n".encode()
    assert sb.parse_csv(raw).prices() == (0.256,)


def test_parse_csv_accepts_utc_offset_form():
    trace = sb.parse_csv(b"timestamp,price\n2015-05-03T02:20:06+02:00,1.5\n")
    assert trace.stamps[0] == epoch_seconds(
        datetime(2015, 5, 3, 0, 20, 6, tzinfo=timezone.utc)
    )


def test_parse_csv_errors():
    with pytest.raises(sb.DataError, match="header"):
        sb.parse_csv(b"time,price\n2015-05-03T00:20:06Z,0.2\n")
    with pytest.raises(sb.DataError, match="empty body"):
        sb.parse_csv(b"timestamp,price\n")
    with pytest.raises(sb.DataError, match="line 2"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06Z,-1.0\n")
    with pytest.raises(sb.DataError, match="line 3"):
        sb.parse_csv(
            b"timestamp,price\n2015-05-03T00:20:06Z,0.2\n2015-05-03T01:00:00Z,abc\n"
        )
    with pytest.raises(sb.DataError, match="timestamp"):
        sb.parse_csv(b"timestamp,price\nyesterday,0.2\n")
    with pytest.raises(sb.DataError, match="UTC offset"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06,0.2\n")
    with pytest.raises(sb.DataError, match="sub-second"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06.500000Z,0.2\n")
    with pytest.raises(sb.DataError, match="timestamp"):
        # one-digit fractions do not even parse on older interpreters
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06.5Z,0.2\n")
    with pytest.raises(sb.DataError, match="2 columns"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06Z,0.2,extra\n")
    with pytest.raises(sb.DataError, match="^malformed CSV at line 3: field larger"):
        sb.parse_csv("timestamp,price\n2015-05-03T00:20:06Z,0.2\n"
                     "2015-05-03T00:21:06Z," + "1" * 200_000 + "\n")
    with pytest.raises(sb.DataError, match="price"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06Z,nan\n")


def reference_parse_csv(raw: bytes) -> sb.PriceTrace:
    """parse_csv as a plain loop that runs the row helpers on every row.

    It keeps the helpers' datetimes and converts them to seconds at the end.
    """
    text = raw.decode("utf-8").lstrip("\ufeff")
    rows = csv.reader(io.StringIO(text))
    header = next(rows, None)
    if header is None or [cell.strip() for cell in header] != ["timestamp", "price"]:
        raise sb.DataError(
            f"malformed header at line 1: expected 'timestamp,price', got {header!r}"
        )
    points = []
    try:
        for line_no, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise sb.DataError(f"expected 2 columns at line {line_no}, got {len(row)}")
            where = f"line {line_no}"
            ts = sb.trace._parse_timestamp(row[0], where)
            price = sb.trace._parse_price(row[1], where)
            points.append((ts, price))
    except csv.Error as exc:
        raise sb.DataError(f"malformed CSV at line {rows.line_num}: {exc}") from None
    if not points:
        raise sb.DataError("empty body: no data rows after the header")
    return sb.PriceTrace(
        tuple(epoch_seconds(ts) for ts, _ in points),
        tuple(price for _, price in points),
    )


# Rows parse_csv accepts: any offset, Z or z, whole seconds, padded fields,
# finite non-negative prices.
CSV_STAMPS = st.builds(
    lambda ts, utc_form: ts.isoformat().replace("+00:00", utc_form),
    st.datetimes(
        timezones=st.sampled_from(
            [
                timezone.utc,
                timezone(timedelta(hours=5)),
                timezone(-timedelta(hours=3, minutes=30)),
            ]
        )
    ).map(lambda ts: ts.replace(microsecond=0)),
    st.sampled_from(["Z", "z", "+00:00", "-00:00"]),
) | st.sampled_from(["2020-01-01 00:00:00Z", "2020-01-01T00:00:00+00:00:00.500000"])
CSV_PRICES = st.floats(min_value=0, allow_infinity=False).map(repr) | st.sampled_from(
    ["0", "-0.0", "1_0", "1E3"]
)
CSV_SPACE = st.sampled_from(["", " ", "\t", "  "])
CSV_ROW = st.builds(
    "{}{}{},{}{}{}".format, CSV_SPACE, CSV_STAMPS, CSV_SPACE, CSV_SPACE, CSV_PRICES, CSV_SPACE
)
# Rows it skips or rejects.
CSV_ODD_ROW = st.sampled_from(
    [
        "",
        "2020-01-01T00:00:00Z",
        "2020-01-01T00:00:00Z,1.5,x",
        "2020-01-01T00:00:00,1.5",
        "2020-01-01T00:00:00.500000Z,1.5",
        "2020-01-01T00:00:00.5Z,1.5",
        "0001-01-01T00:00:00+05:00,1.5",
        "9999-12-31T23:59:59-05:00,1.5",
        "yesterday,1.5",
        ",1.5",
        "2020-01-01T00:00:00Z,nan",
        "2020-01-01T00:00:00Z, inf",
        "2020-01-01T00:00:00Z,-1",
        "2020-01-01T00:00:00Z,1e400",
        "2020-01-01T00:00:00Z,abc",
        "2020-01-01T00:00:00Z,",
    ]
)


def _parse_outcome(parse, raw):
    try:
        return repr(parse(raw))  # both columns; repr tells -0.0 and int stamps apart
    except sb.DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=400)
@given(
    rows=st.lists(CSV_ROW, max_size=8),
    odd=st.lists(st.tuples(st.integers(0, 8), CSV_ODD_ROW), max_size=2),
    bom=st.booleans(),
)
# ISO 8601 basic format and week dates: fromisoformat reads them from
# Python 3.11 on, with or without the helper's "Z" rewrite
@example(rows=["20200101T000000Z,1.5", "20200101T000100+0000,2"], odd=[], bom=False)
@example(rows=["2020-W01-1T00:00:00Z,1.5", "2020W013T00:00:00z,2"], odd=[], bom=False)
def test_parse_csv_matches_reference_loop(rows, odd, bom):
    for at, row in odd:
        rows.insert(at, row)
    raw = (("\ufeff" if bom else "") + "timestamp,price\n" + "\n".join(rows)).encode()
    assert _parse_outcome(sb.parse_csv, raw) == _parse_outcome(reference_parse_csv, raw)


def _quoted(row, spans_lines):
    """row with its first cell quoted, holding a line end if spans_lines."""
    stamp, comma, rest = row.partition(",")
    return f'"{stamp}{chr(10) if spans_lines else ""}"{comma}{rest}'


# Rows in the forms the chunk pass hands to the row loop, or converts after
# folding "\r\n" or converting to UTC.
CSV_EDGE_ROW = st.one_of(
    CSV_ROW,
    CSV_ODD_ROW,
    st.builds(_quoted, CSV_ROW, st.booleans()),
    st.sampled_from(
        ["2020-01-01T00:00:00Z,1.5\r", "2020-01-01T00:00:00Z,1.5\r\t", "\r", "\r "]
    ),
)


# Header lines with a '"': some csv reads as one record of their line, in
# some a quoted field runs past the line end ('a"b,"c' holds a literal '"'
# first), and most are malformed headers.
CSV_HEADER = st.sampled_from(
    [
        '"timestamp","price"',
        '"timestamp",price',
        ' timestamp , "price"',
        '"time""stamp","price"',
        '"timestamp","price',
        'a"b,"c',
        '"timestamp\n","price"',
        '"timestamp"x,price',
        ' "timestamp",price',
    ]
) | st.just("timestamp,price")


@settings(max_examples=400)
@given(
    rows=st.lists(CSV_ROW, max_size=12),
    odd=st.lists(st.tuples(st.integers(0, 12), CSV_EDGE_ROW), max_size=3),
    line_end=st.sampled_from(["\n", "\r\n"]),
    chunk=st.sampled_from([1, 7, 40, 64]),
    header=CSV_HEADER,
)
@example(
    rows=["2020-01-01T05:00:00+05:00,1.5"] * 3, odd=[], line_end="\r\n", chunk=40,
    header="timestamp,price",
)
@example(
    rows=[], odd=[(0, "0001-01-01T00:00:00+05:00,1.5")], line_end="\n", chunk=64,
    header="timestamp,price",
)
@example(
    rows=["2020-01-01T00:00:00Z,1.5", '",price', "2020-01-01T00:01:00Z,2"], odd=[],
    line_end="\n", chunk=7, header='"timestamp","price',
)
@example(rows=['",1.5', "2020-01-01T00:01:00Z,2"], odd=[], line_end="\n", chunk=7, header='a"b,"c')
def test_parse_csv_matches_reference_loop_at_every_chunk_size(rows, odd, line_end, chunk, header):
    # Chunks of a few bytes cut the rows at every place a chunk may end, so
    # each row meets the chunk pass, the row loop after it and the hand-off.
    for at, row in odd:
        rows.insert(at, row)
    raw = (header + line_end + line_end.join(rows)).encode()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "CSV_CHUNK_BYTES", chunk)
        assert _parse_outcome(sb.parse_csv, raw) == _parse_outcome(reference_parse_csv, raw)


@settings(max_examples=400)
@given(
    rows=st.lists(CSV_ROW, max_size=12),
    odd=st.lists(st.tuples(st.integers(0, 12), CSV_EDGE_ROW), max_size=3),
    line_end=st.sampled_from(["\n", "\r\n"]),
)
def test_row_loop_alone_matches_reference_loop(rows, odd, line_end):
    # With the chunk pass declining every chunk, each row, quoted or not,
    # goes through the row loop: its values, messages and line numbers.
    for at, row in odd:
        rows.insert(at, row)
    raw = ("timestamp,price" + line_end + line_end.join(rows)).encode()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "_convert_chunk", lambda chunk, stamps, prices: False)
        mp.setattr(sb.trace, "CSV_CHUNK_BYTES", 40)
        assert _parse_outcome(sb.parse_csv, raw) == _parse_outcome(reference_parse_csv, raw)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "at", "after"])
@pytest.mark.parametrize(
    "bad, message",
    [
        ("2020-01-01T00:00:00Z,abc", "unparseable price 'abc' at line {}"),
        ("2020-01-01T00:00:00Z,1,2", "expected 2 columns at line {}, got 3"),
        ("2020-01-01T00:00:00,1.5", "timestamp '2020-01-01T00:00:00' at line {} lacks a UTC offset"),
        # float() reads these two prices; csv words the rest of the first
        # error differently across Python versions
        ("2020-01-01T00:00:00Z,1.5\r ",
         "malformed CSV at line {}: new-line character seen in unquoted field"),
        ("2020-01-01T00:00:00Z,1.5" + " " * 131_072,
         "malformed CSV at line {}: field larger than field limit (131072)"),
    ],
    ids=["price", "columns", "naive", "lone-cr", "over-field-limit"],
)
def test_a_bad_row_at_a_chunk_cut_keeps_its_line_number(bad, message, offset):
    rows = [f"{sb.format_timestamp(1577836800 + 60 * i)},{1.5:.17f}" for i in range(3000)]
    head = "timestamp,price\n"
    raw = (head + "".join(row + "\n" for row in rows)).encode()
    # The first chunk after the header ends at the first line end at or past
    # CSV_CHUNK_BYTES from its start, and the second starts just after it.
    cut = raw.index(b"\n", len(head) + sb.trace.CSV_CHUNK_BYTES) + 1
    line = raw.count(b"\n", 0, cut) + 1 + offset  # the first line of the second chunk, + offset
    rows[line - 2] = bad
    raw = (head + "".join(row + "\n" for row in rows)).encode()
    result = _parse_outcome(sb.parse_csv, raw)
    assert result.startswith(f"DataError: {message.format(line)}")
    assert result == _parse_outcome(reference_parse_csv, raw)


@pytest.mark.parametrize("chunk", [1, sb.trace.CSV_CHUNK_BYTES])
@pytest.mark.parametrize("final", ["", "\n"], ids=["unended", "ended"])
@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_clean_csv_sends_only_its_header_to_the_row_loop(chunk, final, line_end):
    # Every chunk of a clean trace takes the chunk pass, a CRLF chunk too, and
    # no empty chunk follows a final line end.  With chunks of 1 byte each
    # line is a chunk, so the final line end is a cut.
    rows = [f"{sb.format_timestamp(1577836800 + 60 * i)},{1.5:.17f}" for i in range(1000)]
    raw = (line_end.join(["timestamp,price", *rows]) + final.replace("\n", line_end)).encode()
    read_rows, first_lines = sb.trace._read_rows, []

    def counted_read_rows(lines, line_no, stamps, prices):
        first_lines.append(line_no)
        read_rows(lines, line_no, stamps, prices)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "_read_rows", counted_read_rows)
        mp.setattr(sb.trace, "CSV_CHUNK_BYTES", chunk)
        assert sb.parse_csv(raw) == reference_parse_csv(raw)
    assert first_lines == [1]


def test_a_quote_hands_the_rest_to_the_row_loop_with_its_line_numbers():
    # A quoted stamp holding a line end in the second chunk: from there csv
    # counts physical lines and the row loop counts rows, as before.
    rows = [f"{sb.format_timestamp(1577836800 + 60 * i)},{1.5:.17f}" for i in range(3000)]
    rows[1000] = '"2020-01-01T00:00:00Z\n",1.5'
    rows[2000] = "2020-01-01T00:00:00Z,-1"
    raw = ("timestamp,price\n" + "".join(row + "\n" for row in rows)).encode()
    assert raw.index(b'"') > sb.trace.CSV_CHUNK_BYTES
    assert _parse_outcome(sb.parse_csv, raw) == (
        "DataError: negative price '-1' at line 2002"
    ) == _parse_outcome(reference_parse_csv, raw)
    rows[2000] = "2020-01-01T00:00:00Z,1.5\r2"
    raw = ("timestamp,price\n" + "".join(row + "\n" for row in rows)).encode()
    assert _parse_outcome(sb.parse_csv, raw).startswith(
        "DataError: malformed CSV at line 2003: new-line character"
    )
    assert _parse_outcome(sb.parse_csv, raw) == _parse_outcome(reference_parse_csv, raw)


CSV_ROWS = "timestamp,price\n2020-01-01T00:00:00Z,1.5\n2020-01-01T00:01:00Z,2.25\n"


@pytest.mark.parametrize("boms", [1, 2])
def test_parse_csv_bytes_skip_every_leading_bom(boms):
    # utf-8-sig would strip only the first BOM; every one goes, as for a str.
    text = "\ufeff" * boms + CSV_ROWS
    assert sb.parse_csv(text.encode()) == sb.parse_csv(text) == sb.parse_csv(CSV_ROWS)


def test_parse_csv_invalid_utf8_names_its_whole_input_position():
    # 1000 good lines of 41 bytes (the padded header and 999 rows), then a
    # byte that starts no UTF-8 sequence: the decode error counts from the
    # start of the input, not from the chunk being read.
    lines = ["timestamp,price".ljust(40)] + [
        f"{sb.format_timestamp(1577836800 + 60 * i)},{1.5:.17f}" for i in range(999)
    ]
    good = "".join(line + "\n" for line in lines).encode()
    assert len(good) == 41000
    with pytest.raises(sb.DataError, match="^input is not valid UTF-8: .*position 41000"):
        sb.parse_csv(good + b"\xff,1.5\n")


def test_parse_csv_invalid_utf8_wins_over_an_earlier_bad_header():
    with pytest.raises(sb.DataError, match="^input is not valid UTF-8"):
        sb.parse_csv(b"time,price\n2020-01-01T00:00:00Z,1.5\n\xff\n")


def test_parse_csv_cr_only_line_ends_are_one_malformed_line(tmp_path, capsys):
    raw = b"timestamp,price\r2020-01-01T00:00:00Z,1.5\r2020-01-01T00:01:00Z,2.5\r"
    with pytest.raises(sb.DataError, match="^malformed CSV at line 1: "):
        sb.parse_csv(raw)
    path = tmp_path / "cr.csv"
    path.write_bytes(raw)
    assert main(["ingest", "--trace", str(path)]) == 2
    assert "error: malformed CSV at line 1: " in capsys.readouterr().err


def test_parse_csv_peak_memory_stays_near_the_trace_it_keeps():
    # Rows are decoded a chunk at a time, so the rise of the peak above the
    # input stays below what the parse keeps plus one input size, the room
    # the whole-input UTF-8 check takes before any row is read.  An
    # io.StringIO of the decoded text holds 4 bytes per character: with it
    # the rise here was 5.9 MB against a 2.3 MB limit.
    rows = (
        f"{sb.format_timestamp(1577836800 + 60 * i)},{0.256 + (i % 997) / 997 * 2.3!r}\n"
        for i in range(20_000)
    )
    raw = ("timestamp,price\n" + "".join(rows)).encode()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = sb.parse_csv(raw)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert peak - base < (kept - base) + len(raw)


def _padded_strftime(ts: datetime) -> str:
    utc_ts = ts.astimezone(timezone.utc)
    return f"{utc_ts.year:04d}" + utc_ts.strftime("-%m-%dT%H:%M:%SZ")


@given(
    st.datetimes(
        min_value=datetime(1, 1, 2),
        max_value=datetime(9999, 12, 30),
        timezones=st.sampled_from(
            [timezone.utc, timezone(timedelta(0)), timezone(timedelta(hours=5))]
        ),
    )
)
@example(datetime(1, 1, 1, tzinfo=timezone.utc))
@example(datetime(999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc))
@example(datetime(1000, 1, 1, 4, 59, 59, tzinfo=timezone(timedelta(hours=5))))
@example(datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone(timedelta(0))))
def test_format_timestamp_matches_padded_strftime(ts):
    assert sb.format_timestamp(epoch_seconds(ts)) == _padded_strftime(ts)


FIRST_STAMP = epoch_seconds(datetime(1, 1, 1, tzinfo=timezone.utc))
LAST_STAMP = epoch_seconds(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc))


def _timedelta_format(stamp: int) -> str:
    return (UNIX_EPOCH + timedelta(seconds=stamp)).isoformat()[:19] + "Z"


@given(st.integers(min_value=FIRST_STAMP, max_value=LAST_STAMP))
@example(FIRST_STAMP)  # 0001-01-01T00:00:00Z
@example(LAST_STAMP)  # 9999-12-31T23:59:59Z
@example(-1)
@example(-86400)  # midnight before the epoch
@example(-86401)
@example(0)
@example(86399)
@example(epoch_seconds(datetime(1000, 1, 1, tzinfo=timezone.utc)))
def test_format_timestamp_matches_timedelta_formula(stamp):
    assert sb.format_timestamp(stamp) == _timedelta_format(stamp)


def test_format_timestamp_rejects_years_outside_1_to_9999():
    for stamp in (FIRST_STAMP - 1, LAST_STAMP + 1):
        with pytest.raises(ValueError):
            sb.format_timestamp(stamp)


def test_to_csv_stamps_across_day_and_year_boundaries():
    # Runs of stamps inside one day, then across midnights, the epoch and the
    # year 999/1000 boundary, where the cached date text must change.
    anchors = [
        datetime(999, 12, 31, 23, 59, 58, tzinfo=timezone.utc),
        datetime(1969, 12, 31, 23, 59, 59, tzinfo=timezone.utc),
        datetime(2020, 2, 28, 23, 0, 0, tzinfo=timezone.utc),
    ]
    stamps = tuple(
        epoch_seconds(anchor) + offset
        for anchor in anchors
        for offset in (0, 1, 2, 3, 3600, 86399, 86400, 86402)
    )
    trace = sb.PriceTrace(stamps, tuple(1.0 + i for i in range(len(stamps))))
    lines = sb.to_csv(trace).splitlines()
    assert lines[1:] == [
        f"{_timedelta_format(stamp)},{price!r}"
        for stamp, price in zip(stamps, trace.prices())
    ]
    assert lines[2:5] == [
        "0999-12-31T23:59:59Z,2.0",
        "1000-01-01T00:00:00Z,3.0",
        "1000-01-01T00:00:01Z,4.0",
    ]
    assert sb.parse_csv(sb.to_csv(trace)) == trace


def test_to_csv_holds_one_block_of_rows_beside_its_text():
    # 25k rows in blocks, one stamp a minute across day boundaries: the same
    # text as every row formatted at once, with a heap peak of about twice
    # its length; formatting every row at once peaked at 6.4 times.
    prices = tuple(0.3 + i % 997 / 1013 for i in range(25_000))
    trace = make_trace(prices)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = sb.to_csv(trace)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = map("{},{!r}".format, map(sb.format_timestamp, trace.stamps), prices)
    assert text == "\n".join(["timestamp,price", *rows]) + "\n"
    assert peak <= 3 * len(text)


BLOCK = sb.trace._CSV_BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_csv_blocks_are_to_csv_a_block_of_rows_at_a_time(rows):
    trace = make_trace(0.25 + i / 7 for i in range(rows))
    header, *blocks = sb.trace.csv_blocks(trace)
    assert header == "timestamp,price\n"
    full, rest = divmod(rows, BLOCK)
    assert [block.count("\n") for block in blocks] == [BLOCK] * full + [rest] * (rest > 0)
    assert all(block.endswith("\n") for block in blocks)
    lines = map("{},{!r}\n".format, map(sb.format_timestamp, trace.stamps), trace.prices())
    assert header + "".join(blocks) == sb.to_csv(trace) == header + "".join(lines)


def test_csv_blocks_of_an_empty_trace_is_the_header():
    assert list(sb.trace.csv_blocks(sb.PriceTrace((), ()))) == ["timestamp,price\n"]


def test_csv_round_trip_years_before_1000():
    trace = sb.PriceTrace(
        (
            epoch_seconds(datetime(1, 1, 1, tzinfo=timezone.utc)),
            epoch_seconds(datetime(999, 1, 1, tzinfo=timezone.utc)),
        ),
        (1.0, 1.5),
    )
    text = sb.to_csv(trace)
    assert text.splitlines()[1:] == ["0001-01-01T00:00:00Z,1.0", "0999-01-01T00:00:00Z,1.5"]
    assert sb.parse_csv(text) == trace


def test_csv_round_trip_fixture():
    raw = (FIXTURES / "stephold_1001.csv").read_bytes()
    once = sb.parse_csv(raw)
    again = sb.parse_csv(sb.to_csv(once).encode())
    assert once.points == again.points


@given(
    prices=st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    )
)
def test_csv_round_trip_random(prices):
    trace = make_trace(prices)
    assert sb.parse_csv(sb.to_csv(trace)).points == trace.points


def test_validate_identity(band):
    trace = make_trace([1.0, 1.1, 0.9])
    assert sb.validate(trace) is trace


def test_validate_errors():
    with pytest.raises(sb.DataError, match="empty"):
        sb.validate(sb.PriceTrace((), ()))
    start = epoch_seconds(EPOCH)
    dup = sb.PriceTrace((start, start), (1.0, 1.1))
    with pytest.raises(sb.DataError, match="indices 0 and 1"):
        sb.validate(dup)
    decreasing = sb.PriceTrace((start + 300, start), (1.0, 1.1))
    with pytest.raises(sb.DataError, match="non-increasing"):
        sb.validate(decreasing)
    with pytest.raises(sb.DataError, match="index 1"):
        sb.validate(make_trace([1.0, 0.0]))


def test_parse_aws_json_fixture_unfiltered():
    raw = (FIXTURES / "aws_5records.json").read_bytes()
    trace = sb.parse_aws_json(raw)
    assert len(trace) == 5  # empty filter preserves the record count
    stamps = [pt.timestamp for pt in trace.points]
    assert stamps == sorted(stamps)
    assert trace.instance_type == ""  # mixed labels collapse to empty


def test_parse_aws_json_fixture_filtered():
    raw = (FIXTURES / "aws_5records.json").read_bytes()
    trace = sb.parse_aws_json(
        raw,
        sb.TraceFilter(
            instance_type="g2.8xlarge", product="Linux/UNIX", zone="us-east-1b"
        ),
    )
    assert len(trace) == 2
    assert trace.prices() == (0.256, 0.300)  # sorted ascending by timestamp
    assert trace.instance_type == "g2.8xlarge"
    assert trace.zone == "us-east-1b"


def test_parse_aws_json_zero_after_filter():
    raw = (FIXTURES / "aws_5records.json").read_bytes()
    with pytest.raises(sb.DataError, match="zero records"):
        sb.parse_aws_json(raw, sb.TraceFilter(instance_type="m3.medium"))


def _record(ts, price="1.0", instance="g2.8xlarge", zone="us-east-1b"):
    return {
        "Timestamp": ts,
        "SpotPrice": price,
        "InstanceType": instance,
        "ProductDescription": "Linux/UNIX",
        "AvailabilityZone": zone,
    }


def test_parse_aws_json_tie_stability():
    import json

    records = [
        _record("2015-05-03T01:00:00Z", price="1.0", zone="us-east-1b"),
        _record("2015-05-03T01:00:00Z", price="2.0", zone="us-east-1c"),
        _record("2015-05-03T00:00:00Z", price="0.5"),
    ]
    trace = sb.parse_aws_json(json.dumps(records))
    assert trace.prices() == (0.5, 1.0, 2.0)  # sort stable on the tie


def test_parse_aws_json_errors():
    import json

    with pytest.raises(sb.DataError, match="invalid JSON"):
        sb.parse_aws_json(b"{nope")
    with pytest.raises(sb.DataError, match="SpotPriceHistory"):
        sb.parse_aws_json(b"{}")
    record = _record("2015-05-03T00:00:00Z")
    del record["SpotPrice"]
    with pytest.raises(sb.DataError, match="record 0 missing"):
        sb.parse_aws_json(json.dumps([record]))
    bad_price = dict(_record("2015-05-03T00:00:00Z"), SpotPrice=1.0)
    with pytest.raises(sb.DataError, match="quoted decimal"):
        sb.parse_aws_json(json.dumps([bad_price]))
    unparseable = dict(_record("2015-05-03T00:00:00Z"), SpotPrice="one")
    with pytest.raises(sb.DataError, match="unparseable price"):
        sb.parse_aws_json(json.dumps([unparseable]))


# A JSON integer longer than int() converts by default (4300 digits):
# json.loads raises a plain ValueError for it, not a JSONDecodeError.
LONG_INT = "1" + "0" * 5000


@pytest.mark.parametrize("field", ["SpotPrice", "InstanceType"])
def test_parse_aws_json_an_integer_over_the_digit_limit_is_invalid_json(field):
    raw = json.dumps([_record("2015-05-03T00:00:00Z")]).encode()
    raw = raw.replace(json.dumps(_record("")[field]).encode(), LONG_INT.encode(), 1)
    with pytest.raises(sb.DataError, match=r"^invalid JSON: Exceeds the limit \(4300 digits\)"):
        sb.parse_aws_json(raw)


def test_cli_an_integer_over_the_digit_limit_exits_2(tmp_path, capsys):
    doc = tmp_path / "history.json"
    doc.write_text(json.dumps([_record("2015-05-03T00:00:00Z", price="PRICE")])
                   .replace('"PRICE"', LONG_INT))
    assert main(["ingest", "--aws-json", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: Exceeds the limit (4300 digits)")


def reference_parse_aws_json(
    raw: bytes, trace_filter: sb.TraceFilter = sb.TraceFilter()
) -> sb.PriceTrace:
    """parse_aws_json as a plain loop that runs the record helpers on every record.

    It keeps the helpers' datetimes and converts them to seconds at the end.
    """
    doc = json.loads(raw)
    if isinstance(doc, dict):
        if doc.get("SpotPriceHistory") is None:
            raise sb.DataError("JSON object lacks a 'SpotPriceHistory' array")
        records = doc["SpotPriceHistory"]
    else:
        records = doc
    if not isinstance(records, list):
        raise sb.DataError("expected an array of spot-price records")
    kept = []
    for idx, rec in enumerate(records):
        where = f"record {idx}"
        if not isinstance(rec, dict):
            raise sb.DataError(f"{where} is not an object")
        for key in sb.trace._AWS_FIELDS:
            if key not in rec:
                raise sb.DataError(f"{where} missing required field {key!r}")
        spot = rec["SpotPrice"]
        if not isinstance(spot, str):
            raise sb.DataError(f"{where}: SpotPrice must be quoted decimal text")
        for key in sb.trace._AWS_FIELDS:
            if isinstance(rec[key], (dict, list)):
                raise sb.DataError(f"{where}: {key} must not be an object or array")
        ts = sb.trace._parse_timestamp(str(rec["Timestamp"]), where)
        price = sb.trace._parse_price(spot, where)
        instance_type = str(rec["InstanceType"])
        product = str(rec["ProductDescription"])
        zone = str(rec["AvailabilityZone"])
        if trace_filter.instance_type is not None and instance_type != trace_filter.instance_type:
            continue
        if trace_filter.product is not None and product != trace_filter.product:
            continue
        if trace_filter.zone is not None and zone != trace_filter.zone:
            continue
        kept.append((ts, price, instance_type, product, zone))
    if not kept:
        raise sb.DataError("zero records after filtering")

    def common(values):
        return values[0] if len(set(values)) == 1 else ""

    kept.sort(key=lambda item: item[0])
    return sb.PriceTrace(
        tuple(epoch_seconds(ts) for ts, *_ in kept),
        tuple(price for _, price, *_ in kept),
        instance_type=trace_filter.instance_type or common([item[2] for item in kept]),
        product=trace_filter.product or common([item[3] for item in kept]),
        zone=trace_filter.zone or common([item[4] for item in kept]),
    )


AWS_TZ = st.sampled_from(
    [timezone.utc, timezone(timedelta(hours=5)), timezone(-timedelta(hours=3, minutes=30))]
)
AWS_INSTANTS = st.datetimes(
    min_value=datetime(2020, 1, 1), max_value=datetime(2020, 1, 1, 3), timezones=AWS_TZ
)
# Stamps the parser accepts: any offset, "Z", "z", ".000Z", padded.
AWS_STAMPS = st.builds(
    lambda ts, utc_form, pad: pad + ts.replace(microsecond=0).isoformat().replace("+00:00", utc_form) + pad,
    AWS_INSTANTS,
    st.sampled_from(["Z", "z", ".000Z", "+00:00", "-00:00"]),
    st.sampled_from(["", "", " "]),
)
AWS_PRICES = st.floats(min_value=0, max_value=10).map(repr) | st.sampled_from(
    ["0", "-0.0", " 1.5 ", "1_0", "1E3"]
)
# Labels include an int, which the parser compares as str(5) == "5".
AWS_LABELS = {
    "InstanceType": ["g2.8xlarge", "g2.8xlarge", "m3.medium", 5],
    "ProductDescription": ["Linux/UNIX", "Linux/UNIX", "Windows", 5],
    "AvailabilityZone": ["us-east-1b", "us-east-1b", "us-east-1c", 5],
}
AWS_RECORD = st.fixed_dictionaries(
    {
        "Timestamp": AWS_STAMPS,
        "SpotPrice": AWS_PRICES,
        **{key: st.sampled_from(values) for key, values in AWS_LABELS.items()},
    }
)
# Values that make a record fail, or take the helpers and pass.
AWS_ODD_VALUES = [
    ("Timestamp", value)
    for value in [
        1577836800,
        None,
        "",
        "yesterday",
        "2020-01-01T00:00:00",
        "2020-01-01T00:00:00.500000Z",
        "2020-01-01T00:00:00.5Z",
        "0001-01-01T00:00:00+05:00",
        "9999-12-31T23:59:59-05:00",
        "20200101T000000Z",
        "2020-W01-3T00:00:00Z",
        {"Value": "2020-01-01T00:00:00Z"},
    ]
] + [
    ("SpotPrice", value)
    for value in [1.5, 2, None, "nan", "inf", "-inf", "-1", "abc", "1e400", ""]
] + [(key, value) for key in AWS_LABELS for value in [None, 2.5, True, ["x"], {}]]
AWS_ODD_RECORD = (
    st.sampled_from([[], "record", 1, None])
    | st.builds(
        lambda rec, drop: {key: value for key, value in rec.items() if key != drop},
        AWS_RECORD,
        st.sampled_from(sb.trace._AWS_FIELDS),
    )
    | st.builds(lambda rec, odd: {**rec, odd[0]: odd[1]}, AWS_RECORD, st.sampled_from(AWS_ODD_VALUES))
)
AWS_FILTERS = st.builds(
    sb.TraceFilter,
    instance_type=st.sampled_from([None, None, "g2.8xlarge", "5"]),
    product=st.sampled_from([None, None, "Linux/UNIX", "5"]),
    zone=st.sampled_from([None, None, "us-east-1b", "5"]),
)


def _aws_outcome(parse, raw, trace_filter):
    try:
        return repr(parse(raw, trace_filter))  # both columns and the three labels
    except sb.DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=400)
@given(
    records=st.lists(AWS_RECORD, max_size=8),
    odd=st.lists(st.tuples(st.integers(0, 8), AWS_ODD_RECORD), max_size=2),
    trace_filter=AWS_FILTERS,
    wrapped=st.booleans(),
)
@example(  # prices that float() reads but the parser rejects
    records=[_record("2020-01-01T00:00:00Z", price=" 1.5 "), _record("2020-01-01T00:00:01Z", price="inf")],
    odd=[],
    trace_filter=sb.TraceFilter(),
    wrapped=False,
)
@example(
    records=[_record("2020-01-01T00:00:00Z", price=" 1.5 "), _record("2020-01-01T00:00:01Z", price="-1")],
    odd=[],
    trace_filter=sb.TraceFilter(),
    wrapped=False,
)
@example(  # labels compared as str()
    records=[dict(_record(f"2020-01-01T0{hour}:00:00Z"), InstanceType=5) for hour in range(4)],
    odd=[],
    trace_filter=sb.TraceFilter(instance_type="5"),
    wrapped=True,
)
@example(
    records=[dict(_record("2020-01-01T00:00:00Z"), ProductDescription=5)],
    odd=[(1, dict(_record("2020-01-01T00:00:01Z"), AvailabilityZone=5))],
    trace_filter=sb.TraceFilter(product="5"),
    wrapped=True,
)
@example(
    records=[dict(_record("2020-01-01T00:00:00Z"), AvailabilityZone=5)],
    odd=[],
    trace_filter=sb.TraceFilter(),
    wrapped=True,
)
def test_parse_aws_json_matches_reference_loop(records, odd, trace_filter, wrapped):
    for at, rec in odd:
        records.insert(at, rec)
    raw = json.dumps({"SpotPriceHistory": records} if wrapped else records).encode()
    assert _aws_outcome(sb.parse_aws_json, raw, trace_filter) == _aws_outcome(
        reference_parse_aws_json, raw, trace_filter
    )


AWS_CLEAN = [
    _record("2020-01-01T00:02:00Z", price="1.5"),
    _record("2020-01-01T00:01:00Z", price="2.5", zone="us-east-1c"),
    _record("2020-01-01T00:00:00Z", price="0.5", instance="m3.medium"),
]
AWS_NESTED = _record("2020-01-01T00:03:00Z", price="9.5")


def _wrapped(records, **fields):
    return json.dumps({"SpotPriceHistory": records, **fields})


# Documents where an object that a record check accepts sits somewhere other
# than in the record array, or the array is not what it seems.
@pytest.mark.parametrize(
    "text",
    [
        json.dumps([*AWS_CLEAN, dict(AWS_CLEAN[0], Timestamp=AWS_NESTED)]),
        json.dumps([dict(AWS_CLEAN[0], InstanceType=AWS_NESTED)]),
        json.dumps([*AWS_CLEAN, dict(AWS_CLEAN[0], InstanceType=AWS_NESTED)]),
        json.dumps([dict(AWS_CLEAN[0], Extra=AWS_NESTED), *AWS_CLEAN[1:]]),
        _wrapped(AWS_CLEAN, **AWS_NESTED),
        _wrapped(AWS_CLEAN, **AWS_CLEAN[1]),
        json.dumps(AWS_NESTED),
        json.dumps(AWS_CLEAN[1]),
        _wrapped(AWS_NESTED),
        '{"SpotPriceHistory": [%s], "SpotPriceHistory": %s}'
        % (json.dumps(_record("yesterday")), json.dumps(AWS_CLEAN)),
        '{"SpotPriceHistory": %s, "SpotPriceHistory": [%s]}'
        % (json.dumps(AWS_CLEAN), json.dumps(_record("yesterday"))),
        json.dumps([*AWS_CLEAN, [AWS_NESTED]]),
        json.dumps([[]]),
        json.dumps([*AWS_CLEAN, dict(AWS_CLEAN[0], ProductDescription={})]),
        json.dumps([dict(AWS_CLEAN[0], AvailabilityZone=["us-east-1b"]), *AWS_CLEAN[1:]]),
    ],
    ids=[
        "record-as-timestamp", "record-as-instance-type", "record-as-instance-type-mixed",
        "record-under-extra-key", "wrapper-is-a-record", "wrapper-is-a-filtered-record",
        "lone-record", "lone-filtered-record", "record-as-array", "duplicate-array-key",
        "duplicate-array-key-last-bad", "list-holding-a-record", "list-holding-a-list",
        "object-as-product", "array-as-zone",
    ],
)
@pytest.mark.parametrize(
    "trace_filter", [sb.TraceFilter(), sb.TraceFilter(zone="us-east-1b")], ids=["all", "zone"]
)
def test_parse_aws_json_edge_documents_match_reference_loop(text, trace_filter):
    raw = text.encode()
    assert _aws_outcome(sb.parse_aws_json, raw, trace_filter) == _aws_outcome(
        reference_parse_aws_json, raw, trace_filter
    )


def _spy_on_decodes(monkeypatch):
    """Replace json as spotbid.trace sees it with a spy; the list it fills
    holds (hooked, raised) for each decode.  The piece walk is turned off,
    so every document takes the whole-document decode, which the spy counts."""
    calls = []

    def loads(*args, **kwargs):
        try:
            doc = json.loads(*args, **kwargs)
        except BaseException:
            calls.append(("object_hook" in kwargs, True))
            raise
        calls.append(("object_hook" in kwargs, False))
        return doc

    spy = SimpleNamespace(loads=loads, JSONDecodeError=json.JSONDecodeError)
    monkeypatch.setattr(sb.trace, "json", spy)
    monkeypatch.setattr(sb.trace, "_kept_in_shares", lambda read, size, check: None)
    return calls


# The hooked decode is the fast path; the text is decoded again, without the
# hook, only when that decode ran out of depth or yielded the top-level
# object as a checked record.  The hook never raises JSONDecodeError, so
# invalid JSON fails the hooked decode where and as the plain one would.
@pytest.mark.parametrize(
    "text, decodes",
    [
        (_wrapped(AWS_CLEAN), 1),
        (_wrapped([*AWS_CLEAN, _record(" 2020-01-01T00:03:00Z ")]), 1),  # helpers accept it
        (_wrapped([*AWS_CLEAN, _record("2020-01-01T00:03:00z")]), 1),
        (_wrapped([*AWS_CLEAN, dict(_record("2020-01-01T00:03:00Z"), InstanceType=5)]), 1),
        (_wrapped([*AWS_CLEAN, _record("yesterday")]), 1),
        (_wrapped([*AWS_CLEAN, dict(AWS_NESTED, InstanceType={"Name": "m3.large"})]), 1),
        (json.dumps(AWS_NESTED), 2),
        (_wrapped(AWS_CLEAN, **AWS_NESTED), 2),
        ('{"SpotPriceHistory": [', 1),
        ("", 1),
        ("{nope", 1),
        (_wrapped(AWS_CLEAN)[:-1], 1),  # the benchmark's document without its last }
        (_wrapped([*AWS_CLEAN, _record("yesterday")]) + " x", 1),
        ("[" + json.dumps(AWS_NESTED) + ",]", 1),
    ],
    ids=["clean", "padded-stamp", "z-stamp", "int-label", "bad-record", "object-label",
         "lone-record", "wrapper-is-a-record", "undecodable", "empty", "bare-word",
         "unclosed", "trailing-text", "trailing-comma"],
)
def test_parse_aws_json_decodes_again_only_off_the_fast_path(monkeypatch, text, decodes):
    calls = _spy_on_decodes(monkeypatch)
    raw = text.encode()
    try:
        expected = _aws_outcome(reference_parse_aws_json, raw, sb.TraceFilter())
    except json.JSONDecodeError as exc:
        expected = f"DataError: invalid JSON: {exc}"
    assert _aws_outcome(sb.parse_aws_json, raw, sb.TraceFilter()) == expected
    assert len(calls) == decodes
    assert [hooked for hooked, _ in calls] == [True, False][:decodes]


def test_parse_aws_json_checks_a_declined_record_inline_only_once(monkeypatch):
    # A "z" stamp fails the inline check during the hooked decode.  The pass
    # over the declined records hands it straight to the helpers, so each
    # stamp reaches fromisoformat twice (inline, then rewritten by
    # _parse_timestamp), not three times.
    seen = []

    def fromisoformat(text):
        seen.append(text)
        return datetime.fromisoformat(text)

    monkeypatch.setattr(sb.trace, "datetime", SimpleNamespace(fromisoformat=fromisoformat))
    stamps = [f"2020-01-01T00:0{minute}:00z" for minute in range(3)]
    trace = sb.parse_aws_json(_wrapped([*map(_record, stamps)]).encode())
    assert trace.stamps == tuple(1577836800 + 60 * minute for minute in range(3))
    assert seen == stamps + [stamp[:-1] + "+00:00" for stamp in stamps]


def _nested(depth):
    """A clean record at the bottom of depth nested arrays."""
    return ("[" * depth + json.dumps(AWS_CLEAN[0]) + "]" * depth).encode()


def _plain_decode(raw, trace_filter):
    """parse_aws_json on _nested(depth >= 2), told from the plain decode alone.

    Called through _aws_outcome, it decodes at the stack depth at which
    parse_aws_json decodes, so both reach the same recursion limit.
    """
    try:
        sb.trace.json.loads(raw)
    except RecursionError as exc:
        raise sb.DataError(f"invalid JSON: {exc}") from None
    raise sb.DataError("record 0 is not an object")


def test_parse_aws_json_nesting_at_the_recursion_limit_matches_the_plain_decode(monkeypatch):
    calls = _spy_on_decodes(monkeypatch)

    def outcome(parse, depth):
        calls.clear()
        return _aws_outcome(parse, _nested(depth), sb.TraceFilter()), list(calls)

    # The shallowest depth the plain decode cannot reach from here.
    low, high = 2, 1 << 18
    while low < high:
        mid = (low + high) // 2
        if "invalid JSON" in outcome(_plain_decode, mid)[0]:
            high = mid
        else:
            low = mid + 1
    boundary = []
    for depth in range(high - 30, high + 1):
        expected, _ = outcome(_plain_decode, depth)
        assert expected.startswith(("DataError: record 0", "DataError: invalid JSON"))
        actual, decodes = outcome(sb.parse_aws_json, depth)
        assert actual == expected, depth
        hooked_raised = decodes[0] == (True, True)
        assert len(decodes) == 1 + hooked_raised
        if hooked_raised and "record 0" in actual:
            boundary.append(depth)
    assert "invalid JSON" in actual and len(decodes) == 2
    if sys.version_info < (3, 12):
        # The hook's frame at the innermost record counts against the same
        # limit as the nesting, so the hooked decode fails a level or two
        # before the plain one; those depths are decoded twice.
        assert boundary


def _aws_history_bytes(stamp_suffix):
    """20k records of four markets, newest first, as the export lists them."""
    markets = [("c4.xlarge", "us-east-1a"), ("c4.xlarge", "us-east-1b"),
               ("g2.8xlarge", "us-east-1a"), ("g2.8xlarge", "us-east-1b")]
    history = [
        _record(
            sb.format_timestamp(1577836800 - 60 * i)[:-1] + stamp_suffix,
            price=f"{0.256 + (i % 997) / 997 * 2.3:.6f}",
            instance=markets[i % 4][0],
            zone=markets[i % 4][1],
        )
        for i in range(20_000)
    ]
    return _wrapped(history).encode()


def _traced_peak(function, *args):
    """The rise of the traced memory peak during function(*args), and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base, result


AWS_KEPT_MARKET = sb.TraceFilter(instance_type="g2.8xlarge", zone="us-east-1b")


def test_parse_aws_json_peak_memory_stays_near_the_input_size():
    # A clean document is checked record by record as it is decoded, so
    # only the text and the kept records are alive at once, not a dict per
    # record: the peak read 1.5 times the input size, and 4.0 times when the
    # whole document was decoded before any record was checked.
    raw = _aws_history_bytes(".000Z")
    peak, trace = _traced_peak(sb.parse_aws_json, raw, AWS_KEPT_MARKET)
    assert len(trace) == 5_000
    assert peak < 2.5 * len(raw)


def test_parse_aws_json_second_pass_peaks_as_one_whole_decode():
    # Every "z" stamp fails the inline check, so the decode keeps every
    # record as a dict, and the records are checked where it left them: the
    # peak stays near that of decoding the whole document once, plus the
    # kept records, and not two documents (about 7 times the input size).
    raw = _aws_history_bytes("z")
    whole, _ = _traced_peak(lambda: json.loads(raw.decode()))
    peak, trace = _traced_peak(sb.parse_aws_json, raw, AWS_KEPT_MARKET)
    assert len(trace) == 5_000
    assert peak < whole + 0.5 * len(raw)


def test_synth_deterministic(band):
    config = sb.SynthConfig(band=band, n_points=500, hold_steps_mean=3, step_scale=0.2, seed=7)
    assert sb.synth_step_hold(config) == sb.synth_step_hold(config)


def test_synth_band_membership(band):
    config = sb.SynthConfig(band=band, n_points=1000, hold_steps_mean=4, step_scale=0.3, seed=42)
    trace = sb.synth_step_hold(config)
    assert len(trace) == 1000
    assert all(band.floor <= p <= band.ceiling for p in trace.prices())
    assert sb.validate(trace) is trace


def test_synth_single_point(band):
    trace = sb.synth_step_hold(sb.SynthConfig(band=band, n_points=1, seed=0))
    assert len(trace) == 1
    assert band.floor <= trace.points[0].price <= band.ceiling


def test_synth_timestamps_minute_spaced(band):
    trace = sb.synth_step_hold(sb.SynthConfig(band=band, n_points=3, seed=1))
    stamps = trace.stamps
    assert stamps[0] == epoch_seconds(datetime(2020, 1, 1, tzinfo=timezone.utc))
    assert stamps[1] - stamps[0] == 60
    assert trace.instance_type == "synthetic"


def test_synth_config_validation(band):
    with pytest.raises(ValueError):
        sb.SynthConfig(band=band, n_points=0)
    with pytest.raises(ValueError):
        sb.SynthConfig(band=band, n_points=5, hold_steps_mean=0)
    with pytest.raises(ValueError):
        sb.SynthConfig(band=band, n_points=5, step_scale=0.0)
    with pytest.raises(ValueError):
        sb.SynthConfig(band=band, n_points=5, seed=-1)
    # holds up to 2**53 keep a nonzero geometric denominator and pass; the
    # CLI test covers the rejected range above it
    sb.synth_step_hold(sb.SynthConfig(band=band, n_points=5, hold_steps_mean=2**53))


def test_stored_prices_match_points(band):
    traces = [
        sb.parse_csv((FIXTURES / "stephold_1001.csv").read_bytes()),
        sb.parse_aws_json((FIXTURES / "aws_5records.json").read_bytes()),
        sb.synth_step_hold(
            sb.SynthConfig(band=band, n_points=300, hold_steps_mean=3, seed=5)
        ),
    ]
    for trace in traces:
        assert trace.prices() is trace.price_column
        assert all(type(stamp) is int for stamp in trace.stamps)
        assert all(type(price) is float for price in trace.prices())
        assert trace.points == tuple(zip(trace.stamps, trace.prices()))
        assert [(pt.timestamp, pt.price) for pt in trace.points] == list(
            zip(trace.stamps, trace.prices())
        )


def test_stored_prices_leave_identity_unchanged():
    trace = make_trace([1.0, 2.0, 1.5], zone="z")
    twin = make_trace([1.0, 2.0, 1.5], zone="z")
    assert trace == twin
    assert hash(trace) == hash(twin) == hash(
        (trace.stamps, trace.price_column, "", "", "z")
    )
    assert repr(trace) == (
        f"PriceTrace(stamps={trace.stamps!r}, price_column={trace.price_column!r}, "
        "instance_type='', product='', zone='z')"
    )
    assert trace != make_trace([1.0, 2.0, 1.25], zone="z")
    assert trace != make_trace([1.0, 2.0, 1.5], spacing_minutes=2, zone="z")
    assert trace != make_trace([1.0, 2.0, 1.5])


def test_replaced_trace_rebuilds_prices():
    trace = make_trace([1.0, 2.0, 1.5])
    moved = sb.PriceTrace(trace.stamps, trace.price_column, zone="x")
    assert moved.zone == "x"
    assert moved.prices() == (1.0, 2.0, 1.5)
    assert moved.stamps == trace.stamps
    shorter = sb.PriceTrace(trace.stamps[1:], trace.price_column[1:])
    assert shorter.prices() == (2.0, 1.5)
    assert len(shorter) == 2
