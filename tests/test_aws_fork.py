"""An AWS document is decoded a piece at a time, however small, and a large
one in shares across forked children; a document of one piece takes the
same walk, not the whole-document decode.

In pieces, in shares or whole, from bytes or from a file, parse_aws_json
gives the same trace or the same first DataError and leaves no child
process behind.  Each test fixes the number of usable CPUs by replacing
os.sched_getaffinity, and most lower trace.FORK_MIN_BYTES to 1, so a small
document is split as a large one is, on a host with any number of CPUs; the
piece tests lower trace.AWS_PIECE_BYTES too, and the file tests
trace._CUT_WINDOW_BYTES.  The reference is the whole-document decode, and
for the order of the kept stamps also a stable index sort written here.
"""
import contextlib
import errno
import json
import marshal
import os
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from array import array
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spotbid as sb
from conftest import cli_env, limit_address_space
from test_trace import (
    AWS_FILTERS, AWS_LABELS, AWS_ODD_RECORD, AWS_RECORD, LONG_INT, _aws_outcome, _record,
)

ALL = sb.TraceFilter()
MARKETS = [("c4.xlarge", "us-east-1a"), ("c4.xlarge", "us-east-1b"),
           ("g2.8xlarge", "us-east-1a"), ("g2.8xlarge", "us-east-1b")]
# Twelve clean records of four markets, newest first, as the export lists them.
CLEAN = [
    _record(sb.format_timestamp(1577836800 - 60 * i), price=f"{0.3 + i / 10:.6f}",
            instance=MARKETS[i % 4][0], zone=MARKETS[i % 4][1])
    for i in range(12)
]
LAYOUTS = {
    "default": {},
    "compact": {"separators": (",", ":")},
    "indented": {"indent": 2},
    "tabs": {"indent": "\t"},
}


@contextmanager
def usable_cpus(n, fork_min=1):
    """Report n usable CPUs and split documents of fork_min bytes or more;
    yield the list of the pids forked."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)  # only this process's list is read
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        mp.setattr(os, "fork", counted_fork)
        mp.setattr(sb.trace, "FORK_MIN_BYTES", fork_min)
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(raw, cpus, trace_filter=ALL):
    """(the parse's outcome, the number of forks, whether the serial decode
    ran) with cpus usable CPUs."""
    decodes, decode = [], sb.trace._decode
    with usable_cpus(cpus) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "_decode", lambda raw: decodes.append(1) or decode(raw))
        result = _aws_outcome(sb.parse_aws_json, raw, trace_filter)
    assert_no_child_left()
    return result, len(forks), bool(decodes)


def serial(raw, trace_filter=ALL):
    """The outcome of the whole-document decode, forced here: every document
    that opens as an AWS record array, of one piece or of many, is otherwise
    decoded in pieces."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "_kept_in_shares", lambda read, size, check: None)
        result, forks, decoded = outcome(raw, 1, trace_filter)
    assert (forks, decoded) == (0, True)
    return result


@contextmanager
def piece_bytes(size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "AWS_PIECE_BYTES", size)
        yield


def document(records, wrapped=True, layout="default", **fields):
    doc = {"SpotPriceHistory": records, **fields} if wrapped else records
    return json.dumps(doc, **LAYOUTS[layout]).encode()


def share_of(raw, needle, shares):
    """The share of raw that holds needle, cut as parse_aws_json cuts it."""
    at, start, cuts = raw.index(needle), 0, []
    for k in range(1, shares):
        cut = sb.trace._AWS_CUT.search(raw, max(len(raw) * k // shares, start))
        cuts.append(cut.start())
        start = cut.end() - 1
    return sum(cut <= at for cut in cuts)


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(AWS_RECORD, min_size=1, max_size=10),
    odd=st.lists(st.tuples(st.integers(0, 10), AWS_ODD_RECORD), max_size=2),
    trace_filter=AWS_FILTERS,
    wrapped=st.booleans(),
    layout=st.sampled_from(sorted(LAYOUTS)),
    cpus=st.integers(2, 3),
)
def test_forked_parse_matches_the_serial_parse(records, odd, trace_filter, wrapped, layout, cpus):
    for at, rec in odd:
        records.insert(at, rec)
    raw = document(records, wrapped, layout)
    assert outcome(raw, cpus, trace_filter)[0] == serial(raw, trace_filter)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("wrapped", [True, False], ids=["object", "array"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_clean_document_is_decoded_in_shares(layout, wrapped, cpus):
    raw = document(CLEAN, wrapped, layout)
    expected = serial(raw)
    assert expected.startswith("PriceTrace(")
    assert outcome(raw, cpus) == (expected, cpus - 1, False)
    kept = sb.TraceFilter(instance_type="g2.8xlarge", zone="us-east-1b")
    assert outcome(raw, cpus, kept) == (serial(raw, kept), cpus - 1, False)


def priced(records):
    """records, each priced by its position, so that the order of ties shows."""
    return [dict(rec, SpotPrice=f"{i}.25") for i, rec in enumerate(records)]


# Stamps of two instants in forms the inline check reads and in forms it
# declines (padded, "z"), so that ties cross pieces and shares.
TIED_STAMPS = ["2020-01-01T00:00:00Z", "2020-01-01T00:00:00z", " 2020-01-01T00:01:00Z",
               "2020-01-01T05:01:00+05:00", "2020-01-01T00:00:00.000Z"]
TIED_RECORD = st.fixed_dictionaries(
    {"Timestamp": st.sampled_from(TIED_STAMPS),
     **{key: st.sampled_from(values) for key, values in AWS_LABELS.items()}}
)
# Twelve records of four markets on those stamps; one has a number for a label.
PIECED = priced([_record(TIED_STAMPS[i % 5], instance=MARKETS[i % 4][0], zone=MARKETS[i % 4][1])
                 for i in range(12)])
PIECED[9]["ProductDescription"] = 5


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(TIED_RECORD, min_size=1, max_size=12),
    odd=st.lists(st.tuples(st.integers(0, 12), AWS_ODD_RECORD), max_size=2),
    trace_filter=AWS_FILTERS,
    wrapped=st.booleans(),
    layout=st.sampled_from(sorted(LAYOUTS)),
    cpus=st.integers(1, 3),
    size=st.just(1) | st.integers(1, 600),
)
def test_a_parse_in_pieces_matches_the_whole_document_decode(
    records, odd, trace_filter, wrapped, layout, cpus, size
):
    records = priced(records)
    for at, rec in odd:
        records.insert(at, rec)
    raw = document(records, wrapped, layout)
    with piece_bytes(size):
        assert outcome(raw, cpus, trace_filter)[0] == serial(raw, trace_filter)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("wrapped", [True, False], ids=["object", "array"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_document_is_decoded_a_record_a_piece(layout, wrapped, cpus):
    raw = document(PIECED, wrapped, layout)
    with piece_bytes(1):
        for trace_filter in (ALL, sb.TraceFilter(instance_type="g2.8xlarge")):
            expected = serial(raw, trace_filter)
            assert expected.startswith("PriceTrace(")
            assert outcome(raw, cpus, trace_filter) == (expected, cpus - 1, False)


@pytest.mark.parametrize("source", ["bytes", "file"])
@pytest.mark.parametrize("wrapped", [True, False], ids=["object", "array"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_small_document_takes_the_piece_walk(layout, wrapped, source):
    # A document under one piece is decoded as a large one is, by the walk:
    # the whole-document decode, whose _decode the outcome counts, never runs.
    raw = document(PIECED, wrapped, layout)
    assert len(raw) < sb.trace.AWS_PIECE_BYTES
    parse = file_outcome if source == "file" else outcome
    for trace_filter in (ALL, sb.TraceFilter(instance_type="g2.8xlarge")):
        expected = serial(raw, trace_filter)
        assert expected.startswith("PriceTrace(")
        assert parse(raw, 1, trace_filter) == (expected, 0, False)


@pytest.mark.parametrize("source", ["bytes", "file"])
@pytest.mark.parametrize(
    "text, message, in_doubt",
    [
        ('{"SpotPriceHistory": []}', "zero records after filtering", True),
        ("[", "invalid JSON: Expecting value: line 1 column 2 (char 1)", True),
        ('{"SpotPriceHistory": [', "invalid JSON: Expecting value: line 1 column 23 (char 22)",
         True),
        (json.dumps([*CLEAN[:2], _record("yesterday"), *CLEAN[3:]]),
         "unparseable timestamp 'yesterday' at record 2", False),
    ],
    ids=["empty-array", "opener-alone", "object-opener-alone", "bad-record"],
)
def test_a_small_document_keeps_the_whole_decode_messages(text, message, in_doubt, source):
    # An empty record array and a document that ends after its "[" are in
    # doubt; a bad record is named by the walk, with the same message.
    raw = text.encode()
    parse = file_outcome if source == "file" else outcome
    expected = f"DataError: {message}"
    assert serial(raw) == expected
    assert parse(raw, 1) == (expected, 0, in_doubt)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_the_members_after_the_record_array_end_the_document(layout, cpus):
    # A SpotPriceHistory key inside another member is not one of the object's.
    raw = document(PIECED, layout=layout, NextToken="eyJ2IjoyfQ==",
                   Meta={"SpotPriceHistory": [], "Count": 12})
    with piece_bytes(1):
        expected = serial(raw)
        assert expected.startswith("PriceTrace(")
        assert outcome(raw, cpus) == (expected, cpus - 1, False)


WRAPPED_PIECED = '{"SpotPriceHistory": ' + json.dumps(PIECED)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "text",
    [
        WRAPPED_PIECED + ', "SpotPriceHistory": %s}' % json.dumps(CLEAN[:3]),
        WRAPPED_PIECED + ', "SpotPrice\\u0048istory": []}',
        WRAPPED_PIECED + ', "NextToken": }',
        WRAPPED_PIECED + ", }",
        WRAPPED_PIECED + ', "NextToken": "x"',
        WRAPPED_PIECED + ', "NextToken": "x"} x',
        WRAPPED_PIECED + "}}",
        WRAPPED_PIECED + ', "Deep": %s}' % ("[" * 100_000 + "]" * 100_000),
        WRAPPED_PIECED + ', "Count": %s}' % LONG_INT,
        json.dumps(PIECED) + "}",
        json.dumps(PIECED) + ", []",
        json.dumps(PIECED).replace("[", "[, ", 1),
        WRAPPED_PIECED.replace("[", "[, ", 1) + "}",
        json.dumps(PIECED).replace("[", "[ , ", 1),
    ],
    ids=["records-again", "escaped-records-again", "undecodable", "trailing-comma",
         "unclosed", "trailing-text", "closed-twice", "nesting-too-deep", "digit-limit",
         "array-closed-as-object", "array-then-text", "comma-after-array-opener",
         "comma-after-object-opener", "blank-first-piece"],
)
def test_a_document_in_doubt_after_its_pieces_is_decoded_whole(text, cpus):
    # A long tail holds the middle of the document, where no share is cut.
    raw = text.encode()
    with piece_bytes(1):
        result, _, decoded = outcome(raw, cpus)
        assert (result, decoded) == (serial(raw), True)


def test_a_kept_record_holds_the_labels_the_filter_fixes():
    # The filter's own strings, not equal copies from the document; checked
    # inline and through the helpers.
    kept = sb.TraceFilter(instance_type="g2.8xlarge", zone="us-east-1b")
    check = sb.trace._record_check(kept)
    z_stamp = dict(CLEAN[3], Timestamp=CLEAN[3]["Timestamp"][:-1] + "z")
    for rec, idx in ((CLEAN[3], None), (CLEAN[3], 3), (z_stamp, 3)):
        _, _, instance_type, product, zone = check(json.loads(json.dumps(rec)), idx)
        assert instance_type is kept.instance_type and zone is kept.zone
        assert product == "Linux/UNIX"


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_parse_holds_a_fraction_of_the_document(cpus):
    # tracemalloc counts this process's allocations only; with 2 CPUs a
    # child decodes the second share.  Decoded whole, this document peaked
    # at 1.54 times its size, and at 1.00 in two shares; in pieces of
    # 64 KiB, at 0.24 and 0.22 (Python 3.11.7).
    records = [
        _record(sb.format_timestamp(1577836800 - 60 * i), price=f"{0.3 + i % 97 / 50:.6f}",
                instance=MARKETS[i % 4][0], zone=MARKETS[i % 4][1])
        for i in range(12_500)
    ]
    raw = document(records)
    assert 1_900_000 < len(raw) < 2_200_000
    kept = sb.TraceFilter(instance_type="g2.8xlarge", zone="us-east-1b")
    with usable_cpus(cpus, sb.trace.FORK_MIN_BYTES) as forks:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = sb.parse_aws_json(raw, kept)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert_no_child_left()
    assert (len(forks), len(trace)) == (cpus - 1, 3_125)
    assert peak < len(raw) / 2


@contextmanager
def cut_window(size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "_CUT_WINDOW_BYTES", size)
        yield


@contextmanager
def regular_file(raw):
    """A regular file holding raw, open for reading and writing."""
    with tempfile.TemporaryFile() as file:
        file.write(raw)
        file.flush()
        yield file


def file_outcome(raw, cpus, trace_filter=ALL):
    """outcome() of the parse of a regular file holding raw."""
    with regular_file(raw) as file:
        return outcome(file, cpus, trace_filter)


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(TIED_RECORD, min_size=1, max_size=12),
    odd=st.lists(st.tuples(st.integers(0, 12), AWS_ODD_RECORD), max_size=2),
    trace_filter=AWS_FILTERS,
    wrapped=st.booleans(),
    token=st.booleans(),
    layout=st.sampled_from(sorted(LAYOUTS)),
    cpus=st.integers(1, 3),
    size=st.just(1) | st.integers(1, 600),
    window=st.integers(1, 40),
)
def test_a_file_parses_as_its_bytes_and_as_the_whole_document_decode(
    records, odd, trace_filter, wrapped, token, layout, cpus, size, window
):
    # Windows of a few bytes end inside the "," + whitespace + "{" of a cut,
    # which the indented and tab layouts space out over several bytes.
    records = priced(records)
    for at, rec in odd:
        records.insert(at, rec)
    tail = {"NextToken": "eyJ2IjoyfQ=="} if token else {}
    raw = document(records, wrapped, layout, **tail)
    expected = serial(raw, trace_filter)
    with piece_bytes(size), cut_window(window):
        from_bytes = outcome(raw, cpus, trace_filter)
        assert from_bytes[0] == expected
        assert file_outcome(raw, cpus, trace_filter) == from_bytes


@settings(max_examples=300, deadline=None)
@given(
    layout=st.sampled_from(sorted(LAYOUTS)),
    wrapped=st.booleans(),
    spaces=st.sampled_from([0, 1, 50]),
    window=st.integers(1, 12),
    data=st.data(),
)
def test_a_cut_is_found_across_read_windows(layout, wrapped, spaces, window, data):
    # The first cut at or past pos that ends by end, as the regular
    # expression finds it in the whole document; spaces pads the first cut.
    raw = document(PIECED, wrapped, layout)
    raw = sb.trace._AWS_CUT.sub(b"," + b" " * spaces + b"{", raw, count=1)
    pos = data.draw(st.integers(0, len(raw)))
    end = data.draw(st.integers(pos, len(raw)))
    match = sb.trace._AWS_CUT.search(raw, pos, end)
    with cut_window(window):
        found = sb.trace._next_cut(lambda offset, count: raw[offset:offset + count], pos, end)
    assert found == (match and match.start())


@contextmanager
def wrapped_pread(before):
    """Replace os.pread, in this process and in each child forked after,
    by one that first calls before(fd, count, offset, calls), calls counting
    the reads this process made until then."""
    pread, calls = os.pread, []

    def wrapper(fd, count, offset):
        before(fd, count, offset, len(calls))
        calls.append(offset)
        return pread(fd, count, offset)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "pread", wrapper)
        yield


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("reads", [0, 5])
@pytest.mark.parametrize("length", ["empty", "a third", "at a cut", "one byte short"])
def test_a_file_cut_short_during_the_parse(length, reads, cpus):
    # Cut after its size was taken and after reads reads: whichever decode
    # runs, its outcome is that of the whole document or of what is left,
    # which is never a whole document here, so a data error.
    raw = document(PIECED, layout="indented")
    at = {"empty": 0, "a third": len(raw) // 3, "one byte short": len(raw) - 1,
          "at a cut": sb.trace._AWS_CUT.search(raw, len(raw) // 2).start()}[length]

    def truncate(fd, count, offset, calls):
        if calls >= reads:
            os.ftruncate(fd, at)

    with piece_bytes(1), regular_file(raw) as file, wrapped_pread(truncate):
        result, _, _ = outcome(file, cpus)
    assert result in (serial(raw), serial(raw[:at]))
    assert result.startswith("DataError: ")


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("reads", [0, 5])
def test_a_file_grown_during_the_parse(reads, cpus):
    # The document ends at the size the parse took: what is written after
    # it, even text that would make the whole file invalid, is not read.
    raw = document(PIECED, layout="tabs")

    def append(fd, count, offset, calls):
        if calls == reads:
            os.pwrite(fd, b', "x"]', os.fstat(fd).st_size)

    with piece_bytes(1), regular_file(raw) as file, wrapped_pread(append):
        assert outcome(file, cpus) == (serial(raw), cpus - 1, False)
        assert file.seek(0, os.SEEK_END) > len(raw)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_piece_read_short_between_two_records_is_in_doubt(cpus):
    # A read comes back short where the file was cut during the parse, and
    # a piece cut between two records still decodes.  When it is the last
    # piece of this process's share and a child read its share before the
    # cut, no later read finds the file short, so the records after the cut
    # would be lost.  Here that one read is short and the file stays whole.
    raw = document(PIECED)
    first = raw.index(b"[") + 1  # where this process's share starts
    pread = sb.trace._pread

    def short_read(fd, offset, count):
        data = pread(fd, offset, count)
        return data[:data.rindex(b", {")] if offset == first else data

    with regular_file(raw) as file, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "_pread", short_read)
        assert outcome(file, cpus) == (serial(raw), cpus - 1, True)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bom", [False, True], ids=["pieces", "whole"])
def test_a_file_read_a_few_bytes_a_call(bom, cpus):
    # A read may give less than it was asked for before the end of the
    # file, as one os.pread does past about 2 GiB; the parse asks again,
    # in pieces and in the whole-document decode a byte order mark forces.
    pread = os.pread
    raw = b"\xef\xbb\xbf" * bom + document(PIECED, layout="indented")
    with regular_file(raw) as file, piece_bytes(1), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "pread", lambda fd, count, offset: pread(fd, min(count, 7), offset))
        assert outcome(file, cpus) == (serial(raw), 0 if bom else cpus - 1, bom)


def failing_read(when):
    def before(fd, count, offset, calls):
        if when(offset, count):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
    return before


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("where", ["everywhere", "last record"])
def test_a_read_that_fails_is_a_data_error_naming_the_file(tmp_path, capsys, where, cpus):
    # A read of the last record fails in the child that decodes it with 2
    # CPUs, and again in this process, which then reads the whole file.  The
    # record lies past the bytes read to find the opener.
    raw = document([_record(sb.format_timestamp(1577836800 - 60 * i)) for i in range(60)])
    assert raw.rindex(b"SpotPrice") > sb.trace._HEAD_BYTES
    path = tmp_path / "history.json"
    path.write_bytes(raw)
    bad = raw.rindex(b"SpotPrice")
    when = {"everywhere": lambda offset, count: True,
            "last record": lambda offset, count: offset <= bad < offset + count}[where]
    with piece_bytes(1), cut_window(16), usable_cpus(cpus) as forks, \
            wrapped_pread(failing_read(when)):
        code = sb.cli.main(["ingest", "--aws-json", str(path)])
    assert_no_child_left()
    assert (code, capsys.readouterr().err) == (
        2, f"error: cannot read {path}: [Errno 5] Input/output error\n")
    assert len(forks) == (cpus - 1 if where == "last record" else 0)


def test_a_read_that_fails_in_a_child_only_has_the_document_decoded_here():
    parent = os.getpid()
    raw = document(PIECED)
    in_a_child = failing_read(lambda offset, count: os.getpid() != parent)
    with piece_bytes(1), regular_file(raw) as file, wrapped_pread(in_a_child):
        assert outcome(file, 3) == (serial(raw), 2, True)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_file_parse_holds_no_more_for_a_larger_document(cpus):
    # Two documents keep the same 3,125 records; the larger one pads them
    # with 37,500 records of a market the filter drops.  Read from a file,
    # neither is ever held whole, so both peak alike: at 0.26 to 0.31 MB
    # with 1 and 2 CPUs (Python 3.11.7).
    kept = sb.TraceFilter(instance_type="g2.8xlarge", zone="us-east-1b")
    records = [
        _record(sb.format_timestamp(1577836800 - 60 * i), price=f"{0.3 + i % 97 / 50:.6f}",
                instance=MARKETS[i % 4][0], zone=MARKETS[i % 4][1])
        for i in range(12_500)
    ]
    dropped = [_record(sb.format_timestamp(1577836800 - 60 * i), instance="m3.medium")
               for i in range(37_500)]
    small, large = document(records), document(records + dropped)
    assert 1_900_000 < len(small) < 2_200_000 and len(large) > 7_500_000
    traces = []
    for raw in (small, large):
        with regular_file(raw) as file, usable_cpus(cpus, sb.trace.FORK_MIN_BYTES) as forks:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                traces.append(sb.parse_aws_json(file, kept))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert_no_child_left()
        assert len(forks) == cpus - 1
        assert peak < 1_000_000, (len(raw), peak)
    assert traces[0] == traces[1] and len(traces[0]) == 3_125


# ------------------------------------------------ the order of the kept stamps

T0 = 1577836800
KEEP = sb.TraceFilter(instance_type="g2.8xlarge", zone="us-east-1b")
# The kept stamps in input order: orders a stable sort leaves as they are or
# reverses exactly, and orders it must sort.
ORDERS = {
    "decreasing": [T0 - 60 * i for i in range(12)],
    "increasing": [T0 + 60 * i for i in range(12)],
    "one-record": [T0],
    "ties-increasing": [T0, T0, T0 + 60, T0 + 120, T0 + 120, T0 + 180],
    "all-tied": [T0] * 6,
    "ties-decreasing": [T0 + 180, T0 + 120, T0 + 120, T0 + 60, T0, T0],
    "one-out-of-order": [T0 - 60 * i for i in (0, 1, 2, 3, 4, 6, 5, 7, 8, 9, 10, 11)],
}
SORTED_ORDERS = {"decreasing", "increasing", "one-record", "ties-increasing", "all-tied"}
# How the document is decoded: (usable CPUs, piece bytes or None for the
# default, whether it is read from a regular file, whether the
# whole-document decode is forced).
WAYS = {
    "whole-document": (1, None, False, True),
    "pieces": (1, 1, False, False),
    "shares": (2, None, False, False),
    "shares-in-pieces": (3, 1, False, False),
    "file-in-pieces": (1, 1, True, False),
    "file-in-shares": (2, 1, True, False),
}


def ordered_document(stamps):
    """Records of the kept market at stamps, each priced by its position so
    that the order of ties shows, each followed by a record the filter
    drops at a stamp that breaks any order."""
    records = []
    for i, stamp in enumerate(stamps):
        records.append(_record(sb.format_timestamp(stamp), price=f"{i}.25"))
        records.append(_record(sb.format_timestamp(T0 + (-1) ** i * 86400), instance="c4.xlarge"))
    return document(records)


def index_sorted(stamps):
    """The trace of ordered_document(stamps), by a stable index sort."""
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    return sb.PriceTrace(tuple(stamps[i] for i in order), tuple(i + 0.25 for i in order),
                         "g2.8xlarge", "Linux/UNIX", "us-east-1b")


def parse_way(raw, way):
    """parse_aws_json(raw) decoded the way WAYS names, and the number of
    sorts it ran."""
    cpus, size, in_file, whole = WAYS[way]
    sorts = []

    def counted_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    with contextlib.ExitStack() as stack:
        stack.enter_context(usable_cpus(cpus))
        stack.enter_context(piece_bytes(size or sb.trace.AWS_PIECE_BYTES))
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        mp.setattr(sb.trace, "sorted", counted_sorted, raising=False)
        if whole:
            mp.setattr(sb.trace, "_kept_in_shares", lambda read, size, check: None)
        source = stack.enter_context(regular_file(raw)) if in_file else raw
        trace = sb.parse_aws_json(source, KEEP)
    assert_no_child_left()
    return trace, len(sorts)


@pytest.mark.parametrize("way", sorted(WAYS))
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_the_kept_order_gives_the_index_sort_trace(order, way):
    stamps = ORDERS[order]
    trace, sorts = parse_way(ordered_document(stamps), way)
    assert trace == index_sorted(stamps)
    assert type(trace.stamps) is array and trace.stamps.typecode == "q"
    assert type(trace.price_column) is tuple
    assert sorts == (order not in SORTED_ORDERS)


@settings(max_examples=200, deadline=None)
@given(
    stamps=st.lists(st.sampled_from([T0 - 60, T0, T0 + 60]), min_size=1, max_size=12),
    arrange=st.sampled_from(["input", "sorted", "reversed"]),
    way=st.sampled_from(sorted(WAYS)),
)
def test_any_kept_order_gives_the_index_sort_trace(stamps, arrange, way):
    if arrange != "input":
        stamps = sorted(stamps, reverse=arrange == "reversed")
    assert parse_way(ordered_document(stamps), way)[0] == index_sorted(stamps)


@pytest.mark.parametrize("order", ["decreasing", "increasing"])
def test_a_sorted_file_parse_peaks_near_its_trace(order):
    # 20,000 kept records of 40,000, one CPU.  The index sort copied both
    # columns into lists beside an index list, so the parse peaked at 1.97
    # times the trace it kept; in order or reversed, the columns go straight
    # to the trace's tuples, and it peaks at 1.11 (Python 3.11.7).
    step = -60 if order == "decreasing" else 60
    records = []
    for i in range(20_000):
        stamp = sb.format_timestamp(T0 + step * i)
        records += [_record(stamp, price=f"{0.3 + i % 97 / 50:.6f}"),
                    _record(stamp, instance="c4.xlarge")]
    with regular_file(document(records)) as file, usable_cpus(1):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = sb.parse_aws_json(file, KEEP)
            kept, peak = (value - base for value in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    assert len(trace) == 20_000
    assert peak < 1.3 * kept, (kept, peak)


def _split_result(raw, cpus=2):
    """The forked parse's outcome, which must be the serial one; and
    whether the serial decode ran after the split."""
    expected = serial(raw)
    result, forks, decoded = outcome(raw, cpus)
    assert (result, forks) == (expected, cpus - 1)
    return result, decoded


def test_a_label_holding_a_record_boundary_across_the_cut():
    # The first "," + "{" past the middle lies inside the label, so the
    # first share ends in an unterminated string.
    label = "x" * 3000 + '}, {"Timestamp": "2020-01-01T00:09:00Z", "SpotPrice": "1.0"'
    raw = document([*CLEAN[:3], dict(CLEAN[3], InstanceType=label), *CLEAN[4:6]])
    at = raw.index(b"x" * 3000)
    cut = sb.trace._AWS_CUT.search(raw, len(raw) // 2).start()
    assert at < cut < at + len(json.dumps(label))
    assert _split_result(raw)[1]


@pytest.mark.parametrize("cut_in", ["first", "second"])
def test_duplicate_record_arrays(cut_in):
    # The last SpotPriceHistory key wins, as in the serial decode; the bad
    # record in the first array is never checked.  A second key is in doubt
    # wherever the cut falls: in the first array the last share's tail holds
    # it, in the second the first share's piece does not decode.
    first, second = [_record("yesterday"), *CLEAN[:2]], CLEAN[2:]
    if cut_in == "first":
        first, second = first + CLEAN[2:], CLEAN[:2]
    text = '{"SpotPriceHistory": %s, "SpotPriceHistory": %s}' % (
        json.dumps(first), json.dumps(second))
    raw = text.encode()
    in_second = len(raw) // 2 > raw.rindex(b"SpotPriceHistory")
    assert in_second == (cut_in == "second")
    result, decoded = _split_result(raw)
    assert result.startswith("PriceTrace(")
    assert decoded


@pytest.mark.parametrize(
    "records, fields",
    [(CLEAN, {"NextToken": "eyJ2IjoyfQ=="}),
     (CLEAN[:2], {"Archive": CLEAN[2:]})],
    ids=["next-token", "records-under-another-key"],
)
def test_a_key_after_the_record_array(records, fields):
    # The last share's tail holds the other members of the object, which is
    # its end.  The archived records hold the cut: the first share's piece
    # then holds the end of the record array, which is in doubt.
    raw = document(records, **fields)
    archived = "Archive" in fields
    if archived:
        assert raw.index(b'"Archive"') < sb.trace._AWS_CUT.search(raw, len(raw) // 2).start()
    result, decoded = _split_result(raw)
    assert result.startswith("PriceTrace(") and decoded == archived


def test_a_record_holding_an_array_of_objects_at_the_cut():
    extra = [{"Key": f"tag{i}", "Value": "v"} for i in range(200)]
    raw = document([*CLEAN[:2], dict(CLEAN[2], Tags=extra), *CLEAN[3:4]])
    at = raw.index(b'"Tags"')
    assert at < sb.trace._AWS_CUT.search(raw, len(raw) // 2).start() < raw.index(b"tag199")
    result, decoded = _split_result(raw)
    assert result.startswith("PriceTrace(") and decoded


# A bad record at index 1 is in the first share, one at index 10 in the last.
# A child sends its first bad record back, so no case decodes again.
@pytest.mark.parametrize("bad", [[1], [10], [1, 10]], ids=["first-share", "later-share", "both"])
def test_a_bad_record_gives_the_first_serial_error(bad):
    records = list(CLEAN)
    for idx in bad:
        records[idx] = _record(f"yesterday{idx}")
    raw = document(records)
    assert [share_of(raw, f"yesterday{idx}".encode(), 2) for idx in bad] == [
        idx > 5 for idx in bad
    ]
    result, serial_ran = _split_result(raw)
    assert result == f"DataError: unparseable timestamp 'yesterday{bad[0]}' at record {bad[0]}"
    assert not serial_ran


@pytest.mark.parametrize("bad", [[10], [6, 10]], ids=["last-share", "middle-and-last"])
def test_a_child_names_its_bad_record_by_its_index_in_the_document(bad):
    # A record held in a label is a tuple once the hook has checked it, and
    # a child sends it back in the bad record as it is.
    records = list(CLEAN)
    for idx in bad:
        records[idx] = dict(CLEAN[idx], InstanceType=dict(CLEAN[0], SpotPrice=f"7.{idx}"))
    raw = document(records)
    assert [share_of(raw, f'"7.{idx}"'.encode(), 3) for idx in bad] == [
        1 + (idx > 6) for idx in bad
    ]
    result, serial_ran = _split_result(raw, cpus=3)
    assert result == f"DataError: record {bad[0]}: InstanceType must not be an object or array"
    assert not serial_ran


@pytest.mark.parametrize("share", [0, 1, 2])
def test_invalid_json_in_any_share(share):
    idx = [1, 6, 10][share]
    raw = document(CLEAN).replace(json.dumps(CLEAN[idx]["SpotPrice"]).encode(), b"nope")
    assert share_of(raw, b"nope", 3) == share
    result, decoded = _split_result(raw, cpus=3)
    assert result.startswith("DataError: invalid JSON: Expecting value") and decoded


def test_invalid_json_after_a_bad_record_in_the_first_share():
    # The serial decode fails on the JSON before any record is checked.
    records = [*CLEAN[:1], _record("yesterday"), *CLEAN[2:]]
    raw = document(records).replace(json.dumps(CLEAN[10]["SpotPrice"]).encode(), b"nope")
    assert (share_of(raw, b"yesterday", 2), share_of(raw, b"nope", 2)) == (0, 1)
    result, decoded = _split_result(raw)
    assert result.startswith("DataError: invalid JSON: Expecting value") and decoded


def test_an_integer_over_the_digit_limit_in_a_later_share_at_the_real_threshold():
    # json.loads raises a plain ValueError in the child's share; the split
    # falls back to the serial decode, which words it as invalid JSON.
    records = [_record(sb.format_timestamp(1577836800 - 60 * i), price=f"{0.3 + i % 97 / 50:.6f}")
               for i in range(8_000)]
    records[-1]["SpotPrice"] = "PRICE"
    raw = document(records).replace(b'"PRICE"', LONG_INT.encode())
    assert len(raw) >= sb.trace.FORK_MIN_BYTES
    assert share_of(raw, LONG_INT.encode(), 2) == 1
    decodes, decode = [], sb.trace._decode
    with usable_cpus(2, sb.trace.FORK_MIN_BYTES) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "_decode", lambda raw: decodes.append(1) or decode(raw))
        result = _aws_outcome(sb.parse_aws_json, raw, ALL)
    assert_no_child_left()
    assert (len(forks), len(decodes)) == (1, 1)
    assert result.startswith("DataError: invalid JSON: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("share", [0, 1, 2])
def test_nesting_too_deep_in_any_share(share):
    # Each record carries a 200 KB string, so a cut falls between records;
    # one carries arrays nested deeper than any decoder reaches instead.
    deep = 100_000
    records = [dict(rec, Extra="x" * (2 * deep)) for rec in CLEAN]
    records[[0, 6, 11][share]]["Extra"] = "DEEP"
    raw = document(records).replace(b'"DEEP"', b"[" * deep + b"]" * deep)
    assert share_of(raw, b"[" * deep, 3) == share
    result, decoded = _split_result(raw, cpus=3)
    assert result.startswith("DataError: invalid JSON: maximum recursion depth") and decoded


@pytest.mark.parametrize("share", [0, 1, 2])
def test_invalid_utf8_in_any_share(share):
    idx = [1, 6, 10][share]
    raw = document(CLEAN).replace(CLEAN[idx]["SpotPrice"].encode(), b"\xff1.0", 1)
    assert share_of(raw, b"\xff", 3) == share
    result, decoded = _split_result(raw, cpus=3)
    assert result.startswith("DataError: input is not valid UTF-8") and decoded


def test_a_byte_order_mark_keeps_the_decode_serial():
    raw = b"\xef\xbb\xbf" + document(CLEAN)
    assert outcome(raw, 2) == (serial(raw), 0, True)


@pytest.mark.parametrize("death", ["killed", "exits 0 unwritten"])
def test_a_child_that_dies_has_its_share_decoded_here(death):
    parent = os.getpid()

    def dying_in_a_child(value):
        if os.getpid() != parent:
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)  # no bytes: marshal.load cannot read them
        return marshal.dumps(value)

    raw = document(CLEAN)
    expected = serial(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.forking, "marshal", SimpleNamespace(dumps=dying_in_a_child,
                                                          load=marshal.load))
        assert outcome(raw, 3) == (expected, 2, True)


def test_a_fork_that_fails_has_its_share_decoded_here():
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    raw = document(CLEAN)
    expected = serial(raw)
    with usable_cpus(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_fork)
        assert _aws_outcome(sb.parse_aws_json, raw, ALL) == expected


def test_the_threshold_is_fork_min_bytes():
    raw = document(CLEAN)
    for fork_min, forked in ((len(raw) + 1, 0), (len(raw), 1)):
        with usable_cpus(2, fork_min) as forks:
            sb.parse_aws_json(raw)
        assert len(forks) == forked
    # Each share holds at least half the threshold: at most two shares here.
    with usable_cpus(64, len(raw)) as forks:
        sb.parse_aws_json(raw)
    assert len(forks) == 1


@contextmanager
def fork_forbidden():
    def fork():
        raise AssertionError("the decode forked")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork)
        yield


def test_one_usable_cpu_never_forks():
    with usable_cpus(1), fork_forbidden():
        sb.parse_aws_json(document(CLEAN))


def test_a_second_thread_keeps_the_decode_serial():
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with usable_cpus(4), fork_forbidden():
            sb.parse_aws_json(document(CLEAN))
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# The CLI in a process of its own, with the usable CPUs fixed; after the
# run it prints the number of forks and whether a child was left to reap.
CLI_WITH_CPUS = """\
import json, os, sys
from spotbid.cli import main
cpus, argv = json.loads(sys.argv[1])
os.sched_getaffinity = lambda pid: set(range(cpus))
forks, fork = [], os.fork
def counted_fork():
    pid = fork()
    forks.append(pid)
    return pid
os.fork = counted_fork
code = main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps([len(forks), left]))
sys.exit(code)
"""


def run_cli(cpus, argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-c", CLI_WITH_CPUS, json.dumps([cpus, argv])],
        capture_output=True, text=True, env=cli_env(), timeout=120, **kwargs,
    )


def test_cli_forked_ingest_writes_the_serial_bytes(tmp_path):
    # 8,000 records, about 1.3 MB: above the real threshold.
    records = [
        _record(sb.format_timestamp(1577836800 - 60 * i), price=f"{0.3 + i % 97 / 50:.6f}",
                instance=MARKETS[i % 4][0], zone=MARKETS[i % 4][1])
        for i in range(8_000)
    ]
    doc = tmp_path / "history.json"
    doc.write_bytes(document(records))
    assert os.path.getsize(doc) >= sb.trace.FORK_MIN_BYTES
    outputs = []
    for cpus, forks in ((2, 1), (1, 0)):
        out = tmp_path / f"ingest{cpus}.csv"
        proc = run_cli(cpus, ["ingest", "--aws-json", str(doc), "--instance-type",
                              "g2.8xlarge", "--zone", "us-east-1b", "--out", str(out)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"[{forks}, false]\n", "")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 2_001


# Copies the file argv[1] to argv[2], a FIFO, whose open waits for a reader.
COPY = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_ingests_a_pipe_to_the_bytes_of_the_file(tmp_path, cpus):
    # A pipe cannot be read at an offset: standard input and a FIFO are read
    # whole, then decoded in shares from the bytes as a file is from disk.
    records = [
        _record(sb.format_timestamp(1577836800 - 60 * i), price=f"{0.3 + i % 97 / 50:.6f}",
                instance=MARKETS[i % 4][0], zone=MARKETS[i % 4][1])
        for i in range(8_000)
    ]
    doc = tmp_path / "history.json"
    doc.write_bytes(document(records, layout="indented"))
    assert os.path.getsize(doc) >= sb.trace.FORK_MIN_BYTES
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen([sys.executable, "-c", COPY, str(doc), str(fifo)])
    outputs = []
    try:
        for source, stdin in ((doc, None), ("/dev/stdin", doc.read_text()), (fifo, None)):
            out = tmp_path / f"ingest{len(outputs)}.csv"
            proc = run_cli(cpus, ["ingest", "--aws-json", str(source), "--zone", "us-east-1b",
                                  "--out", str(out)], input=stdin)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"[{cpus - 1}, false]\n", "")
            outputs.append(out.read_bytes())
        assert writer.wait(timeout=60) == 0
    finally:
        writer.kill()
        writer.wait()
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") == 4_001


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS as Linux enforces it")
def test_out_of_memory_during_a_forked_ingest_is_a_data_error(tmp_path):
    # Two records of five million two-letter strings each, about 10 bytes of
    # heap per byte of input: the 62 MB document is split between them, and
    # a piece holds a whole record, so each share outgrows the 200 MB limit
    # although the file is never read whole.
    records = [json.dumps(dict(_record("2020-01-01T00:00:00z"), Extra=["ab"] * count)).encode()
               for count in (5_500_000, 4_800_000)]
    doc = tmp_path / "history.json"
    doc.write_bytes(b'{"SpotPriceHistory": [' + b", ".join(records) + b"]}")
    assert os.path.getsize(doc) // 2 < len(records[0])  # the share cut lies between them
    proc = run_cli(2, ["ingest", "--aws-json", str(doc)],
                   preexec_fn=lambda: limit_address_space(200 << 20))
    assert (proc.returncode, proc.stderr) == (2, "error: out of memory while running ingest\n")
    assert proc.stdout == "[1, false]\n"
