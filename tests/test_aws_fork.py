"""A large AWS document is decoded in shares across forked children.

Forked or serial, parse_aws_json gives the same trace or the same first
DataError and leaves no child process behind.  Each test fixes the number of
usable CPUs by replacing os.sched_getaffinity, and most lower
trace.FORK_MIN_BYTES to 1, so a small document is split as a large one is,
on a host with any number of CPUs.
"""
import errno
import json
import marshal
import os
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spotbid as sb
from conftest import cli_env, limit_address_space
from test_trace import AWS_FILTERS, AWS_ODD_RECORD, AWS_RECORD, _aws_outcome, _record

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
    result, forks, decoded = outcome(raw, 1, trace_filter)
    assert (forks, decoded) == (0, True)
    return result


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
    # record in the first array is never checked.
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
    assert decoded == (cut_in == "first")  # a cut in the first array is in doubt


@pytest.mark.parametrize(
    "records, fields",
    [(CLEAN, {"NextToken": "eyJ2IjoyfQ=="}),
     (CLEAN[:2], {"Archive": CLEAN[2:]})],
    ids=["next-token", "records-under-another-key"],
)
def test_a_key_after_the_record_array(records, fields):
    # The archived records hold the cut: the first share then decodes to an
    # object with two keys, and the last share to clean records.
    raw = document(records, **fields)
    if "Archive" in fields:
        assert raw.index(b'"Archive"') < sb.trace._AWS_CUT.search(raw, len(raw) // 2).start()
    result, decoded = _split_result(raw)
    assert result.startswith("PriceTrace(") and decoded


def test_a_record_holding_an_array_of_objects_at_the_cut():
    extra = [{"Key": f"tag{i}", "Value": "v"} for i in range(200)]
    raw = document([*CLEAN[:2], dict(CLEAN[2], Tags=extra), *CLEAN[3:4]])
    at = raw.index(b'"Tags"')
    assert at < sb.trace._AWS_CUT.search(raw, len(raw) // 2).start() < raw.index(b"tag199")
    result, decoded = _split_result(raw)
    assert result.startswith("PriceTrace(") and decoded


# A bad record at index 1 is in the first share, one at index 10 in the last.
@pytest.mark.parametrize(
    "bad, decoded",
    [([1], False), ([10], True), ([1, 10], True)],
    ids=["first-share", "later-share", "both"],
)
def test_a_bad_record_gives_the_first_serial_error(bad, decoded):
    records = list(CLEAN)
    for idx in bad:
        records[idx] = _record(f"yesterday{idx}")
    raw = document(records)
    assert [share_of(raw, f"yesterday{idx}".encode(), 2) for idx in bad] == [
        idx > 5 for idx in bad
    ]
    result, serial_ran = _split_result(raw)
    assert result == f"DataError: unparseable timestamp 'yesterday{bad[0]}' at record {bad[0]}"
    assert serial_ran == decoded


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
            os._exit(0)  # no bytes: marshal.loads cannot read them
        return marshal.dumps(value)

    raw = document(CLEAN)
    expected = serial(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.trace, "marshal", SimpleNamespace(dumps=dying_in_a_child,
                                                        loads=marshal.loads))
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


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS as Linux enforces it")
def test_out_of_memory_during_a_forked_ingest_is_a_data_error(tmp_path):
    # Every record has a "z" stamp, so the decode keeps each as a dict, and
    # 200 two-letter strings, about 10 bytes of heap per byte of input: the
    # 62 MB document is read whole and split, and each share outgrows the
    # 200 MB limit.
    record = json.dumps(dict(_record("2020-01-01T00:00:00z"), Extra=["ab"] * 200)).encode()
    doc = tmp_path / "history.json"
    doc.write_bytes(b'{"SpotPriceHistory": [' + b", ".join([record] * 45_000) + b"]}")
    proc = run_cli(2, ["ingest", "--aws-json", str(doc)],
                   preexec_fn=lambda: limit_address_space(200 << 20))
    assert (proc.returncode, proc.stderr) == (2, "error: out of memory while running ingest\n")
    assert proc.stdout == "[1, false]\n"
