"""A backtest with enough work splits its strategies across forked children.

Forked or serial, the backtest command writes the same bytes, raises the
same first error and leaves no child process behind.  Each test fixes the
number of usable CPUs by replacing os.sched_getaffinity, so it runs the same
on a host with any number of them.  The engine-level tests lower
engine.FORK_MIN_NS to 1, so that a short trace is split as a long
one is.
"""
import errno
import marshal
import math
import os
import signal
import struct
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spotbid as sb
from spotbid import engine, forking
from spotbid.cli import _bids_json, _report_pieces, main, render_report
from spotbid.strategies import STAT_KINDS
from conftest import FIXTURES, make_trace

BAND = sb.PriceBand(floor=0.256, ceiling=2.600)
BAND_ARGS = ["--floor", "0.256", "--ceiling", "2.600"]
STEPHOLD = sb.validate(sb.parse_csv((FIXTURES / "stephold_1001.csv").read_bytes()))
SIX = "feedback,minimum,mean,high,current,ondemand"
REPEATED = "feedback,mean,feedback,ondemand,current,ondemand,minimum"


@contextmanager
def usable_cpus(n, fork_min=None):
    """Report n usable CPUs, and fork from fork_min ns of work if given;
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
        if fork_min is not None:
            mp.setattr(engine, "FORK_MIN_NS", fork_min)
        yield forks


@contextmanager
def fork_forbidden():
    def fork():
        raise AssertionError("the backtest forked")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork)
        yield


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def long_trace(tmp_path_factory):
    """A 25k-point trace, as long as the benchmark's: above the fork
    threshold with bids and without."""
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    assert main(["synth", *BAND_ARGS, "--points", "25000", "--step-scale", "0.15",
                 "--seed", "1", "--out", str(path)]) == 0
    return str(path)


def report_bytes(tmp_path, argv):
    out = tmp_path / "report"
    out.unlink(missing_ok=True)
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "extra",
    [
        ["--strategies", SIX, "--include-bids"],
        ["--strategies", SIX, "--no-include-bids"],
        ["--strategies", SIX, "--include-bids", "--format", "csv"],
        ["--strategies", REPEATED, "--include-bids"],
        ["--strategies", REPEATED, "--mode", "fulltrace", "--include-bids"],
    ],
    ids=["json-bids", "json-no-bids", "csv", "repeated-kinds", "fulltrace"],
)
def test_any_number_of_cpus_writes_the_serial_bytes(tmp_path, long_trace, extra):
    argv = ["backtest", "--trace", long_trace, *BAND_ARGS, *extra]
    with usable_cpus(1) as forks:
        serial = report_bytes(tmp_path, argv)
    assert forks == []
    if REPEATED in extra:
        assert b'"name": "feedback#2"' in serial and b'"name": "ondemand#2"' in serial
    for cpus in (2, 3, 6):
        with usable_cpus(cpus) as forks:
            assert report_bytes(tmp_path, argv) == serial
        assert 1 <= len(forks) <= cpus - 1
        assert_no_child_left()


def test_the_benchmark_backtest_forks_one_child_on_two_cpus(tmp_path, long_trace):
    # This process keeps the four cheapest strategies; mean and feedback go
    # to the child.
    parent, run_strategy, here = os.getpid(), engine.run_strategy, []

    def noted_here(spec, trace, band):
        if os.getpid() == parent:
            here.append(spec.kind.value)
        return run_strategy(spec, trace, band)

    argv = ["backtest", "--trace", long_trace, *BAND_ARGS, "--include-bids"]
    with usable_cpus(2) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "run_strategy", noted_here)
        report_bytes(tmp_path, argv)
    assert len(forks) == 1
    assert sorted(here) == ["current", "high", "minimum", "ondemand"]
    assert_no_child_left()


def test_a_forked_report_keeps_its_texts_in_pieces_of_at_most_64_kib(long_trace):
    trace = sb.validate(sb.parse_csv(Path(long_trace).read_bytes()))
    specs = [stat(kind) for kind in list(sb.StrategyKind)[1:]] + [feedback()]
    text = lambda bids: _bids_json(bids, 3)
    with usable_cpus(2) as forks:
        report = engine.backtest_text(trace, specs, BAND, text)
    assert len(forks) == 1
    assert_no_child_left()
    serial = sb.backtest(trace, specs, BAND)
    for kept, result in zip(report.results, serial.results):
        assert max(map(len, kept.series.bids)) <= 65_536
        assert "".join(kept.series.bids) == "".join(text(result.series.bids))


def test_a_two_point_trace_never_forks(tmp_path):
    trace = tmp_path / "two.csv"
    trace.write_text(
        "timestamp,price\n2020-01-01T00:00:00Z,0.5\n2020-01-01T00:01:00Z,0.6\n"
    )
    with usable_cpus(64), fork_forbidden():
        report_bytes(tmp_path, ["backtest", "--trace", str(trace), *BAND_ARGS,
                                "--strategies", REPEATED, "--include-bids"])


def test_plot_data_keeps_the_backtest_in_this_process(tmp_path, long_trace):
    argv = ["backtest", "--trace", long_trace, *BAND_ARGS, "--include-bids"]
    with usable_cpus(1):
        serial = report_bytes(tmp_path, argv)
    with usable_cpus(64), fork_forbidden():
        plotted = report_bytes(tmp_path, [*argv, "--plot-dir", str(tmp_path / "plots")])
    assert plotted == serial
    assert len(os.listdir(tmp_path / "plots")) == 7  # six trajectories and a comparison


def feedback(pre=0.0, kp=10.0):
    return sb.StrategySpec(kind=sb.StrategyKind.FEEDBACK, gains=sb.PiGains(kp=-kp, ki=-kp),
                           adjustments=sb.Adjustments(pre_delta=pre))


def stat(kind, mode=sb.StatMode.CAUSAL, post=0.0):
    return sb.StrategySpec(kind=kind, adjustments=sb.Adjustments(post_delta=post),
                           stat_mode=mode if kind in STAT_KINDS else None)


def text_report(trace, specs, with_bids=True):
    """backtest_text's JSON report and CSV summary, or its DataError's message."""
    text = (lambda bids: _bids_json(bids, 3)) if with_bids else None
    try:
        report = engine.backtest_text(trace, specs, BAND, text, config_echo={"k": 1})
    except sb.DataError as exc:
        return str(exc)
    texts = [r.series.bids for r in report.results] if with_bids else None
    return ["".join(_report_pieces(report, fmt, texts)) for fmt in ("json", "csv")]


def serial_report(trace, specs, with_bids=True):
    """The same through engine.backtest, which never forks."""
    try:
        report = sb.backtest(trace, specs, BAND, config_echo={"k": 1})
    except sb.DataError as exc:
        return str(exc)
    return [render_report(report, fmt, with_bids) for fmt in ("json", "csv")]


SPECS = st.one_of(
    st.builds(feedback, pre=st.sampled_from([0.0, 0.01, -0.02]),
              kp=st.sampled_from([1.0, 10.0, 100.0])),
    st.builds(stat, kind=st.sampled_from(list(sb.StrategyKind)[1:]),  # all but feedback
              mode=st.sampled_from(list(sb.StatMode)), post=st.sampled_from([0.0, 0.05])),
)


@settings(max_examples=30, deadline=None)
@given(specs=st.lists(SPECS, min_size=1, max_size=9), cpus=st.integers(1, 6),
       with_bids=st.booleans())
def test_backtest_text_reports_what_backtest_does(specs, cpus, with_bids):
    with usable_cpus(cpus, fork_min=1) as forks:
        forked = text_report(STEPHOLD, specs, with_bids)
    assert forked == serial_report(STEPHOLD, specs, with_bids)
    assert len(forks) <= min(cpus, len(specs)) - 1
    assert_no_child_left()


def _serial_message(trace, specs):
    with usable_cpus(1, fork_min=1) as forks, pytest.raises(sb.DataError) as info:
        engine.backtest_text(trace, specs, BAND, None)
    assert forks == []
    return str(info.value)


# pre_delta 5 or 4 puts step 1's error outside the proportional band; the two
# messages differ in the error they quote.
FAILING = [
    # Only the child's feedback fails; this process takes the cheap ondemand.
    (2, [stat(sb.StrategyKind.ONDEMAND), feedback(pre=5.0)], 1),
    # This process's share, the first feedback, fails; so does the child's.
    (2, [feedback(pre=5.0), feedback(pre=4.0)], 1),
    # Both feedbacks fail, each in a child; the costliest-first deal puts
    # spec 2 in the first child share, but spec 1 fails first serially.
    (3, [stat(sb.StrategyKind.ONDEMAND), feedback(pre=4.0), feedback(pre=5.0),
         stat(sb.StrategyKind.MEAN)], 2),
]


@pytest.mark.parametrize("cpus, specs, children", FAILING)
def test_a_data_error_in_any_share_is_the_first_serial_one(cpus, specs, children):
    serial = _serial_message(STEPHOLD, specs)
    assert "outside proportional band" in serial
    with usable_cpus(cpus, fork_min=1) as forks, pytest.raises(sb.DataError) as info:
        engine.backtest_text(STEPHOLD, specs, BAND, None)
    assert len(forks) == children
    assert str(info.value) == serial
    assert_no_child_left()


def test_an_error_in_this_process_yields_to_an_earlier_one_in_a_child():
    # The child's feedback (spec 0) fails in its share while this process's
    # share, the cheap minimum (spec 1), fails with an error of its own: the
    # serial run meets spec 0 first, so its message wins.
    specs = [feedback(pre=5.0), stat(sb.StrategyKind.MINIMUM)]
    run_strategy = engine.run_strategy

    def minimum_fails(spec, trace, band):
        if spec.kind is sb.StrategyKind.MINIMUM:
            raise sb.DataError("minimum fails")
        return run_strategy(spec, trace, band)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "run_strategy", minimum_fails)
        serial = _serial_message(STEPHOLD, specs)
        with usable_cpus(2, fork_min=1) as forks, pytest.raises(sb.DataError) as info:
            engine.backtest_text(STEPHOLD, specs, BAND, None)
    assert "outside proportional band" in serial
    assert len(forks) == 1
    assert str(info.value) == serial
    assert_no_child_left()


def test_a_zero_distance_error_names_the_serial_strategy():
    # Every price is the ceiling, so ondemand alone tracks the trace exactly;
    # it runs in this process, and mean and feedback run in children.
    trace = make_trace([BAND.ceiling] * 50)
    specs = [stat(kind) for kind in (sb.StrategyKind.CURRENT, sb.StrategyKind.MEAN,
                                     sb.StrategyKind.ONDEMAND, sb.StrategyKind.HIGH)]
    specs.append(feedback())
    serial = _serial_message(trace, specs)
    assert serial.startswith("strategy 'ondemand' has zero distance")
    for cpus in (2, 3, 5):
        with usable_cpus(cpus, fork_min=1) as forks, pytest.raises(sb.DataError) as info:
            engine.backtest_text(trace, specs, BAND, None)
        assert forks
        assert str(info.value) == serial
        assert_no_child_left()


@pytest.mark.parametrize("death", ["killed", "exits 0 unwritten"])
def test_a_child_that_dies_leaves_the_serial_bytes(tmp_path, long_trace, death):
    parent, run_strategy = os.getpid(), engine.run_strategy

    def dying_in_a_child(spec, trace, band):
        if os.getpid() != parent:
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)  # no bytes
        return run_strategy(spec, trace, band)

    argv = ["backtest", "--trace", long_trace, *BAND_ARGS, "--include-bids"]
    with usable_cpus(1):
        serial = report_bytes(tmp_path, argv)
    with usable_cpus(3) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "run_strategy", dying_in_a_child)
        assert report_bytes(tmp_path, argv) == serial
    assert len(forks) == 2
    assert_no_child_left()


def test_a_fork_that_fails_leaves_the_serial_bytes(tmp_path, long_trace):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    argv = ["backtest", "--trace", long_trace, *BAND_ARGS, "--include-bids"]
    with usable_cpus(1):
        serial = report_bytes(tmp_path, argv)
    with usable_cpus(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_fork)
        assert report_bytes(tmp_path, argv) == serial


def test_a_pipe_that_fails_leaves_the_serial_bytes(tmp_path, long_trace):
    # No child starts: each share is scored here instead.
    pipes = []

    def no_pipe():
        pipes.append(None)
        raise OSError(errno.EMFILE, "Too many open files")

    argv = ["backtest", "--trace", long_trace, *BAND_ARGS, "--include-bids"]
    with usable_cpus(1):
        serial = report_bytes(tmp_path, argv)
    with usable_cpus(3) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "pipe", no_pipe)
        assert report_bytes(tmp_path, argv) == serial
    assert (len(pipes), forks) == (2, [])


@pytest.mark.parametrize("death", ["exits 0 unwritten", "killed"])
def test_a_child_without_its_bytes_hands_back_none(death):
    def task():
        if death == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(0)

    assert forking.run_shares([lambda: "here", task, lambda: b"sent"]) == [
        "here", None, b"sent"
    ]
    assert_no_child_left()


def test_a_value_marshal_cannot_write_hands_back_none():
    unwritable = lambda: sb.MetricsSummary(1.0, 2.0)  # a named tuple
    assert forking.run_shares([lambda: "here", unwritable, lambda: b"sent"]) == [
        "here", None, b"sent"
    ]
    assert_no_child_left()


def test_a_value_cut_short_hands_back_none():
    cut_short = lambda value: marshal.dumps(value)[:-3]  # run in the child
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forking, "marshal", SimpleNamespace(dumps=cut_short, load=marshal.load))
        assert forking.run_shares([lambda: "here", lambda: [(1.0, 2.0, ("text",))]]) == [
            "here", None
        ]
    assert_no_child_left()


def test_floats_and_texts_come_back_bit_for_bit():
    payload_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0]
    sent = [(-0.0, 5e-324, ("a" * 70_000, "b")), (math.nan, payload_nan, ()), (1.0, 0.1, ("",))]
    _, back = forking.run_shares([lambda: None, lambda: sent])
    bits = lambda rows: [(struct.pack("<2d", x, y), pieces) for x, y, pieces in rows]
    assert bits(back) == bits(sent)
    assert_no_child_left()
