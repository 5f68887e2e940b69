"""A sweep with enough cell-steps splits its cells across forked children.

Forked or serial, it renders the same bytes, raises the same first
DataError, and leaves no child process behind.  Each test fixes the number
of usable CPUs by replacing os.sched_getaffinity, so it runs the same on a
host with any number of them.
"""
import errno
import json
import os
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spotbid as sb
from spotbid import engine
from spotbid.cli import main, render_sweep
from conftest import FIXTURES, cli_env

TRACE = FIXTURES / "stephold_1001.csv"
STEPHOLD = sb.validate(sb.parse_csv(TRACE.read_bytes()))
BAND = sb.PriceBand(floor=0.256, ceiling=2.600)
BAND_ARGS = ["--floor", "0.256", "--ceiling", "2.600"]
GAINS = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
README_GRID = ",".join(map(str, GAINS))


@contextmanager
def usable_cpus(n):
    """Report n usable CPUs to the sweep; yield the list of the pids it forks."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)  # only this process's list is read
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        mp.setattr(os, "fork", counted_fork)
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def renders(points):
    return [render_sweep(points, BAND, {}, fmt) for fmt in ("json", "csv")]


def outcome(config):
    """The sweep's JSON and CSV bytes, or the message of its DataError."""
    try:
        return renders(sb.sweep(STEPHOLD, config))
    except sb.DataError as exc:
        return str(exc)


def readme_config(**deltas):
    return sb.SweepConfig(BAND, GAINS, GAINS, **deltas)


MAGNITUDES = st.lists(st.sampled_from(GAINS), min_size=3, max_size=6)
DELTAS = st.lists(st.sampled_from([-0.05, 0.0, 0.01, 0.02]), min_size=1, max_size=3)


@settings(max_examples=25, deadline=None)
@given(kp=MAGNITUDES, ki=MAGNITUDES, pre=DELTAS, post=DELTAS, cpus=st.integers(2, 4))
@example(kp=[1.0, 2.0, 5.0], ki=[1.0, 2.0, 5.0], pre=[0.0, 0.01, -0.05], post=[0.0], cpus=2)
@example(kp=[1.0, 2.0, 2.0, 5.0, 10.0, 20.0], ki=[1.0, 1.0, 5.0, 10.0, 50.0],
         pre=[0.0], post=[0.02], cpus=3)
@example(kp=[0.5, 1.0, 100.0], ki=[0.5, 0.5, 1.0], pre=[-0.05, 0.0], post=[-0.05, 0.0], cpus=2)
def test_forked_sweep_renders_the_serial_bytes(kp, ki, pre, post, cpus):
    config = sb.SweepConfig(BAND, kp, ki, pre, post)
    cells = len(set(kp)) * len(set(ki)) * len(set(pre)) * len(set(post))
    assume(cells * len(STEPHOLD) >= engine.FORK_MIN_CELL_STEPS)
    shares = min(cpus, cells, 2 * cells * len(STEPHOLD) // engine.FORK_MIN_CELL_STEPS)
    # A large kp can leave the proportional band; then the DataError must match.
    with usable_cpus(1) as forks:
        serial = outcome(config)
    assert forks == []
    with usable_cpus(cpus) as forks:
        assert outcome(config) == serial
    assert len(forks) == shares - 1 >= 1
    assert_no_child_left()


def test_the_readme_grid_forks_one_child_per_extra_cpu():
    with usable_cpus(1):
        serial = renders(sb.sweep(STEPHOLD, readme_config()))
    for cpus in (2, 3, 64):
        with usable_cpus(cpus) as forks:
            assert renders(sb.sweep(STEPHOLD, readme_config())) == serial
        # 64 cells of 1001 steps make 6 shares of at least half the threshold.
        assert len(forks) == min(cpus, 6) - 1
        assert_no_child_left()


def _message_of(pre):
    config = sb.SweepConfig(BAND, (10.0,), (10.0,), (pre,))
    with pytest.raises(sb.DataError) as info:  # one cell: never forks
        sb.sweep(STEPHOLD, config)
    return str(info.value)


# One gain pair and 22 to 30 pre-deltas, in cell order.  A pre-delta of 3 or
# more puts the first error outside the proportional band.  (cpus, the
# pre-deltas, the first failing one):
#   - two shares of 11 cells; only the child's last cell fails;
#   - two shares; the first cell (this process's share) and the last fail;
#   - three shares of 10 cells; the last 5 of the middle share fail, and
#     every cell of the last share.
FAILING_GRIDS = [
    (2, [i / 100 for i in range(21)] + [5.0], 5.0),
    (2, [-5.0] + [i / 100 for i in range(20)] + [5.0], -5.0),
    (3, [i / 100 for i in range(15)] + [3 + i / 10 for i in range(15)], 3.0),
]


@pytest.mark.parametrize("cpus, pre, first", FAILING_GRIDS)
def test_a_data_error_in_any_share_is_the_first_serial_one(cpus, pre, first):
    config = sb.SweepConfig(BAND, (10.0,), (10.0,), pre)
    with usable_cpus(cpus) as forks, pytest.raises(sb.DataError) as info:
        sb.sweep(STEPHOLD, config)
    assert len(forks) == cpus - 1
    assert str(info.value) == _message_of(first)
    assert_no_child_left()


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


def run_cli(cpus, argv):
    return subprocess.run(
        [sys.executable, "-c", CLI_WITH_CPUS, json.dumps([cpus, argv])],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )


@pytest.mark.parametrize("cpus, pre, first", FAILING_GRIDS)
def test_cli_exits_2_with_the_first_serial_message(cpus, pre, first):
    argv = [
        "sweep", "--trace", str(TRACE), *BAND_ARGS, "--kp", "10", "--ki", "10",
        f"--pre-delta={','.join(map(str, pre))}",
    ]
    forked, serial = run_cli(cpus, argv), run_cli(1, argv)
    assert (forked.returncode, forked.stdout) == (2, f"[{cpus - 1}, false]\n")
    assert (serial.returncode, serial.stdout) == (2, "[0, false]\n")
    assert forked.stderr == serial.stderr == f"error: {_message_of(first)}\n"
    assert_no_child_left()


def test_cli_forked_sweep_writes_the_serial_bytes(tmp_path):
    outputs = []
    for cpus, forks in ((2, 1), (1, 0)):
        out = tmp_path / f"sweep{cpus}.csv"
        proc = run_cli(cpus, [
            "sweep", "--trace", str(TRACE), *BAND_ARGS, "--kp", README_GRID,
            "--ki", README_GRID, "--format", "csv", "--out", str(out),
        ])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"[{forks}, false]\n", "")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert_no_child_left()


@pytest.mark.parametrize("death", ["killed", "exits 0 unwritten"])
def test_a_child_that_dies_has_its_share_scored_here(death):
    parent, run_strategy = os.getpid(), engine.run_strategy

    def dying_in_a_child(spec, trace, band):
        if os.getpid() != parent:
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)  # no bytes: the wrong number
        return run_strategy(spec, trace, band)

    with usable_cpus(1):
        serial = renders(sb.sweep(STEPHOLD, readme_config(post_deltas=(0.0, 0.01))))
    with usable_cpus(3) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "run_strategy", dying_in_a_child)
        points = sb.sweep(STEPHOLD, readme_config(post_deltas=(0.0, 0.01)))
    assert len(forks) == 2
    assert renders(points) == serial
    assert_no_child_left()


def test_a_fork_that_fails_scores_its_share_here():
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    with usable_cpus(1):
        serial = renders(sb.sweep(STEPHOLD, readme_config()))
    with usable_cpus(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_fork)
        assert renders(sb.sweep(STEPHOLD, readme_config())) == serial


@contextmanager
def fork_forbidden():
    def fork():
        raise AssertionError("the sweep forked")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork)
        yield


@pytest.mark.parametrize("kp, ki", [("10", "10"), ("1,10", "1,10")])
def test_a_small_sweep_never_forks(tmp_path, kp, ki):
    # The 1x1 minimal sweep and the 2x2 one of
    # test_import_leaves_concurrent_futures_unloaded: 1001 and 4004
    # cell-steps, below the threshold on any number of CPUs.
    with usable_cpus(64), fork_forbidden():
        assert main([
            "sweep", "--trace", str(TRACE), *BAND_ARGS, "--kp", kp, "--ki", ki,
            "--out", str(tmp_path / "s.json"),
        ]) == 0


def test_one_usable_cpu_never_forks():
    with usable_cpus(1), fork_forbidden():
        sb.sweep(STEPHOLD, readme_config(pre_deltas=(0.0, 0.01, 0.02)))


def test_a_second_thread_keeps_the_sweep_serial():
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with usable_cpus(4), fork_forbidden():
            sb.sweep(STEPHOLD, readme_config())
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
