"""Split one job into shares: this process runs the first, a forked child
each of the others.

A sweep's cells, a backtest's strategies and a large AWS document's decode
use it.  This module alone knows how a child's result crosses back: the
child writes its task's value as marshal data to a pipe, and this process
reads it back one object at a time through a buffered reader, so that it
never holds the data whole.  marshal reads only what this process's own fork
wrote, through a pipe no other process holds.  A child ends in os._exit,
so it never returns into the caller, runs no exit handler and flushes no
stdio buffer it shares with this process.  The caller decides what a
missing result (None) means; every caller redoes that share here, so any
error is the serial one.
"""
from __future__ import annotations

import io
import marshal
import os
import sys
from collections.abc import Callable, Sequence

Child = tuple[int, io.BufferedReader]


def one_thread() -> bool:
    """Whether this process runs no second thread (forking a threaded
    process can copy a held lock)."""
    threading = sys.modules.get("threading")  # a process without it has one thread
    return threading is None or threading.active_count() == 1


def share_count(work: int, fork_min: int) -> int:
    """How many processes share `work` units; 1 or less means serial.

    Work forks only where os.fork and os.sched_getaffinity exist and no
    second thread runs (see one_thread).  Then it takes one share per usable
    CPU, but few enough that each holds about half of fork_min.
    """
    most = 2 * work // fork_min
    if most < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                        and one_thread()):
        return 1
    return min(most, len(os.sched_getaffinity(0)))


def run_shares(tasks: Sequence[Callable[[], object]]) -> list[object]:
    """[task() for task in tasks], where tasks[0] runs here and each other
    task in a forked child.

    A child's task returns a value marshal can write (an array comes back
    as its bytes, a named tuple not at all), but not None, which stands for
    no result.  Its entry is an equal copy of that value, floats bit for
    bit, or None if its child could not start, raised, was killed or exited
    before it sent the value whole.  If tasks[0] raises, or reading a pipe
    does, every child not yet reaped is killed.  Every child is reaped
    before this returns or raises.  One task forks nothing.
    """
    if len(tasks) > 1:
        # Imported before any child exists: after a MemoryError the import
        # could fail and leave a child running.  Loaded only by a job that
        # forks.
        from signal import SIGKILL

    children: list[Child | None] = []
    values: list[object] = []  # of the children reaped so far
    try:
        for task in tasks[1:]:
            children.append(_fork(task))
        first = tasks[0]()
        for child in children:
            values.append(_reap(child))
    except BaseException:
        # No child's result is needed: end each that is still running.
        for pid, pipe in filter(None, children[len(values):]):
            os.kill(pid, SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
        raise
    return [first, *values]


def _fork(task: Callable[[], object]) -> Child | None:
    """Fork a child that writes marshal.dumps(task()) to a pipe and exits
    0; its (pid, read end of the pipe), or None if it could not start."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    # Opened before the fork, so nothing after it can fail.  Buffered: each
    # of marshal.load's reads must be filled, which one read of a pipe does
    # not promise.
    pipe = open(read_fd, "rb")
    try:
        pid = os.fork()
    except OSError:
        pipe.close()
        os.close(write_fd)
        return None
    if pid == 0:
        # Whatever the child raises, its only outcome is a nonzero status.
        status = 1
        try:
            os.close(read_fd)
            view = memoryview(marshal.dumps(task()))
            while view:
                view = view[os.write(write_fd, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, pipe


def _reap(child: Child | None) -> object:
    """Read a child's value from its pipe and wait for it: the value if it
    came whole and the child exited 0, else None."""
    if child is None:
        return None
    pid, pipe = child
    with pipe:
        try:
            value = marshal.load(pipe)
        except (EOFError, ValueError):  # cut short, or nothing sent
            value = None
    _, status = os.waitpid(pid, 0)
    return value if status == 0 else None
