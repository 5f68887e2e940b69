"""Split one job into shares: this process runs the first, a forked child
each of the others.

A sweep's cells, a backtest's strategies and a large AWS document's decode
use it.  A child hands back bytes through a pipe, their length first, so
that this process reads them into one buffer of that size.  It ends in
os._exit, so it never returns into the caller, runs no exit handler and
flushes no stdio buffer it shares with this process.  The caller decides
what a missing result means; every caller redoes that share here, so any
error is the serial one.
"""
from __future__ import annotations

import io
import os
import sys
from collections.abc import Callable, Sequence

Child = tuple[int, io.FileIO]


def share_count(work: int, fork_min: int) -> int:
    """How many processes share `work` units; 1 or less means serial.

    Work forks only where os.fork and os.sched_getaffinity exist and no
    second thread runs (forking a threaded process can copy a held lock).
    Then it takes one share per usable CPU, but few enough that each holds
    about half of fork_min.
    """
    most = 2 * work // fork_min
    threading = sys.modules.get("threading")  # a process without it has one thread
    if most < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or (
        threading is not None and threading.active_count() > 1
    ):
        return 1
    return min(most, len(os.sched_getaffinity(0)))


def run_shares(
    first: Callable[[], object], others: Sequence[Callable[[], object]]
) -> tuple[object, list[bytearray | None]]:
    """(first(), payloads), where first runs here and each of others in a
    forked child.

    Each of others returns a bytes-like object.  payloads[k] holds the bytes
    others[k] returned, as a bytearray, or None if its child could not
    start, raised, was killed or exited before it sent them all.  If first()
    raises, or reading a pipe does, every child not yet reaped is killed.
    Every child is reaped before this returns or raises.
    """
    # Imported before any child exists: after a MemoryError the import
    # could fail and leave a child running.  Loaded only by a job that forks.
    from signal import SIGKILL

    children: list[Child | None] = []
    payloads: list[bytearray | None] = []
    try:
        for task in others:
            children.append(_fork(task))
        result = first()
        for child in children:
            payloads.append(_reap(child))
    except BaseException:
        # No child's result is needed: end each that is still running.
        for pid, pipe in filter(None, children[len(payloads):]):
            os.kill(pid, SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
        raise
    return result, payloads


def _fork(task: Callable[[], object]) -> Child | None:
    """Fork a child that writes the length of task()'s bytes as 8 bytes,
    then the bytes, to a pipe and exits 0; its (pid, read end of the pipe),
    or None if it could not start."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    # Unbuffered, and opened before the fork, so nothing after it can fail.
    pipe = open(read_fd, "rb", buffering=0)
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
            view = memoryview(task()).cast("B")
            os.write(write_fd, len(view).to_bytes(8, "little"))  # atomic in a pipe
            while view:
                view = view[os.write(write_fd, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, pipe


def _reap(child: Child | None) -> bytearray | None:
    """Read a child's pipe and wait for it: its bytes if it sent them whole
    and exited 0."""
    if child is None:
        return None
    pid, pipe = child
    payload = None
    with pipe:
        head = bytearray(8)
        if _fill(pipe, head):
            payload = bytearray(int.from_bytes(head, "little"))
            if not _fill(pipe, payload):
                payload = None
    _, status = os.waitpid(pid, 0)
    return payload if status == 0 else None


def _fill(pipe: io.FileIO, buffer: bytearray) -> bool:
    """Read from pipe into the whole of buffer; whether the pipe held that
    many bytes."""
    view, done = memoryview(buffer), 0
    while done < len(buffer):
        count = pipe.readinto(view[done:])
        if not count:
            return False
        done += count
    return True
