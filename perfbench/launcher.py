"""Starts the measured processes and reports each one's own resource usage.

    python3 perfbench/launcher.py < requests > samples

Each request line is a JSON list `[cmd, cwd, stderr_path]`; the reply line is
a JSON object with `wall_s` (spawn to exit), `peak_rss_mb`, `cpu_s` and
`returncode`.  An empty line or end of input stops the launcher.

Why a separate process: Linux records the RSS high-water mark of the
address space a child replaces at exec in that child's `ru_maxrss`, and a
forked child starts from a copy of its parent.  The benchmark process holds
the inputs and the oracle's data, hundreds of MB on the large workloads, so
its children would report that instead of their own peak.  This process
starts before the inputs exist and stays small.  `RUSAGE_CHILDREN` is no
alternative: it is a maximum over every child ever waited for, so each
child is reaped with `os.wait4`, whose usage covers that child alone.
"""
import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120.0


def launch(cmd, cwd, stderr_path):
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "returncode": proc.returncode,
    }


def main():
    for line in sys.stdin:
        if not line.strip():
            break
        cmd, cwd, stderr_path = json.loads(line)
        sys.stdout.write(json.dumps(launch(cmd, cwd, stderr_path)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
