"""Mutation gate: each listed mutant of src/ must make its test file fail.

Run from any directory:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the mutants named

The script copies src/, tests/ and pyproject.toml to a temporary directory
and first runs, unmutated, each test file that a mutant names; each must
pass.  Then, for each mutant, it replaces one exact piece of source text in
the copy, runs the mutant's test file there with ``pytest -x -q`` and the
conftest's "mutants" Hypothesis profile, which does not shrink a failing
example, and puts the text back.  A mutant is killed when pytest reports a
failing test (exit status 1).  The script exits 1 when a mutant survives,
when a mutant's source text is not found exactly once (a refactor must then
update the list), or when pytest exits with any other status: a mutant that
breaks collection proves nothing.

Only the standard library is imported here; pytest runs in a child process.
pytest does not collect this file, whose name does not start with test_.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name file old new test")

ENGINE = "src/spotbid/engine.py"
FORKING = "src/spotbid/forking.py"
METRICS = "src/spotbid/metrics.py"
STRATEGIES = "src/spotbid/strategies.py"
TRACE = "src/spotbid/trace.py"
SWEEP_TESTS = "tests/test_sweep_fork.py"
BACKTEST_TESTS = "tests/test_backtest_fork.py"
AWS_TESTS = "tests/test_aws_fork.py"
TRACE_TESTS = "tests/test_trace.py"

# engine._score_split, which deals a backtest's strategies and a sweep's
# cells into shares, and the sweep's specs; forking.run_shares, through
# which every share runs; trace._kept_in_shares, its AWS decode caller;
# trace._pieces, the one walk of the CSV chunks and of each AWS share, with
# _share_columns and parse_csv, which convert its pieces; and two error
# paths of the replay and the scores.
MUTANTS = [
    Mutant(
        "split: each spec joins the most loaded child share", ENGINE,
        "k = loads.index(min(loads))",
        "k = loads.index(max(loads))",
        SWEEP_TESTS,
    ),
    Mutant(
        "split: a child's results are placed in reversed order", ENGINE,
        "in zip(part, share or ()):",
        "in zip(part[::-1], share or ()):",
        SWEEP_TESTS,
    ),
    Mutant(
        "split: a DataError here is raised without the serial rerun", ENGINE,
        "    except DataError:\n        shares_rows = []",
        "    except DataError:\n        raise",
        BACKTEST_TESTS,
    ),
    Mutant(
        "split: a missing result is not redone", ENGINE,
        "[row or _score_one(spec, trace, band, text) for spec, row in",
        "[row for spec, row in",
        SWEEP_TESTS,
    ),
    Mutant(
        "split: costs ignore the trace's length", ENGINE,
        "_point_cost_ns(spec, text is not None) * len(trace) for spec in specs",
        "_point_cost_ns(spec, text is not None) for spec in specs",
        SWEEP_TESTS,
    ),
    Mutant(
        "split: this process takes less than its fair share", ENGINE,
        "while load + costs[order[own]] <= fair:",
        "while load + costs[order[own]] < fair:",
        SWEEP_TESTS,
    ),
    Mutant(
        "split: only this process's rows are placed", ENGINE,
        "for part, share in zip(parts, shares_rows):",
        "for part, share in zip(parts[:1], shares_rows):",
        BACKTEST_TESTS,
    ),
    Mutant(
        "split: a row keeps keep(bids) itself, not its tuple", ENGINE,
        "kept = () if keep is None else tuple(keep(series.bids))",
        "kept = () if keep is None else keep(series.bids)",
        BACKTEST_TESTS,
    ),
    Mutant(
        "shares: the first child not yet reaped is left running", FORKING,
        "children[len(values):]",
        "children[len(values) + 1:]",
        BACKTEST_TESTS,
    ),
    Mutant(
        "aws: a child's missing share is taken as decoded", TRACE,
        "    if None in parts:  # a child's share is in doubt\n        return None\n",
        "",
        AWS_TESTS,
    ),
    Mutant(
        "walk: the first share starts a byte past the opener", TRACE,
        "starts = [opener.end()]",
        "starts = [opener.end() + 1]",
        AWS_TESTS,
    ),
    Mutant(
        "walk: a piece before the document's last is not closed", TRACE,
        'b"" if last else b"]"',
        'b""',
        AWS_TESTS,
    ),
    Mutant(
        "walk: the last piece of every share is taken as the document's", TRACE,
        "last = pos + len(data) == size",
        "last = pos + len(data) == end",
        AWS_TESTS,
    ),
    Mutant(
        "walk: text after the record array is not checked", TRACE,
        "            if not _tail_ok(text[at:], wrapped):\n"
        '                raise ValueError("text after the record array")\n',
        "",
        AWS_TESTS,
    ),
    Mutant(
        "walk: a piece read short is decoded", TRACE,
        "        if len(piece[0]) != stop - pos:\n"
        '            raise ValueError("the input ended before its size")\n',
        "",
        AWS_TESTS,
    ),
    Mutant(
        "walk: an empty piece is taken as records", TRACE,
        '        if not records:  # a list: the text opens with "["\n'
        '            raise ValueError("an empty record array")\n',
        "",
        AWS_TESTS,
    ),
    Mutant(
        "walk: a piece starts at its cut's byte", TRACE,
        "        pos = stop + 1\n",
        "        pos = stop\n",
        TRACE_TESTS,
    ),
    Mutant(
        "walk: an empty piece follows a cut at the input's last byte", TRACE,
        "if pos >= end:",
        "if pos > end:",
        TRACE_TESTS,
    ),
    Mutant(
        "csv: the row loop stops at the end of a chunk with a quote", TRACE,
        "stop = None if quoted else piece.count(b\"\\n\") + 1",
        "stop = piece.count(b\"\\n\") + 1",
        TRACE_TESTS,
    ),
    Mutant(
        "csv: the walk goes on after a quote handed the rest to the row loop", TRACE,
        "            if quoted:\n                break\n",
        "",
        TRACE_TESTS,
    ),
    Mutant(
        "csv: a chunk's CRLF is folded before its line end is put back", TRACE,
        '    if not chunk.endswith(b"\\n"):\n        chunk += b"\\n"\n'
        '    if b"\\r" in chunk:\n'
        '        chunk = chunk.replace(b"\\r\\n", b"\\n")\n'
        '        if b"\\r" in chunk:\n            return False\n',
        '    if b"\\r" in chunk:\n'
        '        chunk = chunk.replace(b"\\r\\n", b"\\n")\n'
        '        if b"\\r" in chunk:\n            return False\n'
        '    if not chunk.endswith(b"\\n"):\n        chunk += b"\\n"\n',
        TRACE_TESTS,
    ),
    Mutant(
        "shares: a pipe that fails is raised, not redone here", FORKING,
        "    try:\n        read_fd, write_fd = os.pipe()\n    except OSError:\n"
        "        return None\n",
        "    read_fd, write_fd = os.pipe()\n",
        BACKTEST_TESTS,
    ),
    Mutant(
        "replay: a finite price's infinite error is not a data error", STRATEGIES,
        "            if not math.isfinite(error):  # price + pre_delta overflowed\n"
        "                raise DataError(",
        "            if not math.isfinite(error):  # price + pre_delta overflowed\n"
        "                raise ValueError(",
        "tests/test_strategies.py",
    ),
    Mutant(
        "scores: an infinite distance is taken", METRICS,
        "if not (math.isfinite(d) and d > 0):",
        "if not d > 0:",
        "tests/test_metrics.py",
    ),
    Mutant(
        "sweep: a cell's spec drops initial_bid", ENGINE,
        "Adjustments(pre, post),\n                     config.initial_bid)",
        "Adjustments(pre, post))",
        "tests/test_engine.py",
    ),
]

# Mutants no test can kill, each with why no output can tell it apart.
# Their source text is checked like the others', but they are not run.
EQUIVALENT = [
    (
        Mutant(
            "split: the child shares are dealt cheapest first", ENGINE,
            "for i in reversed(order[own:]):",
            "for i in order[own:]:",
            SWEEP_TESTS,
        ),
        "the deal order sets only which child scores which spec, so the "
        "balance of the work: each result is placed by its spec's index, "
        "every child still gets a spec while specs remain, and the first "
        "error is still found by the rerun in spec order",
    ),
    (
        Mutant(
            "replay: the first floor clamp of the feedback bid is dropped", STRATEGIES,
            "bid = floor + width * ((half_pi - atan(u)) / pi)\n"
            "        if floor > bid:\n            bid = floor\n",
            "bid = floor + width * ((half_pi - atan(u)) / pi)\n",
            "tests/test_strategies.py",
        ),
        "it binds only where atan(u) > math.pi / 2, and neither glibc's atan "
        "(exactly math.pi / 2 at 1e16, 1e17, 1e300 and inf, and never above it "
        "at 10**0 to 10**308) nor a correctly rounded one (math.pi / 2 is the "
        "double nearest pi/2) returns more; then half_pi - atan(u) is never "
        "negative, and floor plus a non-negative term is never below floor.  "
        "A faithfully rounded atan may return 1.5707963267948968 for |u| from "
        "about 1.6e16, as math.pi / 2 lies 6.1e-17 below pi/2, and the clamp "
        "then binds, so the line stays",
    ),
]


def pytest_status(copy: Path, test: str) -> int:
    """pytest's exit status for the test file test in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", test],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=900,
    ).returncode


def stale(mutants: list[Mutant]) -> list[str]:
    """A message for each mutant whose source text is not found exactly once."""
    messages = []
    for mutant in mutants:
        found = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if found != 1:
            messages.append(f"{mutant.name}: its source text is found {found} times "
                            f"in {mutant.file}, not once")
    return messages


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    failures = stale(mutants + [m for m, _ in EQUIVALENT])
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="spotbid-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        for test in dict.fromkeys(m.test for m in mutants):
            status = pytest_status(copy, test)
            if status != 0:
                print(f"{test} fails unmutated (pytest exit {status})", file=sys.stderr)
                return 1
        for mutant in mutants:
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.monotonic()
            try:
                status = pytest_status(copy, mutant.test)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exit {status}")
            print(f"{verdict:>14}  {time.monotonic() - start:5.1f} s  {mutant.name}")
            if status != 1:
                failures.append(mutant.name)
    for mutant, reason in EQUIVALENT:
        print(f"{'equivalent':>14}  {mutant.name}: {reason}")
    if failures:
        print(f"{len(failures)} of {len(mutants)} mutants not killed: {failures}",
              file=sys.stderr)
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
