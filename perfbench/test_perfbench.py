"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They run the program from this checkout's `src` on small inputs, the same
way the benchmark does.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import oracle
import run

HERE = Path(__file__).resolve().parent


@pytest.fixture
def launcher():
    launcher = run.Launcher(run.child_env())
    yield launcher
    launcher.close()


def test_generators_are_byte_deterministic_per_seed():
    assert inputs.step_hold(7, 2000, 1).data == inputs.step_hold(7, 2000, 1).data
    assert inputs.step_hold(7, 2000, 1).data != inputs.step_hold(8, 2000, 1).data
    first, again = inputs.aws_history(7, 400), inputs.aws_history(7, 400)
    assert (first.data, first.expected_csv) == (again.data, again.expected_csv)
    assert first.data != inputs.aws_history(8, 400).data
    assert first.kept == 100 and first.records == 400


def test_generators_ignore_hash_randomization():
    script = (
        "import sys, inputs; "
        "sys.stdout.buffer.write(inputs.step_hold(7, 500, 1).data + inputs.aws_history(7, 40).data)"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script], cwd=HERE, capture_output=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1] == inputs.step_hold(7, 500, 1).data + inputs.aws_history(7, 40).data


def test_step_hold_repeat_share_follows_hold_mean():
    assert inputs.step_hold(3, 5000, 1).descriptor()["repeat_share"] < 0.1
    assert inputs.step_hold(3, 5000, 20).descriptor()["repeat_share"] > 0.9


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "make, size",
    [(run.backtest_long, 300), (run.sweep_grid, 200), (run.aws_ingest, 400)],
    ids=["backtest", "sweep", "ingest"],
)
def test_oracle_and_reference_run_on_small_inputs(tmp_path, launcher, make, size, seed):
    prep = make(seed, tmp_path, size)
    for job in (prep.full, prep.minimal):
        sample, ok = run.run_checked(
            launcher, run.cli_command(job), job, run.OutputChecker(job.check), tmp_path
        )
        assert sample.returncode == 0
        assert job.check(job.out.read_bytes()) == []
        assert ok
    assert run.run_reference(launcher, prep, tmp_path) > 0


def test_calibration_divides_each_time_by_its_reference(tmp_path):
    prep = run.sweep_grid(1, tmp_path, 200)
    nominal = prep.reference_nominal_s
    got = run.calibrated(prep, [3.0, 3.0, 1.0], [nominal, 2 * nominal, 4 * nominal])
    assert got == pytest.approx([3.0, 1.5, 0.25])


def test_corrupted_output_counts_as_failure(tmp_path, launcher):
    prep = run.backtest_long(1, tmp_path, 300)
    job = prep.full
    sample, ok = run.run_checked(launcher, run.cli_command(job), job, run.OutputChecker(job.check), tmp_path)
    assert ok
    good = job.out.read_bytes()

    report = json.loads(good)
    report["strategies"][0]["bids"][5] += 1e-6
    corrupted = json.dumps(report, indent=2).encode()
    assert run.OutputChecker(job.check).ok(0, corrupted) is False
    assert any("feedback.bids" in p for p in oracle.check_backtest(corrupted, *_backtest_inputs()))

    checker = run.OutputChecker(job.check)
    assert checker.ok(0, good)
    assert checker.ok(0, good)
    assert not checker.ok(0, good.replace(b"\n", b"\r\n", 1)), "bytes differ from the first run"
    assert not checker.ok(3, good), "non-zero exit"
    assert not checker.ok(0, None), "no output"
    assert len(checker.problems) == 3

    history = inputs.aws_history(1, 400)
    assert oracle.check_ingest(history.expected_csv.replace(b",", b",1", 1), history.expected_csv)


def _backtest_inputs():
    trace = inputs.step_hold(1, 300, 1)
    return trace.prices, inputs.FLOOR, inputs.CEILING, 10.0, 10.0


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0)
    assert run.tail(values[:11]) == (1.0, 100 / 11)
    assert run.tail(values[:10]) is None
