"""spotbid benchmark: whole CLI invocations, oracle-checked, plus a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload backtest-long --seed 1 --seconds 30 --trace 0

Without --workload every workload runs; without --trace both modes run.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` times `python -m spotbid.cli ...` subprocesses with PYTHONPATH
set to this checkout's `src` (the package is not installed).  One
invocation runs at a time: a closed loop with one client.  Each
invocation's peak RSS and CPU time come from `os.wait4`, and its output is
checked outside the timed region.  Times are calibrated for the shared
host's drifting speed: every invocation is followed by `reference.py`,
the oracle doing the same kind of work on the same input, and each time
is reported at that job's nominal speed (`calibrated`).  `--trace 1`
alternates an untraced invocation with `traced.py`, which times the calls
into each module's public functions in-process, and reports the per-layer
metrics.  Metric
names and units come from BENCHMARK.json; README.md in this directory
explains the choices.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# A run starts no invocation it expects to end after --seconds, but always
# makes this many, so a slower program still gets a median.
MIN_SAMPLES = 5
MIN_TRACED = 2
INVOCATION_TIMEOUT_S = 120.0  # enforced by launcher.py

BAND = (inputs.FLOOR, inputs.CEILING)
GAINS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
KP = KI = 10.0  # gain magnitudes of backtest-long's feedback strategy
BACKTEST_POINTS = 25_000
SWEEP_POINTS = 2_500
AWS_RECORDS = 100_000


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


# ----------------------------------------------------------------- workloads


@dataclass
class Job:
    """One CLI invocation: its arguments, output file and output check."""

    argv: list[str]
    out: Path
    check: Callable[[bytes], list[str]]


@dataclass
class Prepared:
    """A workload's jobs on generated inputs.

    `reference` is the reference.py job on the full input, repeated to take
    about as long as the program's invocation, and
    `reference_nominal_s` its wall time at the nominal speed that calibrated
    times are given in: about its median on the 2-CPU machine the benchmark
    was written on, so calibrated figures read as seconds there.  It is only
    a scale; changing it changes every calibrated time of the workload by
    the same factor.
    """

    full: Job
    minimal: Job
    items: int
    item: str
    descriptor: dict[str, object]
    reference: list[str]
    reference_nominal_s: float


def _band_args() -> list[str]:
    return ["--floor", repr(BAND[0]), "--ceiling", repr(BAND[1])]


def _write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def backtest_long(seed: int, work: Path, points: int = BACKTEST_POINTS) -> Prepared:
    """All six strategies, causal, bids included: CSV parse, every replay
    kernel and the JSON report writer."""

    def job(trace: inputs.StepHoldTrace, stem: str) -> Job:
        path = _write(work / f"{stem}.csv", trace.data)
        out = work / f"{stem}.json"
        argv = ["backtest", "--trace", str(path), *_band_args(),
                "--strategies", ",".join(oracle.STRATEGIES), "--kp", repr(KP), "--ki", repr(KI),
                "--mode", "causal", "--include-bids", "--format", "json", "--out", str(out)]
        return Job(argv, out, lambda data: oracle.check_backtest(data, trace.prices, *BAND, KP, KI))

    trace = inputs.step_hold(seed, points, hold_mean=1)
    return Prepared(
        full=job(trace, "trace"),
        minimal=job(inputs.minimal_trace(), "minimal"),
        items=len(oracle.STRATEGIES) * points,
        item="strategy-steps",
        descriptor=trace.descriptor(),
        reference=["backtest", str(work / "trace.csv"), "3"],
        reference_nominal_s=1.0,
    )


def sweep_grid(seed: int, work: Path, points: int = SWEEP_POINTS) -> Prepared:
    """An 8x8 kp x ki sweep, serial: almost all of it is feedback replay."""

    def job(trace: inputs.StepHoldTrace, stem: str, gains: tuple[float, ...]) -> Job:
        path = _write(work / f"{stem}.csv", trace.data)
        out = work / f"{stem}.json"
        grid = ",".join(repr(g) for g in gains)
        argv = ["sweep", "--trace", str(path), *_band_args(),
                "--kp", grid, "--ki", grid, "--format", "json", "--out", str(out)]
        return Job(argv, out, lambda data: oracle.check_sweep(data, trace.prices, *BAND, gains, gains))

    trace = inputs.step_hold(seed, points, hold_mean=20)
    return Prepared(
        full=job(trace, "trace", GAINS),
        minimal=job(inputs.minimal_trace(), "minimal", (10.0,)),
        items=len(GAINS) ** 2 * points,
        item="cell-steps",
        descriptor=trace.descriptor(),
        reference=["sweep", str(work / "trace.csv"), "4"],
        reference_nominal_s=0.8,
    )


def aws_ingest(seed: int, work: Path, records: int = AWS_RECORDS) -> Prepared:
    """AWS JSON in, one market of four kept, CSV out: no replay at all."""

    def job(history: inputs.AwsHistory, stem: str) -> Job:
        path = _write(work / f"{stem}.json", history.data)
        out = work / f"{stem}.out.csv"
        instance_type, product, zone = inputs.KEPT_MARKET
        argv = ["ingest", "--aws-json", str(path), "--instance-type", instance_type,
                "--product", product, "--zone", zone, "--format", "csv", "--out", str(out)]
        return Job(argv, out, lambda data: oracle.check_ingest(data, history.expected_csv))

    history = inputs.aws_history(seed, records)
    return Prepared(
        full=job(history, "history"),
        minimal=job(inputs.aws_history(seed, 1, (inputs.KEPT_MARKET,)), "minimal"),
        items=history.records,
        item="input records",
        descriptor=history.descriptor(),
        reference=["ingest", str(work / "history.json"), "1"],
        reference_nominal_s=0.65,
    )


WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "backtest-long": backtest_long,
    "sweep-grid": sweep_grid,
    "aws-ingest": aws_ingest,
}


# --------------------------------------------------------------- invocation


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    returncode: int


def child_env() -> dict[str, str]:
    """The caller's environment, minus what would change the measured work.

    Bytecode caches are on, as for an installed package, and kept out of
    the source tree.
    """
    env = dict(os.environ)
    for name in ("SPOTBID_LOG", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


class Launcher:
    """Runs commands through launcher.py, which reports each child's own
    wall time, peak RSS and CPU time (launcher.py says why it is separate)."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def run(self, cmd: list[str], stderr_path: Path) -> Sample:
        self.proc.stdin.write(json.dumps([cmd, str(ROOT), str(stderr_path)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process exited")
        return Sample(**json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=INVOCATION_TIMEOUT_S + 10)
        self.proc.stdout.close()


def cli_command(job: Job) -> list[str]:
    return [sys.executable, "-m", "spotbid.cli", *job.argv]


def run_reference(launcher: Launcher, prep: Prepared, work: Path) -> float:
    """Wall time of one reference.py invocation."""
    cmd = [sys.executable, str(HERE / "reference.py"), *prep.reference]
    sample = launcher.run(cmd, work / "stderr.txt")
    if sample.returncode != 0:
        stderr = (work / "stderr.txt").read_text(errors="replace").strip()
        raise BenchError(f"reference.py exited {sample.returncode}: {stderr[-500:]}")
    return sample.wall_s


def calibrated(prep: Prepared, walls: list[float], reference_walls: list[float]) -> list[float]:
    """Each wall time at the reference's nominal speed: divided by the wall
    time of the reference job that ran next to it, times the nominal time.

    The host's speed drifts by more than any bound, and a slow spell slows
    the program and the reference, which does the same kind of work on the
    same data, alike.  Pairing each invocation with its neighbour cancels
    more of the drift than dividing medians over the whole run would.
    """
    return [prep.reference_nominal_s * w / r for w, r in zip(walls, reference_walls, strict=True)]


class OutputChecker:
    """Classifies invocations of one job.

    An invocation fails if it exits non-zero, if its output fails the oracle,
    or if its bytes differ from the first correct run's.  Only the first
    correct output goes through the oracle; later ones are held to its bytes.
    """

    def __init__(self, check: Callable[[bytes], list[str]]):
        self.check = check
        self.digest: str | None = None
        self.problems: list[str] = []

    def ok(self, returncode: int, data: bytes | None) -> bool:
        if returncode != 0:
            problems = [f"exit code {returncode}"]
        elif data is None:
            problems = ["no output file"]
        else:
            digest = hashlib.sha256(data).hexdigest()
            if self.digest is None:
                problems = self.check(data)
                if not problems:
                    self.digest = digest
            elif digest != self.digest:
                problems = ["output bytes differ from the first run's"]
            else:
                problems = []
        if len(self.problems) < 5:
            self.problems.extend(problems[: 5 - len(self.problems)])
        return not problems


def read_output(job: Job) -> bytes | None:
    try:
        return job.out.read_bytes()
    except FileNotFoundError:
        return None


def run_checked(
    launcher: Launcher, cmd: list[str], job: Job, checker: OutputChecker, work: Path
) -> tuple[Sample, bool]:
    job.out.unlink(missing_ok=True)
    sample = launcher.run(cmd, work / "stderr.txt")
    ok = checker.ok(sample.returncode, read_output(job))
    if not ok and sample.returncode != 0:
        stderr = (work / "stderr.txt").read_text(errors="replace").strip()
        checker.problems.append(f"stderr: {stderr[-500:]}")
    return sample, ok


def verify_checkout(env: dict[str, str]) -> None:
    """Refuse to run unless `import spotbid` resolves to this checkout."""
    expected = SRC / "spotbid" / "__init__.py"
    if not expected.is_file():
        raise BenchError(f"no spotbid package at {expected.parent}")
    found = subprocess.run(
        [sys.executable, "-c", "import spotbid; print(spotbid.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    origin = found.stdout.strip()
    if found.returncode != 0 or Path(origin).resolve() != expected.resolve():
        raise BenchError(f"spotbid imports from {origin or found.stderr.strip()!r}, not {expected}")


# ------------------------------------------------------------------ metrics


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest order statistic that still has at
    least ten samples beyond it, or None below eleven samples."""
    ordered = sorted(values)
    index = len(ordered) - 11
    if index < 0:
        return None
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def within(start: float, durations: list[float], seconds: float, minimum: int) -> bool:
    """Whether to start another invocation: one more of median length still
    ends inside the measured seconds, or fewer than `minimum` were made."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


@dataclass
class Outcome:
    workload: str
    trace: int
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str]
    record: dict[str, object]


def measure(name: str, prep: Prepared, seconds: float, launcher: Launcher, work: Path) -> Outcome:
    full = OutputChecker(prep.full.check)
    minimal = OutputChecker(prep.minimal.check)
    attempted = failed = 0

    def run(job: Job, checker: OutputChecker) -> Sample:
        nonlocal attempted, failed
        sample, ok = run_checked(launcher, cli_command(job), job, checker, work)
        attempted += 1
        failed += not ok
        return sample

    # Warm-up: writes bytecode caches and fills the page cache, which users
    # do not pay on every run.  Checked, not timed.
    run(prep.minimal, minimal)
    run_reference(launcher, prep, work)
    samples: list[Sample] = []
    walls: list[float] = []
    setup: list[float] = []
    reference: list[float] = []
    start = time.perf_counter()
    # The machine's speed drifts, so each timed invocation is followed by a
    # reference job and a start-up probe: each of the two timed commands
    # runs right next to the reference job it is divided by.
    while within(start, [sum(c) for c in zip(walls, reference, setup)], seconds, MIN_SAMPLES):
        samples.append(run(prep.full, full))
        walls.append(samples[-1].wall_s)
        reference.append(run_reference(launcher, prep, work))
        setup.append(run(prep.minimal, minimal).wall_s)

    wall_cal = calibrated(prep, walls, reference)
    setup_cal = calibrated(prep, setup, reference)
    found = tail(wall_cal)
    metrics = {
        "wall_s": statistics.median(wall_cal),
        "items_per_s": statistics.median(prep.items / w for w in wall_cal),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": statistics.median(setup_cal),
    }
    cpu = statistics.median(s.cpu_s for s in samples)
    notes = [
        f"wall_s       {metrics['wall_s']:.4f} s   median of {len(walls)} invocations at nominal "
        f"speed; measured median {statistics.median(walls):.4f} s",
        (
            f"wall_s_tail  {found[0]:.4f} s   p{found[1]:.1f} of {len(walls)} samples"
            if found else f"wall_s_tail  none: {len(walls)} samples"
        ) + " (highest percentile with at least ten samples beyond it)",
        f"items_per_s  {metrics['items_per_s']:.1f} 1/s   at nominal speed; {prep.item}, "
        f"{prep.items} per invocation",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   median child max RSS (os.wait4)",
        f"cpu_s        {cpu:.4f} s   median child user+system CPU (os.wait4), measured",
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} invocations on the "
        f"minimal input at nominal speed; measured median {statistics.median(setup):.4f} s",
        f"reference    {statistics.median(reference):.4f} s   median of {len(reference)} "
        f"reference.py invocations; nominal {prep.reference_nominal_s} s",
        f"error_rate   {failed / attempted:.4f}   {failed} failed of {attempted} invocations",
    ]
    record = {
        "samples": [vars(s) for s in samples],
        "setup_walls": setup,
        "reference_walls": reference,
        "cpu_s": cpu,
        "wall_s_tail": found,
        "error_rate": failed / attempted,
        "problems": full.problems + minimal.problems,
    }
    return Outcome(name, 0, attempted, failed, metrics, notes, record)


# ------------------------------------------------------------------- traced


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name, summed over calls: each span's duration
    minus the part its child spans cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + _dur(span)
    times: dict[str, float] = {}
    for span in spans:
        times[span["name"]] = times.get(span["name"], 0.0) + _dur(span) - covered.get(span["id"], 0.0)
    return times


def layer_values(spans: list[dict], prep: Prepared) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Layers a workload does not call read 0.  Times are summed over calls;
    engine.overhead_s is the engine span's self time.
    """
    own = self_times(spans)

    def total(name: str, **attrs) -> float:
        return sum(
            _dur(s) for s in spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        )

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def per_call_ns(name: str) -> float:
        calls = attr_sum(name, "calls")
        return total(name) / calls * 1e9 if calls else 0.0

    engine = [s for s in spans if s["name"] in ("engine.backtest", "engine.sweep")]
    engine_wall = sum(_dur(s) for s in engine)
    feedback_steps = sum(
        s["attrs"]["steps"] for s in spans
        if s["name"] == "strategies.run_strategy" and s["attrs"]["kind"] == "feedback"
    )
    kept = attr_sum("trace.parse_aws_json", "points")
    records = prep.descriptor.get("records_total", 0)
    values = {
        "trace.parse_csv_s": total("trace.parse_csv"),
        "trace.validate_s": total("trace.validate"),
        "trace.parse_aws_json_s": total("trace.parse_aws_json"),
        "trace.to_csv_s": total("trace.to_csv"),
        "trace.records_kept_ratio": kept / records if records else 0.0,
        "strategies.steps": attr_sum("strategies.run_strategy", "steps"),
        "strategies.feedback_us_per_step": (
            total("strategies.run_strategy", kind="feedback") / feedback_steps * 1e6
            if feedback_steps else 0.0
        ),
        "controller.step_ns": per_call_ns("controller.step"),
        "band_model.bid_from_control_ns": per_call_ns("band_model.bid_from_control"),
        "metrics.score_s": total("metrics.score"),
        "metrics.relative_rationality_s": total("metrics.relative_rationality"),
        "engine.backtest_s": total("engine.backtest"),
        "engine.sweep_s": total("engine.sweep"),
        "engine.overhead_s": own.get("engine.backtest", 0.0) + own.get("engine.sweep", 0.0),
        "engine.cpu_util": sum(s["cpu"] for s in engine) / engine_wall if engine_wall else 0.0,
        "cli.render_report_s": total("cli.render_report"),
        "cli.render_sweep_s": total("cli.render_sweep"),
        "cli.startup_s": total("cli.startup"),
    }
    for kind in oracle.STRATEGIES:
        values[f"strategies.{kind}_s"] = total("strategies.run_strategy", kind=kind)
    retained = [s["attrs"]["bytes"] for s in spans if s["name"] == "trace.retained"]
    if retained:
        values["trace.retained_mb"] = retained[0] / 2**20
    return values


def measure_traced(
    name: str, prep: Prepared, seconds: float, launcher: Launcher, work: Path
) -> Outcome:
    checker = OutputChecker(prep.full.check)
    attempted = failed = 0
    untraced: list[float] = []
    traced_totals: list[float] = []
    iterations: list[dict[str, float]] = []
    own_times: list[dict[str, float]] = []
    all_spans: list[list[dict]] = []
    missing: set[str] = set()
    spans_path = work / "spans.json"

    def run(cmd: list[str], job: Job = prep.full, checker: OutputChecker = checker):
        nonlocal attempted, failed
        sample, ok = run_checked(launcher, cmd, job, checker, work)
        attempted += 1
        failed += not ok
        return sample, ok

    warm = OutputChecker(prep.minimal.check)
    run(cli_command(prep.minimal), prep.minimal, warm)
    pairs: list[float] = []
    start = time.perf_counter()
    # Untraced and traced invocations alternate, so both see the same
    # machine conditions and their difference is the tracing overhead.
    while within(start, pairs, seconds, MIN_TRACED):
        pairs.append(-time.perf_counter())
        untraced.append(run(cli_command(prep.full))[0].wall_s)
        spans_path.unlink(missing_ok=True)
        memory = "1" if not iterations else "0"
        cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), memory, *prep.full.argv]
        ok = run(cmd)[1]
        pairs[-1] += time.perf_counter()
        if not ok:
            continue
        doc = json.loads(spans_path.read_text())
        missing.update(doc["missing"])
        spans = doc["spans"]
        values = layer_values(spans, prep)
        values["cli.output_bytes"] = prep.full.out.stat().st_size
        iterations.append(values)
        own_times.append(self_times(spans))
        all_spans.append(spans)
        traced_totals.append(
            sum(_dur(s) for s in spans if s["name"] in ("cli.startup", "cli.handler"))
        )

    keys = sorted({key for values in iterations for key in values})
    metrics = {key: statistics.median(v[key] for v in iterations if key in v) for key in keys}
    notes = [f"{key:<34} {value:.6g}" for key, value in metrics.items()]
    names = sorted({name for times in own_times for name in times})
    own = {n: statistics.median(t.get(n, 0.0) for t in own_times) for n in names}
    if own:
        notes.append("self times (s): " + ", ".join(f"{n} {v:.4g}" for n, v in own.items()))
    if traced_totals:
        notes.append(
            f"tracing: traced in-process total {statistics.median(traced_totals):.4f} s "
            f"against the untraced median wall time {statistics.median(untraced):.4f} s "
            f"({len(traced_totals)} traced, {len(untraced)} untraced invocations)"
        )
    if missing:
        notes.append(f"warning: not traced, no such function: {', '.join(sorted(missing))}")
    notes.append(f"error_rate {failed / attempted:.4f}   {failed} failed of {attempted} invocations")
    record = {
        "iterations": iterations,
        "untraced_walls": untraced,
        "traced_totals": traced_totals,
        "self_times": own,
        "missing": sorted(missing),
        "problems": checker.problems + warm.problems,
        "spans": all_spans,
    }
    return Outcome(name, 1, attempted, failed, metrics, notes, record)


# --------------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: int, launcher: Launcher) -> Outcome:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        prep = WORKLOADS[name](seed, work)
        measure_fn = measure_traced if trace else measure
        outcome = measure_fn(name, prep, seconds, launcher, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.record.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, inputs=prep.descriptor,
        python=sys.version.split()[0], cpus=os.cpu_count(), metrics=outcome.metrics,
    )
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(outcome.record) + "\n")
    inputs_line = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in prep.descriptor.items())
    print(f"== {name}  seed {seed}  trace {trace}  inputs: {inputs_line}")
    for line in outcome.notes + [f"problem: {p}" for p in outcome.record["problems"]]:
        print(f"   {line}")
    return outcome


def metric_object(outcomes: list[Outcome], spec: dict) -> dict[str, dict[str, object]]:
    metrics = {}
    for outcome in outcomes:
        listed = spec["per_layer" if outcome.trace else "end_to_end"]
        prefix = f"{outcome.workload}." if len(outcomes) > 1 else ""
        for metric in listed:
            value = outcome.metrics.get(metric["name"], 0.0)
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = child_env()
        verify_checkout(env)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        modes = [0, 1] if args.trace is None else [args.trace]
        launcher = Launcher(env)
        try:
            outcomes = [
                run_workload(n, args.seed, args.seconds, m, launcher) for n in names for m in modes
            ]
        finally:
            launcher.close()
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_object(outcomes, spec),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
