"""Command-line behaviour: exit codes, formats, plot data, determinism."""
import argparse
import atexit
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spotbid as sb
from spotbid import engine
from spotbid.cli import (
    _BIDS_PER_PIECE,
    _bids_json,
    _fixed,
    build_parser,
    main,
    render_report,
    report_to_obj,
)
from conftest import FIXTURES, cli_env, limit_address_space, make_trace

BAND_ARGS = ["--floor", "0.256", "--ceiling", "2.600"]
TRACE = str(FIXTURES / "stephold_1001.csv")
AWS = str(FIXTURES / "aws_5records.json")


def run(argv):
    return main(argv)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "spotbid" in capsys.readouterr().out


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["backtest", *BAND_ARGS]) == 1  # no --trace/--aws-json
    assert run(["backtest", "--trace", TRACE, "--floor", "0.256"]) == 1


def test_unknown_strategy_is_usage_error(capsys):
    code = run(
        ["backtest", "--trace", TRACE, *BAND_ARGS, "--strategies", "martingale"]
    )
    assert code == 1
    assert "unknown strategy" in capsys.readouterr().err


def test_invalid_band_is_usage_error(capsys):
    assert (
        run(["backtest", "--trace", TRACE, "--floor", "2.0", "--ceiling", "1.0"]) == 1
    )


def test_missing_file_is_data_error(capsys):
    assert run(["backtest", "--trace", "/nope/missing.csv", *BAND_ARGS]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_trace_data_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "timestamp,price\n2020-01-01T00:01:00Z,1.0\n2020-01-01T00:00:00Z,1.0\n"
    )
    assert run(["ingest", "--trace", str(bad)]) == 2
    assert "non-increasing" in capsys.readouterr().err


def test_zero_distance_is_data_error(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text(
        "timestamp,price\n"
        "2020-01-01T00:00:00Z,1.3\n"
        "2020-01-01T00:01:00Z,1.3\n"
    )
    code = run(["backtest", "--trace", str(flat), *BAND_ARGS, "--strategies", "current"])
    assert code == 2
    assert "zero distance" in capsys.readouterr().err


def test_control_signal_overflow_is_data_error(tmp_path, capsys):
    jump = tmp_path / "jump.csv"
    jump.write_text(
        "timestamp,price\n"
        "2020-01-01T00:00:00Z,1.3\n"
        "2020-01-01T00:01:00Z,2.5\n"
        "2020-01-01T00:02:00Z,0.3\n"
    )
    argv = ["backtest", "--trace", str(jump), *BAND_ARGS]
    code = run([*argv, "--strategies", "feedback", "--kp", "1e308"])
    assert code == 2
    err = capsys.readouterr().err
    assert "control signal" in err
    assert "step 3 (2020-01-01T00:02:00Z)" in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["backtest", "sweep"])
def test_an_error_that_overflows_is_data_error(tmp_path, capsys, command):
    # price + pre_delta overflows at step 1: the price is finite, its error is
    # not.  sweep has no --strategies flag; it replays feedback alone.
    huge = tmp_path / "huge.csv"
    huge.write_text(
        "timestamp,price\n"
        "2020-01-01T00:00:00Z,1e308\n"
        "2020-01-01T00:01:00Z,1e308\n"
    )
    argv = [command, "--trace", str(huge), "--floor", "0.256", "--ceiling", "1.7e308",
            "--pre-delta", "1e308"]
    if command == "backtest":
        argv += ["--strategies", "feedback"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step 1 (2020-01-01T00:00:00Z): error inf is not finite")


def test_an_infinite_distance_is_data_error(tmp_path, capsys):
    tiny = tmp_path / "tiny.csv"
    tiny.write_text(
        "timestamp,price\n"
        "2020-01-01T00:00:00Z,1e-300\n"
        "2020-01-01T00:01:00Z,1e-300\n"
    )
    argv = ["backtest", "--trace", str(tiny), "--floor", "1e-300", "--ceiling", "1.7e308",
            "--strategies", "ondemand"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: strategy 'ondemand' has invalid distance inf\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["backtest", "--kp", "inf"],
        ["backtest", "--initial-bid", "nan"],
        ["backtest", "--pre-delta", "inf"],
        ["sweep", "--ki", "10,-inf"],
        ["backtest", "--floor", "nan", "--ceiling", "2.6"],
    ],
)
def test_nonfinite_float_flag_is_usage_error(flags, capsys):
    command, *rest = flags
    band = [] if "--floor" in rest else BAND_ARGS
    assert run([command, "--trace", TRACE, *band, *rest]) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "internal error" not in err


def test_synth_hold_mean_beyond_double_precision_is_usage_error(capsys):
    # log(1 - 1/h) rounds to 0.0 above about 1e16; far larger h cannot
    # even be converted to a float.
    for hold in ("100000000000000000", "1" + "0" * 400):
        argv = ["synth", *BAND_ARGS, "--points", "5", "--hold-mean", hold]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "hold_steps_mean" in err
        assert "internal error" not in err


def test_timestamp_out_of_utc_range_is_data_error(tmp_path, capsys):
    early = tmp_path / "early.csv"
    early.write_text(
        "timestamp,price\n2020-01-01T00:00:00Z,1.3\n0001-01-01T00:00:00+05:00,1.3\n"
    )
    assert run(["ingest", "--trace", str(early)]) == 2
    err = capsys.readouterr().err
    assert "out of range" in err and "line 3" in err
    assert "internal error" not in err


def test_aws_timestamp_out_of_utc_range_is_data_error(tmp_path, capsys):
    doc = json.loads((FIXTURES / "aws_5records.json").read_text())
    doc["SpotPriceHistory"][1]["Timestamp"] = "9999-12-31T23:00:00-05:00"
    late = tmp_path / "late.json"
    late.write_text(json.dumps(doc))
    assert run(["ingest", "--aws-json", str(late)]) == 2
    err = capsys.readouterr().err
    assert "out of range" in err and "record 1" in err
    assert "internal error" not in err


def test_deeply_nested_aws_json_is_data_error(tmp_path, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, past its depth.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert run(["ingest", "--aws-json", str(deep)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON: maximum recursion depth exceeded" in err
    assert "internal error" not in err


def test_oversized_csv_field_is_data_error(tmp_path, capsys):
    # A field past csv.field_size_limit() raises csv.Error.
    big = tmp_path / "big.csv"
    big.write_text("timestamp,price\n2020-01-01T00:00:00Z,1.3\n"
                   "2020-01-01T00:01:00Z," + "1" * 200_000 + "\n")
    assert run(["ingest", "--trace", str(big)]) == 2
    err = capsys.readouterr().err
    assert "malformed CSV at line 3: field larger than field limit" in err
    assert "internal error" not in err


def test_synth_points_over_the_limit_is_usage_error(capsys):
    argv = ["synth", *BAND_ARGS, "--points", "10000001"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "n_points must be <= 10000000, got 10000001" in err
    assert "internal error" not in err


def test_synth_then_ingest_round_trip(tmp_path):
    out = tmp_path / "synth.csv"
    assert (
        run(
            [
                "synth",
                *BAND_ARGS,
                "--points",
                "50",
                "--hold-mean",
                "3",
                "--step-scale",
                "0.2",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    normalized = tmp_path / "normalized.csv"
    assert run(["ingest", "--trace", str(out), "--out", str(normalized)]) == 0
    assert normalized.read_text() == out.read_text()


def test_ingest_round_trips_years_before_1000(tmp_path):
    early = tmp_path / "early.csv"
    early.write_text("timestamp,price\n0001-01-01T00:00:00Z,1.0\n0999-01-01T00:00:00Z,1.5\n")
    once = tmp_path / "once.csv"
    assert run(["ingest", "--trace", str(early), "--out", str(once)]) == 0
    assert once.read_text() == early.read_text()
    twice = tmp_path / "twice.csv"
    assert run(["ingest", "--trace", str(once), "--out", str(twice)]) == 0
    assert twice.read_text() == early.read_text()


def test_ingest_aws_filtered_to_stdout(capsys):
    code = run(
        [
            "ingest",
            "--aws-json",
            AWS,
            "--instance-type",
            "g2.8xlarge",
            "--product",
            "Linux/UNIX",
            "--zone",
            "us-east-1b",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "timestamp,price",
        "2015-05-03T00:20:06Z,0.256",
        "2015-05-03T02:00:00Z,0.3",
    ]


@pytest.mark.parametrize("flag", ["--instance-type", "--product", "--zone"])
@pytest.mark.parametrize("command", ["ingest", "backtest", "sweep"])
def test_a_filter_flag_with_a_csv_trace_is_usage_error(tmp_path, capsys, command, flag):
    # The filters select AWS records, and a CSV trace has no labels.  An
    # empty value is given too, and the check runs before the file is read.
    band = [] if command == "ingest" else BAND_ARGS
    for path, value in ((TRACE, "nothing"), (str(tmp_path / "missing.csv"), "")):
        assert run([command, "--trace", path, *band, flag, value]) == 1
        assert capsys.readouterr() == (
            "", "error: --instance-type, --product and --zone apply to --aws-json only\n"
        )


def test_ingest_writes_csv_only(capsys):
    assert run(["ingest", "--aws-json", AWS, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("timestamp,price\n")
    assert run(["ingest", "--aws-json", AWS, "--format", "json"]) == 1


def test_backtest_json_report_shape(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        [
            "backtest",
            "--trace",
            TRACE,
            *BAND_ARGS,
            "--mode",
            "fulltrace",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert list(doc) == [
        "trace",
        "band",
        "strategies",
        "relative_rationality_set",
        "config_echo",
        "warnings",
        "engine_version",
    ]
    assert [s["name"] for s in doc["strategies"]] == [
        "feedback",
        "minimum",
        "mean",
        "high",
        "current",
        "ondemand",
    ]
    assert doc["trace"]["points"] == 1001
    feedback = doc["strategies"][0]
    assert feedback["spec"]["gains"] == {"kp": -10.0, "ki": -10.0}
    assert len(feedback["bids"]) == 1002
    assert doc["engine_version"] == sb.ENGINE_VERSION
    rr = doc["relative_rationality_set"]
    assert max(rr.values()) == 1.0


def test_backtest_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = run(
        [
            "backtest",
            "--trace",
            TRACE,
            *BAND_ARGS,
            "--strategies",
            "current,ondemand",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,success_rate,distance,relative_rationality"
    assert len(lines) == 3
    assert lines[1].startswith("current,")


def test_no_include_bids(tmp_path):
    out = tmp_path / "report.json"
    run(
        [
            "backtest",
            "--trace",
            TRACE,
            *BAND_ARGS,
            "--no-include-bids",
            "--out",
            str(out),
        ]
    )
    doc = json.loads(out.read_text())
    assert all("bids" not in s for s in doc["strategies"])
    assert doc["config_echo"]["include_bids"] is False


def test_plot_data_shape(tmp_path):
    plot = tmp_path / "plots"
    code = run(
        [
            "backtest",
            "--trace",
            TRACE,
            *BAND_ARGS,
            "--strategies",
            "feedback,ondemand",
            "--plot-dir",
            str(plot),
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in plot.iterdir())
    assert names == ["comparison.csv", "trajectory_feedback.csv", "trajectory_ondemand.csv"]
    trajectory = (plot / "trajectory_feedback.csv").read_text().splitlines()
    assert trajectory[0] == "index,timestamp,spot_price,bid"
    assert len(trajectory) == 1002  # header + one row per scored step
    assert trajectory[1].startswith("1,2020-01-01T00:00:00Z,")
    comparison = (plot / "comparison.csv").read_text().splitlines()
    assert comparison[0] == "name,success_rate,relative_rationality"
    assert len(comparison) == 3
    # Both trajectories, byte for byte, against a per-row formatter.
    trace = sb.parse_csv((FIXTURES / "stephold_1001.csv").read_bytes())
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    specs = {
        "feedback": sb.StrategySpec(
            kind=sb.StrategyKind.FEEDBACK, gains=sb.PiGains(kp=-10.0, ki=-10.0)
        ),
        "ondemand": sb.StrategySpec(kind=sb.StrategyKind.ONDEMAND),
    }
    for name, spec in specs.items():
        bids = sb.run_strategy(spec, trace, band).bids
        lines = ["index,timestamp,spot_price,bid"]
        for i, point in enumerate(trace.points, start=1):
            lines.append(
                f"{i},{sb.format_timestamp(point.timestamp)},"
                f"{point.price:.6f},{bids[i - 1]:.6f}"
            )
        expected = ("\n".join(lines) + "\n").encode()
        assert (plot / f"trajectory_{name}.csv").read_bytes() == expected


@pytest.mark.parametrize("below", ["", "sub"])
def test_plot_dir_that_cannot_be_created_is_data_error(tmp_path, capsys, below):
    # A regular file, or a path below one, cannot become a directory.
    blocker = tmp_path / "file"
    blocker.write_text("")
    plot_dir = blocker / below if below else blocker
    argv = ["backtest", "--trace", TRACE, *BAND_ARGS, "--plot-dir", str(plot_dir)]
    assert run(argv + ["--out", str(tmp_path / "r.json")]) == 2
    assert f"cannot create plot directory {plot_dir}" in capsys.readouterr().err
    # A failed run leaves no report behind that looks like a success.
    assert not (tmp_path / "r.json").exists()


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        [
            "sweep",
            "--trace",
            TRACE,
            *BAND_ARGS,
            "--kp",
            "1,10",
            "--ki",
            "1,10",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert (
        lines[0]
        == "kp,ki,pre_delta,post_delta,success_rate,distance,relative_rationality,pareto_member"
    )
    assert len(lines) == 5
    assert lines[1].startswith("-10.0,-10.0,")


AWS_FILTERS = [
    "--aws-json", AWS, "--instance-type", "g2.8xlarge",
    "--product", "Linux/UNIX", "--zone", "us-east-1b",
]
AWS_ECHO = [
    ("trace", None),
    ("aws_json", AWS),
    ("instance_type", "g2.8xlarge"),
    ("product", "Linux/UNIX"),
    ("zone", "us-east-1b"),
    ("floor", 0.256),
    ("ceiling", 2.6),
]


def echo_of(argv, capsys, tmp_path):
    """config_echo of a JSON run to stdout, checked to be the same when
    --out (and, for backtest, --plot-dir) is added."""
    assert run(argv) == 0
    echo = json.loads(capsys.readouterr().out)["config_echo"]
    out = tmp_path / "report.json"
    extra = ["--out", str(out)]
    if argv[0] == "backtest":
        extra += ["--plot-dir", str(tmp_path / "plots")]
    assert run(argv + extra) == 0
    again = json.loads(out.read_text())["config_echo"]
    assert list(again.items()) == list(echo.items())
    return echo


def test_backtest_config_echo_records_every_result_flag(capsys, tmp_path):
    argv = [
        "backtest", *AWS_FILTERS, *BAND_ARGS, "--strategies", "feedback,mean,ondemand",
        "--kp", "5", "--ki", "2", "--pre-delta", "0.01", "--post-delta", "0.02",
        "--mode", "causal", "--initial-bid", "1.0", "--no-include-bids",
        "--allow-positive-gains",
    ]
    echo = echo_of(argv, capsys, tmp_path)
    assert list(echo.items()) == AWS_ECHO + [
        ("strategies", "feedback,mean,ondemand"),
        ("kp", 5.0),
        ("ki", 2.0),
        ("pre_delta", 0.01),
        ("post_delta", 0.02),
        ("mode", "causal"),
        ("initial_bid", 1.0),
        ("include_bids", False),
        ("allow_positive_gains", True),
    ]


def test_sweep_config_echo_records_every_grid(capsys, tmp_path):
    argv = [
        "sweep", *AWS_FILTERS, *BAND_ARGS, "--kp", "1,10", "--ki", "2,20,200",
        "--pre-delta", "0,0.01", "--post-delta", "0.02,0", "--initial-bid", "1.0",
    ]
    echo = echo_of(argv, capsys, tmp_path)
    assert list(echo.items()) == AWS_ECHO + [
        ("kp", [1.0, 10.0]),
        ("ki", [2.0, 20.0, 200.0]),
        ("pre_delta", [0.0, 0.01]),
        ("post_delta", [0.02, 0.0]),
        ("initial_bid", 1.0),
    ]


def test_cli_rerun_byte_identical(tmp_path):
    argv = [
        "backtest",
        "--trace",
        TRACE,
        *BAND_ARGS,
        "--mode",
        "fulltrace",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(argv + ["--out", str(first)]) == 0
    assert run(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_backtest_streams_the_json_report(tmp_path, monkeypatch):
    # The report is written piece by piece from the bids texts the replay
    # kept.  Above its level when the replay returns, the run allocates less
    # than the report's own size; held whole, the text alone is that size.
    trace = tmp_path / "trace.csv"
    assert run(["synth", *BAND_ARGS, "--points", "20000", "--out", str(trace)]) == 0
    out = tmp_path / "report.json"
    replayed = []

    def backtest_text(trace, specs, band, text, **kwargs):
        report = engine.backtest_text(trace, specs, band, text, **kwargs)
        replayed.append((sb.backtest(trace, specs, band, **kwargs),
                         tracemalloc.get_traced_memory()[0]))
        tracemalloc.reset_peak()
        return report

    monkeypatch.setattr("spotbid.cli.backtest_text", backtest_text)
    tracemalloc.start()
    try:
        code = run(
            ["backtest", "--trace", str(trace), *BAND_ARGS, "--include-bids",
             "--out", str(out)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    [(report, before_render)] = replayed
    written = out.read_bytes()
    assert written == render_report(report, "json", True).encode()
    assert peak - before_render < len(written)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_backtest_out_file_matches_stdout(tmp_path, capsysbinary, fmt):
    out = tmp_path / "report"
    argv = ["backtest", "--trace", TRACE, *BAND_ARGS, "--include-bids", "--format", fmt]
    assert run(argv + ["--out", str(out)]) == 0
    assert run(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--pre-delta", "-0.05,0"),
    ("sweep", "--post-delta", "-.01,0"),
    ("backtest", "--pre-delta", "-1e-3"),
])
def test_a_negative_value_after_a_space_reads_as_its_equals_form(tmp_path, command, flag, value):
    # argparse's own test reads only a plain negative number as a value.
    outputs = []
    for form in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / "out"
        assert run([command, "--trace", TRACE, *BAND_ARGS, *form, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["sweep", "backtest"])
def test_a_negative_gain_after_a_space_is_rejected(capsys, command):
    assert run([command, "--trace", TRACE, *BAND_ARGS, "--kp", "-1"]) == 1
    assert "must be positive" in capsys.readouterr().err


def test_parallel_flag_is_gone(capsys):
    # Every run is serial; the former --parallel knob is an unknown flag.
    for argv in (
        ["backtest", "--trace", TRACE, *BAND_ARGS],
        ["sweep", "--trace", TRACE, *BAND_ARGS],
    ):
        assert run(argv + ["--parallel"]) == 1
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err


def test_allow_positive_gains_warns(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        [
            "backtest",
            "--trace",
            TRACE,
            *BAND_ARGS,
            "--strategies",
            "feedback,ondemand",
            "--allow-positive-gains",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["warnings"]
    assert doc["strategies"][0]["spec"]["gains"] == {"kp": 10.0, "ki": 10.0}


def test_log_level_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPOTBID_LOG", "debug")
    assert run(["ingest", "--trace", TRACE, "--out", str(tmp_path / "t.csv")]) == 0
    monkeypatch.setenv("SPOTBID_LOG", "bogus")
    assert run(["ingest", "--trace", TRACE, "--out", str(tmp_path / "t2.csv")]) == 0


INFO_LINES = (
    f"INFO spotbid: parsing CSV trace {TRACE}\n"
    "INFO spotbid: ingested 1001 points\n"
)


# basicConfig keeps the first configuration a process makes, so each value
# gets a process of its own.
@pytest.mark.parametrize(
    "value, expected",
    [
        (None, ""),
        ("warn", ""),
        ("error", ""),
        ("", ""),
        ("info", INFO_LINES),
        (" INFO ", INFO_LINES),
        ("debug", INFO_LINES),
        ("bogus", "WARNING spotbid: unknown SPOTBID_LOG level 'bogus'; using warn\n"),
    ],
)
def test_log_level_env_output(tmp_path, value, expected):
    env = cli_env() if value is None else cli_env(SPOTBID_LOG=value)
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "spotbid.cli", "ingest", "--trace", TRACE, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == expected
    assert out.read_bytes() == (FIXTURES / "stephold_1001.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--trace", TRACE],
        ["synth", *BAND_ARGS],
        ["sweep", "--trace", TRACE, *BAND_ARGS, "--kp", "1,10"],
        ["backtest", "--trace", TRACE, *BAND_ARGS],
        ["backtest", "--trace", TRACE, *BAND_ARGS, "--format", "csv"],
    ],
    ids=["ingest", "synth", "sweep", "backtest", "backtest-csv"],
)
def test_closed_stdout_exits_zero_quietly(argv):
    # The read end is closed before the child starts, so its first write to
    # standard output fails with EPIPE however fast either side runs.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "spotbid.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--trace", TRACE],
        ["synth", *BAND_ARGS, "--points", "5"],
        ["sweep", "--trace", TRACE, *BAND_ARGS, "--kp", "1,10"],
        ["backtest", "--trace", TRACE, *BAND_ARGS],
    ],
    ids=["ingest", "synth", "sweep", "backtest"],
)
def test_a_closed_stdout_descriptor_is_a_data_error(tmp_path, argv):
    # A process started with descriptor 1 closed has no sys.stdout: a write
    # to standard output exits 2 with one error line, and --out still works.
    def cli(*flags):
        return subprocess.run(
            [sys.executable, "-X", "dev", "-m", "spotbid.cli", *argv, *flags],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=cli_env(),
            timeout=60, preexec_fn=lambda: os.close(1),
        )

    proc = cli()
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write standard output: it is closed\n"
    )
    out = tmp_path / "out"
    proc = cli("--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    expected = subprocess.run(
        [sys.executable, "-m", "spotbid.cli", *argv], capture_output=True, env=cli_env(),
        timeout=60,
    )
    assert expected.returncode == 0
    assert out.read_bytes() == expected.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--trace", TRACE],
        ["synth", *BAND_ARGS, "--points", "5"],
        ["sweep", "--trace", TRACE, *BAND_ARGS, "--kp", "1,10"],
        ["backtest", "--trace", TRACE, *BAND_ARGS],
    ],
    ids=["ingest", "synth", "sweep", "backtest"],
)
def test_full_stdout_is_a_data_error(argv):
    # Every write to /dev/full fails with ENOSPC.  The run exits 2 with one
    # error line, as --out on a full disk does, and the interpreter's exit
    # flush of the unwritten buffer fails no second time.
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "spotbid.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60,
        )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert [line for line in lines if line.startswith("error: ")] == [
        "error: cannot write standard output: [Errno 28] No space left on device"
    ]
    assert "Exception ignored" not in proc.stderr
    assert "Traceback" not in proc.stderr


# ------------------------------------------- CSV written a block at a time

BLOCK = sb.trace._CSV_BLOCK_ROWS
KEEP_FLAGS = ["--instance-type", "g2.8xlarge", "--zone", "us-east-1b"]


def aws_history(path, rows):
    """Write to path an AWS document, newest first, of which KEEP_FLAGS
    keep rows records: each is followed by one of another market."""
    records = []
    for i in range(rows):
        stamp = sb.format_timestamp(1577836800 - 60 * i)
        for instance in ("g2.8xlarge", "c4.xlarge"):
            records.append({"Timestamp": stamp, "SpotPrice": f"{0.3 + i % 97 / 50:.6f}",
                            "InstanceType": instance, "ProductDescription": "Linux/UNIX",
                            "AvailabilityZone": "us-east-1b"})
    path.write_text(json.dumps({"SpotPriceHistory": records}))
    return str(path)


def csv_argv(tmp_path, command, rows):
    """An ingest or synth run that writes a CSV of rows rows."""
    if command == "ingest":
        return ["ingest", "--aws-json", aws_history(tmp_path / "history.json", rows), *KEEP_FLAGS]
    return ["synth", *BAND_ARGS, "--points", str(rows)]


@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_ingest_streams_the_csv_of_its_trace(tmp_path, capsysbinary, rows):
    doc = aws_history(tmp_path / "history.json", rows)
    keep = sb.TraceFilter(instance_type="g2.8xlarge", zone="us-east-1b")
    with open(doc, "rb") as file:
        expected = sb.to_csv(sb.parse_aws_json(file.read(), keep))
    assert expected.count("\n") == rows + 1
    out = tmp_path / "out.csv"
    assert run(["ingest", "--aws-json", doc, *KEEP_FLAGS, "--out", str(out)]) == 0
    assert run(["ingest", "--aws-json", doc, *KEEP_FLAGS]) == 0
    assert out.read_bytes() == capsysbinary.readouterr().out == expected.encode()


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_synth_streams_the_csv_of_its_trace(tmp_path, capsysbinary, rows):
    argv = ["synth", *BAND_ARGS, "--points", str(rows), "--hold-mean", "2", "--seed", "4"]
    config = sb.SynthConfig(band=sb.PriceBand(floor=0.256, ceiling=2.6), n_points=rows,
                            hold_steps_mean=2, seed=4)
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 0
    assert run(argv) == 0
    expected = sb.to_csv(sb.synth_step_hold(config)).encode()
    assert out.read_bytes() == capsysbinary.readouterr().out == expected


@pytest.mark.parametrize("command, loader", [("ingest", "validate"), ("synth", "synth_step_hold")])
def test_the_csv_is_written_one_block_beside_its_trace(tmp_path, monkeypatch, command, loader):
    # 25,000 rows, a text of 645 KB from ingest.  Above its level once the
    # trace is built, ingest allocated 92 KB, about 7 blocks' text; with the
    # text built whole before it was written, 1.33 MB (Python 3.11.7).
    argv = csv_argv(tmp_path, command, 25_000)
    out = tmp_path / "out.csv"
    loaded = []
    load = getattr(sb, loader)

    def traced_load(*args):
        trace = load(*args)
        loaded.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return trace

    monkeypatch.setattr(f"spotbid.cli.{loader}", traced_load)
    tracemalloc.start()
    try:
        assert run([*argv, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = out.read_text()
    assert written.count("\n") == 25_001
    block = max(map(len, sb.trace.csv_blocks(sb.parse_csv(written))))
    assert peak - loaded[0] < 10 * block < len(written) / 4, (peak - loaded[0], block)


def test_out_of_memory_while_writing_leaves_the_blocks_written(tmp_path, monkeypatch, capsys):
    # The only output a run leaves behind on an error: --out holds the blocks
    # written before it, as a backtest's report does.
    def csv_blocks(trace):
        yield "timestamp,price\n"
        raise MemoryError

    monkeypatch.setattr("spotbid.cli.csv_blocks", csv_blocks)
    out = tmp_path / "out.csv"
    assert run(["ingest", "--trace", TRACE, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: out of memory while running ingest\n"
    assert out.read_text() == "timestamp,price\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["ingest", "synth"])
def test_a_full_out_file_of_many_blocks_is_a_data_error(tmp_path, command):
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "spotbid.cli", *csv_argv(tmp_path, command, 20_000),
         "--out", "/dev/full"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: cannot write /dev/full: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("command", ["ingest", "synth"])
def test_a_reader_that_leaves_after_the_first_block_exits_zero(tmp_path, command):
    # 20,000 rows, about 600 KB, more than a pipe holds.  The reader takes
    # the header and the first block, then closes the pipe; a later block's
    # write fails with EPIPE.
    argv = csv_argv(tmp_path, command, 20_000)
    with subprocess.Popen(
        [sys.executable, "-X", "dev", "-m", "spotbid.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
    ) as proc:
        first = b"".join(proc.stdout.readline() for _ in range(BLOCK + 1))
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith(b"timestamp,price\n") and first.count(b"\n") == BLOCK + 1
    assert (code, stderr) == (0, b"")


@pytest.mark.parametrize(
    "argv, code, log",
    [
        (["ingest", "--bogus"], 1, "warn"),
        (["ingest", "--trace", "/nonexistent.csv"], 2, "warn"),
        (["ingest", "--trace", TRACE], 0, "warn"),
        (["ingest", "--trace", TRACE], 0, "info"),
    ],
    ids=["usage-error", "data-error", "success", "success-with-log-lines"],
)
@pytest.mark.parametrize("closed", ["pipe", "descriptor"])
def test_closed_stderr_keeps_the_exit_code(argv, code, log, closed):
    # An error or log line that cannot be written (the reader of standard
    # error went away) sends standard error to os.devnull, so the run still
    # exits 1, 2 or 0, and nothing fails at exit.  A process started with
    # descriptor 2 closed has no sys.stderr at all and drops the line.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "spotbid.cli", *argv],
            stdout=subprocess.PIPE, env=cli_env(SPOTBID_LOG=log), timeout=60,
            **(
                {"stderr": write_end} if closed == "pipe"
                else {"stderr": subprocess.DEVNULL, "preexec_fn": lambda: os.close(2)}
            ),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    # With no sys.stderr, a usage error writes nothing, not even to standard
    # output, where argparse would put its usage text.
    assert proc.stdout == (b"" if code else (FIXTURES / "stephold_1001.csv").read_bytes())


@pytest.mark.parametrize("tool", ["cProfile", "trace"])
def test_a_profiler_or_tracer_still_reports(tmp_path, tool):
    # Such a tool runs spotbid.cli as __main__ and writes its report after it
    # returns; run() must not end the process under it.
    profile = tmp_path / "profile.out"
    prefix = {
        "cProfile": ["-m", "cProfile", "-o", str(profile), "-m", "spotbid.cli"],
        "trace": ["-m", "trace", "--listfuncs", "--module", "spotbid.cli"],
    }[tool]
    proc = subprocess.run(
        [sys.executable, *prefix, "ingest", "--trace", TRACE],
        capture_output=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    csv_bytes = (FIXTURES / "stephold_1001.csv").read_bytes()
    if tool == "cProfile":
        assert proc.stdout == csv_bytes and profile.stat().st_size > 0
    else:
        assert proc.stdout.startswith(csv_bytes) and b"functions called:" in proc.stdout


GRID_8 = "0.5,1,2,5,10,20,50,100"


@pytest.mark.parametrize(
    "argv",
    [
        ["backtest", "--trace", TRACE, *BAND_ARGS, "--mode", "fulltrace", "--include-bids"],
        ["sweep", "--trace", TRACE, *BAND_ARGS, "--kp", GRID_8, "--ki", GRID_8, "--format", "csv"],
    ],
    ids=["backtest-bids", "sweep-csv"],
)
def test_piped_stdout_equals_the_out_file(tmp_path, argv):
    # The process ends without interpreter teardown; standard output must
    # still carry every byte the --out file gets.
    out = tmp_path / "out"
    piped, to_file = (
        subprocess.run(
            [sys.executable, "-m", "spotbid.cli", *argv, *extra],
            capture_output=True, env=cli_env(), timeout=60,
        )
        for extra in ([], ["--out", str(out)])
    )
    assert (piped.returncode, piped.stderr, to_file.returncode) == (0, b"", 0)
    assert piped.stdout == out.read_bytes()


# A script that leaves "x" unflushed in standard output and registers an exit
# callback that writes to standard error without a line end, then calls run().
# A thread started with "thread" writes "late" once the interpreter has begun
# to shut down, which waits for it; os._exit would cut it off.
RUN_SCRIPT = """
import atexit, sys, threading
import spotbid.cli
sys.stdout.write("x")
atexit.register(sys.stderr.write, "atexit")
if sys.argv[1] == "thread":
    del sys.argv[1]
    late = lambda: (threading.main_thread().join(), sys.stdout.write("late"))
    threading.Thread(target=late).start()
spotbid.cli.run()
"""


@pytest.mark.parametrize("thread", [False, True], ids=["one-thread", "two-threads"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["ingest", "--trace", TRACE], 0),
        (["ingest", "--bogus"], 1),
        (["ingest", "--trace", "/nonexistent.csv"], 2),
    ],
    ids=["success", "usage-error", "data-error"],
)
def test_run_flushes_and_runs_exit_callbacks(capsys, argv, code, thread):
    # run() exits with main's code; what main writes, and what an exit
    # callback and a late thread write, all arrive.
    assert main(argv) == code
    expected = capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", RUN_SCRIPT, *(["thread"] if thread else []), *argv],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == code
    assert proc.stdout == "x" + expected.out + ("late" if thread else "")
    assert proc.stderr == expected.err + "atexit"
    if code == 2:
        assert expected.err == (
            "error: cannot read /nonexistent.csv: [Errno 2] No such file or "
            "directory: '/nonexistent.csv'\n"
        )


def test_run_without_stdout_still_ends_in_os_exit(monkeypatch, tmp_path):
    # A process started with descriptor 1 closed has no sys.stdout; a run
    # that writes its --out file still ends in os._exit, not sys.exit.
    argv = ["synth", *BAND_ARGS, "--points", "50"]
    expected = tmp_path / "expected.csv"
    assert main([*argv, "--out", str(expected)]) == 0
    out, exits = tmp_path / "out.csv", []
    monkeypatch.setattr(sys, "argv", ["spotbid", *argv, "--out", str(out)])
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: None)  # pytest's own
    monkeypatch.setattr(sb.cli, "_watched", lambda: False)  # under coverage, say
    monkeypatch.setattr(os, "_exit", exits.append)
    with pytest.raises(SystemExit):  # run() goes on to sys.exit past the recorder
        sb.cli.run()
    assert exits == [0]
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["ingest", "--trace", TRACE], 0),
        ([], 1),
        (["ingest", "--bogus"], 1),
        (["ingest", "--trace", "/nonexistent.csv"], 2),
    ],
)
def test_main_returns_its_code_in_process(monkeypatch, capsys, argv, code):
    # main() is the library entry: it returns, and only run() exits.
    monkeypatch.setattr(sys, "argv", ["spotbid", *argv])
    assert main() == code
    assert type(main(argv)) is int


GRID_1500 = ",".join(str(k) for k in range(1, 1501))


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS as Linux enforces it")
@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["sweep", "--kp", GRID_1500, "--ki", GRID_1500], 1,
         "error: a sweep of 2250000 cells is above the limit of 250000 cells\n"),
        (["backtest", "--strategies", ",".join(["mean"] * 20_000)], 1,
         "error: 20000 strategies are above the limit of 64 strategies\n"),
        (["backtest"], 0, ""),
    ],
    ids=["sweep-grid", "strategy-list", "plain-backtest"],
)
def test_out_of_memory_is_a_data_error(argv, code, stderr):
    # A 2.25M-cell grid and 20,000 strategies would each outgrow 400 MB;
    # both are refused as usage errors before anything is allocated.  A
    # plain backtest runs well within the limit.  Only the child runs under
    # it.  test_aws_fork covers a run that does exhaust memory.
    command, *flags = argv
    proc = subprocess.run(
        [sys.executable, "-m", "spotbid.cli", command, "--trace", TRACE, *BAND_ARGS, *flags],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=cli_env(),
        timeout=120, preexec_fn=limit_address_space,
    )
    assert (proc.returncode, proc.stderr) == (code, stderr)


# ------------------------------------------------ no argv reaches exit 3

FUZZ_FLOATS = ["nan", "inf", "-inf", "-0.0", "0", "1e308", "5e-324", "", "x", "-1", "1", "10"]
FUZZ_BAND = ["0.256", "2.6", "1", "nan", "inf", "-inf", "-0.0", "0", "1e308", "5e-324", ""]
# At most 3 values each, so a sweep holds at most 81 cells of 50 steps, 0.9 ms
# of feedback cost, far below engine.FORK_MIN_NS: the gate never forks.
FUZZ_LISTS = FUZZ_FLOATS + ["1,,2", "1,1", "10,1,10", "0.5,1,2", ",", "nan,1", "1e308,1", "-0.0,0"]
FUZZ_LABELS = ["c4.xlarge", "us-east-1b", "Linux/UNIX", "", "5"]
FUZZ_STRATEGIES = [
    "feedback", "feedback,feedback", "", "minimum,mean,high,current,ondemand,feedback",
    "martingale", "mean,,high", " current ",
]


@pytest.fixture(scope="module")
def fuzz_flags(tmp_path_factory):
    """Each subcommand's flags, mapped to the values the gate draws for them
    (None for a switch), over files that hold at most 50 points."""
    tmp = tmp_path_factory.mktemp("fuzz")
    trace = tmp / "trace50.csv"
    config = sb.SynthConfig((0.256, 2.6), 50, hold_steps_mean=3, seed=7)
    trace.write_text(sb.to_csv(sb.synth_step_hold(config)))
    empty = tmp / "empty"
    empty.write_bytes(b"")
    missing, out = str(tmp / "missing"), str(tmp / "out")
    inputs = {
        "--trace": [str(trace), str(trace), AWS, str(empty), missing, str(tmp)],
        "--aws-json": [AWS, AWS, str(trace), str(empty), missing],
        "--instance-type": FUZZ_LABELS,
        "--product": FUZZ_LABELS,
        "--zone": FUZZ_LABELS,
    }
    band = {"--floor": FUZZ_BAND, "--ceiling": FUZZ_BAND}
    outputs = {"--out": [out, "-", str(tmp), missing + "/out"]}
    formats = {"--format": ["json", "csv", "xml", ""]}
    return {
        "ingest": {**inputs, **outputs, **formats},
        "backtest": {
            **inputs, **band, **outputs, **formats,
            "--strategies": FUZZ_STRATEGIES,
            "--kp": FUZZ_FLOATS,
            "--ki": FUZZ_FLOATS,
            "--pre-delta": FUZZ_FLOATS,
            "--post-delta": FUZZ_FLOATS,
            "--mode": ["causal", "fulltrace", "x"],
            "--initial-bid": FUZZ_FLOATS,
            "--plot-dir": [str(tmp / "plots"), str(trace), str(trace / "sub")],
            "--include-bids": None,
            "--no-include-bids": None,
            "--allow-positive-gains": None,
        },
        "sweep": {
            **inputs, **band, **outputs, **formats,
            "--kp": FUZZ_LISTS,
            "--ki": FUZZ_LISTS,
            "--pre-delta": FUZZ_LISTS,
            "--post-delta": FUZZ_LISTS,
            "--initial-bid": FUZZ_FLOATS,
        },
        "synth": {
            **band, **outputs,
            "--points": ["1", "2", "50", "0", "-1", "", "nan", "1e308", "5e-324"],
            "--hold-mean": ["1", "5", "0", "-1", "", "nan"],
            "--step-scale": FUZZ_FLOATS,
            "--seed": ["0", "1", "-1", str(2**64), "", "x"],
        },
    }


def test_fuzz_gate_draws_every_flag_of_every_subcommand(fuzz_flags):
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(fuzz_flags)
    for name, subparser in commands.choices.items():
        flags = {flag for action in subparser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == set(fuzz_flags[name]), name


def _parsed(parser, argv):
    """What parse_args gives for argv: the namespace or the exit code, and
    the text written to stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize(
    "tail",
    [
        ["--help"],
        [],
        ["--trace", TRACE, *BAND_ARGS],
        ["--trace", TRACE, "--aws-json", AWS, *BAND_ARGS],
        ["--floor", "x", "--ceiling", "nan", "--points", "1.5"],
        ["--kp", "-1", "--ki", "1,x", "--mode", "sideways", "--format", "xml"],
        ["--bogus", "--trace"],
        ["backtest"],
    ],
    ids=["help", "bare", "usual", "two-sources", "bad-numbers", "bad-choices",
         "unknown-flag", "command-twice"],
)
@pytest.mark.parametrize("command", ["ingest", "backtest", "sweep", "synth"])
def test_a_parser_built_for_its_command_reads_argv_as_the_full_parser(command, tail):
    # The help text, each usage error and its exit code, and the parsed
    # flags; tails that do not fit the command are usage errors to compare.
    argv = [command, *tail]
    assert _parsed(build_parser(command), argv) == _parsed(build_parser(), argv)


def test_main_builds_only_the_subcommand_that_runs(monkeypatch, capsys):
    def actions_built(argv):
        """The number of actions of each subparser main built for argv."""
        parsers = []
        monkeypatch.setattr(sb.cli, "build_parser", lambda command=None: parsers.append(
            build_parser(command)) or parsers[-1])
        main(argv)
        (commands,) = [a for a in parsers[0]._actions
                       if isinstance(a, argparse._SubParsersAction)]
        return {name: len(sub._actions) for name, sub in commands.choices.items()}

    built = actions_built(["synth", *BAND_ARGS, "--points", "3"])
    assert built.pop("synth") > 1
    assert set(built.values()) == {1}  # --help alone
    assert min(actions_built(["--help"]).values()) > 1
    capsys.readouterr()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_no_argv_reaches_an_internal_error(fuzz_flags, data):
    command = data.draw(st.sampled_from(sorted(fuzz_flags)))
    flags = fuzz_flags[command]
    # A run that would work, less any flag it needs (but --points, whose
    # default is 1000), then up to 4 drawn flags; argparse keeps the last
    # value of a flag given twice, so a drawn one can swap the band, say.
    usual = {"--trace": flags.get("--trace", [""])[0], "--floor": "0.256",
             "--ceiling": "2.6", "--points": "50"}
    argv = [command]
    for flag, value in usual.items():
        if flag in flags and (flag == "--points" or data.draw(st.integers(0, 7))):
            argv += [flag, value]
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        values = flags[flag]
        argv += [flag] if values is None else [flag, data.draw(st.sampled_from(values))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    assert "internal error" not in stderr.getvalue()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 1e16, 0.1]
JSON_FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
# Besides any text: the report's own keys and text that looks like its
# layout, which a writer that searched its output would misread.
JSON_TEXT = st.text() | st.sampled_from(
    ["", "é", "日本", "\u2028", 'a "quoted" \\ \n\t\x00', "1.0, 2.0",
     "bids", "strategies", '"bids": []', ',\n      "bids": [\n    }']
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | JSON_FLOATS
    | JSON_TEXT
    # all-float lists, as lists and as tuples, and lists mixing them with
    # ints or bools
    | st.lists(JSON_FLOATS, min_size=1)
    | st.lists(JSON_FLOATS, min_size=1).map(tuple)
    | st.lists(JSON_FLOATS | st.integers() | st.booleans(), min_size=1)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children) | st.dictionaries(JSON_TEXT, children),
    max_leaves=20,
)


# Bids for the report writer's fast path (finite, 1e-4 <= bid < 1e9) and
# for its round() fallback: both window edges and their neighbours, values
# that round up to an edge, decimal halfway points k/1e6 + 5e-7, exact
# binary ties n/128 (n odd), and the signed zeros, NaN, infinities,
# subnormals, negatives and huge values the window leaves out.
INSIDE_EDGES = [
    1e-4,
    math.nextafter(1e-4, math.inf),
    math.nextafter(1e9, 0.0),
    999999999.9999995,  # rounds up to 1e9
    0.0078125,  # 2**-7, an exact tie at 6 places
]
OUTSIDE_EDGES = [
    math.nextafter(1e-4, 0.0),
    0.0000999995,  # rounds up to 1e-4
    1e9,
    math.nextafter(1e9, math.inf),
]
OUTSIDE_WINDOW = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, -1.5, 1e308
]
IN_WINDOW_BIDS = (
    st.floats(min_value=1e-4, max_value=1e9, exclude_max=True)
    | st.integers(100, 10**15 - 1).map(lambda k: k / 1e6 + 5e-7)
    | st.integers(0, 6 * 10**10).map(lambda n: (2 * n + 1) / 128)
    | st.sampled_from(INSIDE_EDGES + [0.256, 2.6])
)
# Values next to the window, each in a run among in-window values, tell
# whether the window's bounds are the right ones.
NEAR_WINDOW_BIDS = (
    st.floats(min_value=1e-7, max_value=1e-4, exclude_max=True)
    | st.floats(min_value=1e9, max_value=1e17)
    | st.sampled_from(OUTSIDE_EDGES + OUTSIDE_WINDOW)
)


def bid_runs(values):
    # Runs of repeated bids, as a held bid gives.
    return st.lists(st.tuples(values, st.integers(1, 40)), max_size=8).map(
        lambda runs: tuple(bid for bid, count in runs for _ in range(count))
    )


# Longer tuples for the writer's two fast paths: all-distinct bids (formatted
# piece by piece), runs repeated many times (few distinct bids, formatted
# once each into a table), and repeated runs before distinct bids, whose
# head passes the table's gate while the whole tuple does not.
DISTINCT_BIDS = st.builds(
    lambda start, step, count: tuple(start + step * k for k in range(count)),
    st.floats(1e-4, 1e3),
    st.floats(1e-9, 1.0),
    st.integers(0, 3000),
)
LONG_BIDS = (
    DISTINCT_BIDS
    | st.tuples(bid_runs(IN_WINDOW_BIDS | NEAR_WINDOW_BIDS), st.integers(2, 60)).map(
        lambda runs_times: runs_times[0] * runs_times[1]
    )
    | st.tuples(bid_runs(IN_WINDOW_BIDS), DISTINCT_BIDS).map(
        lambda head_tail: head_tail[0] * 8 + head_tail[1]
    )
)


REPORT_BASE = sb.backtest(
    make_trace([0.5, 1.0, 0.75]),
    [
        sb.StrategySpec(kind=sb.StrategyKind.ONDEMAND),
        sb.StrategySpec(kind=sb.StrategyKind.HIGH),
    ],
    sb.PriceBand(floor=0.256, ceiling=2.600),
    config_echo={"trace": 'a "quoted",\nname'},
)


@settings(deadline=None)
@given(
    bid_runs(IN_WINDOW_BIDS)
    | bid_runs(IN_WINDOW_BIDS | NEAR_WINDOW_BIDS)
    | bid_runs(st.floats())
    | LONG_BIDS
)
@example(())
@example(tuple(INSIDE_EDGES + OUTSIDE_EDGES))
@example(tuple(INSIDE_EDGES))
@example((1.0, math.nan, 2.0))  # a NaN after the first item
@example((1.0, 5e-05))  # repr writes 5e-05
@example((1.0, 123456789012.34567))  # repr writes 17 digits
@example((1.0, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1.5))
@example((0.2500005,) * 50 + (1.0000004999,) * 50)
@example(tuple(k / 1e6 + 5e-7 for k in range(100, 200)))
@example(tuple(0.256 + k * 3.3e-5 for k in range(70_000)))  # two pieces, bulk
@example((0.3, 2.6, 1.25) * 23_000)  # two pieces, table
@example((0.5,) * 1100 + tuple(0.256 + k * 3.3e-5 for k in range(5000)))
@example((0.3,) * 2000 + (-0.0, 0.3, 0.0, 2.6))  # the signed zeros, with the table's gate
@example((0.3,) * 2000 + (0.0, 0.3, -0.0, 2.6))
@example((2.6,) * 2000 + (math.nan, 2.6, -math.nan))
def test_render_report_bids_match_json_dumps_indent(bids):
    results = tuple(
        result._replace(series=result.series._replace(bids=bids))
        for result in REPORT_BASE.results
    )
    report = REPORT_BASE._replace(results=results)
    expected = json.dumps(report_to_obj(report, True), indent=2) + "\n"
    got = render_report(report, "json", True)
    # Line by line, so that a failure's message stays short while
    # hypothesis shrinks it.
    for line, expected_line in zip(got.splitlines(True), expected.splitlines(True)):
        assert line == expected_line
    assert len(got) == len(expected)


@settings(deadline=None)
@given(
    config_echo=JSON_VALUES,
    labels=st.tuples(JSON_TEXT, JSON_TEXT, JSON_TEXT),
    warnings=st.lists(JSON_TEXT, max_size=3),
    include_bids=st.booleans(),
)
@example(  # dicts at depths 2 and 3 under the report's own key names
    config_echo={"bids": {"strategies": {"bids": []}}, "strategies": [{"bids": {}}]},
    labels=('"bids": []', "a\nb", 'say "hi"'),
    warnings=['"bids": [],\n'],
    include_bids=True,
)
@example(config_echo='"bids": []', labels=("", "", ""), warnings=[], include_bids=False)
def test_render_report_matches_json_dumps_of_report_to_obj(
    config_echo, labels, warnings, include_bids
):
    # config_echo holds user strings, and through the Python API any JSON
    # value; none of it may change the layout around the bids.
    instance_type, product, zone = labels
    report = REPORT_BASE._replace(
        trace_meta=REPORT_BASE.trace_meta._replace(
            instance_type=instance_type, product=product, zone=zone
        ),
        config_echo=config_echo,
        warnings=tuple(warnings),
    )
    expected = json.dumps(report_to_obj(report, include_bids), indent=2) + "\n"
    assert render_report(report, "json", include_bids) == expected


def _spy_on_fixed(monkeypatch):
    """A list that gets the length of each tuple _bids_json formats."""
    formatted = []

    def spy(values):
        formatted.append(len(values))
        return _fixed(values)

    monkeypatch.setattr("spotbid.cli._fixed", spy)
    return formatted


def test_bids_inside_window_skip_round(monkeypatch):
    def no_round(bids):
        raise AssertionError("round() path taken inside the window")

    monkeypatch.setattr("spotbid.cli._rounded", no_round)
    formatted = _spy_on_fixed(monkeypatch)
    # 15 bids with 5 distinct take the bulk path (all but the last bid, then
    # the last); 100 bids with the same 5 take the table path.
    for copies, calls in ((3, [14, 1]), (20, [5])):
        bids = tuple(INSIDE_EDGES) * copies
        expected = json.dumps([round(bid, 6) for bid in bids], indent=2)
        formatted.clear()
        assert "".join(_bids_json(bids, 0)) == expected
        assert formatted == calls


@pytest.mark.parametrize(
    "bids, calls",
    [
        ((2.6,) * 25_001, [1]),
        ((0.256, 2.6) * 3000, [2]),
        (tuple(0.256 + k * 3.3e-5 for k in range(5000)), [4999, 1]),
        ((0.5,) * 1100 + tuple(0.256 + k * 3.3e-5 for k in range(5000)), [6099, 1]),
    ],
    ids=["constant", "two-values", "distinct", "few-distinct-head"],
)
def test_bids_json_formats_each_distinct_bid_once_when_few(monkeypatch, bids, calls):
    # A silent fall-back from the table to the bulk path formats every bid.
    # One piece holds every bid here, so the calls count formatting alone.
    monkeypatch.setattr("spotbid.cli._BIDS_PER_PIECE", 65_536)
    formatted = _spy_on_fixed(monkeypatch)
    expected = json.dumps([round(bid, 6) for bid in bids], indent=2)
    assert "".join(_bids_json(bids, 0)) == expected
    assert formatted == calls


@pytest.mark.parametrize("per_piece", [1, 2, 3, 5])
def test_bids_json_piece_edges(monkeypatch, per_piece):
    monkeypatch.setattr("spotbid.cli._BIDS_PER_PIECE", per_piece)
    distinct = tuple(0.25 + k / 64 for k in range(4 * per_piece + 2))
    below = tuple(1e-5 + k * 1e-6 for k in range(len(distinct)))  # round()'s path
    for bids in (distinct, (2.6,) * len(distinct), (0.3, 2.6) * len(distinct), below):
        for count in range(1, len(bids) + 1):
            expected = json.dumps([round(bid, 6) for bid in bids[:count]], indent=2)
            pieces = list(_bids_json(bids[:count], 0))
            assert "".join(pieces) == expected
            # Each bid but the last is written with its separating comma.
            assert max(piece.count(",") for piece in pieces) <= per_piece
            assert len(pieces) == 2 + -(-(count - 1) // per_piece)


@pytest.mark.parametrize(
    "bids",
    [
        # The longest text a float can have, with its separator at depth 3:
        # 24 + 10 characters.
        (-1.2345678901234567e+300,) * (3 * _BIDS_PER_PIECE + 1),
        tuple(0.256 + k * 7.8e-6 for k in range(3 * _BIDS_PER_PIECE + 1)),
        (0.256, 2.6, 1.2345678) * _BIDS_PER_PIECE + (0.3,),  # written from a table
    ],
    ids=["longest", "distinct", "table"],
)
def test_bids_json_pieces_hold_at_most_64_kib(bids):
    # A kept text is held, and crosses a fork's pipe, in these pieces.
    pieces = list(_bids_json(bids, 3))
    expected = json.dumps([round(bid, 6) for bid in bids], indent=2)
    assert "".join(pieces) == expected.replace("\n", "\n      ")
    assert len(pieces) == 5
    assert max(map(len, pieces)) <= 65_536


@pytest.mark.parametrize(
    "start, step, limit",
    [
        # 300k distinct bids make 5.4 MB of text.  Built whole, the text and
        # its copies peaked at 13.4 MB (tracemalloc, Python 3.11), and 44.7 MB
        # at 1M bids; written in pieces of 65,536 bids, 2.3 MB at either, and
        # in pieces of _BIDS_PER_PIECE (1,927) bids, 0.08 MB.
        (0.256, 7.8e-6, 6_000_000),
        # Below 1e-4 each piece is rounded and written by the C encoder: 6.8 MB
        # at 300k bids and at 1M in pieces of 65,536 bids, 0.25 MB in pieces
        # of 1,927.  Rounded and written whole, they peaked at 24.8 MB and
        # 82.9 MB.
        (1e-5, 3e-10, 12_000_000),
    ],
    ids=["in-window", "below-window"],
)
def test_bids_json_pieces_bound_transient_memory(start, step, limit):
    bids = tuple(start + k * step for k in range(300_000))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        size = sum(map(len, _bids_json(bids, 3)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert size > 5_000_000
    assert peak < limit


@pytest.mark.parametrize("include_bids", [True, False])
def test_render_report_matches_json_dumps_indent(stephold_trace, include_bids):
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    specs = [
        sb.StrategySpec(kind=sb.StrategyKind.FEEDBACK, gains=sb.PiGains(kp=5.0, ki=5.0)),
        sb.StrategySpec(kind=sb.StrategyKind.MINIMUM),
        sb.StrategySpec(kind=sb.StrategyKind.ONDEMAND),
    ]
    report = sb.backtest(
        stephold_trace,
        specs,
        band,
        allow_positive_gains=True,
        config_echo={"trace": "t.csv", "initial_bid": None, "kp": [5.0, 5.0]},
    )
    assert report.warnings  # a non-empty list of strings is covered too
    expected = json.dumps(report_to_obj(report, include_bids), indent=2) + "\n"
    assert render_report(report, "json", include_bids) == expected


def test_import_leaves_concurrent_futures_unloaded(tmp_path):
    # Nothing uses a thread or process pool (a large sweep forks with os
    # alone), only a log record needs logging and only synth needs random;
    # plain runs pay for none of these imports,
    # nor for dataclasses and the inspect module it pulls in, nor for
    # pathlib.  site may import typing, pathlib and random before spotbid
    # loads (a .pth file can), so pathlib and random are checked only in a
    # run under -S, which skips site.
    code = (
        "import json, sys, spotbid.cli\n"
        "unwanted, runs = json.loads(sys.argv[1])\n"
        "print([name for name in unwanted if name in sys.modules])\n"
        "for argv in runs:\n"
        "    code = spotbid.cli.main(argv)\n"
        "    print([name for name in unwanted if name in sys.modules], code)\n"
    )
    runs = [
        ["backtest", "--trace", TRACE, *BAND_ARGS, "--out", str(tmp_path / "r.json")],
        [
            "sweep", "--trace", TRACE, *BAND_ARGS, "--kp", "1,10", "--ki", "1,10",
            "--out", str(tmp_path / "s.json"),
        ],
    ]
    unwanted = ["concurrent.futures", "dataclasses", "inspect", "logging", "multiprocessing"]
    for flags, names in [([], unwanted), (["-S"], unwanted + ["pathlib", "random"])]:
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code, json.dumps([names, runs])],
            capture_output=True, text=True, env=cli_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n[] 0\n[] 0\n"


def test_all_names_the_imported_public_api():
    assert sb.__all__[-1] == "__version__"
    assert all(not isinstance(getattr(sb, name), type(sb)) for name in sb.__all__)
    assert {"PriceTrace", "format_timestamp", "backtest", "DataError"} <= set(sb.__all__)
    assert not {"PricePoint", "trace", "engine"} & set(sb.__all__)
    # Names that only the package's own code needs stay in their modules.
    assert not {
        "initial_bid_default", "pareto", "resolve_initial_bid", "validate_spec",
        "STAT_KINDS", "TraceMeta", "StrategyResult",
    } & set(dir(sb))
