"""Command-line behaviour: exit codes, formats, plot data, determinism."""
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import spotbid as sb
from spotbid.cli import (
    _bids_json,
    _json,
    main,
    render_report,
    report_to_obj,
    trace_to_json,
)
from conftest import FIXTURES, cli_env, make_trace

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


def test_ingest_json_format(capsys):
    assert run(["ingest", "--aws-json", AWS, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["points"]) == 5
    assert doc["points"][0]["timestamp"] == "2015-05-03T00:20:06Z"


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
    # The report is written piece by piece, each bids array one piece.  Above
    # its level when the replay returns, the run allocates less than the
    # report's own size; held whole, the text alone is that size.
    trace = tmp_path / "trace.csv"
    assert run(["synth", *BAND_ARGS, "--points", "20000", "--out", str(trace)]) == 0
    out = tmp_path / "report.json"
    replayed = []

    def backtest(*args, **kwargs):
        report = sb.backtest(*args, **kwargs)
        replayed.append((report, tracemalloc.get_traced_memory()[0]))
        tracemalloc.reset_peak()
        return report

    monkeypatch.setattr("spotbid.cli.backtest", backtest)
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


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 1e16, 0.1]
JSON_FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
JSON_TEXT = st.text() | st.sampled_from(
    ["", "é", "日本", "\u2028", 'a "quoted" \\ \n\t\x00', "1.0, 2.0"]
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | JSON_FLOATS
    | JSON_TEXT
    # all-float lists take the writer's C-encoder path
    | st.lists(JSON_FLOATS, min_size=1)
    | st.lists(JSON_FLOATS, min_size=1).map(tuple)
    # lists mixing floats with ints or bools do not
    | st.lists(JSON_FLOATS | st.integers() | st.booleans(), min_size=1)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children) | st.dictionaries(JSON_TEXT, children),
    max_leaves=20,
)


@given(JSON_VALUES)
@example([0.5, "1.0, 2.0"])
@example({"bids": [math.nan, -0.0, [1.5]], "n": [1.5, 2, True]})
def test_json_writer_matches_json_dumps_indent(value):
    assert "".join(_json(value)) == json.dumps(value, indent=2)


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


REPORT_BASE = sb.backtest(
    make_trace([0.5, 1.0, 0.75]),
    [
        sb.StrategySpec(kind=sb.StrategyKind.ONDEMAND),
        sb.StrategySpec(kind=sb.StrategyKind.HIGH),
    ],
    sb.PriceBand(floor=0.256, ceiling=2.600),
    config_echo={"trace": 'a "quoted",\nname'},
)


@given(
    bid_runs(IN_WINDOW_BIDS)
    | bid_runs(IN_WINDOW_BIDS | NEAR_WINDOW_BIDS)
    | bid_runs(st.floats())
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


def test_bids_inside_window_skip_round(monkeypatch):
    bids = tuple(INSIDE_EDGES) * 3
    expected = json.dumps([round(bid, 6) for bid in bids], indent=2)

    def no_round(bids):
        raise AssertionError("round() path taken inside the window")

    monkeypatch.setattr("spotbid.cli._rounded", no_round)
    assert _bids_json(bids, 0) == expected


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


# Stamps anywhere in years 1-9999 and prices the C encoder writes in
# every form, with labels that need escaping.
TRACE_COLUMNS = st.lists(
    st.tuples(
        st.integers(min_value=-62135596800, max_value=253402300799),
        st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, 5e-324]),
    ),
    max_size=12,
)


@given(TRACE_COLUMNS, JSON_TEXT)
@example([], "")
@example([(0, 1.0), (86399, math.nan), (86400, -math.inf)], 'a "quoted"\nlabel \u00e9')
def test_trace_to_json_matches_json_dumps_indent(rows, label):
    trace = sb.PriceTrace(
        tuple(stamp for stamp, _ in rows),
        tuple(price for _, price in rows),
        instance_type=label,
        zone="us-east-1b",
    )
    obj = {
        "instance_type": label,
        "product": "",
        "zone": "us-east-1b",
        "points": [
            {"timestamp": sb.format_timestamp(stamp), "price": price}
            for stamp, price in rows
        ],
    }
    assert trace_to_json(trace) == json.dumps(obj, indent=2) + "\n"


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
