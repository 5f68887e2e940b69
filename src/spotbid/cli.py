"""Command-line entry point: ingest, backtest, sweep, synth.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 internal
error.  The SPOTBID_LOG environment variable (error, warn, info, debug)
controls diagnostic verbosity on standard error.

main(argv) runs one command and returns its exit code; a library caller
gets it back.  run(), the process entry, then runs the atexit callbacks,
flushes standard output and standard error, and ends the process without
tearing the interpreter down (see run).

Gains are accepted as positive magnitudes: `--kp 10` applies kp = -10,
because only negative gains steer bids toward the price.  The
--allow-positive-gains flag flips the applied sign to +magnitude for
exploring what non-corrective control does; such reports carry a warning.
"""
from __future__ import annotations

import argparse
import atexit
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator

from . import forking
from .band_model import PriceBand
from .controller import PiGains
from .engine import (
    ENGINE_VERSION,
    BacktestReport,
    SweepConfig,
    SweepPoint,
    backtest,
    backtest_text,
    sweep,
)
from .errors import DataError, UsageError
from .strategies import (
    STAT_KINDS,
    Adjustments,
    StatMode,
    StrategyKind,
    StrategySpec,
)
from .trace import (
    PriceTrace,
    SynthConfig,
    TraceFilter,
    csv_blocks,
    format_timestamps,
    parse_aws_json,
    parse_csv,
    synth_step_hold,
    to_csv,  # unused here; the traced benchmark run and tests reach it as cli.to_csv
    validate,
)

# logging's numeric levels, named as SPOTBID_LOG spells them.
_LOG_LEVELS = {"error": 40, "warn": 30, "info": 20, "debug": 10}
_log_level = _LOG_LEVELS["warn"]

_ALL_STRATEGIES = ",".join(kind.value for kind in StrategyKind)

# Namespace keys that cannot change the numbers: the subcommand and output
# routing.  config_echo leaves them out so equivalent runs (any destination)
# write byte-identical reports.
_NOT_ECHOED = frozenset(("command", "handler", "out", "format", "plot_dir"))

# Bids the report writer formats at a time.  A bid's text takes at most 24
# characters ("-1.2345678901234567e+300").  A kept piece adds its "," to
# each, so it holds at most 48,175 characters; a kept text is held, and
# crosses a fork's pipe, in these pieces.  Laid out at depth 3, a bid and its
# separator take at most 34 (",\n" and 8 spaces), so a written piece holds
# at most 65,518 characters.
_BIDS_PER_PIECE = 1_927


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(part) for part in text.split(","))


# ---------------------------------------------------------------- parsing


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error in a process started with
    descriptor 2 closed writes nothing: there print_usage(sys.stderr)
    would fall back to standard output, the command's data stream.  An
    argument that starts with "-" and a digit or ".digit" (-0.05,0 or
    -1e-3, which argparse takes for flags) is a value: no flag starts so."""

    def _parse_optional(self, arg_string: str) -> object:
        if re.match(r"-\.?\d", arg_string):
            return None  # a value
        return super()._parse_optional(arg_string)

    def error(self, message: str) -> None:
        if sys.stderr is None:
            self.exit(2)
        super().error(message)


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", metavar="PATH", help="timestamp,price CSV trace")
    source.add_argument(
        "--aws-json", metavar="PATH", help="spot-price-history JSON export"
    )
    parser.add_argument(
        "--instance-type", help="keep only records with this instance type"
    )
    parser.add_argument("--product", help="keep only records with this product/OS")
    parser.add_argument("--zone", help="keep only records with this availability zone")


def _add_band_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--floor",
        type=_finite_float,
        required=True,
        help="price floor (lowest spot price)",
    )
    parser.add_argument(
        "--ceiling",
        type=_finite_float,
        required=True,
        help="price ceiling (on-demand price)",
    )


def _add_output_flags(parser: argparse.ArgumentParser, *formats: str) -> None:
    """--out, and --format when formats are given; the first is the default."""
    parser.add_argument(
        "--out", metavar="PATH", help="output path (default: standard output)"
    )
    if formats:
        parser.add_argument(
            "--format", choices=formats, default=formats[0], help="output format"
        )


def _add_ingest(ingest: argparse.ArgumentParser) -> None:
    _add_input_flags(ingest)
    _add_output_flags(ingest, "csv")
    ingest.set_defaults(handler=_cmd_ingest)


def _add_backtest(bt: argparse.ArgumentParser) -> None:
    _add_input_flags(bt)
    _add_band_flags(bt)
    bt.add_argument(
        "--strategies",
        default=_ALL_STRATEGIES,
        help=f"comma-separated strategy list (default: {_ALL_STRATEGIES})",
    )
    bt.add_argument(
        "--kp",
        type=_positive_float,
        default=10.0,
        help="proportional gain magnitude (applied negative; default 10)",
    )
    bt.add_argument(
        "--ki",
        type=_positive_float,
        default=10.0,
        help="integral gain magnitude (applied negative; default 10)",
    )
    bt.add_argument(
        "--pre-delta",
        type=_finite_float,
        default=0.0,
        help="shift each reference price before the controller sees it",
    )
    bt.add_argument(
        "--post-delta",
        type=_finite_float,
        default=0.0,
        help="shift each emitted bid (clamped into the band)",
    )
    bt.add_argument(
        "--mode",
        choices=("causal", "fulltrace"),
        default="causal",
        help="how minimum/mean/high read the price history",
    )
    bt.add_argument(
        "--initial-bid",
        type=_finite_float,
        help="first standing bid (default: half the ceiling)",
    )
    _add_output_flags(bt, "json", "csv")
    bt.add_argument(
        "--plot-dir",
        metavar="PATH",
        help="also write per-strategy trajectory CSVs and comparison.csv here",
    )
    bt.add_argument(
        "--include-bids",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="include full bid arrays in the JSON report "
        "(default: on below 100000 points)",
    )
    bt.add_argument(
        "--allow-positive-gains",
        action="store_true",
        help="apply gains as +magnitude instead of -magnitude (adds a warning)",
    )
    bt.set_defaults(handler=_cmd_backtest)


def _add_sweep(sw: argparse.ArgumentParser) -> None:
    _add_input_flags(sw)
    _add_band_flags(sw)
    for flag, default, what in (
        ("--kp", 10.0, "proportional gain magnitudes (applied negative)"),
        ("--ki", 10.0, "integral gain magnitudes (applied negative)"),
        ("--pre-delta", 0.0, "reference-price shifts"),
        ("--post-delta", 0.0, "emitted-bid shifts"),
    ):
        sw.add_argument(
            flag, type=_float_list, default=(default,), help=f"comma-separated {what}"
        )
    sw.add_argument(
        "--initial-bid",
        type=_finite_float,
        help="first standing bid (default: half the ceiling)",
    )
    _add_output_flags(sw, "json", "csv")
    sw.set_defaults(handler=_cmd_sweep)


def _add_synth(sy: argparse.ArgumentParser) -> None:
    _add_band_flags(sy)
    sy.add_argument(
        "--points", type=int, default=1000, help="number of trace points"
    )
    sy.add_argument(
        "--hold-mean",
        type=int,
        default=1,
        help="mean steps a price level holds before jumping",
    )
    sy.add_argument(
        "--step-scale",
        type=_finite_float,
        default=0.1,
        help="maximum jump magnitude between levels",
    )
    sy.add_argument("--seed", type=int, default=0, help="generator seed")
    _add_output_flags(sy)
    sy.set_defaults(handler=_cmd_synth)


# Each subcommand by name: its help line and what adds its arguments.
_COMMANDS = {
    "ingest": ("parse, filter, validate, and normalize a price trace", _add_ingest),
    "backtest": ("replay strategies against a trace and score them", _add_backtest),
    "sweep": ("grid-sweep feedback gains/adjustments and mark the frontier", _add_sweep),
    "synth": ("generate a deterministic step-hold price trace", _add_synth),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The spotbid parser.  Every subcommand is added with its help line, so
    usage and errors above the subcommand read the same either way; with a
    command, only that subcommand gets its arguments, which saves building
    the other three (a few ms per run)."""
    parser = _Parser(
        prog="spotbid",
        description="Deterministic backtesting of spot-price bidding strategies.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        subparser = commands.add_parser(name, help=help_line)
        if command is None or command == name:
            add_arguments(subparser)
    return parser


# ------------------------------------------------------------ serialization


def _spec_obj(spec: StrategySpec) -> dict[str, object]:
    return {
        "kind": spec.kind.value,
        "gains": None if spec.gains is None else spec.gains._asdict(),
        **spec.adjustments._asdict(),
        "initial_bid": spec.initial_bid,
        "stat_mode": None if spec.stat_mode is None else spec.stat_mode.value,
    }


def _trace_obj(report: BacktestReport) -> dict[str, object]:
    obj = report.trace_meta._asdict()
    obj["points"] = obj.pop("n_points")
    return obj


def _rounded(bids: tuple[float, ...]) -> list[float]:
    return [round(bid, 6) for bid in bids]


def report_to_obj(report: BacktestReport, include_bids: bool) -> dict[str, object]:
    """The JSON report as a value, with each bid rounded to 6 places."""
    strategies = []
    for result in report.results:
        entry: dict[str, object] = {
            "name": result.name,
            "spec": _spec_obj(result.series.spec),
            "metrics": {
                key: round(value, 6) for key, value in result.metrics._asdict().items()
            },
        }
        if include_bids:
            entry["bids"] = _rounded(result.series.bids)
        strategies.append(entry)
    return {
        "trace": _trace_obj(report),
        "band": report.band._asdict(),
        "strategies": strategies,
        "relative_rationality_set": {
            name: round(rr, 6) for name, rr in report.rationality_set()
        },
        "config_echo": report.config_echo,
        "warnings": list(report.warnings),
        "engine_version": report.engine_version,
    }


def _fixed(bids: tuple[float, ...]) -> str:
    """Each bid as "%.6f" with its trailing zeros stripped, then ","."""
    return (
        (("%.6f," * len(bids)) % bids)
        .replace("0000,", ",")
        .replace("00,", ",")
        .replace("0,", ",")
        .replace(".,", ".0,")
    )


def _bids_json(bids: tuple[float, ...]) -> Iterator[str]:
    """The kept text of a bids array: each value json.dumps(_rounded(bids))
    writes, followed by ",", in pieces of _BIDS_PER_PIECE bids (the last
    may hold fewer), and no piece for no bids.  It holds no layout, about 9
    characters a bid against 18 laid out at depth 3; _laid_out writes it as
    json.dumps(_rounded(bids), indent=2) lays the array out.

    When every bid is finite and 1e-4 <= bid < 1e9, one C call formats a
    piece's bids as "%.6f", and the trailing zeros are stripped down to one
    "0" after the point.  That is the text repr(round(bid, 6)) gives:
    - "%.6f" and round(x, 6) both round the exact binary value of x half to
      even at 6 places, so they reach the same decimal d.
    - 1e-4 <= d <= 1e9, so d has at most 15 significant digits (9 before
      the point and 6 after, or d = 1e9).  Decimals of at most 15
      significant digits read back as distinct doubles, so no shorter text
      reads back as round(x, 6), which is the double nearest d.
    - repr writes that shortest text, in fixed notation because
      1e-4 <= round(x, 6) < 1e16.
    Any other tuple (holding a NaN, an infinity, a zero, a subnormal, a
    negative or a bid of 1e9 or more) has each piece rounded and written by
    the C encoder, which writes a float as float.__repr__ (NaN and Infinity
    for the non-finite ones).  No float's text contains a ",", so the only
    ", " in its output are the separators, and each "," of the kept text
    ends a bid.

    When at most a quarter of the bids are distinct (a held bid, a running
    minimum), each distinct bid is formatted once into a table, and the bids
    are written by lookup.  That is exact: in the window every bid is a
    finite, nonzero double, and two such doubles are equal only when their
    bits are, so each bid finds the text it would get on its own.  +-0.0
    (equal, written differently) and NaN (equal to nothing) lie outside it.
    """
    if not bids:
        return
    head = bids[:1024]  # a cheap first test, so all-distinct bids skip set(bids)
    few = 4 * len(set(head)) <= len(head) and 4 * len(values := set(bids)) <= len(bids)
    values = tuple(values) if few else bids
    # min and max pass over a NaN after the first item, so isfinite goes first.
    if not (all(map(math.isfinite, values)) and 1e-4 <= min(values) and max(values) < 1e9):
        body = lambda piece: json.dumps(_rounded(piece))[1:-1].replace(", ", ",") + ","
    elif few:
        table = dict(zip(values, [text + "," for text in _fixed(values).split(",")]))
        body = lambda piece: "".join(map(table.__getitem__, piece))
    else:
        body = _fixed
    for start in range(0, len(bids), _BIDS_PER_PIECE):
        yield body(bids[start : start + _BIDS_PER_PIECE])


def _laid_out(text: Iterable[str], depth: int) -> Iterator[str]:
    """A kept bids text (see _bids_json) laid out as json.dumps(indent=2)
    writes the array at depth, a piece for each of its pieces after the
    array's first line: each "," becomes "," and a line end with the
    indent, and the last one the line that closes the array."""
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    pieces = iter(text)
    piece = next(pieces, "")
    if not piece:
        yield "[]"
        return
    yield "[" + pad
    for following in pieces:
        yield piece.replace(",", sep)
        piece = following
    yield piece[:-1].replace(",", sep) + pad[:-2] + "]"


def _report_pieces(
    report: BacktestReport, fmt: str, texts: Iterable[Iterable[str]] | None
) -> Iterator[str]:
    """render_report's text in pieces, where texts holds each result's kept
    bids text (see _bids_json) as its pieces, or is None for a report
    without bids.

    json.dumps(indent=2) writes each top-level value and, with bids, each
    strategy entry but its bids, which _laid_out writes from texts at depth
    3.  Each json.dumps text is indented to its depth by indenting its line
    ends: json.dumps escapes a line end inside a string, so every one it
    writes is layout.  So the text is that of
    json.dumps(report_to_obj(report, True), indent=2) + "\n".

    The backtest command writes the pieces one by one, so the whole report
    is never held as one text: at 1M points with bids it is about 95 MB.
    """
    if fmt == "json":
        sep = "{"
        for key, value in report_to_obj(report, False).items():
            yield f'{sep}\n  "{key}": '
            sep = ","
            if key != "strategies" or texts is None or not value:
                yield json.dumps(value, indent=2).replace("\n", "\n  ")
                continue
            opener = "["
            for entry, text in zip(value, texts):
                # The entry without its closing "\n}", then its bids.
                head = json.dumps(entry, indent=2)[:-2].replace("\n", "\n    ")
                yield f'{opener}\n    {head},\n      "bids": '
                yield from _laid_out(text, 3)
                yield "\n    }"
                opener = ","
            yield "\n  ]"
        yield "\n}\n"
        return
    lines = ["name,success_rate,distance,relative_rationality"]
    for result in report.results:
        m = result.metrics
        lines.append(
            f"{result.name},{m.success_rate:.6f},{m.distance:.6f},"
            f"{m.relative_rationality:.6f}"
        )
    yield "\n".join(lines) + "\n"


def render_report(report: BacktestReport, fmt: str, include_bids: bool) -> str:
    texts = None
    if include_bids:
        texts = [_bids_json(result.series.bids) for result in report.results]
    return "".join(_report_pieces(report, fmt, texts))


def render_sweep(
    points: list[SweepPoint],
    band: PriceBand,
    config_echo: dict[str, object],
    fmt: str,
) -> str:
    if fmt == "json":
        obj = {
            "band": band._asdict(),
            # Replacing a key keeps its place, so the field order stays.
            "points": [
                {
                    **p._asdict(),
                    "success_rate": round(p.success_rate, 6),
                    "distance": round(p.distance, 6),
                    "relative_rationality": round(p.relative_rationality, 6),
                }
                for p in points
            ],
            "config_echo": config_echo,
            "engine_version": ENGINE_VERSION,
        }
        return json.dumps(obj, indent=2) + "\n"
    lines = [
        "kp,ki,pre_delta,post_delta,success_rate,distance,"
        "relative_rationality,pareto_member"
    ]
    for p in points:
        lines.append(
            f"{p.kp!r},{p.ki!r},{p.pre_delta!r},{p.post_delta!r},"
            f"{p.success_rate:.6f},{p.distance:.6f},"
            f"{p.relative_rationality:.6f},{str(p.pareto_member).lower()}"
        )
    return "\n".join(lines) + "\n"


def write_plot_data(report: BacktestReport, trace: PriceTrace, plot_dir: str) -> None:
    """One trajectory CSV per strategy plus a comparison summary.

    Trajectory rows pair bid_i with price p_i for i = 1..t; the trailing
    recommendation bid is excluded.
    """
    try:
        os.makedirs(plot_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create plot directory {plot_dir}: {exc}") from None
    # The index, timestamp and price columns are the same for every strategy,
    # so each trajectory is one %-format of its bids into this template.
    template = "index,timestamp,spot_price,bid\n" + "".join(
        f"{i},{text},{price:.6f},%.6f\n"
        for i, (text, price) in enumerate(
            zip(format_timestamps(trace.stamps), trace.prices()), start=1
        )
    )
    for result in report.results:
        text = template % result.series.bids[: len(trace)]
        _write_output(os.path.join(plot_dir, f"trajectory_{result.name}.csv"), [text])
    lines = ["name,success_rate,relative_rationality"]
    for result in report.results:
        m = result.metrics
        lines.append(
            f"{result.name},{m.success_rate:.6f},{m.relative_rationality:.6f}"
        )
    _write_output(os.path.join(plot_dir, "comparison.csv"), ["\n".join(lines) + "\n"])


# ---------------------------------------------------------------- handlers


def _use_file(path_text: str, use: Callable[..., object]) -> object:
    """use(the file path_text, open for binary reading).  An OSError while
    it is opened or read, also inside use, is a DataError naming it."""
    try:
        with open(path_text, "rb") as file:
            return use(file)
    except OSError as exc:
        raise DataError(f"cannot read {path_text}: {exc}") from None


def _to_devnull(fd: int) -> None:
    """Point a standard stream's descriptor fd at os.devnull.  Whatever the
    stream's buffer still holds is then flushed there at exit, where a
    write that failed once would fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _to_stderr(text: str) -> None:
    """Write text to standard error and flush it.  If that fails (a reader
    that went away, say), standard error goes to os.devnull, so an error
    line that cannot be written changes neither the exit code nor the
    flush at exit.  A process started with descriptor 2 closed has no
    sys.stderr, and the text is dropped."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr.fileno())


def _write_output(path: str | None, pieces: Iterable[str]) -> None:
    """Write the pieces in order to path, or to standard output.  A process
    started with descriptor 1 closed has no sys.stdout, a data error."""
    if path is None or path == "-":
        if sys.stdout is None:
            raise DataError("cannot write standard output: it is closed")
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # a write error shows here, not at exit
        except BrokenPipeError:
            raise  # the reader went away; main exits 0
        except OSError as exc:  # a full disk, say
            _to_devnull(sys.stdout.fileno())
            raise DataError(f"cannot write standard output: {exc}") from None
        return
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.writelines(pieces)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _load_trace(args: argparse.Namespace) -> PriceTrace:
    trace_filter = TraceFilter(args.instance_type, args.product, args.zone)
    if args.trace is not None:
        if trace_filter != TraceFilter():  # a CSV trace has no labels to filter
            raise UsageError("--instance-type, --product and --zone apply to --aws-json only")
        _log(_LOG_LEVELS["info"], "parsing CSV trace %s", args.trace)
        trace = parse_csv(_use_file(args.trace, lambda file: file.read()))
    else:
        _log(_LOG_LEVELS["info"], "parsing spot-price-history JSON %s", args.aws_json)
        # A regular file is read a piece at a time, never held whole.
        trace = _use_file(args.aws_json, lambda file: parse_aws_json(file, trace_filter))
    return validate(trace)


def _record_from_flags(record: Callable[..., object], **fields: object) -> object:
    """record(**fields), whose values come from flags, so that a check the
    record fails is a usage error."""
    try:
        return record(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _config_echo(args: argparse.Namespace) -> dict[str, object]:
    """Every result-affecting flag, in the order the parser defines them."""
    return {key: value for key, value in vars(args).items() if key not in _NOT_ECHOED}


def _build_specs(args: argparse.Namespace) -> list[StrategySpec]:
    sign = 1.0 if args.allow_positive_gains else -1.0
    adjustments = Adjustments(pre_delta=args.pre_delta, post_delta=args.post_delta)
    specs = []
    for name in args.strategies.split(","):
        name = name.strip()
        try:
            kind = StrategyKind(name)
        except ValueError:
            raise UsageError(
                f"unknown strategy {name!r}; choose from {_ALL_STRATEGIES}"
            ) from None
        gains = (
            PiGains(kp=sign * args.kp, ki=sign * args.ki)
            if kind is StrategyKind.FEEDBACK
            else None
        )
        stat_mode = StatMode(args.mode) if kind in STAT_KINDS else None
        specs.append(
            StrategySpec(
                kind=kind,
                gains=gains,
                adjustments=adjustments,
                initial_bid=args.initial_bid,
                stat_mode=stat_mode,
            )
        )
    return specs


def _cmd_ingest(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    _log(_LOG_LEVELS["info"], "ingested %d points", len(trace))
    _write_output(args.out, csv_blocks(trace))
    return 0


def _cmd_backtest(args: argparse.Namespace) -> int:
    band = _record_from_flags(PriceBand, floor=args.floor, ceiling=args.ceiling)
    trace = _load_trace(args)
    specs = _build_specs(args)
    # Resolved in place, so config_echo records the value the run used.
    if args.include_bids is None:
        args.include_bids = len(trace) < 100_000
    options = {
        "allow_positive_gains": args.allow_positive_gains,
        "config_echo": _config_echo(args),
    }
    with_bids = args.include_bids and args.format == "json"
    if args.plot_dir is not None:
        # Plot data needs every bid, so each series is kept whole, here.
        report = backtest(trace, specs, band, **options)
        # Plot data first: a run whose plot data fails leaves no report behind.
        write_plot_data(report, trace, args.plot_dir)
        texts = (_bids_json(r.series.bids) for r in report.results)
    else:
        # Of each series only what the report writes is kept: the kept text
        # of its bids, or nothing.
        report = backtest_text(trace, specs, band, _bids_json if with_bids else None,
                               **options)
        texts = (r.series.bids for r in report.results)
    pieces = _report_pieces(report, args.format, texts if with_bids else None)
    _write_output(args.out, pieces)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    band = _record_from_flags(PriceBand, floor=args.floor, ceiling=args.ceiling)
    trace = _load_trace(args)
    config = _record_from_flags(
        SweepConfig,
        band=band,
        kp_magnitudes=args.kp,
        ki_magnitudes=args.ki,
        pre_deltas=args.pre_delta,
        post_deltas=args.post_delta,
        initial_bid=args.initial_bid,
    )
    points = sweep(trace, config)
    _write_output(
        args.out, [render_sweep(points, band, _config_echo(args), args.format)]
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    band = _record_from_flags(PriceBand, floor=args.floor, ceiling=args.ceiling)
    config = _record_from_flags(
        SynthConfig,
        band=band,
        n_points=args.points,
        hold_steps_mean=args.hold_mean,
        step_scale=args.step_scale,
        seed=args.seed,
    )
    _write_output(args.out, csv_blocks(synth_step_hold(config)))
    return 0


# -------------------------------------------------------------------- main


def _log(level: int, msg: str, *args: object, exc_info: bool = False) -> None:
    """Log to standard error through the "spotbid" logger.  Until something
    imports logging, a record below the SPOTBID_LOG level is dropped here,
    as the logger would drop it, so a default run never imports logging."""
    if level >= _log_level or "logging" in sys.modules:
        import logging

        logging.basicConfig(level=_log_level, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("spotbid").log(level, msg, *args, exc_info=exc_info)


def _configure_logging() -> None:
    global _log_level
    raw = os.environ.get("SPOTBID_LOG", "warn").strip().lower()
    _log_level = _LOG_LEVELS.get(raw, _LOG_LEVELS["warn"])
    if raw and raw not in _LOG_LEVELS:
        _log(_LOG_LEVELS["warn"], "unknown SPOTBID_LOG level %r; using warn", raw)


def main(argv: list[str] | None = None) -> int:
    """Run the command argv (default: sys.argv[1:]) and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage problems; remap
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    _configure_logging()
    try:
        return args.handler(args)
    except UsageError as exc:
        _to_stderr(f"error: {exc}\n")
        return 1
    except DataError as exc:
        _to_stderr(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # The reader of standard output went away, as `| head` does.
        _to_devnull(sys.stdout.fileno())
        return 0
    except MemoryError:
        _to_stderr(f"error: out of memory while running {args.command}\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _log(_LOG_LEVELS["debug"], "internal error", exc_info=True)
        _to_stderr(f"internal error: {exc}\n")
        return 3


def _watched() -> bool:
    """Whether a tracer, a profiler or a sys.monitoring tool is set, as
    under `python -m cProfile`, `python -m trace` or `coverage run`.  Such
    a tool writes its profile, report or data after the module it ran
    returns, which an os._exit here would cut off."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None
            and any(monitoring.get_tool(tool) is not None for tool in range(6)))  # ids 0-5
    )


def run() -> None:
    """The process entry point: exit with main()'s code, without tearing
    the interpreter down.  It does not return.

    Teardown frees every module and object one by one, a few ms that no
    one can see.  What it does that can be seen is done here first: every
    atexit callback runs (logging's shutdown, say, or a hook a site file
    registered), and both standard streams are flushed, standard error
    through _to_stderr, so that a usage or log line it could not write
    does not change the exit code; a stream whose descriptor was closed at
    start is None and is skipped.  Nothing else is left open when main
    returns: each output file is closed by its with block, and every
    forked child is reaped.  When a second thread runs, when a tool that
    runs this module and has code of its own to run after it watches the
    process (see _watched), or when any of those steps raises, the process
    exits through sys.exit, with the interpreter's own teardown.
    """
    code = main()
    if forking.one_thread() and not _watched():
        try:
            atexit._run_exitfuncs()
            if sys.stdout is not None:  # None when descriptor 1 was closed
                sys.stdout.flush()
            _to_stderr("")  # also what argparse or logging could not write
        except Exception:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
