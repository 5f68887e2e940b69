"""Command-line entry point: ingest, backtest, sweep, synth.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 internal
error.  The SPOTBID_LOG environment variable (error, warn, info, debug)
controls diagnostic verbosity on standard error.

Gains are accepted as positive magnitudes: `--kp 10` applies kp = -10,
because only negative gains steer bids toward the price.  The
--allow-positive-gains flag flips the applied sign to +magnitude for
exploring what non-corrective control does; such reports carry a warning.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable

from .band_model import PriceBand
from .controller import PiGains
from .engine import (
    ENGINE_VERSION,
    BacktestReport,
    SweepConfig,
    SweepPoint,
    backtest,
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
    format_timestamps,
    parse_aws_json,
    parse_csv,
    synth_step_hold,
    to_csv,
    validate,
)

# logging's numeric levels, named as SPOTBID_LOG spells them.
_LOG_LEVELS = {"error": 40, "warn": 30, "info": 20, "debug": 10}
_log_level = _LOG_LEVELS["warn"]

_ALL_STRATEGIES = ",".join(kind.value for kind in StrategyKind)

# Namespace keys that cannot change the numbers: the subcommand, output
# routing and execution details like --parallel.  config_echo leaves them
# out so equivalent runs (serial or parallel, any destination) write
# byte-identical reports.
_NOT_ECHOED = frozenset(("command", "handler", "out", "format", "plot_dir", "parallel"))


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


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", metavar="PATH", help="output path (default: standard output)"
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotbid",
        description="Deterministic backtesting of spot-price bidding strategies.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser(
        "ingest", help="parse, filter, validate, and normalize a price trace"
    )
    _add_input_flags(ingest)
    ingest.add_argument(
        "--out", metavar="PATH", help="output path (default: standard output)"
    )
    ingest.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="normalized trace format",
    )
    ingest.set_defaults(handler=_cmd_ingest)

    bt = commands.add_parser(
        "backtest", help="replay strategies against a trace and score them"
    )
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
    _add_output_flags(bt)
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
    bt.add_argument("--parallel", action="store_true", help="run strategies in parallel")
    bt.add_argument(
        "--allow-positive-gains",
        action="store_true",
        help="apply gains as +magnitude instead of -magnitude (adds a warning)",
    )
    bt.set_defaults(handler=_cmd_backtest)

    sw = commands.add_parser(
        "sweep", help="grid-sweep feedback gains/adjustments and mark the frontier"
    )
    _add_input_flags(sw)
    _add_band_flags(sw)
    sw.add_argument(
        "--kp",
        type=_float_list,
        default=(10.0,),
        help="comma-separated proportional gain magnitudes (applied negative)",
    )
    sw.add_argument(
        "--ki",
        type=_float_list,
        default=(10.0,),
        help="comma-separated integral gain magnitudes (applied negative)",
    )
    sw.add_argument(
        "--pre-delta",
        type=_float_list,
        default=(0.0,),
        help="comma-separated reference-price shifts",
    )
    sw.add_argument(
        "--post-delta",
        type=_float_list,
        default=(0.0,),
        help="comma-separated emitted-bid shifts",
    )
    sw.add_argument(
        "--initial-bid",
        type=_finite_float,
        help="first standing bid (default: half the ceiling)",
    )
    _add_output_flags(sw)
    sw.add_argument("--parallel", action="store_true", help="evaluate cells in parallel")
    sw.set_defaults(handler=_cmd_sweep)

    sy = commands.add_parser(
        "synth", help="generate a deterministic step-hold price trace"
    )
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
    sy.add_argument(
        "--out", metavar="PATH", help="output path (default: standard output)"
    )
    sy.set_defaults(handler=_cmd_synth)

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


def report_to_obj(
    report: BacktestReport,
    include_bids: bool,
    bids_value: Callable[[tuple[float, ...]], object] = _rounded,
) -> dict[str, object]:
    """The JSON report as a value, with each bid rounded to 6 places.

    render_report passes bids_value=_Bids, which _json writes as the same
    text without building the rounded lists.
    """
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
            entry["bids"] = bids_value(result.series.bids)
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


class _Bids:
    """A bid tuple that _json writes as the list _rounded(bids)."""

    __slots__ = ("bids",)

    def __init__(self, bids: tuple[float, ...]) -> None:
        self.bids = bids


def _bids_json(bids: tuple[float, ...], depth: int) -> str:
    """The text _json(_rounded(bids), depth) gives, without round() per bid.

    When every bid is finite and 1e-4 <= bid < 1e9, one C call formats all
    of them as "%.6f", and the trailing zeros are stripped down to one "0"
    after the point.  That is the text repr(round(bid, 6)) gives:
    - "%.6f" and round(x, 6) both round the exact binary value of x half to
      even at 6 places, so they reach the same decimal d.
    - 1e-4 <= d <= 1e9, so d has at most 15 significant digits (9 before
      the point and 6 after, or d = 1e9).  Decimals of at most 15
      significant digits read back as distinct doubles, so no shorter text
      reads back as round(x, 6), which is the double nearest d.
    - repr writes that shortest text, in fixed notation because
      1e-4 <= round(x, 6) < 1e16.
    Any other tuple (empty, or holding a NaN, an infinity, a zero, a
    subnormal, a negative or a bid of 1e9 or more) goes through round().
    """
    # min and max pass over a NaN after the first item, so isfinite goes first.
    if bids and all(map(math.isfinite, bids)) and 1e-4 <= min(bids) and max(bids) < 1e9:
        text = (
            (("%.6f," * len(bids)) % bids)
            .replace("0000,", ",")
            .replace("00,", ",")
            .replace("0,", ",")
            .replace(".,", ".0,")
        )
        pad = "\n" + "  " * (depth + 1)
        return "[" + pad + text[:-1].replace(",", "," + pad) + pad[:-2] + "]"
    return _json(_rounded(bids), depth)


def _json(value: object, depth: int = 0) -> str:
    """The text json.dumps(value, indent=2) gives, for str-keyed values.

    With indent set, json.dumps runs the pure-Python encoder, which costs a
    call and several chunks per float of a bids array.  This writer lays out
    dicts and lists itself and hands each all-float list to the C encoder in
    one call.  That is safe because both encoders write a float as
    float.__repr__ (NaN and Infinity for the non-finite ones), and no
    float's text contains ", ", so the only ", " in the C output are the
    separators, which become the indented ",\\n".
    """
    if type(value) is _Bids:
        return _bids_json(value.bids, depth)
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict) and value:
        body = ("," + pad).join(
            f"{json.dumps(key)}: {_json(item, depth + 1)}"
            for key, item in value.items()
        )
        return "{" + pad + body + pad[:-2] + "}"
    if isinstance(value, (list, tuple)) and value:
        if all(type(item) is float for item in value):
            body = json.dumps(value)[1:-1].replace(", ", "," + pad)
        else:
            body = ("," + pad).join(_json(item, depth + 1) for item in value)
        return "[" + pad + body + pad[:-2] + "]"
    return json.dumps(value)


def render_report(report: BacktestReport, fmt: str, include_bids: bool) -> str:
    if fmt == "json":
        return _json(report_to_obj(report, include_bids, _Bids)) + "\n"
    lines = ["name,success_rate,distance,relative_rationality"]
    for result in report.results:
        m = result.metrics
        lines.append(
            f"{result.name},{m.success_rate:.6f},{m.distance:.6f},"
            f"{m.relative_rationality:.6f}"
        )
    return "\n".join(lines) + "\n"


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


def trace_to_json(trace: PriceTrace) -> str:
    """The labels and points as json.dumps(obj, indent=2) writes them.

    Each point is laid out from the columns.  The C encoder writes the whole
    price column in one call, split at its ", " separators, which no float
    text contains.
    """
    labels = {key: getattr(trace, key) for key in ("instance_type", "product", "zone")}
    head = json.dumps({**labels, "points": []}, indent=2)[: -len("[]\n}")]
    if not trace.stamps:
        return head + "[]\n}\n"
    prices = json.dumps(trace.prices())[1:-1].split(", ")
    body = ",\n".join(
        f'    {{\n      "timestamp": "{text}",\n      "price": {price}\n    }}'
        for text, price in zip(format_timestamps(trace.stamps), prices)
    )
    return f"{head}[\n{body}\n  ]\n}}\n"


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
        _write_output(os.path.join(plot_dir, f"trajectory_{result.name}.csv"), text)
    lines = ["name,success_rate,relative_rationality"]
    for result in report.results:
        m = result.metrics
        lines.append(
            f"{result.name},{m.success_rate:.6f},{m.relative_rationality:.6f}"
        )
    _write_output(os.path.join(plot_dir, "comparison.csv"), "\n".join(lines) + "\n")


# ---------------------------------------------------------------- handlers


def _read_bytes(path_text: str) -> bytes:
    try:
        with open(path_text, "rb") as file:
            return file.read()
    except OSError as exc:
        raise DataError(f"cannot read {path_text}: {exc}") from None


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _load_trace(args: argparse.Namespace) -> PriceTrace:
    if args.trace is not None:
        _log(_LOG_LEVELS["info"], "parsing CSV trace %s", args.trace)
        trace = parse_csv(_read_bytes(args.trace))
    else:
        _log(_LOG_LEVELS["info"], "parsing spot-price-history JSON %s", args.aws_json)
        trace_filter = TraceFilter(
            instance_type=args.instance_type,
            product=args.product,
            zone=args.zone,
        )
        trace = parse_aws_json(_read_bytes(args.aws_json), trace_filter)
    return validate(trace)


def _band_from_args(args: argparse.Namespace) -> PriceBand:
    try:
        return PriceBand(floor=args.floor, ceiling=args.ceiling)
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
    text = to_csv(trace) if args.format == "csv" else trace_to_json(trace)
    _write_output(args.out, text)
    return 0


def _cmd_backtest(args: argparse.Namespace) -> int:
    band = _band_from_args(args)
    trace = _load_trace(args)
    specs = _build_specs(args)
    # Resolved in place, so config_echo records the value the run used.
    if args.include_bids is None:
        args.include_bids = len(trace) < 100_000
    report = backtest(
        trace,
        specs,
        band,
        parallel=args.parallel,
        allow_positive_gains=args.allow_positive_gains,
        config_echo=_config_echo(args),
    )
    # Plot data first: a run whose plot data fails leaves no report behind.
    if args.plot_dir is not None:
        write_plot_data(report, trace, args.plot_dir)
    _write_output(args.out, render_report(report, args.format, args.include_bids))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    band = _band_from_args(args)
    trace = _load_trace(args)
    try:
        config = SweepConfig(
            band=band,
            kp_magnitudes=args.kp,
            ki_magnitudes=args.ki,
            pre_deltas=args.pre_delta,
            post_deltas=args.post_delta,
            initial_bid=args.initial_bid,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    points = sweep(trace, config, parallel=args.parallel)
    _write_output(args.out, render_sweep(points, band, _config_echo(args), args.format))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    band = _band_from_args(args)
    try:
        config = SynthConfig(
            band=band,
            n_points=args.points,
            hold_steps_mean=args.hold_mean,
            step_scale=args.step_scale,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_output(args.out, to_csv(synth_step_hold(config)))
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage problems; remap
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    _configure_logging()
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _log(_LOG_LEVELS["debug"], "internal error", exc_info=True)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
