"""Traced in-process run of one spotbid CLI invocation.

    python3 perfbench/traced.py SPANS_PATH MEMORY CLI_ARG...

Runs the CLI handler for CLI_ARG... as `python -m spotbid.cli` would, with
the calls into each module's public functions wrapped in spans (name,
start, end, parent, CPU time, counts).  The spans stay in memory and are
written to SPANS_PATH as JSON when the run ends.  After the handler, the
feedback workloads replay their own error and control sequences through
`controller.step` and `band_model.bid_from_control` to time single calls.
With MEMORY=1 the parsed trace's retained size is taken with tracemalloc,
outside every timed span.

Only `sys` and `time` are imported before `spotbid.cli`, so `cli.startup`
covers the same imports a real invocation makes.
"""
import sys
import time


class Tracer:
    """Spans in memory; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans = []
        self._open = []

    def start(self, name, **attrs):
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "cpu": time.process_time(),
            "attrs": attrs,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        span["cpu"] = time.process_time() - span["cpu"]
        self._open.pop()


def wrap(tracer, module, attr, name, counts, missing):
    """Replace module.attr by a function that records a span per call.

    Callers look these names up in the module at call time, so the program
    runs unchanged apart from the span bookkeeping.
    """
    fn = getattr(module, attr, None)
    if not callable(fn):
        missing.append(f"{module.__name__}.{attr}")
        return

    def traced(*args, **kwargs):
        span = tracer.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if counts is not None:
            span["attrs"].update(counts(args, result))
        return result

    setattr(module, attr, traced)


def _points(args, result):
    return {"points": len(result)}


def _strategy_run(args, result):
    spec, trace = args[0], args[1]
    return {"kind": spec.kind.value, "steps": len(trace)}


def main(argv):
    tracer = Tracer()
    spans_path, memory, cli_argv = argv[0], argv[1] == "1", argv[2:]

    span = tracer.start("cli.startup")
    import spotbid.cli as cli

    args = cli.build_parser().parse_args(cli_argv)
    tracer.end(span)

    import json
    from pathlib import Path

    import oracle
    import spotbid
    from spotbid import band_model, controller, engine, metrics, trace

    expected = Path(__file__).resolve().parent.parent / "src" / "spotbid" / "__init__.py"
    if Path(spotbid.__file__).resolve() != expected:
        print(f"spotbid imports from {spotbid.__file__}, not {expected}", file=sys.stderr)
        return 2

    missing = []
    for module, attr, name, counts in (
        (cli, "parse_csv", "trace.parse_csv", _points),
        (cli, "parse_aws_json", "trace.parse_aws_json", _points),
        (cli, "validate", "trace.validate", None),
        (cli, "to_csv", "trace.to_csv", None),
        (cli, "backtest", "engine.backtest", None),
        (cli, "sweep", "engine.sweep", None),
        (cli, "render_report", "cli.render_report", None),
        (cli, "render_sweep", "cli.render_sweep", None),
        (engine, "validate", "trace.validate", None),
        (engine, "run_strategy", "strategies.run_strategy", _strategy_run),
        (metrics, "score", "metrics.score", None),
        (metrics, "relative_rationality", "metrics.relative_rationality", None),
    ):
        wrap(tracer, module, attr, name, counts, missing)

    span = tracer.start("cli.handler", command=args.command)
    code = args.handler(args)
    tracer.end(span)
    if code != 0:
        return code

    if args.command in ("backtest", "sweep"):
        band = band_model.PriceBand(floor=args.floor, ceiling=args.ceiling)
        prices = oracle.read_csv_prices(Path(args.trace).read_bytes())
        if args.command == "backtest":
            cells = [(-args.kp, -args.ki)]
        else:
            cells = oracle.sweep_cells(args.kp, args.ki)
        runs = []
        for kp, ki in cells:
            steps = oracle.feedback_steps(prices, args.floor, args.ceiling, kp, ki, args.ceiling / 2)
            errors, controls, _ = zip(*steps)
            runs.append((controller.PiGains(kp=kp, ki=ki), errors, controls))
        calls = sum(len(errors) for _, errors, _ in runs)
        step = controller.step
        span = tracer.start("controller.step", calls=calls)
        for gains, errors, _ in runs:
            state = controller.ControllerState()
            for error in errors:
                _, state = step(state, error, gains, band)
        tracer.end(span)
        bid_from_control = band_model.bid_from_control
        span = tracer.start("band_model.bid_from_control", calls=calls)
        for _, _, controls in runs:
            for u in controls:
                bid_from_control(u, band)
        tracer.end(span)

    if memory:
        import tracemalloc

        data = Path(args.trace or args.aws_json).read_bytes()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        if args.trace is not None:
            parsed = trace.parse_csv(data)
        else:
            keep = trace.TraceFilter(
                instance_type=args.instance_type, product=args.product, zone=args.zone
            )
            parsed = trace.parse_aws_json(data, keep)
        retained = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        del parsed
        span = tracer.start("trace.retained", bytes=retained)
        tracer.end(span)

    Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "missing": missing}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
