"""Backtest orchestration, gain/adjustment sweeps, and Pareto extraction.

Every strategy (or sweep cell) replays independently against the identical
trace, in the deterministic configured order.  A sweep's cells are
feedback specs, split across forked processes as a large backtest_text's
strategies are, by the one cost model in _score_split; the results are
those of a serial run.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from itertools import groupby, product

from . import forking, metrics
from .band_model import PriceBand
from .controller import PiGains
from .errors import DataError, UsageError
from .strategies import (
    Adjustments,
    BidSeries,
    StatMode,
    StrategyKind,
    StrategySpec,
    run_strategy,
    validate_spec,
)
from .trace import PriceTrace, format_timestamp, validate

ENGINE_VERSION = "0.1.0"

# What replaying and scoring one trace point costs for each strategy kind,
# and what writing its bid as report text adds, in ns (minimum of 7 runs on
# the 25k-point benchmark trace, 2-CPU Intel Xeon host, Python 3.11.7).
# _score_split deals a backtest's strategies and a sweep's cells into shares
# by these costs.  A child pays for itself from about 4 ms of them (the six
# strategies with bids took 4.09 ms serial and 4.20 ms forked at 3.7 ms,
# 7.84 and 6.53 ms at 7.3 ms, same host), so a job forks from FORK_MIN_NS
# and each share holds about half of it or more.
_POINT_COST_NS = {
    StrategyKind.FEEDBACK: (220, 230),
    StrategyKind.MINIMUM: (85, 50),
    StrategyKind.MEAN: (120, 215),
    StrategyKind.HIGH: (90, 50),
    StrategyKind.CURRENT: (85, 230),
    StrategyKind.ONDEMAND: (50, 40),
}
FORK_MIN_NS = 7_000_000

# Bounds on the work a request may ask for, checked before any of it is
# allocated (tracemalloc, 2-CPU Intel Xeon host, Python 3.11.7):
# - a sweep keeps about 630 bytes of Python heap per cell whatever the
#   trace's length, so 250k cells hold about 160 MB;
# - a cell-step over the 1001-point fixture costs about 0.35 us, more than
#   _POINT_COST_NS's 220 ns on a trace whose prices mostly repeat, so 10^10
#   cell-steps are about one CPU-hour;
# - a backtest strategy keeps one bid per point until the report is written,
#   32.7 bytes a point for a causal mean, so 64 strategies over 1M points
#   hold about 2.1 GB; backtest_text keeps instead its bids' text without
#   its layout, about 9 bytes a point, or nothing.
MAX_SWEEP_CELLS = 250_000
MAX_SWEEP_CELL_STEPS = 10**10
MAX_STRATEGIES = 64


class TraceMeta(namedtuple(
    "TraceMeta", "instance_type product zone start end n_points"
)):
    """Trace identification echoed into reports."""

    __slots__ = ()

    @classmethod
    def from_trace(cls, trace: PriceTrace) -> TraceMeta:
        start, end = map(format_timestamp, (trace.stamps[0], trace.stamps[-1]))
        return cls(trace.instance_type, trace.product, trace.zone, start, end, len(trace))


class StrategyResult(namedtuple("StrategyResult", "name series metrics")):
    __slots__ = ()


class BacktestReport(namedtuple(
    "BacktestReport", "trace_meta band results engine_version config_echo warnings",
    defaults=(ENGINE_VERSION, None, ()),
)):
    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> BacktestReport:
        self = super().__new__(cls, *args, **kwargs)
        if self.config_echo is None:  # a new empty dict for each report
            self = super().__new__(cls, *self[:4], {}, self.warnings)
        return self

    def rationality_set(self) -> list[tuple[str, float]]:
        return [(r.name, r.metrics.relative_rationality) for r in self.results]


class SweepConfig(namedtuple(
    "SweepConfig",
    "band kp_magnitudes ki_magnitudes pre_deltas post_deltas initial_bid",
    defaults=((0.0,), (0.0,), None),
)):
    """Grid over feedback gains and adjustments.

    Magnitudes are positive; the applied gains are their negations.  The
    four grids may be any iterables; they are kept as tuples.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> SweepConfig:
        self = super().__new__(cls, *args, **kwargs)
        grids = []
        for label, values in zip(cls._fields[1:5], self[1:5]):
            values = tuple(values)
            grids.append(values)
            if not values:
                raise ValueError(f"{label} must be nonempty")
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{label} must be finite, got {values}")
        for label, values in zip(cls._fields[1:3], grids):
            if not all(v > 0 for v in values):
                raise ValueError(f"{label} must be positive magnitudes")
        return super().__new__(cls, self.band, *grids, self.initial_bid)

    _make = classmethod(lambda cls, values: cls(*values))


class SweepPoint(namedtuple(
    "SweepPoint",
    "kp ki pre_delta post_delta success_rate distance relative_rationality "
    "pareto_member",
    defaults=(None, False),
)):
    """One grid cell: the applied (negative) gains, deltas, and scores."""

    __slots__ = ()


def _unique_names(base_names: Sequence[str]) -> list[str]:
    seen: dict[str, int] = {}
    names = []
    for base in base_names:
        seen[base] = seen.get(base, 0) + 1
        names.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
    return names


def backtest(
    trace: PriceTrace,
    specs: Sequence[StrategySpec],
    band: PriceBand,
    *,
    parallel: bool = False,
    allow_positive_gains: bool = False,
    config_echo: dict[str, object] | None = None,
) -> BacktestReport:
    """Replay every strategy against the same trace and score the set.

    Output ordering equals spec ordering; strategies sharing a kind get
    #2/#3 suffixes so report names stay unique.  Each result keeps its
    whole BidSeries, so every strategy runs in this process: ``parallel``
    is kept for callers that pass it and selects nothing.  backtest_text is
    the same run for a caller that needs less of each series, and it may
    split the strategies across forked processes.
    """
    return _backtest(trace, specs, band, allow_positive_gains, config_echo, tuple)


def backtest_text(
    trace: PriceTrace,
    specs: Sequence[StrategySpec],
    band: PriceBand,
    text: Callable[[tuple[float, ...]], Iterable[str]] | None,
    *,
    allow_positive_gains: bool = False,
    config_echo: dict[str, object] | None = None,
) -> BacktestReport:
    """backtest's report, keeping of each series only text(bids), an
    ASCII text in pieces, or nothing when text is None.  Each result's
    series.bids holds that text as a tuple of its pieces, as text cut it.
    No bid tuple outlives the text made of it.

    With enough work (see _score_split) the strategies are split into
    shares: this process runs one, a forked child each of the others, which
    sends back each strategy's success rate, distance and text.  A text
    from a child comes back a piece at a time (see forking.run_shares).  A
    strategy left without a result (its child could not start, died or
    failed, or this process's share raised a DataError) runs again here,
    in spec order, so the report and the first error are those of a serial
    run.
    """
    return _backtest(trace, specs, band, allow_positive_gains, config_echo, text)


def _backtest(
    trace: PriceTrace,
    specs: Sequence[StrategySpec],
    band: PriceBand,
    allow_positive_gains: bool,
    config_echo: dict[str, object] | None,
    keep: object,
) -> BacktestReport:
    """backtest (keep tuple: every bid, in this process) and backtest_text
    (keep its text function)."""
    validate(trace)
    if not specs:
        raise UsageError("at least one strategy is required")
    if len(specs) > MAX_STRATEGIES:
        raise UsageError(
            f"{len(specs)} strategies are above the limit of {MAX_STRATEGIES} strategies"
        )
    for spec in specs:
        validate_spec(spec, band, require_negative_gains=not allow_positive_gains)

    if keep is tuple:
        rows = [_score_one(spec, trace, band, keep) for spec in specs]
    else:
        rows = _score_split(specs, trace, band, keep)
    names = _unique_names([spec.kind.value for spec in specs])
    rationality = metrics.relative_rationality(
        [(name, distance) for name, (_, distance, _) in zip(names, rows)]
    )
    results = tuple(
        StrategyResult(
            name=name,
            series=BidSeries(strategy_name=name, bids=kept, spec=spec),
            metrics=metrics.MetricsSummary(success_rate, distance, rr),
        )
        for name, spec, (success_rate, distance, kept), (_, rr)
        in zip(names, specs, rows, rationality)
    )
    warnings = ()
    if allow_positive_gains and any(
        spec.gains is not None and (spec.gains.kp >= 0 or spec.gains.ki >= 0)
        for spec in specs
    ):
        warnings = (
            "positive gains enabled: the controller pushes bids away from "
            "the price instead of correcting toward it",
        )
    return BacktestReport(
        trace_meta=TraceMeta.from_trace(trace),
        band=band,
        results=results,
        engine_version=ENGINE_VERSION,
        config_echo=dict(config_echo or {}),
        warnings=warnings,
    )


def _score_one(
    spec: StrategySpec,
    trace: PriceTrace,
    band: PriceBand,
    keep: Callable[[tuple[float, ...]], Iterable[object]] | None,
) -> tuple[float, float, tuple]:
    """One strategy's row, (success_rate, distance, kept), the same in
    every process: kept is tuple(keep(bids)), or () when keep is None.
    With keep tuple, kept is the bid tuple itself, not a copy."""
    series = run_strategy(spec, trace, band)
    summary = metrics.score(series, trace)
    kept = () if keep is None else tuple(keep(series.bids))
    return summary.success_rate, summary.distance, kept


def _score_split(
    specs: Sequence[StrategySpec],
    trace: PriceTrace,
    band: PriceBand,
    text: Callable[[tuple[float, ...]], Iterable[str]] | None,
) -> list[tuple[float, float, tuple]]:
    """_score_one's row for each spec, in spec order, in shares across
    processes.

    backtest_text's strategies and a sweep's cells both come here.  A
    spec's cost is its kind's per-point cost (_POINT_COST_NS) times the
    trace's points.  With FORK_MIN_NS or more in all (see
    forking.share_count), this process takes the cheapest specs up to its
    fair share of the cost, and each other spec, costliest first (the last
    of equal costs first), joins the child share that costs least so far.
    The cheapest strategies are the statistics, which bid the trace's own
    price floats where feedback and the causal mean make a float per bid:
    this process holds every text at the end, so it sets the run's peak
    memory.  A sweep's cells cost the same, so this process takes the first
    cells.  Every share, this process's too, gives the rows of its specs
    in its order, through one forking.run_shares call.  A spec left without
    a row (its child could not start, died or failed, or this process's
    share raised a DataError, which also kills every child) runs again
    here, in spec order, so the rows and the first error are those of a
    serial run.
    """
    costs = [_point_cost_ns(spec, text is not None) * len(trace) for spec in specs]
    shares = min(len(specs), forking.share_count(sum(costs), FORK_MIN_NS))
    if shares < 2:
        return [_score_one(spec, trace, band, text) for spec in specs]

    order = sorted(range(len(specs)), key=costs.__getitem__)
    fair, own, load = sum(costs) / shares, 0, 0
    while load + costs[order[own]] <= fair:
        load += costs[order[own]]
        own += 1
    parts = [order[:own]] + [[] for _ in range(shares - 1)]
    loads = [0] * (shares - 1)  # of the child shares
    for i in reversed(order[own:]):
        k = loads.index(min(loads))
        parts[k + 1].append(i)
        loads[k] += costs[i]
    parts = [part for part in parts if part]

    def scores(part):
        return [_score_one(specs[i], trace, band, text) for i in part]

    rows: list[tuple[float, float, tuple] | None] = [None] * len(specs)
    try:
        shares_rows = forking.run_shares([lambda part=part: scores(part) for part in parts])
    except DataError:
        shares_rows = []  # every spec runs again below
    for part, share in zip(parts, shares_rows):
        for i, row in zip(part, share or ()):
            rows[i] = row
    return [row or _score_one(spec, trace, band, text) for spec, row in zip(specs, rows)]


def _point_cost_ns(spec: StrategySpec, with_text: bool) -> int:
    """What one trace point of spec costs to replay and score, and to write
    as text when with_text is true."""
    kind = spec.kind
    if spec.stat_mode is StatMode.FULL_TRACE:
        kind = StrategyKind.ONDEMAND  # a constant bid, as ondemand's
    replay, text = _POINT_COST_NS[kind]
    return replay + text if with_text else replay


def sweep(
    trace: PriceTrace, config: SweepConfig, *, parallel: bool = False
) -> list[SweepPoint]:
    """Score the feedback strategy at every grid cell.

    Cells are emitted sorted by (kp, ki, pre_delta, post_delta) of the
    applied values, deduplicated, with relative rationality computed over
    the whole sweep and Pareto membership marked.  ``parallel`` is kept for
    callers that pass it and selects nothing.  Each cell is a feedback
    spec, and _score_split scores them as backtest_text's strategies: from
    FORK_MIN_NS of feedback cost on, in shares across forked processes, no
    more shares than cells.  Forked or not, the points and any DataError
    (the first failing cell's, in cell order) are the serial ones.  A grid
    over MAX_SWEEP_CELLS cells or MAX_SWEEP_CELL_STEPS cell-steps is a
    UsageError, raised before any cell is built.
    """
    validate(trace)
    n_cells = math.prod(len(set(grid)) for grid in config[1:5])  # the distinct cells
    if n_cells > MAX_SWEEP_CELLS:
        raise UsageError(
            f"a sweep of {n_cells} cells is above the limit of {MAX_SWEEP_CELLS} cells"
        )
    if n_cells * len(trace) > MAX_SWEEP_CELL_STEPS:
        raise UsageError(
            f"a sweep of {n_cells} cells over {len(trace)} points is "
            f"{n_cells * len(trace)} cell-steps, above the limit of "
            f"{MAX_SWEEP_CELL_STEPS} cell-steps"
        )
    cells = sorted(
        {
            (-kp_mag, -ki_mag, pre, post)
            for kp_mag, ki_mag, pre, post in product(
                config.kp_magnitudes,
                config.ki_magnitudes,
                config.pre_deltas,
                config.post_deltas,
            )
        }
    )
    # Positional: keyword construction of the three records takes half as
    # long again, about 1.5 us a cell.
    specs = [
        StrategySpec(StrategyKind.FEEDBACK, PiGains(kp, ki), Adjustments(pre, post),
                     config.initial_bid)
        for kp, ki, pre, post in cells
    ]
    rows = _score_split(specs, trace, config.band, None)
    del specs  # about 225 bytes a cell, not held while the points are built
    rationality = metrics.relative_rationality(
        [
            (f"kp={kp},ki={ki},pre={pre},post={post}", distance)
            for (kp, ki, pre, post), (_, distance, _) in zip(cells, rows)
        ]
    )
    flags = pareto_flags(rows)  # a row opens with (success_rate, distance)
    # A cell is (kp, ki, pre_delta, post_delta), SweepPoint's first fields.
    return [
        SweepPoint(*cell, success_rate, distance, rr, flag)
        for cell, (success_rate, distance, _), (_, rr), flag
        in zip(cells, rows, rationality, flags)
    ]


def pareto_flags(points: Sequence[tuple[float, float]]) -> list[bool]:
    """Non-domination flags for (success_rate, distance) pairs (or rows
    that open with them, as _score_split's do).

    Point i is dominated when some j has sr_j >= sr_i and d_j <= d_i with at
    least one strict inequality; duplicates of a frontier point are all
    members.  Sort-based, O(n log n).
    """
    if not points:
        raise ValueError("empty point set")
    order = sorted(range(len(points)), key=lambda i: (-points[i][0], points[i][1]))
    flags = [False] * len(points)
    best_d = math.inf  # smallest distance seen at strictly higher success rates
    for _, group in groupby(order, key=lambda i: points[i][0]):
        group = list(group)
        group_min_d = points[group[0]][1]  # the order sorts a group by distance
        if group_min_d < best_d:
            for k in group:
                if points[k][1] == group_min_d:
                    flags[k] = True
            best_d = group_min_d
    return flags
