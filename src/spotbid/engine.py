"""Backtest orchestration, gain/adjustment sweeps, and Pareto extraction.

Every strategy (or sweep cell) replays independently against the identical
trace, in the deterministic configured order.  A large sweep splits its
cells across forked processes; the results are those of a serial run.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import groupby, product

from . import forking, metrics
from .band_model import PriceBand
from .controller import PiGains
from .errors import UsageError
from .strategies import (
    Adjustments,
    StrategyKind,
    StrategySpec,
    run_strategy,
    validate_spec,
)
from .trace import PriceTrace, format_timestamp, validate

ENGINE_VERSION = "0.1.0"

# A sweep forks when it has at least this many cell-steps (cells times trace
# points).  A fork with its waitpid costs about 1.6 ms, and a feedback
# cell-step about 0.35 us (2-CPU Intel Xeon host, Python 3.11.7), so a child
# pays for itself from about 4.6k cell-steps.  Each share must hold half the
# threshold, about twice that, so a sweep forks only for a clear gain.
FORK_MIN_CELL_STEPS = 20_000

# Bounds on the work a request may ask for, checked before any of it is
# allocated (tracemalloc, 2-CPU Intel Xeon host, Python 3.11.7):
# - a sweep keeps about 630 bytes of Python heap per cell whatever the
#   trace's length, so 250k cells hold about 160 MB;
# - a cell-step costs about 0.35 us, so 10^10 cell-steps are about one
#   CPU-hour;
# - a backtest strategy keeps one bid per point until the report is written,
#   32.7 bytes a point for a causal mean, so 64 strategies over 1M points
#   hold about 2.1 GB.
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
    #2/#3 suffixes so report names stay unique.  ``parallel`` is kept for
    callers that pass it and selects nothing: a backtest always runs in
    this process, because six strategies give little to split and their bid
    tuples would come back as fresh floats.
    """
    validate(trace)
    if not specs:
        raise UsageError("at least one strategy is required")
    if len(specs) > MAX_STRATEGIES:
        raise UsageError(
            f"{len(specs)} strategies are above the limit of {MAX_STRATEGIES} strategies"
        )
    for spec in specs:
        validate_spec(spec, band, require_negative_gains=not allow_positive_gains)

    series_list = [run_strategy(spec, trace, band) for spec in specs]
    names = _unique_names([series.strategy_name for series in series_list])
    summaries = [metrics.score(series, trace) for series in series_list]
    rationality = metrics.relative_rationality(
        [(name, summary.distance) for name, summary in zip(names, summaries)]
    )

    results = tuple(
        StrategyResult(
            name=name,
            series=series._replace(strategy_name=name),
            metrics=summary._replace(relative_rationality=rr),
        )
        for name, series, summary, (_, rr) in zip(
            names, series_list, summaries, rationality
        )
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


def sweep(
    trace: PriceTrace, config: SweepConfig, *, parallel: bool = False
) -> list[SweepPoint]:
    """Score the feedback strategy at every grid cell.

    Cells are emitted sorted by (kp, ki, pre_delta, post_delta) of the
    applied values, deduplicated, with relative rationality computed over
    the whole sweep and Pareto membership marked.  ``parallel`` is kept for
    callers that pass it and selects nothing.  The sweep chooses by itself:
    it forks at FORK_MIN_CELL_STEPS or more (see forking.share_count), with
    no more shares than cells.  Forked or not, the points and any DataError
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
    shares = min(
        len(cells), forking.share_count(len(cells) * len(trace), FORK_MIN_CELL_STEPS)
    )
    if shares > 1:
        summaries = _score_forked(cells, trace, config, shares)
    else:
        summaries = _score_cells(cells, trace, config)
    rationality = metrics.relative_rationality(
        [
            (f"kp={kp},ki={ki},pre={pre},post={post}", summary.distance)
            for (kp, ki, pre, post), summary in zip(cells, summaries)
        ]
    )
    flags = pareto_flags([(m.success_rate, m.distance) for m in summaries])
    # A cell is (kp, ki, pre_delta, post_delta), SweepPoint's first fields.
    return [
        SweepPoint(*cell, summary.success_rate, summary.distance, rr, flag)
        for cell, summary, (_, rr), flag in zip(cells, summaries, rationality, flags)
    ]


def _score_cells(
    cells: Sequence[tuple[float, float, float, float]],
    trace: PriceTrace,
    config: SweepConfig,
) -> list[metrics.MetricsSummary]:
    """The feedback strategy's scores at each cell, in cell order."""
    summaries = []
    for kp, ki, pre, post in cells:
        spec = StrategySpec(
            kind=StrategyKind.FEEDBACK,
            gains=PiGains(kp=kp, ki=ki),
            adjustments=Adjustments(pre_delta=pre, post_delta=post),
            initial_bid=config.initial_bid,
        )
        summaries.append(metrics.score(run_strategy(spec, trace, config.band), trace))
    return summaries


def _score_forked(
    cells: Sequence[tuple[float, float, float, float]],
    trace: PriceTrace,
    config: SweepConfig,
    shares: int,
) -> list[metrics.MetricsSummary]:
    """_score_cells over contiguous shares: this process scores the first,
    a forked child each of the others, which sends (success_rate, distance)
    per cell as doubles.

    A child that cannot start, fails or sends the wrong number of bytes has
    its share scored again here, which raises the serial DataError.  If the
    first share raises, every child is killed.
    """
    from array import array  # loaded only by a sweep that forks

    bounds = [len(cells) * k // shares for k in range(shares + 1)]
    parts = [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def doubles(part):  # run in a child
        return array("d", [x for m in _score_cells(part, trace, config) for x in m[:2]])

    summaries, payloads = forking.run_shares(
        lambda: _score_cells(parts[0], trace, config),
        [lambda part=part: doubles(part) for part in parts[1:]],
    )
    for part, payload in zip(parts[1:], payloads):
        if payload is None or len(payload) != 16 * len(part):  # 2 doubles a cell
            summaries += _score_cells(part, trace, config)
            continue
        values = array("d", payload)
        summaries += map(metrics.MetricsSummary, values[::2], values[1::2])
    return summaries


def pareto_flags(points: Sequence[tuple[float, float]]) -> list[bool]:
    """Non-domination flags for (success_rate, distance) pairs.

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
