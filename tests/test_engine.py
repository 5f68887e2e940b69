"""Engine: backtest orchestration, sweeps, Pareto extraction."""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import spotbid as sb
from spotbid.strategies import STAT_KINDS
from conftest import make_trace


def specs_for(*kinds, mode=sb.StatMode.CAUSAL):
    gains = sb.PiGains(kp=-10.0, ki=-10.0)
    return [
        sb.StrategySpec(
            kind=kind,
            gains=gains if kind is sb.StrategyKind.FEEDBACK else None,
            stat_mode=mode if kind in STAT_KINDS else None,
        )
        for kind in kinds
    ]


def test_backtest_toy_example(band):
    trace = make_trace([1.0, 2.0, 1.5])
    report = sb.backtest(
        trace, specs_for(sb.StrategyKind.ONDEMAND, sb.StrategyKind.CURRENT), band
    )
    ondemand, current = report.results
    assert ondemand.name == "ondemand"
    assert ondemand.series.bids == (2.6, 2.6, 2.6, 2.6)
    assert ondemand.metrics.success_rate == 1.0
    assert ondemand.metrics.distance == pytest.approx(3.3, abs=1e-12)
    assert current.series.bids == (1.3, 1.0, 2.0, 1.5)
    assert current.metrics.success_rate == 2 / 3
    assert current.metrics.distance == pytest.approx(1.8, abs=1e-12)
    assert current.metrics.relative_rationality == 1.0
    assert ondemand.metrics.relative_rationality == pytest.approx(1.8 / 3.3, rel=1e-12)
    assert report.trace_meta.n_points == 3
    assert report.engine_version == sb.ENGINE_VERSION


def test_single_strategy_rr_is_one(band):
    report = sb.backtest(make_trace([1.0, 2.0]), specs_for(sb.StrategyKind.ONDEMAND), band)
    assert report.results[0].metrics.success_rate == 1.0
    assert report.results[0].metrics.relative_rationality == 1.0


def test_duplicate_strategy_names_suffixed(band):
    report = sb.backtest(
        make_trace([1.0, 2.0]),
        specs_for(sb.StrategyKind.CURRENT, sb.StrategyKind.CURRENT, sb.StrategyKind.CURRENT),
        band,
    )
    assert [r.name for r in report.results] == ["current", "current#2", "current#3"]


def test_adding_a_strategy_does_not_move_existing_scores(band):
    trace = make_trace([1.0, 2.0, 1.5, 0.7])
    small = sb.backtest(
        trace, specs_for(sb.StrategyKind.ONDEMAND, sb.StrategyKind.CURRENT), band
    )
    big = sb.backtest(
        trace,
        specs_for(
            sb.StrategyKind.ONDEMAND, sb.StrategyKind.CURRENT, sb.StrategyKind.MEAN
        ),
        band,
    )
    for before, after in zip(small.results, big.results):
        assert before.name == after.name
        assert before.metrics.success_rate == after.metrics.success_rate
        assert before.metrics.distance == after.metrics.distance


def test_zero_distance_strategy_rejected(band):
    # current tracks a constant trace perfectly when it starts on the price
    trace = make_trace([1.3, 1.3, 1.3])
    specs = specs_for(sb.StrategyKind.CURRENT, sb.StrategyKind.ONDEMAND)
    with pytest.raises(sb.DataError, match="zero distance"):
        sb.backtest(trace, specs, band)


def test_backtest_requires_specs(band):
    with pytest.raises(sb.UsageError):
        sb.backtest(make_trace([1.0]), [], band)


def test_backtest_validates_trace(band):
    with pytest.raises(sb.DataError):
        sb.backtest(sb.PriceTrace((), ()), specs_for(sb.StrategyKind.ONDEMAND), band)


def test_positive_gains_need_opt_in(band):
    trace = make_trace([1.0, 2.0])
    spec = sb.StrategySpec(kind=sb.StrategyKind.FEEDBACK, gains=sb.PiGains(10.0, 10.0))
    with pytest.raises(sb.UsageError):
        sb.backtest(trace, [spec], band)
    report = sb.backtest(trace, [spec], band, allow_positive_gains=True)
    assert report.warnings
    assert "positive gains" in report.warnings[0]


def test_config_echo_passthrough(band):
    echo = {"trace": "x.csv", "kp": 10.0}
    report = sb.backtest(
        make_trace([1.0, 2.0]), specs_for(sb.StrategyKind.ONDEMAND), band, config_echo=echo
    )
    assert report.config_echo == echo


def test_pareto_example():
    flags = sb.pareto_flags([(0.9, 5.0), (0.8, 3.0), (0.7, 4.0)])
    assert flags == [True, True, False]


def test_pareto_single_and_duplicates():
    assert sb.pareto_flags([(0.5, 1.0)]) == [True]
    assert sb.pareto_flags([(0.5, 1.0), (0.5, 1.0)]) == [True, True]
    # equal sr: only the smaller distance survives
    assert sb.pareto_flags([(0.5, 1.0), (0.5, 2.0)]) == [True, False]
    # equal distance: only the higher sr survives
    assert sb.pareto_flags([(0.6, 1.0), (0.5, 1.0)]) == [True, False]


def test_pareto_empty_rejected():
    with pytest.raises(ValueError):
        sb.pareto_flags([])


def _brute_force_flags(points):
    flags = []
    for i, (sr_i, d_i) in enumerate(points):
        dominated = False
        for j, (sr_j, d_j) in enumerate(points):
            if i == j:
                continue
            if sr_j >= sr_i and d_j <= d_i and (sr_j > sr_i or d_j < d_i):
                dominated = True
                break
        flags.append(not dominated)
    return flags


@given(
    points=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8).map(lambda n: n / 8),
            st.integers(min_value=0, max_value=12).map(lambda n: n * 0.5),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_pareto_matches_brute_force(points):
    assert sb.pareto_flags(points) == _brute_force_flags(points)


def test_sweep_singleton(band, stephold_trace):
    config = sb.SweepConfig(band=band, kp_magnitudes=(10.0,), ki_magnitudes=(10.0,))
    points = sb.sweep(stephold_trace, config)
    assert len(points) == 1
    assert points[0].relative_rationality == 1.0
    assert points[0].pareto_member is True
    assert points[0].kp == -10.0 and points[0].ki == -10.0


def test_sweep_order_and_dedup(band):
    trace = make_trace([random.Random(3).uniform(0.3, 2.5) for _ in range(50)])
    config = sb.SweepConfig(
        band=band,
        kp_magnitudes=(10.0, 1.0, 10.0),  # duplicate collapses
        ki_magnitudes=(5.0, 2.0),
    )
    points = sb.sweep(trace, config)
    combos = [(p.kp, p.ki) for p in points]
    assert combos == [(-10.0, -5.0), (-10.0, -2.0), (-1.0, -5.0), (-1.0, -2.0)]


def test_sweep_cell_equals_direct_run(band, stephold_trace):
    config = sb.SweepConfig(band=band, kp_magnitudes=(7.0,), ki_magnitudes=(3.0,))
    point = sb.sweep(stephold_trace, config)[0]
    spec = sb.StrategySpec(kind=sb.StrategyKind.FEEDBACK, gains=sb.PiGains(-7.0, -3.0))
    series = sb.run_strategy(spec, stephold_trace, band)
    assert point.success_rate == sb.success_rate(series, stephold_trace)
    assert point.distance == sb.distance(series, stephold_trace)


def test_sweep_config_validation(band):
    with pytest.raises(ValueError):
        sb.SweepConfig(band=band, kp_magnitudes=(), ki_magnitudes=(1.0,))
    with pytest.raises(ValueError):
        sb.SweepConfig(band=band, kp_magnitudes=(-1.0,), ki_magnitudes=(1.0,))


def test_backtest_strategy_count_limit(band):
    trace = make_trace([1.0, 2.0, 1.5])
    specs = specs_for(sb.StrategyKind.ONDEMAND) * sb.engine.MAX_STRATEGIES
    assert len(sb.backtest(trace, specs, band).results) == sb.engine.MAX_STRATEGIES
    with pytest.raises(sb.UsageError, match=r"^65 strategies are above the limit of 64 "):
        sb.backtest(trace, specs + specs[:1], band)


def test_sweep_limits_are_checked_before_any_cell_is_built(band, monkeypatch):
    def no_product(*grids):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(sb.engine, "product", no_product)
    trace = make_trace([1.0 + i % 7 / 10 for i in range(50_001)])
    grid = [float(k) for k in range(1, 501)]
    config = sb.SweepConfig(band, grid, grid)  # 250,000 cells
    with pytest.raises(sb.UsageError) as info:
        sb.sweep(trace, config)
    assert str(info.value) == (
        "a sweep of 250000 cells over 50001 points is 12500250000 cell-steps, "
        "above the limit of 10000000000 cell-steps"
    )
    config = sb.SweepConfig(band, grid + [501.0], grid)
    with pytest.raises(sb.UsageError, match=r"^a sweep of 250500 cells is above the limit of "):
        sb.sweep(make_trace([1.0, 2.0]), config)


def test_sweep_limits_count_distinct_cells(band, stephold_trace):
    # 300,000 listed values, one distinct cell.
    config = sb.SweepConfig(band, [10.0] * 300_000, [10.0, 10.0])
    assert len(sb.sweep(stephold_trace, config)) == 1
