"""The public records: construction, defaults, repr, ==, hash, immutability
and every validation message."""
import copy
import math
import pickle

import pytest

import spotbid as sb
from spotbid.engine import StrategyResult, TraceMeta
from spotbid.strategies import STAT_KINDS
from conftest import make_trace

BAND = sb.PriceBand(floor=0.5, ceiling=2.0)
GAINS = sb.PiGains(kp=-1.0, ki=-2.0)
FEEDBACK = sb.StrategySpec(kind=sb.StrategyKind.FEEDBACK, gains=GAINS)
META = TraceMeta(
    instance_type="m", product="p", zone="z", start="a", end="b", n_points=2
)
SERIES = sb.BidSeries(strategy_name="feedback", bids=(1.0, 1.5, 1.25), spec=FEEDBACK)
SUMMARY = sb.MetricsSummary(success_rate=0.5, distance=0.75)


# Each record built from its required fields only, its repr, and the value
# of every field (defaults included) in declaration order.
RECORDS = [
    (
        lambda: sb.PriceBand(floor=0.5, ceiling=2.0),
        "PriceBand(floor=0.5, ceiling=2.0)",
        (0.5, 2.0),
    ),
    (
        lambda: sb.PiGains(kp=-1.0, ki=-2.0),
        "PiGains(kp=-1.0, ki=-2.0)",
        (-1.0, -2.0),
    ),
    (
        lambda: sb.ControllerState(),
        "ControllerState(error_sum=0.0, last_error=0.0)",
        (0.0, 0.0),
    ),
    (
        lambda: sb.Adjustments(),
        "Adjustments(pre_delta=0.0, post_delta=0.0)",
        (0.0, 0.0),
    ),
    (
        lambda: sb.StrategySpec(kind=sb.StrategyKind.FEEDBACK, gains=GAINS),
        "StrategySpec(kind=<StrategyKind.FEEDBACK: 'feedback'>, "
        "gains=PiGains(kp=-1.0, ki=-2.0), "
        "adjustments=Adjustments(pre_delta=0.0, post_delta=0.0), "
        "initial_bid=None, stat_mode=None)",
        (sb.StrategyKind.FEEDBACK, GAINS, sb.Adjustments(), None, None),
    ),
    (
        lambda: sb.BidSeries(strategy_name="feedback", bids=(1.0, 1.5), spec=FEEDBACK),
        f"BidSeries(strategy_name='feedback', bids=(1.0, 1.5), spec={FEEDBACK!r})",
        ("feedback", (1.0, 1.5), FEEDBACK),
    ),
    (
        lambda: sb.MetricsSummary(success_rate=0.5, distance=0.75),
        "MetricsSummary(success_rate=0.5, distance=0.75, relative_rationality=None)",
        (0.5, 0.75, None),
    ),
    (
        lambda: TraceMeta(
            instance_type="m", product="p", zone="z", start="a", end="b", n_points=2
        ),
        "TraceMeta(instance_type='m', product='p', zone='z', start='a', end='b', "
        "n_points=2)",
        ("m", "p", "z", "a", "b", 2),
    ),
    (
        lambda: StrategyResult(name="feedback", series=SERIES, metrics=SUMMARY),
        f"StrategyResult(name='feedback', series={SERIES!r}, metrics={SUMMARY!r})",
        ("feedback", SERIES, SUMMARY),
    ),
    (
        lambda: sb.SweepConfig(band=BAND, kp_magnitudes=(1.0,), ki_magnitudes=(2.0,)),
        "SweepConfig(band=PriceBand(floor=0.5, ceiling=2.0), kp_magnitudes=(1.0,), "
        "ki_magnitudes=(2.0,), pre_deltas=(0.0,), post_deltas=(0.0,), "
        "initial_bid=None)",
        (BAND, (1.0,), (2.0,), (0.0,), (0.0,), None),
    ),
    (
        lambda: sb.SweepPoint(
            kp=-1.0, ki=-2.0, pre_delta=0.0, post_delta=0.1, success_rate=0.5,
            distance=0.75,
        ),
        "SweepPoint(kp=-1.0, ki=-2.0, pre_delta=0.0, post_delta=0.1, "
        "success_rate=0.5, distance=0.75, relative_rationality=None, "
        "pareto_member=False)",
        (-1.0, -2.0, 0.0, 0.1, 0.5, 0.75, None, False),
    ),
    (
        lambda: sb.TraceFilter(),
        "TraceFilter(instance_type=None, product=None, zone=None)",
        (None, None, None),
    ),
    (
        lambda: sb.SynthConfig(band=BAND, n_points=3),
        "SynthConfig(band=PriceBand(floor=0.5, ceiling=2.0), n_points=3, "
        "hold_steps_mean=1, step_scale=0.1, seed=0)",
        (BAND, 3, 1, 0.1, 0),
    ),
    (
        lambda: sb.PriceTrace((60, 120), (1.0, 1.5)),
        "PriceTrace(stamps=(60, 120), price_column=(1.0, 1.5), instance_type='', "
        "product='', zone='')",
        ((60, 120), (1.0, 1.5), "", "", ""),
    ),
]

RECORD_IDS = [text.partition("(")[0] for _, text, _ in RECORDS]

FIELDS = {
    "PriceBand": ("floor", "ceiling"),
    "PiGains": ("kp", "ki"),
    "ControllerState": ("error_sum", "last_error"),
    "Adjustments": ("pre_delta", "post_delta"),
    "StrategySpec": ("kind", "gains", "adjustments", "initial_bid", "stat_mode"),
    "BidSeries": ("strategy_name", "bids", "spec"),
    "MetricsSummary": ("success_rate", "distance", "relative_rationality"),
    "TraceMeta": ("instance_type", "product", "zone", "start", "end", "n_points"),
    "StrategyResult": ("name", "series", "metrics"),
    "SweepConfig": (
        "band", "kp_magnitudes", "ki_magnitudes", "pre_deltas", "post_deltas",
        "initial_bid",
    ),
    "SweepPoint": (
        "kp", "ki", "pre_delta", "post_delta", "success_rate", "distance",
        "relative_rationality", "pareto_member",
    ),
    "TraceFilter": ("instance_type", "product", "zone"),
    "SynthConfig": ("band", "n_points", "hold_steps_mean", "step_scale", "seed"),
    "PriceTrace": ("stamps", "price_column", "instance_type", "product", "zone"),
}


@pytest.mark.parametrize("build, text, values", RECORDS, ids=RECORD_IDS)
def test_record_keyword_construction_defaults_and_repr(build, text, values):
    record = build()
    names = FIELDS[type(record).__name__]
    assert tuple(getattr(record, name) for name in names) == values
    assert repr(record) == text


@pytest.mark.parametrize("build, text, values", RECORDS, ids=RECORD_IDS)
def test_record_equality_and_hash_follow_the_fields(build, text, values):
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert not first != second
    assert hash(first) == hash(second) == hash(values)


@pytest.mark.parametrize("build, text, values", RECORDS, ids=RECORD_IDS)
def test_record_is_immutable(build, text, values):
    record = build()
    name = FIELDS[type(record).__name__][0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is before


@pytest.mark.parametrize("build, text, values", RECORDS, ids=RECORD_IDS)
def test_record_survives_pickle_and_copy(build, text, values):
    record = build()
    twins = pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)
    for twin in twins:
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_records_differ_when_a_field_differs():
    assert sb.PriceBand(floor=0.5, ceiling=2.0) != sb.PriceBand(floor=0.5, ceiling=2.5)
    assert sb.MetricsSummary(0.5, 0.75) != sb.MetricsSummary(0.5, 0.75, 1.0)
    assert make_trace([1.0, 2.0]) != make_trace([1.0, 2.0], zone="z")


def test_backtest_report_defaults_and_repr():
    first = sb.BacktestReport(trace_meta=META, band=BAND, results=())
    second = sb.BacktestReport(trace_meta=META, band=BAND, results=())
    assert first.engine_version == sb.ENGINE_VERSION
    assert first.config_echo == {} and first.warnings == ()
    # Each report gets its own echo dict.
    assert first.config_echo is not second.config_echo
    assert first == second
    assert repr(first) == (
        f"BacktestReport(trace_meta={META!r}, band={BAND!r}, results=(), "
        f"engine_version='{sb.ENGINE_VERSION}', config_echo={{}}, warnings=())"
    )
    with pytest.raises(AttributeError):
        first.results = ()
    assert first.rationality_set() == []


def test_strategy_spec_defaults_stat_mode_for_the_statistic_kinds():
    for kind in sb.StrategyKind:
        gains = GAINS if kind is sb.StrategyKind.FEEDBACK else None
        spec = sb.StrategySpec(kind=kind, gains=gains)
        expected = sb.StatMode.CAUSAL if kind in STAT_KINDS else None
        assert spec.stat_mode is expected
    spec = sb.StrategySpec(kind=sb.StrategyKind.MEAN, stat_mode=sb.StatMode.FULL_TRACE)
    assert spec.stat_mode is sb.StatMode.FULL_TRACE


def test_sweep_config_turns_lists_into_tuples():
    config = sb.SweepConfig(
        band=BAND,
        kp_magnitudes=[1.0, 2.0],
        ki_magnitudes=[3.0],
        pre_deltas=[0.0, 0.1],
        post_deltas=[-0.1],
    )
    assert config.kp_magnitudes == (1.0, 2.0)
    assert config.ki_magnitudes == (3.0,)
    assert config.pre_deltas == (0.0, 0.1)
    assert config.post_deltas == (-0.1,)
    for name in ("kp_magnitudes", "ki_magnitudes", "pre_deltas", "post_deltas"):
        assert type(getattr(config, name)) is tuple
    assert config == sb.SweepConfig(BAND, (1.0, 2.0), (3.0,), (0.0, 0.1), (-0.1,))


def test_synth_config_accepts_a_bare_band_pair():
    config = sb.SynthConfig(band=(0.5, 2.0), n_points=3)
    assert type(config.band) is sb.PriceBand
    assert config == sb.SynthConfig(band=BAND, n_points=3)
    with pytest.raises(ValueError) as info:
        sb.SynthConfig(band=(2.0, 0.5), n_points=3)
    assert str(info.value) == (
        "band requires 0 < floor < ceiling, got floor=2.0, ceiling=0.5"
    )


NAN = math.nan
FINITE_BAND = "band floor and ceiling must be finite"

# Where a call breaks two checks, the message is the first check's.
INVALID = [
    (lambda: sb.PriceBand(floor=NAN, ceiling=-1.0), FINITE_BAND),
    (lambda: sb.PriceBand(floor=1.0, ceiling=math.inf), FINITE_BAND),
    (
        lambda: sb.PriceBand(floor=0.0, ceiling=1.0),
        "band requires 0 < floor < ceiling, got floor=0.0, ceiling=1.0",
    ),
    (
        lambda: sb.PriceBand(floor=2.0, ceiling=2.0),
        "band requires 0 < floor < ceiling, got floor=2.0, ceiling=2.0",
    ),
    (lambda: sb.PiGains(kp=NAN, ki=-1.0), "gains must be finite, got kp=nan, ki=-1.0"),
    (
        lambda: sb.PiGains(kp=-1.0, ki=-math.inf),
        "gains must be finite, got kp=-1.0, ki=-inf",
    ),
    (
        lambda: sb.Adjustments(pre_delta=math.inf),
        "adjustments must be finite, got pre_delta=inf, post_delta=0.0",
    ),
    (
        lambda: sb.Adjustments(post_delta=NAN),
        "adjustments must be finite, got pre_delta=0.0, post_delta=nan",
    ),
    (
        lambda: sb.StrategySpec(
            kind=sb.StrategyKind.FEEDBACK, stat_mode=sb.StatMode.CAUSAL, initial_bid=NAN
        ),
        "feedback strategy requires gains",
    ),
    (
        lambda: sb.StrategySpec(
            kind=sb.StrategyKind.MEAN, gains=GAINS, stat_mode=sb.StatMode.CAUSAL
        ),
        "mean strategy takes no gains",
    ),
    (
        lambda: sb.StrategySpec(
            kind=sb.StrategyKind.FEEDBACK, gains=GAINS, stat_mode=sb.StatMode.CAUSAL,
            initial_bid=NAN,
        ),
        "feedback strategy takes no stat_mode",
    ),
    (
        lambda: sb.StrategySpec(
            kind=sb.StrategyKind.ONDEMAND, stat_mode=sb.StatMode.FULL_TRACE
        ),
        "ondemand strategy takes no stat_mode",
    ),
    (
        lambda: sb.StrategySpec(kind=sb.StrategyKind.HIGH, initial_bid=math.inf),
        "initial_bid must be finite, got inf",
    ),
    (
        lambda: sb.SweepConfig(band=BAND, kp_magnitudes=[], ki_magnitudes=[NAN]),
        "kp_magnitudes must be nonempty",
    ),
    (
        lambda: sb.SweepConfig(band=BAND, kp_magnitudes=[-1.0], ki_magnitudes=[]),
        "ki_magnitudes must be nonempty",
    ),
    (
        lambda: sb.SweepConfig(
            band=BAND, kp_magnitudes=[1.0], ki_magnitudes=[1.0], pre_deltas=[]
        ),
        "pre_deltas must be nonempty",
    ),
    (
        lambda: sb.SweepConfig(
            band=BAND, kp_magnitudes=[1.0, NAN], ki_magnitudes=[1.0]
        ),
        "kp_magnitudes must be finite, got (1.0, nan)",
    ),
    (
        lambda: sb.SweepConfig(
            band=BAND, kp_magnitudes=[-1.0], ki_magnitudes=[1.0], post_deltas=[math.inf]
        ),
        "post_deltas must be finite, got (inf,)",
    ),
    (
        lambda: sb.SweepConfig(band=BAND, kp_magnitudes=[0.0], ki_magnitudes=[-1.0]),
        "kp_magnitudes must be positive magnitudes",
    ),
    (
        lambda: sb.SweepConfig(band=BAND, kp_magnitudes=[1.0], ki_magnitudes=[-1.0]),
        "ki_magnitudes must be positive magnitudes",
    ),
    (
        lambda: sb.SynthConfig(band=BAND, n_points=0, hold_steps_mean=0),
        "n_points must be >= 1, got 0",
    ),
    (
        lambda: sb.SynthConfig(band=BAND, n_points=10**20, hold_steps_mean=0),
        f"n_points must be <= 10000000, got {10**20}",
    ),
    (
        lambda: sb.SynthConfig(band=BAND, n_points=1, hold_steps_mean=0, step_scale=0.0),
        "hold_steps_mean must be >= 1, got 0",
    ),
    (
        lambda: sb.SynthConfig(band=BAND, n_points=1, hold_steps_mean=10**17),
        f"hold_steps_mean {10**17} is too large for a geometric hold in double precision",
    ),
    (
        lambda: sb.SynthConfig(band=BAND, n_points=1, hold_steps_mean=10**400),
        f"hold_steps_mean {10**400} is too large for a geometric hold in double "
        "precision",
    ),
    (
        lambda: sb.SynthConfig(band=BAND, n_points=1, step_scale=NAN, seed=-1),
        "step_scale must be > 0, got nan",
    ),
    (
        lambda: sb.SynthConfig(band=BAND, n_points=1, seed=2**64),
        f"seed must be a 64-bit unsigned integer, got {2**64}",
    ),
]


@pytest.mark.parametrize("build, message", INVALID)
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_replace_runs_the_checks_again():
    # _replace builds through _make, which each checked record routes back
    # through its constructor, as dataclasses.replace did.
    assert BAND._replace(ceiling=3.0) == sb.PriceBand(floor=0.5, ceiling=3.0)
    spec = sb.StrategySpec(kind=sb.StrategyKind.MEAN, stat_mode=sb.StatMode.FULL_TRACE)
    assert spec._replace(stat_mode=None).stat_mode is sb.StatMode.CAUSAL
    config = sb.SweepConfig(band=BAND, kp_magnitudes=(1.0,), ki_magnitudes=(1.0,))
    assert config._replace(kp_magnitudes=[2.0, 3.0]).kp_magnitudes == (2.0, 3.0)
    synth = sb.SynthConfig(band=BAND, n_points=3)
    assert synth._replace(band=(0.25, 1.0)).band == sb.PriceBand(floor=0.25, ceiling=1.0)
    for record, changes, message in [
        (
            BAND, {"floor": 3.0},
            "band requires 0 < floor < ceiling, got floor=3.0, ceiling=2.0",
        ),
        (GAINS, {"ki": NAN}, "gains must be finite, got kp=-1.0, ki=nan"),
        (
            sb.Adjustments(), {"pre_delta": math.inf},
            "adjustments must be finite, got pre_delta=inf, post_delta=0.0",
        ),
        (FEEDBACK, {"gains": None}, "feedback strategy requires gains"),
        (config, {"ki_magnitudes": []}, "ki_magnitudes must be nonempty"),
        (synth, {"seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
    ]:
        with pytest.raises(ValueError) as info:
            record._replace(**changes)
        assert str(info.value) == message
