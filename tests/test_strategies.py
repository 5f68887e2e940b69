"""Strategy catalogue: per-kind bid rules, adjustments, replay contract."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spotbid as sb
from spotbid.strategies import STAT_KINDS, resolve_initial_bid, validate_spec
from conftest import make_trace

GAINS = sb.PiGains(kp=-10.0, ki=-10.0)

# Bid sequence of the feedback strategy on ten constant 1.000 prices with
# gains (-10, -10), initial bid 1.300, zero deltas; locked from a
# straight-line evaluation of the loop (error, accumulate, control, band).
CONST_TRACE_GOLDEN_BIDS = (
    1.3,
    0.3792204625311779,
    2.521053086278526,
    0.28340511929227624,
    2.297419138882966,
    0.28022777358206,
    0.468509341104939,
    1.440352630905849,
    0.3088075784095044,
    2.422420790452276,
    0.279876525369664,
)


def spec_for(kind, mode=None, pre=0.0, post=0.0, initial=None):
    return sb.StrategySpec(
        kind=kind,
        gains=GAINS if kind is sb.StrategyKind.FEEDBACK else None,
        adjustments=sb.Adjustments(pre_delta=pre, post_delta=post),
        initial_bid=initial,
        stat_mode=mode,
    )


def test_initial_bid_default(band):
    spec = spec_for(sb.StrategyKind.ONDEMAND)
    assert resolve_initial_bid(spec, band) == 1.300
    assert resolve_initial_bid(spec, sb.PriceBand(0.5, 1.0)) == 0.5
    assert resolve_initial_bid(spec_for(sb.StrategyKind.ONDEMAND, initial=0.7), band) == 0.7


def test_default_initial_bid_below_floor_rejected():
    narrow = sb.PriceBand(0.6, 1.0)
    # the rule still says half ceiling
    assert resolve_initial_bid(spec_for(sb.StrategyKind.ONDEMAND), narrow) == 0.5
    with pytest.raises(sb.UsageError, match="outside band"):
        validate_spec(spec_for(sb.StrategyKind.ONDEMAND), narrow)
    # an explicit in-band choice passes
    validate_spec(spec_for(sb.StrategyKind.ONDEMAND, initial=0.7), narrow)


def test_spec_structural_invariants():
    with pytest.raises(ValueError, match="requires gains"):
        sb.StrategySpec(kind=sb.StrategyKind.FEEDBACK)
    with pytest.raises(ValueError, match="no gains"):
        sb.StrategySpec(kind=sb.StrategyKind.CURRENT, gains=GAINS)
    with pytest.raises(ValueError, match="no stat_mode"):
        sb.StrategySpec(kind=sb.StrategyKind.ONDEMAND, stat_mode=sb.StatMode.CAUSAL)
    # stat kinds default to causal
    assert sb.StrategySpec(kind=sb.StrategyKind.MEAN).stat_mode is sb.StatMode.CAUSAL


def test_gain_sign_policy(band):
    fb = spec_for(sb.StrategyKind.FEEDBACK)
    validate_spec(fb, band)
    positive = sb.StrategySpec(kind=sb.StrategyKind.FEEDBACK, gains=sb.PiGains(10.0, 10.0))
    with pytest.raises(sb.UsageError, match="negative"):
        validate_spec(positive, band)
    validate_spec(positive, band, require_negative_gains=False)


def test_feedback_single_step_derived_example(band):
    series = sb.run_strategy(
        spec_for(sb.StrategyKind.FEEDBACK, initial=1.300), make_trace([1.000]), band
    )
    # e = -0.300, e_sum = -0.300, u = 6.0, bid = a + (b-a) * arccot(6) / pi
    error = 1.000 - 1.300
    u = -10.0 * error + -10.0 * error
    expected = 0.256 + (2.600 - 0.256) * ((math.pi / 2 - math.atan(u)) / math.pi)
    assert series.bids == (1.300, expected)
    assert abs(series.bids[1] - 0.379) < 5e-4


def test_feedback_constant_trace_golden(band):
    trace = make_trace([1.000] * 10)
    series = sb.run_strategy(spec_for(sb.StrategyKind.FEEDBACK, initial=1.3), trace, band)
    assert len(series.bids) == 11
    for got, want in zip(series.bids, CONST_TRACE_GOLDEN_BIDS):
        assert abs(got - want) <= 1e-12


def test_current_follows_previous_price(band):
    series = sb.run_strategy(
        spec_for(sb.StrategyKind.CURRENT, initial=1.3), make_trace([1.0, 2.0]), band
    )
    assert series.bids == (1.3, 1.0, 2.0)


def test_causal_minimum_running(band):
    series = sb.run_strategy(
        spec_for(sb.StrategyKind.MINIMUM, mode=sb.StatMode.CAUSAL, initial=1.3),
        make_trace([1.0, 0.8, 0.9]),
        band,
    )
    assert series.bids == (1.3, 1.0, 0.8, 0.8)


def test_causal_mean_running(band):
    series = sb.run_strategy(
        spec_for(sb.StrategyKind.MEAN, initial=1.3), make_trace([1.0, 2.0, 1.5]), band
    )
    assert series.bids == (1.3, 1.0, 1.5, 1.5)


def test_ondemand_constant_ceiling(band):
    series = sb.run_strategy(
        spec_for(sb.StrategyKind.ONDEMAND, initial=1.3), make_trace([1.0, 2.0, 1.5]), band
    )
    assert series.bids == (2.6, 2.6, 2.6, 2.6)


def test_fulltrace_stats_constant_from_first_bid(band):
    trace = make_trace([1.0, 2.0, 1.5])
    for kind, value in (
        (sb.StrategyKind.MINIMUM, 1.0),
        (sb.StrategyKind.MEAN, 4.5 / 3),
        (sb.StrategyKind.HIGH, 2.0),
    ):
        series = sb.run_strategy(
            spec_for(kind, mode=sb.StatMode.FULL_TRACE, initial=1.3), trace, band
        )
        assert series.bids == (value,) * 4


def test_one_point_trace_yields_two_bids(band):
    for kind in sb.StrategyKind:
        series = sb.run_strategy(spec_for(kind), make_trace([1.0]), band)
        assert len(series.bids) == 2


def test_post_delta_applies_and_clamps(band):
    trace = make_trace([1.0, 2.0])
    current = sb.run_strategy(
        spec_for(sb.StrategyKind.CURRENT, post=0.02, initial=1.3), trace, band
    )
    assert current.bids == (1.3, 1.02, 2.02)
    clamped_up = sb.run_strategy(
        spec_for(sb.StrategyKind.HIGH, mode=sb.StatMode.FULL_TRACE, post=5.0, initial=1.3),
        trace,
        band,
    )
    assert clamped_up.bids == (2.6, 2.6, 2.6)
    clamped_down = sb.run_strategy(
        spec_for(sb.StrategyKind.MINIMUM, mode=sb.StatMode.FULL_TRACE, post=-5.0, initial=1.3),
        trace,
        band,
    )
    assert clamped_down.bids == (0.256, 0.256, 0.256)


def test_ondemand_ignores_post_delta(band):
    series = sb.run_strategy(
        spec_for(sb.StrategyKind.ONDEMAND, post=-1.0, initial=1.3), make_trace([1.0]), band
    )
    assert series.bids == (2.6, 2.6)


def test_pre_delta_only_feeds_the_controller(band):
    trace = make_trace([1.0, 2.0, 1.5])
    plain = sb.run_strategy(spec_for(sb.StrategyKind.MINIMUM, initial=1.3), trace, band)
    shifted = sb.run_strategy(
        spec_for(sb.StrategyKind.MINIMUM, pre=0.02, initial=1.3), trace, band
    )
    assert plain.bids == shifted.bids
    fb_plain = sb.run_strategy(spec_for(sb.StrategyKind.FEEDBACK, initial=1.3), trace, band)
    fb_shift = sb.run_strategy(
        spec_for(sb.StrategyKind.FEEDBACK, pre=0.02, initial=1.3), trace, band
    )
    assert fb_plain.bids != fb_shift.bids


def test_corrective_direction_single_step(band):
    trace = make_trace([1.5])
    below = spec_for(sb.StrategyKind.FEEDBACK, initial=0.9)  # bid below the price
    assert sb.run_strategy(below, trace, band).bids[1] > sb.bid_from_control(0.0, band)
    above = spec_for(sb.StrategyKind.FEEDBACK, initial=2.0)  # bid above the price
    assert sb.run_strategy(above, trace, band).bids[1] < sb.bid_from_control(0.0, band)


@given(
    prices=st.lists(
        st.floats(min_value=0.26, max_value=2.59, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    kind=st.sampled_from(list(sb.StrategyKind)),
    mode=st.sampled_from([sb.StatMode.CAUSAL, sb.StatMode.FULL_TRACE]),
)
def test_band_safety_and_determinism(prices, kind, mode):
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    spec = spec_for(kind, mode=mode if kind in STAT_KINDS else None)
    trace = make_trace(prices)
    series = sb.run_strategy(spec, trace, band)
    assert len(series.bids) == len(prices) + 1
    assert all(band.floor <= bid <= band.ceiling for bid in series.bids)
    assert series.bids == sb.run_strategy(spec, trace, band).bids


@given(
    prices=st.lists(
        st.floats(min_value=0.3, max_value=2.5, allow_nan=False), min_size=2, max_size=40
    )
)
def test_causal_stat_monotonicity(prices):
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    trace = make_trace(prices)
    low = sb.run_strategy(spec_for(sb.StrategyKind.MINIMUM), trace, band).bids[1:]
    assert all(a >= b for a, b in zip(low, low[1:]))
    high = sb.run_strategy(spec_for(sb.StrategyKind.HIGH), trace, band).bids[1:]
    assert all(a <= b for a, b in zip(high, high[1:]))


def test_feedback_error_outside_band_is_data_error():
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    trace = make_trace([1.0, 1.0, 5.0])  # third price far above the ceiling
    with pytest.raises(sb.DataError, match="proportional band") as info:
        sb.run_strategy(spec_for(sb.StrategyKind.FEEDBACK, initial=1.3), trace, band)
    assert "step 3 (2020-01-01T00:02:00Z)" in str(info.value)


def reference_replay(spec, prices, band):
    """Step-by-step replay through controller.step, bid_from_control and
    band.clamp, in the order the per-step strategy interface used.

    Returns (bids, None), or (None, (exception, index of the price that
    raised it)).
    """
    kind, post = spec.kind, spec.adjustments.post_delta
    fulltrace = spec.stat_mode is sb.StatMode.FULL_TRACE
    validate_spec(spec, band, require_negative_gains=False)
    if kind is sb.StrategyKind.ONDEMAND:
        first = band.ceiling
    elif fulltrace and kind is sb.StrategyKind.MINIMUM:
        first = band.clamp(min(prices) + post)
    elif fulltrace and kind is sb.StrategyKind.HIGH:
        first = band.clamp(max(prices) + post)
    elif fulltrace:
        first = band.clamp(sum(prices) / len(prices) + post)
    else:
        first = resolve_initial_bid(spec, band)
    bids = [first]
    state = sb.ControllerState()
    running_min = running_max = None
    running_sum = 0.0
    for index, price in enumerate(prices):
        try:
            if not math.isfinite(price):
                raise ValueError(f"observed price must be finite, got {price!r}")
            if kind is sb.StrategyKind.FEEDBACK:
                error = (price + spec.adjustments.pre_delta) - bids[-1]
                u, state = sb.step(state, error, spec.gains, band)
                bid = band.clamp(sb.bid_from_control(u, band) + post)
            elif kind is sb.StrategyKind.ONDEMAND:
                bid = band.ceiling
            elif kind is sb.StrategyKind.CURRENT:
                bid = band.clamp(price + post)
            elif fulltrace:
                bid = first
            elif kind is sb.StrategyKind.MINIMUM:
                running_min = price if running_min is None else min(running_min, price)
                bid = band.clamp(running_min + post)
            elif kind is sb.StrategyKind.HIGH:
                running_max = price if running_max is None else max(running_max, price)
                bid = band.clamp(running_max + post)
            else:
                running_sum = running_sum + price
                bid = band.clamp(running_sum / (index + 1) + post)
        except (ValueError, sb.SpotBidError) as exc:
            return None, (exc, index)
        bids.append(bid)
    return tuple(bids), None


REFERENCE_BAND = sb.PriceBand(floor=0.256, ceiling=2.600)
# small gains, any finite gain, and the extremes where kp * error overflows
finite_gain = (
    st.floats(min_value=-20.0, max_value=20.0)
    | st.floats(min_value=-1e308, max_value=1e308)
    | st.sampled_from([-1e308, 1e308])
)


@st.composite
def replay_prices(draw):
    """Prices that sometimes leave the band, and sometimes one non-finite."""
    prices = draw(
        st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=1, max_size=30)
    )
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(prices) - 1))
        prices[at] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return prices


@st.composite
def replay_specs(draw):
    kind = draw(st.sampled_from(list(sb.StrategyKind)))
    return sb.StrategySpec(
        kind=kind,
        gains=(
            sb.PiGains(kp=draw(finite_gain), ki=draw(finite_gain))
            if kind is sb.StrategyKind.FEEDBACK
            else None
        ),
        adjustments=sb.Adjustments(
            pre_delta=draw(st.floats(min_value=-0.5, max_value=0.5)),
            post_delta=draw(st.floats(min_value=-0.5, max_value=0.5)),
        ),
        initial_bid=draw(
            st.none() | st.floats(REFERENCE_BAND.floor, REFERENCE_BAND.ceiling)
        ),
        stat_mode=(
            draw(st.sampled_from(list(sb.StatMode))) if kind in STAT_KINDS else None
        ),
    )


@settings(max_examples=400)
@given(spec=replay_specs(), prices=replay_prices())
@example(  # price leaves the band: proportional-band DataError at step 2
    spec=spec_for(sb.StrategyKind.FEEDBACK, initial=1.3), prices=[1.0, 5.0, 1.0]
)
@example(  # kp * error overflows at step 3
    spec=sb.StrategySpec(
        kind=sb.StrategyKind.FEEDBACK, gains=sb.PiGains(kp=-1e308, ki=-10.0)
    ),
    prices=[1.3, 2.5, 0.3],
)
@example(spec=spec_for(sb.StrategyKind.MEAN), prices=[1.0, math.nan])
# post_delta of either zero: the causal baselines skip the addition
@example(spec=spec_for(sb.StrategyKind.MINIMUM, post=0.0), prices=[1.0, 0.5, 2.0])
@example(spec=spec_for(sb.StrategyKind.HIGH, post=-0.0), prices=[1.0, 0.5, 2.0])
@example(spec=spec_for(sb.StrategyKind.MEAN, post=-0.0), prices=[0.3, 2.9, 0.7])
@example(  # stats of ±0.0, which validate would reject, clamp to the floor
    spec=spec_for(sb.StrategyKind.CURRENT, post=0.0), prices=[-0.0, 0.0, 1.0]
)
@example(spec=spec_for(sb.StrategyKind.CURRENT, post=-0.0), prices=[-0.0, 0.0, 1.0])
def test_run_strategy_matches_reference_replay(spec, prices):
    trace = make_trace(prices)
    bids, failure = reference_replay(spec, prices, REFERENCE_BAND)
    if failure is None:
        assert sb.run_strategy(spec, trace, REFERENCE_BAND).bids == bids
        return
    exc, index = failure
    expected_type = type(exc)
    if "control signal" in str(exc):
        expected_type = sb.DataError  # non-finite u is a data error in the loop
    with pytest.raises(expected_type) as info:
        sb.run_strategy(spec, trace, REFERENCE_BAND)
    assert type(info.value) is expected_type
    if expected_type is sb.DataError:
        timestamp = sb.format_timestamp(trace.points[index].timestamp)
        assert f"step {index + 1} ({timestamp})" in str(info.value)


@pytest.mark.parametrize("post", [0.0, -0.0])
@pytest.mark.parametrize("kind", ["minimum", "high", "current"])
def test_causal_baseline_bids_share_price_floats(kind, post):
    # Prices inside the band: with a zero post_delta each bid after the first
    # is one of the trace's own float objects, not a new float of equal value.
    trace = make_trace([1.5, 0.7, 2.1, 0.7, 1.9])
    bids = sb.run_strategy(
        spec_for(sb.StrategyKind(kind), post=post), trace, REFERENCE_BAND
    ).bids
    ids = {id(price) for price in trace.prices()}
    assert all(id(bid) in ids for bid in bids[1:])
