"""Metrics: success rate, distance, relative rationality."""
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import spotbid as sb
from conftest import make_series, make_trace

PRICES = [1.0, 2.0, 1.5]
BIDS = [1.0, 1.8, 1.6, 2.0]  # last bid is the unscored recommendation


def test_success_rate_example():
    assert sb.success_rate(make_series(BIDS), make_trace(PRICES)) == 2 / 3


def test_success_rate_extremes():
    trace = make_trace(PRICES)
    assert sb.success_rate(make_series([2.6] * 4), trace) == 1.0
    assert sb.success_rate(make_series([0.5] * 4), trace) == 0.0


def test_ties_count_as_success():
    assert sb.success_rate(make_series([1.5, 1.5]), make_trace([1.5])) == 1.0


def test_recommendation_bid_not_scored():
    # only the first three bids meet prices; the fourth may be anything
    low = make_series([1.0, 1.8, 1.6, 0.0001])
    high = make_series([1.0, 1.8, 1.6, 99.0])
    trace = make_trace(PRICES)
    assert sb.success_rate(low, trace) == sb.success_rate(high, trace)
    assert sb.distance(low, trace) == sb.distance(high, trace)


def test_distance_example():
    got = sb.distance(make_series(BIDS), make_trace(PRICES))
    assert got == pytest.approx(0.3, abs=1e-12)


def test_distance_zero_on_identical():
    assert sb.distance(make_series([1.0, 2.0, 1.5, 1.0]), make_trace(PRICES)) == 0.0


def test_distance_single_point():
    assert sb.distance(make_series([1.3, 1.3]), make_trace([1.0])) == pytest.approx(0.3)


def test_length_mismatch_rejected():
    with pytest.raises(sb.DataError, match="mismatch"):
        sb.success_rate(make_series([1.0, 1.0]), make_trace(PRICES))
    with pytest.raises(sb.DataError, match="mismatch"):
        sb.distance(make_series(BIDS + [1.0]), make_trace(PRICES))


def test_relative_rationality_examples():
    assert sb.relative_rationality([("a", 0.3), ("b", 0.6)]) == [("a", 1.0), ("b", 0.5)]
    assert sb.relative_rationality([("only", 5.0)]) == [("only", 1.0)]


def test_relative_rationality_zero_distance_rejected():
    with pytest.raises(sb.DataError, match="zero distance"):
        sb.relative_rationality([("a", 0.3), ("b", 0.0)])


def test_relative_rationality_infinite_distance_rejected():
    # Bids at a ceiling of 1.7e308 over two prices of 1e-300: each step's
    # distance is finite, and their sum overflows.
    distance = sb.distance(make_series([1.7e308] * 3), make_trace([1e-300] * 2))
    assert distance == math.inf
    with pytest.raises(sb.DataError, match="^strategy 'b' has invalid distance inf$"):
        sb.relative_rationality([("a", 0.3), ("b", distance)])


def test_relative_rationality_empty_rejected():
    with pytest.raises(ValueError):
        sb.relative_rationality([])


# decimal-grid draws keep float rounding away from the comparisons
grid = st.integers(min_value=100, max_value=3000).map(lambda n: n / 1000)


@given(
    prices=st.lists(grid, min_size=1, max_size=20),
    shift=st.integers(min_value=1, max_value=10**6).map(lambda n: n / 1000),
    seed=st.randoms(),
)
def test_success_rate_translation_invariance(prices, shift, seed):
    bids = [seed.choice(prices) for _ in range(len(prices) + 1)]
    base = sb.success_rate(make_series(bids), make_trace(prices))
    shifted = sb.success_rate(
        make_series([b + shift for b in bids]),
        make_trace([p + shift for p in prices]),
    )
    assert base == shifted


@given(
    a=st.lists(grid, min_size=1, max_size=15),
    seed=st.randoms(),
)
def test_distance_metric_properties(a, seed):
    n = len(a)
    b = [seed.choice(a) for _ in range(n)]
    c = [seed.choice(a) for _ in range(n)]
    trace_b = make_trace(b)
    series_a = make_series(a + [1.0])
    series_c = make_series(c + [1.0])
    d_ab = sb.distance(series_a, trace_b)
    assert d_ab >= 0.0
    assert (d_ab == 0.0) == (a == b)
    # symmetry: |a-b| term by term
    assert d_ab == sb.distance(make_series(b + [1.0]), make_trace(a))
    # triangle inequality with float-summation slack
    d_ac = sb.distance(series_a, make_trace(c))
    d_cb = sb.distance(series_c, trace_b)
    assert d_ab <= d_ac + d_cb + 1e-9


@given(
    distances=st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1, max_size=12
    ),
    scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
def test_relative_rationality_properties(distances, scale):
    named = [(f"s{i}", d) for i, d in enumerate(distances)]
    rr = sb.relative_rationality(named)
    values = [v for _, v in rr]
    assert max(values) == 1.0
    assert all(0 < v <= 1 for v in values)
    scaled = sb.relative_rationality([(n, d * scale) for n, d in named])
    for (_, v1), (_, v2) in zip(rr, scaled):
        assert v2 == pytest.approx(v1, rel=1e-12)


def test_score_bundles_both():
    summary = sb.score(make_series(BIDS), make_trace(PRICES))
    assert summary.success_rate == 2 / 3
    assert summary.distance == pytest.approx(0.3, abs=1e-12)
    assert summary.relative_rationality is None


def _score_loop(bids, prices):
    """Straight-loop oracle: the hit count, then a sequential += of abs."""
    hits = 0
    for i in range(len(prices)):
        if bids[i] >= prices[i]:
            hits += 1
    total = 0.0
    for i in range(len(prices)):
        total += abs(bids[i] - prices[i])
    return hits / len(prices), total


price = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
# None stands for a bid equal to its price, a tie
bid = st.one_of(st.none(), st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False))


@given(
    steps=st.lists(st.tuples(price, bid), min_size=1, max_size=30),
    trailing=st.floats(),
    extra=st.sampled_from([0, 0, 0, 0, -1, 1]),
)
@example(steps=[(1.5, None), (0.0, -0.0), (2.0, -0.0)], trailing=math.nan, extra=0)
def test_score_matches_straight_loop(steps, trailing, extra):
    """Ties, signed zeros, any non-NaN scored bid, any trailing bid, and the
    length-mismatch DataError; scores compared with ==."""
    prices = [p for p, _ in steps]
    bids = [p if b is None else b for p, b in steps] + [trailing]
    bids = bids[:extra] if extra < 0 else bids + [trailing] * extra
    series, trace = make_series(bids), make_trace(prices)
    if extra:
        for scorer in (sb.score, sb.success_rate, sb.distance):
            with pytest.raises(sb.DataError, match="mismatch"):
                scorer(series, trace)
        return
    expected_rate, expected_distance = _score_loop(bids, prices)
    summary = sb.score(series, trace)
    assert summary.success_rate == expected_rate == sb.success_rate(series, trace)
    assert summary.distance == expected_distance == sb.distance(series, trace)
