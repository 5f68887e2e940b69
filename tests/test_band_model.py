"""Band model: range, monotonicity, round-trip, and known points."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import spotbid as sb


def test_known_points(band):
    assert abs(sb.bid_from_control(0.0, band) - 1.428) < 1e-9
    assert abs(sb.bid_from_control(1.0, band) - 0.842) < 1e-9
    assert abs(sb.bid_from_control(-1.0, band) - 2.014) < 1e-9


def test_large_control_approaches_floor(band):
    bid = sb.bid_from_control(1e6, band)
    assert band.floor < bid < band.floor + 1e-4


def test_midpoint_exact(band):
    assert sb.bid_from_control(0.0, band) == band.floor + band.width * 0.5


def test_band_validation():
    with pytest.raises(ValueError):
        sb.PriceBand(floor=1.0, ceiling=1.0)
    with pytest.raises(ValueError):
        sb.PriceBand(floor=2.0, ceiling=1.0)
    with pytest.raises(ValueError):
        sb.PriceBand(floor=0.0, ceiling=1.0)
    with pytest.raises(ValueError):
        sb.PriceBand(floor=0.1, ceiling=math.inf)


def test_nonfinite_control_rejected(band):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sb.bid_from_control(bad, band)


@given(u=st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_range_strictly_inside(u):
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    bid = sb.bid_from_control(u, band)
    assert band.floor < bid < band.ceiling


@given(u=st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
def test_range_never_escapes(u):
    # Beyond |u| ~ 1e16 the arccot saturates to a band edge in double
    # precision; the bid still never leaves the closed band.
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    assert band.floor <= sb.bid_from_control(u, band) <= band.ceiling


@given(
    u1=st.floats(min_value=-100, max_value=100, allow_nan=False),
    gap=st.floats(min_value=1e-6, max_value=50, allow_nan=False),
)
def test_strictly_decreasing(u1, gap):
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    assert sb.bid_from_control(u1, band) > sb.bid_from_control(u1 + gap, band)


@given(
    u1=st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    u2=st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)
def test_weakly_decreasing_everywhere(u1, u2):
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    lo, hi = min(u1, u2), max(u1, u2)
    assert sb.bid_from_control(lo, band) >= sb.bid_from_control(hi, band)


@given(frac=st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_round_trip(frac):
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    bid = band.floor + band.width * frac
    recovered = sb.bid_from_control(sb.control_from_bid(bid, band), band)
    assert abs(recovered - bid) <= 1e-9 * abs(bid)


def test_inverse_known_points(band):
    assert abs(sb.control_from_bid(1.428, band)) < 1e-9
    assert abs(sb.control_from_bid(0.842, band) - 1.0) < 1e-9
    assert abs(sb.control_from_bid(2.014, band) + 1.0) < 1e-9


def test_inverse_rejects_boundary_and_outside(band):
    for bad in (band.floor, band.ceiling, 0.1, 3.0):
        with pytest.raises(ValueError):
            sb.control_from_bid(bad, band)
