"""PI controller: accumulation order, proportional band, linearity."""
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import spotbid as sb

GAINS = sb.PiGains(kp=-10.0, ki=-10.0)


def test_zero_error_fixed_point(band):
    u, state = sb.step(sb.ControllerState(), 0.0, GAINS, band)
    assert u == 0.0
    assert state.error_sum == 0.0


def test_error_added_before_integral_term(band):
    u, state = sb.step(sb.ControllerState(), 0.1, GAINS, band)
    assert u == (-10.0) * 0.1 + (-10.0) * 0.1 == -2.0
    assert state.error_sum == 0.1
    assert state.last_error == 0.1


def test_pure_integral_action(band):
    u, _ = sb.step(sb.ControllerState(error_sum=0.5), 0.0, GAINS, band)
    assert u == -5.0


def test_proportional_band_boundary_excluded(band):
    for bad in (band.width, -band.width, band.width + 1, -band.width - 1):
        with pytest.raises(sb.DataError):
            sb.step(sb.ControllerState(), bad, GAINS, band)
    # interior values right next to the boundary are fine
    sb.step(sb.ControllerState(), math.nextafter(band.width, 0.0), GAINS, band)
    sb.step(sb.ControllerState(), math.nextafter(-band.width, 0.0), GAINS, band)


def test_nonfinite_rejected(band):
    with pytest.raises(ValueError):
        sb.step(sb.ControllerState(), math.nan, GAINS, band)
    with pytest.raises(ValueError):
        sb.PiGains(kp=math.inf, ki=-1.0)


def test_sign_direction(band):
    # positive error (price above bid) -> negative u -> bid above the u = 0 bid
    u, _ = sb.step(sb.ControllerState(), 0.5, GAINS, band)
    assert u < 0
    assert sb.bid_from_control(u, band) > sb.bid_from_control(0.0, band)
    u, _ = sb.step(sb.ControllerState(), -0.5, GAINS, band)
    assert u > 0
    assert sb.bid_from_control(u, band) < sb.bid_from_control(0.0, band)


@given(
    error=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    error_sum=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    scale_exp=st.integers(min_value=-3, max_value=3),
)
def test_linearity_exact_for_binary_scales(error, error_sum, scale_exp):
    # scaling by powers of two commutes with float rounding, so the
    # linearity of u in (error, error_sum) holds exactly
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    # power-of-two scaling is exact only on normal floats; subnormal
    # intermediates lose mantissa bits and break exact linearity
    assume(error == 0.0 or abs(error) > 1e-280)
    assume(error_sum == 0.0 or abs(error_sum) > 1e-280)
    alpha = 2.0**scale_exp
    if not -band.width < error * alpha < band.width:
        return
    u_base, _ = sb.step(sb.ControllerState(error_sum=error_sum), error, GAINS, band)
    u_scaled, _ = sb.step(
        sb.ControllerState(error_sum=error_sum * alpha), error * alpha, GAINS, band
    )
    assert u_scaled == alpha * u_base


@given(
    error=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    error_sum=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    alpha=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
)
def test_linearity_approximate_for_general_scales(error, error_sum, alpha):
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    u_base, _ = sb.step(sb.ControllerState(error_sum=error_sum), error, GAINS, band)
    u_scaled, _ = sb.step(
        sb.ControllerState(error_sum=error_sum * alpha), error * alpha, GAINS, band
    )
    assert u_scaled == pytest.approx(alpha * u_base, rel=1e-9, abs=1e-12)


@given(
    errors=st.lists(
        st.floats(min_value=-2.3, max_value=2.3, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_accumulation_matches_compensated_sum(errors):
    band = sb.PriceBand(floor=0.256, ceiling=2.600)
    state = sb.ControllerState()
    for error in errors:
        _, state = sb.step(state, error, GAINS, band)
    tolerance = 1e-12 * sum(abs(e) for e in errors)
    assert abs(state.error_sum - math.fsum(errors)) <= tolerance

