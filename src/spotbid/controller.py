"""Discrete-time proportional-integral controller.

Each step folds the newest bid error into the accumulated error sum first,
then evaluates u = kp * error + ki * error_sum on the updated sum.  Both
gains are negative in normal operation: a positive error (price above the
standing bid) then yields a negative control signal, which the band model
turns into a higher corrective bid.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .band_model import PriceBand
from .errors import DataError


class PiGains(namedtuple("PiGains", "kp ki")):
    """Proportional and integral gains (kp, ki), dimensionless per USD.

    Corrective behaviour requires kp < 0 and ki < 0.  Sign validation lives
    at the configuration boundary (see strategies.validate_spec) so that the
    explicit positive-gains escape hatch stays constructible.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> PiGains:
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.kp) and math.isfinite(self.ki)):
            raise ValueError(f"gains must be finite, got kp={self.kp}, ki={self.ki}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))


class ControllerState(namedtuple(
    "ControllerState", "error_sum last_error", defaults=(0.0, 0.0)
)):
    """Accumulated error sum and the most recent error, both in USD."""

    __slots__ = ()


def step(
    state: ControllerState, error: float, gains: PiGains, band: PriceBand
) -> tuple[float, ControllerState]:
    """Advance the controller by one error observation.

    The error must lie strictly inside the proportional band
    (floor - ceiling, ceiling - floor); any bid/price pair drawn from inside
    the price band satisfies this, so a violation signals data that is
    incompatible with the configured band.  The sum is accumulated by plain
    sequential addition, deliberately without compensation.
    """
    if not math.isfinite(error):
        raise ValueError(f"error must be finite, got {error!r}")
    if not -band.width < error < band.width:
        raise DataError(
            f"error {error} outside proportional band "
            f"({-band.width}, {band.width}); "
            f"price and bid cannot both lie inside the price band"
        )
    error_sum = state.error_sum + error
    u = gains.kp * error + gains.ki * error_sum
    return u, ControllerState(error_sum=error_sum, last_error=error)

