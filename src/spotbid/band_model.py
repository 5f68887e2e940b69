"""Arccotangent band model mapping a control signal to a bid price.

The model is y = floor + (ceiling - floor) * arccot(u) / pi, using the
continuous decreasing arccot branch with range (0, pi), i.e.
arccot(u) = pi/2 - arctan(u).  Every finite control signal therefore maps
strictly inside the band: large positive u approaches the floor, large
negative u approaches the ceiling, and u = 0 lands halfway between them.
"""
from __future__ import annotations

import math
from collections import namedtuple


class PriceBand(namedtuple("PriceBand", "floor ceiling")):
    """Price floor and ceiling (USD/hour) bounding all rational bids.

    The floor is the lowest observed or reserved spot price; the ceiling is
    the on-demand price.

    The package's records are named tuples.  Those with checks run them in
    __new__, and route _make, which _replace builds with, back through it.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> PriceBand:
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.floor) and math.isfinite(self.ceiling)):
            raise ValueError("band floor and ceiling must be finite")
        if not 0 < self.floor < self.ceiling:
            raise ValueError(
                f"band requires 0 < floor < ceiling, got "
                f"floor={self.floor}, ceiling={self.ceiling}"
            )
        return self

    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def width(self) -> float:
        return self.ceiling - self.floor

    def clamp(self, price: float) -> float:
        return min(max(price, self.floor), self.ceiling)


def bid_from_control(u: float, band: PriceBand) -> float:
    """Map a finite control signal u to a bid strictly inside the band.

    Strictly decreasing in u; bid_from_control(0) is halfway up the band.
    In double precision the arccot saturates for |u| beyond ~1e16, so the
    result is clamped: rounding of pi/2 - atan(u) near its endpoints can
    otherwise overshoot the band by one ulp.
    """
    if not math.isfinite(u):
        raise ValueError(f"control signal must be finite, got {u!r}")
    arccot = math.pi / 2 - math.atan(u)
    return band.clamp(band.floor + band.width * (arccot / math.pi))


def control_from_bid(bid: float, band: PriceBand) -> float:
    """Analytic inverse of bid_from_control for bids strictly inside the band."""
    if not math.isfinite(bid):
        raise ValueError(f"bid must be finite, got {bid!r}")
    if not band.floor < bid < band.ceiling:
        raise ValueError(
            f"bid {bid} on/outside band ({band.floor}, {band.ceiling}); "
            f"the inverse is defined only strictly inside"
        )
    # theta = arccot(u) recovered from the bid; cot(theta) = cos/sin is
    # pole-free because theta stays inside (0, pi).
    theta = math.pi * (bid - band.floor) / band.width
    return math.cos(theta) / math.sin(theta)
