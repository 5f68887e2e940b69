"""Scoring: success rate, distance, and relative rationality.

All three scores pair bid_i with price p_i for i = 1..t; the trailing
recommendation bid has no realized price and is never scored.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import DataError
from .strategies import BidSeries
from .trace import PriceTrace


class MetricsSummary(namedtuple(
    "MetricsSummary", "success_rate distance relative_rationality", defaults=(None,)
)):
    """Per-strategy scores.

    success_rate is the 0-1 fraction of steps where the standing bid met or
    exceeded the spot price (ties succeed).  distance is the L1 distance
    between bids and prices in USD.  relative_rationality is filled in only
    within a comparison set, where the smallest-distance strategy scores 1.
    """

    __slots__ = ()


def score(series: BidSeries, trace: PriceTrace) -> MetricsSummary:
    """Success rate and distance of one series, in one pass over the t
    scored steps.

    zip stops at the last price, so the trailing recommendation bid is never
    read.  The distance is accumulated in step order by plain addition;
    tests hold a straight-loop oracle to bitwise equality, so the order is
    contractual.  An explicit loop, not builtin sum: newer interpreters
    compensate float summation, which would change results in the last ulp.
    |bid - price| is written as the difference on the side of the hit test
    it falls on, which rounds to the same double.
    """
    bids, prices = series.bids, trace.prices()
    if len(bids) != len(prices) + 1:
        raise DataError(
            f"series/trace length mismatch: {len(bids)} bids for "
            f"{len(prices)} prices (expected t+1 bids)"
        )
    hits = 0
    total = 0.0
    for bid, price in zip(bids, prices):
        if bid >= price:
            hits += 1
            total += bid - price
        else:
            total += price - bid
    return MetricsSummary(success_rate=hits / len(prices), distance=total)


def success_rate(series: BidSeries, trace: PriceTrace) -> float:
    """Fraction of the t scored steps with bid_i >= p_i (ties succeed)."""
    return score(series, trace).success_rate


def distance(series: BidSeries, trace: PriceTrace) -> float:
    """L1 distance sum(|bid_i - p_i|) over the t scored steps, summed in
    step order."""
    return score(series, trace).distance


def relative_rationality(
    distances: Sequence[tuple[str, float]],
) -> list[tuple[str, float]]:
    """Normalize a comparison set of distances: rr_j = min(d) / d_j.

    Every rr lies in (0, 1] and at least one entry is exactly 1.  A zero
    distance is rejected: relative rationality assumes no strategy tracks
    the trace perfectly.
    """
    if not distances:
        raise ValueError("empty comparison set")
    for name, d in distances:
        if d == 0:
            raise DataError(
                f"strategy {name!r} has zero distance; relative rationality "
                f"assumes no strategy tracks the trace perfectly"
            )
        if not (math.isfinite(d) and d > 0):
            raise DataError(f"strategy {name!r} has invalid distance {d!r}")
    smallest = min(d for _, d in distances)
    return [(name, smallest / d) for name, d in distances]
