"""Bidding strategy catalogue and its replay loops.

Six strategies share the same replay convention: bid_1 is the bid standing
when the first price arrives, and after observing price p_j the strategy
emits bid_{j+1}.  A t-point trace therefore yields t+1 bids, the last of
which never meets a realized price and is only a recommendation.

The feedback strategy closes the loop: bid error -> PI controller -> band
model -> next bid.  The five baselines (minimum, mean, high, current,
ondemand) are price statistics.  Bidding can be biased at three stages:
shifting the reference prices (pre_delta, feedback only), changing the
controller gains, or shifting the emitted bids (post_delta).

run_strategy replays each kind with its own plain loop.  The feedback loop
inlines controller.step and band_model.bid_from_control, which stay as the
reference that tests hold it to bit for bit.  The loops read the trace's
stored price tuple and clamp each bid with two if statements, which keep the
same value as band.clamp's min/max on ties, -0.0 and NaN.
"""
from __future__ import annotations

import enum
import math
from collections import namedtuple
from itertools import accumulate, count
from operator import truediv

from .band_model import PriceBand
from .errors import DataError, UsageError
from .trace import PriceTrace, format_timestamp


class StrategyKind(enum.Enum):
    FEEDBACK = "feedback"
    MINIMUM = "minimum"
    MEAN = "mean"
    HIGH = "high"
    CURRENT = "current"
    ONDEMAND = "ondemand"


class StatMode(enum.Enum):
    """How minimum/mean/high read the price history.

    Causal uses only already-observed prices; a deployable bidder cannot see
    the future.  FullTrace uses the whole-trace statistic, constant across
    the series.
    """

    CAUSAL = "causal"
    FULL_TRACE = "fulltrace"


STAT_KINDS = frozenset({StrategyKind.MINIMUM, StrategyKind.MEAN, StrategyKind.HIGH})


class Adjustments(namedtuple(
    "Adjustments", "pre_delta post_delta", defaults=(0.0, 0.0)
)):
    """Bid biases: pre_delta shifts each reference price before the
    controller sees it, post_delta shifts each emitted bid."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> Adjustments:
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.pre_delta) and math.isfinite(self.post_delta)):
            raise ValueError(
                f"adjustments must be finite, got pre_delta={self.pre_delta}, "
                f"post_delta={self.post_delta}"
            )
        return self

    _make = classmethod(lambda cls, values: cls(*values))


class StrategySpec(namedtuple(
    "StrategySpec", "kind gains adjustments initial_bid stat_mode",
    defaults=(None, Adjustments(), None, None),
)):
    """A configured strategy.

    gains are required for feedback and forbidden elsewhere; stat_mode
    applies only to minimum/mean/high and defaults to causal.  initial_bid
    None means the default, half the band ceiling, resolved at run time.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> StrategySpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind is StrategyKind.FEEDBACK:
            if self.gains is None:
                raise ValueError("feedback strategy requires gains")
        elif self.gains is not None:
            raise ValueError(f"{self.kind.value} strategy takes no gains")
        if self.kind in STAT_KINDS:
            if self.stat_mode is None:
                self = super().__new__(cls, *self[:4], StatMode.CAUSAL)
        elif self.stat_mode is not None:
            raise ValueError(f"{self.kind.value} strategy takes no stat_mode")
        if self.initial_bid is not None and not math.isfinite(self.initial_bid):
            raise ValueError(f"initial_bid must be finite, got {self.initial_bid}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))


class BidSeries(namedtuple("BidSeries", "strategy_name bids spec")):
    """A strategy's bid trajectory: t+1 bids for a t-point trace.

    bids[-1] is emitted after the last observed price and never meets a
    realized price; it is a recommendation only and is excluded from
    scoring.
    """

    __slots__ = ()


def resolve_initial_bid(spec: StrategySpec, band: PriceBand) -> float:
    """The first bid: spec.initial_bid, or by default half the band ceiling
    (the on-demand price)."""
    return spec.initial_bid if spec.initial_bid is not None else band.ceiling / 2


def validate_spec(
    spec: StrategySpec, band: PriceBand, *, require_negative_gains: bool = True
) -> None:
    """Check band-dependent invariants; raises UsageError on violation.

    The default initial bid (ceiling/2) can fall below the floor on narrow
    bands; that is rejected here to force an explicit choice.
    """
    resolved = resolve_initial_bid(spec, band)
    if not band.floor <= resolved <= band.ceiling:
        raise UsageError(
            f"initial bid {resolved} outside band [{band.floor}, {band.ceiling}]"
            + ("" if spec.initial_bid is not None else " (default ceiling/2)")
        )
    if spec.gains is not None and require_negative_gains:
        if spec.gains.kp >= 0 or spec.gains.ki >= 0:
            raise UsageError(
                f"gains must be negative for corrective control, got "
                f"kp={spec.gains.kp}, ki={spec.gains.ki}; "
                f"pass allow_positive_gains to override"
            )


def _feedback_bids(
    spec: StrategySpec, trace: PriceTrace, band: PriceBand
) -> tuple[float, ...]:
    """controller.step, bid_from_control and the post_delta clamp per price,
    inlined over local floats with the same operations in the same order.

    The loop calls nothing but atan and append.  Each clamp is two if
    statements, `if floor > x: x = floor` then `if ceiling < x: x =
    ceiling`, which keep x on ties and NaN exactly as min(max(x, floor),
    ceiling) does; the finiteness test on u is the comparison -inf < u < inf.

    Errors name the step: step j observes price p_j, j counted from 1 as in
    the trajectory CSVs.
    """
    kp, ki = spec.gains.kp, spec.gains.ki
    pre, post = spec.adjustments.pre_delta, spec.adjustments.post_delta
    floor, ceiling, width = band.floor, band.ceiling, band.width
    half_pi, pi, atan, inf = math.pi / 2, math.pi, math.atan, math.inf
    bid = resolve_initial_bid(spec, band)
    bids = [bid]
    append = bids.append
    error_sum = 0.0
    for price in trace.prices():
        error = (price + pre) - bid
        # A non-finite price or error fails this comparison too.
        if not -width < error < width:
            if not math.isfinite(price):
                raise ValueError(f"observed price must be finite, got {price!r}")
            if not math.isfinite(error):  # price + pre_delta overflowed
                raise DataError(
                    f"{_step_label(trace, len(bids))}: error {error!r} is not "
                    f"finite (price={price!r}, pre_delta={pre}, bid={bid!r})"
                )
            raise DataError(
                f"{_step_label(trace, len(bids))}: error {error} outside "
                f"proportional band ({-width}, {width}); price and bid cannot "
                f"both lie inside the price band"
            )
        error_sum += error
        u = kp * error + ki * error_sum
        if not -inf < u < inf:
            raise DataError(
                f"{_step_label(trace, len(bids))}: control signal {u!r} is not "
                f"finite (kp={kp}, ki={ki}, error={error}, "
                f"error_sum={error_sum}); the gains are too large for this trace"
            )
        # This floor clamp binds only where atan(u) > math.pi / 2, which a
        # faithfully rounded atan may return from |u| of about 1.6e16.
        bid = floor + width * ((half_pi - atan(u)) / pi)
        if floor > bid:
            bid = floor
        if ceiling < bid:
            bid = ceiling
        bid = bid + post
        if floor > bid:
            bid = floor
        if ceiling < bid:
            bid = ceiling
        append(bid)
    return tuple(bids)


def _step_label(trace: PriceTrace, step: int) -> str:
    return f"step {step} ({format_timestamp(trace.stamps[step - 1])})"


def run_strategy(
    spec: StrategySpec, trace: PriceTrace, band: PriceBand
) -> BidSeries:
    """Replay one strategy over a validated trace.

    Constant strategies (ondemand, and the statistics in fulltrace mode)
    already bid their constant when the first price arrives; the other
    strategies start from the configured initial bid.  A non-finite price
    raises ValueError; for feedback, an error outside the proportional band
    or not finite, or a non-finite control signal, raises DataError naming
    the step.
    """
    validate_spec(spec, band, require_negative_gains=False)
    kind = spec.kind
    if kind is StrategyKind.FEEDBACK:
        bids = _feedback_bids(spec, trace, band)
        return BidSeries(strategy_name=kind.value, bids=bids, spec=spec)

    prices = trace.prices()
    if not all(map(math.isfinite, prices)):
        bad = next(price for price in prices if not math.isfinite(price))
        raise ValueError(f"observed price must be finite, got {bad!r}")
    post = spec.adjustments.post_delta
    if kind is StrategyKind.ONDEMAND:
        bids = (band.ceiling,) * (len(prices) + 1)
    elif spec.stat_mode is StatMode.FULL_TRACE:
        if kind is StrategyKind.MINIMUM:
            stat = min(prices)
        elif kind is StrategyKind.HIGH:
            stat = max(prices)
        else:
            stat = sum(prices) / len(prices)
        bids = (band.clamp(stat + post),) * (len(prices) + 1)
    else:
        if kind is StrategyKind.MEAN:
            # Sequential running sum from 0.0, not sum(): the causal mean's
            # rounding follows the order the prices arrive in.
            sums = accumulate(prices, initial=0.0)
            next(sums)
            stats = map(truediv, sums, count(1))
        else:
            stats = prices
        # The running minimum and high start from the first price, which as
        # a finite price always beats ±inf; a tie keeps the running value, as
        # builtin min and max do.
        running_min = kind is StrategyKind.MINIMUM
        running_max = kind is StrategyKind.HIGH
        low, high = math.inf, -math.inf
        # band.clamp per step, written as in _feedback_bids.
        floor, ceiling = band.floor, band.ceiling
        bids = [resolve_initial_bid(spec, band)]
        append = bids.append
        for stat in stats:
            if running_min:
                if stat < low:
                    low = stat
                stat = low
            elif running_max:
                if stat > high:
                    high = stat
                stat = high
            # `if post` is false for post_delta 0.0 and -0.0, and then the
            # bid is the stat object itself: the minimum, high and current
            # bids share the trace's price floats instead of allocating a new
            # float per step.  The bits are those of stat + post.  After
            # validate every stat is a positive finite double, and
            # stat + ±0.0 == stat exactly for any nonzero stat; a stat of
            # ±0.0 (an unvalidated trace) lies below the floor, which is
            # positive, so the clamp bids the floor either way.
            bid = stat + post if post else stat
            if floor > bid:
                bid = floor
            if ceiling < bid:
                bid = ceiling
            append(bid)
        bids = tuple(bids)
    return BidSeries(strategy_name=kind.value, bids=bids, spec=spec)
