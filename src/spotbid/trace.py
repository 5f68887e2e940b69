"""Spot-price traces: ingestion, validation, filtering, and synthesis.

A trace is the reference signal every strategy is replayed against.  Two
input formats are supported: a two-column CSV (`timestamp,price`) and the
JSON export shape of the EC2 spot-price-history tooling.  Timestamps are
UTC instants at second resolution; prices are positive USD/hour values
parsed into double precision.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from operator import itemgetter

from .band_model import PriceBand
from .errors import DataError

# Epoch for synthetic timestamps, one point per minute.
SYNTH_EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)

_AWS_FIELDS = (
    "Timestamp",
    "SpotPrice",
    "InstanceType",
    "ProductDescription",
    "AvailabilityZone",
)


@dataclass(frozen=True)
class PricePoint:
    """One spot-price observation: UTC instant and USD/hour price."""

    timestamp: datetime
    price: float


@dataclass(frozen=True)
class PriceTrace:
    """Ordered spot-price observations plus market metadata labels.

    The price column is built once, when the trace is constructed, because
    every strategy replay and every scoring pass reads it.  It is derived
    from points, so it takes no part in ==, hash or repr.
    """

    points: tuple[PricePoint, ...]
    instance_type: str = ""
    product: str = ""
    zone: str = ""
    _prices: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_prices", tuple([pt.price for pt in self.points]))

    def __len__(self) -> int:
        return len(self.points)

    def prices(self) -> tuple[float, ...]:
        return self._prices


@dataclass(frozen=True)
class TraceFilter:
    """Record selection for the JSON parser; absent fields match everything."""

    instance_type: str | None = None
    product: str | None = None
    zone: str | None = None
    time_range: tuple[datetime, datetime] | None = None

    def __post_init__(self) -> None:
        if self.time_range is not None:
            start, end = self.time_range
            if start.tzinfo is None or end.tzinfo is None:
                raise ValueError("time_range bounds must be timezone-aware")
            if start > end:
                raise ValueError(f"time_range start {start} after end {end}")


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the step-hold synthetic generator.

    The price path holds each level for a geometrically distributed number
    of steps (mean hold_steps_mean), then jumps by a uniform draw from
    [-step_scale, +step_scale], clamped into the band.
    """

    band: PriceBand
    n_points: int
    hold_steps_mean: int = 1
    step_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.band, PriceBand):
            # accept a bare (floor, ceiling) pair
            object.__setattr__(self, "band", PriceBand(*self.band))
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.hold_steps_mean < 1:
            raise ValueError(
                f"hold_steps_mean must be >= 1, got {self.hold_steps_mean}"
            )
        if self.hold_steps_mean > 1:
            # synth_step_hold divides by this log; past about 1e16 the
            # argument rounds to 1.0 and the log is 0.0.
            try:
                denominator = math.log(1.0 - 1.0 / self.hold_steps_mean)
            except OverflowError:
                denominator = 0.0
            if denominator == 0.0:
                raise ValueError(
                    f"hold_steps_mean {self.hold_steps_mean} is too large for a "
                    f"geometric hold in double precision"
                )
        if not (math.isfinite(self.step_scale) and self.step_scale > 0):
            raise ValueError(f"step_scale must be > 0, got {self.step_scale}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _decode(raw: bytes | str) -> str:
    if isinstance(raw, str):
        return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from None


def _parse_timestamp(text: str, where: str) -> datetime:
    raw = text.strip()
    # fromisoformat reads "Z" only from Python 3.11 on, and never "z".  The
    # inline fast paths of parse_csv and parse_aws_json hand it the raw text
    # and leave padded, "z" and (on 3.10) "Z" stamps to this rewrite.
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise DataError(f"unparseable timestamp {text!r} at {where}") from None
    if ts.tzinfo is None:
        raise DataError(f"timestamp {text!r} at {where} lacks a UTC offset")
    try:
        ts = ts.astimezone(timezone.utc)
    except OverflowError:
        raise DataError(
            f"timestamp {text!r} at {where} is out of range in UTC"
        ) from None
    if ts.microsecond:
        raise DataError(f"timestamp {text!r} at {where} has sub-second precision")
    return ts


def _parse_price(text: str, where: str) -> float:
    try:
        price = float(text.strip())
    except ValueError:
        raise DataError(f"unparseable price {text!r} at {where}") from None
    if not math.isfinite(price):
        raise DataError(f"unparseable price {text!r} at {where}")
    if price < 0:
        raise DataError(f"negative price {text!r} at {where}")
    return price


def format_timestamp(ts: datetime) -> str:
    """The instant as `YYYY-MM-DDTHH:MM:SSZ` in UTC, sub-seconds dropped.

    isoformat() always pads the year to four digits, which strftime's %Y
    does not below year 1000 on glibc, and its first 19 characters are the
    stamp up to the seconds.  It is also several times cheaper than strftime.
    """
    return ts.astimezone(timezone.utc).isoformat()[:19] + "Z"


def parse_csv(raw: bytes | str) -> PriceTrace:
    """Parse `timestamp,price` CSV into a trace, in file order.

    Validation is a separate step (see validate); this only enforces that
    each row parses.

    Each row is first converted inline, with the steps of _parse_timestamp
    and _parse_price in the same order, which saves two calls and an
    f-string per row: the stamp goes to fromisoformat as it is, an aware
    stamp is converted to UTC (a "Z" or zero offset already parses as
    timezone.utc), then must be at whole seconds, and the price must be
    finite and non-negative (float() skips surrounding whitespace as strip
    does).  A row that fails any step, a padded or "z" stamp among them,
    goes through the two helpers instead.  They stay the only code that
    words a parse error, so every message is theirs.
    """
    text = _decode(raw).lstrip("﻿")
    rows = csv.reader(io.StringIO(text))
    header = next(rows, None)
    if header is None or [cell.strip() for cell in header] != ["timestamp", "price"]:
        raise DataError(
            f"malformed header at line 1: expected 'timestamp,price', got {header!r}"
        )
    points: list[PricePoint] = []
    append = points.append
    utc, fromisoformat, isfinite = timezone.utc, datetime.fromisoformat, math.isfinite
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(
                f"expected 2 columns at line {line_no}, got {len(row)}"
            )
        try:
            ts = fromisoformat(row[0])
            if ts.tzinfo is not utc and ts.tzinfo is not None:
                ts = ts.astimezone(utc)
            price = float(row[1])
        except (ValueError, OverflowError):
            pass
        else:
            if ts.tzinfo is utc and not ts.microsecond and isfinite(price) and price >= 0:
                append(PricePoint(ts, price))
                continue
        where = f"line {line_no}"
        ts = _parse_timestamp(row[0], where)
        price = _parse_price(row[1], where)
        append(PricePoint(timestamp=ts, price=price))
    if not points:
        raise DataError("empty body: no data rows after the header")
    return PriceTrace(points=tuple(points))


def to_csv(trace: PriceTrace) -> str:
    """Serialize a trace to the canonical CSV form.

    Prices are written with repr so that parse(to_csv(trace)) recovers the
    exact same doubles.
    """
    lines = ["timestamp,price"]
    for pt in trace.points:
        lines.append(f"{format_timestamp(pt.timestamp)},{pt.price!r}")
    return "\n".join(lines) + "\n"


def _common_label(values: list[str]) -> str:
    unique = set(values)
    return values[0] if len(unique) == 1 else ""


def _aws_record(
    rec: object, where: str
) -> tuple[datetime, float, str, str, str]:
    """Check one record with the helpers; the wording of every record error."""
    if not isinstance(rec, dict):
        raise DataError(f"{where} is not an object")
    for key in _AWS_FIELDS:
        if key not in rec:
            raise DataError(f"{where} missing required field {key!r}")
    spot = rec["SpotPrice"]
    if not isinstance(spot, str):
        raise DataError(f"{where}: SpotPrice must be quoted decimal text")
    ts = _parse_timestamp(str(rec["Timestamp"]), where)
    price = _parse_price(spot, where)
    instance_type = str(rec["InstanceType"])
    product = str(rec["ProductDescription"])
    zone = str(rec["AvailabilityZone"])
    return ts, price, instance_type, product, zone


def parse_aws_json(
    raw: bytes | str, trace_filter: TraceFilter = TraceFilter()
) -> PriceTrace:
    """Parse a spot-price-history JSON export, filter, and sort by time.

    Accepts either a top-level array of records or an object with a
    `SpotPriceHistory` array.  Records matching every present filter field
    are kept and sorted by timestamp ascending, ties preserving input order.
    Every record is checked, kept or not.

    Each record is first checked inline, as parse_csv checks a row: five
    str fields, the stamp straight to fromisoformat, an aware stamp converted
    to UTC, then whole seconds and a finite non-negative price.  A record
    that fails any step is checked again by _aws_record, which runs the
    helpers in the original order.  It decides whether the record is
    accepted after all (a padded stamp, a non-str label) and, if not, words
    the error, so the first bad record and its message are the same as when
    every record went through it.
    """
    text = _decode(raw)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}") from None
    # The decoded text is as large as the input: free it before the kept
    # records and the points are built, which lowers the peak memory.
    del text
    if isinstance(doc, dict):
        records = doc.get("SpotPriceHistory")
        if records is None:
            raise DataError("JSON object lacks a 'SpotPriceHistory' array")
    else:
        records = doc
    if not isinstance(records, list):
        raise DataError("expected an array of spot-price records")

    want_type = trace_filter.instance_type
    want_product = trace_filter.product
    want_zone = trace_filter.zone
    time_range = trace_filter.time_range
    utc, fromisoformat, isfinite = timezone.utc, datetime.fromisoformat, math.isfinite
    kept: list[tuple[datetime, float, str, str, str]] = []
    append = kept.append
    for idx, rec in enumerate(records):
        try:
            stamp = rec["Timestamp"]
            spot = rec["SpotPrice"]
            instance_type = rec["InstanceType"]
            product = rec["ProductDescription"]
            zone = rec["AvailabilityZone"]
            if not (
                type(stamp) is str
                and type(spot) is str
                and type(instance_type) is str
                and type(product) is str
                and type(zone) is str
            ):
                raise TypeError  # _aws_record converts or rejects it
            ts = fromisoformat(stamp)
            if ts.tzinfo is not utc and ts.tzinfo is not None:
                ts = ts.astimezone(utc)
            price = float(spot)
            if not (
                ts.tzinfo is utc and not ts.microsecond and isfinite(price) and price >= 0
            ):
                raise ValueError
        except (KeyError, TypeError, ValueError, OverflowError):
            ts, price, instance_type, product, zone = _aws_record(rec, f"record {idx}")
        if want_type is not None and instance_type != want_type:
            continue
        if want_product is not None and product != want_product:
            continue
        if want_zone is not None and zone != want_zone:
            continue
        if time_range is not None and not time_range[0] <= ts <= time_range[1]:
            continue
        append((ts, price, instance_type, product, zone))
    if not kept:
        raise DataError("zero records after filtering")

    kept.sort(key=itemgetter(0))  # stable: ties keep input order
    return PriceTrace(
        points=tuple([PricePoint(ts, price) for ts, price, _, _, _ in kept]),
        instance_type=want_type or _common_label([item[2] for item in kept]),
        product=want_product or _common_label([item[3] for item in kept]),
        zone=want_zone or _common_label([item[4] for item in kept]),
    )


def validate(trace: PriceTrace) -> PriceTrace:
    """Check trace invariants: nonempty, increasing timestamps, positive prices."""
    if not trace.points:
        raise DataError("empty trace")
    for idx, pt in enumerate(trace.points):
        if not (math.isfinite(pt.price) and pt.price > 0):
            raise DataError(f"nonpositive price {pt.price} at index {idx}")
    for idx in range(1, len(trace.points)):
        prev = trace.points[idx - 1].timestamp
        curr = trace.points[idx].timestamp
        if curr <= prev:
            raise DataError(
                f"non-increasing timestamps at indices {idx - 1} and {idx}: "
                f"{format_timestamp(prev)} then {format_timestamp(curr)}"
            )
    return trace


def synth_step_hold(config: SynthConfig) -> PriceTrace:
    """Generate a deterministic step-hold price path.

    The generator is pinned for golden-file stability: a Mersenne Twister
    seeded with config.seed, one uniform draw in [floor, ceiling] for the
    starting level, then per segment a geometric hold length via the
    inverse-CDF transform 1 + floor(log(1-U) / log(1 - 1/hold_steps_mean))
    (a single step when the mean is 1) and a uniform jump in
    [-step_scale, +step_scale] clamped into the band.  Timestamps advance
    one minute per point from a fixed epoch.
    """
    band = config.band
    rng = random.Random(config.seed)
    level = rng.uniform(band.floor, band.ceiling)
    prices: list[float] = []
    while len(prices) < config.n_points:
        if config.hold_steps_mean <= 1:
            hold = 1
        else:
            hold = 1 + int(
                math.log(1.0 - rng.random())
                / math.log(1.0 - 1.0 / config.hold_steps_mean)
            )
        for _ in range(min(hold, config.n_points - len(prices))):
            prices.append(level)
        jump = rng.uniform(-config.step_scale, config.step_scale)
        level = band.clamp(level + jump)
    points = tuple(
        PricePoint(timestamp=SYNTH_EPOCH + timedelta(minutes=i), price=price)
        for i, price in enumerate(prices)
    )
    return PriceTrace(points=points, instance_type="synthetic")
