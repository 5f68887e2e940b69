"""Spot-price traces: ingestion, validation, filtering, and synthesis.

A trace is the reference signal every strategy is replayed against.  Two
input formats are supported: a two-column CSV (`timestamp,price`) and the
JSON export shape of the EC2 spot-price-history tooling.  Timestamps are
UTC instants at second resolution, held as epoch seconds (int); prices are
positive USD/hour values parsed into double precision.

A trace is two columns, not one object per point: replay and scoring read
only the prices, and stamps are only compared and formatted, which plain
ints do cheaply.  A per-point object cost as much to build as its row took
to parse, and held more memory than both of its values.
"""
from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple
from datetime import date, datetime, timezone
from itertools import islice
from operator import attrgetter, itemgetter, lt

from .band_model import PriceBand
from .errors import DataError

# Epoch seconds of 2020-01-01T00:00:00Z; synthetic traces step one minute.
SYNTH_EPOCH = 1577836800

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = 719163  # date(1970, 1, 1).toordinal()
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))

_AWS_FIELDS = (
    "Timestamp",
    "SpotPrice",
    "InstanceType",
    "ProductDescription",
    "AvailabilityZone",
)

# What _record_check's check returns for a record the filter drops: false,
# and a tuple, which JSON never yields.
_SKIPPED = ()

TracePoint = namedtuple("TracePoint", ("timestamp", "price"))


class PriceTrace:
    """Ordered spot-price observations plus market metadata labels.

    stamps holds each instant as UTC epoch seconds, price_column the price
    observed at it.  The five fields are read-only; ==, hash, repr and
    pickling follow them.  Not a named tuple: len() counts the points.
    """

    __slots__ = ("stamps", "price_column", "instance_type", "product", "zone")
    _values = property(attrgetter(*__slots__))

    def __init__(
        self, stamps: tuple[int, ...], price_column: tuple[float, ...],
        instance_type: str = "", product: str = "", zone: str = "",
    ) -> None:
        values = (stamps, price_column, instance_type, product, zone)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _read_only(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self._values)
        return f"PriceTrace({', '.join(fields)})"

    def __reduce__(self) -> tuple:
        return PriceTrace, self._values

    def __len__(self) -> int:
        return len(self.stamps)

    def prices(self) -> tuple[float, ...]:
        return self.price_column

    @property
    def points(self) -> tuple[TracePoint, ...]:
        """(timestamp, price) rows, built on each access; the package never reads it."""
        return tuple(map(TracePoint, self.stamps, self.price_column))


class TraceFilter(namedtuple(
    "TraceFilter", "instance_type product zone", defaults=(None,) * 3
)):
    """Record selection for the JSON parser; absent fields match everything."""

    __slots__ = ()


class SynthConfig(namedtuple(
    "SynthConfig", "band n_points hold_steps_mean step_scale seed", defaults=(1, 0.1, 0)
)):
    """Parameters for the step-hold synthetic generator.

    The price path holds each level for a geometrically distributed number
    of steps (mean hold_steps_mean), then jumps by a uniform draw from
    [-step_scale, +step_scale], clamped into the band.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> SynthConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.band, PriceBand):
            # accept a bare (floor, ceiling) pair
            self = super().__new__(cls, PriceBand(*self.band), *self[1:])
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.n_points > 10_000_000:
            raise ValueError(f"n_points must be <= 10000000, got {self.n_points}")
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
        return self

    _make = classmethod(lambda cls, values: cls(*values))


def _decode(raw: bytes | str) -> str:
    if isinstance(raw, str):
        return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from None


def _parse_timestamp(text: str, where: str) -> datetime:
    raw = text.strip()
    # fromisoformat reads "Z" but never "z".  The inline fast paths of
    # parse_csv and parse_aws_json hand it the raw text and leave padded and
    # "z" stamps to this rewrite.
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


def format_timestamp(stamp: int) -> str:
    """The instant `stamp`, in UTC epoch seconds, as `YYYY-MM-DDTHH:MM:SSZ`.

    stamp must lie in years 1 to 9999 (-62135596800 to 253402300799), or
    ValueError is raised.  The year always has four digits, as isoformat
    writes it, so every text parses back to the same stamp.

    format_timestamps, the same code over a column, formats the date once
    per day.  That cache is exact: floor division puts every stamp from
    day_start to day_start + 86399 on one UTC day, negative stamps included,
    and the time of day depends only on stamp - day_start.
    """
    return format_timestamps((stamp,))[0]


def format_timestamps(stamps: tuple[int, ...]) -> list[str]:
    """format_timestamp of each stamp, in order."""
    texts: list[str] = []
    append = texts.append
    two = _TWO_DIGITS
    day_start = day_end = 0
    day = ""
    for stamp in stamps:
        if not day_start <= stamp < day_end:
            days = stamp // 86400
            day_start = days * 86400
            day_end = day_start + 86400
            day = date.fromordinal(days + _EPOCH_ORDINAL).isoformat() + "T"
        hours, rest = divmod(stamp - day_start, 3600)
        minutes, seconds = divmod(rest, 60)
        append(f"{day}{two[hours]}:{two[minutes]}:{two[seconds]}Z")
    return texts


def _csv_lines(raw: bytes | str) -> io.TextIOBase:
    """The text of raw past its leading BOMs, as a stream of lines.

    A str is read from memory.  Bytes are first decoded whole by _decode, so
    that a UTF-8 error is worded with its position in the whole input and
    wins over any bad row; that text is then dropped.  The lines are decoded
    from the bytes a chunk at a time, and BytesIO shares the bytes rather
    than copying them, so no copy of the whole text is alive while the rows
    are read (an io.StringIO holds its text at 4 bytes per character).
    Every leading BOM is skipped, 3 bytes each, as lstrip skips them in a
    str.  Both streams end a line at "\n" only, StringIO's default, so a
    file of bare "\r" line ends is one line, which csv rejects.
    """
    if isinstance(raw, str):
        return io.StringIO(raw.lstrip("\ufeff"))
    text = _decode(raw)
    boms = len(text) - len(text.lstrip("\ufeff"))
    del text
    buffer = io.BytesIO(raw)
    buffer.seek(3 * boms)
    return io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")


def parse_csv(raw: bytes | str) -> PriceTrace:
    """Parse `timestamp,price` CSV into a trace, in file order.

    Validation is a separate step (see validate); this only enforces that
    each row parses.  The UTC stamp becomes epoch seconds as whole days and
    seconds of its distance from 1970-01-01.

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
    stamps: list[int] = []
    prices: list[float] = []
    append_stamp, append_price = stamps.append, prices.append
    utc, epoch = timezone.utc, _EPOCH
    fromisoformat, isfinite = datetime.fromisoformat, math.isfinite
    with _csv_lines(raw) as lines:
        rows = csv.reader(lines)
        # One try for the whole read: entering it costs nothing per row.
        try:
            header = next(rows, None)
            cells = None if header is None else [cell.strip() for cell in header]
            if cells != ["timestamp", "price"]:
                raise DataError(
                    f"malformed header at line 1: expected 'timestamp,price', "
                    f"got {header!r}"
                )
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
                    inline = (ts.tzinfo is utc and not ts.microsecond
                              and isfinite(price) and price >= 0)
                except (ValueError, OverflowError):
                    inline = False
                if not inline:
                    where = f"line {line_no}"
                    ts = _parse_timestamp(row[0], where)
                    price = _parse_price(row[1], where)
                delta = ts - epoch
                append_stamp(delta.days * 86400 + delta.seconds)
                append_price(price)
        except csv.Error as exc:  # a field over the csv module's size limit, say
            raise DataError(f"malformed CSV at line {rows.line_num}: {exc}") from None
    if not stamps:
        raise DataError("empty body: no data rows after the header")
    return PriceTrace(tuple(stamps), tuple(prices))


def to_csv(trace: PriceTrace) -> str:
    """Serialize a trace to the canonical CSV form.

    Prices are written with repr so that parse(to_csv(trace)) recovers the
    exact same doubles.
    """
    texts = format_timestamps(trace.stamps)
    lines = [f"{text},{price!r}" for text, price in zip(texts, trace.price_column)]
    return "\n".join(["timestamp,price", *lines]) + "\n"


def _common_label(values: tuple[str, ...]) -> str:
    return values[0] if len(set(values)) == 1 else ""


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
    for key in _AWS_FIELDS:  # a tuple is a nested record the hooked decode checked
        if isinstance(rec[key], (dict, list, tuple)):
            raise DataError(f"{where}: {key} must not be an object or array")
    ts = _parse_timestamp(str(rec["Timestamp"]), where)
    price = _parse_price(spot, where)
    instance_type = str(rec["InstanceType"])
    product = str(rec["ProductDescription"])
    zone = str(rec["AvailabilityZone"])
    return ts, price, instance_type, product, zone


def _record_check(trace_filter: TraceFilter):
    """check(rec, idx=None): one record as the tuple
    (stamp, price, instance_type, product, zone) if the filter keeps it, or
    _SKIPPED if it drops it.

    Without idx, as the hooked decode calls it, the record is checked inline,
    as parse_csv checks a row: five str fields, the stamp straight to
    fromisoformat, an aware stamp converted to UTC, then whole seconds and a
    finite non-negative price; a record that fails any step is returned as
    it is, so the decode leaves it in place.  With idx, _aws_record checks it
    with the helpers, in the original order: they give the inline tuple for
    every record the inline check accepts, also accept a padded or "z" stamp
    and a scalar label, and word any error as record idx.
    """
    want_type, want_product, want_zone = trace_filter
    utc, epoch = timezone.utc, _EPOCH
    fromisoformat, isfinite = datetime.fromisoformat, math.isfinite

    def check(rec: object, idx: int | None = None) -> object:
        if idx is not None:
            ts, price, instance_type, product, zone = _aws_record(rec, f"record {idx}")
        else:
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
                    ts.tzinfo is utc and not ts.microsecond and isfinite(price)
                    and price >= 0
                ):
                    raise ValueError
            except (KeyError, TypeError, ValueError, OverflowError):
                return rec
        if want_type is not None and instance_type != want_type:
            return _SKIPPED
        if want_product is not None and product != want_product:
            return _SKIPPED
        if want_zone is not None and zone != want_zone:
            return _SKIPPED
        delta = ts - epoch
        return delta.days * 86400 + delta.seconds, price, instance_type, product, zone

    return check


def parse_aws_json(
    raw: bytes | str, trace_filter: TraceFilter = TraceFilter()
) -> PriceTrace:
    """Parse a spot-price-history JSON export, filter, and sort by time.

    Accepts either a top-level array of records or an object with a
    `SpotPriceHistory` array.  Records matching every present filter field
    are kept and sorted by timestamp ascending, ties preserving input order.
    Every record is checked, kept or not; only a kept one has its stamp
    converted to epoch seconds.

    The text is decoded once, and the decoder hands every JSON object to
    _record_check's check as it builds it, so a record's dict and strings
    are freed at once and only the kept tuples stay.  A record the inline
    check declines stays a dict where the decoder left it; once the shape
    of the document is checked, check with its index hands it to the
    helpers, so the first bad record and its message are the helpers'.  JSON never
    yields a tuple, so a tuple in the array is a checked record.  Only a
    hooked decode that ran out of depth or yielded a tuple (the top-level
    object passed as a record) is followed by a plain decode, without the
    hook; invalid JSON fails the hooked decode where it would fail the plain
    one, with the same message.
    """
    # The input bytes and the decoded text are each as large as the file.
    # Each is freed as soon as it is no longer read, which lowers the peak
    # memory: the bytes once decoded (if the caller holds no other reference,
    # as when the CLI passes them straight in), the text once decoded.
    text = _decode(raw)
    del raw
    check = _record_check(trace_filter)
    try:
        doc = json.loads(text, object_hook=check)
    except json.JSONDecodeError as exc:  # the hook never raises it
        raise DataError(f"invalid JSON: {exc}") from None
    except RecursionError:
        doc = _SKIPPED  # a tuple: the plain decode, which nests less deep, runs
    if type(doc) is tuple:
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise DataError(f"invalid JSON: {exc}") from None
    del text
    records = doc.get("SpotPriceHistory") if type(doc) is dict else doc
    if type(doc) is dict and records is None:
        raise DataError("JSON object lacks a 'SpotPriceHistory' array")
    if not isinstance(records, list):
        raise DataError("expected an array of spot-price records")
    if not set(map(type, records)) <= {tuple}:
        for idx, rec in enumerate(records):
            if type(rec) is not tuple:
                records[idx] = check(rec, idx)
    kept = list(filter(None, records))  # drops each _SKIPPED
    del doc, records
    if not kept:
        raise DataError("zero records after filtering")

    kept.sort(key=itemgetter(0))  # stable: ties keep input order
    stamps, prices, types, products, zones = zip(*kept)
    return PriceTrace(
        stamps,
        prices,
        instance_type=trace_filter.instance_type or _common_label(types),
        product=trace_filter.product or _common_label(products),
        zone=trace_filter.zone or _common_label(zones),
    )


def validate(trace: PriceTrace) -> PriceTrace:
    """Check trace invariants: nonempty, increasing timestamps, positive prices.

    A valid trace is decided by passes in C (all over map, min); only an
    invalid one is walked in Python, to name its first bad index.
    """
    prices, stamps = trace.price_column, trace.stamps
    if not prices:
        raise DataError("empty trace")
    if not (all(map(math.isfinite, prices)) and min(prices) > 0):
        idx = next(i for i, p in enumerate(prices) if not (math.isfinite(p) and p > 0))
        raise DataError(f"nonpositive price {prices[idx]} at index {idx}")
    if not all(map(lt, stamps, islice(stamps, 1, None))):
        idx = next(i for i in range(1, len(stamps)) if stamps[i] <= stamps[i - 1])
        raise DataError(
            f"non-increasing timestamps at indices {idx - 1} and {idx}: "
            f"{format_timestamp(stamps[idx - 1])} then {format_timestamp(stamps[idx])}"
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
    one minute per point from SYNTH_EPOCH.
    """
    # Imported here so that only synth pays for it.
    import random

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
    stamps = tuple(range(SYNTH_EPOCH, SYNTH_EPOCH + 60 * len(prices), 60))
    return PriceTrace(stamps, tuple(prices), instance_type="synthetic")
