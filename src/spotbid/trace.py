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
import os
import re
import stat
from collections import namedtuple
from collections.abc import Iterator
from datetime import date, datetime, timezone
from itertools import islice, repeat
from operator import attrgetter, gt, le, lt, sub

from . import forking
from .band_model import PriceBand
from .errors import DataError

# Epoch seconds of 2020-01-01T00:00:00Z; synthetic traces step one minute.
SYNTH_EPOCH = 1577836800

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = 719163  # date(1970, 1, 1).toordinal()
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))

# Bytes of CSV rows parse_csv converts at a time in its chunk pass.  A
# 25k-row parse took 17.8, 16.8, 16.3 and 16.2 ms with chunks of 4, 8, 16
# and 32 KiB, against 33 ms for the row loop alone (Python 3.11.7, min of
# 35).  The pass peaks at about 7.5 bytes per chunk byte (tracemalloc),
# 120 KB here; the process's peak RSS after that parse rose 0.3 MB above
# the row loop's at 16 KiB and 0.4 MB at 32 KiB.
CSV_CHUNK_BYTES = 16 * 1024
_BOM = b"\xef\xbb\xbf"
# Rows csv_blocks formats at a time.  `ingest` writes the 25k points the AWS
# benchmark keeps block by block, and its peak RSS fell from 18.73 MB at
# 4096 rows to 18.40, 18.28, 18.17 and 18.17 MB at 2048, 1024, 512 and
# 256 (os.wait4, median of 7); the write's heap peak is about 175 bytes a
# row, and every size wrote it in 11.5-12.1 ms (tracemalloc, min of 15;
# 2-CPU Intel Xeon host, Python 3.11.7).
_CSV_BLOCK_ROWS = 512
# Every byte but "," and "\n": deleting them leaves a chunk's separators.
_NOT_SEPARATORS = bytes(sorted(set(range(256)).difference(b",\n")))
_TZINFO = attrgetter("tzinfo")
_MICROSECOND = attrgetter("microsecond")

_AWS_FIELDS = (
    "Timestamp",
    "SpotPrice",
    "InstanceType",
    "ProductDescription",
    "AvailabilityZone",
)

# Bytes of an AWS document at or above which its decode is split across the
# usable CPUs.  The hooked decode reads about 10 ns a byte, and a fork with
# its pipe and waitpid costs 1.6-2.7 ms (2-CPU Intel Xeon host, Python
# 3.11.7, in a process holding the 16.75 MB benchmark document), so a child
# pays for itself from about 270 KB.  Each share must hold half the
# threshold, about twice that, so a decode forks only for a clear gain.
FORK_MIN_BYTES = 1 << 20

# How an AWS document that is decoded in pieces opens: an array, or an
# object whose first key is SpotPriceHistory, holding an array; group 1 is
# set for the object.  A share is cut before a "," that precedes a "{".
_AWS_OPENER = re.compile(
    rb'[ \t\n\r]*(\{[ \t\n\r]*"SpotPriceHistory"[ \t\n\r]*:[ \t\n\r]*)?\['
)
_AWS_CUT = re.compile(rb",[ \t\n\r]*\{")
_JSON_SPACE = b" \t\n\r"

# Bytes read from the start of an AWS document to match _AWS_OPENER: a
# document whose opener, with its whitespace, is longer is decoded whole.
_HEAD_BYTES = 4096
# Bytes read at a time while looking for a cut.  A cut lies within a record
# or two of where the search starts; a longer run is read window by window.
_CUT_WINDOW_BYTES = 4096

# Bytes of an AWS record array decoded at a time: a piece ends at the first
# cut at or past this many bytes from its start.  The 16.75 MB benchmark
# document parsed in 116.5, 111.9, 111.2 and 116.1 ms in pieces of 16, 64,
# 256 and 1024 KiB with one usable CPU (110.2 ms decoded whole), and in
# 63.8, 60.9, 60.7 and 65.2 ms with two (73.4 ms in whole shares); in
# process, best of 3 processes of 7 parses.  The tracemalloc peak of a
# 2 MB document's parse was 0.21, 0.21, 0.30 and 1.05 times its size (1.44
# whole).  2-CPU Intel Xeon host, Python 3.11.7.
AWS_PIECE_BYTES = 64 * 1024

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
    # fromisoformat reads "Z" but never "z".  parse_csv's chunk pass and
    # parse_aws_json's inline check hand it the raw text and leave padded
    # and "z" stamps to this rewrite.
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


def parse_csv(raw: bytes | str) -> PriceTrace:
    """Parse `timestamp,price` CSV into a trace, in file order.

    Validation is a separate step (see validate); this only enforces that
    each row parses.  The UTC stamp becomes epoch seconds as whole days and
    seconds of its distance from 1970-01-01.

    Bytes are first decoded whole by _decode, so that a UTF-8 error is
    worded with its position in the whole input and wins over any bad row;
    that text is then dropped.  A str is encoded with surrogatepass, so that
    one path reads both and a lone surrogate reaches the converters, which
    reject it as they do in a str.  Every leading BOM is skipped.

    The header line goes through the row loop (_read_rows).  The rows after
    it are cut into chunks of about CSV_CHUNK_BYTES, each ending at a "\n",
    and each chunk takes the chunk pass (_convert_chunk), which converts it
    by passes over the whole chunk in C.  A chunk the pass cannot prove
    clean goes through the row loop instead, with its true line numbers: one
    with a lone "\r", a blank line or a line without exactly two cells, a
    cell that fromisoformat or float() rejects, a naive stamp, one that does
    not convert to UTC at whole seconds, a price that is not finite and
    non-negative, or more bytes than csv.field_size_limit().  A '"' in a
    chunk hands the rest of the input to the row loop, because a quoted
    field may span lines.  The row loop converts every row with the helpers
    _parse_timestamp and _parse_price, and the chunk pass accepts a row only
    where they would, with the same values, so the trace and every error
    are the row loop's.
    """
    if isinstance(raw, str):
        data = raw.encode("utf-8", "surrogatepass")
    else:
        _decode(raw)
        data = raw
    pos = 0
    while data.startswith(_BOM, pos):
        pos += 3
    stamps: list[int] = []
    prices: list[float] = []
    limit = csv.field_size_limit()
    line_no, counted = 1, pos  # line_no is the number of the line at counted
    end = data.find(b"\n", pos) + 1 or len(data)  # the header line
    header = True
    while True:
        quoted = data.find(b'"', pos, end) >= 0
        if (header or quoted or end - pos > limit
                or not _convert_chunk(data[pos:end], stamps, prices)):
            line_no += data.count(b"\n", counted, pos)
            counted = pos
            stop = None if quoted or end == len(data) else data.count(b"\n", pos, end)
            with _text_lines(data, pos) as lines:
                _read_rows(islice(lines, stop), line_no, stamps, prices)
            if quoted:
                break
        if end == len(data):
            break
        header = False
        pos = end
        end = (data.rfind(b"\n", pos, pos + CSV_CHUNK_BYTES) + 1
               or data.find(b"\n", pos + CSV_CHUNK_BYTES) + 1 or len(data))
    if not stamps:
        raise DataError("empty body: no data rows after the header")
    return PriceTrace(tuple(stamps), tuple(prices))


def _text_lines(data: bytes, pos: int) -> io.TextIOWrapper:
    """The text of data from byte pos on, as a stream of lines.

    BytesIO shares the bytes rather than copying them, and the text is
    decoded a piece at a time, so no copy of the whole text is alive while
    the rows are read.  A line ends at "\n" only, so a file of bare "\r"
    line ends is one line, which csv rejects.
    """
    buffer = io.BytesIO(data)
    buffer.seek(pos)
    return io.TextIOWrapper(
        buffer, encoding="utf-8", errors="surrogatepass", newline="\n"
    )


def _read_rows(lines, line_no: int, stamps: list[int], prices: list[float]) -> None:
    """The row loop: append the rows of lines, the first of them at line
    line_no, to stamps and prices; line 1 is the header.

    Every row is converted by _parse_timestamp and _parse_price, the only
    code that words a parse error, so every message is theirs.
    """
    first = line_no
    rows = csv.reader(lines)
    # One try for the whole read: entering it costs nothing per row.
    try:
        if line_no == 1:
            header = next(rows, None)
            cells = None if header is None else [cell.strip() for cell in header]
            if cells != ["timestamp", "price"]:
                raise DataError(
                    f"malformed header at line 1: expected 'timestamp,price', "
                    f"got {header!r}"
                )
            line_no = 2
        for line_no, row in enumerate(rows, start=line_no):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"expected 2 columns at line {line_no}, got {len(row)}")
            where = f"line {line_no}"
            delta = _parse_timestamp(row[0], where) - _EPOCH
            stamps.append(delta.days * 86400 + delta.seconds)
            prices.append(_parse_price(row[1], where))
    except csv.Error as exc:  # a field over the csv module's size limit, say
        line = first - 1 + rows.line_num
        raise DataError(f"malformed CSV at line {line}: {exc}") from None


def _convert_chunk(chunk: bytes, stamps: list[int], prices: list[float]) -> bool:
    """The chunk pass: append the rows of chunk to stamps and prices and
    return True, or return False, with neither list changed, unless every
    row is one the helpers convert without their strip and "z" rewrite.

    The caller passes a chunk with no '"' and no more bytes than csv's
    field size limit.  With "\r\n" folded to "\n", each line must be a
    cell, ",", a cell, so the cells alternate stamp and price, and each
    must pass the helpers' steps on its raw text: fromisoformat, an aware
    stamp, astimezone for one not in timezone.utc, whole seconds, then
    float() and a finite non-negative price.  Every step but two runs over
    the whole chunk in C; the conversion of non-UTC stamps and that to
    epoch seconds are comprehensions.
    """
    if b"\r" in chunk:
        chunk = chunk.replace(b"\r\n", b"\n")
        if b"\r" in chunk:
            return False
    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    separators = chunk.translate(None, _NOT_SEPARATORS)
    if separators != b",\n" * (len(separators) // 2):
        return False
    cells = chunk.decode("utf-8", "surrogatepass").replace("\n", ",").split(",")
    del cells[-1]  # the empty text after the last "\n"
    try:
        times = list(map(datetime.fromisoformat, cells[0::2]))
        values = list(map(float, cells[1::2]))
    except ValueError:
        return False
    utc = timezone.utc
    zones = set(map(_TZINFO, times))
    if zones != {utc}:
        if None in zones:
            return False
        try:
            times = [ts if ts.tzinfo is utc else ts.astimezone(utc) for ts in times]
        except OverflowError:
            return False
    if any(map(_MICROSECOND, times)) or not (
        all(map(math.isfinite, values)) and min(values) >= 0
    ):
        return False
    stamps += [d.days * 86400 + d.seconds for d in map(sub, times, repeat(_EPOCH))]
    prices += values
    return True


def csv_blocks(trace: PriceTrace) -> Iterator[str]:
    """to_csv's text in pieces: the header line, then _CSV_BLOCK_ROWS rows
    at a time.  Only the block being yielded is alive: a writer that takes
    each piece in turn holds one block's text beside the trace."""
    stamps, prices = trace.stamps, trace.price_column
    yield "timestamp,price\n"
    for at in range(0, len(stamps), _CSV_BLOCK_ROWS):
        rows = zip(format_timestamps(stamps[at:at + _CSV_BLOCK_ROWS]),
                   prices[at:at + _CSV_BLOCK_ROWS])
        yield "".join([f"{text},{price!r}\n" for text, price in rows])


def to_csv(trace: PriceTrace) -> str:
    """Serialize a trace to the canonical CSV form, csv_blocks joined.

    Prices are written with repr so that parse(to_csv(trace)) recovers the
    exact same doubles.  The text is built a block at a time, so one
    block's stamp texts and lines are alive beside the blocks so far; to
    write the text, pass csv_blocks to the writer instead.
    """
    return "".join(csv_blocks(trace))


def _common_label(values) -> str:
    labels = set(values)
    return labels.pop() if len(labels) == 1 else ""


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
    _SKIPPED if it drops it.  A kept record holds the filter's own string
    for each label the filter fixes, not a copy from the document.

    Without idx, as the hooked decode calls it, the record is checked inline,
    as parse_csv's chunk pass checks a row: five str fields, the stamp
    straight to fromisoformat, an aware stamp converted to UTC, then whole
    seconds and a finite non-negative price; a record that fails any step
    is returned as it is, so the decode leaves it in place.  With idx,
    _aws_record checks it with the helpers, in the original order: they
    give the inline tuple for every record the inline check accepts, also
    accept a padded or "z" stamp and a scalar label, and word any error as
    record idx.
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
        # The filter's own strings, equal to the labels and shared by every record.
        return (delta.days * 86400 + delta.seconds, price, want_type or instance_type,
                want_product or product, want_zone or zone)

    return check


def parse_aws_json(
    raw: bytes | str | io.IOBase, trace_filter: TraceFilter = TraceFilter()
) -> PriceTrace:
    """Parse a spot-price-history JSON export, filter, and sort by time.

    Accepts either a top-level array of records or an object with a
    `SpotPriceHistory` array.  Records matching every present filter field
    are kept and sorted by timestamp ascending, ties preserving input order.
    Every record is checked, kept or not; only a kept one has its stamp
    converted to epoch seconds.

    raw is the document's bytes or text, or a binary file open on it.  A
    regular file is the document from offset 0 to the size os.fstat gives
    when the parse starts, and every read of it is an os.pread, which leaves
    the file's offset alone, so that a forked child can read its share of
    the same open file; the document is never held whole unless the
    whole-document decode below runs.  Any other file (a pipe, say) is read
    whole from where it stands, and parsed as its bytes.  A read that fails
    raises its OSError.

    The decoder hands every JSON object to _record_check's check as it
    builds it, so a record's dict and strings are freed at once, and the
    kept records are held as columns (see _share_columns).  A record the inline
    check declines stays a dict where the decoder left it; once the shape
    of the document is checked, check with its index hands it to the
    helpers, so the first bad record and its message are the helpers'.
    JSON never yields a tuple, so a tuple in the array is a checked record.

    Bytes or a file that open as an array or as {"SpotPriceHistory": [,
    however small, are decoded a piece of about AWS_PIECE_BYTES at a time,
    and from FORK_MIN_BYTES on in shares, one per usable CPU, where os.fork
    exists and no second thread runs (see _kept_in_shares and
    forking.share_count).  Every piece is decoded with the same hook.  Any
    doubt about a piece takes the whole-document decode below instead, so
    the trace and any error are that decode's; a regular file is then read
    whole, up to its size.  That decode alone reads a str and a document of
    any other opening.  It decodes the whole text with the hook; only a
    hooked decode that ran out of depth or yielded a tuple (the top-level
    object passed as a record) is followed by a plain decode, without the
    hook.  Invalid JSON fails the
    hooked decode where it would fail the plain one, with the same message.
    An integer of more digits than int() converts is invalid JSON too:
    json.loads raises a plain ValueError.

    AWS lists records newest first, so the kept stamps are checked before
    any sort: strictly decreasing ones give the columns reversed, and
    non-decreasing ones the columns as they stand, which is what the
    stable sort would give; only other orders, equal stamps among
    decreasing ones included, take an index sort.  Each column is freed as
    soon as the trace's tuple of it is built.
    """
    check = _record_check(trace_filter)
    if not isinstance(raw, (bytes, str)) and not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
        raw = raw.read()  # a pipe, say, cannot be read at an offset
    if isinstance(raw, str):
        columns = None
    else:
        if isinstance(raw, bytes):
            read, size = (lambda offset, count: raw[offset:offset + count]), len(raw)
        else:
            fd = raw.fileno()
            read, size = (lambda offset, count: _pread(fd, offset, count)), os.fstat(fd).st_size
        columns = _kept_in_shares(read, size, check)
        if columns is None:
            raw = read(0, size)  # of bytes, the object itself: a whole slice is no copy
    if columns is None:
        # The input bytes and the decoded text are each as large as the file.
        # Each is freed as soon as it is no longer read, which lowers the
        # peak memory: the bytes once decoded (if the caller holds no other
        # reference, as for bytes read from a file here), the text once
        # decoded.
        text = _decode(raw)
        del raw
        try:
            doc = json.loads(text, object_hook=check)
        except ValueError as exc:  # JSONDecodeError, or an int over 4300 digits
            raise DataError(f"invalid JSON: {exc}") from None
        except RecursionError:
            doc = _SKIPPED  # a tuple: the plain decode, which nests less deep, runs
        if type(doc) is tuple:
            try:
                doc = json.loads(text)
            except (ValueError, RecursionError) as exc:  # too deeply nested
                raise DataError(f"invalid JSON: {exc}") from None
        del text
        records = doc.get("SpotPriceHistory") if type(doc) is dict else doc
        if type(doc) is dict and records is None:
            raise DataError("JSON object lacks a 'SpotPriceHistory' array")
        if not isinstance(records, list):
            raise DataError("expected an array of spot-price records")
        kept = filter(None, _check_declined(records, check))  # drops each _SKIPPED
        columns = list(zip(*kept)) or [()] * 5
        del doc, records, kept
    stamps, prices, types, products, zones = columns
    del columns
    if not stamps:
        raise DataError("zero records after filtering")

    if all(map(gt, stamps, islice(stamps, 1, None))):  # newest first, as AWS lists them
        column = lambda values: tuple(reversed(values))
    elif all(map(le, stamps, islice(stamps, 1, None))):  # a stable sort moves nothing
        column = tuple
    else:
        stamps = list(stamps)  # a list indexes faster than an array, and its ints go to the trace
        order = sorted(range(len(stamps)), key=stamps.__getitem__)  # stable: ties keep input order
        column = lambda values: tuple(map(values.__getitem__, order))
    stamps = column(stamps)  # each column is freed as soon as its tuple exists
    prices = column(prices)
    return PriceTrace(
        stamps,
        prices,
        instance_type=trace_filter.instance_type or _common_label(types),
        product=trace_filter.product or _common_label(products),
        zone=trace_filter.zone or _common_label(zones),
    )


def _keep(columns: list, kept) -> None:
    """Append the kept records, check's tuples, to columns (see
    _share_columns).  A set of labels stops growing once it holds two: the
    trace's label is then ""."""
    values = list(zip(*kept))
    if values:
        columns[0].fromlist(list(values[0]))
        columns[1].fromlist(list(values[1]))
        for labels, texts in zip(columns[2:], values[2:]):
            if len(labels) < 2:
                labels.update(texts)


def _check_declined(records: list, check) -> list:
    """records, with each record the hooked decode declined (anything but a
    tuple) replaced in place by check(rec, idx); idx counts from 0."""
    if not set(map(type, records)) <= {tuple}:
        for idx, rec in enumerate(records):
            if type(rec) is not tuple:
                records[idx] = check(rec, idx)
    return records


def _pread(fd: int, offset: int, count: int) -> bytes:
    """count bytes of the file fd from offset on, fewer only where it ends.
    One os.pread gives at most about 2 GiB."""
    data = os.pread(fd, count, offset)
    while len(data) < count and (more := os.pread(fd, count - len(data), offset + len(data))):
        data += more
    return data


def _kept_in_shares(read, size: int, check) -> list | None:
    """The columns of the kept records of a document of size bytes in input
    order (see _share_columns), decoded a piece at a time and from
    FORK_MIN_BYTES on in shares, or None when the whole-document decode must
    run.  read(offset, count) gives the document's bytes from offset on, at
    most count of them: fewer only where the document ends.

    Only a document that opens as an array or as {"SpotPriceHistory": [
    (_AWS_OPENER, within its first _HEAD_BYTES) is cut, however small.  Its
    first share starts just after that "[".  From FORK_MIN_BYTES on it is
    split in one share per usable CPU, each cut at the first "," +
    whitespace + "{" at or past an even split point (_next_cut).  Every
    share goes through one forking.run_shares call: this process decodes
    the first, a forked child each of the others, and a single share forks
    nothing.  Each share reads its own bytes and is decoded a piece at a
    time by _share_columns, the pieces cut the same way, with check as the
    hook, as the whole-document decode is.

    A cut is trusted because every piece, "[" + its bytes, decodes to a
    nonempty array, and the last one is followed only by the end of the
    document (_tail_ok).  By induction each piece starts at a record of the
    record array, so one that decodes ends between two of them: a cut
    inside a string leaves it unterminated, a cut at another depth leaves
    the closers unbalanced, and a record array that ends inside the piece
    leaves extra data.  So a second SpotPriceHistory key, which the
    whole-document decode lets win, is always in doubt.

    Each share gives its record count, the index in the share and the dict
    of the first record the helpers reject (or None), and the columns of
    its kept records; a child's come back through the pipe, which
    keeps the dicts, lists, tuples, strings and numbers of a record as they
    are, and an array as its bytes.  This process checks a rejected record
    again with its index in the whole document, once every share came back
    and every earlier share is clean, so a DataError it raises is the whole
    decode's.  Any doubt returns None: invalid JSON or UTF-8, nesting too
    deep, an empty record array, a read that came back short (a file cut
    short during the parse), a child that died or a fork that failed.  A
    read that fails here raises its OSError; one that fails in a child
    leaves its share in doubt.
    """
    opener = _AWS_OPENER.match(read(0, _HEAD_BYTES))
    if opener is None:
        return None
    shares = forking.share_count(size, FORK_MIN_BYTES)
    ends: list[int] = []  # where each share but the last ends
    starts = [opener.end()]  # where each share starts
    for k in range(1, shares):
        cut = _next_cut(read, max(size * k // shares, starts[-1]), size)
        if cut is None:
            break
        ends.append(cut)
        starts.append(cut + 1)
    ends.append(size)
    wrapped = opener.group(1) is not None
    try:
        parts = forking.run_shares(
            [lambda s=s, e=e: _share_columns(read, s, e, size, check, wrapped)
             for s, e in zip(starts, ends)]
        )
    except (ValueError, RecursionError):
        return None
    if None in parts:  # a child's share is in doubt
        return None
    offset = 0
    for count, bad, _ in parts:
        if bad is not None:
            idx, rec = bad
            check(rec, offset + idx)  # raises the share's error, at its index here
        offset += count
    columns = parts[0][2]
    for _, _, share in parts[1:]:  # a child's arrays came back as bytes
        columns[0].frombytes(share[0])
        columns[1].frombytes(share[1])
        for labels, texts in zip(columns[2:], share[2:]):
            labels |= texts
    return columns


def _next_cut(read, pos: int, end: int) -> int | None:
    """Where the first "," + whitespace + "{" at or past pos and wholly
    before end starts, as _AWS_CUT.search would find it in the document; or
    None.  The bytes are read _CUT_WINDOW_BYTES at a time, and a "," that
    ends a window with only whitespace after it is carried into the next,
    so a cut is found across any number of windows."""
    comma = None  # a "," followed by whitespace alone up to pos
    while pos < end:
        window = read(pos, min(_CUT_WINDOW_BYTES, end - pos))
        if not window:
            return None  # the document ends before end: the pieces find that out
        if comma is not None:
            rest = window.lstrip(_JSON_SPACE)
            if rest.startswith(b"{"):
                return comma
            if rest:
                comma = None
        if comma is None:
            cut = _AWS_CUT.search(window)
            if cut is not None:
                return pos + cut.start()
            head = window.rstrip(_JSON_SPACE)
            if head.endswith(b","):
                comma = pos + len(head) - 1
        pos += len(window)
    return None


def _share_columns(read, start: int, end: int, size: int, check, wrapped: bool) -> tuple:
    """(count, bad, columns) of the share from byte start to byte end of an
    AWS record array of size bytes, read with read (see _kept_in_shares) and
    decoded a piece at a time with check as the hook; ValueError or
    RecursionError if a piece is in doubt.

    count is the number of records in the share, bad None or the index in
    the share and the dict of its first record the helpers reject, and
    columns those of its kept records up to that one: their stamps as
    array('q'), their prices as array('d') (exact doubles), and for each
    label the set of its values, in the order of check's tuple.  A piece ends
    before the first "," + whitespace + "{" at or past AWS_PIECE_BYTES from
    its start, and the next one starts after that ",".  Every piece is "["
    + its bytes; each but the document's last is closed with "]" and
    decoded whole, and the last one through raw_decode, then _tail_ok.  A
    piece read short is in doubt.
    """
    from array import array  # loaded only when an AWS document is decoded in pieces

    columns, count, bad = [array("q"), array("d"), set(), set(), set()], 0, None
    pos = start
    while True:  # one piece at least: the first share is empty in a document "[" alone
        stop = _next_cut(read, pos + AWS_PIECE_BYTES, end) or end  # a cut is never at 0
        data = read(pos, stop - pos)
        if len(data) != stop - pos:
            raise ValueError("the input ended before its size")
        last = stop == size
        # A cut falls on a comma, never inside a character.
        text = b"".join((b"[", data, b"" if last else b"]")).decode("utf-8")
        del data
        if last:
            records, at = json.JSONDecoder(object_hook=check).raw_decode(text)
            if not _tail_ok(text[at:], wrapped):
                raise ValueError("text after the record array")
        else:
            records = json.loads(text, object_hook=check)
        del text
        if not records:  # a list: the text opens with "["
            raise ValueError("an empty record array")
        if bad is None:
            try:
                _keep(columns, filter(None, _check_declined(records, check)))
            except DataError:
                # _check_declined replaced every record before the bad one.
                idx = next(i for i, rec in enumerate(records) if type(rec) is not tuple)
                bad = count + idx, records[idx]
        count += len(records)
        if stop == end:
            return count, bad, columns
        pos = stop + 1


def _tail_ok(tail: str, wrapped: bool) -> bool:
    """Whether tail, the text after the record array, ends the document:
    JSON whitespace, then in an object "}" or its other members, which
    decode without the hook and hold no SpotPriceHistory; ValueError or
    RecursionError if they do not decode."""
    tail = tail.strip(" \t\n\r")
    if not (wrapped and tail.startswith(",")):
        return tail == ("}" if wrapped else "")
    members = json.loads("{" + tail[1:])
    return bool(members) and "SpotPriceHistory" not in members


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
