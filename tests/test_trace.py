"""Trace ingestion, validation, serialization, and synthesis."""
import csv
import dataclasses
import io
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spotbid as sb
from conftest import EPOCH, FIXTURES, make_trace

CSV_TWO_ROWS = b"timestamp,price\n2015-05-03T00:20:06Z,0.256\n2015-05-03T01:00:00Z,0.300\n"


def test_parse_csv_basic():
    trace = sb.parse_csv(CSV_TWO_ROWS)
    assert len(trace) == 2
    assert trace.prices() == (0.256, 0.300)
    assert trace.points[0].timestamp == datetime(
        2015, 5, 3, 0, 20, 6, tzinfo=timezone.utc
    )
    assert trace.instance_type == ""


def test_parse_csv_accepts_crlf_and_bom():
    raw = "﻿timestamp,price\r\n2015-05-03T00:20:06Z,0.256\r\n".encode()
    assert sb.parse_csv(raw).prices() == (0.256,)


def test_parse_csv_accepts_utc_offset_form():
    trace = sb.parse_csv(b"timestamp,price\n2015-05-03T02:20:06+02:00,1.5\n")
    assert trace.points[0].timestamp == datetime(
        2015, 5, 3, 0, 20, 6, tzinfo=timezone.utc
    )


def test_parse_csv_errors():
    with pytest.raises(sb.DataError, match="header"):
        sb.parse_csv(b"time,price\n2015-05-03T00:20:06Z,0.2\n")
    with pytest.raises(sb.DataError, match="empty body"):
        sb.parse_csv(b"timestamp,price\n")
    with pytest.raises(sb.DataError, match="line 2"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06Z,-1.0\n")
    with pytest.raises(sb.DataError, match="line 3"):
        sb.parse_csv(
            b"timestamp,price\n2015-05-03T00:20:06Z,0.2\n2015-05-03T01:00:00Z,abc\n"
        )
    with pytest.raises(sb.DataError, match="timestamp"):
        sb.parse_csv(b"timestamp,price\nyesterday,0.2\n")
    with pytest.raises(sb.DataError, match="UTC offset"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06,0.2\n")
    with pytest.raises(sb.DataError, match="sub-second"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06.500000Z,0.2\n")
    with pytest.raises(sb.DataError, match="timestamp"):
        # one-digit fractions do not even parse on older interpreters
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06.5Z,0.2\n")
    with pytest.raises(sb.DataError, match="2 columns"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06Z,0.2,extra\n")
    with pytest.raises(sb.DataError, match="price"):
        sb.parse_csv(b"timestamp,price\n2015-05-03T00:20:06Z,nan\n")


def reference_parse_csv(raw: bytes) -> sb.PriceTrace:
    """parse_csv as a plain loop that runs the row helpers on every row."""
    text = raw.decode("utf-8").lstrip("\ufeff")
    rows = csv.reader(io.StringIO(text))
    header = next(rows, None)
    if header is None or [cell.strip() for cell in header] != ["timestamp", "price"]:
        raise sb.DataError(
            f"malformed header at line 1: expected 'timestamp,price', got {header!r}"
        )
    points = []
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise sb.DataError(f"expected 2 columns at line {line_no}, got {len(row)}")
        where = f"line {line_no}"
        ts = sb.trace._parse_timestamp(row[0], where)
        price = sb.trace._parse_price(row[1], where)
        points.append(sb.PricePoint(timestamp=ts, price=price))
    if not points:
        raise sb.DataError("empty body: no data rows after the header")
    return sb.PriceTrace(points=tuple(points))


# Rows parse_csv accepts: any offset, Z or z, whole seconds, padded fields,
# finite non-negative prices.
CSV_STAMPS = st.builds(
    lambda ts, utc_form: ts.isoformat().replace("+00:00", utc_form),
    st.datetimes(
        timezones=st.sampled_from(
            [
                timezone.utc,
                timezone(timedelta(hours=5)),
                timezone(-timedelta(hours=3, minutes=30)),
            ]
        )
    ).map(lambda ts: ts.replace(microsecond=0)),
    st.sampled_from(["Z", "z", "+00:00", "-00:00"]),
) | st.sampled_from(["2020-01-01 00:00:00Z", "2020-01-01T00:00:00+00:00:00.500000"])
CSV_PRICES = st.floats(min_value=0, allow_infinity=False).map(repr) | st.sampled_from(
    ["0", "-0.0", "1_0", "1E3"]
)
CSV_SPACE = st.sampled_from(["", " ", "\t", "  "])
CSV_ROW = st.builds(
    "{}{}{},{}{}{}".format, CSV_SPACE, CSV_STAMPS, CSV_SPACE, CSV_SPACE, CSV_PRICES, CSV_SPACE
)
# Rows it skips or rejects.
CSV_ODD_ROW = st.sampled_from(
    [
        "",
        "2020-01-01T00:00:00Z",
        "2020-01-01T00:00:00Z,1.5,x",
        "2020-01-01T00:00:00,1.5",
        "2020-01-01T00:00:00.500000Z,1.5",
        "2020-01-01T00:00:00.5Z,1.5",
        "0001-01-01T00:00:00+05:00,1.5",
        "9999-12-31T23:59:59-05:00,1.5",
        "yesterday,1.5",
        ",1.5",
        "2020-01-01T00:00:00Z,nan",
        "2020-01-01T00:00:00Z, inf",
        "2020-01-01T00:00:00Z,-1",
        "2020-01-01T00:00:00Z,1e400",
        "2020-01-01T00:00:00Z,abc",
        "2020-01-01T00:00:00Z,",
    ]
)


def _parse_outcome(parse, raw):
    try:
        return repr(parse(raw).points)  # repr tells -0.0 and tzinfo apart
    except sb.DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=400)
@given(
    rows=st.lists(CSV_ROW, max_size=8),
    odd=st.lists(st.tuples(st.integers(0, 8), CSV_ODD_ROW), max_size=2),
    bom=st.booleans(),
)
def test_parse_csv_matches_reference_loop(rows, odd, bom):
    for at, row in odd:
        rows.insert(at, row)
    raw = (("\ufeff" if bom else "") + "timestamp,price\n" + "\n".join(rows)).encode()
    assert _parse_outcome(sb.parse_csv, raw) == _parse_outcome(reference_parse_csv, raw)


def test_csv_round_trip_fixture():
    raw = (FIXTURES / "stephold_1001.csv").read_bytes()
    once = sb.parse_csv(raw)
    again = sb.parse_csv(sb.to_csv(once).encode())
    assert once.points == again.points


@given(
    prices=st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    )
)
def test_csv_round_trip_random(prices):
    trace = make_trace(prices)
    assert sb.parse_csv(sb.to_csv(trace)).points == trace.points


def test_validate_identity(band):
    trace = make_trace([1.0, 1.1, 0.9])
    assert sb.validate(trace) is trace


def test_validate_errors():
    with pytest.raises(sb.DataError, match="empty"):
        sb.validate(sb.PriceTrace(points=()))
    dup = sb.PriceTrace(
        points=(
            sb.PricePoint(EPOCH, 1.0),
            sb.PricePoint(EPOCH, 1.1),
        )
    )
    with pytest.raises(sb.DataError, match="indices 0 and 1"):
        sb.validate(dup)
    decreasing = sb.PriceTrace(
        points=(
            sb.PricePoint(EPOCH + timedelta(minutes=5), 1.0),
            sb.PricePoint(EPOCH, 1.1),
        )
    )
    with pytest.raises(sb.DataError, match="non-increasing"):
        sb.validate(decreasing)
    with pytest.raises(sb.DataError, match="index 1"):
        sb.validate(make_trace([1.0, 0.0]))


def test_parse_aws_json_fixture_unfiltered():
    raw = (FIXTURES / "aws_5records.json").read_bytes()
    trace = sb.parse_aws_json(raw)
    assert len(trace) == 5  # empty filter preserves the record count
    stamps = [pt.timestamp for pt in trace.points]
    assert stamps == sorted(stamps)
    assert trace.instance_type == ""  # mixed labels collapse to empty


def test_parse_aws_json_fixture_filtered():
    raw = (FIXTURES / "aws_5records.json").read_bytes()
    trace = sb.parse_aws_json(
        raw,
        sb.TraceFilter(
            instance_type="g2.8xlarge", product="Linux/UNIX", zone="us-east-1b"
        ),
    )
    assert len(trace) == 2
    assert trace.prices() == (0.256, 0.300)  # sorted ascending by timestamp
    assert trace.instance_type == "g2.8xlarge"
    assert trace.zone == "us-east-1b"


def test_parse_aws_json_zero_after_filter():
    raw = (FIXTURES / "aws_5records.json").read_bytes()
    with pytest.raises(sb.DataError, match="zero records"):
        sb.parse_aws_json(raw, sb.TraceFilter(instance_type="m3.medium"))


def _record(ts, price="1.0", instance="g2.8xlarge", zone="us-east-1b"):
    return {
        "Timestamp": ts,
        "SpotPrice": price,
        "InstanceType": instance,
        "ProductDescription": "Linux/UNIX",
        "AvailabilityZone": zone,
    }


def test_parse_aws_json_tie_stability():
    import json

    records = [
        _record("2015-05-03T01:00:00Z", price="1.0", zone="us-east-1b"),
        _record("2015-05-03T01:00:00Z", price="2.0", zone="us-east-1c"),
        _record("2015-05-03T00:00:00Z", price="0.5"),
    ]
    trace = sb.parse_aws_json(json.dumps(records))
    assert trace.prices() == (0.5, 1.0, 2.0)  # sort stable on the tie


def test_parse_aws_json_time_range():
    import json

    records = [
        _record("2015-05-03T00:00:00Z", price="0.5"),
        _record("2015-05-03T01:00:00Z", price="1.0"),
        _record("2015-05-03T02:00:00Z", price="2.0"),
    ]
    window = sb.TraceFilter(
        time_range=(
            datetime(2015, 5, 3, 0, 30, tzinfo=timezone.utc),
            datetime(2015, 5, 3, 1, 30, tzinfo=timezone.utc),
        )
    )
    assert sb.parse_aws_json(json.dumps(records), window).prices() == (1.0,)


def test_parse_aws_json_errors():
    import json

    with pytest.raises(sb.DataError, match="invalid JSON"):
        sb.parse_aws_json(b"{nope")
    with pytest.raises(sb.DataError, match="SpotPriceHistory"):
        sb.parse_aws_json(b"{}")
    record = _record("2015-05-03T00:00:00Z")
    del record["SpotPrice"]
    with pytest.raises(sb.DataError, match="record 0 missing"):
        sb.parse_aws_json(json.dumps([record]))
    bad_price = dict(_record("2015-05-03T00:00:00Z"), SpotPrice=1.0)
    with pytest.raises(sb.DataError, match="quoted decimal"):
        sb.parse_aws_json(json.dumps([bad_price]))
    unparseable = dict(_record("2015-05-03T00:00:00Z"), SpotPrice="one")
    with pytest.raises(sb.DataError, match="unparseable price"):
        sb.parse_aws_json(json.dumps([unparseable]))


def test_trace_filter_validation():
    with pytest.raises(ValueError):
        sb.TraceFilter(time_range=(EPOCH + timedelta(days=1), EPOCH))
    with pytest.raises(ValueError):
        sb.TraceFilter(time_range=(datetime(2020, 1, 1), datetime(2020, 1, 2)))


def test_synth_deterministic(band):
    config = sb.SynthConfig(band=band, n_points=500, hold_steps_mean=3, step_scale=0.2, seed=7)
    assert sb.synth_step_hold(config) == sb.synth_step_hold(config)


def test_synth_band_membership(band):
    config = sb.SynthConfig(band=band, n_points=1000, hold_steps_mean=4, step_scale=0.3, seed=42)
    trace = sb.synth_step_hold(config)
    assert len(trace) == 1000
    assert all(band.floor <= p <= band.ceiling for p in trace.prices())
    assert sb.validate(trace) is trace


def test_synth_single_point(band):
    trace = sb.synth_step_hold(sb.SynthConfig(band=band, n_points=1, seed=0))
    assert len(trace) == 1
    assert band.floor <= trace.points[0].price <= band.ceiling


def test_synth_timestamps_minute_spaced(band):
    trace = sb.synth_step_hold(sb.SynthConfig(band=band, n_points=3, seed=1))
    stamps = [pt.timestamp for pt in trace.points]
    assert stamps[0] == datetime(2020, 1, 1, tzinfo=timezone.utc)
    assert stamps[1] - stamps[0] == timedelta(minutes=1)
    assert trace.instance_type == "synthetic"


def test_synth_config_validation(band):
    with pytest.raises(ValueError):
        sb.SynthConfig(band=band, n_points=0)
    with pytest.raises(ValueError):
        sb.SynthConfig(band=band, n_points=5, hold_steps_mean=0)
    with pytest.raises(ValueError):
        sb.SynthConfig(band=band, n_points=5, step_scale=0.0)
    with pytest.raises(ValueError):
        sb.SynthConfig(band=band, n_points=5, seed=-1)
    # holds up to 2**53 keep a nonzero geometric denominator and pass; the
    # CLI test covers the rejected range above it
    sb.synth_step_hold(sb.SynthConfig(band=band, n_points=5, hold_steps_mean=2**53))


def test_stored_prices_match_points(band):
    traces = [
        sb.parse_csv((FIXTURES / "stephold_1001.csv").read_bytes()),
        sb.parse_aws_json((FIXTURES / "aws_5records.json").read_bytes()),
        sb.synth_step_hold(
            sb.SynthConfig(band=band, n_points=300, hold_steps_mean=3, seed=5)
        ),
    ]
    for trace in traces:
        assert trace.prices() == tuple(pt.price for pt in trace.points)


def test_stored_prices_leave_identity_unchanged():
    trace = make_trace([1.0, 2.0, 1.5], zone="z")
    twin = make_trace([1.0, 2.0, 1.5], zone="z")
    assert trace == twin
    assert hash(trace) == hash(twin) == hash((trace.points, "", "", "z"))
    assert repr(trace) == (
        f"PriceTrace(points={trace.points!r}, instance_type='', product='', zone='z')"
    )
    assert trace != make_trace([1.0, 2.0, 1.25], zone="z")


def test_replaced_trace_rebuilds_prices():
    trace = make_trace([1.0, 2.0, 1.5])
    moved = dataclasses.replace(trace, zone="x")
    assert moved.zone == "x"
    assert moved.prices() == (1.0, 2.0, 1.5)
    shorter = dataclasses.replace(trace, points=trace.points[1:])
    assert shorter.prices() == (2.0, 1.5)
