"""Seeded input generators for the benchmark.

The benchmark makes its own inputs instead of calling `spotbid synth`, so a
change to the program cannot change the data it is measured on.  Every
generator is a pure function of its seed: the same seed gives the same
bytes in any process (string seeds go through SHA-512 in `random.Random`,
so `PYTHONHASHSEED` plays no part).
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

# The band of the repository's step-hold fixture; every generated price lies
# in it, so no bid/price error can reach the proportional-band limit.
FLOOR = 0.256
CEILING = 2.6
STEP_SCALE = 0.15

CSV_EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)
AWS_EPOCH = datetime(2017, 1, 1, tzinfo=timezone.utc)

# (instance type, product, zone); the benchmark keeps the last one.
MARKETS = (
    ("c4.xlarge", "Linux/UNIX", "us-east-1a"),
    ("c4.xlarge", "Linux/UNIX", "us-east-1b"),
    ("g2.8xlarge", "Linux/UNIX", "us-east-1a"),
    ("g2.8xlarge", "Linux/UNIX", "us-east-1b"),
)
KEPT_MARKET = MARKETS[3]


@dataclass(frozen=True)
class StepHoldTrace:
    """A generated CSV trace and the exact prices it encodes."""

    prices: list[float]
    data: bytes

    def descriptor(self) -> dict[str, object]:
        repeats = sum(1 for a, b in zip(self.prices, self.prices[1:]) if a == b)
        return {
            "points": len(self.prices),
            "bytes": len(self.data),
            "repeat_share": repeats / max(len(self.prices) - 1, 1),
        }


@dataclass(frozen=True)
class AwsHistory:
    """A generated spot-price-history JSON document and its expected ingest."""

    data: bytes
    records: int
    kept: int
    expected_csv: bytes

    def descriptor(self) -> dict[str, object]:
        return {
            "bytes": len(self.data),
            "records_kept": self.kept,
            "records_total": self.records,
        }


def _csv_bytes(prices: list[float]) -> bytes:
    # repr round-trips every double, so the prices the oracle uses are the
    # prices the program parses.
    lines = ["timestamp,price"]
    for i, price in enumerate(prices):
        stamp = (CSV_EPOCH + timedelta(minutes=i)).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"{stamp},{price!r}")
    return ("\n".join(lines) + "\n").encode()


def step_hold(seed: int, points: int, hold_mean: int) -> StepHoldTrace:
    """A price path that jumps with probability 1/hold_mean at each step.

    Holds are therefore geometric with mean hold_mean.  A jump is uniform in
    [-STEP_SCALE, STEP_SCALE] and clamped into the band, so even with
    hold_mean=1 a few steps repeat the previous price at the band edges.
    """
    rng = random.Random(f"step-hold/{seed}/{points}/{hold_mean}")
    level = rng.uniform(FLOOR, CEILING)
    prices = [level]
    for _ in range(points - 1):
        if rng.random() * hold_mean < 1.0:
            level = min(max(level + rng.uniform(-STEP_SCALE, STEP_SCALE), FLOOR), CEILING)
        prices.append(level)
    return StepHoldTrace(prices=prices, data=_csv_bytes(prices))


def minimal_trace() -> StepHoldTrace:
    """The 2-point trace used to time start-up; both prices differ so that
    no strategy has zero distance."""
    prices = [1.0, 1.5]
    return StepHoldTrace(prices=prices, data=_csv_bytes(prices))


def aws_history(
    seed: int, records: int, markets: tuple[tuple[str, str, str], ...] = MARKETS
) -> AwsHistory:
    """describe-spot-price-history output for the given markets.

    Each market gets records/len(markets) price changes at strictly
    increasing, irregularly spaced instants.  The document lists them newest
    first, interleaved across markets, as AWS returns them.
    """
    rng = random.Random(f"aws/{seed}/{records}")
    rows: list[tuple[int, int, str]] = []  # (seconds since epoch, market, price)
    per_market = records // len(markets)
    for market in range(len(markets)):
        second = rng.randrange(3600)
        level = rng.uniform(FLOOR, CEILING)
        for _ in range(per_market):
            second += rng.randint(1, 900)
            level = min(max(level + rng.uniform(-STEP_SCALE, STEP_SCALE), FLOOR), CEILING)
            rows.append((second, market, f"{level:.6f}"))
    rows.sort(key=lambda row: row[0], reverse=True)

    def stamp(second: int, fmt: str) -> str:
        return (AWS_EPOCH + timedelta(seconds=second)).strftime(fmt)

    history = [
        {
            "AvailabilityZone": markets[market][2],
            "InstanceType": markets[market][0],
            "ProductDescription": markets[market][1],
            "SpotPrice": price,
            "Timestamp": stamp(second, "%Y-%m-%dT%H:%M:%S.000Z"),
        }
        for second, market, price in rows
    ]
    data = (json.dumps({"SpotPriceHistory": history}) + "\n").encode()

    kept_index = markets.index(KEPT_MARKET)
    kept = sorted((second, price) for second, market, price in rows if market == kept_index)
    lines = ["timestamp,price"]
    lines += [f"{stamp(second, '%Y-%m-%dT%H:%M:%SZ')},{float(price)!r}" for second, price in kept]
    expected = ("\n".join(lines) + "\n").encode()
    return AwsHistory(data=data, records=len(rows), kept=len(kept), expected_csv=expected)
