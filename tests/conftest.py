"""Shared fixtures and trace-building helpers."""
from __future__ import annotations

import os
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import spotbid as sb

# For tests/mutants.py (--hypothesis-profile=mutants): a failing example
# need only be found there, not shrunk.
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])

FIXTURES = Path(__file__).parent / "fixtures"

EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)
UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def epoch_seconds(ts: datetime) -> int:
    """The aware instant ts as UTC epoch seconds, sub-seconds dropped."""
    return (ts - UNIX_EPOCH) // timedelta(seconds=1)


def make_trace(prices, start=EPOCH, spacing_minutes=1, **meta) -> sb.PriceTrace:
    """Trace with the given prices at minute-spaced timestamps."""
    prices = tuple(prices)
    first, step = epoch_seconds(start), 60 * spacing_minutes
    stamps = tuple(first + step * i for i in range(len(prices)))
    return sb.PriceTrace(stamps, prices, **meta)


def cli_env(**overrides):
    """The environment with src first on PYTHONPATH, SPOTBID_LOG unset,
    PYTHONUNBUFFERED unset (so that standard output is buffered, as in a
    user's run), then the overrides."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env.pop("SPOTBID_LOG", None)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def limit_address_space(size=400 << 20):
    """Cap the calling process's address space at size bytes; for
    preexec_fn, so that only a child runs under the limit."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (size, size))


def make_series(bids, name="test", kind=sb.StrategyKind.ONDEMAND) -> sb.BidSeries:
    """Bid series wrapping raw bid values with a placeholder spec."""
    return sb.BidSeries(
        strategy_name=name, bids=tuple(bids), spec=sb.StrategySpec(kind=kind)
    )


@pytest.fixture
def band() -> sb.PriceBand:
    return sb.PriceBand(floor=0.256, ceiling=2.600)


@pytest.fixture
def stephold_trace() -> sb.PriceTrace:
    return sb.validate(sb.parse_csv((FIXTURES / "stephold_1001.csv").read_bytes()))


@pytest.fixture
def const_trace() -> sb.PriceTrace:
    return sb.validate(sb.parse_csv((FIXTURES / "const_price_10pt.csv").read_bytes()))
