"""spotbid: deterministic backtesting of cloud spot-price bidding strategies.

Replays spot-price history against a feedback-control bidding mechanism and
five baseline strategies, scores each on success rate, distance, and
relative rationality, and sweeps controller parameters to map the Pareto
frontier of the success/rationality trade-off.
"""
from types import ModuleType as _ModuleType

from .band_model import PriceBand, bid_from_control, control_from_bid
from .controller import ControllerState, PiGains, step
from .engine import (
    ENGINE_VERSION,
    BacktestReport,
    SweepConfig,
    SweepPoint,
    backtest,
    pareto_flags,
    sweep,
)
from .errors import DataError, SpotBidError, UsageError
from .metrics import (
    MetricsSummary,
    distance,
    relative_rationality,
    score,
    success_rate,
)
from .strategies import (
    Adjustments,
    BidSeries,
    StatMode,
    StrategyKind,
    StrategySpec,
    run_strategy,
)
from .trace import (
    PriceTrace,
    SynthConfig,
    TraceFilter,
    format_timestamp,
    parse_aws_json,
    parse_csv,
    synth_step_hold,
    to_csv,
    validate,
)

__version__ = ENGINE_VERSION

# The public names are the ones imported above, which binds the submodules
# here as well; those stay out of a star import.
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
) + ["__version__"]
