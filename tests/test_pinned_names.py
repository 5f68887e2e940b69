"""The names that the benchmark's traced run and the acceptance criteria
reach, each with the call shape they use.

perfbench/traced.py wraps a name by module and attribute, and reports one it
cannot find only as "not traced"; these tests make a removed or reshaped
name fail the suite instead.
"""
import inspect

import pytest

from spotbid import band_model, cli, controller, engine, metrics, trace
from conftest import FIXTURES

SHAPES = [
    (cli, "parse_csv", "(raw)"),
    (
        cli, "parse_aws_json",
        "(raw, trace_filter=TraceFilter(instance_type=None, product=None, zone=None))",
    ),
    (cli, "validate", "(trace)"),
    (cli, "to_csv", "(trace)"),
    (
        cli, "backtest",
        "(trace, specs, band, *, parallel=False, allow_positive_gains=False, "
        "config_echo=None)",
    ),
    (cli, "sweep", "(trace, config, *, parallel=False)"),
    (cli, "render_report", "(report, fmt, include_bids)"),
    (cli, "render_sweep", "(points, band, config_echo, fmt)"),
    (engine, "validate", "(trace)"),
    (engine, "run_strategy", "(spec, trace, band)"),
    (metrics, "score", "(series, trace)"),
    (metrics, "relative_rationality", "(distances)"),
    (controller, "step", "(state, error, gains, band)"),
    (controller, "ControllerState", "(error_sum=0.0, last_error=0.0)"),
    (band_model, "bid_from_control", "(u, band)"),
    (trace, "TraceFilter", "(instance_type=None, product=None, zone=None)"),
]


def _shape(fn):
    """The signature's text without annotations, which may change freely."""
    sig = inspect.signature(fn)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


@pytest.mark.parametrize(
    "module, name, shape", SHAPES,
    ids=[f"{module.__name__.split('.')[-1]}.{name}" for module, name, _ in SHAPES],
)
def test_traced_name_keeps_its_call_shape(module, name, shape):
    assert _shape(getattr(module, name)) == shape


def test_names_the_criteria_read():
    assert controller.ControllerState().last_error == 0.0
    keep = trace.TraceFilter(instance_type="m", product="p", zone="z")
    assert (keep.instance_type, keep.product, keep.zone) == ("m", "p", "z")
    parsed = trace.parse_csv((FIXTURES / "stephold_1001.csv").read_bytes())
    assert len(parsed) == 1001
    assert parsed.points[0].timestamp == parsed.stamps[0]
