"""Correctness oracle, independent of the program under test.

Straight loops of the README formulas, written without importing spotbid:
the feedback strategy (PI controller through the arccot band model, with
both clamps, in the program's operation order), the causal statistics,
`current` and `ondemand`, success rate and step-ordered distance, relative
rationality and Pareto membership by brute force.  The checks compare the
program's rounded report values with these exactly: any difference in the
last bit is a failure.  Each check returns a list of problems, empty when
the output is correct.
"""
from __future__ import annotations

import json
import math

# Order of `backtest --strategies` default, which the report keeps.
STRATEGIES = ("feedback", "minimum", "mean", "high", "current", "ondemand")


class ProportionalBandError(ValueError):
    """A bid error reached the band width; the program rejects such data."""


def _clamp(x: float, floor: float, ceiling: float) -> float:
    return min(max(x, floor), ceiling)


def feedback_steps(prices, floor, ceiling, kp, ki, first_bid, pre_delta=0.0, post_delta=0.0):
    """Yield (error, u, bid) for each observed price.

    e = (p + pre) - previous bid; the error joins the sum before
    u = kp*e + ki*sum; bid = clamp(clamp(floor + width*arccot(u)/pi) + post).
    """
    width = ceiling - floor
    prev = first_bid
    error_sum = 0.0
    for price in prices:
        error = (price + pre_delta) - prev
        if not -width < error < width:
            raise ProportionalBandError(f"error {error} outside the proportional band")
        error_sum = error_sum + error
        u = kp * error + ki * error_sum
        arccot = math.pi / 2 - math.atan(u)
        bid = _clamp(floor + width * (arccot / math.pi), floor, ceiling)
        bid = _clamp(bid + post_delta, floor, ceiling)
        yield error, u, bid
        prev = bid


def strategy_bids(kind, prices, floor, ceiling, kp=-10.0, ki=-10.0):
    """The t+1 bids of one strategy in causal mode with no adjustments."""
    first = ceiling / 2
    if kind == "feedback":
        return [first] + [bid for _, _, bid in feedback_steps(prices, floor, ceiling, kp, ki, first)]
    if kind == "ondemand":
        return [ceiling] * (len(prices) + 1)
    bids = [first]
    if kind == "current":
        for price in prices:
            bids.append(_clamp(price + 0.0, floor, ceiling))
        return bids
    running = None
    total = 0.0
    for count, price in enumerate(prices, start=1):
        if kind == "minimum":
            running = price if running is None else min(running, price)
        elif kind == "high":
            running = price if running is None else max(running, price)
        elif kind == "mean":
            total = total + price
            running = total / count
        else:
            raise ValueError(f"unknown strategy {kind!r}")
        bids.append(_clamp(running + 0.0, floor, ceiling))
    return bids


def score(bids, prices):
    """(success rate, distance) over the t scored bids, summed in step order."""
    hits = 0
    total = 0.0
    for bid, price in zip(bids, prices):
        if bid >= price:
            hits += 1
        total += abs(bid - price)
    return hits / len(prices), total


def relative_rationality(distances):
    smallest = min(distances)
    return [smallest / d for d in distances]


def pareto_members(points):
    """Brute-force non-domination over (success rate, distance) pairs."""
    return [
        not any(
            sr_o >= sr and d_o <= d and (sr_o > sr or d_o < d) for sr_o, d_o in points
        )
        for sr, d in points
    ]


def _round6(value: float) -> float:
    return round(value, 6)


def _compare(problems: list[str], where: str, got, want) -> None:
    if got != want and len(problems) < 20:
        problems.append(f"{where}: got {got!r}, want {want!r}")


def _load_json(data: bytes, problems: list[str]):
    try:
        return json.loads(data)
    except ValueError as exc:
        problems.append(f"report is not JSON: {exc}")
        return None


def check_backtest(data: bytes, prices, floor, ceiling, kp_mag, ki_mag) -> list[str]:
    """Check a six-strategy causal `backtest --include-bids` JSON report."""
    problems: list[str] = []
    report = _load_json(data, problems)
    if report is None:
        return problems
    try:
        _compare(problems, "band", report["band"], {"floor": floor, "ceiling": ceiling})
        entries = report["strategies"]
        _compare(problems, "strategies", [e["name"] for e in entries], list(STRATEGIES))
        _compare(problems, "trace.points", report["trace"]["points"], len(prices))
        all_bids = [strategy_bids(k, prices, floor, ceiling, -kp_mag, -ki_mag) for k in STRATEGIES]
        scores = [score(bids, prices) for bids in all_bids]
        rr = relative_rationality([d for _, d in scores])
        for entry, bids, (sr, d), r in zip(entries, all_bids, scores, rr):
            name = entry["name"]
            metrics = entry["metrics"]
            _compare(problems, f"{name}.success_rate", metrics["success_rate"], _round6(sr))
            _compare(problems, f"{name}.distance", metrics["distance"], _round6(d))
            _compare(problems, f"{name}.relative_rationality", metrics["relative_rationality"], _round6(r))
            _compare(problems, f"{name}.rr_set", report["relative_rationality_set"][name], _round6(r))
            if entry["bids"] != [_round6(b) for b in bids]:
                _compare(problems, f"{name}.bids", "differ", "equal")
    except (KeyError, TypeError, ProportionalBandError) as exc:
        problems.append(f"cannot check the report: {exc!r}")
    return problems


def sweep_cells(kp_mags, ki_mags):
    """Applied (negative) gain pairs in the order the sweep reports them."""
    return sorted({(-kp, -ki) for kp in kp_mags for ki in ki_mags})


def check_sweep(data: bytes, prices, floor, ceiling, kp_mags, ki_mags) -> list[str]:
    """Check a `sweep` JSON report over a kp x ki grid with no deltas."""
    problems: list[str] = []
    report = _load_json(data, problems)
    if report is None:
        return problems
    try:
        cells = sweep_cells(kp_mags, ki_mags)
        scores = []
        for kp, ki in cells:
            bids = [ceiling / 2]
            bids += [bid for _, _, bid in feedback_steps(prices, floor, ceiling, kp, ki, ceiling / 2)]
            scores.append(score(bids, prices))
        rr = relative_rationality([d for _, d in scores])
        members = pareto_members(scores)
        _compare(problems, "band", report["band"], {"floor": floor, "ceiling": ceiling})
        points = report["points"]
        _compare(problems, "points", len(points), len(cells))
        for point, (kp, ki), (sr, d), r, member in zip(points, cells, scores, rr, members):
            where = f"cell kp={kp},ki={ki}"
            _compare(problems, f"{where} gains", (point["kp"], point["ki"]), (kp, ki))
            _compare(problems, f"{where} deltas", (point["pre_delta"], point["post_delta"]), (0.0, 0.0))
            _compare(problems, f"{where} success_rate", point["success_rate"], _round6(sr))
            _compare(problems, f"{where} distance", point["distance"], _round6(d))
            _compare(problems, f"{where} relative_rationality", point["relative_rationality"], _round6(r))
            _compare(problems, f"{where} pareto_member", point["pareto_member"], member)
    except (KeyError, TypeError, ProportionalBandError) as exc:
        problems.append(f"cannot check the report: {exc!r}")
    return problems


def check_ingest(data: bytes, expected: bytes) -> list[str]:
    """Check `ingest --format csv` output against the generator's records."""
    if data == expected:
        return []
    return [f"ingest CSV differs from the expected {len(expected)} bytes (got {len(data)})"]


def read_csv_prices(data: bytes) -> list[float]:
    """Prices of a `timestamp,price` CSV the benchmark generated."""
    return [float(line.split(",")[1]) for line in data.decode().splitlines()[1:]]
