"""The oracle doing a workload's work, as its own process: the yardstick
that run.py divides the program's times by.

    python3 perfbench/reference.py backtest TRACE.csv REPEAT
    python3 perfbench/reference.py sweep TRACE.csv REPEAT
    python3 perfbench/reference.py ingest HISTORY.json REPEAT

The host this benchmark runs on is shared, and its speed drifts by half and
more over minutes, with CPU time equal to wall time: the same work simply
runs slower.  No statistic over one run removes that, so every run also
times this job, interleaved with the program's invocations, and reports
the program's times at the job's nominal speed (run.py, `calibrate`).

The job is the benchmark's own code, never the program's, so a change to
the program cannot change it.  It reads the same input file as the
program and does the same kind of work at the same size with the oracle's
straight loops (parsing, float loops through `math.atan`, JSON encoding or
decoding, CSV writing), so a slow spell of the host slows it as it slows
the program.  It does that REPEAT times, so that it takes about as long
as the program's invocation: the run's time is then split evenly between
the two, which makes their ratio steadiest.  It writes nothing and exits 0.
"""
import json
import sys
from datetime import datetime

import inputs
import oracle
from run import BAND, GAINS, KP, KI


def backtest(path: str) -> None:
    """Parse, the six causal strategies, scores and the bids as JSON."""
    prices = oracle.read_csv_prices(open(path, "rb").read())
    distances = []
    for kind in oracle.STRATEGIES:
        bids = oracle.strategy_bids(kind, prices, *BAND, -KP, -KI)
        distances.append(oracle.score(bids, prices)[1])
        json.dumps([round(b, 6) for b in bids])
    oracle.relative_rationality(distances)


def sweep(path: str) -> None:
    """Parse, then feedback replay and scores for every cell of the grid."""
    prices = oracle.read_csv_prices(open(path, "rb").read())
    first = BAND[1] / 2
    scores = []
    for kp, ki in oracle.sweep_cells(GAINS, GAINS):
        bids = [first] + [bid for _, _, bid in oracle.feedback_steps(prices, *BAND, kp, ki, first)]
        scores.append(oracle.score(bids, prices))
    oracle.relative_rationality([d for _, d in scores])
    oracle.pareto_members(scores)


def ingest(path: str) -> None:
    """Decode the history, keep one market, sort it and write it as CSV."""
    history = json.loads(open(path, "rb").read())["SpotPriceHistory"]
    instance_type, product, zone = inputs.KEPT_MARKET
    kept = sorted(
        (datetime.strptime(r["Timestamp"], "%Y-%m-%dT%H:%M:%S.%fZ"), float(r["SpotPrice"]))
        for r in history
        if (r["InstanceType"], r["ProductDescription"], r["AvailabilityZone"])
        == (instance_type, product, zone)
    )
    lines = ["timestamp,price"]
    lines += [f"{stamp.strftime('%Y-%m-%dT%H:%M:%SZ')},{price!r}" for stamp, price in kept]
    ("\n".join(lines) + "\n").encode()


JOBS = {"backtest": backtest, "sweep": sweep, "ingest": ingest}

if __name__ == "__main__":
    for _ in range(int(sys.argv[3])):
        JOBS[sys.argv[1]](sys.argv[2])
