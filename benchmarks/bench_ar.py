#!/usr/bin/env python3
"""Benchmark the alert engine's AR forecast path.

Usage: python benchmarks/bench_ar.py [--calls 2000] [--order 2] [--horizon 6]

Prints µs per forecast maximum at series lengths 20, 170 and 512 (the
default window cap), for ``ar_fit`` + ``ar_forecast`` and for
``ar_forecast_max``, best of 5 rounds of ``--calls`` calls each. Then µs
per five equal-length series, as a five-sensor batch hands them over:
five ``ar_forecast_max`` calls against one ``ar_forecast_max_rows`` call,
which solves all five in one LAPACK call.
"""

import argparse
import random
import time

import numpy as np

from slopewatch.analytics import ar_fit, ar_forecast, ar_forecast_max, ar_forecast_max_rows

LENGTHS = (20, 170, 512)


def best_us(fn, series: list[np.ndarray], rounds: int = 5) -> float:
    """Best per-call time in µs over ``rounds`` passes through ``series``."""
    for s in series[:10]:
        fn(s)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for s in series:
            fn(s)
        best = min(best, time.perf_counter() - start)
    return best / len(series) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=2000, help="calls per round")
    parser.add_argument("--order", type=int, default=2, help="AR order")
    parser.add_argument("--horizon", type=int, default=6, help="forecast steps")
    args = parser.parse_args()
    p, h = args.order, args.horizon

    def fit_forecast(s: np.ndarray) -> float:
        return max(ar_forecast(ar_fit(s, p), s[-p:].tolist(), h))

    def forecast_max(s: np.ndarray) -> float:
        return ar_forecast_max(s, p, h)

    def five_single(rows: list[np.ndarray]) -> list[float]:
        return [ar_forecast_max(s, p, h) for s in rows]

    def five_stacked(rows: list[np.ndarray]) -> list[float | None]:
        return ar_forecast_max_rows(rows, p, h)

    rng = random.Random(1)
    print(f"AR({p}), horizon {h}, best of 5 x {args.calls} calls; the last two columns per five series")
    print(f"{'n':>5}  {'fit+forecast':>14}  {'forecast_max':>14}  {'5 x forecast_max':>16}  {'5 stacked':>14}")
    for n in LENGTHS:
        # Float64 views, as the engine hands its windows over.
        base = [np.array([rng.gauss(50.0, 5.0) for _ in range(n)]) for _ in range(64)]
        series = [base[i % len(base)] for i in range(args.calls)]
        # The same series, five to a batch.
        fives = [[base[(i + j) % len(base)] for j in range(5)] for i in range(0, max(args.calls, 5), 5)]
        a = best_us(fit_forecast, series)
        b = best_us(forecast_max, series)
        c = best_us(five_single, fives)
        d = best_us(five_stacked, fives)
        print(f"{n:>5}  {a:>11.1f} µs  {b:>11.1f} µs  {c:>13.1f} µs  {d:>11.1f} µs")


if __name__ == "__main__":
    main()
