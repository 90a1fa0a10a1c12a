"""How steady is this machine, and how much of it do nominal seconds take
out?  Repeats one fixed piece of shidoku work (the first 40 queries of the
`queries` stream for seed 1) for a while under the speedometer, and
reports, over consecutive windows as long as one benchmark run, the
spread (quartile distance over median) of the work's median time in
seconds as measured and in nominal seconds (speed.py).

  python3 bench/machine_floor.py [--seconds 240] [--window 30]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import inputs
import speed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=240)
    parser.add_argument("--window", type=float, default=30)
    args = parser.parse_args()
    from shidoku import enumerate_all
    from shidoku.action import is_complete, orbits
    from shidoku.group import generate
    from shidoku.perm import Perm, SymmetryElement

    enumerate_all()
    stream = inputs.query_stream(1)
    batch = [[SymmetryElement(Perm(p), Perm(r)) for p, r in map(inputs.element, next(stream))] for _ in range(40)]

    def work() -> None:
        for gens in batch:
            group = generate(gens)
            orbits(group)
            is_complete(group)

    work()  # fills the caches
    speedometer = speed.Speedometer()
    speedometer.start()
    stretches = []
    start = time.perf_counter()
    while (now := time.perf_counter()) - start < args.seconds:
        work()
        stretches.append((now, time.perf_counter()))
    timeline = speed.Timeline(speedometer.stop())
    measured: dict[int, list[float]] = {}
    nominal: dict[int, list[float]] = {}
    for a, b in stretches:
        window = int((a - start) // args.window)
        measured.setdefault(window, []).append(b - a)
        nominal.setdefault(window, []).append(timeline.seconds(a, b))
    print(f"{len(stretches)} repeats in {len(measured)} windows of {args.window:g} s; spread of the window medians:")
    for name, windows in (("measured seconds", measured), ("nominal seconds", nominal)):
        medians = [statistics.median(times) for times in windows.values()]
        print(f"  {name:17s} {spread(medians):.3f}  (median {statistics.median(medians):.4f} s)")


if __name__ == "__main__":
    main()
