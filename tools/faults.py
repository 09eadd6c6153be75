"""Minor page faults, system time and wall time per ``run_simulation`` call
of one trsw source tree.

    python tools/faults.py SRC --scenario ex3b --cells 25600 --t-final 0.1 --calls 8

SRC is a checkout or its ``src`` directory; its ``trsw`` package is the
only one imported. Each call builds its scenario outside the measured
region, keeps the previous call's result alive while it runs (as a caller
that stores its results does), and follows a fixed numpy kernel, some
array arithmetic on N floats, which stands for the caller's own work
between runs and moves the heap the same way every time. The minor
faults and system time of a call are ``getrusage`` differences around
``run_simulation`` alone.

One line per call, then a JSON summary with the medians over the calls
after the second, when the heap has reached its steady layout.
``tools/ab_time.py`` cannot show faults: its two sides share one heap.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from trees import import_trsw

KERNEL_STEPS = 50


def kernel(n: int) -> float:
    """A fixed numpy workload on arrays of n floats: first-order upwind
    advection with a few temporaries per step."""
    x = np.linspace(0.0, 1.0, n)
    u = np.exp(-100.0 * (x - 0.5) ** 2)
    for _ in range(KERNEL_STEPS):
        flux = 0.5 * (u + np.roll(u, -1)) - 0.5 * (np.roll(u, -1) - u)
        u = u - 0.4 * (flux - np.roll(flux, 1))
    return float(u.sum())


def measure(trsw, scenario: str, cells: int, t_final, calls: int) -> list:
    """Per call: (minor faults, system ms, user ms, wall s, steps)."""
    kwargs = {"cells": cells}
    if t_final is not None:
        kwargs["t_final"] = t_final
    rows = []
    previous = None
    for _ in range(calls):
        kernel(cells)
        sc = trsw.make_scenario(scenario, **kwargs)
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = trsw.run_simulation(sc)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        if result.failed:
            raise SystemExit(f"error: run failed: {result.failure_message}")
        rows.append((after.ru_minflt - before.ru_minflt,
                     1e3 * (after.ru_stime - before.ru_stime),
                     1e3 * (after.ru_utime - before.ru_utime),
                     wall, result.steps))
        previous = result  # noqa: F841 -- alive through the next call
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="checkout or src directory")
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--cells", type=int, required=True)
    parser.add_argument("--t-final", type=float, default=None)
    parser.add_argument("--calls", type=int, default=8)
    args = parser.parse_args(argv)
    if args.calls < 3:
        parser.error("--calls must be at least 3")
    trsw = import_trsw(args.src)
    rows = measure(trsw, args.scenario, args.cells, args.t_final, args.calls)
    print(f"{'call':>4} {'faults':>8} {'sys_ms':>8} {'user_ms':>8} "
          f"{'wall_s':>8} {'steps':>6}")
    for k, (faults, sys_ms, user_ms, wall, steps) in enumerate(rows, 1):
        print(f"{k:>4} {faults:>8} {sys_ms:>8.1f} {user_ms:>8.1f} "
              f"{wall:>8.4f} {steps:>6}")
    steady = rows[2:]
    print(json.dumps({
        "src": os.path.abspath(args.src), "scenario": args.scenario,
        "cells": args.cells, "calls": args.calls,
        "steps": rows[-1][4],
        "per_call": [{"faults": r[0], "sys_ms": round(r[1], 1),
                      "wall_s": round(r[3], 4)} for r in rows],
        "after_second": {
            "median_faults": statistics.median(r[0] for r in steady),
            "max_faults": max(r[0] for r in steady),
            "median_sys_ms": round(statistics.median(r[1] for r in steady),
                                   1),
            "median_wall_s": round(statistics.median(r[3] for r in steady),
                                   4)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
