"""Count the numpy calls of one trsw run, kernel by kernel, and those that
take a strided multi-row operand; optionally time them per call site.

    python tools/op_census.py SCENARIO --cells N [--t-final T] [--src SRC]
                             [--time]

SRC is a checkout or its ``src`` directory (default: the checkout this
file sits in). For one ``run_simulation`` of SCENARIO at N cells, with
the scenario's own final time or T, its snapshot times up to it and a
diagnostics record per step, the name ``np`` of trsw's ``stepper``,
``reconstruction``, ``flux``, ``model`` and ``diagnostics`` modules is
bound to a proxy of numpy. The proxy counts every call of a numpy ufunc
(``np.add(...)``, ``np.isfinite(...)``) and of ``np.copyto`` made by
code of those modules, under the function that made it
(``flux.numerical_flux``, ``reconstruction.minmod``). A call counts as
strided when one of its array operands, inputs, ``out`` or ``where``,
has two or more rows and is not C-contiguous: numpy cannot run such an
operand as one 1-D loop, and pays about 1 us more per call at N = 200
(rows of n or n+1 values inside rows of n+4).

Not counted: in-place operators (``a += b``), indexing and slice
assignment, array methods (``.all()``, ``.cumsum()``), ufunc methods
(``np.fmin.reduce``) and numpy functions that are not ufuncs
(``np.where``, ``np.count_nonzero``). The tool prints, per kernel and in
total, the calls and strided calls per stage (three stages per step),
then one line with the run's totals.

``--time`` also times each counted call, and prints per call site (the
kernel, the line and the function called) its calls per stage, its total
time over the run and its time per value, the size of its result (of the
destination for ``copyto``), slowest site first. A slow path shows up
there as a high ns per value: ``np.power`` at 0, say, or a ``where=``
loop, which costs per value of its result whether the mask is set or
not. The times are wall times of single calls, so they include numpy's
per-call overhead, which dominates below about a thousand values.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter

import numpy as np

from trees import import_trsw

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_MODULES = ("stepper", "reconstruction", "flux", "model", "diagnostics")


def _strided(arg) -> bool:
    return (isinstance(arg, np.ndarray) and arg.ndim >= 2
            and arg.shape[0] > 1 and not arg.flags.c_contiguous)


class _Tally:
    """Calls and strided calls per kernel, ``module.function``; if
    ``timed``, also calls, nanoseconds and result values per call site,
    ``(kernel, line, function)``."""

    def __init__(self, timed: bool = False):
        self.calls, self.strided = Counter(), Counter()
        self.timed = timed
        self.site_calls, self.site_ns = Counter(), Counter()
        self.site_values = Counter()

    def record(self, frame, name, args, kwargs) -> tuple:
        """Count one call; returns its call site."""
        module = frame.f_globals["__name__"].rpartition(".")[2]
        kernel = f"{module}.{frame.f_code.co_name}"
        self.calls[kernel] += 1
        out = kwargs.get("out", ())
        operands = (*args, *(out if isinstance(out, tuple) else (out,)),
                    kwargs.get("where"))
        if any(map(_strided, operands)):
            self.strided[kernel] += 1
        return kernel, frame.f_lineno, name

    def add_time(self, site, ns: int, values: int) -> None:
        self.site_calls[site] += 1
        self.site_ns[site] += ns
        self.site_values[site] += values


def _values(result, args) -> int:
    """The values a call wrote: its (first) result, or the destination of
    ``copyto``, which returns None."""
    if isinstance(result, tuple):
        result = result[0]
    return int(np.size(args[0] if result is None else result))


class _Counted:
    """A numpy callable that reports each call to the tally first, and
    its time after it if the tally is timed."""

    def __init__(self, name: str, func, tally: _Tally):
        self._name, self._func, self._tally = name, func, tally

    def __call__(self, *args, **kwargs):
        site = self._tally.record(sys._getframe(1), self._name, args, kwargs)
        if not self._tally.timed:
            return self._func(*args, **kwargs)
        start = time.perf_counter_ns()
        result = self._func(*args, **kwargs)
        ns = time.perf_counter_ns() - start
        self._tally.add_time(site, ns, _values(result, args))
        return result

    def __getattr__(self, name):
        return getattr(self._func, name)


class _NumpyProxy:
    """numpy, with its ufuncs and ``copyto`` counted."""

    def __init__(self, tally: _Tally):
        self._tally, self._counted = tally, {}

    def __getattr__(self, name):
        value = getattr(np, name)
        if not (isinstance(value, np.ufunc) or name == "copyto"):
            return value
        if name not in self._counted:
            self._counted[name] = _Counted(name, value, self._tally)
        return self._counted[name]


def census(trsw, scenario: str, cells: int, timed: bool = False,
           t_final=None):
    """(tally, steps) of one counted run of ``scenario``, to its own final
    time or ``t_final``, timed per call site if ``timed``; exits if the run
    fails."""
    tally = _Tally(timed)
    modules = [getattr(trsw, name) for name in _MODULES]
    sc = trsw.make_scenario(scenario, cells=cells, t_final=t_final)
    for module in modules:
        module.np = _NumpyProxy(tally)
    try:
        result = trsw.run_simulation(sc)
    finally:
        for module in modules:
            module.np = np
    if result.failed:
        raise SystemExit(f"error: {scenario} at N = {cells}: "
                         f"{result.failure_message}")
    return tally, result.steps


def _print_sites(tally: _Tally, stages: int) -> None:
    """The timed call sites, slowest first, and their total."""
    print(f"{'call site':<52} {'calls':>8} {'ms':>9} {'ns/value':>9}")
    for site in sorted(tally.site_ns, key=tally.site_ns.get, reverse=True):
        kernel, line, name = site
        ns = tally.site_ns[site]
        print(f"{f'{kernel}:{line} {name}':<52} "
              f"{tally.site_calls[site] / stages:8.1f} {ns / 1e6:9.3f} "
              f"{ns / max(tally.site_values[site], 1):9.3f}")
    ns, values = sum(tally.site_ns.values()), sum(tally.site_values.values())
    print(f"{'total':<52} {sum(tally.site_calls.values()) / stages:8.1f} "
          f"{ns / 1e6:9.3f} {ns / max(values, 1):9.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("scenario")
    parser.add_argument("--cells", type=int, required=True)
    parser.add_argument("--t-final", type=float,
                        help="final time (default: the scenario's)")
    parser.add_argument("--src", default=_ROOT,
                        help="checkout or src directory (default: this one)")
    parser.add_argument("--time", action="store_true",
                        help="also time each call site")
    args = parser.parse_args(argv)
    trsw = import_trsw(args.src)
    tally, steps = census(trsw, args.scenario, args.cells, args.time,
                          args.t_final)
    stages = 3 * steps
    print(f"{args.scenario} at N = {args.cells}: {steps} steps, {stages} "
          "stages; numpy ufunc and copyto calls per stage (in-place "
          "operators not counted)")
    print(f"{'kernel':<36} {'calls':>8} {'strided':>8}")
    for kernel in sorted(tally.calls):
        print(f"{kernel:<36} {tally.calls[kernel] / stages:8.1f} "
              f"{tally.strided[kernel] / stages:8.1f}")
    total, strided = sum(tally.calls.values()), sum(tally.strided.values())
    print(f"{'total':<36} {total / stages:8.1f} {strided / stages:8.1f}")
    if args.time:
        print("per call site: calls per stage, total time of the run and "
              "time per value of the result")
        _print_sites(tally, stages)
    print(f"run: {total} calls, {strided} strided")
    return 0


if __name__ == "__main__":
    sys.exit(main())
