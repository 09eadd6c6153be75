"""Count the numpy calls of one trsw run, kernel by kernel, and those that
take a strided multi-row operand.

    python tools/op_census.py SCENARIO --cells N [--src SRC]

SRC is a checkout or its ``src`` directory (default: the checkout this
file sits in). For one ``run_simulation`` of SCENARIO at N cells, with
the scenario's own final time, its snapshot times and a diagnostics
record per step, the name ``np`` of trsw's ``stepper``,
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
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

import numpy as np

from trees import import_trsw

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_MODULES = ("stepper", "reconstruction", "flux", "model", "diagnostics")


def _strided(arg) -> bool:
    return (isinstance(arg, np.ndarray) and arg.ndim >= 2
            and arg.shape[0] > 1 and not arg.flags.c_contiguous)


class _Tally:
    """Calls and strided calls per kernel, ``module.function``."""

    def __init__(self):
        self.calls, self.strided = Counter(), Counter()

    def record(self, frame, args, kwargs) -> None:
        module = frame.f_globals["__name__"].rpartition(".")[2]
        kernel = f"{module}.{frame.f_code.co_name}"
        self.calls[kernel] += 1
        out = kwargs.get("out", ())
        operands = (*args, *(out if isinstance(out, tuple) else (out,)),
                    kwargs.get("where"))
        if any(map(_strided, operands)):
            self.strided[kernel] += 1


class _Counted:
    """A numpy callable that reports each call to the tally first."""

    def __init__(self, func, tally: _Tally):
        self._func, self._tally = func, tally

    def __call__(self, *args, **kwargs):
        self._tally.record(sys._getframe(1), args, kwargs)
        return self._func(*args, **kwargs)

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
            self._counted[name] = _Counted(value, self._tally)
        return self._counted[name]


def census(trsw, scenario: str, cells: int):
    """(tally, steps) of one counted run of ``scenario``; exits if the run
    fails."""
    tally = _Tally()
    modules = [getattr(trsw, name) for name in _MODULES]
    sc = trsw.make_scenario(scenario, cells=cells)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("scenario")
    parser.add_argument("--cells", type=int, required=True)
    parser.add_argument("--src", default=_ROOT,
                        help="checkout or src directory (default: this one)")
    args = parser.parse_args(argv)
    trsw = import_trsw(args.src)
    tally, steps = census(trsw, args.scenario, args.cells)
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
    print(f"run: {total} calls, {strided} strided")
    return 0


if __name__ == "__main__":
    sys.exit(main())
