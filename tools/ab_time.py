"""Interleaved A/B timing of ``run_simulation`` for two trsw source trees.

    python tools/ab_time.py SRC_A SRC_B --scenario ex2 --cells 200 --pairs 30

SRC_A and SRC_B are checkouts, or their ``src`` directories. The ``trsw``
package of each is copied into a temporary directory under a name of its
own (``trsw_a``, ``trsw_b``) and both are imported into this one process,
so the two sides share the interpreter, the numpy build and the machine's
momentary speed. One untimed run per side then checks that the final
states, the snapshots and the diagnostics records are bit-identical; the
tool exits 1 if they are not. After that the timed calls alternate which
side goes first, and each call builds its scenario afresh outside the
timed region. The tool prints each side's median time and the median of
the per-pair ratios B/A with the number of pairs B won.

A ratio below 1 means B is faster. Pairs run back to back in one process,
so this resolves changes of a few percent in the solver; it says nothing
about start-up, memory or file output, which ``perfbench/run.py`` covers.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

_SIDES = ("a", "b")


def _package_dir(tree: str) -> str:
    """The ``trsw`` package of a checkout or of its ``src`` directory."""
    for candidate in (os.path.join(tree, "trsw"),
                      os.path.join(tree, "src", "trsw")):
        if os.path.isfile(os.path.join(candidate, "__init__.py")):
            return candidate
    raise SystemExit(f"error: no trsw package in {tree} or {tree}/src")


def _outputs(result) -> tuple:
    """Everything a run produced, as bytes that compare bit for bit."""
    return (result.failed, result.failure_message, result.steps,
            np.float64(result.t).tobytes(), result.state.array.tobytes(),
            tuple((np.float64(t).tobytes(), s.array.tobytes())
                  for t, s in result.snapshots),
            np.array([r.row() for r in result.records], float).tobytes())


def compare(tree_a: str, tree_b: str, scenario: str, cells: int,
            t_final, pairs: int) -> int:
    """Check both trees give identical outputs, then time them; returns the
    exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        modules = {}
        sys.path.insert(0, tmp)
        try:
            for side, tree in zip(_SIDES, (tree_a, tree_b)):
                name = f"trsw_{side}"
                shutil.copytree(_package_dir(tree), os.path.join(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
                modules[side] = importlib.import_module(name)

            def run(side):
                trsw = modules[side]
                sc = trsw.make_scenario(scenario, cells=cells, t_final=t_final)
                start = time.perf_counter()
                result = trsw.run_simulation(sc)
                return time.perf_counter() - start, result

            outputs = {side: _outputs(run(side)[1]) for side in _SIDES}
            if outputs["a"] != outputs["b"]:
                print(f"outputs differ: {scenario} at N = {cells}")
                return 1
            print(f"outputs identical: {scenario} at N = {cells}, "
                  f"{outputs['a'][2]} steps")

            times = {side: [] for side in _SIDES}
            for k in range(pairs):
                for side in (_SIDES if k % 2 == 0 else _SIDES[::-1]):
                    times[side].append(run(side)[0])
        finally:
            sys.path.remove(tmp)
            for name in list(sys.modules):
                if name.split(".")[0] in {f"trsw_{s}" for s in _SIDES}:
                    del sys.modules[name]

    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    wins = sum(b < a for a, b in zip(times["a"], times["b"]))
    for side, tree in zip(_SIDES, (tree_a, tree_b)):
        print(f"{side.upper()}: median {statistics.median(times[side]):.4f} s"
              f"  ({tree})")
    print(f"B/A median ratio {statistics.median(ratios):.3f}; "
          f"B faster in {wins} of {pairs} pairs")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_a", help="checkout or src directory of side A")
    parser.add_argument("src_b", help="checkout or src directory of side B")
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--cells", type=int, required=True)
    parser.add_argument("--t-final", type=float, default=None)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return compare(args.src_a, args.src_b, args.scenario, args.cells,
                   args.t_final, args.pairs)


if __name__ == "__main__":
    sys.exit(main())
