"""Interleaved A/B timing of ``run_simulation`` or the CLI for two trsw trees.

    python tools/ab_time.py SRC_A SRC_B --scenario ex2 --cells 200 --pairs 30
    python tools/ab_time.py SRC_A SRC_B --scenario ex6 --cells 4000 \
        --cli 1.0,2.0,3.0 --pairs 20

SRC_A and SRC_B are checkouts, or their ``src`` directories. The ``trsw``
package of each is copied into a temporary directory under a name of its
own (``trsw_a``, ``trsw_b``) and both are imported into this one process,
so the two sides share the interpreter, the numpy build and the machine's
momentary speed. One untimed run per side then checks that the final
states, the snapshots and the diagnostics records are bit-identical; the
tool exits 1 if they are not. After that the timed calls alternate which
side goes first, and each call builds its scenario afresh outside the
timed region.

A shared host changes speed by up to 2x over seconds, which can spread
one side's times by a third of their median. So a small frozen control
kernel (``perfbench/control.py``, about 20 ms) is timed right before and
after every call, and each call is also scored host-adjusted: its time
over the mean of the two control times around it, in seconds of the
control's nominal time. A slowdown of the host stretches the call and
its controls alike and cancels; a change of the code does not.

The tool prints each side's raw and adjusted median time and
interquartile range (IQR), and the medians of the per-pair ratios B/A,
adjusted and raw, with the number of pairs B won on adjusted times. It
calls the difference ``resolved`` only when, on adjusted times, B wins,
or loses, at least 9 in 10 of at least 10 pairs and the two medians
differ by more than A's IQR, and ``not resolved`` otherwise: two runs on
the same trees may read a few percent apart, so a ratio alone is no
result.

With ``--cli TIMES`` each call is ``trsw.cli.main`` instead, with
``--snapshots TIMES --diagnostics`` and each side's own output directory,
so the timed region includes building the scenario and writing the CSV
files. The untimed check then compares the exit codes, the standard
output and every written file byte for byte.

A ratio below 1 means B is faster. Pairs run back to back in one process,
so this resolves changes of a few percent in the solver or the writers;
it says nothing about start-up or memory, which ``perfbench/run.py``
covers.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from trees import package_dir

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from control import Control  # noqa: E402

_SIDES = ("a", "b")
# timed around every call; nominal_s is its fastest of 200 calls on a
# 2-core Intel Xeon guest, Python 3.11, numpy 2.4
CONTROL = Control(cells=200, steps=200, rows=2000, nominal_s=0.016)


def _outputs(result) -> tuple:
    """Everything a run produced, as bytes that compare bit for bit."""
    return (result.failed, result.failure_message, result.steps,
            np.float64(result.t).tobytes(), result.state.array.tobytes(),
            tuple((np.float64(t).tobytes(), s.array.tobytes())
                  for t, s in result.snapshots),
            np.array([r.row() for r in result.records], float).tobytes())


def _cli_outputs(call: tuple) -> tuple:
    """A CLI call's exit code, its standard output and error with the
    output directory masked, and each written file's name and bytes."""
    outdir, code, text = call
    files = []
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files.append((name, fh.read()))
    return code, text.replace(outdir, "OUT"), tuple(files)


def host_adjusted(times, controls, nominal_s: float) -> list:
    """Each call's time over the mean of the control times right before
    and after it, in seconds of ``nominal_s``; ``controls`` holds one more
    time than ``times``, in the order they were taken."""
    return [t * nominal_s / (0.5 * (before + after))
            for t, before, after in zip(times, controls, controls[1:])]


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _iqr(times) -> float:
    q1, q3 = np.percentile(times, [25, 75])
    return float(q3 - q1)


def score(times_a, times_b) -> tuple:
    """The pairs B won, and whether the paired times tell B from A: one
    side faster in at least 9 in 10 of at least 10 pairs, with the medians
    further apart than A's interquartile range."""
    pairs = len(times_a)
    wins = sum(b < a for a, b in zip(times_a, times_b))
    losses = sum(b > a for a, b in zip(times_a, times_b))
    gap = abs(statistics.median(times_b) - statistics.median(times_a))
    return wins, (pairs >= 10 and 10 * max(wins, losses) >= 9 * pairs
                  and gap > _iqr(times_a))


def compare(tree_a: str, tree_b: str, scenario: str, cells: int,
            t_final, pairs: int, cli_snapshots=None) -> int:
    """Check both trees give identical outputs, then time them; returns the
    exit code. ``cli_snapshots``, a comma-separated list of output times,
    times the CLI instead of ``run_simulation``."""
    with tempfile.TemporaryDirectory() as tmp:
        modules = {}
        sys.path.insert(0, tmp)
        try:
            for side, tree in zip(_SIDES, (tree_a, tree_b)):
                name = f"trsw_{side}"
                shutil.copytree(package_dir(tree), os.path.join(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
                modules[side] = importlib.import_module(name)
                importlib.import_module(f"{name}.cli")

            def run(side):
                trsw = modules[side]
                sc = trsw.make_scenario(scenario, cells=cells, t_final=t_final)
                start = time.perf_counter()
                result = trsw.run_simulation(sc)
                return time.perf_counter() - start, result

            def run_cli(side):
                outdir = os.path.join(tmp, f"out_{side}")
                argv = ["--scenario", scenario, "--cells", str(cells),
                        "--snapshots", cli_snapshots, "--diagnostics",
                        "--out", outdir]
                if t_final is not None:
                    argv += ["--t-final", repr(t_final)]
                text = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(text), \
                        contextlib.redirect_stderr(text):
                    code = modules[side].cli.main(argv)
                return time.perf_counter() - start, (outdir, code,
                                                     text.getvalue())

            call, outputs_of = ((run, _outputs) if cli_snapshots is None
                                else (run_cli, _cli_outputs))
            outputs = {side: outputs_of(call(side)[1]) for side in _SIDES}
            if outputs["a"] != outputs["b"]:
                print(f"outputs differ: {scenario} at N = {cells}")
                return 1
            out = outputs["a"]
            print(f"outputs identical: {scenario} at N = {cells}, " + (
                f"{out[2]} steps" if cli_snapshots is None
                else f"{len(out[2])} files, exit {out[0]}"))

            order, raw, controls = [], [], [_timed(CONTROL)]
            for k in range(pairs):
                for side in (_SIDES if k % 2 == 0 else _SIDES[::-1]):
                    order.append(side)
                    raw.append(call(side)[0])
                    controls.append(_timed(CONTROL))
        finally:
            sys.path.remove(tmp)
            for name in list(sys.modules):
                if name.split(".")[0] in {f"trsw_{s}" for s in _SIDES}:
                    del sys.modules[name]

    adjusted = host_adjusted(raw, controls, CONTROL.nominal_s)
    times = {side: [t for s, t in zip(order, raw) if s == side]
             for side in _SIDES}
    adj = {side: [t for s, t in zip(order, adjusted) if s == side]
           for side in _SIDES}
    wins, resolved = score(adj["a"], adj["b"])
    for side, tree in zip(_SIDES, (tree_a, tree_b)):
        print(f"{side.upper()}: median {statistics.median(times[side]):.4f} s"
              f", IQR {_iqr(times[side]):.4f} s; adjusted median "
              f"{statistics.median(adj[side]):.4f} s, IQR "
              f"{_iqr(adj[side]):.4f} s  ({tree})")
    ratio = {name: statistics.median(b / a for a, b in zip(t["a"], t["b"]))
             for name, t in (("adjusted", adj), ("raw", times))}
    verdict = "resolved" if resolved else "not resolved"
    print(f"B/A median ratio {ratio['adjusted']:.3f} adjusted, "
          f"{ratio['raw']:.3f} raw, {verdict}; "
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
    parser.add_argument("--cli", metavar="TIMES",
                        help="time trsw.cli.main with --snapshots TIMES "
                             "--diagnostics instead of run_simulation")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return compare(args.src_a, args.src_b, args.scenario, args.cells,
                   args.t_final, args.pairs, args.cli)


if __name__ == "__main__":
    sys.exit(main())
