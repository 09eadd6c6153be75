#!/usr/bin/env python3
"""Benchmark of the trsw solver, one workload per invocation.

    python3 perfbench/run.py --workload dambreak-cli --seed 0 --seconds 30 --trace 0

Run from any directory; the solver is imported from ``src/`` next to this
directory and from nowhere else, so a checkout without the sources exits
with an error. The process is single-threaded (the BLAS/OpenMP thread
counts are pinned to 1) and starts no worker besides the short-lived
interpreters that time set-up.

``--trace 0`` times repeated workload calls for ``--seconds`` and reports
the end-to-end metrics. Every call is timed between two runs of the
workload's frozen control kernel (control.py), and every set-up between
two fresh interpreters that only import numpy; the reported times are
each call's time scaled by the control's nominal time over its measured
time, so that a slowdown of the shared host cancels. ``--trace 1``
alternates untraced and traced calls for ``--seconds`` and reports the
per-layer metrics: span times of each module boundary, the decision-point
counts of the scheme, and the tracing overhead. Every call's outputs are
checked (see checks.py). Files go to ``.bench_build/perfbench`` in the
repository root; the last line of standard output is the JSON result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# The set-up control: a fresh interpreter that imports numpy, and its wall
# time on the reference host at full speed (see control.Control).
SETUP_CONTROL = "import numpy"
SETUP_CONTROL_NOMINAL_S = 0.105

END_TO_END = (("wall_s", "s"), ("setup_s", "s"),
              ("cell_steps_per_s", "1/s"), ("peak_rss_mb", "MB"))

_TIMED = (
    ("model.ConservedState", ("calls", "s")),
    ("reconstruction.build_interface_states", ("calls", "s", "self_s")),
    ("reconstruction.interface_values", ("calls", "s")),
    ("reconstruction.depth_from_equilibrium", ("calls", "s")),
    ("reconstruction.source_potential", ("s",)),
    ("flux.numerical_flux", ("calls", "s")),
    ("flux.diffusion_switch", ("s",)),
    ("stepper.run_simulation", ("s", "self_s")),
    ("stepper.draining_limit", ("s",)),
    ("stepper.source_term", ("s",)),
    ("stepper.cfl_dt", ("s",)),
    ("diagnostics.make_record", ("calls", "s")),
    ("fileio.write_snapshot", ("calls", "s")),
    ("fileio.write_diagnostics", ("s",)),
    ("cli.main", ("self_s",)),
    ("scenarios.make_scenario", ("s",)),
)
PER_LAYER = tuple(
    (f"{span}.{stat}", "count" if stat == "calls" else "s")
    for span, stats in _TIMED for stat in stats) + (
    ("reconstruction.depth_fallback_fraction", "fraction"),
    ("flux.switch_on_fraction", "fraction"),
    ("flux.degenerate_fraction", "fraction"),
    ("stepper.steps", "count"),
    ("stepper.limited_fraction", "fraction"),
    ("stepper.clipped_steps", "count"),
    ("fileio.bytes_written", "bytes"),
    ("trace.overhead", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_trsw():
    package = os.path.join(SRC, "trsw")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchError(f"no trsw sources at {package}")
    sys.path.insert(0, SRC)
    import trsw
    import trsw.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(trsw.__file__)) != package:
        raise BenchError(f"imported trsw from {trsw.__file__}, not {package}")
    return trsw


def machine_stamp(cells: int) -> dict:
    """Versions, processor and caches the numbers were measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            values = [open(os.path.join(index, f)).read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        level, kind, size = values
        key = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[key] = size
    state_bytes = 4 * cells * 8
    l2 = caches.get("L2", "")
    l2_bytes = int(l2[:-1]) * 1024 if l2.endswith("K") and l2[:-1].isdigit() \
        else None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu": cpu,
        "caches_per_core": caches,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "state_bytes": state_bytes,
        "state_fits_in_l2": None if l2_bytes is None
        else state_bytes <= l2_bytes,
        "note": "one stage's temporaries are a few dozen arrays of N+1 "
                "floats; no bandwidth or roofline figure is claimed",
    }


def _interpreter_s(code: str) -> float:
    """Wall time of one fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"interpreter failed:\n{proc.stderr}")
    return elapsed


def setup_timer(workload: str, seed: int, cells: int):
    """A callable timing one fresh interpreter that imports trsw, builds
    the scenario and its initial state, then exits. It returns the raw
    time and the time adjusted by the set-up control, a fresh interpreter
    that only imports numpy, timed right before and after."""
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]; "
            f"import workloads; workloads.setup({workload!r}, {seed}, {cells})")

    def timer():
        before = _interpreter_s(SETUP_CONTROL)
        elapsed = _interpreter_s(code)
        after = _interpreter_s(SETUP_CONTROL)
        scale = SETUP_CONTROL_NOMINAL_S / (0.5 * (before + after))
        return elapsed, elapsed * scale
    return timer


def tail(values):
    """The highest percentile with at least ten samples beyond it, and
    its rank; None below 20 samples, where it would not exceed the
    median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


class Session:
    """One benchmark invocation: calls, checks, and their tallies."""

    def __init__(self, trsw, workload, seed, cells, reference):
        self.trsw = trsw
        self.workload = workload
        self.outdir = os.path.join(OUT, workload.name)
        self.runner = workloads.Runner(trsw, workload, seed, cells,
                                       self.outdir)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digests = None
        self.prints = {}

    def attempt(self, tracer=None):
        """One checked call; returns its Outcome, or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            if tracer is None:
                outcome = self.runner.run_once()
            else:
                with tracer.installed(self.trsw), tracer.call():
                    outcome = self.runner.run_once()
            problems = self._check(outcome)
        except Exception:
            outcome, problems = None, [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems += problems[:5]
            return None
        return outcome

    def _check(self, outcome):
        if self.first_digests is None:
            expected = self.runner.expected_files(outcome.result) \
                if outcome.ok else []
            problems, self.prints = checks.full_check(outcome, expected,
                                                      self.reference)
            if not problems:
                self.first_digests = checks.file_digests(outcome)
            return problems
        if not outcome.ok:
            return [f"call failed: {outcome.message}"]
        if checks.file_digests(outcome) != self.first_digests:
            return ["outputs differ from the first call of this run"]
        return []


def _enough(session, samples):
    """Past the deadline, keep calling only until one call succeeded, and
    give up after a few failures."""
    return bool(samples) or session.failed >= 3


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_plain(session, seconds, setup):
    """Untraced calls for ``seconds``, each between two timings of the
    workload's control kernel, with ``len(setup)`` set-up timings spread
    evenly among them. Returns per-call lists of raw wall times, raw
    cell-step rates and host scale factors (nominal control time over the
    mean of the two control times around the call), and the set-up
    (raw, adjusted) pairs."""
    control = session.workload.control
    walls, rates, scales, setup_s = [], [], [], []
    n = session.runner.cells
    start = time.perf_counter()
    deadline = start + seconds
    before = _timed(control)
    while time.perf_counter() < deadline or not _enough(session, walls):
        if len(setup_s) < len(setup) and time.perf_counter() >= \
                start + seconds * len(setup_s) / len(setup):
            setup_s.append(setup[len(setup_s)]())
            before = _timed(control)
            continue
        outcome = session.attempt()
        after = _timed(control)
        if outcome is not None:
            walls.append(outcome.wall_s)
            rates.append(n * outcome.result.steps / outcome.sim_s)
            scales.append(control.nominal_s / (0.5 * (before + after)))
        before = after
    setup_s += [timer() for timer in setup[len(setup_s):]]
    if not walls:
        raise BenchError("no call succeeded:\n" + "\n".join(session.problems))
    return walls, rates, scales, setup_s


def run_traced(session, seconds, trace_path):
    """Alternating untraced and traced calls for ``seconds``; returns the
    per-layer metrics."""
    tracer = spans.Tracer()
    plain, traced, layer_runs, decisions = [], [], [], None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not _enough(session, traced):
        outcome = session.attempt()
        if outcome is not None:
            plain.append(outcome.wall_s)
        lo = len(tracer.start)
        outcome = session.attempt(tracer)
        if outcome is None:
            continue
        traced.append(outcome.wall_s)
        layer_runs.append(tracer.layer_times(lo, len(tracer.start)))
        counts = spans.decision_counts(tracer.counts, outcome.result.steps)
        if decisions is None:
            decisions = counts
        elif counts != decisions:
            session.failed += 1
            session.problems.append(
                f"decision-point counts changed between identical calls: "
                f"{decisions} -> {counts}")
    if not traced or not plain:
        raise BenchError("no traced or untraced call succeeded:\n"
                         + "\n".join(session.problems))
    tracer.dump(trace_path, {"workload": session.workload.name,
                             "seed": session.runner.seed,
                             "cells": session.runner.cells})
    metrics = {}
    for span, stats in _TIMED:
        for stat in stats:
            metrics[f"{span}.{stat}"] = statistics.median(
                run.get(span, {}).get(stat, 0) for run in layer_runs)
    metrics.update(decisions)
    metrics["trace.overhead"] = (statistics.median(traced)
                                 / statistics.median(plain) - 1.0)
    return metrics


def benchmark(workload_name, seed, seconds, trace, cells=None):
    """Run one workload; returns (result line, report)."""
    workload = workloads.WORKLOADS[workload_name]
    cells = cells or workload.cells
    trsw = import_trsw()
    reference = None
    if seed == 0 and cells == workload.cells:
        reference = checks.load_references()["workloads"][workload_name]
    session = Session(trsw, workload, seed, cells, reference)
    shutil.rmtree(session.outdir, ignore_errors=True)
    os.makedirs(session.outdir)
    report = {"workload": workload_name, "seed": seed, "cells": cells,
              "seconds": seconds, "trace": trace,
              "machine": machine_stamp(cells),
              "check": "stored references" if reference else "invariants only"}

    with session.runner.installed():
        session.attempt()  # warm-up, and the full output check
        if trace:
            path = os.path.join(OUT, f"trace-{workload_name}-seed{seed}.json")
            values = run_traced(session, seconds, path)
            units = PER_LAYER
            report["trace_file"] = os.path.relpath(path, ROOT)
        else:
            timer = setup_timer(workload_name, seed, cells)
            walls, rates, scales, setup = run_plain(
                session, seconds, [timer] * SETUP_REPEATS)
            wall_tail, rank = tail(walls)
            values = {
                "wall_s": statistics.median(
                    w * k for w, k in zip(walls, scales)),
                "setup_s": statistics.median(adj for _, adj in setup),
                "cell_steps_per_s": statistics.median(
                    r / k for r, k in zip(rates, scales)),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            report.update(samples=len(walls), wall_s_tail=wall_tail,
                          tail_percentile=rank, walls=walls, rates=rates,
                          scales=scales,
                          raw={"wall_s": statistics.median(walls),
                               "setup_s": statistics.median(
                                   raw for raw, _ in setup),
                               "cell_steps_per_s": statistics.median(rates),
                               "host_scale": statistics.median(scales)},
                          setup_samples=setup)
    if reference is not None and session.first_digests is not None:
        report["byte_identical_to_reference"] = {
            key: session.first_digests.get(key) == digest
            for key, digest in reference["digests"].items()}
    report.update(attempted=session.attempted, failed=session.failed,
                  failure_rate=session.failed / session.attempted,
                  problems=session.problems)
    result = {"correct": session.failed == 0,
              "attempted": session.attempted, "failed": session.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units}}
    report["metrics"] = result["metrics"]
    return result, report


def write_reference(workload_name):
    """Store seed-0 fingerprints and digests of one call at canonical N."""
    workload = workloads.WORKLOADS[workload_name]
    trsw = import_trsw()
    session = Session(trsw, workload, 0, workload.cells, None)
    shutil.rmtree(session.outdir, ignore_errors=True)
    os.makedirs(session.outdir)
    with session.runner.installed():
        if session.attempt() is None:
            raise BenchError("\n".join(session.problems))
    checks.save_reference(workload_name, {
        "cells": workload.cells, "fingerprints": session.prints,
        "digests": session.first_digests})


def _print_report(report):
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"N={report['cells']} trace={report['trace']} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"failure_rate={report['failure_rate']:.4g} "
          f"check={report['check']}")
    if "samples" in report:
        tail_text = "n/a (under 20 samples)" if report["wall_s_tail"] is None \
            else (f"{report['wall_s_tail']:.6g} s at "
                  f"p{report['tail_percentile']:.0f}")
        print(f"  medians of {report['samples']} calls; wall_s tail {tail_text}")
    for name, m in report["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")
    print("  machine " + json.dumps(report["machine"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cells", type=int,
                        help="override N (smoke tests; invariants only)")
    parser.add_argument("--write-references", action="store_true",
                        help="store seed-0 reference fingerprints and exit")
    args = parser.parse_args(argv)
    try:
        if args.write_references:
            write_reference(args.workload)
            print(f"stored references for {args.workload}")
            return 0
        result, report = benchmark(args.workload, args.seed, args.seconds,
                                   args.trace, args.cells)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    _print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
