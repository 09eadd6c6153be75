"""Tests of the benchmark itself, at tiny N.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = {"dambreak-cli": 12, "jet-wide": 1600, "equator-snapshots": 200}
DECISIONS = ("reconstruction.depth_fallback_fraction",
             "flux.switch_on_fraction", "flux.degenerate_fraction",
             "stepper.steps", "stepper.limited_fraction",
             "stepper.clipped_steps")


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    return tmp_path


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_decision_counts_repeat(outdir, workload):
    first, _ = run.benchmark(workload, 7, 0.0, 1, TINY[workload])
    second, _ = run.benchmark(workload, 7, 0.0, 1, TINY[workload])
    assert first["correct"] and second["correct"]
    for name in DECISIONS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["stepper.steps"]["value"] > 0


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_declared_metric_printed_with_unit(outdir, capsys, workload,
                                                 trace, kind):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--cells", str(TINY[workload])]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_canonical_seed_matches_references(outdir):
    result, report = run.benchmark("dambreak-cli", 0, 0.0, 0)
    assert report["check"] == "stored references"
    assert result["correct"], report["problems"]


def test_corrupted_outputs_fail(outdir):
    trsw = run.import_trsw()
    workload = run.workloads.WORKLOADS["dambreak-cli"]
    session = run.Session(trsw, workload, 5, TINY["dambreak-cli"], None)
    os.makedirs(session.outdir)
    with session.runner.installed():
        outcome = session.runner.run_once()
    files = session.runner.expected_files(outcome.result)
    problems, prints = checks.full_check(outcome, files, None)
    assert problems == []
    reference = {"fingerprints": prints}
    assert checks.full_check(outcome, files, reference)[0] == []
    digests = checks.file_digests(outcome)

    def rewrite(path, row, column, value):
        with open(path) as fh:
            lines = fh.read().splitlines()
        body = [i for i, line in enumerate(lines) if not line.startswith("#")]
        cells = lines[body[1 + row]].split(",")
        cells[column] = repr(value)
        lines[body[1 + row]] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    snapshot, diagnostics = files[-2], files[-1]
    pristine = {p: open(p).read() for p in (snapshot, diagnostics)}
    cases = [
        (snapshot, 3, 1, -1e-3, "negative h"),                 # h < 0
        (snapshot, 3, 2, 1.0 + 1e-6, "q: off by"),            # q changed
        (diagnostics, 4, 3, 1e-9, "mass ledger"),             # mass_drift
    ]
    for path, row, column, value, expect in cases:
        rewrite(path, row, column, value)
        found = checks.full_check(outcome, files, reference)[0]
        assert any(expect in p for p in found), (expect, found)
        assert checks.file_digests(outcome) != digests
        with open(path, "w") as fh:
            fh.write(pristine[path])
    assert checks.full_check(outcome, files, reference)[0] == []

    moved = np.array(outcome.result.state.array)
    moved[1, 0] += 1e-7
    prints_moved = checks.fingerprint(dict(zip(checks.FIELDS, moved)))
    assert checks.compare(prints_moved, prints["final"])


@pytest.mark.parametrize("workload,checksum", [
    ("dambreak-cli", 203.54490770180564),
    ("jet-wide", 26053.748185831115),
    ("equator-snapshots", 2027317.8981540361)])
def test_control_kernels_are_frozen(workload, checksum):
    # The adjusted times of two commits compare only if their controls
    # do the same work.
    assert run.workloads.WORKLOADS[workload].control() == pytest.approx(
        checksum, rel=1e-12)


def test_layer_self_time_excludes_children_and_hooks():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)),
                        hook=lambda counts, args, out: counts.update(x=1))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    with tracer.call():
        outer()
    times = tracer.layer_times(0, len(tracer.start))
    assert times["inner"]["calls"] == 2 and tracer.counts["x"] == 2
    outer_t = times["outer"]
    assert outer_t["self_s"] == pytest.approx(
        outer_t["s"] - times["inner"]["s"], abs=1e-9)
    assert times[spans.HOOKS]["calls"] == 2
    assert times[spans.WORKLOAD]["s"] >= outer_t["s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jet-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
