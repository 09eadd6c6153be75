"""Output checks of one workload call.

Every call must end without a failure flag. The first call of a run gets
the full check:

* h and hb are finite and nonnegative in the final state, in every
  snapshot the run kept in memory, and in every snapshot CSV it wrote;
* the mass and hb ledgers close to LEDGER_RTOL relative, both in the
  per-step records and in the diagnostics CSV;
* every expected file was written, with the right N and time;
* with seed 0 at the canonical cell count, the final state and every
  snapshot CSV match the fingerprints stored in references.json within
  REFERENCE_RTOL (the round-off bound a refactor may use; see
  ``compare``).

Every later call of the run must reproduce the first call's outputs byte
for byte (``digest``), since runs are deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

import numpy as np

LEDGER_RTOL = 1.0e-11
REFERENCE_RTOL = 1.0e-9
FIELDS = ("h", "q", "p", "hb")
COARSE_CELLS = 40

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def fingerprint(fields: Dict[str, np.ndarray]) -> dict:
    """Coarse cell averages (exact restriction when N is a multiple of
    COARSE_CELLS), extremes and mean magnitude of each conserved field."""
    out = {}
    for name in FIELDS:
        a = np.asarray(fields[name], float)
        out[name] = {
            "coarse": [float(c.mean()) for c in
                       np.array_split(a, min(COARSE_CELLS, a.size))],
            "min": float(a.min()), "max": float(a.max()),
            "mean_abs": float(np.abs(a).mean())}
    return out


def compare(found: dict, ref: dict, rtol: float = REFERENCE_RTOL) -> List[str]:
    """Differences beyond rtol times the field's magnitude, floored at
    1e-3 of the largest field's magnitude so fields that vanish in the
    reference are compared on the output's scale."""
    scale_all = max(max(abs(r["min"]), abs(r["max"])) for r in ref.values())
    problems = []
    for name in FIELDS:
        r, f = ref[name], found[name]
        scale = max(abs(r["min"]), abs(r["max"]), 1e-3 * scale_all)
        want = np.array(r["coarse"] + [r["min"], r["max"], r["mean_abs"]])
        got = np.array(f["coarse"] + [f["min"], f["max"], f["mean_abs"]])
        if want.shape != got.shape:
            problems.append(f"{name}: shape {got.shape} != {want.shape}")
            continue
        err = float(np.max(np.abs(got - want)))
        if not err <= rtol * scale:
            problems.append(f"{name}: off by {err:.3e} > {rtol:.0e} x {scale:.3e}")
    return problems


def _nonnegative(where: str, fields: Dict[str, np.ndarray]) -> List[str]:
    problems = []
    for name in FIELDS:
        a = np.asarray(fields[name], float)
        if not np.all(np.isfinite(a)):
            problems.append(f"{where}: non-finite {name}")
        elif name in ("h", "hb") and np.any(a < 0.0):
            problems.append(f"{where}: negative {name} (min {a.min():.3e})")
    return problems


def _ledger(where: str, mass, hb_total, mass_drift, hb_drift) -> List[str]:
    problems = []
    for name, total, drift in (("mass", mass, mass_drift),
                               ("hb", hb_total, hb_drift)):
        worst = float(np.max(np.abs(drift))) / abs(float(total[0]))
        if not worst <= LEDGER_RTOL:
            problems.append(f"{where}: {name} ledger off by {worst:.3e} relative")
    return problems


def _state_fields(state) -> Dict[str, np.ndarray]:
    return dict(zip(FIELDS, state.array))


def read_table(path: str):
    """A snapshot or diagnostics CSV as (metadata, header, rows)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = {}
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line:
            body.append(line)
    header = body[0].split(",")
    rows = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    return meta, header, rows


def full_check(outcome, expected_files: List[str],
               reference: Optional[dict]) -> tuple:
    """Problems found in one call's outputs, plus their fingerprints."""
    if not outcome.ok:
        return [f"call failed: {outcome.message}"], {}
    result = outcome.result
    scenario = result.scenario
    problems: List[str] = []
    if result.t != scenario.t_final:
        problems.append(f"stopped at t={result.t!r}, not {scenario.t_final!r}")
    problems += _nonnegative("final state", _state_fields(result.state))
    for t, snap in result.snapshots:
        problems += _nonnegative(f"snapshot t={t:.6f}", _state_fields(snap))
    if result.records:
        cols = {f: np.array([getattr(r, f) for r in result.records])
                for f in ("mass", "hb_total", "mass_drift", "hb_drift")}
        problems += _ledger("records", **cols)
    prints = {"final": fingerprint(_state_fields(result.state))}

    if outcome.files != expected_files:
        problems.append(f"wrote {outcome.files}, expected {expected_files}")
        expected_files = [p for p in expected_files if os.path.exists(p)]
    snapshot_times = list(scenario.snapshots)
    for path in expected_files:
        meta, header, rows = read_table(path)
        name = os.path.basename(path)
        cols = dict(zip(header, rows.T))
        if "mass_drift" in cols:
            if len(rows) != result.steps + 1:
                problems.append(f"{name}: {len(rows)} rows for "
                                f"{result.steps} steps")
            problems += _ledger(name, cols["mass"], cols["hb_total"],
                                cols["mass_drift"], cols["hb_drift"])
            continue
        t_expected = snapshot_times.pop(0) if snapshot_times else None
        if int(meta.get("N", -1)) != scenario.grid.n or len(rows) != scenario.grid.n:
            problems.append(f"{name}: wrong cell count")
        if t_expected is None or float(meta.get("t", "nan")) != t_expected:
            problems.append(f"{name}: time {meta.get('t')} != {t_expected!r}")
        problems += _nonnegative(name, cols)
        prints[name] = fingerprint(cols)

    if reference is not None:
        ref_prints = reference["fingerprints"]
        if set(ref_prints) != set(prints):
            problems.append(f"outputs {sorted(prints)} != reference "
                            f"{sorted(ref_prints)}")
        for key in sorted(set(ref_prints) & set(prints)):
            problems += [f"{key}: {p}" for p in compare(prints[key],
                                                        ref_prints[key])]
    return problems, prints


def file_digests(outcome) -> Dict[str, str]:
    """SHA-256 of the final state's bytes and of every written file."""
    out = {"final": hashlib.sha256(
        np.ascontiguousarray(outcome.result.state.array).tobytes()).hexdigest()}
    for path in outcome.files:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def save_reference(workload: str, entry: dict) -> None:
    refs = load_references() if os.path.exists(REFERENCES) else {}
    refs["rtol"] = REFERENCE_RTOL
    refs.setdefault("workloads", {})[workload] = entry
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
