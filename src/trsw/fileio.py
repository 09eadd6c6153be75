"""CSV snapshot and diagnostics files, plus solution comparison helpers.

Snapshots are plot-ready text: metadata in leading ``# key: value``
comments, a header row, one data row per cell, real values as ``%.16e``
(17 significant digits), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

from .diagnostics import DiagnosticsRecord
from .model import ConservedState, Grid, Numerics, Topography, \
    primitives_from_state

SNAPSHOT_COLUMNS = ("y", "h", "q", "p", "hb", "u", "v", "b", "w", "Z")
_NUM = "%.16e"


def write_snapshot(path, state: ConservedState, topo: Topography, grid: Grid,
                   t: float, scenario_name: str = "custom",
                   numerics: Optional[Numerics] = None) -> None:
    """Write one solution snapshot as CSV (see SNAPSHOT_COLUMNS)."""
    numerics = numerics or Numerics()
    u, v, b, w = primitives_from_state(state, topo, numerics.eps)
    columns = (grid.centers, state.h, state.q, state.p, state.hb,
               u, v, b, w, topo.z_center)
    lines = [
        f"# scenario: {scenario_name}",
        f"# N: {grid.n}",
        f"# y_min: {_NUM % grid.y_min}",
        f"# y_max: {_NUM % grid.y_max}",
        f"# t: {_NUM % t}",
        f"# cfl: {_NUM % numerics.cfl}",
        f"# sigma: {_NUM % numerics.sigma}",
        ",".join(SNAPSHOT_COLUMNS),
    ]
    row = ",".join([_NUM] * len(columns))
    lines += [row % tuple(r) for r in np.column_stack(columns).tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path) -> Tuple[Dict[str, str], Dict[str, np.ndarray]]:
    """Parse a snapshot file back into (metadata, column arrays)."""
    meta: Dict[str, str] = {}
    header = None
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                try:
                    row = [float(x) for x in line.split(",")]
                except ValueError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from None
                if len(row) != len(header):
                    raise ValueError(f"{path}:{lineno}: {len(row)} fields "
                                     f"under a {len(header)}-column header")
                rows.append(row)
    if header is None:
        raise ValueError(f"{path}: no header row")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, float)
    if data.shape[0] != int(meta.get("N", data.shape[0])):
        raise ValueError(f"{path}: row count does not match N")
    return meta, {name: data[:, i] for i, name in enumerate(header)}


def write_diagnostics(path, records) -> None:
    """Diagnostics time series CSV: one row per recorded step."""
    lines = [",".join(DiagnosticsRecord.FIELDS)]
    row = ",".join([_NUM] * len(DiagnosticsRecord.FIELDS))
    lines += [row % rec.row() for rec in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def restrict_average(fine: np.ndarray, factor: int) -> np.ndarray:
    """Exact finite-volume restriction: average groups of ``factor``
    consecutive fine cells into one coarse cell."""
    fine = np.asarray(fine, float)
    if factor < 1 or fine.size % factor:
        raise ValueError(f"cannot restrict {fine.size} cells by {factor}")
    return fine.reshape(-1, factor).mean(axis=1)


def _refinement_factor(n_a: int, n_b: int) -> int:
    big, small = max(n_a, n_b), min(n_a, n_b)
    if big % small:
        raise ValueError(f"grids with {n_a} and {n_b} cells are not nested")
    return big // small


def compare_fields(a: np.ndarray, b: np.ndarray, dy_coarse: float
                   ) -> Tuple[float, float]:
    """Discrete L1 and Linf distance of two cell fields on nested grids;
    the finer one is restricted by cell averaging first."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.size > b.size:
        a = restrict_average(a, _refinement_factor(a.size, b.size))
    elif b.size > a.size:
        b = restrict_average(b, _refinement_factor(a.size, b.size))
    diff = np.abs(a - b)
    return float(diff.sum() * dy_coarse), float(diff.max())


def _comparable(path):
    """(N, y_min, y_max, columns) of a snapshot file, all of them present."""
    meta, data = read_snapshot(path)
    missing = [key for key in ("N", "y_min", "y_max") if key not in meta]
    missing += [name for name in SNAPSHOT_COLUMNS if name not in data]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    return int(meta["N"]), float(meta["y_min"]), float(meta["y_max"]), data


def compare_solutions(path_a, path_b) -> Dict[str, Tuple[float, float]]:
    """Per-column (L1, Linf) differences between two snapshot files whose
    grids coincide or are nested by an integer factor."""
    n_a, lo_a, hi_a, data_a = _comparable(path_a)
    n_b, lo_b, hi_b, data_b = _comparable(path_b)
    for key, x_a, x_b in (("y_min", lo_a, lo_b), ("y_max", hi_a, hi_b)):
        if not np.isclose(x_a, x_b, rtol=0.0, atol=1e-12):
            raise ValueError(f"snapshots cover different domains ({key})")
    _refinement_factor(n_a, n_b)
    dy_coarse = (hi_a - lo_a) / min(n_a, n_b)
    return {name: compare_fields(data_a[name], data_b[name], dy_coarse)
            for name in SNAPSHOT_COLUMNS[1:]}


def snapshot_filename(scenario_name: str, n: int, t: float) -> str:
    return f"{scenario_name}_N{n}_t{t:.6f}.csv"


def ensure_outdir(path) -> str:
    os.makedirs(path, exist_ok=True)
    probe = os.path.join(path, ".write-probe")
    try:
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as err:
        raise OSError(f"output directory {path!r} is not writable: {err}")
    return path
