"""CSV snapshot and diagnostics files, plus solution comparison helpers.

Snapshots are plot-ready text: metadata in leading ``# key: value``
comments, a header row, one data row per cell, real values as ``%.16e``
(17 significant digits), so identical runs produce byte-identical files.

A table is built as one list of ``%.16e`` strings per column, and each
row is one ``",".join`` of its fields. A column formats each run of
equal float64 bit patterns once if it has at most half as many runs as
rows, and each field otherwise: a well-balanced run holds equilibria
fixed to round-off, and an ex6 snapshot at N = 4000 has about 1,500 runs
in the 36,000 fields outside y.

The same holds from one snapshot of a run to the next: on ex6 at
N = 4000 with 16 snapshot times, 97% of the rows after the first
snapshot keep all nine values bit for bit. ``write_snapshot`` returns
what it wrote (``SnapshotRows``) and takes it back on the run's next
call; a row whose nine bit patterns are unchanged keeps its text, and
only the other rows are formatted. The cell centres y, all distinct,
are formatted once per run, by its first write, and held by the rows;
a ``previous`` made for another grid object is not reused, y included.

Runs and rows are compared by bit pattern, not by float value:
``0.0 == -0.0`` although they print differently, and a NaN equals no
value. Each field is the ``%.16e`` of the same float either way, so the
files keep their bytes.
"""

from __future__ import annotations

import os
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .diagnostics import DiagnosticsRecord
from .model import ConservedState, Grid, Scenario, Topography, \
    primitives_from_state

CSV_FLOAT = "%.16e"  # a float in the CSV files: 17 digits read back exactly
SNAPSHOT_COLUMNS = ("y", "h", "q", "p", "hb", "u", "v", "b", "w", "Z")


def _column_text(col: np.ndarray) -> list:
    """The CSV_FLOAT strings of a float64 column, run by run if runs are few."""
    bits = col.view(np.int64)
    changed = bits[1:] != bits[:-1]
    if 2 * (1 + np.count_nonzero(changed)) > len(col):
        return [CSV_FLOAT % x for x in col.tolist()]
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    strings = np.array([CSV_FLOAT % x for x in col[starts].tolist()], object)
    return np.repeat(strings, np.diff(starts, append=len(col))).tolist()


def _csv_rows(columns):
    """Comma-joined rows of equal-length columns of strings."""
    return list(map(",".join, zip(*columns)))


class SnapshotRows(NamedTuple):
    """What ``write_snapshot`` wrote below its header: the grid, the n
    strings of its y column, the int64 bit patterns of the nine value
    columns (h .. Z), shape (9, n), and the n row strings, an object
    array."""

    grid: Grid
    y_text: list
    bits: np.ndarray
    rows: np.ndarray


def _values(state: ConservedState, topo: Topography) -> np.ndarray:
    """The nine value columns h .. Z of a snapshot, (9, n)."""
    return np.vstack((state.array, *primitives_from_state(state, topo),
                      topo.z_center))


def write_snapshot(path, state: ConservedState, scenario: Scenario, t: float,
                   previous: Optional[SnapshotRows] = None) -> SnapshotRows:
    """Write one snapshot of ``scenario`` as CSV (see SNAPSHOT_COLUMNS) and
    return its rows. Given the rows of the run's previous snapshot, it
    reuses their y text and the text of each row whose nine values keep
    their bit patterns; a ``previous`` of another grid object counts every
    row as changed."""
    grid, numerics = scenario.grid, scenario.numerics
    values = _values(state, scenario.topography)
    bits = values.view(np.int64)
    if previous is None or previous.grid is not grid:
        y_text = _column_text(grid.centers)
        rows = np.empty(grid.n, object)
        changed = np.arange(grid.n)
    else:
        y_text = previous.y_text
        rows = previous.rows.copy()
        changed = np.flatnonzero((bits != previous.bits).any(axis=0))
    rows[changed] = _csv_rows((map(y_text.__getitem__, changed.tolist()),
                               *map(_column_text, values[:, changed])))
    lines = [
        f"# scenario: {scenario.name}",
        f"# N: {grid.n}",
        f"# y_min: {CSV_FLOAT % grid.y_min}",
        f"# y_max: {CSV_FLOAT % grid.y_max}",
        f"# t: {CSV_FLOAT % t}",
        f"# cfl: {CSV_FLOAT % numerics.cfl}",
        f"# sigma: {CSV_FLOAT % numerics.sigma}",
        ",".join(SNAPSHOT_COLUMNS),
    ]
    lines += rows.tolist()
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return SnapshotRows(grid, y_text, bits, rows)


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
    if "N" in meta and data.shape[0] != _meta_value(path, meta, "N", int):
        raise ValueError(f"{path}: row count does not match N")
    return meta, {name: data[:, i] for i, name in enumerate(header)}


def _meta_value(path, meta: Dict[str, str], key: str, kind):
    """``kind(meta[key])``, or a ValueError that names the file."""
    try:
        return kind(meta[key])
    except ValueError:
        raise ValueError(f"{path}: malformed {key}: {meta[key]!r}") from None


def write_diagnostics(path, records) -> None:
    """Diagnostics time series CSV: one row per recorded step."""
    width = len(DiagnosticsRecord.FIELDS)
    table = np.array([rec.row() for rec in records], float).reshape(-1, width)
    lines = [",".join(DiagnosticsRecord.FIELDS)]
    lines += _csv_rows(map(_column_text, table.T))
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


def read_comparable(path):
    """(N, y_min, y_max, columns) of a snapshot file, all of them present."""
    meta, data = read_snapshot(path)
    missing = [key for key in ("N", "y_min", "y_max") if key not in meta]
    missing += [name for name in SNAPSHOT_COLUMNS if name not in data]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    return (_meta_value(path, meta, "N", int),
            _meta_value(path, meta, "y_min", float),
            _meta_value(path, meta, "y_max", float), data)


def comparable(state: ConservedState, scenario: Scenario):
    """(N, y_min, y_max, columns) of the snapshot of ``state`` on the grid
    of ``scenario``, the values ``read_comparable`` reads back from its
    file: ``%.16e`` reads back exactly."""
    grid = scenario.grid
    columns = dict(zip(SNAPSHOT_COLUMNS, (grid.centers, *_values(
        state, scenario.topography))))
    return grid.n, grid.y_min, grid.y_max, columns


def check_nested(a, b) -> None:
    """ValueError unless two grids, each given as (N, y_min, y_max, ...),
    cover the same domain with cell counts nested by an integer factor."""
    (n_a, lo_a, hi_a), (n_b, lo_b, hi_b) = a[:3], b[:3]
    for key, x_a, x_b in (("y_min", lo_a, lo_b), ("y_max", hi_a, hi_b)):
        if not np.isclose(x_a, x_b, rtol=0.0, atol=1e-12):
            raise ValueError(f"snapshots cover different domains ({key})")
    _refinement_factor(n_a, n_b)


def compare_snapshots(a, b) -> Dict[str, Tuple[float, float]]:
    """Per-column (L1, Linf) differences between two read_comparable
    snapshots whose grids coincide or are nested by an integer factor."""
    check_nested(a, b)
    (n_a, lo_a, hi_a, data_a), (n_b, _, _, data_b) = a, b
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
