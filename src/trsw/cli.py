"""Command-line front end: scenario runs, snapshot/diagnostics output,
solution comparison, and self-convergence tables.

Precedence of settings: command-line flags override config-file values,
which override scenario defaults. Config files are flat ``key = value``
lines with ``#`` comments and the same keys as the flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import fileio
from .model import Scenario
from .scenarios import SCENARIO_IDS, make_scenario
from .stepper import run_simulation


class ConfigError(ValueError):
    pass


_CONFIG_KEYS = ("scenario", "cells", "t_final", "snapshots", "out",
                "cfl", "sigma", "diagnostics")


@dataclass
class RunConfig:
    scenario: str
    cells: Optional[int] = None
    t_final: Optional[float] = None
    snapshots: Optional[Tuple[float, ...]] = None
    out: str = "out"
    cfl: Optional[float] = None
    sigma: Optional[float] = None
    diagnostics: bool = False
    compare_with: Optional[str] = None
    convergence: Optional[Tuple[int, ...]] = None


def _parse_float_list(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"malformed number list: {text!r}") from None


def _parse_int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"malformed integer list: {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"malformed boolean: {text!r}")


def read_config_file(path: str) -> Dict[str, str]:
    """Flat key = value file; unknown keys are rejected."""
    values: Dict[str, str] = {}
    try:
        fh = open(path)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trsw",
        description="Well-balanced finite-volume solver for the 1-D "
                    "thermal rotating shallow water equations.")
    parser.add_argument("--scenario", help=f"one of: {', '.join(SCENARIO_IDS)}")
    parser.add_argument("--cells", type=int, help="number of cells")
    parser.add_argument("--t-final", type=float, dest="t_final")
    parser.add_argument("--snapshots", help="comma-separated output times")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--cfl", type=float)
    parser.add_argument("--sigma", type=float, help="minmod parameter in [1,2]")
    parser.add_argument("--diagnostics", action="store_true", default=None,
                        help="also write the diagnostics time series")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--compare-with", dest="compare_with",
                        help="snapshot file to compare the final state against")
    parser.add_argument("--convergence",
                        help="comma-separated cell counts for a "
                             "self-convergence table (integer refinements)")
    return parser


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Resolve flags and optional config file into a RunConfig."""
    args = _build_parser().parse_args(argv)
    file_values = read_config_file(args.config) if args.config else {}

    def pick(flag_value, key, convert):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return convert(file_values[key])
        return None

    scenario = pick(args.scenario, "scenario", str)
    if scenario is None:
        raise ConfigError("no scenario given (use --scenario)")
    if scenario not in SCENARIO_IDS:
        raise ConfigError(f"unknown scenario {scenario!r} "
                          f"(known: {', '.join(SCENARIO_IDS)})")

    def conv_float(text):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"malformed number: {text!r}") from None

    def conv_int(text):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"malformed integer: {text!r}") from None

    snapshots = args.snapshots
    if snapshots is not None:
        snapshots = _parse_float_list(snapshots)
    elif "snapshots" in file_values:
        snapshots = _parse_float_list(file_values["snapshots"])

    return RunConfig(
        scenario=scenario,
        cells=pick(args.cells, "cells", conv_int),
        t_final=pick(args.t_final, "t_final", conv_float),
        snapshots=snapshots,
        out=pick(args.out, "out", str) or "out",
        cfl=pick(args.cfl, "cfl", conv_float),
        sigma=pick(args.sigma, "sigma", conv_float),
        diagnostics=bool(pick(args.diagnostics, "diagnostics", _parse_bool)),
        compare_with=args.compare_with,
        convergence=_parse_int_list(args.convergence)
        if args.convergence else None)


def _scenario_from_config(cfg: RunConfig, cells: Optional[int] = None
                          ) -> Scenario:
    try:
        return make_scenario(cfg.scenario,
                             cells=cells if cells is not None else cfg.cells,
                             t_final=cfg.t_final, snapshots=cfg.snapshots,
                             sigma=cfg.sigma, cfl=cfg.cfl)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def convergence_mode(cfg: RunConfig) -> List[dict]:
    """Run the scenario at each requested resolution and tabulate
    successive L1 differences with observed orders.

    The cell counts must increase by integer factors so the finer solution
    restricts exactly onto the coarser grid.
    """
    n_list = cfg.convergence or ()
    if len(n_list) < 2:
        raise ConfigError("convergence mode needs at least two cell counts")
    for n_coarse, n_fine in zip(n_list, n_list[1:]):
        if n_fine <= n_coarse or n_fine % n_coarse:
            raise ConfigError(
                f"cell counts must refine by integer factors; "
                f"got {n_coarse} -> {n_fine}")

    finals = []
    for n in n_list:
        scenario = _scenario_from_config(cfg, cells=n)
        if scenario.snapshots:
            scenario = replace(scenario, snapshots=())
        result = run_simulation(scenario, collect_records=False)
        if result.failed:
            raise RuntimeError(f"run at N={n} failed: {result.failure_message}")
        finals.append((n, scenario.grid, result.state))

    fields = ("h", "q", "p", "hb")
    rows: List[dict] = []
    for (n_c, grid_c, state_c), (n_f, _, state_f) in zip(finals, finals[1:]):
        errors = {}
        for i, name in enumerate(fields):
            l1, linf = fileio.compare_fields(state_c.array[i],
                                             state_f.array[i], grid_c.dy)
            errors[name] = l1
        rows.append({"n_coarse": n_c, "n_fine": n_f, "l1": errors})
    for prev, cur in zip(rows, rows[1:]):
        ratio = cur["n_coarse"] / prev["n_coarse"]
        cur["order"] = {
            name: (math.log(prev["l1"][name] / cur["l1"][name])
                   / math.log(ratio))
            if prev["l1"][name] > 0 and cur["l1"][name] > 0 else float("nan")
            for name in fields}
    return rows


def _print_convergence(rows: List[dict]) -> None:
    fields = ("h", "q", "p", "hb")
    header = f"{'N':>6} {'vs':>6}"
    for name in fields:
        header += f" {'L1(' + name + ')':>12} {'order':>7}"
    print(header)
    for row in rows:
        line = f"{row['n_coarse']:>6} {row['n_fine']:>6}"
        for name in fields:
            order = row.get("order", {}).get(name)
            order_text = f"{order:7.3f}" if order is not None \
                and not math.isnan(order) else f"{'-':>7}"
            line += f" {row['l1'][name]:12.4e} {order_text}"
        print(line)


def _check_file_names(scenario: Scenario, with_final: bool) -> None:
    """Refuse distinct output times whose snapshot files share a name, so
    that no snapshot overwrites another; the final time counts when its
    state is written for a comparison."""
    times = set(scenario.snapshots)
    if with_final:
        times.add(scenario.t_final)
    seen: Dict[str, float] = {}
    for t in sorted(times):
        name = fileio.snapshot_filename(scenario.name, scenario.grid.n, t)
        if name in seen:
            raise ConfigError(f"output times {seen[name]!r} and {t!r} "
                              f"share the file name {name}")
        seen[name] = t


def _run_and_write(cfg: RunConfig) -> int:
    scenario = _scenario_from_config(cfg)
    _check_file_names(scenario, with_final=bool(cfg.compare_with))
    reference = None
    if cfg.compare_with:  # checked before the run, so a bad one costs none
        reference = fileio.read_comparable(cfg.compare_with)
        grid = scenario.grid
        fileio.check_nested((grid.n, grid.y_min, grid.y_max), reference)
    fileio.ensure_outdir(cfg.out)

    written: List[str] = []

    def on_snapshot(t, state):
        path = os.path.join(cfg.out, fileio.snapshot_filename(
            scenario.name, scenario.grid.n, t))
        fileio.write_snapshot(path, state, scenario.topography, scenario.grid,
                              t, scenario.name, scenario.numerics)
        written.append(path)

    result = run_simulation(scenario, on_snapshot=on_snapshot,
                            collect_records=cfg.diagnostics)
    if cfg.diagnostics:
        path = os.path.join(cfg.out, f"{scenario.name}_diagnostics.csv")
        fileio.write_diagnostics(path, result.records)
        written.append(path)
    if result.failed:
        print(f"integration failed: {result.failure_message} "
              f"(partial outputs: {len(written)} files)", file=sys.stderr)
        return 1

    for path in written:
        print(path)

    if reference is not None:
        final_path = os.path.join(cfg.out, fileio.snapshot_filename(
            scenario.name, scenario.grid.n, result.t))
        if final_path not in written:
            fileio.write_snapshot(final_path, result.state,
                                  scenario.topography, scenario.grid,
                                  result.t, scenario.name, scenario.numerics)
            print(final_path)
        table = fileio.compare_snapshots(fileio.read_comparable(final_path),
                                         reference)
        print(f"{'field':>6} {'L1':>13} {'Linf':>13}")
        for name, (l1, linf) in table.items():
            print(f"{name:>6} {l1:13.5e} {linf:13.5e}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_config(argv)
        if cfg.convergence:
            _print_convergence(convergence_mode(cfg))
            return 0
        return _run_and_write(cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
