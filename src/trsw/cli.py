"""Command-line front end: scenario runs, snapshot/diagnostics output,
solution comparison, and self-convergence tables.

Each setting is declared once, as a flag of the parser. A ``--config``
file holds flat ``key = value`` lines with ``#`` comments, where a key is
a flag's name with ``_`` for ``-`` (``t_final`` for ``--t-final``). Each
file value is converted by its flag's own converter and installed as that
flag's default, so flags override file values, which override scenario
defaults.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import fileio
from .model import Scenario
from .scenarios import SCENARIO_IDS, make_scenario
from .stepper import run_simulation


class ConfigError(ValueError):
    pass


# the flags that a --config file may set
_CONFIG_KEYS = ("scenario", "cells", "t_final", "snapshots", "out",
                "cfl", "sigma", "diagnostics")


def _float_list(text: str) -> Tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _int_list(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def read_config_file(path: str, parser: argparse.ArgumentParser
                     ) -> Dict[str, object]:
    """Flat key = value file; unknown keys are rejected. Each value is
    converted by its flag's converter, a switch's by ``_parse_bool``."""
    actions = {action.dest: action for action in parser._actions}
    values: Dict[str, object] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err.reason}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        action = actions[key]
        convert = _parse_bool if action.nargs == 0 else (action.type or str)
        try:
            values[key] = convert(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed {key}: "
                              f"{value!r}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trsw",
        description="Well-balanced finite-volume solver for the 1-D "
                    "thermal rotating shallow water equations.")
    parser.add_argument("--scenario", help=f"one of: {', '.join(SCENARIO_IDS)}")
    parser.add_argument("--cells", type=int, help="number of cells")
    parser.add_argument("--t-final", type=float, dest="t_final")
    parser.add_argument("--snapshots", type=_float_list,
                        help="comma-separated output times")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--cfl", type=float)
    parser.add_argument("--sigma", type=float, help="minmod parameter in [1,2]")
    parser.add_argument("--diagnostics", action="store_true",
                        help="also write the diagnostics time series")
    parser.add_argument("--config", help="key = value config file")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compare-with", dest="compare_with",
                      help="snapshot file to compare the final state against")
    mode.add_argument("--convergence", type=_int_list,
                      help="comma-separated cell counts for a "
                           "self-convergence table (integer refinements)")
    return parser


def parse_config(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Resolve flags and an optional config file into the run's settings."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # converted values, never file text: argparse would convert a
        # string default itself, and "false" would make --diagnostics true
        parser.set_defaults(**read_config_file(args.config, parser))
        args = parser.parse_args(argv)
    if args.scenario is None:
        raise ConfigError("no scenario given (use --scenario)")
    if args.scenario not in SCENARIO_IDS:
        raise ConfigError(f"unknown scenario {args.scenario!r} "
                          f"(known: {', '.join(SCENARIO_IDS)})")
    if args.convergence:
        # a convergence table writes no files, so it has no use for them
        unused = [flag for flag, given in (
            ("--snapshots", args.snapshots is not None),
            ("--out", args.out is not None),
            ("--diagnostics", args.diagnostics)) if given]
        if unused:
            raise ConfigError(f"--convergence writes no files; "
                              f"{', '.join(unused)} not allowed with it")
    args.out = args.out or "out"  # an empty --out or out = means the default
    return args


def _scenario_from_config(cfg: argparse.Namespace, cells: Optional[int] = None
                          ) -> Scenario:
    try:
        return make_scenario(cfg.scenario,
                             cells=cells if cells is not None else cfg.cells,
                             t_final=cfg.t_final, snapshots=cfg.snapshots,
                             sigma=cfg.sigma, cfl=cfg.cfl)
    except ValueError as err:
        raise ConfigError(str(err)) from None


# the conserved fields of a convergence table
_CONVERGENCE_FIELDS = ("h", "q", "p", "hb")


def convergence_mode(cfg: argparse.Namespace) -> List[dict]:
    """Run the scenario at each requested resolution and tabulate
    successive L1 differences with observed orders.

    The cell counts must increase by integer factors so the finer solution
    restricts exactly onto the coarser grid.
    """
    n_list = cfg.convergence or ()
    if len(n_list) < 2:
        raise ConfigError("convergence mode needs at least two cell counts")
    if min(n_list) < 1:
        raise ConfigError(f"cell counts must be at least 1; got {min(n_list)}")
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
        finals.append(fileio.comparable(result.state, scenario))

    rows: List[dict] = []
    for coarse, fine in zip(finals, finals[1:]):
        table = fileio.compare_snapshots(coarse, fine)
        rows.append({"n_coarse": coarse[0], "n_fine": fine[0],
                     "l1": {name: table[name][0]
                            for name in _CONVERGENCE_FIELDS}})
    for prev, cur in zip(rows, rows[1:]):
        ratio = cur["n_coarse"] / prev["n_coarse"]
        cur["order"] = {
            name: (math.log(prev["l1"][name] / cur["l1"][name])
                   / math.log(ratio))
            if prev["l1"][name] > 0 and cur["l1"][name] > 0 else float("nan")
            for name in _CONVERGENCE_FIELDS}
    return rows


def _print_convergence(rows: List[dict]) -> None:
    header = f"{'N':>6} {'vs':>6}"
    for name in _CONVERGENCE_FIELDS:
        header += f" {'L1(' + name + ')':>12} {'order':>7}"
    print(header)
    for row in rows:
        line = f"{row['n_coarse']:>6} {row['n_fine']:>6}"
        for name in _CONVERGENCE_FIELDS:
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


def _run_and_write(cfg: argparse.Namespace) -> int:
    scenario = _scenario_from_config(cfg)
    _check_file_names(scenario, with_final=bool(cfg.compare_with))
    reference = None
    if cfg.compare_with:  # checked before the run, so a bad one costs none
        reference = fileio.read_comparable(cfg.compare_with)
        grid = scenario.grid
        fileio.check_nested((grid.n, grid.y_min, grid.y_max), reference)
    fileio.ensure_outdir(cfg.out)

    written: List[str] = []
    rows = None  # the rows of the last snapshot written, reused where equal

    def on_snapshot(t, state):
        nonlocal rows
        path = os.path.join(cfg.out, fileio.snapshot_filename(
            scenario.name, scenario.grid.n, t))
        rows = fileio.write_snapshot(path, state, scenario, t, rows)
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
            fileio.write_snapshot(final_path, result.state, scenario,
                                  result.t, rows)
            print(final_path)
        table = fileio.compare_snapshots(
            fileio.comparable(result.state, scenario), reference)
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
