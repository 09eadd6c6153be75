"""SHA-256 digests of every CSV the CLI writes, scenario by scenario.

Runs ``python -m trsw.cli --scenario S --cells N --diagnostics`` for each
scenario S of ``trsw.scenarios.SCENARIO_IDS``, with the ``src/`` of the
checkout this file sits in, into ``OUTDIR/S``. For each run it prints the exit code and any ``error:`` or
``integration failed:`` line the CLI wrote, then one ``sha256  path`` line
per CSV (paths relative to OUTDIR) and one for the CLI's standard output.
Two checkouts give the same listing exactly when their CLIs wrote the same
bytes, so a refactor that must keep the files can be checked by running,
in checkout A and then in checkout B::

    python tools/csv_digests.py ../digests-a --cells 400 > ../a.txt
    python tools/csv_digests.py ../digests-b --cells 400 > ../b.txt

and then ``diff ../a.txt ../b.txt``.

Scenarios run one at a time, each in its own interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(outdir: str, scenario: str, cells: int) -> list:
    """Run the CLI for one scenario; return the listing lines."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    # relative --out, so the printed paths do not depend on OUTDIR
    proc = subprocess.run(
        [sys.executable, "-m", "trsw.cli", "--scenario", scenario,
         "--cells", str(cells), "--out", scenario, "--diagnostics"],
        cwd=outdir, env=env, capture_output=True)
    lines = [f"{scenario}: exit {proc.returncode}"]
    lines += [f"{scenario}: {line}"
              for line in proc.stderr.decode(errors="replace").splitlines()
              if line.startswith(("error:", "integration failed:"))]
    rundir = os.path.join(outdir, scenario)
    names = sorted(os.listdir(rundir)) if os.path.isdir(rundir) else []
    for name in names:
        if name.endswith(".csv"):
            with open(os.path.join(rundir, name), "rb") as fh:
                lines.append(f"{_sha256(fh.read())}  {scenario}/{name}")
    lines.append(f"{_sha256(proc.stdout)}  {scenario}/stdout")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", help="directory for the CLI outputs")
    parser.add_argument("--cells", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, _SRC)
    from trsw.scenarios import SCENARIO_IDS
    for scenario in SCENARIO_IDS:
        if os.path.exists(os.path.join(args.outdir, scenario)):
            parser.error(f"{os.path.join(args.outdir, scenario)} exists; "
                         "give a fresh OUTDIR so no old file is listed")
    os.makedirs(args.outdir, exist_ok=True)
    for scenario in SCENARIO_IDS:
        for line in digest_run(args.outdir, scenario, args.cells):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
