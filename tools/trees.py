"""The ``trsw`` package of a source tree, for the tools that time or
compare trees: a checkout or its ``src`` directory."""

from __future__ import annotations

import os
import sys


def package_dir(tree: str) -> str:
    """The directory of the ``trsw`` package of a checkout or of its
    ``src`` directory; exits if there is none."""
    for src in (os.path.join(tree, "src"), tree):
        package = os.path.join(src, "trsw")
        if os.path.isfile(os.path.join(package, "__init__.py")):
            return package
    raise SystemExit(f"error: no trsw package in {tree} or {tree}/src")


def import_trsw(tree: str):
    """Import the ``trsw`` package of ``tree`` as ``trsw``; exits if
    another one is imported in its stead."""
    package = os.path.abspath(package_dir(tree))
    sys.path.insert(0, os.path.dirname(package))
    import trsw
    if os.path.dirname(os.path.abspath(trsw.__file__)) != package:
        raise SystemExit(f"error: imported trsw from {trsw.__file__}")
    return trsw
