"""Traced runs: spans at the boundaries between trsw modules and the counts
of the scheme's decision points, recorded from outside the package.

``Tracer.installed`` rebinds module attributes, such as
``trsw.stepper.numerical_flux`` or ``trsw.reconstruction.depth_from_equilibrium``,
to wrappers that record a span (name, start, end, parent) around each call,
and restores them on exit. Spans stay in memory until ``dump`` writes them.
Counting hooks run after the call they inspect, inside a span of their own
(``trace.hooks``), so they add to the trace overhead but not to any
layer's time.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import os
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Optional

import numpy as np

HOOKS = "trace.hooks"
WORKLOAD = "workload"

# mirrors the branch tests of trsw.reconstruction.depth_from_equilibrium,
# trsw.flux.numerical_flux and trsw.stepper.run_simulation
_TINY = 1.0e-300
_DEGENERATE = 1.0e-12
_LANDING = 1.0 - 1.0e-12


def _count_fallback(counts, args, out):
    p, b, l, r, fb = np.broadcast_arrays(
        *(np.asarray(args[k], float)
          for k in ("p_side", "b_mid", "l_side", "r_iface", "h_fallback")))
    with np.errstate(all="ignore"):
        d = l - r
        ok = b > _TINY
        rootable = ok & (p ** 4 <= 8.0 * d ** 3 / (27.0 * np.where(ok, b, 1.0)))
        root = rootable & ((p != 0.0) | (d > 0.0))
    counts["depth.total"] += p.size
    counts["depth.fallback"] += p.size - int(np.count_nonzero(root))


def _count_switch(counts, args, out):
    counts["switch.total"] += np.size(out)
    counts["switch.on"] += int(np.count_nonzero(np.asarray(out) > 0.5))


def _count_degenerate(counts, args, out):
    _, a_plus, a_minus = out
    counts["flux.total"] += np.size(a_plus)
    counts["flux.degenerate"] += int(np.count_nonzero(
        np.asarray(a_plus) - np.asarray(a_minus) < _DEGENERATE))


def _count_limited(counts, args, out):
    flux, n_limited = out
    counts["drain.total"] += flux.shape[1]
    counts["drain.limited"] += int(n_limited)


def _count_clipped(counts, args, out):
    t_remaining = float(args["t_remaining"])
    if math.isfinite(t_remaining):
        counts["cfl.clipped"] += int(out >= t_remaining * _LANDING)


def _count_bytes(counts, args, out):
    counts["bytes"] += os.path.getsize(args["path"])


# (module under trsw, attribute, span name, counting hook). The module is
# the caller's: rebinding the name where it is looked up is what routes
# the call through the wrapper.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "make_scenario", "scenarios.make_scenario", None),
    ("", "make_scenario", "scenarios.make_scenario", None),
    ("cli", "run_simulation", "stepper.run_simulation", None),
    ("", "run_simulation", "stepper.run_simulation", None),
    ("fileio", "write_snapshot", "fileio.write_snapshot", _count_bytes),
    ("fileio", "write_diagnostics", "fileio.write_diagnostics", _count_bytes),
    ("diagnostics", "make_record", "diagnostics.make_record", None),
    ("stepper", "ConservedState", "model.ConservedState", None),
    ("stepper", "build_interface_states",
     "reconstruction.build_interface_states", None),
    ("stepper", "diffusion_switch", "flux.diffusion_switch", _count_switch),
    ("stepper", "numerical_flux", "flux.numerical_flux", _count_degenerate),
    ("stepper", "draining_limit", "stepper.draining_limit", _count_limited),
    ("stepper", "source_term", "stepper.source_term", None),
    ("stepper", "cfl_dt", "stepper.cfl_dt", _count_clipped),
    ("reconstruction", "interface_values",
     "reconstruction.interface_values", None),
    ("reconstruction", "depth_from_equilibrium",
     "reconstruction.depth_from_equilibrium", _count_fallback),
    ("reconstruction", "source_potential",
     "reconstruction.source_potential", None),
)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def decision_counts(counts: Counter, steps: int) -> Dict[str, float]:
    """The per-call decision-point metrics; exact functions of the inputs."""
    return {
        "reconstruction.depth_fallback_fraction":
            _ratio(counts["depth.fallback"], counts["depth.total"]),
        "flux.switch_on_fraction":
            _ratio(counts["switch.on"], counts["switch.total"]),
        "flux.degenerate_fraction":
            _ratio(counts["flux.degenerate"], counts["flux.total"]),
        "stepper.steps": steps,
        "stepper.limited_fraction":
            _ratio(counts["drain.limited"], counts["drain.total"]),
        "stepper.clipped_steps": counts["cfl.clipped"],
        "fileio.bytes_written": counts["bytes"],
    }


class Tracer:
    """Span store plus the counters of the current workload call."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = []
        self.counts = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self._stack.pop()
        self.end[i] = time.perf_counter_ns()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None):
        nid, hid = self._id(name), self._id(HOOKS)
        signature = inspect.signature(fn) if hook is not None else None
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                j = tracer._open(hid)
                try:
                    hook(tracer.counts,
                         signature.bind(*args, **kwargs).arguments, out)
                finally:
                    tracer._close(j)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self, trsw):
        saved = []
        try:
            for module_name, attr, name, hook in TARGETS:
                module = getattr(trsw, module_name) if module_name else trsw
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, hook))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextlib.contextmanager
    def call(self):
        """Root span of one workload call; resets the counters."""
        self.counts = Counter()
        i = self._open(self._id(WORKLOAD))
        try:
            yield
        finally:
            self._close(i)

    def layer_times(self, lo: int, hi: int) -> Dict[str, Dict[str, float]]:
        """Per span name over spans [lo, hi): calls, inclusive seconds
        without the counting hooks beneath, and self seconds (duration
        minus that of the child spans)."""
        hid = self._ids.get(HOOKS, -1)
        n = hi - lo
        child = [0] * n
        hooked = [0] * n
        for k in range(n - 1, -1, -1):  # children follow their parents
            i = lo + k
            d = self.end[i] - self.start[i]
            if self.name_id[i] == hid:
                hooked[k] += d
            p = self.parent[i] - lo
            if p >= 0:
                child[p] += d
                hooked[p] += hooked[k]
        out: Dict[str, Dict[str, float]] = {}
        for k in range(n):
            i = lo + k
            d = self.end[i] - self.start[i]
            entry = out.setdefault(self.names[self.name_id[i]],
                                   {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += (d - hooked[k]) * 1e-9
            entry["self_s"] += (d - child[k]) * 1e-9
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write every recorded span; times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        doc = dict(meta, names=self.names, spans={
            "name": list(self.name_id),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "parent": list(self.parent)})
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
