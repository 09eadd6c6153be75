"""A frozen control kernel, timed between workload calls.

The shared host this benchmark was written on changes speed by up to 2x
over seconds to minutes, in CPU time as well as in wall time, so a run's
raw times say more about the host than about the solver. The runner
times this kernel right before and after every workload call and divides
the call's time by the mean of the two; a slowdown of the host stretches
both alike and cancels, a change of the solver does not.

The kernel is independent of ``trsw`` and must not change once baselines
exist: it is a first-order Rusanov finite-volume solver of the 1-D
shallow-water equations in numpy, the same kind of work as the solver's
per-cell arrays and per-step Python calls, plus CSV formatting of the
state, the same kind of work as the solver's snapshot files.
"""

from __future__ import annotations

import dataclasses

import numpy as np

GRAVITY = 9.81


@dataclasses.dataclass(frozen=True)
class Control:
    """``steps`` time steps on ``cells`` cells, then ``rows`` CSV rows of
    the state, taken cyclically. ``nominal_s`` is the kernel's wall time
    on the reference host at full speed (the fastest of many calls on a
    2-core Intel Xeon KVM guest, Python 3.11, numpy 2.4); adjusted times
    are expressed in seconds of that host."""

    cells: int
    steps: int
    rows: int
    nominal_s: float

    def __call__(self) -> float:
        """Runs the kernel; returns a checksum of its outputs."""
        n = self.cells
        y = (np.arange(n) + 0.5) / n
        h = 1.0 + 0.1 * np.exp(-100.0 * (y - 0.5) ** 2)
        q = np.zeros(n)
        dx = 1.0 / n
        for _ in range(self.steps):
            h, q = _step(h, q, dx)
        text = "\n".join(f"{a!r},{b!r},{a * b!r},{b / a!r}"
                         for a, b in zip(np.resize(h, self.rows).tolist(),
                                         np.resize(q, self.rows).tolist()))
        return float(h.sum() + q.sum()) + len(text)


def _step(h, q, dx):
    """One Rusanov step on a periodic grid at CFL 0.4."""
    u = q / h
    c = np.sqrt(GRAVITY * h)
    speed = np.abs(u) + c
    dt = 0.4 * dx / float(speed.max())
    hr, qr, sr = np.roll(h, -1), np.roll(q, -1), np.roll(speed, -1)
    fh_l, fq_l = q, q * u + 0.5 * GRAVITY * h * h
    fh_r, fq_r = qr, qr * (qr / hr) + 0.5 * GRAVITY * hr * hr
    a = np.maximum(speed, sr)
    flux_h = 0.5 * (fh_l + fh_r) - 0.5 * a * (hr - h)
    flux_q = 0.5 * (fq_l + fq_r) - 0.5 * a * (qr - q)
    ratio = dt / dx
    h = h - ratio * (flux_h - np.roll(flux_h, 1))
    q = q - ratio * (flux_q - np.roll(flux_q, 1))
    return h, q
